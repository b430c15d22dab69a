"""The benchmark's workloads (perfbench/workloads.py) call qdecay by name and gate
every output; a rename or deletion of a name they call, or an output that fails
its gate, must fail here, not only as a refused benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
NAMES = ("verify-mixed", "quadrature", "paper-sweeps")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks the module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", NAMES)
def test_first_round_passes_its_gates(workloads, name, tmp_path):
    assert sorted(workloads.BY_NAME) == sorted(NAMES)
    first = workloads.BY_NAME[name](1, str(tmp_path))[0]
    for call in first:
        assert call.check(call.collect(call.run())) is None, call.label

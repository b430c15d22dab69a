"""The benchmark's traced run wraps qdecay functions by attribute name
(perfbench/tracing.py); a rename or deletion in qdecay must fail here, not
only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from qdecay import bounds, channels, cli, entropy, experiments, matcore, rng, verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_exist_and_are_restored():
    tracing = _load_tracing()
    mods = {"matcore": matcore, "rng": rng, "entropy": entropy, "channels": channels,
            "bounds": bounds, "experiments": experiments, "verify": verify, "cli": cli}
    targets = tracing.targets(mods)
    for owner, attr, _, _ in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is traced but missing"
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    suites = dict(verify.SUITES)
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        assert all(vars(owner)[attr] is not raw
                   for (owner, attr, _, _), raw in zip(targets, before))
    finally:
        tracer.uninstall(mods)
    assert all(vars(owner)[attr] is raw for (owner, attr, _, _), raw in zip(targets, before))
    assert verify.SUITES == suites
    assert all(verify.SUITES[k] is fn for k, fn in suites.items())

"""The package holds what its commands and the benchmark run.  One fresh
interpreter, profiled from before qdecay is imported, runs README's four
commands, three more command forms and the first round of each benchmark
workload (perfbench/workloads.py) through its gates.  Every function and method
defined in src/qdecay must be entered, except the names in ALLOWED: code that
only tests call belongs in tests/ (tests/oracles.py holds such code)."""

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qdecay"

TRACED = "perfbench/tracing.py wraps it by name until the benchmark drops it (ROADMAP item 1)"
# module.qualname of each function that the run does not enter, and why it stays
ALLOWED = {
    "channels.SuperOperator.tensor_identity": TRACED,
    "rng.Rng.integer": TRACED,
    "channels.apply_to_b": TRACED,
    "entropy.mutual_information": TRACED,
    "verify.replay": "re-evaluates one recorded violation; ROADMAP item 6 builds on it",
    "channels.KrausChannel._one":
        "guards the Kraus branches of apply_on_factor and choi_matrix, which the commands "
        "reach with superoperators only",
    "matcore.BipartiteDensity.__getitem__":
        "indexes a family of bipartite states; the commands index their DensityStacks",
}

# README's four commands, then a json g-table, bits and a bad --t (exit 2); {out}
# is a temporary directory
COMMANDS = [
    (["sudden-decay", "--lambda", "0.1", "--theta-min", "1e-6", "--theta-max", "1e-2",
      "--points", "9", "--noise", "depolarizing", "--out", "{out}/sweep.csv"], 0),
    (["g-table", "--variant", "paper-example", "--t", "1e-3,1e-2,1e-1,1"], 0),
    (["verify", "--suite", "all", "--samples", "100", "--seed", "7",
      "--out", "{out}/report.json"], 0),
    (["private-rate", "--p", "0.01", "--lambda", "0.01", "--out", "{out}/rate.csv"], 0),
    (["g-table", "--t", "1e-3,1e-2,1e-1,1", "--format", "json"], 0),
    (["private-rate", "--p", "0.01", "--lambda", "0.01", "--units", "bits"], 0),
    (["g-table", "--t", "0"], 2),
]

RUN = r"""
import contextlib, importlib.util, io, json, os, sys, tempfile

root, commands = sys.argv[1], json.loads(sys.argv[2])
src = os.path.join(root, "src", "qdecay")
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
from qdecay import cli

codes, failures = [], []
with tempfile.TemporaryDirectory() as out:
    for argv in commands:
        argv = [a.replace("{out}", out) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # @dataclass looks the module up there
    spec.loader.exec_module(workloads)
    for name, build in workloads.BY_NAME.items():
        for call in build(1, out)[0]:
            failure = call.check(call.collect(call.run()))
            if failure is not None:
                failures.append(f"{call.label}: {failure}")
sys.setprofile(None)
print(json.dumps({"codes": codes, "failures": failures, "entered": sorted(
    [os.path.basename(c.co_filename), c.co_firstlineno, c.co_name] for c in entered
    if os.path.dirname(os.path.realpath(c.co_filename)) == os.path.realpath(src))}))
"""


def _defined() -> dict:
    """(file name, first line, name) -> module.qualname of each function and method
    defined in src/qdecay; lambdas, comprehensions and class bodies are left out."""
    out = {}

    def walk(code, path, prefix):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                function = bool(const.co_flags & inspect.CO_OPTIMIZED)
                qualname = prefix + const.co_name
                if function and not const.co_name.startswith("<"):
                    out[(path.name, const.co_firstlineno, const.co_name)] = qualname
                walk(const, path, qualname + (".<locals>." if function else "."))

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path, f"{path.stem}.")
    return out


def test_commands_and_workloads_enter_every_function_of_the_package():
    run = subprocess.run(
        [sys.executable, "-c", RUN, str(ROOT), json.dumps([argv for argv, _ in COMMANDS])],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True,
        text=True, check=True)
    result = json.loads(run.stdout)
    assert result["codes"] == [code for _, code in COMMANDS]
    assert result["failures"] == []
    defined = _defined()
    entered = {defined.get(tuple(key)) for key in result["entered"]}
    assert sorted(set(defined.values()) - entered) == sorted(ALLOWED)

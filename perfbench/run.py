"""qdecay benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify-mixed --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each run starts fresh interpreters:
several that only set up (import qdecay and build the workload's inputs,
for setup_s) and one that also runs the timed loop.  With --trace 0 the
last line of standard output is a JSON object with the end-to-end
metrics; with --trace 1, the per-layer metrics of a traced run.
--workload all runs every workload in turn.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("verify-mixed", "quadrature", "paper-sweeps")
SETUP_RUNS = 7  # interpreters timed through set-up per run; the last one measures
# median host-speed probe time (worker.probe) on the reference VM when no
# other tenant slows it down; timing metrics are reported at this speed
PROBE_REFERENCE_S = 1.3e-3
BLAS_THREADS = "1"  # one closed-loop caller; at most nproc
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(workload, seed, seconds, trace, setup_only, out_dir):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    return subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)


def timed_start(workload, seed, seconds, trace, setup_only, out_dir, deadline):
    """Start a worker; return it, the seconds until it printed "ready", and
    the host-speed probe time it measured right after."""
    start = time.perf_counter()
    proc = start_worker(workload, seed, seconds, trace, setup_only, out_dir)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    probe = proc.stdout.readline().split()
    if line.strip() != "ready" or len(probe) != 2 or probe[0] != "probe":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not finish set-up (exit {proc.returncode})")
    return proc, setup, float(probe[1])


def finish(proc, deadline) -> str:
    """Wait for a worker and return the rest of its output; kill it if late."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the run's time limit")
    return out


def at_reference_speed(metrics: dict, probe_s: float) -> dict:
    """Rescale timings to a host on which the probe takes PROBE_REFERENCE_S.

    Other tenants of a shared machine slow this process down by up to
    half for minutes at a time; the probe, timed between calls, slows
    down with it.  Scaling by the probe's median time in the same run
    removes most of that drift (see README.md).
    """
    slowness = probe_s / PROBE_REFERENCE_S
    return dict(metrics,
                items_per_s=metrics["items_per_s"] * slowness,
                call_ms_p50=metrics["call_ms_p50"] / slowness,
                call_ms_tail=metrics["call_ms_tail"] / slowness)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def run_workload(workload, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    out_dir = OUT_DIR / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    setups = []
    for _ in range(SETUP_RUNS - 1):
        proc, setup, probe = timed_start(workload, seed, 0, 0, True, out_dir, deadline)
        finish(proc, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run exited {proc.returncode}")
        setups.append((setup, probe))
    proc, setup, probe = timed_start(workload, seed, seconds, trace, False, out_dir,
                                     deadline)
    setups.append((setup, probe))
    out = finish(proc, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if trace:
        units = result.pop("units")
    else:
        result["raw"] = dict(result["metrics"],
                             setup_s=statistics.median(s for s, _ in setups))
        result["metrics"] = at_reference_speed(result["metrics"],
                                               result["detail"]["probe_s"])
        result["metrics"]["setup_s"] = statistics.median(
            s * PROBE_REFERENCE_S / p for s, p in setups)
        units = END_TO_END_UNITS
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in result["metrics"].items()}
    result["record"].update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": sys.version.split()[0], "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(), "src_lines": src_lines(),
        "setup_samples_s": [s for s, _ in setups],
        "probe_reference_s": PROBE_REFERENCE_S,
    })
    return result


def report(result) -> None:
    """Human-readable lines; the JSON result line comes after them."""
    rec = result["record"]
    print(f"# {rec['workload']} seed={rec['seed']} seconds={rec['seconds']} "
          f"trace={rec['trace']}")
    raw = result.get("raw", {})
    for name, m in result["metrics"].items():
        note = f"  (as measured: {raw[name]:.6g})" if name in raw else ""
        print(f"{name:45s} {m['value']:.6g} {m['unit']}{note}")
    print(f"{'fail_ratio':45s} {result['failed'] / result['attempted']:.6g} 1 "
          f"({result['failed']} of {result['attempted']} calls)")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print("detail " + json.dumps(result["detail"], sort_keys=True))
    print("record " + json.dumps(rec, sort_keys=True))


def contract_line(result) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qdecay" / "__init__.py").is_file():
        print(f"error: no qdecay sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for result in results:
        report(result)
    if len(results) > 1:
        # one line for all workloads, with metric names prefixed by workload
        results = [{
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": {f"{r['record']['workload']}/{k}": v
                        for r in results for k, v in r["metrics"].items()},
        }]
    print(contract_line(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

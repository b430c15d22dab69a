"""One benchmark process: build a workload, run it closed-loop, check it.

Started by run.py in a fresh interpreter, with PYTHONPATH pointing at the
checkout's src/ and BLAS threads pinned.  Prints "ready" once qdecay is
imported and the inputs are built (the end of set-up), then, unless
--setup-only is given, one JSON line with the measurements.

The timed loop runs whole rounds of calls until --seconds have passed;
the next call starts only after the previous one returns.  Outputs are
kept in memory and checked after the loop, so no check is timed.  Before
each call a fixed pure-Python loop (the host-speed probe) is timed; it is
not part of any call's latency or of the loop's wall time.  With
--trace 1 the loop instead runs whole passes over the call list,
alternating one under span tracing with one untraced, until --seconds
have passed; the untraced passes measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBES_AFTER_SETUP = 15


def _import_qdecay() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import qdecay
    if Path(qdecay.__file__).resolve().parent != ROOT / "src" / "qdecay":
        raise SystemExit(f"qdecay imported from {qdecay.__file__}, not {ROOT / 'src'}")


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the host-speed probe."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - start


def run_calls(calls, records, runners=None, probes=None) -> None:
    """Run calls in order, appending (call, output, seconds, raised) to records.

    runners, when given, replaces each call's run function (the traced run
    passes span-wrapped versions).  probes, when given, receives one probe
    time taken before each call.
    """
    clock = time.perf_counter
    for i, call in enumerate(calls):
        run = runners[i] if runners else call.run
        if probes is not None:
            probes.append(probe())
        start = clock()
        try:
            result = run()
        except Exception as err:  # a failing call is counted, not fatal
            records.append((call, f"raised {err!r}".encode(), clock() - start, True))
            continue
        elapsed = clock() - start
        try:
            output, raised = call.collect(result), False
        except Exception as err:
            output, raised = f"output unreadable: {err!r}".encode(), True
        records.append((call, output, elapsed, raised))


def gate(records) -> list:
    """Check every output and return, per record, None or why it failed.

    A repeated call must reproduce the bytes of its first run.
    """
    first = {}
    verdict = {}
    reasons = []
    for call, output, _, raised in records:
        key = id(call)
        if raised:
            reason = output.decode()
        elif key in first and first[key] != output:
            reason = "output differs from the first run of the same call"
        else:
            first.setdefault(key, output)
            if (key, output) not in verdict:
                try:
                    verdict[key, output] = call.check(output)
                except Exception as err:
                    verdict[key, output] = f"check raised {err!r}"
            reason = verdict[key, output]
        reasons.append(reason and f"{call.label}: {reason}")
    return reasons


def tail(latencies) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten calls beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def median_ms_by_label(records) -> dict:
    by_label = {}
    for call, _, elapsed, _ in records:
        by_label.setdefault(call.label, []).append(elapsed)
    return {k: round(1e3 * statistics.median(v), 3) for k, v in by_label.items()}


def measure(rounds, seconds: float) -> dict:
    records = []
    probes = []
    start = time.perf_counter()
    r = 0
    while True:
        run_calls(rounds[r % len(rounds)], records, probes=probes)
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start - sum(probes)
    # untimed: replay the first call, which must write the same bytes again
    timed = len(records)
    run_calls(rounds[0][:1], records)
    reasons = gate(records)
    failures = [reason for reason in reasons if reason]
    latencies = [rec[2] for rec in records[:timed]]
    items = sum(rec[0].items for rec, reason in zip(records[:timed], reasons)
                if not reason)
    tail_s, tail_pct = tail(latencies)
    return {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {
            "items_per_s": items / wall,
            "call_ms_p50": 1e3 * statistics.median(latencies),
            "call_ms_tail": 1e3 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "detail": {
            "wall_s": wall, "items": items, "calls": timed, "rounds": r,
            "tail_percentile": tail_pct, "probe_s": statistics.median(probes), "median_ms_by_call": median_ms_by_label(records[:timed]),
        },
    }


def measure_traced(rounds, seconds: float, modules, spans_path) -> dict:
    import tracing

    calls = [call for round_ in rounds for call in round_]
    tracer = tracing.Tracer()
    runners = [tracer.span("call", c.run) for c in calls]
    traced, plain = [], []
    traced_wall = plain_wall = 0.0
    cycles = 0
    start = time.perf_counter()
    # traced and untraced passes alternate, so drift in machine speed
    # affects both sides of trace.overhead_s alike
    while True:
        tracer.install(modules)
        try:
            t0 = time.perf_counter()
            run_calls(calls, traced, runners)
            traced_wall += time.perf_counter() - t0
        finally:
            tracer.uninstall(modules)
        t0 = time.perf_counter()
        run_calls(calls, plain)
        plain_wall += time.perf_counter() - t0
        cycles += 1
        if time.perf_counter() - start >= seconds:
            break
    failures = [reason for reason in gate(traced + plain) if reason]
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.spans, list(modules["verify"].SUITES), cycles)
    metrics["cli.output_bytes"] = (
        sum(len(out) for c, out, _, _ in traced if c.writes_file) / cycles, "bytes")
    metrics["trace.overhead_s"] = ((traced_wall - plain_wall) / cycles, "s")
    return {
        "attempted": len(traced) + len(plain),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "units": {k: u for k, (_, u) in metrics.items()},
        "detail": {"cycles": cycles, "traced_wall_s": traced_wall,
                   "untraced_wall_s": plain_wall, "spans": len(tracer.spans)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_qdecay()
    import workloads
    from qdecay import bounds, channels, cli, entropy, experiments, matcore, rng, verify

    rounds = workloads.BY_NAME[args.workload](args.seed, args.out_dir)
    print("ready", flush=True)
    print(f"probe {statistics.median(probe() for _ in range(PROBES_AFTER_SETUP))!r}",
          flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        modules = {"matcore": matcore, "rng": rng, "entropy": entropy,
                   "channels": channels, "bounds": bounds, "experiments": experiments,
                   "verify": verify, "cli": cli}
        spans_path = os.path.join(args.out_dir, f"spans-{args.workload}.tsv")
        result = measure_traced(rounds, args.seconds, modules, spans_path)
    else:
        result = measure(rounds, args.seconds)
    result["record"] = _numpy_record()
    print(json.dumps(result), flush=True)
    return 0


def _numpy_record() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


if __name__ == "__main__":
    sys.exit(main())

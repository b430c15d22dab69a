"""Command-line driver.

Subcommands mirror the package's experiments and verification suites;
identical (command, flags, seed) invocations write byte-identical files.
Exit codes: 0 success, 1 numerical failure, 2 bad flags or an unwritable
--out path, 3 verification suite violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import bounds, verify
from . import experiments as exp

DEFAULT_SEED = 2024

# entropic quantities are natural-log internally; unit conversion happens
# only here, on reported values
NAT_TO_BIT = 1.4426950408889634  # 1 / ln 2


def _seed_from_env(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("QDECAY_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"QDECAY_SEED must be an integer, got {env!r}") from None


def _error(err: Exception, code: int) -> int:
    """Print err as a one-line message and return the exit code."""
    # str() of a KeyError quotes its message
    msg = err.args[0] if isinstance(err, KeyError) else err
    print(f"error: {msg}", file=sys.stderr)
    return code


def _check_out_dir(path: str | None) -> None:
    """Reject an --out path whose directory is missing or not writable.

    The file itself is not opened, so an existing report is never
    truncated by a run that may fail."""
    if path is None or path == "-":
        return
    parent = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise ValueError(f"cannot write --out {path}: "
                         f"{parent} is not a writable directory")


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _sweep_text(result: exp.SweepResult, fmt: str) -> str:
    return result.to_csv() if fmt == "csv" else result.to_json() + "\n"


def _convert_units(result: exp.SweepResult, units: str, columns) -> exp.SweepResult:
    if units == "nats":
        return result
    idx = [result.columns.index(c) for c in columns]
    rows = tuple(tuple(x * NAT_TO_BIT if i in idx else x for i, x in enumerate(row))
                 for row in result.rows)
    meta = dict(result.metadata)
    meta["units"] = "bits"
    return exp.SweepResult(result.columns, rows, meta, result.warnings)


def cmd_sudden_decay(args) -> int:
    try:
        cfg = exp.SuddenDecayConfig.logspace(
            theta_max=args.theta_max, theta_min=args.theta_min,
            points=args.points, lam=args.lam, dim=args.dim, noise=args.noise)
    except ValueError as err:
        return _error(err, 2)
    try:
        result = exp.sudden_decay_sweep(cfg)
    except Exception as err:  # numerical failure
        return _error(err, 1)
    result = _convert_units(result, args.units, ("d_pre", "d_post"))
    _write_output(_sweep_text(result, args.format), args.out)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_g_table(args) -> int:
    try:
        times = [float(x) for x in args.t.split(",") if x]
        if not times or not all(0.0 < t < math.inf for t in times):
            raise ValueError("need positive finite comma-separated times")
        zetas = [1.0 - math.exp(-3.0 * t) for t in times]
        if max(zetas) == 1.0:
            raise ValueError(f"t = {max(times)!r} is too large: "
                             "zeta = 1 - exp(-3 t) rounds to 1")
    except ValueError as err:
        return _error(err, 2)
    rows = []
    for t, zeta in zip(times, zetas):
        g, tau = bounds.g_factor(zeta, 4.0, variant=args.variant)
        rows.append((t, zeta, g, tau))
    result = exp.SweepResult(
        columns=("t", "zeta", "g", "tau_star"),
        rows=tuple(rows),
        metadata={"experiment": "g-table", "variant": args.variant, "c": 4.0,
                  "diamond": 0.75, "version": exp.ARTIFACT_VERSION})
    _write_output(_sweep_text(result, args.format), args.out)
    return 0


def cmd_verify(args) -> int:
    try:
        seed = _seed_from_env(args.seed)
        if args.samples < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        _check_out_dir(args.out)
    except ValueError as err:
        return _error(err, 2)
    names = "all" if args.suite == "all" else [args.suite]
    try:
        report = verify.run_suites(names, args.samples, seed)
    except KeyError as err:
        return _error(err, 2)
    except Exception as err:
        return _error(err, 1)
    text = json.dumps(report, sort_keys=True, indent=1) + "\n"
    _write_output(text, args.out)
    for suite in report["suites"]:
        status = "pass" if suite["passed"] else "FAIL"
        print(f"{status} {suite['suite']}: {suite['violationCount']} violations "
              f"in {suite['samples']} samples", file=sys.stderr)
    return 0 if report["allPassed"] else 3


def cmd_private_rate(args) -> int:
    try:
        grid = exp.theta_logspace(args.theta_max, args.theta_min, args.points)
        cfg = exp.PrivateRateConfig(p=args.p, lam=args.lam, theta_grid=grid,
                                    noise=args.noise)
    except ValueError as err:
        return _error(err, 2)
    try:
        result = exp.private_rate_lower_bound(cfg)
    except Exception as err:
        return _error(err, 1)
    result = _convert_units(result, args.units,
                            ("i_kept", "i_env", "rate_lower_bound"))
    _write_output(_sweep_text(result, args.format), args.out)
    meta = result.metadata
    if meta["positiveFound"]:
        print(f"max positive bound {meta['bestBound']:.6g} at theta = "
              f"{meta['bestTheta']:.6g}", file=sys.stderr)
    else:
        print("no positive lower bound on this grid", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdecay",
        description="Information decay under quantum channels: sweeps, "
                    "bound tables and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sudden-decay", help="relative-entropy decay ratio sweep")
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="noise strength in [0, 1]")
    p.add_argument("--theta-min", type=float, default=1e-6)
    p.add_argument("--theta-max", type=float, default=1e-2)
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--noise", choices=exp.NOISE_KINDS, default="depolarizing")
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sudden_decay)

    p = sub.add_parser("g-table", help="optimized converse factor table")
    p.add_argument("--variant", choices=("theorem", "paper-example"),
                   default="paper-example")
    p.add_argument("--t", required=True, help="comma-separated times")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_g_table)

    p = sub.add_parser("verify", help="run randomized inequality suites")
    p.add_argument("--suite", default="all",
                   help="suite name or 'all' (%s)" % ", ".join(sorted(verify.SUITES)))
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=None,
                   help="root seed (falls back to QDECAY_SEED, then 2024)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("private-rate", help="private-rate lower-bound sweep")
    p.add_argument("--p", type=float, required=True, help="kept-branch probability")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--noise", choices=exp.NOISE_KINDS, default="dephasing-y")
    p.add_argument("--theta-min", type=float, default=1e-8)
    p.add_argument("--theta-max", type=float, default=1e-1)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_private_rate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:  # an --out path that cannot be written
        return _error(err, 2)


if __name__ == "__main__":
    sys.exit(main())

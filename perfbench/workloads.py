"""The benchmark's three workloads, built from a workload seed.

Each workload function returns a list of rounds; a round is a list of
calls into qdecay's public functions.  The rounds, repeated in order, form
the workload's call list.  One seed fixes every call, so two runs at the same
seed do identical work.  Every call carries its own correctness gate,
which runs after the timed loop.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import redirect_stderr
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qdecay import channels, cli, entropy, matcore, verify
from qdecay import experiments as exp
from qdecay.rng import Rng


# verify-mixed: one round is one call per suite; base samples scale by
# verify.SAMPLE_SCALE exactly as `verify --suite all` does
VERIFY_BASE_SAMPLES = 20
VERIFY_ROUNDS = 6

# quadrature: one round is two q=64 pairs and one q=128 pair per dimension,
# so the median call sits inside one (d, q) class instead of between two
QUAD_DIMS = (2, 3, 4)
QUAD_ROUND = ((64, 2), (128, 1))
QUAD_ROUNDS = 4
QUAD_MIX = 0.1
QUAD_TOL = 1e-6

SUDDEN_D2_POINTS = 200
SUDDEN_D8_POINTS = 50
PRIVATE_POINTS = 36
GTABLE_POINTS = 100
FRAGILITY_THETAS = tuple(float(t) for t in np.logspace(-1, -6, 20))
CRITERION1_T = ("1e-3", "1e-2", "1e-1", "1")


@dataclass
class Call:
    """One public entry-point invocation and the check of its output.

    run() is the timed part; collect(result) turns its return value into
    the bytes that are checked and compared across repeats; check(bytes)
    returns None or the reason the call failed.
    """

    label: str
    items: int
    run: Callable[[], object]
    collect: Callable[[object], bytes]
    check: Callable[[bytes], str | None]
    writes_file: bool = False


def _cli_call(label, argv, out_path, items, check) -> Call:
    def run():
        with redirect_stderr(io.StringIO()):
            return cli.main(argv + ["--out", out_path])

    def collect(code):
        if code != 0:
            return f"exit {code}".encode()
        with open(out_path, "rb") as fh:
            data = fh.read()
        os.unlink(out_path)
        return data

    def checked(data):
        if data.startswith(b"exit "):
            return data.decode()
        return check(data)

    return Call(label, items, run, collect, checked, writes_file=True)


def _repr_bytes(value) -> bytes:
    return repr(value).encode()


def _csv_rows(data: bytes, columns: int) -> list:
    lines = data.decode().splitlines()
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    if any(len(r) != columns for r in rows):
        raise ValueError("malformed CSV row")
    return rows


# ---- verify-mixed -------------------------------------------------------

def _check_verify_report(data: bytes) -> str | None:
    report = json.loads(data)
    for suite in report["suites"]:
        if not suite["passed"] or suite["violationCount"]:
            return f"{suite['suite']}: {suite['violationCount']} violations"
        if not math.isfinite(suite["worstMargin"]):
            return f"{suite['suite']}: worstMargin {suite['worstMargin']}"
    if not report["allPassed"]:
        return "allPassed is false"
    return None


def verify_mixed(seed: int, out_dir: str) -> list:
    rnd = random.Random(seed)
    out = os.path.join(out_dir, "report.json")
    rounds = []
    for _ in range(VERIFY_ROUNDS):
        calls = []
        for suite in verify.SUITES:
            n = max(1, int(VERIFY_BASE_SAMPLES * verify.SAMPLE_SCALE.get(suite, 1.0)))
            argv = ["verify", "--suite", suite, "--samples", str(n),
                    "--seed", str(rnd.randrange(2 ** 31))]
            calls.append(_cli_call(f"verify:{suite}", argv, out, n,
                                   _check_verify_report))
        rounds.append(calls)
    return rounds


# ---- quadrature ---------------------------------------------------------

def _quad_call(rho, sigma, q) -> Call:
    def check(data):
        got = float(data)
        want = entropy.relative_entropy(rho, sigma).unwrap()
        if not abs(got - want) <= QUAD_TOL:
            return f"|integral - eigenbasis| = {abs(got - want):.3e}"
        return None

    return Call(f"quad:d{rho.dim}:q{q}", q * q,
                lambda: entropy.relative_entropy_integral_form(rho, sigma, q),
                _repr_bytes, check)


def quadrature(seed: int, out_dir: str) -> list:
    rng = Rng(seed)
    rounds = []
    k = 0
    for _ in range(QUAD_ROUNDS):
        calls = []
        for q, copies in QUAD_ROUND:
            for d in QUAD_DIMS:
                for _ in range(copies):
                    sub = rng.substream(k)
                    k += 1
                    rho = matcore.random_density(sub, d, mix=QUAD_MIX)
                    sigma = matcore.random_density(sub, d, mix=QUAD_MIX)
                    calls.append(_quad_call(rho, sigma, q))
        rounds.append(calls)
    return rounds


# ---- paper-sweeps -------------------------------------------------------

def _check_sudden_window(data: bytes) -> str | None:
    """Criterion 2 on the d=2, lambda=0.1 grid from 1e-3 down to 1e-6."""
    rows = _csv_rows(data, 5)
    ratios = [r[3] for r in rows]
    prods = [r[4] for r in rows]
    quotient = ratios[-1] / ratios[0]
    spread = (max(prods) - min(prods)) / min(prods)
    if not (0.41 <= quotient <= 0.62 and spread < 0.25):
        return f"ratio quotient {quotient:.4f}, spread {spread:.3%}"
    return None


def _check_finite_rows(columns: int, count: int):
    def check(data):
        rows = _csv_rows(data, columns)
        if len(rows) != count:
            return f"{len(rows)} rows, expected {count}"
        if not all(math.isfinite(x) for r in rows for x in r):
            return "non-finite value"
        return None
    return check


def _binary_entropy(p: float) -> float:
    return -p * math.log(p) - (1 - p) * math.log1p(-p)


def _check_private_rate(data: bytes) -> str | None:
    """i_kept equals h(sin^2 theta) above the precision floor."""
    for theta, i_kept, _, _ in _csv_rows(data, 4):
        if theta < 1e-4:
            continue
        want = _binary_entropy(math.sin(theta) ** 2)
        if abs(i_kept - want) > 1e-6 * want:
            return f"i_kept {i_kept!r} != h(sin^2 {theta!r}) = {want!r}"
    return None


def _check_g_table(data: bytes) -> str | None:
    """Criterion 1's tolerances on the paper-example rows at t = 1e-3..1."""
    by_t = {r[0]: r for r in _csv_rows(data, 4)}
    expected = {1e-3: (0.81, 0.0302), 1e-2: (0.54, 0.0980), 1e-1: (0.14, 0.2590)}
    for t, (g_ref, tau_ref) in expected.items():
        _, _, g, tau = by_t[t]
        if not (abs(g - g_ref) < 0.01 and abs(tau - tau_ref) < 0.005):
            return f"t={t:g}: g={g!r}, tau={tau!r}"
    _, _, g, tau = by_t[1.0]
    if not (1e-4 <= g <= 1e-3 and abs(tau - 0.4187) < 0.005):
        return f"t=1: g={g!r}, tau={tau!r}"
    return None


def _check_g_range(data: bytes) -> str | None:
    for t, _, g, tau in _csv_rows(data, 4):
        if not (0.0 <= g < 1.0 and 0.0 < tau < 1.0):
            return f"t={t!r}: g={g!r}, tau={tau!r}"
    return None


def _fragility_call(label, gens, t) -> Call:
    group = channels.GroupLindbladian.from_generators(gens, [1.0 / len(gens)] * len(gens))
    return Call(label, len(FRAGILITY_THETAS),
                lambda: exp.group_fragility_demo(group, t, FRAGILITY_THETAS),
                lambda result: result.to_csv().encode(),
                _check_finite_rows(4, len(FRAGILITY_THETAS)))


def _diamond_call(delta) -> Call:
    def check(data):
        value = float(data)
        if abs(value - 1.5) > 1e-6:
            return f"diamond estimate {value!r}, expected 1.5"
        return None

    return Call("diamond", 1,
                lambda: channels.diamond_norm_estimate(delta),
                _repr_bytes, check)


def paper_sweeps(seed: int, out_dir: str) -> list:
    rnd = random.Random(seed)
    out = os.path.join(out_dir, "sweep.csv")
    lam8 = rnd.uniform(0.05, 0.3)
    p, lam = rnd.uniform(0.005, 0.05), rnd.uniform(0.005, 0.05)
    t_values = set(CRITERION1_T) | {f"{10 ** rnd.uniform(-4, 1):.6g}"
                                     for _ in range(GTABLE_POINTS - len(CRITERION1_T))}
    times = ",".join(sorted(t_values, key=float))
    n_t = len(t_values)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    clock = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    shift = np.roll(np.eye(4, dtype=complex), 1, axis=0)
    e_dep = channels.depolarizing_projection(2)
    delta = channels.SuperOperator(2, np.eye(4) - e_dep.superop.matrix)
    calls = [
        _cli_call("sudden-decay:d2", [
            "sudden-decay", "--lambda", "0.1", "--theta-min", "1e-6",
            "--theta-max", "1e-3", "--points", str(SUDDEN_D2_POINTS)],
            out, SUDDEN_D2_POINTS, _check_sudden_window),
        _cli_call("sudden-decay:d8", [
            "sudden-decay", "--lambda", repr(lam8), "--theta-min", "1e-6",
            "--theta-max", "1e-2", "--points", str(SUDDEN_D8_POINTS), "--dim", "8"],
            out, SUDDEN_D8_POINTS, _check_finite_rows(5, SUDDEN_D8_POINTS)),
        _cli_call("private-rate:dephasing-y", [
            "private-rate", "--p", repr(p), "--lambda", repr(lam),
            "--noise", "dephasing-y", "--points", str(PRIVATE_POINTS)],
            out, PRIVATE_POINTS, _check_private_rate),
        _cli_call("private-rate:depolarizing", [
            "private-rate", "--p", repr(p), "--lambda", repr(lam),
            "--noise", "depolarizing", "--points", str(PRIVATE_POINTS)],
            out, PRIVATE_POINTS, _check_private_rate),
        _cli_call("g-table:paper-example", [
            "g-table", "--variant", "paper-example", "--t", times],
            out, n_t, _check_g_table),
        _cli_call("g-table:theorem", [
            "g-table", "--variant", "theorem", "--t", times],
            out, n_t, _check_g_range),
        _fragility_call("fragility:d2", [x, z], rnd.uniform(0.05, 0.5)),
        _fragility_call("fragility:d4", [clock, shift], rnd.uniform(0.05, 0.5)),
        _diamond_call(delta),
    ]
    return [calls]


BY_NAME = {
    "verify-mixed": verify_mixed,
    "quadrature": quadrature,
    "paper-sweeps": paper_sweeps,
}

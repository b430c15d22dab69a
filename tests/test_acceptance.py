"""Acceptance suite: one test per release criterion.

Every test prints its own pass/fail line (run with -s to see them all),
pins the tolerances stated in the criteria, and enforces the runtime
budgets where one is given.
"""

import json
import math
import time

import numpy as np
import pytest

from oracles import expansion_consistency_check, omega_theta_lambda, pinching, rho_theta_lambda
from qdecay import bounds, channels, entropy, matcore, verify
from qdecay import experiments as exp
from qdecay.matcore import DensityMatrix

SEED = 7


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_g_table_reproduction():
    t0 = time.perf_counter()
    rows = []
    for t in (1e-3, 1e-2, 1e-1, 1.0):
        zeta = 1 - math.exp(-3 * t)
        g, tau = bounds.g_factor(zeta, 4.0, variant="paper-example")
        rows.append((t, g, tau))
    elapsed = time.perf_counter() - t0
    expected = [(1e-3, 0.81, 0.0302), (1e-2, 0.54, 0.0980), (1e-1, 0.14, 0.2590)]
    ok = True
    for (t, g, tau), (_, g_ref, tau_ref) in zip(rows, expected):
        ok &= abs(g - g_ref) < 0.01
        ok &= abs(tau - tau_ref) < 0.005
    t1, g1, tau1 = rows[3]
    ok &= 1e-4 <= g1 <= 1e-3
    ok &= abs(tau1 - 0.4187) < 0.005
    ok &= elapsed < 1.0
    detail = (", ".join(f"g({t:g})={g:.4f}@tau={tau:.4f}" for t, g, tau in rows)
              + f", {elapsed:.2f}s")
    report("criterion 1 (g-table reproduction)", ok, detail)


def test_criterion_02_sudden_decay_scaling():
    t0 = time.perf_counter()
    sweep = exp.sudden_decay_sweep(exp.theta_logspace(1e-3, 1e-6, 4), 0.1, 2, "depolarizing")
    elapsed = time.perf_counter() - t0
    # the columns ratio and ratio_times_log_inv_theta
    ratios, prods = zip(*(row[3:] for row in sweep.rows))
    quotient = ratios[-1] / ratios[0]
    spread = (max(prods) - min(prods)) / min(prods)
    ok = 0.41 <= quotient <= 0.62 and spread < 0.25 and elapsed < 1.0
    report("criterion 2 (sudden-decay scaling)", ok,
           f"r(1e-6)/r(1e-3)={quotient:.4f}, spread={spread:.3%}, {elapsed:.2f}s")


def test_criterion_03_mutual_information_identity():
    worst = 0.0
    for theta in (0.03, 0.1, 0.25, 0.5, 0.75):
        for lam in (0.05, 0.2, 0.45, 0.7, 0.95):
            omega = omega_theta_lambda(theta, lam)
            rho = rho_theta_lambda(theta, lam)
            pinched = DensityMatrix.from_matrix(np.diag(np.diagonal(rho.matrix)))
            lhs = entropy.mutual_information(omega)
            rhs = entropy.relative_entropy(rho, pinched).unwrap()
            worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-10
    report("criterion 3 (mutual-information identity)", ok,
           f"worst |I - D| = {worst:.2e} on 5x5 grid")


def test_criterion_04_fixed_point_converse_suite():
    t0 = time.perf_counter()
    rep = verify.clsi_converse_suite(1000, SEED)
    elapsed = time.perf_counter() - t0
    assert rep["params"]["times"] == [1e-3, 1e-2, 1e-1, 1.0]
    assert rep["params"]["variants"] == ["theorem", "paper-example"]
    assert rep["params"]["extended"] is True
    ok = rep["passed"] and elapsed < 30.0
    report("criterion 4 (fixed-point converse suite)", ok,
           f"{rep['violationCount']} violations in {rep['samples']} samples "
           f"(bare + dim-2 extension, both variants), worst margin "
           f"{rep['worstMargin']:.2e}, {elapsed:.1f}s")


def test_criterion_05_integral_form_oracle():
    rep = verify.integral_form_suite(100, SEED)
    assert rep["params"]["quadPoints"] == 64
    assert rep["params"]["tolerance"] == 1e-6
    ok = rep["passed"]
    report("criterion 5 (integral-form oracle)", ok,
           f"worst |quadrature - eigen| = {-rep['worstMargin']:.2e} over "
           f"{rep['samples']} full-rank pairs at dims 2 and 3")


def test_criterion_06_pinsker_suite():
    rep = verify.pinsker_suite(1000, SEED)
    ok = rep["passed"]
    report("criterion 6 (Pinsker suite)", ok,
           f"{rep['violationCount']} violations over 1000 commuting pairs "
           f"(both forms) and 1000 general pairs (basic form)")


def test_criterion_07_almost_concavity_suite():
    rep = verify.almost_concavity_suite(1000, SEED)
    ok = rep["passed"]
    report("criterion 7 (almost-concavity suite)", ok,
           f"{rep['violationCount']} violations over {rep['samples']} commuting "
           f"tuples, worst margin {rep['worstMargin']:.2e}")


def test_criterion_08_commuting_converse_suite():
    rep = verify.classical_converse_suite(1000, SEED)
    assert rep["params"]["times"] == [0.01, 0.1]
    branches = rep["params"]["branches"]
    ok = rep["passed"] and branches["large-D"] > 0 and branches["small-D"] > 0
    report("criterion 8 (commuting-state converse suite)", ok,
           f"{rep['violationCount']} violations over {rep['samples']} pairs x "
           f"t in (0.01, 0.1), branches {branches}, worst margin "
           f"{rep['worstMargin']:.2e}")


def test_criterion_09_pimsner_popa_indices():
    dep = channels.pimsner_popa_index(channels.depolarizing_projection(2))
    pin = channels.pimsner_popa_index(pinching(2))
    ok = abs(dep - 4.0) < 1e-9 and abs(pin - 2.0) < 1e-9
    report("criterion 9 (Pimsner-Popa indices)", ok,
           f"depolarizing projection = {dep:.12f}, pinching = {pin:.12f}")


def test_criterion_10_private_rate_positivity():
    t0 = time.perf_counter()
    sweep = exp.private_rate_lower_bound(0.01, 0.01, exp.theta_logspace(1e-1, 1e-8, 8),
                                         "dephasing-y")
    elapsed = time.perf_counter() - t0
    meta = sweep.metadata
    ok = meta["positiveFound"] and elapsed < 10.0
    report("criterion 10 (private-rate positivity)", ok,
           f"best bound {meta['bestBound']:.3e} at theta = {meta['bestTheta']:g}, "
           f"{elapsed:.1f}s")


def test_criterion_11_expansion_consistency():
    rep = expansion_consistency_check(1e-4, 0.1, 2)
    ok = rep["relative_deviation"] < 1e-2
    report("criterion 11 (expansion consistency)", ok,
           f"relative deviation {rep['relative_deviation']:.2e} at theta=1e-4")


def test_criterion_12_determinism():
    a = json.dumps(verify.run_suites("all", 100, 7), sort_keys=True)
    b = json.dumps(verify.run_suites("all", 100, 7), sort_keys=True)
    ok = a == b
    report("criterion 12 (determinism)", ok,
           f"two verify-all runs produced {'identical' if ok else 'DIFFERING'} "
           f"reports ({len(a)} bytes)")

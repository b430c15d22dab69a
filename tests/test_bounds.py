import math

import numpy as np
import pytest

from qdecay import bounds, channels, entropy, matcore
from qdecay.bounds import (
    ConverseBoundParams,
    InfeasibleParamsError,
    classical_converse_check,
    classical_converse_factor,
    clsi_converse_check,
    decayed_state_bound_check,
    g_factor,
    mutual_info_converse_check,
    origcompare_check,
    replacement_converse_factor,
)
from qdecay.channels import depolarizing_projection, replacement_lindbladian
from qdecay.matcore import BipartiteDensity, DensityMatrix

PAPER_TABLE = [
    (1e-3, 0.81, 0.0302),
    (1e-2, 0.54, 0.0980),
    (1e-1, 0.14, 0.2590),
]


def qubit_depolarizing_lindbladian():
    return replacement_lindbladian(depolarizing_projection(2),
                                   diamond_upper=0.75, pp_index=4.0)


def test_g_factor_small_zeta_limit():
    # the 0.999 spot value at zeta = 1e-8 holds for the worked-example
    # constant; the kappa(4) form reaches it slightly deeper in zeta
    g_ex, _ = g_factor(1e-8, 4.0, variant="paper-example")
    assert g_ex > 0.999
    g_th, _ = g_factor(1e-8, 4.0, variant="theorem")
    assert g_th > 0.99
    seq = [g_factor(z, 4.0)[0] for z in (1e-4, 1e-6, 1e-8, 1e-10)]
    assert all(b > a for a, b in zip(seq, seq[1:]))
    assert seq[-1] > 0.999


def test_g_factor_paper_example_table():
    for t, want_g, want_tau in PAPER_TABLE:
        g, tau = g_factor(1 - math.exp(-3 * t), 4.0, variant="paper-example")
        assert abs(g - want_g) < 0.01
        assert abs(tau - want_tau) < 0.005
    g1, tau1 = g_factor(1 - math.exp(-3.0), 4.0, variant="paper-example")
    assert 1e-4 <= g1 <= 1e-3
    assert abs(tau1 - 0.4187) < 0.005


def test_g_factor_theorem_variant_bounded():
    for zeta in (0.0, 0.1, 0.5, 0.9, 0.999):
        g, _ = g_factor(zeta, 4.0, variant="theorem")
        assert 0.0 <= g <= 1.0
        if zeta < 1.0:
            assert g > 0.0 or zeta > 0.99


def test_g_factor_positive_for_zeta_below_one():
    for zeta in (0.1, 0.5, 0.9, 0.99):
        for c in (1.5, 4.0, 16.0):
            g, _ = g_factor(zeta, c)
            assert g > 0.0


def test_g_factor_stationarity_of_optimizer():
    for t, _, _ in PAPER_TABLE:
        zeta = 1 - math.exp(-3 * t)
        for variant in ("theorem", "paper-example"):
            g, tau = g_factor(zeta, 4.0, variant=variant)
            denom = (entropy.kappa(4.0) if variant == "theorem"
                     else (9 * math.log(9) - 8) / 9)

            def obj(x):
                return ((1 - zeta) ** 2 * x / (x + zeta)
                        * (1 - x * (1 - math.log(x)) / denom))

            h = 1e-6
            deriv = (obj(tau + h) - obj(tau - h)) / (2 * h)
            assert abs(deriv) < 1e-4


def test_g_factor_grid_doubling_stability():
    for t, _, _ in PAPER_TABLE + [(1.0, None, None)]:
        zeta = 1 - math.exp(-3 * t)
        denom = (9 * math.log(9) - 8) / 9

        def obj(x):
            return ((1 - zeta) ** 2 * x / (x + zeta)
                    * (1 - x * (1 - math.log(x)) / denom))

        _, g1 = bounds.maximize_on_unit_interval(obj, grid_points=2000)
        _, g2 = bounds.maximize_on_unit_interval(obj, grid_points=4000)
        assert abs(g1 - g2) < 1e-6


def test_g_factor_domain_errors():
    with pytest.raises(ValueError):
        g_factor(1.0, 4.0)
    with pytest.raises(ValueError):
        g_factor(0.5, 1.0)
    with pytest.raises(ValueError):
        g_factor(0.5, 4.0, variant="nonsense")


def test_clsi_converse_fixed_point_input():
    lind = qubit_depolarizing_lindbladian()
    rho = DensityMatrix.maximally_mixed(2)
    rep = clsi_converse_check(lind, rho, 0.1)
    assert rep.passed
    assert rep.lhs < 1e-12 and rep.rhs < 1e-12


def test_clsi_converse_time_zero_equality(rng):
    lind = qubit_depolarizing_lindbladian()
    rho = matcore.random_density(rng, 2)
    rep = clsi_converse_check(lind, rho, 0.0)
    assert rep.passed
    assert abs(rep.factor - 1.0) < 1e-6
    assert abs(rep.lhs - rep.rhs) < 1e-6 * max(1.0, rep.lhs)


def test_clsi_converse_random_sample(rng):
    lind = qubit_depolarizing_lindbladian()
    for _ in range(25):
        rho = matcore.random_density(rng, 2)
        for t in (1e-3, 1e-1, 1.0):
            for variant in ("theorem", "paper-example"):
                assert clsi_converse_check(lind, rho, t, variant=variant).passed


def test_replacement_converse_factor_no_replacement():
    assert abs(replacement_converse_factor(0.0, 2.0) - 1.0) < 1e-6


def test_replacement_converse_direct_two_level():
    rho = DensityMatrix.diagonal([1.0, 0.0])
    sigma = DensityMatrix.maximally_mixed(2)
    zeta = 0.1
    factor = replacement_converse_factor(zeta, 2.0)
    mixed = DensityMatrix.from_matrix((1 - zeta) * rho.matrix + zeta * sigma.matrix)
    lhs = entropy.relative_entropy(mixed, sigma).unwrap()
    rhs = factor * entropy.relative_entropy(rho, sigma).unwrap()
    assert lhs >= rhs - 1e-10


def test_replacement_converse_factor_monotone_in_zeta():
    vals = [replacement_converse_factor(z, 2.0) for z in np.arange(0.0, 0.91, 0.1)]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_replacement_converse_factor_fixed_tau():
    v = replacement_converse_factor(0.1, 2.0, tau=0.05)
    assert 0 <= v <= replacement_converse_factor(0.1, 2.0) + 1e-12


def test_classical_factor_no_noise_is_one():
    params = ConverseBoundParams(eps=0.0, m_tilde=0.5, g_tilde=1.0, a=0.5)
    assert abs(classical_converse_factor(params, "large-D") - 1.0) < 1e-12
    assert abs(classical_converse_factor(params, "small-D") - 1.0) < 1e-12


def test_classical_factor_small_branch_degenerates_as_a_to_one():
    vals = []
    for a in (0.9, 0.999, 1 - 1e-6):
        params = ConverseBoundParams(eps=0.001, m_tilde=0.5, g_tilde=1.0, a=a)
        vals.append(classical_converse_factor(params, "small-D"))
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert 0 < vals[-1] < 0.05


def test_classical_factor_infeasible_raises():
    params = ConverseBoundParams(eps=0.4, m_tilde=0.3, g_tilde=1.0, a=0.9)
    with pytest.raises(InfeasibleParamsError):
        classical_converse_factor(params, "large-D")


def test_classical_factor_feasibility_interval():
    params = ConverseBoundParams.from_semigroup(0.01, 4.0, 0.02, m_tilde=0.4)
    lo, hi = params.feasible_a_interval()
    assert 0 < lo < hi == 1.0
    assert lo < params.resolved_a() < 1.0


def test_classical_converse_check_equal_states():
    e = depolarizing_projection(2)
    sigma = DensityMatrix.diagonal([0.6, 0.4])
    params = ConverseBoundParams.from_semigroup(0.01, 4.0, 0.02, m_tilde=0.4,
                                                g_tilde=1.25)
    rep = classical_converse_check(e, sigma, sigma, params)
    assert rep.passed and rep.lhs < 1e-12


def test_classical_converse_check_worked_pair():
    e = depolarizing_projection(2)
    rho = DensityMatrix.diagonal([0.7, 0.3])
    sigma = DensityMatrix.diagonal([0.5, 0.5])
    g_tilde = matcore.loewner_min_coefficient(e.apply(sigma), sigma)
    params = ConverseBoundParams.from_semigroup(0.01, 4.0, 0.02, m_tilde=0.5,
                                                g_tilde=g_tilde)
    rep = classical_converse_check(e, rho, sigma, params)
    assert rep.passed
    assert rep.extra["branch"] == "large-D"


def test_classical_converse_check_rejects_noncommuting():
    e = depolarizing_projection(2)
    rho = DensityMatrix.pure([1, 1])
    sigma = DensityMatrix.diagonal([0.6, 0.4])
    params = ConverseBoundParams.from_semigroup(0.01, 4.0, 0.02, m_tilde=0.4)
    with pytest.raises(ValueError, match="commute"):
        classical_converse_check(e, rho, sigma, params)


def test_classical_converse_check_rejects_mismatched_images():
    e = channels.pinching(2)
    rho = DensityMatrix.diagonal([0.7, 0.3])
    sigma = DensityMatrix.diagonal([0.5, 0.5])
    params = ConverseBoundParams.from_semigroup(0.01, 2.0, 0.02, m_tilde=0.3)
    with pytest.raises(ValueError, match="E\\(rho\\)"):
        classical_converse_check(e, rho, sigma, params)


def test_mutual_info_converse_product_state(rng):
    e = depolarizing_projection(2)
    pa = matcore.random_probability_vector(rng, 2, floor=0.2)
    pb = matcore.random_probability_vector(rng, 2, floor=0.2)
    joint = BipartiteDensity.from_matrix(
        np.diag(np.kron(pa, pb).astype(complex)), 2, 2)
    rep = mutual_info_converse_check(e, joint, t=0.01, c=4.0, diamond=5e-4)
    assert rep.passed
    assert rep.lhs < 1e-10 and abs(rep.rhs) < 1e-10


def test_mutual_info_converse_correlated_bits():
    e = depolarizing_projection(2)
    # nearly perfectly correlated uniform bits (exact correlation makes the
    # joint rank-deficient; keep a small leak for full support)
    cells = np.array([0.48, 0.02, 0.02, 0.48])
    joint = BipartiteDensity.from_matrix(np.diag(cells.astype(complex)), 2, 2)
    rep = mutual_info_converse_check(e, joint, t=0.01, c=4.0, diamond=5e-4)
    assert rep.passed
    assert rep.factor < 1.0
    assert rep.lhs <= rep.extra["iPre"] + 1e-12


def test_mutual_info_converse_rejects_quantum_input():
    e = depolarizing_projection(2)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    joint = BipartiteDensity.from_matrix(np.outer(bell, bell.conj()), 2, 2)
    with pytest.raises(ValueError, match="classical"):
        mutual_info_converse_check(e, joint, t=0.01)


def test_decayed_state_same_mixture_factor():
    rho = DensityMatrix.diagonal([0.8, 0.2])
    sigma = DensityMatrix.diagonal([0.4, 0.6])
    mixed = DensityMatrix.maximally_mixed(2)
    rep = decayed_state_bound_check(rho, sigma, mixed, mixed,
                                    eps=0.3, zeta=0.3, c=1.0)
    assert rep.passed
    assert abs(rep.factor - 1.0) < 1e-12


def test_decayed_state_random_qubits(rng):
    mixed = DensityMatrix.maximally_mixed(2)
    for _ in range(200):
        r0 = rng.uniform(0.0, 1.0)
        s0 = rng.uniform(0.05, 0.95)
        rho = DensityMatrix.diagonal([r0, 1 - r0])
        sigma = DensityMatrix.diagonal([s0, 1 - s0])
        zeta = rng.uniform(0.01, 0.5)
        eps = rng.uniform(zeta, 0.95)
        rep = decayed_state_bound_check(rho, sigma, mixed, mixed,
                                        eps=eps, zeta=zeta, c=1.0)
        assert rep.passed


def test_decayed_state_noncommuting_inputs(rng):
    mixed = DensityMatrix.maximally_mixed(2)
    for _ in range(50):
        rho = matcore.random_density(rng, 2)
        sigma = matcore.random_density(rng, 2, mix=0.05)
        rep = decayed_state_bound_check(rho, sigma, mixed, mixed,
                                        eps=0.5, zeta=0.2, c=1.0)
        assert rep.passed


def test_decayed_state_order_precondition():
    rho = DensityMatrix.diagonal([0.8, 0.2])
    sigma = DensityMatrix.diagonal([0.4, 0.6])
    theta = DensityMatrix.diagonal([1.0, 0.0])
    omega = DensityMatrix.maximally_mixed(2)
    with pytest.raises(ValueError, match="order precondition"):
        decayed_state_bound_check(rho, sigma, theta, omega,
                                  eps=0.5, zeta=0.2, c=1.5)


def test_origcompare_no_mixing_is_equality(rng):
    sigma = DensityMatrix.diagonal([0.6, 0.4])
    rho = DensityMatrix.from_matrix(0.7 * sigma.matrix + 0.3 * np.eye(2) / 2)
    omega = DensityMatrix.diagonal([0.2, 0.8])
    rep = origcompare_check(rho, sigma, omega, eps=0.0, zeta=0.3)
    assert rep.passed
    assert abs(rep.lhs - rep.rhs) < 1e-10


def test_origcompare_commuting_triple():
    sigma = DensityMatrix.diagonal([0.5, 0.5])
    rho = DensityMatrix.diagonal([0.65, 0.35])
    omega = DensityMatrix.diagonal([0.3, 0.7])
    rep = origcompare_check(rho, sigma, omega, eps=0.25, zeta=0.3)
    assert rep.passed


def test_origcompare_omega_equal_sigma_random(rng):
    for _ in range(100):
        s0 = rng.uniform(0.1, 0.9)
        sigma = DensityMatrix.diagonal([s0, 1 - s0])
        zeta = rng.uniform(0.05, 0.8)
        w0 = rng.uniform(0.0, 1.0)
        rho = DensityMatrix.from_matrix(
            (1 - zeta) * sigma.matrix + zeta * np.diag([w0, 1 - w0]).astype(complex))
        rep = origcompare_check(rho, sigma, sigma, eps=rng.uniform(0.05, 0.9),
                                zeta=zeta)
        assert rep.passed


def test_origcompare_precondition():
    sigma = DensityMatrix.diagonal([0.6, 0.4])
    rho = DensityMatrix.diagonal([0.05, 0.95])
    with pytest.raises(ValueError, match="precondition"):
        origcompare_check(rho, sigma, sigma, eps=0.1, zeta=0.1)


def test_bound_report_json_fields():
    lind = qubit_depolarizing_lindbladian()
    rep = clsi_converse_check(lind, DensityMatrix.diagonal([0.9, 0.1]), 0.01)
    data = rep.to_json_dict()
    assert data["pass"] is True
    assert set(data) >= {"name", "lhs", "rhs", "factor", "slack", "params"}
    assert "tauStar" in data


def test_params_from_semigroup_invariants():
    p = ConverseBoundParams.from_semigroup(0.3, 4.0, 0.75)
    assert abs(p.zeta - (1 - math.exp(-0.3 * 4 * 0.75))) < 1e-15
    assert abs(p.eps - (1 - math.exp(-0.3 * 4 * 0.75 / 2))) < 1e-15
    assert abs(p.eps_keep - math.exp(-0.3 * 4 * 0.75 / 2)) < 1e-15


def test_mutual_info_converse_exactly_correlated_bits():
    e = depolarizing_projection(2)
    cells = np.array([0.5, 0.0, 0.0, 0.5])
    joint = BipartiteDensity.from_matrix(np.diag(cells.astype(complex)), 2, 2)
    rep = mutual_info_converse_check(e, joint, t=0.01, c=4.0, diamond=5e-4)
    assert rep.passed
    ratio = rep.lhs / rep.extra["iPre"]
    assert rep.factor < ratio <= 1.0 + 1e-12

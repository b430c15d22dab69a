import math

import numpy as np
import pytest

from conftest import random_unitary, stack_of
from oracles import apply, diagonal, pinching, pure
from qdecay import bounds, channels, entropy, matcore
from qdecay.bounds import (
    InfeasibleParamsError,
    classical_converse_check,
    classical_converse_factor,
    clsi_converse_check,
    decayed_state_bound_check,
    feasible_a_midpoint,
    g_factor,
    mutual_info_converse_check,
    origcompare_check,
)
from qdecay.channels import depolarizing_projection, replacement_lindbladian
from qdecay.matcore import BipartiteDensity, DensityMatrix
from qdecay.rng import Rng

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
    seq = [g_factor(z, 4.0, "theorem")[0] for z in (1e-4, 1e-6, 1e-8, 1e-10)]
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
            g, _ = g_factor(zeta, c, "theorem")
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


def _numpy_scalar_g_factor(zeta, c, variant):
    """g_factor with its objective on np.float64 grid scalars: the reference
    the Python-float loop must match bit for bit."""
    denom = (entropy.kappa(c) if variant == "theorem"
             else (9.0 * math.log(9.0) - 8.0) / 9.0)

    def f(tau):
        return ((1.0 - zeta) ** 2 * tau / (tau + zeta)
                * (1.0 - tau * (1.0 - math.log(tau)) / denom))

    grid_min = min(1e-4, max(zeta * 1e-2, 1e-12))
    grid = np.logspace(math.log10(grid_min), math.log10(1.0 - grid_min), 2000)
    vals = np.array([f(t) for t in grid])
    i = int(np.argmax(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = b - inv_phi * (b - a), a + inv_phi * (b - a)
    f_lo, f_hi = f(lo), f(hi)
    while b - a > 1e-8:
        if f_lo > f_hi:
            b, hi, f_hi = hi, lo, f_lo
            lo = b - inv_phi * (b - a)
            f_lo = f(lo)
        else:
            a, lo, f_lo = lo, hi, f_hi
            hi = a + inv_phi * (b - a)
            f_hi = f(hi)
    x = 0.5 * (a + b)
    tau, g = (float(grid[i]), float(vals[i])) if vals[i] > f(x) else (float(x), float(f(x)))
    return max(g, 0.0), tau


GRID_ZETAS = (1e-17, 1e-16, 1e-13, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.1,
              0.3, 0.5, 0.9, 0.99, 1 - 1e-6, 1 - 1e-12)


@pytest.mark.parametrize("variant", ["theorem", "paper-example"])
@pytest.mark.parametrize("c", [1.5, 4.0, 10.0])
def test_g_factor_bit_identical_to_numpy_scalar_loop(variant, c):
    for zeta in GRID_ZETAS:
        got = np.array(g_factor(zeta, c, variant=variant)).view(np.uint64)
        want = np.array(_numpy_scalar_g_factor(zeta, c, variant)).view(np.uint64)
        assert np.array_equal(got, want), zeta


@pytest.mark.parametrize("c", [1.5, 4.0, 10.0])
def test_replacement_converse_factor_bit_identical_to_numpy_scalar_loop(c):
    # the replacement converse factor is g(zeta, c): g_factor takes the sup
    # over tau, _g_objective gives the factor at one fixed tau
    kappa = entropy.kappa(c)
    for zeta in GRID_ZETAS:
        got = np.array([g_factor(zeta, c, "theorem")[0]]).view(np.uint64)
        want = np.array([_numpy_scalar_g_factor(zeta, c, "theorem")[0]]).view(np.uint64)
        assert np.array_equal(got, want), zeta
        for tau in (1e-9, 1e-3, 0.05, 0.5, 0.999):
            fixed = max(bounds._g_objective(zeta, kappa)(tau), 0.0)
            by_hand = max(((1.0 - zeta) ** 2 * tau / (tau + zeta)
                           * (1.0 - tau * (1.0 - math.log(tau)) / kappa)), 0.0)
            assert np.array([fixed]).view(np.uint64) == np.array([by_hand]).view(np.uint64)


def test_optimizer_calls_objective_with_python_floats(monkeypatch):
    calls = []

    def checked(f):
        def wrapper(tau):
            assert type(tau) is float, type(tau)
            calls.append(tau)
            return f(tau)
        return wrapper

    tau, val = bounds.maximize_on_unit_interval(checked(lambda x: x * (1.0 - x)))
    assert type(tau) is float and type(val) is float
    assert abs(tau - 0.5) < 1e-8 and len(calls) > bounds.TAU_GRID_POINTS
    objective = bounds._g_objective
    monkeypatch.setattr(bounds, "_g_objective", lambda *a: checked(objective(*a)))
    calls.clear()
    g, tau = g_factor(1e-3, 4.0, "theorem")
    assert type(g) is float and type(tau) is float
    assert len(calls) > bounds.TAU_GRID_POINTS


def test_g_factor_domain_errors():
    with pytest.raises(ValueError):
        g_factor(1.0, 4.0, "theorem")
    with pytest.raises(ValueError):
        g_factor(0.5, 1.0, "theorem")
    with pytest.raises(ValueError):
        g_factor(0.5, 4.0, variant="nonsense")


def test_clsi_converse_fixed_point_input():
    lind = qubit_depolarizing_lindbladian()
    rho = DensityMatrix.maximally_mixed(2)
    rep = clsi_converse_check(lind, rho, [0.1], ["theorem"])
    assert rep.lhs.shape == (1, 1)
    assert rep.passed.all()
    assert (rep.lhs < 1e-12).all() and (rep.rhs < 1e-12).all()


def test_clsi_converse_time_zero_equality(rng):
    lind = qubit_depolarizing_lindbladian()
    rho = matcore.random_density(rng, 2)
    rep = clsi_converse_check(lind, rho, [0.0], ["theorem"])
    assert rep.passed.all()
    assert abs(rep.factor.item() - 1.0) < 1e-6
    assert abs(rep.lhs.item() - rep.rhs.item()) < 1e-6 * max(1.0, rep.lhs.item())


def test_clsi_converse_random_sample(rng):
    lind = qubit_depolarizing_lindbladian()
    times, variants = (1e-3, 1e-1, 1.0), ("theorem", "paper-example")
    for _ in range(25):
        rho = matcore.random_density(rng, 2)
        rep = clsi_converse_check(lind, rho, times, variants)
        # one cell per (time, variant), time-major
        assert rep.lhs.shape == rep.rhs.shape == rep.factor.shape == (1, 6)
        assert list(zip(rep.extra["t"], rep.extra["variant"])) == [
            (t, variant) for t in times for variant in variants]
        assert rep.passed.all()


def _report_fields(rep, i):
    """Row i's bits and extra: a per-state array's row i, the labels as they are."""
    extra = {k: (_bits(v[i]) if v.dtype.kind == "f" else v[i].tolist())
             if isinstance(v, np.ndarray) else v for k, v in rep.extra.items()}
    return (_bits(rep.lhs[i]), _bits(rep.rhs[i]), _bits(rep.factor[i]), extra)


def _bits(x):
    return np.array(x, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("aux", [1, 2])
def test_clsi_converse_stack_bit_equal_to_per_member_calls(rng, aux):
    # aux = 1 is the suite's bare kind, aux = 2 its extended kind
    lind = qubit_depolarizing_lindbladian()
    times, variants = (0.0, 1e-17, 0.1), ("theorem", "paper-example")
    rhos = DensityMatrix.from_matrices(np.stack(
        [matcore.random_density(rng, 2 * aux).matrix for _ in range(7)]))
    stacked = clsi_converse_check(lind, rhos, times, variants)
    assert stacked.lhs.shape == (len(rhos), len(times) * len(variants))
    for i, rho in enumerate(rhos):
        alone = clsi_converse_check(lind, rho, times, variants)
        assert _report_fields(stacked, i) == _report_fields(alone, 0)
    restacked = clsi_converse_check(lind, stack_of(list(rhos)), times, variants)
    assert [_report_fields(restacked, i) for i in range(len(rhos))] == [
        _report_fields(stacked, i) for i in range(len(rhos))]


def test_clsi_converse_extended_kind_matches_extended_map(rng):
    # a state on C^2 x C^2 is acted on in its left factor: the same check on
    # the Lindbladian of (E x Id), built by SuperOperator.tensor_identity
    lind = qubit_depolarizing_lindbladian()
    e_ext = channels.ConditionalExpectation(4, lind.fixed_point.tensor_identity(2).matrix)
    lind_ext = replacement_lindbladian(e_ext, diamond_upper=0.75, pp_index=4.0)
    times, variants = (1e-2, 1.0), ("theorem",)
    for _ in range(5):
        rho = matcore.random_density(rng, 4)
        rep = clsi_converse_check(lind, rho, times, variants)
        oracle = clsi_converse_check(lind_ext, rho, times, variants)
        assert (rep.factor == oracle.factor).all()
        assert rep.lhs == pytest.approx(oracle.lhs, rel=1e-10, abs=1e-14)
        assert rep.rhs == pytest.approx(oracle.rhs, rel=1e-10, abs=1e-14)


def test_clsi_converse_rejects_a_dimension_off_the_lindbladian(rng):
    lind = qubit_depolarizing_lindbladian()
    with pytest.raises(ValueError, match="state dimension 3 is not a multiple of the "
                                         "Lindbladian's dimension 2"):
        clsi_converse_check(lind, matcore.random_density(rng, 3), [0.1], ["theorem"])


def test_replacement_converse_factor_no_replacement():
    assert abs(g_factor(0.0, 2.0, "theorem")[0] - 1.0) < 1e-6


def test_replacement_converse_direct_two_level():
    rho = diagonal([1.0, 0.0])
    sigma = DensityMatrix.maximally_mixed(2)
    zeta = 0.1
    factor, _ = g_factor(zeta, 2.0, "theorem")
    mixed = DensityMatrix.from_matrix((1 - zeta) * rho.matrix + zeta * sigma.matrix)
    lhs = entropy.relative_entropy(mixed, sigma).unwrap()
    rhs = factor * entropy.relative_entropy(rho, sigma).unwrap()
    assert lhs >= rhs - 1e-10


def test_replacement_converse_factor_monotone_in_zeta():
    vals = [g_factor(z, 2.0, "theorem")[0] for z in np.arange(0.0, 0.91, 0.1)]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_replacement_converse_factor_fixed_tau():
    v = max(bounds._g_objective(0.1, entropy.kappa(2.0))(0.05), 0.0)
    assert 0 <= v <= g_factor(0.1, 2.0, "theorem")[0] + 1e-12


def test_classical_factor_no_noise_is_one():
    assert abs(classical_converse_factor(0.0, 0.5, 1.0, 0.5, "large-D") - 1.0) < 1e-12
    assert abs(classical_converse_factor(0.0, 0.5, 1.0, 0.5, "small-D") - 1.0) < 1e-12


def test_classical_factor_small_branch_degenerates_as_a_to_one():
    vals = [classical_converse_factor(0.001, 0.5, 1.0, a, "small-D")
            for a in (0.9, 0.999, 1 - 1e-6)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert 0 < vals[-1] < 0.05


def test_classical_factor_infeasible_raises():
    with pytest.raises(InfeasibleParamsError):
        classical_converse_factor(0.4, 0.3, 1.0, 0.9, "large-D")
    with pytest.raises(InfeasibleParamsError, match="no feasible a"):
        feasible_a_midpoint(0.4, 0.3)


def test_classical_factor_feasibility_interval():
    _, eps = bounds._replacement_weights(0.01, 4.0, 0.02)
    lo = 2.0 * entropy.f_almost_concavity(eps, 0.4) / ((1.0 - eps) * 0.4 ** 2)
    a = feasible_a_midpoint(eps, 0.4)
    assert 0 < lo < a < 1.0
    assert a == 0.5 * (lo + 1.0)
    # the midpoint is feasible on both branches
    for branch in ("large-D", "small-D"):
        assert 0 < classical_converse_factor(eps, 0.4, 1.0, a, branch) < 1


def test_classical_converse_check_equal_states():
    e = depolarizing_projection(2)
    sigma = diagonal([0.6, 0.4])
    rep = classical_converse_check(e, sigma, sigma, (0.01,), 4.0, 0.02)
    assert rep.passed.all() and (rep.lhs < 1e-12).all()


def test_classical_converse_check_worked_pair():
    e = depolarizing_projection(2)
    rho = diagonal([0.7, 0.3])
    sigma = diagonal([0.5, 0.5])
    rep = classical_converse_check(e, rho, sigma, (0.01,), 4.0, 0.02)
    assert rep.passed.all()
    assert rep.extra["branch"].tolist() == [["large-D"]]


def test_classical_converse_check_rejects_noncommuting():
    e = depolarizing_projection(2)
    rho = pure([1, 1])
    sigma = diagonal([0.6, 0.4])
    with pytest.raises(ValueError, match="commute"):
        classical_converse_check(e, rho, sigma, (0.01,), 4.0, 0.02)


def test_classical_converse_check_rejects_a_length_mismatch():
    e = depolarizing_projection(2)
    rho = diagonal([0.7, 0.3])
    sigma = diagonal([0.5, 0.5])
    with pytest.raises(ValueError, match="rho has 2 states, sigma has 1"):
        classical_converse_check(e, stack_of([rho, rho]), stack_of([sigma]), (0.01,), 4.0, 0.02)


def test_classical_converse_check_rejects_mismatched_images():
    e = pinching(2)
    rho = diagonal([0.7, 0.3])
    sigma = diagonal([0.5, 0.5])
    with pytest.raises(ValueError, match="E\\(rho\\)"):
        classical_converse_check(e, rho, sigma, (0.01,), 2.0, 0.02)


def test_classical_converse_check_names_the_failing_member():
    # it named rho and sigma "matrices 0 and 1", and gave the stack's largest distance
    e = pinching(2)
    sigma = diagonal([0.6, 0.4])
    sigmas = stack_of([sigma, sigma])
    bad = {"^stack member 1: states do not commute: max": pure([1, 1]),
           r"^stack member 1: E\(rho\) != E\(sigma\): trace distance 2.000e-01$":
               diagonal([0.7, 0.3])}
    for msg, rho in bad.items():
        with pytest.raises(ValueError, match=msg):
            classical_converse_check(e, stack_of([sigma, rho]), sigmas, (0.01,), 2.0, 0.02)


def test_mutual_info_converse_product_state(rng):
    e = depolarizing_projection(2)
    pa = matcore.random_probability_vector(rng, 2, floor=0.2)
    pb = matcore.random_probability_vector(rng, 2, floor=0.2)
    joint = BipartiteDensity(2, 2, DensityMatrix.from_matrix(
        np.diag(np.kron(pa, pb).astype(complex))))
    rep = mutual_info_converse_check(e, joint, (0.01,), 4.0, 5e-4)
    assert rep.passed.all()
    assert (rep.lhs < 1e-10).all() and (abs(rep.rhs) < 1e-10).all()


def test_mutual_info_converse_correlated_bits():
    e = depolarizing_projection(2)
    # nearly perfectly correlated uniform bits (exact correlation makes the
    # joint rank-deficient; keep a small leak for full support)
    cells = np.array([0.48, 0.02, 0.02, 0.48])
    joint = BipartiteDensity(2, 2, DensityMatrix.from_matrix(np.diag(cells.astype(complex))))
    rep = mutual_info_converse_check(e, joint, (0.01,), 4.0, 5e-4)
    assert rep.passed.all()
    assert (rep.factor < 1.0).all()
    assert (rep.lhs <= rep.extra["dPre"][:, None] + 1e-12).all()


def test_mutual_info_converse_builds_each_marginal_once(monkeypatch):
    raw_build = vars(DensityMatrix)["from_matrices"].__func__
    raw_marginals = BipartiteDensity.marginals
    built, marginal_calls = [], []

    def counting(cls, stack):
        built.extend(stack)
        return raw_build(cls, stack)

    def counting_marginals(states):
        marginal_calls.append(len(states))
        return raw_marginals(states)

    cells = np.array([[0.4, 0.1, 0.15, 0.35], [0.25, 0.25, 0.3, 0.2]])
    family = BipartiteDensity(2, 2, DensityMatrix.from_matrices(
        np.stack([np.diag(c.astype(complex)) for c in cells])))
    monkeypatch.setattr(DensityMatrix, "from_matrices", classmethod(counting))
    monkeypatch.setattr(BipartiteDensity, "marginals", staticmethod(counting_marginals))
    mutual_info_converse_check(depolarizing_projection(2), family, (0.01, 0.1), 4.0, 5e-4)
    # rho_A and rho_B of each state are the only qubit states built; rho_A x rho_B is
    # formed from them, not from the joint again
    assert marginal_calls == [2]
    assert sum(m.shape == (2, 2) for m in built) == 2 * len(cells)


def test_mutual_info_converse_extends_e_once_per_call(monkeypatch):
    raw = channels.apply_on_factor
    calls = []

    def counting(channel, m, dims, which):
        calls.append(np.shape(m))
        return raw(channel, m, dims, which)

    cells = np.array([[0.4, 0.1, 0.15, 0.35], [0.25, 0.25, 0.3, 0.2], [0.3, 0.2, 0.2, 0.3]])
    joints = [BipartiteDensity(2, 2, DensityMatrix.from_matrix(np.diag(c.astype(complex))))
              for c in cells]
    e = depolarizing_projection(2)
    want = [_report_fields(mutual_info_converse_check(e, j, (0.01, 0.1), 4.0, 5e-4), 0)
            for j in joints]
    family = BipartiteDensity(2, 2, stack_of([j.state for j in joints]))
    monkeypatch.setattr(channels, "apply_on_factor", counting)
    got = mutual_info_converse_check(e, family, (0.01, 0.1), 4.0, 5e-4)
    # Id x E is built from the 16 matrix units of C^4, whatever the family's size
    assert calls == [(16, 4, 4)]
    assert [_report_fields(got, i) for i in range(len(joints))] == want


EMPTY_TIMES = {
    "clsi": lambda: clsi_converse_check(
        replacement_lindbladian(depolarizing_projection(2), 2.0, 4.0), diagonal([0.7, 0.3]),
        [], ["theorem"]),
    "classical": lambda: classical_converse_check(
        depolarizing_projection(2), diagonal([0.7, 0.3]), diagonal([0.5, 0.5]), [], 4.0, 0.02),
    "mutual-info": lambda: mutual_info_converse_check(
        depolarizing_projection(2), BipartiteDensity(2, 2, diagonal([0.4, 0.1, 0.1, 0.4])),
        (), 4.0, 5e-4),
}


@pytest.mark.parametrize("case", sorted(EMPTY_TIMES))
def test_converse_checks_need_a_time(case):
    with pytest.raises(ValueError, match="^need at least one time$"):
        EMPTY_TIMES[case]()


def test_mutual_info_converse_needs_the_images_to_commute():
    # a pinching in a basis rotated by 0.3: (Id x E)(rho) = rho_A x E(rho_B) is not
    # diagonal, so it does not commute with the product state rho
    u = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    projections = [np.outer(u[:, i], u[:, i]) for i in range(2)]
    e = channels.ConditionalExpectation(2, sum(np.kron(p.T, p) for p in projections))
    joint = BipartiteDensity(2, 2, DensityMatrix.from_matrix(
        np.kron(np.diag([0.3, 0.7]), np.diag([0.2, 0.8])).astype(complex)))
    with pytest.raises(ValueError, match=r"states do not commute: max \|\[A, B\]\| = 4.110e-02"):
        mutual_info_converse_check(e, joint, (0.01,), 4.0, 5e-4)


def test_mutual_info_converse_rejects_quantum_input():
    e = depolarizing_projection(2)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    joint = BipartiteDensity(2, 2, DensityMatrix.from_matrix(np.outer(bell, bell.conj())))
    with pytest.raises(ValueError, match="classical"):
        mutual_info_converse_check(e, joint, (0.01,), 4.0, 2.0)
    classical = diagonal([0.4, 0.1, 0.1, 0.4])
    family = BipartiteDensity(2, 2, stack_of([classical, joint.state]))
    with pytest.raises(ValueError, match="^stack member 1: input is not classical-classical"):
        mutual_info_converse_check(e, family, (0.01,), 4.0, 2.0)


def test_decayed_state_same_mixture_factor():
    rho = diagonal([0.8, 0.2])
    sigma = diagonal([0.4, 0.6])
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
        rho = diagonal([r0, 1 - r0])
        sigma = diagonal([s0, 1 - s0])
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
    rho = diagonal([0.8, 0.2])
    sigma = diagonal([0.4, 0.6])
    theta = diagonal([1.0, 0.0])
    omega = DensityMatrix.maximally_mixed(2)
    with pytest.raises(ValueError, match="order precondition"):
        decayed_state_bound_check(rho, sigma, theta, omega,
                                  eps=0.5, zeta=0.2, c=1.5)


def test_decayed_state_weights_name_the_failing_pair():
    rho = diagonal([0.8, 0.2])
    sigma = diagonal([0.4, 0.6])
    mixed = DensityMatrix.maximally_mixed(2)
    with pytest.raises(ValueError, match="^stack member 1: need 0 < zeta <= eps < 1$"):
        decayed_state_bound_check(stack_of([rho, rho]), stack_of([sigma, sigma]), mixed, mixed,
                                  [0.3, 0.1], [0.2, 0.2], 1.0)


def test_decayed_state_needs_one_weight_per_pair():
    rho = diagonal([0.8, 0.2])
    sigma = diagonal([0.4, 0.6])
    mixed = DensityMatrix.maximally_mixed(2)
    with pytest.raises(ValueError, match="2 pairs, 1 eps, 1 zeta"):
        decayed_state_bound_check(stack_of([rho, rho]), stack_of([sigma, sigma]), mixed, mixed,
                                  [0.3], [0.2], 1.0)


def test_origcompare_needs_one_weight_per_pair():
    sigma = diagonal([0.6, 0.4])
    rho = DensityMatrix.from_matrix(0.7 * sigma.matrix + 0.3 * np.eye(2) / 2)
    omega = diagonal([0.2, 0.8])
    with pytest.raises(ValueError, match="2 pairs, 1 eps, 1 zeta"):
        origcompare_check(*(stack_of([x, x]) for x in (rho, sigma, omega)), [0.3], [0.2])


def test_origcompare_no_mixing_is_equality(rng):
    sigma = diagonal([0.6, 0.4])
    rho = DensityMatrix.from_matrix(0.7 * sigma.matrix + 0.3 * np.eye(2) / 2)
    omega = diagonal([0.2, 0.8])
    rep = origcompare_check(rho, sigma, omega, eps=0.0, zeta=0.3)
    assert rep.passed
    assert abs(rep.lhs - rep.rhs) < 1e-10


def test_origcompare_commuting_triple():
    sigma = diagonal([0.5, 0.5])
    rho = diagonal([0.65, 0.35])
    omega = diagonal([0.3, 0.7])
    rep = origcompare_check(rho, sigma, omega, eps=0.25, zeta=0.3)
    assert rep.passed


def test_origcompare_omega_equal_sigma_random(rng):
    for _ in range(100):
        s0 = rng.uniform(0.1, 0.9)
        sigma = diagonal([s0, 1 - s0])
        zeta = rng.uniform(0.05, 0.8)
        w0 = rng.uniform(0.0, 1.0)
        rho = DensityMatrix.from_matrix(
            (1 - zeta) * sigma.matrix + zeta * np.diag([w0, 1 - w0]).astype(complex))
        rep = origcompare_check(rho, sigma, sigma, eps=rng.uniform(0.05, 0.9),
                                zeta=zeta)
        assert rep.passed


def test_origcompare_precondition():
    sigma = diagonal([0.6, 0.4])
    rho = diagonal([0.05, 0.95])
    with pytest.raises(ValueError, match="precondition"):
        origcompare_check(rho, sigma, sigma, eps=0.1, zeta=0.1)


def test_origcompare_names_the_failing_member():
    # it named no member, and gave the stack's smallest eigenvalue
    sigma = diagonal([0.6, 0.4])
    rho = diagonal([0.05, 0.95])
    triple = [stack_of([x, x]) for x in (sigma, sigma, sigma)]
    with pytest.raises(ValueError, match=r"^stack member 1: eps and zeta must lie in \[0, 1\)$"):
        origcompare_check(*triple, [0.1, 1.0], [0.1, 0.1])
    triple[0] = stack_of([sigma, rho])
    with pytest.raises(ValueError, match=r"^stack member 1: precondition rho >= \(1-zeta\) "
                                         r"sigma fails by -0\.4"):
        origcompare_check(*triple, [0.1, 0.1], [0.1, 0.1])


def test_params_from_semigroup_invariants():
    zeta, eps = bounds._replacement_weights(0.3, 4.0, 0.75)
    assert abs(zeta - (1 - math.exp(-0.3 * 4 * 0.75))) < 1e-15
    assert abs(eps - (1 - math.exp(-0.3 * 4 * 0.75 / 2))) < 1e-15
    assert abs((1 - eps) - math.exp(-0.3 * 4 * 0.75 / 2)) < 1e-15
    with pytest.raises(ValueError, match="t >= 0"):
        bounds._replacement_weights(-0.1, 4.0, 0.75)


def test_mutual_info_converse_exactly_correlated_bits():
    e = depolarizing_projection(2)
    cells = np.array([0.5, 0.0, 0.0, 0.5])
    joint = BipartiteDensity(2, 2, DensityMatrix.from_matrix(np.diag(cells.astype(complex))))
    rep = mutual_info_converse_check(e, joint, (0.01,), 4.0, 5e-4)
    assert rep.passed.all()
    ratio = rep.lhs.item() / rep.extra["dPre"].item()
    assert rep.factor.item() < ratio <= 1.0 + 1e-12


def _parent_branch_values(eps, m_tilde, g_tilde, post, pre):
    """The branch report with its formulas inline: a at the midpoint of its
    feasible interval, the branch that pre selects and its factor; as
    _report_values gives them."""
    m = m_tilde
    f = entropy.f_almost_concavity(eps, m)
    a = 0.5 * (2.0 * f / ((1.0 - eps) * m ** 2) + 1.0)
    if pre >= a * m ** 2 / 2.0:
        branch, factor = "large-D", 1.0 - eps - 2.0 * f / (a * m * m)
    else:
        branch = "small-D"
        factor = (1.0 - a) * (1.0 - eps) ** 2 / ((1.0 - eps) * (1.0 - a) + eps * g_tilde)
    return branch, post, factor * pre, factor, pre


def _parent_classical_check(e, rho, sigma, t, c, diamond, m_tilde, g_tilde):
    """classical_converse_check as it was before it took a sequence of
    times: one time, and every step redone; as _cell_fields gives it."""
    e_rho = apply(e, rho)
    e_sigma = apply(e, sigma)
    bounds._check_commuting(rho.matrix, sigma.matrix)
    bounds._check_commuting(rho.matrix, e_rho.matrix)
    assert matcore.trace_norm(e_rho.matrix - e_sigma.matrix) <= 1e-10
    d_pre = entropy.relative_entropy(rho, sigma).unwrap()
    eps = -math.expm1(-t * c * diamond / 2.0)
    mixed_rho = DensityMatrix.from_matrix((1 - eps) * rho.matrix + eps * e_rho.matrix)
    mixed_sigma = DensityMatrix.from_matrix((1 - eps) * sigma.matrix + eps * e_sigma.matrix)
    d_post = entropy.relative_entropy(mixed_rho, mixed_sigma).unwrap()
    return _cell_fields(*_parent_branch_values(eps, m_tilde, g_tilde, d_post, d_pre))


def _parent_mutual_info_check(e_on_b, rho, t, c, diamond):
    """mutual_info_converse_check as it was before it ran the commuting-state
    converse: one time, m_tilde and g_tilde from the marginals, and the mutual
    information as S(A) + S(B) - S(AB) before and after the noise."""
    joint = rho.state.matrix
    rho_a, rho_b = (m[0] for m in BipartiteDensity.marginals(rho))
    e_rho_b = apply(e_on_b, rho_b)
    e_joint = channels.apply_on_factor(e_on_b, joint, (rho.dim_a, rho.dim_b), 1)
    target = matcore.tensor(rho_a.matrix, e_rho_b.matrix)
    sigma = DensityMatrix.from_matrix(matcore.tensor(rho_a.matrix, rho_b.matrix))
    m_tilde = bounds.smallest_nonzero_eigenvalue_direct_sum(
        sigma, DensityMatrix.from_matrix(target))
    g_tilde = matcore.loewner_min_coefficient(e_rho_b, rho_b)
    i_pre = entropy.mutual_information(rho)
    eps = -math.expm1(-t * c * diamond / 2.0)
    mixed = DensityMatrix.from_matrix((1 - eps) * joint + eps * e_joint)
    i_post = entropy.mutual_information(BipartiteDensity(rho.dim_a, rho.dim_b, mixed))
    return _parent_branch_values(eps, m_tilde, g_tilde, i_post, i_pre)


def _cell_fields(branch, *floats):
    return branch, np.array(floats, dtype=float).view(np.uint64).tolist()


def _report_values(rep, j):
    """Cell j of a one-state converse report: its branch, lhs, rhs, factor and dPre."""
    return (rep.extra["branch"][0, j], rep.lhs[0, j], rep.rhs[0, j], rep.factor[0, j],
            rep.extra["dPre"][0])


def _id_tensor(e):
    """Id x E on C^2 x C^2, from E x Id conjugated by the swap of the factors."""
    swap = np.eye(4)[[0, 2, 1, 3]]
    k = np.kron(swap, swap)  # vec(S X S) = (S^T kron S) vec(X)
    return channels.ConditionalExpectation(4, k @ e.tensor_identity(2).matrix @ k)


# the mutual-information converse evaluates D(rho || rho_A x rho_B) for I(A:B), where
# it took S(A) + S(B) - S(AB); on the test's 24 states the reports differ by 4.4e-16 at most
MUTUAL_INFO_FORM_ATOL = 1e-15


def test_multi_time_converse_checks_bit_identical_to_single_time_form():
    times = (0.01, 0.1)
    e = depolarizing_projection(2)
    e_ab = _id_tensor(e)
    root = Rng(8)
    seen = {"classical": set(), "mutual-info": set()}
    for k in range(24):
        sub = root.substream(k)
        s0 = sub.uniform(0.35, 0.65)
        if k % 2:
            r0 = sub.uniform(0.001, 0.999)
        else:
            r0 = min(max(s0 + 0.08 * sub.normal(), 1e-4), 1 - 1e-4)
        sigma = diagonal([s0, 1.0 - s0])
        rho = diagonal([r0, 1.0 - r0])
        e_sigma = apply(e, sigma)
        m_tilde = bounds.smallest_nonzero_eigenvalue_direct_sum(sigma, e_sigma)
        g_tilde = matcore.loewner_min_coefficient(e_sigma, sigma)
        rep = classical_converse_check(e, rho, sigma, times, 4.0, 0.02)
        assert rep.lhs.shape == (1, len(times))
        for j, t in enumerate(times):
            assert _cell_fields(*_report_values(rep, j)) == _parent_classical_check(
                e, rho, sigma, t, 4.0, 0.02, m_tilde, g_tilde)
            seen["classical"].add(rep.extra["branch"][0, j])

        cells = matcore.random_probability_vector(sub, 4, floor=0.16)
        joint = BipartiteDensity(2, 2, DensityMatrix.from_matrix(np.diag(cells.astype(complex))))
        joint_a, joint_b = (m[0] for m in BipartiteDensity.marginals(joint))
        product = DensityMatrix.from_matrix(matcore.tensor(joint_a.matrix, joint_b.matrix))
        e_product = apply(e_ab, product)
        m_tilde = bounds.smallest_nonzero_eigenvalue_direct_sum(product, e_product)
        g_tilde = matcore.loewner_min_coefficient(e_product, product)
        rep = mutual_info_converse_check(e, joint, times, 4.0, 5e-4)
        assert rep.lhs.shape == (1, len(times))
        for j, t in enumerate(times):
            got = _report_values(rep, j)
            assert _cell_fields(*got) == _parent_classical_check(
                e_ab, joint.state, product, t, 4.0, 5e-4, m_tilde, g_tilde)
            want = _parent_mutual_info_check(e, joint, t, 4.0, 5e-4)
            assert got[0] == want[0]
            np.testing.assert_allclose(got[1:], want[1:], rtol=0, atol=MUTUAL_INFO_FORM_ATOL)
            seen["mutual-info"].add(rep.extra["branch"][0, j])
    assert seen == {"classical": {"large-D", "small-D"},
                    "mutual-info": {"large-D", "small-D"}}


def test_zeta_and_eps_exact_at_small_times():
    # 1 - exp(-x) cancels for small x: at x = 3e-17 it gave 0, at 3e-13 a
    # relative error of 6e-5
    for t in (1e-17, 1e-13):
        zeta, eps = bounds._replacement_weights(t, 4.0, 0.75)
        assert math.isclose(zeta, 3.0 * t, rel_tol=1e-12)
        assert math.isclose(eps, 1.5 * t, rel_tol=1e-12)
    g, tau_star = g_factor(-math.expm1(-3e-17), 4.0, "theorem")
    assert tau_star > 1e-12
    # the clsi check optimizes at the exact zeta, not at 0 (where g = 1)
    rep = clsi_converse_check(qubit_depolarizing_lindbladian(),
                              diagonal([0.9, 0.1]), [1e-17], ["theorem"])
    assert rep.factor.item() == g < 1.0


def _m_tilde_oracle(sigma, e_sigma, mpmath):
    """m_tilde at 50 digits from the stored matrices: sigma's support
    eigenvalues and those of E(sigma) compressed to that support."""
    d = sigma.dim
    with mpmath.workdps(50):
        s, es = (mpmath.matrix(x.matrix.tolist()) for x in (sigma, e_sigma))
        w, v = mpmath.eighe(s)
        keep = [i for i in range(d) if w[i] > 1e-12 * max(w)]
        vk = mpmath.matrix([[v[r, i] for i in keep] for r in range(d)])
        we = mpmath.eighe(vk.transpose_conj() * es * vk, eigvals_only=True)
        return float(min([w[i] for i in keep] + [x for x in we if x > 1e-12 * max(we)]))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("rank_deficient", [False, True])
def test_m_tilde_against_mpmath(rng, d, rank_deficient):
    mpmath = pytest.importorskip("mpmath")
    for _ in range(5):
        u = random_unitary(rng, d)
        p = np.array([0.05 + rng.uniform() for _ in range(d)])
        if rank_deficient:
            p[0] = 0.0
        sigma = DensityMatrix.from_matrix((u * (p / p.sum())) @ u.conj().T)
        for e in (pinching(d), depolarizing_projection(d)):
            e_sigma = apply(e, sigma)
            got = bounds.smallest_nonzero_eigenvalue_direct_sum(sigma, e_sigma)
            assert math.isclose(got, _m_tilde_oracle(sigma, e_sigma, mpmath), rel_tol=1e-12)

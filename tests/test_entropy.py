import math

import numpy as np
import pytest

from conftest import random_unitary
from qdecay import entropy, matcore
from qdecay.entropy import (
    binary_entropy,
    f_almost_concavity,
    kappa,
    mutual_information,
    pinsker_check,
    relative_entropy,
    relative_entropy_integral_form,
    von_neumann_entropy,
    weighted_norm_sq,
)
from qdecay.matcore import BipartiteDensity, DensityMatrix
from qdecay.experiments import omega_theta_lambda, rho_theta_lambda


def pinched(rho):
    return DensityMatrix.from_matrix(np.diag(np.diagonal(rho.matrix)))


def test_entropy_pure_state():
    assert von_neumann_entropy(DensityMatrix.pure([1, 1j])) < 1e-12


def test_entropy_maximally_mixed():
    for d in (2, 3, 5):
        assert abs(von_neumann_entropy(DensityMatrix.maximally_mixed(d)) - math.log(d)) < 1e-12


def test_entropy_depolarized_closed_form():
    # spectrum {1 - lam (d-1)/d, lam/d x (d-1)} for the rotated-pure family
    theta, lam, d = 0.7, 0.3, 3
    rho = rho_theta_lambda(theta, lam, d)
    expect = (-(d - 1) * (lam / d) * math.log(lam / d)
              - (1 - lam * (d - 1) / d) * math.log(1 - lam * (d - 1) / d))
    assert abs(von_neumann_entropy(rho) - expect) < 1e-12


def test_relative_entropy_self_is_zero(rng):
    rho = matcore.random_density(rng, 3)
    assert relative_entropy(rho, rho).unwrap() < 1e-12


def test_relative_entropy_pure_vs_mixed():
    d = relative_entropy(DensityMatrix.pure([1, 0]), DensityMatrix.maximally_mixed(2))
    assert abs(d.unwrap() - math.log(2)) < 1e-12


def test_relative_entropy_pinched_closed_form():
    theta = 0.3
    rho = rho_theta_lambda(theta, 0.0)
    d = relative_entropy(rho, pinched(rho)).unwrap()
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    expect = -c2 * math.log(c2) - s2 * math.log(s2)
    assert abs(d - expect) < 1e-12


def test_relative_entropy_infinite_flag():
    d = relative_entropy(DensityMatrix.pure([0, 1]), DensityMatrix.pure([1, 0]))
    assert not d.finite
    assert math.isinf(float(d))
    with pytest.raises(ValueError):
        d.unwrap()


def test_relative_entropy_nonnegative_random(rng):
    for _ in range(300):
        rho = matcore.random_density(rng, 3)
        sigma = matcore.random_density(rng, 3, mix=0.05)
        d = relative_entropy(rho, sigma).unwrap()
        assert d >= -1e-10
        tn = matcore.trace_norm(rho.matrix - sigma.matrix)
        if d < 1e-12:
            assert tn < 1e-5


def test_mutual_information_product_state(rng):
    ra = matcore.random_density(rng, 2)
    rb = matcore.random_density(rng, 3)
    bip = BipartiteDensity.from_matrix(matcore.tensor(ra.matrix, rb.matrix), 2, 3)
    assert mutual_information(bip) < 1e-10


def test_mutual_information_bell_pair():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    bip = BipartiteDensity.from_matrix(np.outer(bell, bell.conj()), 2, 2)
    assert abs(mutual_information(bip) - 2 * math.log(2)) < 1e-10


def test_mutual_information_equals_pinched_relative_entropy():
    for theta in (0.05, 0.3, 0.7):
        for lam in (0.05, 0.4, 0.9):
            omega = omega_theta_lambda(theta, lam)
            rho = rho_theta_lambda(theta, lam)
            d = relative_entropy(rho, pinched(rho)).unwrap()
            assert abs(mutual_information(omega) - d) < 1e-10


def test_mutual_information_resolves_tiny_correlation():
    # I of the flag-correlated pair is h(sin^2 theta) ~ 3.3e-13 at theta = 1e-7;
    # as D(rho_AB || rho_A x rho_B) it lost the product state's ~1e-15
    # eigenvalues to the support cut and read 3.2e-15
    for theta in (1e-3, 1e-5, 1e-7):
        want = binary_entropy(math.sin(theta) ** 2)
        assert abs(mutual_information(omega_theta_lambda(theta, 0.0)) - want) <= 1e-2 * want


def test_mutual_information_data_processing_partial_trace(rng):
    # I[A:BC] >= I[A:B] after tracing out C
    for _ in range(50):
        rho = matcore.random_density(rng, 8)
        big = BipartiteDensity(2, 4, rho)
        i_full = mutual_information(big)
        red = matcore.partial_trace(rho.matrix, 4, 2, "A")  # drop last qubit
        small = BipartiteDensity.from_matrix(red, 2, 2)
        assert mutual_information(small) <= i_full + 1e-10


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - math.log(2)) < 1e-15
    assert abs(binary_entropy(0.1) - 0.3250829733914482) < 1e-12
    assert abs(binary_entropy(0.3) - binary_entropy(0.7)) < 1e-15
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_kappa_values():
    assert abs(kappa(1.0) - 0.5) < 1e-12
    assert abs(kappa(1.0 + 1e-9) - 0.5) < 1e-9
    assert abs(kappa(4.0) - (4 * math.log(4) - 3) / 9) < 1e-15
    grid = [1.1, 2.0, 4.0, 9.0, 100.0]
    vals = [kappa(c) for c in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        kappa(0.5)


def test_pinsker_equal_states(rng):
    rho = matcore.random_density(rng, 2)
    rep = pinsker_check(rho, rho)
    assert rep.passed and rep.relative_entropy < 1e-12 and rep.basic_bound < 1e-12


def test_pinsker_pure_vs_mixed_closed_forms():
    rho = DensityMatrix.diagonal([1.0, 0.0])
    sigma = DensityMatrix.diagonal([0.5, 0.5])
    rep = pinsker_check(rho, sigma)
    assert abs(rep.relative_entropy - math.log(2)) < 1e-12
    assert abs(rep.trace_distance - 1.0) < 1e-12
    assert abs(rep.basic_bound - 0.5) < 1e-12
    assert rep.commuting
    assert abs(rep.refined_bound - max(-math.log(1 - 0.25), 0.5)) < 1e-12
    assert rep.passed


def test_pinsker_random_commuting(rng):
    for k in range(300):
        p = matcore.random_probability_vector(rng, 3, floor=0.01)
        q = matcore.random_probability_vector(rng, 3, floor=0.01)
        rep = pinsker_check(DensityMatrix.diagonal(p), DensityMatrix.diagonal(q))
        assert rep.passed


def test_f_almost_concavity_edges():
    assert f_almost_concavity(0.0, 0.3) == 0.0
    for eps in (0.1, 0.5, 0.9):
        assert abs(f_almost_concavity(eps, 1.0) - binary_entropy(eps)) < 1e-14
    with pytest.raises(ValueError):
        f_almost_concavity(0.5, 0.0)


def test_f_almost_concavity_upper_estimate():
    # f_m(eps) <= eps (ln(1/m) + 1/m - ln(eps) + 1) on a grid
    for eps in np.linspace(1e-3, 1e-1, 12):
        for m in np.linspace(0.05, 0.5, 10):
            bound = eps * (math.log(1 / m) + 1 / m - math.log(eps) + 1)
            assert f_almost_concavity(float(eps), float(m)) <= bound + 1e-12


def test_weighted_norm_maximally_mixed(rng):
    for d in (2, 3):
        x = matcore.random_hermitian(rng, d)
        omega = DensityMatrix.maximally_mixed(d)
        expect = d * float((np.abs(x) ** 2).sum())
        assert abs(weighted_norm_sq(x, omega) - expect) < 1e-10 * expect


def test_weighted_norm_zero_operator():
    assert weighted_norm_sq(np.zeros((2, 2)), DensityMatrix.maximally_mixed(2)) == 0.0


def test_weighted_norm_outside_support_is_infinite():
    omega = DensityMatrix.diagonal([1.0, 0.0])
    x = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    assert math.isinf(weighted_norm_sq(x, omega))


def _resolvent_integral_oracle(x, omega_matrix, r_max=1e6, tol=1e-10):
    """Adaptive Simpson quadrature of the resolvent integral, truncated at
    r_max; independent of the eigenbasis closed form."""
    def integrand(r):
        inv = np.linalg.solve(r * np.eye(omega_matrix.shape[0]) + omega_matrix, x)
        return float(np.real(np.trace(inv @ inv)))

    def simpson(f, a, b, fa, fm, fb, whole, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6 * (fa + 4 * flm + fm)
        right = (b - m) / 6 * (fm + 4 * frm + fb)
        if depth <= 0 or abs(left + right - whole) < 15 * tol:
            return left + right + (left + right - whole) / 15
        return (simpson(f, a, m, fa, flm, fm, left, depth - 1)
                + simpson(f, m, b, fm, frm, fb, right, depth - 1))

    total = 0.0
    edges = [0.0] + list(np.logspace(-6, math.log10(r_max), 25))
    for a, b in zip(edges, edges[1:]):
        fa, fb = integrand(a), integrand(b)
        fm = integrand(0.5 * (a + b))
        whole = (b - a) / 6 * (fa + 4 * fm + fb)
        total += simpson(integrand, a, b, fa, fm, fb, whole, 30)
    return total


def test_weighted_norm_matches_quadrature_oracle(rng):
    for _ in range(5):
        omega = matcore.random_density(rng, 2, mix=0.2)
        x = matcore.random_hermitian(rng, 2)
        x = 0.5 * x / np.sqrt((np.abs(x) ** 2).sum())
        closed = weighted_norm_sq(x, omega)
        oracle = _resolvent_integral_oracle(x, omega.matrix)
        assert abs(closed - oracle) < 1e-6


def test_integral_form_same_state(rng):
    rho = matcore.random_density(rng, 2, mix=0.2)
    assert relative_entropy_integral_form(rho, rho) < 1e-12


def test_integral_form_matches_eigen_path(rng):
    for d in (2, 3):
        for _ in range(5):
            rho = matcore.random_density(rng, d, mix=0.1)
            sigma = matcore.random_density(rng, d, mix=0.1)
            de = relative_entropy(rho, sigma).unwrap()
            di = relative_entropy_integral_form(rho, sigma, 64)
            assert abs(de - di) < 1e-6


def test_integral_form_commuting_pair(rng):
    p = matcore.random_probability_vector(rng, 3, floor=0.05)
    q = matcore.random_probability_vector(rng, 3, floor=0.05)
    rho, sigma = DensityMatrix.diagonal(p), DensityMatrix.diagonal(q)
    assert abs(relative_entropy_integral_form(rho, sigma)
               - relative_entropy(rho, sigma).unwrap()) < 1e-6


def test_integral_form_rejects_support_violation():
    with pytest.raises(ValueError, match="support"):
        relative_entropy_integral_form(DensityMatrix.pure([0, 1]),
                                       DensityMatrix.pure([1, 0]))


def test_integral_form_rank_deficient_sigma(rng):
    # rank-2 pairs on one random plane of C^3, each mixed within the plane
    values = []
    for _ in range(12):
        plane = random_unitary(rng, 3)[:, :2]
        rho, sigma = (DensityMatrix.from_matrix(
            plane @ matcore.random_density(rng, 2, mix=0.1).matrix @ plane.conj().T)
            for _ in range(2))
        assert sigma.eigenvalues[0] < 1e-15
        di = relative_entropy_integral_form(rho, sigma, 64)
        values.append(di)
        assert abs(di - relative_entropy(rho, sigma).unwrap()) < 1e-10
    assert min(values) > 1e-6
    with pytest.raises(ValueError, match="support"):
        relative_entropy_integral_form(matcore.random_density(rng, 3, mix=0.1), sigma)


def test_integral_form_rejects_few_nodes(rng):
    rho = matcore.random_density(rng, 2, mix=0.2)
    with pytest.raises(ValueError, match="quad_points"):
        relative_entropy_integral_form(rho, rho, 4)


def _full_tensor_rule(rho, sigma, q):
    """The q x q tensor Gauss-Legendre rule evaluated node by node, with no
    use of the symmetry in t = s*u: every ordered node pair is its own
    matrix in the stack, and each log is taken once per eigenvalue pair."""
    nodes, weights = np.polynomial.legendre.leggauss(q)
    s = 0.5 * (nodes + 1.0)
    ws = 0.5 * weights
    x = rho.matrix - sigma.matrix
    t = (s[:, None] * s[None, :]).reshape(-1)
    wts = (ws[:, None] * ws[None, :] * s[:, None]).reshape(-1)
    omegas = (1.0 - t)[:, None, None] * sigma.matrix + t[:, None, None] * rho.matrix
    w, v = np.linalg.eigh(omegas)
    xt = np.einsum("nji,jk,nkl->nil", v.conj(), x, v)
    a = w[:, :, None]
    b = w[:, None, :]
    diff = a - b
    close = np.abs(diff) <= 1e-12 * np.maximum(a, b)
    safe = np.where(close, 1.0, diff)
    tiny = np.finfo(float).tiny
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(close, 2.0 / np.maximum(a + b, tiny),
                       (np.log(np.maximum(a, tiny)) - np.log(np.maximum(b, tiny))) / safe)
    integrand = np.real((np.abs(xt) ** 2 * lam).sum(axis=(1, 2)))
    off_diagonal_close = bool((close & ~np.eye(w.shape[1], dtype=bool)).any())
    return float((wts * integrand).sum()), off_diagonal_close


def _nearly_degenerate_pair(rng, d):
    """I/d moved by 1e-13 along two traceless directions: every mixture has
    eigenvalues within about 1e-13 of 1/d, which log-mean weights treat as equal."""
    def near_identity():
        h = matcore.random_hermitian(rng, d)
        h = h - np.trace(h) / d * np.eye(d)
        return DensityMatrix.from_matrix(np.eye(d) / d + 1e-13 * h / np.abs(h).max())
    return near_identity(), near_identity()


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("q", [8, 16, 64])
def test_integral_form_matches_full_tensor_rule(rng, d, q):
    pairs = [(matcore.random_density(rng, d, mix=0.1),
              matcore.random_density(rng, d, mix=0.1)) for _ in range(3)]
    p = matcore.random_probability_vector(rng, d, floor=0.05)
    r = matcore.random_probability_vector(rng, d, floor=0.05)
    pairs.append((DensityMatrix.diagonal(p), DensityMatrix.diagonal(r)))
    degenerate = _nearly_degenerate_pair(rng, d)
    pairs.append(degenerate)
    for rho, sigma in pairs:
        expect, _ = _full_tensor_rule(rho, sigma, q)
        assert abs(relative_entropy_integral_form(rho, sigma, q) - expect) < 1e-14
    # the nearly degenerate pair reaches the equal-eigenvalue branch off the
    # diagonal, and agrees there to rounding, not only to 1e-14
    expect, off_diagonal_close = _full_tensor_rule(*degenerate, q)
    assert off_diagonal_close
    assert expect > 0
    assert relative_entropy_integral_form(*degenerate, q) == pytest.approx(expect, rel=1e-9)


def test_integral_form_one_eigensolve_on_distinct_nodes(rng, monkeypatch):
    rho = matcore.random_density(rng, 3, mix=0.1)
    sigma = matcore.random_density(rng, 3, mix=0.1)
    stacks = []
    solve = matcore.jacobi_eigh_batch

    def counting_solve(stack):
        stacks.append(stack.shape[0])
        return solve(stack)

    monkeypatch.setattr(matcore, "jacobi_eigh_batch", counting_solve)
    relative_entropy_integral_form(rho, sigma, 64)
    assert stacks == [2080]  # 64 * 65 / 2 node pairs i <= j, not 64 * 64


@pytest.mark.parametrize("d", [6, 8])
def test_integral_form_matches_full_tensor_rule_wide(rng, d):
    # the basis change accumulates d rank-one terms; the workloads stop at d = 4
    pairs = [(matcore.random_density(rng, d, mix=0.1),
              matcore.random_density(rng, d, mix=0.1)) for _ in range(3)]
    for rho, sigma in pairs:
        expect, _ = _full_tensor_rule(rho, sigma, 16)
        assert abs(relative_entropy_integral_form(rho, sigma, 16) - expect) < 1e-14


@pytest.mark.parametrize("bad", [64.0, 8.5, "64"])
def test_integral_form_rejects_non_integer_node_count(rng, bad):
    rho = matcore.random_density(rng, 2, mix=0.2)
    with pytest.raises(ValueError, match="quad_points"):
        relative_entropy_integral_form(rho, rho, bad)


def test_integral_form_accepts_numpy_integer_node_count(rng):
    rho = matcore.random_density(rng, 2, mix=0.2)
    sigma = matcore.random_density(rng, 2, mix=0.2)
    assert (relative_entropy_integral_form(rho, sigma, np.int64(16))
            == relative_entropy_integral_form(rho, sigma, 16))


def test_gauss_rule_built_once_per_node_count(rng, monkeypatch):
    rho = matcore.random_density(rng, 2, mix=0.2)
    sigma = matcore.random_density(rng, 2, mix=0.2)
    builds = []
    leggauss = np.polynomial.legendre.leggauss

    def counting_leggauss(q):
        builds.append(q)
        return leggauss(q)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
    entropy._symmetric_gauss_rule.cache_clear()
    first = relative_entropy_integral_form(rho, sigma, 16)
    assert relative_entropy_integral_form(rho, sigma, 16) == first
    assert builds == [16]
    t, wts = entropy._symmetric_gauss_rule(16)
    assert not t.flags.writeable and not wts.flags.writeable


def _log_mean_weights_where(w):
    """The two-pass np.where form of the log-mean weights, kept as the
    reference the in-place version must match bit for bit."""
    a = w[..., :, None]
    b = w[..., None, :]
    diff = a - b
    close = np.abs(diff) <= 1e-12 * np.maximum(a, b)
    safe = np.where(close, 1.0, diff)
    tiny = np.finfo(float).tiny
    logw = np.log(np.maximum(w, tiny))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(close, 2.0 / np.maximum(a + b, tiny),
                        (logw[..., :, None] - logw[..., None, :]) / safe)


def test_log_mean_weights_bit_identical_to_where_form():
    vector = np.array([0.5, 0.5, 0.25 * (1 + 3e-13), 0.25, 1e-3, 0.0, -1e-17])
    stack = np.array([
        [0.3, 0.3, 0.3, 0.1],                          # exact ties
        [0.25, 0.25 * (1 + 5e-13), 0.25 * (1 - 5e-13), 0.25],  # near ties
        [-2e-16, 0.0, 0.4, 0.6],                       # clamped to tiny
        [1e-14, 2e-14, 0.2, 0.8],                      # distinct
    ])
    for w in (vector, stack):
        expect = _log_mean_weights_where(w)
        lam = entropy._log_mean_weights(w)
        # compare bit patterns: signed zeros count, and the NaN that a
        # negative eigenvalue puts on its own diagonal entry must match too
        assert np.array_equal(lam.view(np.uint64), expect.view(np.uint64))
        off = ~np.eye(w.shape[-1], dtype=bool)
        a, b = w[..., :, None], w[..., None, :]
        close = np.abs(a - b) <= 1e-12 * np.maximum(a, b)
        assert (close & off).any()             # ties off the diagonal are reached
        assert (np.maximum(a, b) <= 0).any()   # as is the clamp to tiny


def test_gaorouze_equal_states(rng):
    rho = matcore.random_density(rng, 2, mix=0.2)
    rep = entropy.gaorouze_sandwich_check(rho, rho)
    assert rep.passed and rep.relative_entropy < 1e-12


def test_gaorouze_interpolated_state(rng):
    sigma = matcore.random_density(rng, 3, mix=0.2)
    rho = DensityMatrix.from_matrix(0.9 * sigma.matrix + 0.1 * np.eye(3) / 3)
    rep = entropy.gaorouze_sandwich_check(rho, sigma)
    assert rep.passed


def test_gaorouze_random_pairs(rng):
    for _ in range(200):
        d = 2 if rng.uniform() < 0.5 else 3
        rho = matcore.random_density(rng, d, mix=0.1)
        sigma = matcore.random_density(rng, d, mix=0.1)
        rep = entropy.gaorouze_sandwich_check(rho, sigma)
        assert rep.lower_slack >= -1e-10 and rep.upper_slack >= -1e-10


def test_one_eigensolve_per_call(monkeypatch, rng):
    """Every eigensolve goes through matcore.jacobi_eigh_batch, once per
    DensityMatrix build or stack of builds, eigh, Loewner query and
    integral-form evaluation, so the benchmark's traced eigensolver counts
    stay truthful."""
    rho = matcore.random_density(rng, 3, mix=0.1)
    sigma = matcore.random_density(rng, 3, mix=0.1)
    singular = DensityMatrix.diagonal([0.5, 0.5, 0.0])
    inside = DensityMatrix.diagonal([0.3, 0.7, 0.0])
    m = rho.matrix.copy()
    raw = matcore.jacobi_eigh_batch
    calls = []

    def counted(stack):
        calls.append(np.shape(stack))
        return raw(stack)

    monkeypatch.setattr(matcore, "jacobi_eigh_batch", counted)
    for run in (lambda: DensityMatrix.from_matrix(m),
                lambda: DensityMatrix.from_matrices(np.stack([m, sigma.matrix, m])),
                lambda: matcore.random_densities(rng, 3, (0.1, 0.0, 0.2)),
                lambda: matcore.eigh(m),
                lambda: matcore.loewner_min_coefficient(rho, sigma),
                lambda: relative_entropy_integral_form(rho, sigma, 16),
                lambda: relative_entropy_integral_form(inside, singular, 16)):
        calls.clear()
        run()
        assert len(calls) == 1

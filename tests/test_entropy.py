import math

import numpy as np
import pytest

from conftest import random_unitary, stack_of
from qdecay import channels, entropy, matcore
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
    # |1><1| leaks entirely out of supp |0><0|
    rho, sigma = DensityMatrix.pure([0, 1]), DensityMatrix.pure([1, 0])
    d = relative_entropy(rho, sigma)
    assert not d.finite
    assert math.isinf(float(d))
    with pytest.raises(ValueError, match="relative entropy is infinite"):
        d.unwrap()
    with pytest.raises(ValueError, match="relative entropy is infinite"):
        entropy.unwrap(relative_entropy(stack_of([rho]), stack_of([sigma])))


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
    assert relative_entropy_integral_form(rho, rho, 64) < 1e-12


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
    assert abs(relative_entropy_integral_form(rho, sigma, 64)
               - relative_entropy(rho, sigma).unwrap()) < 1e-6


def test_integral_form_rejects_support_violation():
    with pytest.raises(ValueError, match="support"):
        relative_entropy_integral_form(DensityMatrix.pure([0, 1]),
                                       DensityMatrix.pure([1, 0]), 64)


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
        relative_entropy_integral_form(matcore.random_density(rng, 3, mix=0.1), sigma, 64)


def test_relative_entropies_reject_a_dimension_mismatch(rng):
    rho = matcore.random_density(rng, 2, mix=0.1)
    sigma = matcore.random_density(rng, 3, mix=0.1)
    for run in (lambda: relative_entropy(rho, sigma),
                lambda: relative_entropy(stack_of([rho, rho]), stack_of([sigma, sigma])),
                lambda: relative_entropy_integral_form(rho, sigma, 64),
                lambda: pinsker_check(rho, sigma),
                lambda: entropy.gaorouze_sandwich_check(rho, sigma)):
        with pytest.raises(ValueError, match="rho has dim 2, sigma has dim 3"):
            run()


def test_relative_entropy_checks_every_member_dimension(rng):
    r2, s2 = (matcore.random_density(rng, 2, mix=0.1) for _ in range(2))
    r3 = matcore.random_density(rng, 3, mix=0.1)
    # the members of a stack share its dimension; a list of states is no batch form
    with pytest.raises(ValueError, match="^rho is a list, not a state"):
        relative_entropy([r2, r3], [s2, r3])
    with pytest.raises(ValueError, match="^dimension mismatch: rho has dim 2, sigma has dim 3$"):
        relative_entropy(stack_of([r2, s2]), stack_of([r3, r3]))


def test_relative_entropy_rejects_sequences_of_two_lengths(rng):
    rho = matcore.random_density(rng, 2, mix=0.1)
    sigma = matcore.random_density(rng, 2, mix=0.1)
    with pytest.raises(ValueError, match="rho has 2 states, sigma has 1"):
        relative_entropy(stack_of([rho, rho]), stack_of([sigma]))


def test_relative_entropy_of_empty_lists_names_the_argument():
    # a list was read as a sequence of states: an empty one raised IndexError
    with pytest.raises(ValueError, match="^rho is a list, .*DensityMatrix.from_matrices$"):
        relative_entropy([], [])


# one call of each kind that takes states, with matrix arrays where the states belong;
# each ended in AttributeError ('matrix', 'eigenvalues' or '__dict__')
ARRAY_AS_STATE = {
    "pair": lambda a, b: relative_entropy(a, b),
    "one": lambda a, b: von_neumann_entropy(a),
    "bipartite": lambda a, b: mutual_information(a),
    "integral-form": lambda a, b: relative_entropy_integral_form(a, b, 8),
    "pinsker": lambda a, b: pinsker_check(a, b),
}


@pytest.mark.parametrize("kind", sorted(ARRAY_AS_STATE))
def test_a_matrix_array_where_a_state_belongs_is_named(kind):
    call = ARRAY_AS_STATE[kind]
    state = DensityMatrix.maximally_mixed(4)
    for m in (state.matrix, np.stack([state.matrix] * 2)):
        with pytest.raises(ValueError, match=(
                rf"^rho is an array of shape \({', '.join(map(str, m.shape))}\), not a state "
                "or a stack: build a stack of states with DensityMatrix.from_matrices$")):
            call(m, state)
    if kind in ("pair", "integral-form", "pinsker"):
        with pytest.raises(ValueError, match=r"^sigma is an array of shape \(4, 4\), not a state"):
            call(state, state.matrix)


def test_pinsker_and_sandwich_reports_hold_one_entry_per_pair(rng):
    pairs = [(matcore.random_density(rng, 3, mix=0.1), matcore.random_density(rng, 3, mix=0.1))
             for _ in range(4)]
    pairs.append((DensityMatrix.diagonal([0.4, 0.5, 0.1]),
                  DensityMatrix.diagonal([0.2, 0.3, 0.5])))
    rhos, sigmas = (stack_of([pair[j] for pair in pairs]) for j in (0, 1))
    fields = {pinsker_check: ("relative_entropy", "trace_distance", "basic_bound",
                              "refined_bound", "basic_holds", "refined_holds", "passed"),
              entropy.gaorouze_sandwich_check: ("order_coefficient", "norm_sq", "lower",
                                                "relative_entropy", "lower_slack",
                                                "upper_slack", "passed")}
    for check, names in fields.items():
        stacked = check(rhos, sigmas)
        for name in names:
            got = getattr(stacked, name)
            assert got.shape == (len(pairs),)
            for i, (rho, sigma) in enumerate(pairs):
                want = getattr(check(rho, sigma), name)
                assert want.shape == (1,)
                assert _bits(got[i]) == _bits(want[0])
    rep = pinsker_check(rhos, sigmas)
    # only the diagonal pair commutes; the refined form applies to it alone
    assert rep.commuting.tolist() == [False] * 4 + [True]
    assert np.isnan(rep.refined_bound[:4]).all() and not rep.refined_holds[:4].any()
    assert rep.passed.all()
    assert not hasattr(entropy.gaorouze_sandwich_check(rhos, sigmas), "upper")


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


def _exact_relative_entropy(rho, sigma):
    """D(rho || sigma) of the two float matrices at 40 digits, with the matrix
    logarithms taken through mpmath's 40-digit eigendecompositions and
    0 ln 0 = 0 on the spectrum of rho."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        r, s = (mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in m])
                for m in (rho.matrix, sigma.matrix))
        h = sum((x * mpmath.log(x) for x in mpmath.eighe(r, eigvals_only=True) if x > 0),
                mpmath.mpf(0))
        w, v = mpmath.eighe(s)
        log_s = v * mpmath.diag([mpmath.log(x) for x in w]) * v.transpose_conj()
        return float(mpmath.re(h - sum((r * log_s)[i, i] for i in range(r.rows))))


def _assert_no_worse_than_tensor_rule(rho, sigma, q):
    """The 2q-node rule on int_0^1 (1 - t) g(t) dt is no further from the exact
    relative entropy than the q x q tensor rule on the double integral."""
    exact = _exact_relative_entropy(rho, sigma)
    tensor, _ = _full_tensor_rule(rho, sigma, q)
    assert abs(relative_entropy_integral_form(rho, sigma, q) - exact) <= abs(tensor - exact) + 4e-15


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
        _assert_no_worse_than_tensor_rule(rho, sigma, q)
    # the nearly degenerate pair reaches the equal-eigenvalue branch off the
    # diagonal, where D is 1e-26 to 1e-25 and both rules agree to 1e-9 relative
    expect, off_diagonal_close = _full_tensor_rule(*degenerate, q)
    assert off_diagonal_close
    assert expect > 0
    assert relative_entropy_integral_form(*degenerate, q) == pytest.approx(expect, rel=1e-9)


def test_integral_form_rank_deficient_rho(rng):
    # omega_t is singular at t = 1, where g(t) grows like -ln(1 - t)
    for d in (2, 3, 4):
        for _ in range(3):
            g = matcore.random_complex_normal(rng, (1, d, d - 1))[0]
            rho = DensityMatrix.from_matrix(g @ g.conj().T / np.trace(g @ g.conj().T))
            sigma = matcore.random_density(rng, d, mix=0.1)
            assert rho.eigenvalues[0] < 1e-15
            assert abs(relative_entropy_integral_form(rho, sigma, 64)
                       - relative_entropy(rho, sigma).unwrap()) < 1e-8


def test_integral_form_one_eigensolve_on_distinct_nodes(rng, monkeypatch):
    rho = matcore.random_density(rng, 3, mix=0.1)
    sigma = matcore.random_density(rng, 3, mix=0.1)
    entropy._gauss_rule(64)
    stacks = []
    solve = matcore.jacobi_eigh_batch

    def counting_solve(stack):
        stacks.append(stack.shape[0])
        return solve(stack)

    monkeypatch.setattr(matcore, "jacobi_eigh_batch", counting_solve)
    relative_entropy_integral_form(rho, sigma, 64)
    assert stacks == [128]  # the rule's 2q nodes


def _in_plane(rng, plane):
    """A random density supported on the span of plane's columns."""
    k = plane.shape[1]
    return DensityMatrix.from_matrix(
        plane @ matcore.random_density(rng, k, mix=0.1).matrix @ plane.conj().T)


def test_integral_form_stack_bit_equal_to_per_pair_calls(rng, monkeypatch):
    # full-rank and rank-2 sigmas interleaved: two support groups in one stack
    plane = random_unitary(rng, 3)[:, :2]
    pairs = [(matcore.random_density(rng, 3, mix=0.1), matcore.random_density(rng, 3, mix=0.1))
             if i % 2 else (_in_plane(rng, plane), _in_plane(rng, plane)) for i in range(7)]
    rhos, sigmas = (stack_of([pair[j] for pair in pairs]) for j in (0, 1))
    stacks = []
    solve = matcore.jacobi_eigh_batch

    def counting_solve(stack):
        stacks.append(stack.shape)
        return solve(stack)

    for q in (16, 64):
        alone = [relative_entropy_integral_form(r, s, q) for r, s in pairs]
        assert all(type(x) is float for x in alone)
        monkeypatch.setattr(matcore, "jacobi_eigh_batch", counting_solve)
        stacked = relative_entropy_integral_form(rhos, sigmas, q)
        monkeypatch.setattr(matcore, "jacobi_eigh_batch", solve)
        assert isinstance(stacked, np.ndarray) and stacked.shape == (7,)
        assert stacked.view(np.uint64).tolist() == np.array(alone).view(np.uint64).tolist()
        # one eigensolve per support group, over its pairs' 2q nodes each
        assert sorted(stacks) == sorted([(3 * 2 * q, 3, 3), (4 * 2 * q, 2, 2)])
        stacks.clear()


def test_integral_form_names_the_leaking_stack_member(rng):
    plane = random_unitary(rng, 3)[:, :2]
    off = DensityMatrix.from_matrix(np.outer(plane[:, 0], plane[:, 0].conj()))
    inside = _in_plane(rng, plane)
    full = matcore.random_density(rng, 3, mix=0.1)
    leaking = matcore.random_density(rng, 3, mix=0.1)
    # each member in its own support group: the leak is member 0 of its group
    with pytest.raises(ValueError, match=r"^stack member 2: support violation: "
                                         r"ker\(sigma\) is not contained in ker\(rho\)$"):
        relative_entropy_integral_form(stack_of([full, off, leaking]),
                                       stack_of([full, inside, off]), 16)
    with pytest.raises(ValueError, match=r"^support violation: ker\(sigma\)"):
        relative_entropy_integral_form(leaking, off, 16)


@pytest.mark.parametrize("d", [6, 8])
def test_integral_form_matches_full_tensor_rule_wide(rng, d):
    # the basis change accumulates d rank-one terms; the workloads stop at d = 4
    pairs = [(matcore.random_density(rng, d, mix=0.1),
              matcore.random_density(rng, d, mix=0.1)) for _ in range(3)]
    for rho, sigma in pairs:
        _assert_no_worse_than_tensor_rule(rho, sigma, 16)


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
    shapes = []
    solve = matcore.jacobi_eigh_batch

    def counting_solve(stack):
        shapes.append(stack.shape)
        return solve(stack)

    monkeypatch.setattr(matcore, "jacobi_eigh_batch", counting_solve)
    entropy._gauss_rule.cache_clear()
    first = relative_entropy_integral_form(rho, sigma, 16)
    assert relative_entropy_integral_form(rho, sigma, 16) == first
    # one Jacobi-matrix build, then one stack of the 32 nodes per call
    assert shapes == [(1, 32, 32), (32, 2, 2), (32, 2, 2)]
    t, wts = entropy._gauss_rule(16)
    assert not t.flags.writeable and not wts.flags.writeable


def _mp_gauss_rule(n):
    """The n-node Gauss-Legendre rule mapped to [0, 1], with each weight times
    1 - t, at 40 digits: Newton's method on the three-term recurrence for P_n
    from numpy's nodes, and w = 2 / ((1 - x^2) P_n'(x)^2) on [-1, 1]."""
    mpmath = pytest.importorskip("mpmath")
    t, wts = [], []
    with mpmath.workdps(40):
        coef = [(mpmath.mpf(2 * k - 1) / k, mpmath.mpf(k - 1) / k) for k in range(2, n + 1)]
        # the upper half of the nodes; the rule is symmetric about x = 0
        for x0 in np.polynomial.legendre.leggauss(n)[0][n // 2:].tolist():
            x = mpmath.mpf(x0)
            for _ in range(3):  # each step squares the float start's 1e-16 error
                p0, p1 = mpmath.mpf(1), x
                for a, b in coef:
                    p0, p1 = p1, a * x * p1 - b * p0
                dp = n * (x * p1 - p0) / (x * x - 1)
                x -= p1 / dp
            w = 1 / ((1 - x * x) * dp * dp)
            for y in (-x, x):
                t.append((y + 1) / 2)
                wts.append(w * (1 - y) / 2)
        order = sorted(range(n), key=lambda i: t[i])
        return np.array([float(t[i]) for i in order]), np.array([float(wts[i]) for i in order])


@pytest.mark.parametrize("q", [8, 64, 128])
def test_gauss_rule_matches_mpmath_rule(q):
    t, wts = entropy._gauss_rule(q)
    mp_t, mp_wts = _mp_gauss_rule(2 * q)
    assert np.abs(t - mp_t).max() <= 1e-15
    assert np.abs(wts - mp_wts).max() <= 1e-15


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
    stay truthful.  The integral form's rule, one more eigensolve once per
    node count, is built before counting."""
    rho = matcore.random_density(rng, 3, mix=0.1)
    sigma = matcore.random_density(rng, 3, mix=0.1)
    singular = DensityMatrix.diagonal([0.5, 0.5, 0.0])
    inside = DensityMatrix.diagonal([0.3, 0.7, 0.0])
    m = rho.matrix.copy()
    entropy._gauss_rule(16)
    raw = matcore.jacobi_eigh_batch
    calls = []

    def counted(stack):
        calls.append(np.shape(stack))
        return raw(stack)

    monkeypatch.setattr(matcore, "jacobi_eigh_batch", counted)
    for run in (lambda: DensityMatrix.from_matrix(m),
                lambda: DensityMatrix.from_matrices(np.stack([m, sigma.matrix, m])),
                lambda: matcore.random_density(rng, 3, 0.1),
                lambda: matcore.eigh(m),
                lambda: matcore.loewner_min_coefficient(rho, sigma),
                lambda: relative_entropy_integral_form(rho, sigma, 16),
                lambda: relative_entropy_integral_form(inside, singular, 16)):
        calls.clear()
        run()
        assert len(calls) == 1


def _bits(x):
    return np.array(x, dtype=float).view(np.uint64).tolist()


def _parent_relative_entropy(rho, sigma):
    """relative_entropy as it was for one pair alone: compress rho to
    supp(sigma), flag a leak, then -S(rho) - tr rho log sigma."""
    ws = sigma.eigenvalues
    mask = ws > entropy.ENTROPY_SUPPORT_RTOL * ws[-1]
    vs = sigma.eigenvectors[:, mask]
    compressed = vs.conj().T @ rho.matrix @ vs
    if float(rho.matrix.trace().real - compressed.trace().real) > 1e-12:
        return math.inf
    w = rho.eigenvalues
    w = w[w > entropy.ZERO_CLIP]
    s_rho = float(-(w * np.log(w)).sum())
    return max(-s_rho - float((compressed.diagonal() * np.log(ws[mask])).sum().real), 0.0)


def _mixed_stack(rng, d):
    """Pairs in one dimension: full rank; rank-deficient sigma with rho inside
    its support; rho leaking outside supp(sigma); rho with zero eigenvalues
    against a full-rank sigma."""
    u = random_unitary(rng, d)

    def state(spectrum):
        p = np.array(spectrum, dtype=float)
        return DensityMatrix.from_matrix((u * (p / p.sum())) @ u.conj().T)

    full = [1.0 + k for k in range(d)]
    kernel = [0.0, 0.0] + full[2:]
    spiky = [0.0] * (d - 2) + [1.0, 3.0]
    pairs = [(state(full[::-1]), state(full)),
             (state([0.0, 0.0] + full[:d - 2][::-1]), state(kernel)),
             (state(full), state(kernel)),
             (state(spiky), state(full)),
             (state(full), state([1.0] * d))]
    return [r for r, _ in pairs], [s for _, s in pairs]


@pytest.mark.parametrize("d", [3, 8])
def test_stacked_functionals_bit_equal_to_each_row_alone(rng, d):
    rhos, sigmas = map(stack_of, _mixed_stack(rng, d))
    values = entropy.relative_entropy(rhos, sigmas)
    assert values[2] == math.inf
    leak = relative_entropy(rhos[2], sigmas[2])
    assert leak == entropy.EntropyValue.infinite()
    with pytest.raises(ValueError, match="infinite"):
        leak.unwrap()
    with pytest.raises(ValueError, match="infinite"):
        entropy.unwrap(values)
    assert np.isfinite(np.delete(values, 2)).all()
    for i, (rho, sigma) in enumerate(zip(rhos, sigmas)):
        alone = float(relative_entropy(rho, sigma))
        assert _bits(values[i]) == _bits(alone) == _bits(_parent_relative_entropy(rho, sigma))
    x = np.stack([r.matrix - s.matrix for r, s in zip(rhos, sigmas)])
    norms = entropy.weighted_norm_sq(x, sigmas)
    coeffs = matcore.loewner_min_coefficient(np.stack([r.matrix for r in rhos]), sigmas, True)
    assert norms[2] == coeffs[2] == math.inf
    s_vn = von_neumann_entropy(rhos)
    for i, (rho, sigma) in enumerate(zip(rhos, sigmas)):
        assert _bits(norms[i]) == _bits(weighted_norm_sq(x[i], sigma))
        assert _bits(coeffs[i]) == _bits(matcore.loewner_min_coefficient(rho, sigma, strict=True))
        assert _bits(s_vn[i]) == _bits(von_neumann_entropy(rho))


@pytest.mark.parametrize("dims", [(2, 2), (2, 4)])
def test_stacked_mutual_information_bit_equal_to_each_state_alone(rng, dims):
    rhos, sigmas = _mixed_stack(rng, dims[0] * dims[1])
    stacked = entropy.mutual_information(BipartiteDensity(*dims, stack_of(rhos + sigmas)))
    for i, x in enumerate(rhos + sigmas):
        alone = mutual_information(BipartiteDensity(*dims, x))
        assert _bits(stacked[i]) == _bits(alone)


@pytest.mark.parametrize("theta", [2e-7, 3e-7])
def test_pinched_pure_state_keeps_its_tiny_eigenvalue(theta):
    # E psi = diag(cos^2, sin^2) has sin^2(theta) ~ 1e-13, below the Loewner rank
    # rule (matcore.SUPPORT_RTOL); ENTROPY_SUPPORT_RTOL keeps it in the support
    psi = DensityMatrix.pure([math.cos(theta), math.sin(theta)])
    got = relative_entropy(psi, channels.pinching(2).apply(psi))
    assert math.isclose(got.unwrap(), binary_entropy(math.sin(theta) ** 2), rel_tol=1e-4)


@pytest.mark.parametrize("delta", [1e-13, 1.2e-12, 1e-11])
def test_one_leak_rule(delta):
    # delta of rho's weight outside supp(sigma), split over the two kernel
    # directions: the entropies and strict Loewner share one leak test, so they
    # agree on whether it counts (the Frobenius norm of the off-support block
    # let 1.2e-12 pass as finite)
    sigma = DensityMatrix.diagonal([0.5, 0.5, 0.0, 0.0])
    inside = (1.0 - delta) * np.array([[0.6, 0.2j], [-0.2j, 0.4]])
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = inside
    m[2, 2] = m[3, 3] = delta / 2
    rho = DensityMatrix.from_matrix(m)
    leaks = delta > matcore.SUPPORT_RTOL
    assert (float(relative_entropy(rho, sigma)) == math.inf) == leaks
    assert (matcore.loewner_min_coefficient(rho, sigma, strict=True) == math.inf) == leaks
    assert math.isfinite(matcore.loewner_min_coefficient(rho, sigma))
    if leaks:
        with pytest.raises(ValueError, match="support violation"):
            relative_entropy_integral_form(rho, sigma, 16)
    else:
        assert math.isfinite(relative_entropy_integral_form(rho, sigma, 16))

import math

import numpy as np
import pytest

from oracles import (
    apply,
    diagonal,
    identity_channel,
    omega_theta_lambda,
    pinching,
    pure,
    replacement_semigroup,
    rho_theta_lambda,
    to_superoperator,
)
from qdecay import bounds, channels, entropy, matcore
from qdecay.channels import (
    ConditionalExpectation,
    GroupLindbladian,
    KrausChannel,
    SuperOperator,
    complementary_channel,
    cp_order_coefficient,
    dephasing_y,
    depolarizing,
    depolarizing_projection,
    diamond_norm_bracket,
    diamond_norm_estimate,
    fixed_point_projection,
    group_lindbladian,
    identity_superoperator,
    pimsner_popa_index,
    replacement_lindbladian,
)
from qdecay.matcore import BipartiteDensity, DensityMatrix
from qdecay.experiments import flagged_channel

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_apply_identity(rng):
    rho = matcore.random_density(rng, 3)
    out = apply(identity_channel(3), rho)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-12


def test_apply_full_depolarizing():
    out = apply(depolarizing(3, 1.0), pure([1, 0, 0]))
    assert np.abs(out.matrix - np.eye(3) / 3).max() < 1e-12


def test_kraus_and_superoperator_paths_agree(rng):
    for lam in (0.0, 0.3, 0.9):
        ch = depolarizing(2, lam)
        sup = to_superoperator(ch)
        for _ in range(20):
            rho = matcore.random_density(rng, 2)
            assert np.abs(apply(ch, rho).matrix - apply(sup, rho).matrix).max() < 1e-12


def test_depolarizing_qubit_spectrum():
    out = apply(depolarizing(2, 0.3), pure([1, 0]))
    assert np.allclose(np.sort(out.eigenvalues), [0.15, 0.85], atol=1e-12)


def test_depolarizing_domain():
    with pytest.raises(ValueError):
        depolarizing(2, 1.2)


def test_pinching_leaves_diagonal_fixed(rng):
    p = matcore.random_probability_vector(rng, 3)
    rho = diagonal(p)
    out = apply(pinching(3), rho)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-12


def test_pinching_of_rotated_pure_state():
    theta = 0.4
    out = apply(pinching(2), rho_theta_lambda(theta, 0.0))
    expect = np.diag([math.cos(theta) ** 2, math.sin(theta) ** 2])
    assert np.abs(out.matrix - expect).max() < 1e-12


def test_pinching_idempotent_on_random_inputs(rng):
    e = pinching(3)
    for _ in range(20):
        rho = matcore.random_density(rng, 3)
        once = apply(e, rho)
        twice = apply(e, once)
        assert np.abs(once.matrix - twice.matrix).max() < 1e-12


def test_conditional_expectation_rejects_non_idempotent():
    ch = to_superoperator(depolarizing(2, 0.5))
    with pytest.raises(ValueError, match="idempotent"):
        ConditionalExpectation(ch.dim, ch.matrix)


def test_conditional_expectation_rejects_a_non_self_adjoint_projection():
    # rho -> tr(rho) |0><0| is idempotent and trace-preserving but not unital, so
    # not Hilbert-Schmidt self-adjoint, and Id - E would not be a Hermitian generator
    e00 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="conditional expectation is not self-adjoint"):
        ConditionalExpectation(2, np.outer(channels.vec(e00), channels.vec(np.eye(2)).conj()))


def test_group_lindbladian_pauli_z_fixed_point():
    lind = group_lindbladian(GroupLindbladian.from_generators([Z], [1.0]))
    assert np.abs(lind.fixed_point.superop.matrix - pinching(2).superop.matrix).max() < 1e-10


def test_group_lindbladian_rejects_identity_only():
    with pytest.raises(ValueError, match="non-identity"):
        GroupLindbladian.from_generators([np.eye(2, dtype=complex)], [1.0])


def test_group_lindbladian_pauli_group_depolarizes():
    lind = group_lindbladian(GroupLindbladian.from_generators([X, Y, Z], [1 / 3] * 3))
    assert np.abs(lind.fixed_point.superop.matrix
                  - depolarizing_projection(2).superop.matrix).max() < 1e-10


def test_semigroup_time_zero(rng):
    lind = replacement_lindbladian(depolarizing_projection(2), 2.0, 4.0)
    rho = matcore.random_density(rng, 2)
    assert np.abs(apply(lind.semigroup(0.0), rho).matrix - rho.matrix).max() < 1e-12


def test_semigroup_long_time_limit():
    lind = replacement_lindbladian(depolarizing_projection(3), 2.0, 9.0)
    out = apply(lind.semigroup(1e3), pure([1, 0, 0]))
    assert np.abs(out.matrix - np.eye(3) / 3).max() < 1e-8


def test_semigroup_composition(rng):
    lind = group_lindbladian(GroupLindbladian.from_generators([X, Z], [0.5, 0.5]))
    for _ in range(5):
        s = rng.uniform(0.0, 1.5)
        t = rng.uniform(0.0, 1.5)
        lhs = lind.semigroup(s).matrix @ lind.semigroup(t).matrix
        rhs = lind.semigroup(s + t).matrix
        assert np.abs(lhs - rhs).max() < 1e-10


def test_semigroup_rejects_negative_time():
    lind = replacement_lindbladian(depolarizing_projection(2), 2.0, 4.0)
    with pytest.raises(ValueError):
        lind.semigroup(-0.1)


def test_replacement_semigroup_time_zero():
    e = depolarizing_projection(2)
    out = replacement_semigroup(e, 0.0)
    assert np.abs(out.matrix - np.eye(4)).max() < 1e-15


def test_replacement_semigroup_matches_expm():
    e = pinching(2)
    t = 0.37
    direct = replacement_lindbladian(e, 2.0, 2.0).semigroup(t).matrix
    closed = replacement_semigroup(e, t).matrix
    assert np.abs(direct - closed).max() < 1e-14


def test_replacement_semigroup_long_time_is_projection():
    e = depolarizing_projection(3)
    out = replacement_semigroup(e, 50.0)
    assert np.abs(out.matrix - e.superop.matrix).max() < 1e-12


def test_replacement_semigroup_exact_convex_weight(rng):
    e = depolarizing_projection(2)
    t = 0.81
    zeta = 1 - math.exp(-t)
    expect = (1 - zeta) * np.eye(4) + zeta * e.superop.matrix
    assert np.abs(replacement_semigroup(e, t).matrix - expect).max() < 1e-12


@pytest.mark.parametrize("t", [1e-13, 1e-17])
def test_replacement_semigroup_small_time_weight(t):
    # entry (0, 3) is 0 in Id and 1/2 in E, so it reads the weight on E
    # alone; 1 - e^-t = t - t^2/2 to far below one ulp at these t
    out = replacement_semigroup(depolarizing_projection(2), t).matrix
    assert math.isclose(out[0, 3].real, 0.5 * (t - t * t / 2), rel_tol=1e-15)
    assert math.isclose(out[0, 0].real, math.exp(-t) + 0.5 * (t - t * t / 2),
                        rel_tol=1e-15)


def test_choi_identity_channel():
    c = channels.choi_matrix(identity_channel(2))
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0
    assert np.abs(c - np.outer(bell, bell)).max() < 1e-12
    assert abs(np.trace(c).real - 2.0) < 1e-12


def test_choi_depolarizing_family_psd_and_trace():
    for lam in (0.0, 0.4, 1.0):
        c = channels.choi_matrix(depolarizing(2, lam))
        w, _ = matcore.eigh(c)
        assert w[0] > -1e-12
        assert abs(np.trace(c).real - 2.0) < 1e-10


def test_cp_order_self_is_one():
    ch = to_superoperator(depolarizing(2, 0.3))
    assert abs(cp_order_coefficient(ch, ch) - 1.0) < 1e-9


def test_cp_order_depolarizing_projection_vs_identity():
    c = cp_order_coefficient(depolarizing_projection(2), identity_superoperator(2))
    assert abs(c - 4.0) < 1e-9


def test_cp_order_pinching_vs_identity():
    c = cp_order_coefficient(pinching(2), identity_superoperator(2))
    assert abs(c - 2.0) < 1e-9


def test_pimsner_popa_values():
    assert abs(pimsner_popa_index(depolarizing_projection(2)) - 4.0) < 1e-9
    for d in (2, 3, 4):
        assert abs(pimsner_popa_index(depolarizing_projection(d)) - d * d) < 1e-8
    ident = identity_superoperator(2)
    ident = ConditionalExpectation(ident.dim, ident.matrix)
    assert abs(pimsner_popa_index(ident) - 1.0) < 1e-9
    assert pimsner_popa_index(pinching(2)) >= 1.0 - 1e-12


def test_complement_of_unitary_is_constant(rng):
    comp = complementary_channel(identity_channel(2))
    outs = [apply(comp, matcore.random_density(rng, 2)).matrix for _ in range(5)]
    for o in outs[1:]:
        assert np.abs(o - outs[0]).max() < 1e-12


def test_complement_of_complete_depolarizing_keeps_information():
    # Kraus set {|i><j|/sqrt(d)}: the environment receives the input intact
    comp = complementary_channel(depolarizing(2, 1.0))
    omega = omega_theta_lambda(0.3, 0.0)
    env = channels.apply_to_b(comp, omega)
    i_env = entropy.mutual_information(env)
    i_in = entropy.mutual_information(omega)
    assert abs(i_env - i_in) < 1e-8


def test_complement_of_complement_preserves_information(rng):
    ch = depolarizing(2, 0.35)
    cc = complementary_channel(complementary_channel(ch))
    for theta in (0.2, 0.6):
        omega = omega_theta_lambda(theta, 0.0)
        i_direct = entropy.mutual_information(channels.apply_to_b(ch, omega))
        i_cc = entropy.mutual_information(channels.apply_to_b(cc, omega))
        assert abs(i_direct - i_cc) < 1e-8


def _id_minus(e):
    return SuperOperator(e.dim, np.eye(e.dim ** 2, dtype=complex) - e.matrix)


def _from_choi(j, d):
    """The superoperator of Choi matrix j: choi_matrix's reshuffle, inverted."""
    return SuperOperator(d, j.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d))


def test_diamond_zero_map():
    zero = SuperOperator(2, np.zeros((4, 4), dtype=complex))
    assert diamond_norm_estimate(zero) == 0.0
    assert diamond_norm_bracket(zero) == (0.0, 0.0)


def test_diamond_identity():
    assert abs(diamond_norm_estimate(identity_superoperator(2)) - 1.0) < 1e-9
    for end in diamond_norm_bracket(identity_superoperator(2)):
        assert abs(end - 1.0) < 1e-9


def test_diamond_rejects_a_map_that_does_not_preserve_hermiticity(rng):
    # rho -> i rho, and a random superoperator: neither Choi matrix is Hermitian
    for m in (1j * np.eye(4), matcore.random_complex_normal(rng, (4, 4))):
        for diamond in (diamond_norm_estimate, diamond_norm_bracket):
            with pytest.raises(ValueError, match="not Hermiticity-preserving"):
                diamond(SuperOperator(2, m))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_diamond_bracket_closed_forms(d):
    # ||Id - E||_diamond = 2 (1 - 1/d^2) for E_dep and 2 (1 - 1/d) for the pinching
    for e, want in ((depolarizing_projection(d), 2 * (1 - 1 / d ** 2)),
                    (pinching(d), 2 * (1 - 1 / d))):
        lower, upper = diamond_norm_bracket(_id_minus(e))
        assert abs(lower - want) < 1e-14 and abs(upper - want) < 1e-14


def test_diamond_bracket_closes_on_group_generators():
    clock = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    shift = np.roll(np.eye(4, dtype=complex), 1, axis=0)
    for gens in ([X, Z], [clock, shift]):
        lind = group_lindbladian(GroupLindbladian.from_generators(gens, [0.5, 0.5]))
        for delta in (lind.generator, _id_minus(lind.fixed_point)):
            lower, upper = diamond_norm_bracket(delta)
            assert abs(upper - lower) < 1e-14


@pytest.mark.parametrize("d", [2, 3])
def test_diamond_bracket_contains_every_pure_input(rng, d):
    omega = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)
    for _ in range(4):
        g = matcore.random_complex_normal(rng, (d * d, d * d))
        delta = _from_choi(g + g.conj().T, d)  # a random Hermiticity-preserving map
        lower, upper = diamond_norm_bracket(delta)
        assert lower <= upper
        out = channels.apply_on_factor(delta, np.outer(omega, omega.conj()), (d, d), 0)
        assert abs(lower - matcore.trace_norm(out)) < 1e-12
        psi = matcore.random_complex_normal(rng, (32, d * d))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        outs = channels.apply_on_factor(delta, psi[:, :, None] * psi[:, None, :].conj(), (d, d), 0)
        assert matcore.trace_norm(outs).max() <= upper + 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_diamond_bracket_upper_end_is_exact_on_cp_maps(rng, d):
    # a CP map's diamond norm is ||sum K^dag K||_inf, the top of Tr_out J; sum K K^dag,
    # the top of Tr_in J, differs
    ks = matcore.random_complex_normal(rng, (3, d, d))
    delta = SuperOperator(d, sum(np.kron(k.conj(), k) for k in ks))
    top = np.linalg.eigvalsh(sum(k.conj().T @ k for k in ks))[-1]
    assert abs(diamond_norm_bracket(delta)[1] - top) < 1e-12 * top
    assert abs(np.linalg.eigvalsh(sum(k @ k.conj().T for k in ks))[-1] - top) > 1e-3 * top


def test_worked_example_diamond_is_half_the_bracket():
    # EXAMPLE_DIAMOND = 3/4 is half of ||Id - E_dep||_diamond in the trace-norm convention
    for end in diamond_norm_bracket(_id_minus(depolarizing_projection(2))):
        assert abs(2 * bounds.EXAMPLE_DIAMOND - end) < 1e-12


def test_conditional_expectation_is_a_superoperator():
    e = pinching(2)
    assert isinstance(e, SuperOperator)
    assert e.superop is e


def test_diamond_replacement_generator():
    e = depolarizing_projection(2)
    delta = SuperOperator(2, np.eye(4, dtype=complex) - e.superop.matrix)
    est = diamond_norm_estimate(delta)
    assert abs(est - 1.5) < 1e-6
    for end in diamond_norm_bracket(delta):
        assert abs(end - 1.5) < 1e-6


def test_fixed_point_projection_depolarizing_generator():
    e = depolarizing_projection(2)
    gen = SuperOperator(2, np.eye(4, dtype=complex) - e.superop.matrix)
    got = fixed_point_projection(gen)
    assert np.abs(got.superop.matrix - e.superop.matrix).max() < 1e-10


def test_fixed_point_projection_pinching_generator():
    e = pinching(2)
    gen = SuperOperator(2, np.eye(4, dtype=complex) - e.superop.matrix)
    got = fixed_point_projection(gen)
    assert np.abs(got.superop.matrix - e.superop.matrix).max() < 1e-10


def test_fixed_point_projection_pauli_xz_group():
    lind = group_lindbladian(GroupLindbladian.from_generators([X, Z], [0.5, 0.5]))
    # long-time limit oracle: semigroup at t = 1e3 acts as the projection
    long_time = lind.semigroup(1e3).matrix
    assert np.abs(long_time - lind.fixed_point.superop.matrix).max() < 1e-8
    assert np.abs(lind.fixed_point.superop.matrix
                  - depolarizing_projection(2).superop.matrix).max() < 1e-10


def test_fixed_point_projection_rejects_non_hermitian_generator():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        fixed_point_projection(SuperOperator(2, m))


def test_channel_outputs_valid_densities(rng):
    for _ in range(100):
        d = 2 + rng.integer(3)
        rho = matcore.random_density(rng, d)
        lam = rng.uniform()
        out = apply(depolarizing(d, lam), rho)
        assert out.eigenvalues[0] >= 0
        assert abs(np.trace(out.matrix).real - 1) < 1e-9


def test_data_processing_all_constructors(rng):
    for _ in range(100):
        rho = matcore.random_density(rng, 2, mix=0.02)
        sigma = matcore.random_density(rng, 2, mix=0.02)
        d_pre = entropy.relative_entropy(rho, sigma).unwrap()
        for ch in (depolarizing(2, rng.uniform()), dephasing_y(rng.uniform())):
            d_post = entropy.relative_entropy(apply(ch, rho), apply(ch, sigma)).unwrap()
            assert d_post <= d_pre + 1e-10


def test_extension_preserves_channel_structure(rng):
    # (Phi tensor Id) acts as Phi on the left factor of product states
    sup = to_superoperator(depolarizing(2, 0.4))
    ext = sup.tensor_identity(3)
    ra = matcore.random_density(rng, 2)
    rb = matcore.random_density(rng, 3)
    joint = matcore.tensor(ra.matrix, rb.matrix)
    out = ext.apply_matrix(joint)
    expect = matcore.tensor(sup.apply_matrix(ra.matrix), rb.matrix)
    assert np.abs(out - expect).max() < 1e-12


def test_apply_on_factor_matches_extended_maps(rng):
    maps = (to_superoperator(depolarizing(2, 0.4)), pinching(2),
            complementary_channel(depolarizing(2, 0.3)))  # last one is 2 -> 5
    units = np.eye(3)
    for m in maps:
        joint = matcore.random_density(rng, 6).matrix
        left = channels.apply_on_factor(m, joint, (2, 3), 0)
        right = channels.apply_on_factor(m, joint, (3, 2), 1)
        if not isinstance(m, KrausChannel):
            sup = m if isinstance(m, SuperOperator) else m.superop
            assert np.abs(left - sup.tensor_identity(3).apply_matrix(joint)).max() < 1e-14
        # the extended maps by linearity over the blocks of the untouched factor
        blocks_l = joint.reshape(2, 3, 2, 3)
        expect_l = sum(np.kron(m.apply_matrix(blocks_l[:, a, :, b]), np.outer(units[a], units[b]))
                       for a in range(3) for b in range(3))
        blocks_r = joint.reshape(3, 2, 3, 2)
        expect_r = sum(np.kron(np.outer(units[a], units[b]), m.apply_matrix(blocks_r[a, :, b, :]))
                       for a in range(3) for b in range(3))
        assert left.shape == expect_l.shape and right.shape == expect_r.shape
        assert np.abs(left - expect_l).max() < 1e-14
        assert np.abs(right - expect_r).max() < 1e-14


def test_apply_on_factor_rejects_dimension_mismatch():
    sup = to_superoperator(depolarizing(2, 0.4))
    with pytest.raises(ValueError, match="dim"):
        channels.apply_on_factor(sup, np.eye(6), (3, 2), 0)
    with pytest.raises(ValueError, match="dim"):
        channels.apply_on_factor(depolarizing(3, 0.1), np.eye(6), (3, 2), 1)


def test_kraus_completeness_validation():
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel.from_kraus([0.5 * np.eye(2, dtype=complex)])


def test_lindbladian_generator_annihilates_trace(rng):
    for lind in (
        replacement_lindbladian(depolarizing_projection(2), 2.0, 4.0),
        group_lindbladian(GroupLindbladian.from_generators([X, Z], [0.5, 0.5])),
    ):
        for _ in range(20):
            x = matcore.random_hermitian(rng, 2)
            out = lind.generator.apply_matrix(x)
            assert abs(np.trace(out)) < 1e-10


def test_lindbladian_fixed_point_absorbs_semigroup(rng):
    lind = group_lindbladian(GroupLindbladian.from_generators([X, Z], [0.5, 0.5]))
    e = lind.fixed_point.superop.matrix
    for t in (0.1, 1.0, 5.0):
        comp = e @ lind.semigroup(t).matrix
        assert np.abs(comp - e).max() < 1e-8


def _generator_families():
    """The Lindbladians the lab builds: the groups {X, Z}, {X, Y, Z} at (0.2, 0.3, 0.5)
    and the d = 4 clock and shift, and Id - E for E_dep at d = 2, 3 and the d = 3 pinching."""
    clock = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    shift = np.roll(np.eye(4, dtype=complex), 1, axis=0)
    groups = (([X, Z], [0.5, 0.5]), ([X, Y, Z], [0.2, 0.3, 0.5]), ([clock, shift], [0.5, 0.5]))
    return ([group_lindbladian(GroupLindbladian.from_generators(*g)) for g in groups]
            + [replacement_lindbladian(e, 2.0, c) for e, c in (
                (depolarizing_projection(2), 4.0), (depolarizing_projection(3), 9.0),
                (pinching(3), 3.0))])


def test_expm_taylor_matches_scipy_expm():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    for lind in _generator_families():
        for t in (1e-6, 0.3, 1.7, 10.0):
            want = scipy_linalg.expm(-t * lind.generator.matrix)
            got = lind.semigroup(t).matrix
            assert np.abs(got - want).max() <= 1e-14 * max(1.0, float(np.abs(want).max()))


def test_semigroup_at_long_times_is_the_fixed_point():
    # the kernel keeps weight 1 and every other mode e^(-t w) underflows to 0
    for lind in _generator_families():
        for t in (1e3, 1e10, 1e15, 1e300):
            assert np.abs(lind.semigroup(t).matrix - lind.fixed_point.matrix).max() <= 1e-14


def test_superoperator_checks_the_input_dimension():
    e = depolarizing_projection(2)
    for call in (lambda: e.superop.apply_matrix(np.eye(3) / 3),
                 lambda: apply(e, DensityMatrix.maximally_mixed(3)),
                 lambda: bounds.classical_converse_check(
                     e, DensityMatrix.maximally_mixed(3), DensityMatrix.maximally_mixed(3),
                     (0.1,), 4.0, 0.02)):
        with pytest.raises(ValueError, match="expects dim 2"):
            call()


def test_kraus_channel_checks_the_input_shape():
    dep = depolarizing(2, 0.1)
    for m in (np.eye(3) / 3, np.zeros((2, 2, 2, 2))):
        with pytest.raises(ValueError, match=r"channel expects dim 2, got shape \("):
            dep.apply_matrix(m)
    with pytest.raises(ValueError, match="channel expects dim 2"):
        apply(dep, DensityMatrix.maximally_mixed(3))


@pytest.mark.parametrize("d", [2, 4])
def test_maps_on_a_stack_match_each_matrix_bit_for_bit(rng, d):
    dep = depolarizing(d, 0.3)
    maps = (dep, complementary_channel(dep),  # the complement maps d to d^2 + 1
            to_superoperator(dep), pinching(d))
    mats = np.stack([matcore.random_density(rng, d).matrix for _ in range(5)])
    joints = np.stack([matcore.random_density(rng, 3 * d).matrix for _ in range(5)])

    def bits(x):
        return np.ascontiguousarray(x).view(np.uint64)

    for m in maps:
        got = m.apply_matrix(mats)
        assert np.array_equal(bits(got), bits(np.stack([m.apply_matrix(x) for x in mats])))
        for dims, which in (((d, 3), 0), ((3, d), 1)):
            got = channels.apply_on_factor(m, joints, dims, which)
            want = np.stack([channels.apply_on_factor(m, x, dims, which) for x in joints])
            assert got.shape == want.shape
            assert np.array_equal(bits(got), bits(want))


def _cp_order_oracle(phi, psi) -> float:
    """cp_order_coefficient as it was before it called
    matcore.loewner_min_coefficient: its own support, leak test and whitening."""
    a = matcore.as_hermitian(channels.choi_matrix(phi), atol=1e-8)
    b = matcore.as_hermitian(channels.choi_matrix(psi), atol=1e-8)
    wa, va = matcore.eigh(a)
    top = max(float(wa[-1]), np.finfo(float).tiny)
    mask = wa > matcore.SUPPORT_RTOL * top
    outside = va[:, ~mask]
    if outside.size:
        leak = float(np.abs(outside.conj().T @ b @ outside).max())
        if leak > 1e-10 * max(1.0, float(np.abs(b).max())):
            return float("inf")
    vs = va[:, mask]
    ws = wa[mask]
    comp = vs.conj().T @ b @ vs
    scale = 1.0 / np.sqrt(ws)
    whitened = scale[:, None] * comp * scale[None, :]
    w, _ = matcore.eigh(matcore.as_hermitian(whitened, atol=1e-7))
    return float(w[-1])


def test_cp_order_bit_equal_to_its_own_solver():
    clock = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    shift = np.roll(np.eye(4, dtype=complex), 1, axis=0)
    groups = ([Z], [X, Z], [X, Y, Z], [clock, shift])
    pairs = [(e, f) for d in (2, 3, 4)
             for e, f in ((depolarizing_projection(d), identity_superoperator(d)),
                          (pinching(d), identity_superoperator(d)),
                          (depolarizing_projection(d), pinching(d)),
                          (pinching(d), depolarizing_projection(d)),
                          (pinching(d), pinching(d)))]
    for gens in groups:
        e = group_lindbladian(GroupLindbladian.from_generators(gens, [1 / len(gens)] * len(gens)))
        pairs.append((e.fixed_point, identity_superoperator(e.dim)))
    pairs.append((identity_superoperator(2), depolarizing_projection(2)))
    values = [cp_order_coefficient(e, f) for e, f in pairs]
    assert [v.hex() for v in values] == [_cp_order_oracle(e, f).hex() for e, f in pairs]
    # the pinching's Choi matrix leaves out most of the others' support
    assert [i for i, v in enumerate(values) if v == math.inf] == [3, 8, 13, len(pairs) - 1]


def test_diamond_bracket_makes_two_eigensolves_and_no_factor_apply(monkeypatch):
    delta = _id_minus(depolarizing_projection(3))
    raw_apply, raw_eig = channels.apply_on_factor, matcore.jacobi_eigh_batch
    calls = {"apply": 0, "eig": []}

    def apply(channel, m, dims, which):
        calls["apply"] += 1
        return raw_apply(channel, m, dims, which)

    def eig(stack):
        calls["eig"].append(stack.shape)
        return raw_eig(stack)

    monkeypatch.setattr(channels, "apply_on_factor", apply)
    monkeypatch.setattr(matcore, "jacobi_eigh_batch", eig)
    for end in diamond_norm_bracket(delta):
        assert abs(end - 16 / 9) < 1e-14
    # the d^2 x d^2 Choi matrix, then the d x d reduced |J|
    assert calls == {"apply": 0, "eig": [(1, 9, 9), (1, 3, 3)]}


def test_operator_lists_are_read_only_arrays():
    assert depolarizing(3, 0.3).kraus.shape == (10, 3, 3)
    comp = complementary_channel(depolarizing(2, 0.3))
    assert comp.kraus.shape == (2, 5, 2)
    group = GroupLindbladian.from_generators([X, Y, Z], [0.2, 0.3, 0.5])
    assert group.unitaries.shape == (3, 2, 2)
    for ops in (depolarizing(3, 0.3).kraus, comp.kraus, group.unitaries):
        assert isinstance(ops, np.ndarray) and ops.dtype == complex
        assert not ops.flags.writeable
        with pytest.raises(ValueError):
            ops[0, 0, 0] = 1.0
    source = [X.copy(), Z.copy()]
    group = GroupLindbladian.from_generators(source, [0.5, 0.5])
    source[0][0, 1] = 5.0  # the stored array is a copy
    assert group.unitaries[0, 0, 1] == 1.0


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_depolarizing_matches_a_loop_oracle_bit_for_bit(d, lam):
    ops = [math.sqrt(1.0 - lam) * np.eye(d, dtype=complex)] if lam < 1.0 else []
    for i in range(d):
        for j in range(d):
            if lam > 0.0:
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = math.sqrt(lam / d)
                ops.append(e)
    got = depolarizing(d, lam).kraus
    assert got.shape == (len(ops), d, d)
    assert got.tobytes() == np.array(ops).tobytes()


def test_complement_of_the_complement_returns_the_operators_bit_for_bit():
    from qdecay.experiments import flagged_channel
    for ch in (depolarizing(3, 0.3), dephasing_y(0.4),
               flagged_channel(0.2, 0.3, "dephasing-y"),
               flagged_channel(0.2, 0.3, "depolarizing"), identity_channel(2)):
        again = complementary_channel(complementary_channel(ch))
        assert (again.dim_in, again.dim_out) == (ch.dim_in, ch.dim_out)
        assert again.kraus.shape == ch.kraus.shape
        assert again.kraus.tobytes() == ch.kraus.tobytes()


def test_operator_list_shape_checks_keep_their_messages():
    with pytest.raises(ValueError, match="need at least one Kraus operator"):
        KrausChannel.from_kraus([])
    with pytest.raises(ValueError, match="inconsistent shapes"):
        KrausChannel.from_kraus([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError, match="need matching nonempty"):
        GroupLindbladian.from_generators([X, Z], [1.0])
    with pytest.raises(ValueError, match="inconsistent dimensions"):
        GroupLindbladian.from_generators([X, np.eye(3)], [0.5, 0.5])
    with pytest.raises(ValueError, match="inconsistent dimensions"):
        GroupLindbladian.from_generators([np.ones((2, 3))], [1.0])
    with pytest.raises(ValueError, match="not unitary"):
        GroupLindbladian.from_generators([X, 2 * Z], [0.5, 0.5])


def test_array_holding_dataclasses_compare_by_identity():
    # field-wise __eq__ on array fields raised "truth value ... is ambiguous"
    # on ==, on `in` and (for the unhashable ones) on hash
    e = depolarizing_projection(2)
    builds = (lambda: DensityMatrix.maximally_mixed(2),
              lambda: depolarizing(2, 0.1),
              lambda: SuperOperator(2, np.eye(4, dtype=complex)),
              depolarizing_projection,
              lambda: replacement_lindbladian(e, 2.0, 4.0),
              lambda: GroupLindbladian.from_generators([X, Z], [0.5, 0.5]))
    for build in builds:
        obj, twin = (build(2) if build is depolarizing_projection else build() for _ in "ab")
        assert obj == obj and obj != twin
        assert obj in [twin, obj] and twin not in [obj]
        assert hash(obj) == hash(obj) and len({obj, twin, obj}) == 2
    a, b = (BipartiteDensity(2, 2, DensityMatrix.from_matrix(np.eye(4, dtype=complex) / 4))
            for _ in "ab")
    assert a == BipartiteDensity(2, 2, a.state) and a != b
    assert hash(a) == hash(BipartiteDensity(2, 2, a.state))


def _flagged_depolarizing(lam, p):
    return flagged_channel(lam, p, "depolarizing")


# constructor and each member's parameters, edge members included: lam = 0 and
# 1 keep zero-weight operators in the family, p = 1 its zero complement blocks
FAMILIES = {
    "depolarizing-2": (lambda lam: depolarizing(2, lam), [(0.0,), (0.3,), (1.0,), (1e-17,)]),
    "depolarizing-3": (lambda lam: depolarizing(3, lam), [(0.7,), (1.0,), (0.0,)]),
    "depolarizing-4": (lambda lam: depolarizing(4, lam), [(1.0,), (0.25,), (0.0,)]),
    "depolarizing-one": (lambda lam: depolarizing(3, lam), [(0.5,)]),
    "dephasing_y": (dephasing_y, [(0.0,), (0.4,), (1.0,), (1e-17,)]),
    "dephasing_y-one": (dephasing_y, [(1.0,)]),
    "flagged-dephasing": (lambda lam, p: flagged_channel(lam, p, "dephasing-y"),
                          [(0.0, 0.3), (0.2, 1.0), (0.9, 0.6), (1e-17, 1.0), (0.0, 1.0)]),
    "flagged-depolarizing": (_flagged_depolarizing,
                             [(1e-17, 1.0), (0.2, 0.3), (0.9, 0.05), (0.0, 0.5), (0.0, 1.0)]),
    "flagged-depolarizing-one": (_flagged_depolarizing, [(0.4, 0.7)]),
}


def _reached(kraus):
    """The output rows that some operator of an (m, d_out, d_in) set reaches."""
    return np.flatnonzero(kraus.any(axis=(0, 2)))


@pytest.mark.parametrize("case", sorted(FAMILIES))
def test_family_images_match_member_images_bit_for_bit(rng, case):
    build, params = FAMILIES[case]
    members = [build(*xs) for xs in params]
    family = build(*map(np.array, zip(*params)))
    n = len(members)
    assert family.kraus.ndim == 4 and len(family.kraus) == n
    assert len(family.kraus[0]) == max(len(ch.kraus) for ch in members)
    mats = np.stack([matcore.random_density(rng, family.dim_in).matrix for _ in range(n)])

    def bits(x):
        return np.ascontiguousarray(x).view(np.uint64)

    padded = 0
    for fam, chs in ((family, members),
                     (complementary_channel(family), list(map(complementary_channel, members)))):
        got = fam.apply_matrix(mats)
        for i, (ch, m) in enumerate(zip(chs, mats)):
            want = ch.apply_matrix(m)
            if want.shape == got[i].shape:
                assert np.array_equal(bits(got[i]), bits(want))
                continue
            # a flagged depolarizing member at lam = 0, or a complement of a member
            # with zero-weight operators: the family keeps all-zero rows the member
            # has not; the rows each reaches carry the same bits, the others zero
            padded += 1
            a, b = _reached(fam.kraus[i]), _reached(ch.kraus)
            assert np.array_equal(bits(got[i][np.ix_(a, a)]), bits(want[np.ix_(b, b)]))
            rest = got[i].copy()
            rest[np.ix_(a, a)] = 0
            assert not rest.any() and np.abs(want).sum() == np.abs(want[np.ix_(b, b)]).sum()
    # the edge members are the padded ones
    assert padded == {"depolarizing-2": 2, "depolarizing-3": 2, "depolarizing-4": 2,
                      "dephasing_y": 1, "flagged-dephasing": 3,
                      "flagged-depolarizing": 4}.get(case, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: depolarizing(2, np.array([0.2, math.nan, 0.5])),
     r"^stack member 1: depolarizing strength nan outside \[0, 1\]$"),
    (lambda: depolarizing(3, np.array([0.2, 0.5, 1.5])),
     r"^stack member 2: depolarizing strength 1.5 outside \[0, 1\]$"),
    (lambda: depolarizing(2, np.array([math.nan])), r"^depolarizing strength nan outside"),
    (lambda: dephasing_y(np.array([-0.1, 0.3])),
     r"^stack member 0: dephasing strength -0.1 outside \[0, 1\]$"),
    (lambda: dephasing_y(np.array([0.1, math.nan])), r"^stack member 1: dephasing strength nan"),
    (lambda: flagged_channel(np.array([0.1, 0.2]), np.array([0.5, 0.0]), "dephasing-y"),
     r"^stack member 1: flag probability must lie in \(0, 1\]$"),
    (lambda: _flagged_depolarizing(np.array([0.1, 0.2]), np.array([math.nan, 0.5])),
     r"^stack member 0: flag probability must lie in \(0, 1\]$"),
    (lambda: flagged_channel(np.array([0.1, 1.0]), np.array([0.5, 0.5]), "dephasing-y"),
     r"^stack member 1: noise strength must lie in \[0, 1\)$"),
    (lambda: _flagged_depolarizing(np.array([math.nan, 0.1]), np.array([0.5, 0.5])),
     r"^stack member 0: noise strength must lie in \[0, 1\)$"),
    (lambda: depolarizing(2, np.full((2, 2), 0.5)), "expected a number or a 1-D array"),
])
def test_family_range_checks_name_the_member(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("case", ["apply", "to_superoperator", "apply_on_factor", "choi_matrix"])
def test_single_channel_operations_refuse_a_family(case):
    family = depolarizing(2, np.array([0.1, 0.5, 0.9]))
    call = {"apply": lambda: apply(family, DensityMatrix.maximally_mixed(2)),
            "to_superoperator": lambda: to_superoperator(family),
            "apply_on_factor": lambda: channels.apply_on_factor(family, np.eye(4) / 4, (2, 2), 0),
            "choi_matrix": lambda: channels.choi_matrix(family)}[case]
    with pytest.raises(ValueError, match="a family of 3 channels is not one map"):
        call()


def test_family_apply_pairs_members_with_matrices():
    family = dephasing_y(np.array([0.1, 0.5, 0.9]))
    for m in (np.eye(2) / 2, np.zeros((2, 2, 2)), np.zeros((4, 2, 2))):
        with pytest.raises(ValueError, match=r"channel expects dim 2 and 3 matrices, got shape"):
            family.apply_matrix(m)
    ops = np.array(family.kraus)
    ops[1, 0] *= 1.01  # member 1 alone is not trace-preserving
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel.from_kraus(ops)
    assert KrausChannel.from_kraus(np.array(family.kraus)).kraus.shape == (3, 2, 2, 2)

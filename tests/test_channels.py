import math

import numpy as np
import pytest

from qdecay import channels, entropy, matcore
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
    diamond_norm_estimate,
    expm_taylor,
    fixed_point_projection,
    group_lindbladian,
    identity_channel,
    identity_superoperator,
    pimsner_popa_index,
    pinching,
    replacement_lindbladian,
    replacement_semigroup,
    semigroup_apply,
)
from qdecay.matcore import BipartiteDensity, DensityMatrix
from qdecay.experiments import omega_theta_lambda, rho_theta_lambda

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_apply_identity(rng):
    rho = matcore.random_density(rng, 3)
    out = identity_channel(3).apply(rho)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-12


def test_apply_full_depolarizing():
    out = depolarizing(3, 1.0).apply(DensityMatrix.pure([1, 0, 0]))
    assert np.abs(out.matrix - np.eye(3) / 3).max() < 1e-12


def test_kraus_and_superoperator_paths_agree(rng):
    for lam in (0.0, 0.3, 0.9):
        ch = depolarizing(2, lam)
        sup = ch.to_superoperator()
        for _ in range(20):
            rho = matcore.random_density(rng, 2)
            assert np.abs(ch.apply(rho).matrix - sup.apply(rho).matrix).max() < 1e-12


def test_depolarizing_qubit_spectrum():
    out = depolarizing(2, 0.3).apply(DensityMatrix.pure([1, 0]))
    assert np.allclose(np.sort(out.eigenvalues), [0.15, 0.85], atol=1e-12)


def test_depolarizing_domain():
    with pytest.raises(ValueError):
        depolarizing(2, 1.2)


def test_pinching_leaves_diagonal_fixed(rng):
    p = matcore.random_probability_vector(rng, 3)
    rho = DensityMatrix.diagonal(p)
    out = pinching(3).apply(rho)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-12


def test_pinching_of_rotated_pure_state():
    theta = 0.4
    out = pinching(2).apply(rho_theta_lambda(theta, 0.0))
    expect = np.diag([math.cos(theta) ** 2, math.sin(theta) ** 2])
    assert np.abs(out.matrix - expect).max() < 1e-12


def test_pinching_idempotent_on_random_inputs(rng):
    e = pinching(3)
    for _ in range(20):
        rho = matcore.random_density(rng, 3)
        once = e.apply(rho)
        twice = e.apply(once)
        assert np.abs(once.matrix - twice.matrix).max() < 1e-12


def test_pinching_rejects_non_unitary_basis():
    with pytest.raises(ValueError, match="unitary"):
        pinching(np.array([[1, 1], [0, 1]], dtype=complex))


def test_conditional_expectation_rejects_non_idempotent():
    ch = depolarizing(2, 0.5).to_superoperator()
    with pytest.raises(ValueError, match="idempotent"):
        ConditionalExpectation(ch)


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
    lind = replacement_lindbladian(depolarizing_projection(2))
    rho = matcore.random_density(rng, 2)
    assert np.abs(semigroup_apply(lind, 0.0, rho).matrix - rho.matrix).max() < 1e-12


def test_semigroup_long_time_limit():
    lind = replacement_lindbladian(depolarizing_projection(3))
    out = semigroup_apply(lind, 1e3, DensityMatrix.pure([1, 0, 0]))
    assert np.abs(out.matrix - np.eye(3) / 3).max() < 1e-8


def test_semigroup_composition(rng):
    lind = group_lindbladian(GroupLindbladian.from_generators([X, Z], [0.5, 0.5]))
    for _ in range(5):
        s = rng.uniform(0.0, 1.5)
        t = rng.uniform(0.0, 1.5)
        lhs = lind.semigroup(s).compose(lind.semigroup(t)).matrix
        rhs = lind.semigroup(s + t).matrix
        assert np.abs(lhs - rhs).max() < 1e-10


def test_semigroup_rejects_negative_time():
    lind = replacement_lindbladian(depolarizing_projection(2))
    with pytest.raises(ValueError):
        lind.semigroup(-0.1)


def test_replacement_semigroup_time_zero():
    e = depolarizing_projection(2)
    out = replacement_semigroup(e, 0.0)
    assert np.abs(out.matrix - np.eye(4)).max() < 1e-15


def test_replacement_semigroup_matches_expm():
    e = pinching(2)
    t = 0.37
    gen = np.eye(4, dtype=complex) - e.superop.matrix
    direct = expm_taylor(-t * gen)
    closed = replacement_semigroup(e, t).matrix
    assert np.abs(direct - closed).max() < 1e-10


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
    ch = depolarizing(2, 0.3).to_superoperator()
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
    ident = ConditionalExpectation(identity_superoperator(2))
    assert abs(pimsner_popa_index(ident) - 1.0) < 1e-9
    assert pimsner_popa_index(pinching(2)) >= 1.0 - 1e-12


def test_complement_of_unitary_is_constant(rng):
    comp = complementary_channel(identity_channel(2))
    outs = [comp.apply(matcore.random_density(rng, 2)).matrix for _ in range(5)]
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


def test_diamond_zero_map():
    zero = SuperOperator(2, np.zeros((4, 4), dtype=complex))
    assert diamond_norm_estimate(zero) == 0.0


def test_diamond_identity():
    assert abs(diamond_norm_estimate(identity_superoperator(2), restarts=3) - 1.0) < 1e-9


def test_diamond_replacement_generator():
    e = depolarizing_projection(2)
    delta = SuperOperator(2, np.eye(4, dtype=complex) - e.superop.matrix)
    est = diamond_norm_estimate(delta, restarts=6)
    assert abs(est - 1.5) < 1e-6


def test_diamond_monotone_in_restarts():
    e = depolarizing_projection(2)
    delta = SuperOperator(2, np.eye(4, dtype=complex) - e.superop.matrix)
    vals = [diamond_norm_estimate(delta, restarts=r) for r in (1, 3, 6)]
    assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


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
        out = depolarizing(d, lam).apply(rho)
        assert out.eigenvalues[0] >= 0
        assert abs(np.trace(out.matrix).real - 1) < 1e-9


def test_data_processing_all_constructors(rng):
    for _ in range(100):
        rho = matcore.random_density(rng, 2, mix=0.02)
        sigma = matcore.random_density(rng, 2, mix=0.02)
        d_pre = entropy.relative_entropy(rho, sigma).unwrap()
        for ch in (depolarizing(2, rng.uniform()), dephasing_y(rng.uniform())):
            d_post = entropy.relative_entropy(ch.apply(rho), ch.apply(sigma)).unwrap()
            assert d_post <= d_pre + 1e-10


def test_extension_preserves_channel_structure(rng):
    # (Phi tensor Id) acts as Phi on the left factor of product states
    sup = depolarizing(2, 0.4).to_superoperator()
    ext = sup.tensor_identity(3)
    ra = matcore.random_density(rng, 2)
    rb = matcore.random_density(rng, 3)
    joint = matcore.tensor(ra.matrix, rb.matrix)
    out = ext.apply_matrix(joint)
    expect = matcore.tensor(sup.apply_matrix(ra.matrix), rb.matrix)
    assert np.abs(out - expect).max() < 1e-12


def test_apply_on_factor_matches_extended_maps(rng):
    maps = (depolarizing(2, 0.4).to_superoperator(), pinching(2),
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
    sup = depolarizing(2, 0.4).to_superoperator()
    with pytest.raises(ValueError, match="dim"):
        channels.apply_on_factor(sup, np.eye(6), (3, 2), 0)
    with pytest.raises(ValueError, match="dim"):
        channels.apply_on_factor(depolarizing(3, 0.1), np.eye(6), (3, 2), 1)


def test_kraus_completeness_validation():
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel.from_kraus([0.5 * np.eye(2, dtype=complex)])


def test_lindbladian_generator_annihilates_trace(rng):
    for lind in (
        replacement_lindbladian(depolarizing_projection(2)),
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

import json
import math

import numpy as np
import pytest

from qdecay import channels, entropy, matcore
from qdecay import experiments as exp
from qdecay.matcore import DensityMatrix

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_rho_theta_lambda_corners():
    assert np.abs(exp.rho_theta_lambda(0.0, 0.0).matrix
                  - DensityMatrix.pure([1, 0]).matrix).max() < 1e-15
    assert np.abs(exp.rho_theta_lambda(0.3, 1.0, 3).matrix - np.eye(3) / 3).max() < 1e-15
    plus = DensityMatrix.pure([1, 1]).matrix
    assert np.abs(exp.rho_theta_lambda(math.pi / 4, 0.0).matrix - plus).max() < 1e-12


def test_rho_theta_lambda_embedding():
    rho = exp.rho_theta_lambda(0.2, 0.3, 4)
    assert rho.dim == 4
    assert abs(rho.matrix[2, 2].real - 0.3 / 4) < 1e-15
    assert abs(rho.matrix[3, 2]) < 1e-15


def test_rho_theta_lambda_domain():
    with pytest.raises(ValueError):
        exp.rho_theta_lambda(0.1, 1.5)
    with pytest.raises(ValueError):
        exp.rho_theta_lambda(0.1, 0.5, d=1)


def test_omega_theta_zero_is_product():
    omega = exp.omega_theta_lambda(0.0, 0.2)
    assert entropy.mutual_information(omega) < 1e-12


def test_omega_b_marginal_is_pinched():
    omega = exp.omega_theta_lambda(0.4, 0.25)
    rho = exp.rho_theta_lambda(0.4, 0.25)
    expect = np.diag(np.diagonal(rho.matrix))
    assert np.abs(omega.marginal("B").matrix - expect).max() < 1e-12


def test_omega_mutual_info_identity_grid():
    for theta in (0.05, 0.2, 0.7):
        for lam in (0.1, 0.5, 0.95):
            omega = exp.omega_theta_lambda(theta, lam)
            rho = exp.rho_theta_lambda(theta, lam)
            pinched = DensityMatrix.from_matrix(np.diag(np.diagonal(rho.matrix)))
            d = entropy.relative_entropy(rho, pinched).unwrap()
            assert abs(entropy.mutual_information(omega) - d) < 1e-10


def test_sudden_decay_no_noise_has_unit_ratio():
    cfg = exp.SuddenDecayConfig((1e-2, 1e-3, 1e-4), lam=0.0)
    sweep = exp.sudden_decay_sweep(cfg)
    assert all(abs(r - 1.0) < 1e-12 for r in sweep.column("ratio"))


def test_sudden_decay_ratio_prediction():
    cfg = exp.SuddenDecayConfig.logspace(1e-3, 1e-6, 4, lam=0.1)
    sweep = exp.sudden_decay_sweep(cfg)
    ratios = sweep.column("ratio")
    assert 0.41 <= ratios[-1] / ratios[0] <= 0.62


def test_sudden_decay_log_product_bounded():
    cfg = exp.SuddenDecayConfig.logspace(1e-3, 1e-6, 4, lam=0.1)
    sweep = exp.sudden_decay_sweep(cfg)
    vals = sweep.column("ratio_times_log_inv_theta")
    assert (max(vals) - min(vals)) / min(vals) < 0.25


def test_sudden_decay_dephasing_variant_matches_depolarizing():
    # within the rotated-pure family, Y-basis dephasing acts exactly as
    # depolarizing, so the sweeps coincide
    for noise in ("depolarizing", "dephasing-y"):
        cfg = exp.SuddenDecayConfig.logspace(1e-3, 1e-5, 3, lam=0.2, noise=noise)
        sweep = exp.sudden_decay_sweep(cfg)
        vals = sweep.column("ratio_times_log_inv_theta")
        assert (max(vals) - min(vals)) / min(vals) < 0.25
    a = exp.sudden_decay_sweep(exp.SuddenDecayConfig((1e-3,), lam=0.2,
                                                     noise="depolarizing"))
    b = exp.sudden_decay_sweep(exp.SuddenDecayConfig((1e-3,), lam=0.2,
                                                     noise="dephasing-y"))
    assert abs(a.rows[0][2] - b.rows[0][2]) < 1e-12


def test_sudden_decay_warns_below_precision_floor():
    cfg = exp.SuddenDecayConfig((1e-2, 1e-8), lam=0.1)
    sweep = exp.sudden_decay_sweep(cfg)
    assert sweep.warnings


def test_sudden_decay_config_validation():
    with pytest.raises(ValueError, match="decreasing"):
        exp.SuddenDecayConfig((1e-4, 1e-3), lam=0.1)
    with pytest.raises(ValueError, match="pi/4"):
        exp.SuddenDecayConfig((1.0,), lam=0.1)


def test_expansion_consistency_at_spec_point():
    rep = exp.expansion_consistency_check(1e-4, 0.1, 2)
    assert rep["relative_deviation"] < 1e-2


def test_expansion_consistency_improves_with_theta():
    d5 = exp.expansion_consistency_check(1e-5, 0.1, 2)["relative_deviation"]
    d3 = exp.expansion_consistency_check(1e-3, 0.1, 2)["relative_deviation"]
    assert d5 < d3
    # both sit well inside the theta ln(1/theta) correction envelope
    for theta, dev in ((1e-3, d3), (1e-5, d5)):
        assert dev < theta * math.log(1 / theta)


def test_expansion_coefficient_vanishes_at_full_noise():
    assert exp.expansion_quadratic_coefficient(1.0, 2) == 0.0
    rho = exp.rho_theta_lambda(1e-4, 1.0)
    pinched = DensityMatrix.from_matrix(np.diag(np.diagonal(rho.matrix)))
    assert entropy.relative_entropy(rho, pinched).unwrap() < 1e-12


def test_group_fragility_pauli_z_ratio_growth():
    g = channels.GroupLindbladian.from_generators([Z], [1.0])
    sweep = exp.group_fragility_demo(g, 0.01, [1e-2, 1e-6])
    ratios = sweep.column("ratio_pre_over_post")
    assert ratios[1] > 2.0 * ratios[0]


def test_group_fragility_monotone_in_theta():
    g = channels.GroupLindbladian.from_generators([X, Z], [0.5, 0.5])
    sweep = exp.group_fragility_demo(g, 0.05, [1e-2, 1e-3, 1e-4, 1e-5])
    ratios = sweep.column("ratio_pre_over_post")
    assert all(b >= a * 0.95 for a, b in zip(ratios, ratios[1:]))


def test_group_fragility_pauli_group_reduces_to_basic_example():
    g = channels.GroupLindbladian.from_generators([X, Y, Z], [1 / 3] * 3)
    t = 0.05
    sweep = exp.group_fragility_demo(g, t, [1e-2, 1e-3])
    lam_t = 1 - math.exp(-4 * t / 3)
    for theta, i_pre, i_post, _ in sweep.rows:
        phi = theta / 2  # the phase family at theta matches the rotated
        # family at theta/2 up to a unitary the noise commutes with
        pre = exp.rho_theta_lambda(phi, 0.0)
        post = exp.rho_theta_lambda(phi, lam_t)
        d_pre = entropy.relative_entropy(
            pre, DensityMatrix.from_matrix(np.diag(np.diagonal(pre.matrix)))).unwrap()
        d_post = entropy.relative_entropy(
            post, DensityMatrix.from_matrix(np.diag(np.diagonal(post.matrix)))).unwrap()
        assert abs(i_pre - d_pre) < 1e-10
        assert abs(i_post - d_post) < 1e-10


def test_group_fragility_time_zero_unit_ratios():
    g = channels.GroupLindbladian.from_generators([Z], [1.0])
    sweep = exp.group_fragility_demo(g, 0.0, [1e-2, 1e-4])
    assert all(abs(r - 1.0) < 1e-6 for r in sweep.column("ratio_pre_over_post"))


def test_flagged_channel_trace_preserving(rng):
    ch = exp.flagged_channel(0.3, 0.4, noise="depolarizing")
    for _ in range(20):
        rho = matcore.random_density(rng, 2)
        out = ch.apply(rho)
        assert abs(np.trace(out.matrix).real - 1) < 1e-10


def test_flagged_channel_full_keep_is_identity_with_flag(rng):
    ch = exp.flagged_channel(0.3, 1.0)
    rho = matcore.random_density(rng, 2)
    out = ch.apply(rho)
    branch = ch.dim_out // 2
    top = out.matrix[:branch, :branch]
    assert np.abs(top[:2, :2] - rho.matrix).max() < 1e-12
    assert abs(np.trace(out.matrix[branch:, branch:]).real) < 1e-12


def test_flagged_channel_no_noise_branch_is_input_independent(rng):
    # lam = 0: the complement of the identity is a constant map, so the
    # flagged branch output carries no input dependence
    ch = exp.flagged_channel(0.0, 0.5)
    branch = ch.dim_out // 2
    outs = []
    for _ in range(3):
        rho = matcore.random_density(rng, 2)
        m = ch.apply(rho).matrix
        outs.append(m[branch:, branch:])
    for o in outs[1:]:
        assert np.abs(o - outs[0]).max() < 1e-12


def test_flagged_channel_domain():
    with pytest.raises(ValueError):
        exp.flagged_channel(0.3, 0.0)
    with pytest.raises(ValueError):
        exp.flagged_channel(1.0, 0.5)


def test_private_rate_positive_at_spec_point():
    cfg = exp.PrivateRateConfig(p=0.01, lam=0.01)
    sweep = exp.private_rate_lower_bound(cfg)
    assert sweep.metadata["positiveFound"]
    assert sweep.metadata["bestBound"] > 0


def test_private_rate_dominant_keep_branch():
    cfg = exp.PrivateRateConfig(p=0.999, lam=0.5, theta_grid=(0.1, 0.01))
    sweep = exp.private_rate_lower_bound(cfg)
    for _, i_kept, _, bound in sweep.rows:
        assert bound > 0.99 * i_kept - 1e-12


def test_private_rate_vanishes_with_theta():
    cfg = exp.PrivateRateConfig(p=0.5, lam=0.1, theta_grid=(1e-1, 1e-3, 1e-5))
    sweep = exp.private_rate_lower_bound(cfg)
    bounds_col = sweep.column("rate_lower_bound")
    assert abs(bounds_col[-1]) < abs(bounds_col[0])
    assert abs(bounds_col[-1]) < 1e-8


def test_private_rate_linear_in_p():
    grid = (1e-1, 1e-2)
    sweeps = {p: exp.private_rate_lower_bound(
        exp.PrivateRateConfig(p=p, lam=0.05, theta_grid=grid)) for p in (0.2, 0.7)}
    for i in range(len(grid)):
        _, i_kept, i_env, b1 = sweeps[0.2].rows[i]
        _, _, _, b2 = sweeps[0.7].rows[i]
        assert abs((b2 - b1) - 0.5 * (i_kept + i_env)) < 1e-12


def test_private_rate_depolarizing_variant_reports_honestly():
    # with depolarizing noise the environment leak grows as ln(1/theta),
    # so p = lambda = 0.01 admits no positive value on this grid
    cfg = exp.PrivateRateConfig(p=0.01, lam=0.01, theta_grid=(1e-1, 1e-3, 1e-5),
                                noise="depolarizing")
    sweep = exp.private_rate_lower_bound(cfg)
    assert not sweep.metadata["positiveFound"]


def test_private_rate_positive_on_every_row_with_depolarizing_leak():
    # unlike criterion 10's dephasing-y case, whose complement sees only
    # tr(Y rho) of a real input (i_env = 0), the environment here learns
    # something at every theta, and the kept branch still outweighs it
    cfg = exp.PrivateRateConfig(p=0.3, lam=0.2, theta_grid=(1e-1, 1e-2, 1e-3, 1e-4),
                                noise="depolarizing")
    sweep = exp.private_rate_lower_bound(cfg)
    assert len(sweep.rows) == 4
    for _, _, i_env, bound in sweep.rows:
        assert i_env > 0
        assert bound > 0
    assert sweep.metadata["positiveFound"]


def test_sweep_result_csv_shape():
    cfg = exp.SuddenDecayConfig.logspace(1e-2, 1e-4, 5, lam=0.3)
    sweep = exp.sudden_decay_sweep(cfg)
    text = sweep.to_csv()
    lines = text.split("\n")
    assert lines[0] == "theta,d_pre,d_post,ratio,ratio_times_log_inv_theta"
    assert len([l for l in lines if l]) == 6
    assert text.endswith("\n")
    # 17-significant-digit round trip
    val = float(lines[1].split(",")[0])
    assert val == sweep.rows[0][0]


def test_sweep_result_json_metadata():
    cfg = exp.SuddenDecayConfig.logspace(1e-2, 1e-3, 3, lam=0.3)
    sweep = exp.sudden_decay_sweep(cfg)
    data = json.loads(sweep.to_json())
    assert data["metadata"]["lambda"] == 0.3
    assert len(data["rows"]) == 3


def test_private_rate_depolarizing_weak_keep_has_no_positive_bound():
    # at p = lambda = 0.01 the ratio i_kept / i_env stays below the 99 that
    # positivity needs on the whole default grid; the old D(rho_AB || rho_A x
    # rho_B) form lost i_env below theta = 1e-6 and printed a bound of 2.9e-13
    cfg = exp.PrivateRateConfig(p=0.01, lam=0.01, noise="depolarizing")
    sweep = exp.private_rate_lower_bound(cfg)
    assert not sweep.metadata["positiveFound"]
    assert all(i_env > 0 for i_env in sweep.column("i_env"))

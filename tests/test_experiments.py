import json
import math

import numpy as np
import pytest

from oracles import (
    apply,
    expansion_consistency_check,
    expansion_quadratic_coefficient,
    omega_theta_lambda,
    pinching,
    pure,
    rho_theta_lambda,
)
from qdecay import channels, entropy, matcore
from qdecay import experiments as exp
from qdecay.matcore import BipartiteDensity, DensityMatrix

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
# the private-rate command's default theta grid
DEFAULT_RATE_GRID = exp.theta_logspace(1e-1, 1e-8, 8)


def test_rho_theta_lambda_corners():
    assert np.abs(rho_theta_lambda(0.0, 0.0).matrix
                  - pure([1, 0]).matrix).max() < 1e-15
    assert np.abs(rho_theta_lambda(0.3, 1.0, 3).matrix - np.eye(3) / 3).max() < 1e-15
    plus = pure([1, 1]).matrix
    assert np.abs(rho_theta_lambda(math.pi / 4, 0.0).matrix - plus).max() < 1e-12


def test_rho_theta_lambda_embedding():
    rho = rho_theta_lambda(0.2, 0.3, 4)
    assert rho.dim == 4
    assert abs(rho.matrix[2, 2].real - 0.3 / 4) < 1e-15
    assert abs(rho.matrix[3, 2]) < 1e-15


def test_rho_theta_lambda_domain():
    with pytest.raises(ValueError):
        rho_theta_lambda(0.1, 1.5)
    with pytest.raises(ValueError):
        rho_theta_lambda(0.1, 0.5, d=1)


def test_omega_theta_zero_is_product():
    omega = omega_theta_lambda(0.0, 0.2)
    assert entropy.mutual_information(omega) < 1e-12


def test_omega_b_marginal_is_pinched():
    omega = omega_theta_lambda(0.4, 0.25)
    rho = rho_theta_lambda(0.4, 0.25)
    expect = np.diag(np.diagonal(rho.matrix))
    assert np.abs(BipartiteDensity.marginals(omega)[1].matrix[0] - expect).max() < 1e-12


def test_omega_mutual_info_identity_grid():
    for theta in (0.05, 0.2, 0.7):
        for lam in (0.1, 0.5, 0.95):
            omega = omega_theta_lambda(theta, lam)
            rho = rho_theta_lambda(theta, lam)
            pinched = DensityMatrix.from_matrix(np.diag(np.diagonal(rho.matrix)))
            d = entropy.relative_entropy(rho, pinched).unwrap()
            assert abs(entropy.mutual_information(omega) - d) < 1e-10


def test_sudden_decay_no_noise_has_unit_ratio():
    sweep = exp.sudden_decay_sweep((1e-2, 1e-3, 1e-4), 0.0, 2, "depolarizing")
    assert all(abs(row[3] - 1.0) < 1e-12 for row in sweep.rows)  # ratio


def test_sudden_decay_ratio_prediction():
    sweep = exp.sudden_decay_sweep(exp.theta_logspace(1e-3, 1e-6, 4), 0.1, 2, "depolarizing")
    ratios = [row[3] for row in sweep.rows]
    assert 0.41 <= ratios[-1] / ratios[0] <= 0.62


def test_sudden_decay_log_product_bounded():
    sweep = exp.sudden_decay_sweep(exp.theta_logspace(1e-3, 1e-6, 4), 0.1, 2, "depolarizing")
    vals = [row[4] for row in sweep.rows]  # ratio_times_log_inv_theta
    assert (max(vals) - min(vals)) / min(vals) < 0.25


def test_sudden_decay_dephasing_variant_matches_depolarizing():
    # within the rotated-pure family, Y-basis dephasing acts exactly as
    # depolarizing, so the sweeps coincide
    for noise in ("depolarizing", "dephasing-y"):
        sweep = exp.sudden_decay_sweep(exp.theta_logspace(1e-3, 1e-5, 3), 0.2, 2, noise)
        vals = [row[4] for row in sweep.rows]  # ratio_times_log_inv_theta
        assert (max(vals) - min(vals)) / min(vals) < 0.25
    a = exp.sudden_decay_sweep((1e-3,), 0.2, 2, "depolarizing")
    b = exp.sudden_decay_sweep((1e-3,), 0.2, 2, "dephasing-y")
    assert a.rows == b.rows


def test_sweeps_exact_below_the_double_precision_cancellation_floor():
    # the matrix path lost every digit near theta = 1e-8 and printed d_pre = i_kept = 0
    # at 1e-9; the closed forms meet their leading small-angle terms, whose next
    # corrections are O(theta^2) relative here
    thetas = (1e-8, 1e-9, 1e-12, 1e-100, exp.THETA_MIN)
    lam, d = 0.1, 3
    a, b = 1 - lam + lam / d, lam / d
    sudden = exp.sudden_decay_sweep(thetas, lam, d, "depolarizing")
    rate = exp.private_rate_lower_bound(0.3, lam, thetas, "depolarizing")
    for theta, d_pre, d_post, _, _ in sudden.rows:
        s = theta * theta
        assert math.isclose(d_pre, s * (1 - math.log(s)), rel_tol=1e-13)
        assert math.isclose(d_post, (1 - lam) * s * math.log(a / b), rel_tol=1e-13)
    for theta, i_kept, i_env, _ in rate.rows:
        s = theta * theta
        assert math.isclose(i_kept, s * (1 - math.log(s)), rel_tol=1e-13)
        # i_env -> (lam/2) h(s) + mu (1 - ln(mu/T)) with mu = s (lam - 3 lam^2/4)/T
        t = 1 - lam / 2
        mu = s * (lam - 0.75 * lam * lam) / t
        assert math.isclose(i_env, lam / 2 * i_kept + mu * (1 - math.log(mu / t)),
                            rel_tol=1e-13)
    for sweep in (sudden, rate):
        assert "warnings" not in json.loads(sweep.to_json())
    # where lam s underflows, so does the leak: 0, not a math domain error
    tiny = exp.private_rate_lower_bound(0.3, 1e-300, (exp.THETA_MIN,), "depolarizing")
    assert tiny.rows[0][2] == 0.0 and tiny.rows[0][1] > 0


def test_sudden_decay_config_validation():
    with pytest.raises(ValueError, match="decreasing"):
        exp.sudden_decay_sweep((1e-4, 1e-3), 0.1, 2, "depolarizing")
    with pytest.raises(ValueError, match="pi/4"):
        exp.sudden_decay_sweep((1.0,), 0.1, 2, "depolarizing")
    # lambda/d below the normal doubles would overflow ln(a/b) and delta/b
    with pytest.raises(ValueError, match="normal double"):
        exp.sudden_decay_sweep((1e-3,), 1e-310, 2, "depolarizing")


def test_sweeps_check_their_settings_in_order():
    # sudden-decay checks the grid first, private-rate last; the first bad setting is named
    bad = (1e-4, 1e-3)
    for args, msg in (((bad, 2.0, 1, "x"), "decreasing"),
                      (((1e-3,), 2.0, 1, "x"), "dimension must be at least 2, got 1"),
                      (((1e-3,), 2.0, 2, "x"), "normal double"),
                      (((1e-3,), 0.1, 2, "x"), "noise must be one of"),
                      (((1e-3,), 0.1, 3, "dephasing-y"), "qubit channel; got dimension 3")):
        with pytest.raises(ValueError, match=msg):
            exp.sudden_decay_sweep(*args)
    for args, msg in (((0.0, 1.0, bad, "x"), r"p must lie in \(0, 1\)"),
                      ((0.5, 1.0, bad, "x"), r"lambda must lie in \(0, 1\)"),
                      ((0.5, 0.1, bad, "x"), "noise must be one of"),
                      ((0.5, 0.1, bad, "depolarizing"), "decreasing")):
        with pytest.raises(ValueError, match=msg):
            exp.private_rate_lower_bound(*args)


def test_sweeps_apply_the_map_once_per_slice(monkeypatch):
    thetas = tuple(np.logspace(-1, -6, exp.SWEEP_CHUNK + 6))  # two slices
    raw_apply = channels.SuperOperator.apply_matrix
    calls = []

    def apply_matrix(self, m):
        calls.append(np.shape(m))
        return raw_apply(self, m)

    monkeypatch.setattr(channels.SuperOperator, "apply_matrix", apply_matrix)
    group = channels.GroupLindbladian.from_generators([X, Z], [0.5, 0.5])
    assert len(exp.group_fragility_demo(group, 0.3, thetas).rows) == len(thetas)
    # one call per slice, on the stack of its +theta and -theta flag states
    assert [shape[0] for shape in calls] == [2 * exp.SWEEP_CHUNK,
                                             2 * (len(thetas) - exp.SWEEP_CHUNK)]


def test_group_fragility_eigensolves_do_not_grow_with_the_slice(monkeypatch):
    # each slice's theta states are built as one stack, not one build per theta
    raw = matcore.jacobi_eigh_batch
    calls = []

    def counted(stack):
        calls.append(len(stack))
        return raw(stack)

    monkeypatch.setattr(matcore, "jacobi_eigh_batch", counted)
    group = channels.GroupLindbladian.from_generators([X, Z], [0.5, 0.5])
    counts = []
    for n in (1, exp.SWEEP_CHUNK):
        calls.clear()
        exp.group_fragility_demo(group, 0.3, np.logspace(-1, -6, n))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_expansion_consistency_at_spec_point():
    rep = expansion_consistency_check(1e-4, 0.1, 2)
    assert rep["relative_deviation"] < 1e-2


def test_expansion_consistency_improves_with_theta():
    d5 = expansion_consistency_check(1e-5, 0.1, 2)["relative_deviation"]
    d3 = expansion_consistency_check(1e-3, 0.1, 2)["relative_deviation"]
    assert d5 < d3
    # both sit well inside the theta ln(1/theta) correction envelope
    for theta, dev in ((1e-3, d3), (1e-5, d5)):
        assert dev < theta * math.log(1 / theta)


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("theta", [1e-5, 1e-6, 1e-8])
def test_expansion_consistency_deviation_is_the_expansion_error(theta, d):
    # exact D from the closed form: the deviation is the O(theta^2) relative
    # correction, not eigensolver round-off
    rep = expansion_consistency_check(theta, 0.1, d)
    assert rep["relative_deviation"] <= 10 * theta ** 2 + 1e-15
    (_, _, d_post, _, _), = exp.sudden_decay_sweep((theta,), 0.1, d, "depolarizing").rows
    assert rep["exact"] == d_post


def test_expansion_coefficient_vanishes_at_full_noise():
    assert expansion_quadratic_coefficient(1.0, 2) == 0.0
    rho = rho_theta_lambda(1e-4, 1.0)
    pinched = DensityMatrix.from_matrix(np.diag(np.diagonal(rho.matrix)))
    assert entropy.relative_entropy(rho, pinched).unwrap() < 1e-12


def test_group_fragility_pauli_z_ratio_growth():
    g = channels.GroupLindbladian.from_generators([Z], [1.0])
    sweep = exp.group_fragility_demo(g, 0.01, [1e-2, 1e-6])
    ratios = [row[3] for row in sweep.rows]  # ratio_pre_over_post
    assert ratios[1] > 2.0 * ratios[0]


def test_group_fragility_monotone_in_theta():
    g = channels.GroupLindbladian.from_generators([X, Z], [0.5, 0.5])
    sweep = exp.group_fragility_demo(g, 0.05, [1e-2, 1e-3, 1e-4, 1e-5])
    ratios = [row[3] for row in sweep.rows]  # ratio_pre_over_post
    assert all(b >= a * 0.95 for a, b in zip(ratios, ratios[1:]))


def test_group_fragility_pauli_group_reduces_to_basic_example():
    g = channels.GroupLindbladian.from_generators([X, Y, Z], [1 / 3] * 3)
    t = 0.05
    sweep = exp.group_fragility_demo(g, t, [1e-2, 1e-3])
    lam_t = 1 - math.exp(-4 * t / 3)
    for theta, i_pre, i_post, _ in sweep.rows:
        phi = theta / 2  # the phase family at theta matches the rotated
        # family at theta/2 up to a unitary the noise commutes with
        pre = rho_theta_lambda(phi, 0.0)
        post = rho_theta_lambda(phi, lam_t)
        d_pre = entropy.relative_entropy(
            pre, DensityMatrix.from_matrix(np.diag(np.diagonal(pre.matrix)))).unwrap()
        d_post = entropy.relative_entropy(
            post, DensityMatrix.from_matrix(np.diag(np.diagonal(post.matrix)))).unwrap()
        assert abs(i_pre - d_pre) < 1e-10
        assert abs(i_post - d_post) < 1e-10


def test_group_fragility_rejects_a_projection_that_keeps_every_coherence():
    # the fixed points of X alone are span{I, X}, of the d = 4 shift the circulants:
    # each keeps part of every |i><j|
    shift = np.roll(np.eye(4, dtype=complex), 1, axis=0)
    for gens in ([X], [shift]):
        g = channels.GroupLindbladian.from_generators(gens, [1.0])
        with pytest.raises(ValueError, match="preserves every coherence"):
            exp.group_fragility_demo(g, 0.3, [1e-2])


def test_group_fragility_coherence_pair_is_the_first_killed_in_row_major_order():
    clock = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    shift = np.roll(np.eye(4, dtype=complex), 1, axis=0)
    # diag(1, 1, -1) keeps |0><1| and kills |0><2| first
    for gens, pair in (([X, Z], [0, 1]), ([clock, shift], [0, 1]),
                       ([np.diag([1.0, 1.0, -1.0]).astype(complex)], [0, 2])):
        g = channels.GroupLindbladian.from_generators(gens, [1.0 / len(gens)] * len(gens))
        sweep = exp.group_fragility_demo(g, 0.3, [1e-2])
        assert sweep.metadata["coherencePair"] == pair
        assert all(type(k) is int for k in sweep.metadata["coherencePair"])
        assert json.loads(sweep.to_json())["metadata"]["coherencePair"] == pair


@pytest.mark.parametrize("grid, message", [
    ([-0.1], "theta values must lie in"), ([3.0], "theta values must lie in"),
    ([], "theta grid is empty"), ([math.nan], "theta values must lie in")])
def test_group_fragility_rejects_a_bad_theta_grid(grid, message):
    g = channels.GroupLindbladian.from_generators([X, Z], [0.5, 0.5])
    with pytest.raises(ValueError, match=message):
        exp.group_fragility_demo(g, 0.3, grid)


def test_group_fragility_time_zero_unit_ratios():
    g = channels.GroupLindbladian.from_generators([Z], [1.0])
    sweep = exp.group_fragility_demo(g, 0.0, [1e-2, 1e-4])
    assert all(abs(row[3] - 1.0) < 1e-6 for row in sweep.rows)  # ratio_pre_over_post


def test_group_fragility_reports_nan_where_i_post_rounds_to_zero():
    # at t = 0.3 the post-noise information of the theta = 1e-8 pair rounds to 0;
    # the ratio is NaN there, not a ZeroDivisionError
    g = channels.GroupLindbladian.from_generators([X, Z], [0.5, 0.5])
    sweep = exp.group_fragility_demo(g, 0.3, [1e-2, 1e-8])
    (_, _, post_far, ratio_far), (_, pre, post, ratio) = sweep.rows
    assert post_far > 0 and math.isfinite(ratio_far)
    assert pre > 0 and post == 0.0 and math.isnan(ratio)


def test_flagged_channel_trace_preserving(rng):
    ch = exp.flagged_channel(0.3, 0.4, noise="depolarizing")
    for _ in range(20):
        rho = matcore.random_density(rng, 2)
        out = apply(ch, rho)
        assert abs(np.trace(out.matrix).real - 1) < 1e-10


def test_flagged_channel_full_keep_is_identity_with_flag(rng):
    ch = exp.flagged_channel(0.3, 1.0, "dephasing-y")
    rho = matcore.random_density(rng, 2)
    out = apply(ch, rho)
    branch = ch.dim_out // 2
    top = out.matrix[:branch, :branch]
    assert np.abs(top[:2, :2] - rho.matrix).max() < 1e-12
    assert abs(np.trace(out.matrix[branch:, branch:]).real) < 1e-12


def test_flagged_channel_no_noise_branch_is_input_independent(rng):
    # lam = 0: the complement of the identity is a constant map, so the
    # flagged branch output carries no input dependence
    ch = exp.flagged_channel(0.0, 0.5, "dephasing-y")
    branch = ch.dim_out // 2
    outs = []
    for _ in range(3):
        rho = matcore.random_density(rng, 2)
        m = apply(ch, rho).matrix
        outs.append(m[branch:, branch:])
    for o in outs[1:]:
        assert np.abs(o - outs[0]).max() < 1e-12


def test_flagged_channel_domain():
    with pytest.raises(ValueError):
        exp.flagged_channel(0.3, 0.0, "dephasing-y")
    with pytest.raises(ValueError):
        exp.flagged_channel(1.0, 0.5, "dephasing-y")


def test_private_rate_positive_at_spec_point():
    sweep = exp.private_rate_lower_bound(0.01, 0.01, DEFAULT_RATE_GRID, "dephasing-y")
    assert sweep.metadata["positiveFound"]
    assert sweep.metadata["bestBound"] > 0


def test_private_rate_dominant_keep_branch():
    sweep = exp.private_rate_lower_bound(0.999, 0.5, (0.1, 0.01), "dephasing-y")
    for _, i_kept, _, bound in sweep.rows:
        assert bound > 0.99 * i_kept - 1e-12


def test_private_rate_vanishes_with_theta():
    sweep = exp.private_rate_lower_bound(0.5, 0.1, (1e-1, 1e-3, 1e-5), "dephasing-y")
    bounds_col = [row[3] for row in sweep.rows]  # rate_lower_bound
    assert abs(bounds_col[-1]) < abs(bounds_col[0])
    assert abs(bounds_col[-1]) < 1e-8


def test_private_rate_linear_in_p():
    grid = (1e-1, 1e-2)
    sweeps = {p: exp.private_rate_lower_bound(p, 0.05, grid, "dephasing-y")
              for p in (0.2, 0.7)}
    for i in range(len(grid)):
        _, i_kept, i_env, b1 = sweeps[0.2].rows[i]
        _, _, _, b2 = sweeps[0.7].rows[i]
        assert abs((b2 - b1) - 0.5 * (i_kept + i_env)) < 1e-12


def test_private_rate_depolarizing_variant_reports_honestly():
    # with depolarizing noise the environment leak grows as ln(1/theta),
    # so p = lambda = 0.01 admits no positive value on this grid
    sweep = exp.private_rate_lower_bound(0.01, 0.01, (1e-1, 1e-3, 1e-5), "depolarizing")
    assert not sweep.metadata["positiveFound"]


def test_private_rate_positive_on_every_row_with_depolarizing_leak():
    # unlike criterion 10's dephasing-y case, whose complement sees only
    # tr(Y rho) of a real input (i_env = 0), the environment here learns
    # something at every theta, and the kept branch still outweighs it
    sweep = exp.private_rate_lower_bound(0.3, 0.2, (1e-1, 1e-2, 1e-3, 1e-4), "depolarizing")
    assert len(sweep.rows) == 4
    for _, _, i_env, bound in sweep.rows:
        assert i_env > 0
        assert bound > 0
    assert sweep.metadata["positiveFound"]


def test_sweep_result_csv_shape():
    sweep = exp.sudden_decay_sweep(exp.theta_logspace(1e-2, 1e-4, 5), 0.3, 2, "depolarizing")
    text = sweep.to_csv()
    lines = text.split("\n")
    assert lines[0] == "theta,d_pre,d_post,ratio,ratio_times_log_inv_theta"
    assert len([l for l in lines if l]) == 6
    assert text.endswith("\n")
    # 17-significant-digit round trip
    val = float(lines[1].split(",")[0])
    assert val == sweep.rows[0][0]


def test_sweep_result_json_metadata():
    sweep = exp.sudden_decay_sweep(exp.theta_logspace(1e-2, 1e-3, 3), 0.3, 2, "depolarizing")
    data = json.loads(sweep.to_json())
    assert data["metadata"]["lambda"] == 0.3
    assert len(data["rows"]) == 3


def test_private_rate_depolarizing_weak_keep_has_no_positive_bound():
    # at p = lambda = 0.01 the ratio i_kept / i_env stays below the 99 that
    # positivity needs on the whole default grid; the old D(rho_AB || rho_A x
    # rho_B) form lost i_env below theta = 1e-6 and printed a bound of 2.9e-13
    sweep = exp.private_rate_lower_bound(0.01, 0.01, DEFAULT_RATE_GRID, "depolarizing")
    assert not sweep.metadata["positiveFound"]
    assert all(i_env > 0 for _, _, i_env, _ in sweep.rows)


# ---- closed-form sweeps against independent references ------------------

ORACLE_LAMS = (0.01, 0.1, 0.5, 0.9)
ORACLE_DIMS = (2, 3, 8, 16, 64)
ORACLE_THETAS = (math.pi / 4, 0.3, 1e-1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-9, 1e-12, 1e-20,
                 1e-50, 1e-100, exp.THETA_MIN)
# stated accuracy of every sudden-decay and private-rate column, relative
ORACLE_RTOL = 1e-13
# sin^2(1e-150) = 1e-300 and the columns are differences of O(1) entropies, so the
# reference needs 300 digits before it has any; at 80 digits it reads 0 there
ORACLE_DPS = 420


def _mp_entropy(mp, levels):
    return -mp.fsum(x * mp.log(x) for x in levels if x > 0)


def _mp_sudden(mp, theta, lam, d):
    """d_pre and d_post as S(diagonal) - S(spectrum): the pinched state is the
    diagonal of N psi, and (1 - lam) psi + lam I/d has the level 1 - lam + lam/d
    once and lam/d d - 1 times.  The d - 2 levels lam/d that both share cancel."""
    c2, s2 = mp.cos(theta) ** 2, mp.sin(theta) ** 2
    lam = mp.mpf(lam)
    b = lam / d
    diagonal = [(1 - lam) * c2 + b, (1 - lam) * s2 + b]
    return _mp_entropy(mp, [c2, s2]), _mp_entropy(mp, diagonal) - _mp_entropy(mp, [1 - lam + b, b])


def _mp_leak(mp, theta, lam, noise):
    """i_env = S(W(mean input)) - mean S(W(psi_+-theta)), W the complementary output
    tr(K_k rho K_l^dagger) of a Pauli Kraus set, each spectrum from mp.eighe."""
    lam = mp.mpf(lam)
    eye, x = mp.eye(2), mp.matrix([[0, 1], [1, 0]])
    y, z = mp.matrix([[0, -1j], [1j, 0]]), mp.matrix([[1, 0], [0, -1]])
    if noise == "dephasing-y":
        kraus = [mp.sqrt(1 - lam / 2) * eye, mp.sqrt(lam / 2) * y]
    else:
        kraus = [mp.sqrt(1 - 3 * lam / 4) * eye] + [mp.sqrt(lam / 4) * p for p in (x, y, z)]

    def env_entropy(rho):
        w = mp.matrix([[mp.fsum(u[i, j] * mp.conj(b[i, j]) for i in range(2) for j in range(2))
                        for b in kraus] for u in (a * rho for a in kraus)])
        return _mp_entropy(mp, [mp.re(e) for e in mp.eighe(w, eigvals_only=True)])

    c, s = mp.cos(theta), mp.sin(theta)
    plus, minus = (mp.matrix([[c * c, sign * c * s], [sign * c * s, s * s]]) for sign in (1, -1))
    return env_entropy((plus + minus) / 2) - (env_entropy(plus) + env_entropy(minus)) / 2


def _assert_close(got, want, what):
    want = float(want)
    assert abs(got - want) <= ORACLE_RTOL * abs(want), (what, got, want)


def test_sweeps_match_mpmath_from_pi_over_4_to_theta_min():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(ORACLE_DPS):
        thetas = [mp.mpf(t) for t in ORACLE_THETAS]  # exactly the float grid
        for lam in ORACLE_LAMS:
            for d in ORACLE_DIMS:
                rows = exp.sudden_decay_sweep(ORACLE_THETAS, lam, d, "depolarizing").rows
                for theta, (_, d_pre, d_post, ratio, scaled) in zip(thetas, rows):
                    pre, post = _mp_sudden(mp, theta, lam, d)
                    where = (lam, d, float(theta))
                    _assert_close(d_pre, pre, ("d_pre",) + where)
                    _assert_close(d_post, post, ("d_post",) + where)
                    _assert_close(ratio, post / pre, ("ratio",) + where)
                    _assert_close(scaled, post / pre * mp.log(1 / theta), ("scaled",) + where)
            kept = [_mp_entropy(mp, [mp.cos(t) ** 2, mp.sin(t) ** 2]) for t in thetas]
            for noise in exp.NOISE_KINDS:
                leaks = [_mp_leak(mp, t, lam, noise) for t in thetas]
                for p in (0.01, 0.3):
                    rows = exp.private_rate_lower_bound(p, lam, ORACLE_THETAS, noise).rows
                    for (theta, i_kept, i_env, bound), k, leak in zip(rows, kept, leaks):
                        where = (lam, noise, p, theta)
                        _assert_close(i_kept, k, ("i_kept",) + where)
                        if noise == "dephasing-y":
                            assert i_env == 0.0 and leak == 0, where
                        else:
                            _assert_close(i_env, leak, ("i_env",) + where)
                        # the bound is a difference: its error is relative to its terms
                        assert abs(bound - float(p * k - (1 - p) * leak)) <= (
                            ORACLE_RTOL * float(p * k + (1 - p) * leak)), ("bound",) + where


# the fragility demo's two benchmark groups: {X, Z} at d = 2 and clock/shift at d = 4
FRAGILITY_GROUPS = {
    "pauli-xz": [X, Z],
    "clock-shift": [np.diag(np.exp(2j * np.pi * np.arange(4) / 4)),
                    np.roll(np.eye(4, dtype=complex), 1, axis=0)],
}
FRAGILITY_TIMES = (0.05, 0.3)
# i_pre = h(sin^2(theta/2)) is a closed form: within 2.4e-16 at every theta checked
FRAGILITY_PRE_RTOL = 1e-15
# i_post, of size theta^2, is a difference of O(1) entropies, so its relative error
# grows as theta^-2: at most 2.2e-15 / theta^2 for {X, Z} on 121 thetas from pi/4 to
# 1e-3 at both times (1.1e-9 at theta = 1e-3); the tolerance, this / theta^2, is 2.3x that
FRAGILITY_POST_RTOL_THETA2 = 5e-15


@pytest.mark.parametrize("name", sorted(FRAGILITY_GROUPS))
def test_group_fragility_i_pre_matches_mpmath(name):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    gens = FRAGILITY_GROUPS[name]
    g = channels.GroupLindbladian.from_generators(gens, [1.0 / len(gens)] * len(gens))
    thetas = tuple(float(t) for t in np.logspace(-1, -12, 23))
    with mp.workdps(50):
        for t in FRAGILITY_TIMES:
            for theta, i_pre, _, _ in exp.group_fragility_demo(g, t, thetas).rows:
                half = mp.sin(mp.mpf(theta) / 2) ** 2
                want = _mp_entropy(mp, [half, 1 - half])
                assert abs(i_pre - want) <= FRAGILITY_PRE_RTOL * want, (name, t, theta)


def test_group_fragility_i_post_matches_the_pauli_closed_form():
    # {X, Z} at equal weights shrinks the Bloch vector (cos theta, +-sin theta, 0) to
    # (e^-t cos theta, +-e^-2t sin theta, 0), and the mean to (e^-t cos theta, 0, 0):
    # i_post = H(e^-t cos theta) - H(|r|), H(r) = h((1 - r)/2)
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    g = channels.GroupLindbladian.from_generators([X, Z], [0.5, 0.5])
    thetas = (math.pi / 4,) + tuple(float(t) for t in np.logspace(-1, -3, 9))

    def bloch_entropy(r):
        return _mp_entropy(mp, [(1 - r) / 2, (1 + r) / 2])

    with mp.workdps(50):
        for t in FRAGILITY_TIMES:
            x, y = mp.exp(-mp.mpf(t)), mp.exp(-2 * mp.mpf(t))
            for theta, _, i_post, _ in exp.group_fragility_demo(g, t, thetas).rows:
                c, s = mp.cos(mp.mpf(theta)), mp.sin(mp.mpf(theta))
                want = bloch_entropy(x * c) - bloch_entropy(mp.sqrt((x * c) ** 2 + (y * s) ** 2))
                tol = FRAGILITY_POST_RTOL_THETA2 / theta ** 2
                assert abs(i_post - want) <= tol * want, (t, theta, i_post, want)


# the matrix path: states, Kraus channels and Stinespring complements, eigensolved.
# Its own error is about 1e-16 absolute, so at lambda = 0.9, where d_post is 7e-10 at
# theta = 1e-4, it is off by 7e-7 relative; the oracle stops at lambda = 0.5
MATRIX_LAMS = (0.01, 0.1, 0.2, 0.5)
MATRIX_THETAS = tuple(np.logspace(math.log10(math.pi / 4), -4, 9))
MATRIX_RTOL = 1e-7


def _noise(kind, lam, d):
    return channels.depolarizing(d, lam) if kind == "depolarizing" else channels.dephasing_y(lam)


@pytest.mark.parametrize("lam", MATRIX_LAMS)
def test_sweeps_match_the_matrix_path_above_theta_1e_4(lam):
    for d, noise in ((2, "depolarizing"), (2, "dephasing-y"), (3, "depolarizing"),
                     (8, "depolarizing")):
        rows = exp.sudden_decay_sweep(MATRIX_THETAS, lam, d, noise).rows
        pinch, channel = pinching(d), _noise(noise, lam, d)
        for theta, d_pre, d_post, _, _ in rows:
            pre = rho_theta_lambda(theta, 0.0, d)
            for got, state in ((d_pre, pre), (d_post, apply(channel, pre))):
                want = entropy.relative_entropy(state, apply(pinch, state)).unwrap()
                assert math.isclose(got, want, rel_tol=MATRIX_RTOL), (d, noise, theta)
    for noise in exp.NOISE_KINDS:
        comp = channels.complementary_channel(_noise(noise, lam, 2))
        for p in (0.01, 0.3, 0.9):
            rows = exp.private_rate_lower_bound(p, lam, MATRIX_THETAS, noise).rows
            for theta, i_kept, i_env, bound in rows:
                omega = omega_theta_lambda(theta, 0.0)
                kept = entropy.mutual_information(omega)
                leak = entropy.mutual_information(channels.apply_to_b(comp, omega))
                assert math.isclose(i_kept, kept, rel_tol=MATRIX_RTOL)
                # under dephasing-y the matrix path's leak is round-off of a 0
                assert math.isclose(i_env, leak, rel_tol=MATRIX_RTOL, abs_tol=1e-15)
                assert math.isclose(bound, p * kept - (1 - p) * leak,
                                    rel_tol=MATRIX_RTOL), (p, noise, theta)


@pytest.mark.parametrize("noise", exp.NOISE_KINDS)
@pytest.mark.parametrize("lam", [0.0, 0.2, 0.7])
@pytest.mark.parametrize("p", [0.3, 1.0])
def test_flagged_channel_matches_a_loop_oracle_bit_for_bit(noise, lam, p):
    comp = channels.complementary_channel(
        channels.depolarizing(2, lam) if noise == "depolarizing" else channels.dephasing_y(lam))
    branch = max(2, comp.dim_out)
    keep = np.zeros((2 * branch, 2), dtype=complex)
    keep[:2, :2] = np.eye(2)
    ops = [math.sqrt(p) * keep]
    if p < 1.0:
        for k in comp.kraus:
            kk = np.zeros((2 * branch, 2), dtype=complex)
            kk[branch:branch + k.shape[0], :] = k
            ops.append(math.sqrt(1 - p) * kk)
    got = exp.flagged_channel(lam, p, noise).kraus
    assert got.shape == (len(ops), 2 * branch, 2)
    assert got.tobytes() == np.array(ops).tobytes()

"""Converse lower bounds on information decay, with exact-value verifiers.

Each bound comes as a factor formula plus a check routine: the check
computes both sides from exact entropic quantities (never expansions)
and reports the slack.  The tau suprema are taken by a log-spaced grid
bracket followed by golden-section refinement, so a unimodality
assumption is never relied on globally.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import channels, entropy, matcore
from .channels import ConditionalExpectation, Lindbladian
from .matcore import BipartiteDensity, DensityMatrix

PASS_SLACK = 1e-10

TAU_GRID_MIN = 1e-4
TAU_GRID_POINTS = 2000
TAU_REFINE_TOL = 1e-8

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class InfeasibleParamsError(ValueError):
    """The (a, eps, m_tilde) triple violates the case-combination condition."""


def _golden_max(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > TAU_REFINE_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def maximize_on_unit_interval(f: Callable[[float], float],
                              grid_min: float = TAU_GRID_MIN,
                              grid_points: int = TAU_GRID_POINTS) -> tuple[float, float]:
    """Global grid bracket on (0, 1) followed by golden-section refinement."""
    # f runs on Python floats: the same IEEE operations as on np.float64
    # scalars, at a third of the per-call cost
    grid = np.logspace(math.log10(grid_min), math.log10(1.0 - grid_min), grid_points).tolist()
    vals = np.array([f(t) for t in grid])
    i = int(np.argmax(vals))
    x, fx = _golden_max(f, grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)])
    if vals[i] > fx:
        return grid[i], float(vals[i])
    return float(x), float(fx)


def _g_objective(zeta: float, denom: float) -> Callable[[float], float]:
    """tau -> (1-zeta)^2 tau / (tau + zeta) * (1 - tau (1 - ln tau)/denom)."""
    keep_sq = (1.0 - zeta) ** 2
    log = math.log

    def objective(tau: float) -> float:
        return keep_sq * tau / (tau + zeta) * (1.0 - tau * (1.0 - log(tau)) / denom)

    return objective


def g_factor(zeta: float, c: float, variant: str) -> tuple[float, float]:
    """Optimized decay-converse factor
    g(zeta, c) = sup_tau (1-zeta)^2 tau / (tau + zeta) * (1 - tau (1 - ln tau)/kappa)
    returned as (g, tau_star).

    variant \"theorem\" uses kappa(c); variant \"paper-example\" keeps the
    literal constant (9 ln 9 - 8)/9 of the worked qubit-depolarizing table,
    which is inconsistent with kappa(4) but reproduces that table's values.
    Both are kept so the discrepancy stays visible.
    """
    if not 0.0 <= zeta < 1.0:
        raise ValueError(f"zeta must lie in [0, 1), got {zeta!r}")
    if not 1.0 < c < math.inf:
        raise ValueError(f"c must exceed 1 and be finite, got {c!r}")
    if variant == "theorem":
        denom = entropy.kappa(c)
    elif variant == "paper-example":
        denom = (9.0 * math.log(9.0) - 8.0) / 9.0
    else:
        raise ValueError(f"unknown variant {variant!r}")

    # the optimal tau scales like sqrt(zeta kappa) for small zeta, so the
    # grid's lower edge follows zeta down instead of staying at 1e-4
    grid_min = min(TAU_GRID_MIN, max(zeta * 1e-2, 1e-12))
    tau_star, g = maximize_on_unit_interval(_g_objective(zeta, denom), grid_min=grid_min)
    return max(g, 0.0), tau_star


# the worked qubit-depolarizing example L = Id - E_dep: c = 4 and the example's 3/4, which
# is half of ||L||_diamond = 1.5 in the trace-norm convention (channels.diamond_norm_bracket)
EXAMPLE_C, EXAMPLE_DIAMOND = 4.0, 0.75


def _replacement_weights(t: float, c: float, diamond: float) -> tuple[float, float]:
    """(zeta, eps) = (1 - exp(-t c diamond), 1 - exp(-t c diamond / 2)), both
    through expm1: zeta is the replacement weight of the fixed-point converse,
    eps the mixing weight of the commuting-case replacement step."""
    if not (t >= 0 and c >= 1 and diamond > 0):
        raise ValueError("need t >= 0, c >= 1, diamond > 0")
    x = t * c * diamond
    return -math.expm1(-x), -math.expm1(-x / 2.0)


def feasible_a_midpoint(eps: float, m_tilde: float) -> float:
    """Midpoint of the feasible interval (2 f(eps) / ((1 - eps) m_tilde^2), 1) of a."""
    lo = 2.0 * entropy.f_almost_concavity(eps, m_tilde) / ((1.0 - eps) * m_tilde ** 2)
    if lo >= 1.0:
        raise InfeasibleParamsError(
            f"no feasible a: need a * m_tilde^2 > 2 f(eps)/(1-eps) = "
            f"{lo * m_tilde ** 2:.6g} with m_tilde = {m_tilde:.6g}")
    return 0.5 * (lo + 1.0)


@dataclass(frozen=True)
class BoundReport:
    """Both sides of a bound on n states at each of its cells (a time, or a (time,
    variant) pair), as (n, cells) arrays; extra holds the cells' labels and the
    per-state values.  A cell passes when lhs >= rhs - PASS_SLACK."""

    lhs: np.ndarray
    rhs: np.ndarray
    factor: np.ndarray
    extra: dict

    @property
    def passed(self) -> np.ndarray:
        return self.lhs >= self.rhs - PASS_SLACK

    @property
    def margin(self) -> np.ndarray:
        return self.lhs - self.rhs


@functools.lru_cache(maxsize=8)
def _clsi_tables(lind: Lindbladian, times: tuple, variants: tuple) -> tuple:
    """The g factor per (time, variant), time-major, and the read-only maps E
    and the semigroup per time, built once per Lindbladian, times and variants."""
    zetas = [_replacement_weights(t, lind.pp_index, lind.diamond_upper)[0] for t in times]
    factors = tuple(g_factor(z, lind.pp_index, variant)[0] for z in zetas for variant in variants)
    return factors, (lind.fixed_point, *map(lind.semigroup, times))


def clsi_converse_check(lind: Lindbladian, rho, times: Sequence[float],
                        variants: Sequence[str]) -> BoundReport:
    """D(Phi^t rho || E rho) >= g(1 - e^{-t c ||L||}, c) D(rho || E rho), both sides
    exact, on states as batch takes them; one cell per (time, variant), time-major,
    labelled by extra's t and variant.  The maps act on the left factor of a state
    of dimension k lind.dim."""
    if not len(times):
        raise ValueError("need at least one time")
    rhos, _ = matcore.batch(rho=rho)
    k, rest = divmod(rhos.dim, lind.dim)
    if rest:
        raise ValueError(f"state dimension {rhos.dim} is not a multiple of the "
                         f"Lindbladian's dimension {lind.dim}")
    factors, maps = _clsi_tables(lind, tuple(times), tuple(variants))
    n = len(rhos)
    built = DensityMatrix.from_matrices(np.concatenate(
        [channels.apply_on_factor(m, rhos.matrix, (lind.dim, k), 0) for m in maps]))
    d_pre = entropy.unwrap(entropy.relative_entropy(rhos, built[:n]))
    # each evolved state against its own E(rho), the first n of built
    d_post = entropy.unwrap(entropy.relative_entropy(
        built[n:], built[np.tile(np.arange(n), len(times))]))
    lhs = np.repeat(d_post.reshape(len(times), n).T, len(variants), axis=1)
    factor = np.tile(factors, (n, 1))
    return BoundReport(lhs, factor * d_pre[:, None], factor,
                       {"t": [t for t in times for _ in variants],
                        "variant": list(variants) * len(times)})


def classical_converse_factor(eps: float, m_tilde: float, g_tilde: float, a: float,
                              branch: str) -> float:
    """Branch factors of the commuting-state converse.

    large-D branch (D >= a m^2 / 2):
        1 - eps - 2 f_m(eps) / (a m^2)
    small-D branch (D <= a m^2 / 2):
        (1 - a)(1 - eps)^2 / ((1 - eps)(1 - a) + eps g_tilde)
    Feasibility a m^2 > 2 f_m(eps)/(1 - eps) is enforced for both.
    """
    if not 0.0 < a < 1.0:
        raise InfeasibleParamsError(f"a must lie in (0, 1), got {a!r}")
    m = m_tilde
    f = entropy.f_almost_concavity(eps, m)
    if a * m * m <= 2.0 * f / (1.0 - eps):
        raise InfeasibleParamsError(
            f"infeasible triple: a m^2 = {a * m * m:.6g} but "
            f"2 f(eps)/(1-eps) = {2 * f / (1 - eps):.6g}")
    if branch == "large-D":
        return 1.0 - eps - 2.0 * f / (a * m * m)
    if branch == "small-D":
        return ((1.0 - a) * (1.0 - eps) ** 2
                / ((1.0 - eps) * (1.0 - a) + eps * g_tilde))
    raise ValueError(f"unknown branch {branch!r}")


def _check_commuting(a: np.ndarray, b: np.ndarray) -> None:
    """A ValueError, naming the stack member, unless each pair of the two matrices or
    (n, d, d) stacks commutes."""
    dev = np.ravel(matcore.commutator_max(a, b)).tolist()
    matcore._reject([x > matcore.COMMUTE_ATOL for x in dev], lambda i: (
        f"states do not commute: max |[A, B]| = {dev[i]:.3e}"))


def classical_converse_check(e: ConditionalExpectation, rho, sigma, times: Sequence[float],
                             c: float, diamond: float) -> BoundReport:
    """Commuting-state converse under the replacement semigroup on pairs of states
    (as batch takes them), one cell per time; m_tilde and g_tilde come from sigma
    and E(sigma).

    Noise keeps amplitude 1 - eps on the state and mixes in the
    shared fixed point E(rho) = E(sigma) with weight eps; the exact decayed
    relative entropy is compared against the branch factor.
    """
    if not len(times):
        raise ValueError("need at least one time")
    rhos, sigmas, _ = matcore.batch(rho=rho, sigma=sigma)
    r, s = rhos.matrix, sigmas.matrix
    n = len(r)
    images = DensityMatrix.from_matrices(e.apply_matrix(np.concatenate([r, s])))
    er, es = images.matrix[:n], images.matrix[n:]
    _check_commuting(r, s)
    _check_commuting(r, er)
    img_dev = matcore.trace_norm(er - es).tolist()
    matcore._reject([x > 1e-10 for x in img_dev], lambda i: (
        f"E(rho) != E(sigma): trace distance {img_dev[i]:.3e}"))
    d_pre = entropy.unwrap(entropy.relative_entropy(rhos, sigmas))
    m_tilde = smallest_nonzero_eigenvalue_direct_sum(sigmas, images[n:])
    g_tilde = matcore.loewner_min_coefficient(es, sigmas, False)
    eps = [_replacement_weights(t, c, diamond)[1] for t in times]
    mixed = DensityMatrix.from_matrices(np.concatenate(
        [(1 - p) * x + p * e_x for x, e_x in ((r, er), (s, es)) for p in eps]))
    d_post = entropy.unwrap(entropy.relative_entropy(mixed[:len(eps) * n],
                                                     mixed[len(eps) * n:]))
    # per sample and time, the branch that dPre selects, with a at the midpoint of its
    # feasible interval
    branch, factor = [], []
    for m, g, pre in zip(m_tilde.tolist(), g_tilde.tolist(), d_pre.tolist()):
        for p in eps:
            a = feasible_a_midpoint(p, m)
            branch.append("large-D" if pre >= a * m ** 2 / 2.0 else "small-D")
            factor.append(classical_converse_factor(p, m, g, a, branch[-1]))
    factor = np.reshape(factor, (n, len(eps)))
    return BoundReport(d_post.reshape(len(eps), n).T, factor * d_pre[:, None], factor,
                       {"t": list(times), "branch": np.reshape(branch, factor.shape),
                        "dPre": d_pre})


def smallest_nonzero_eigenvalue_direct_sum(sigma, e_sigma):
    """m_tilde: smallest nonzero eigenvalue of sigma (+) E(sigma), the latter as
    its k x k block on supp(sigma); an array of them for two stacks of states."""
    sigmas, e_sigmas, one = matcore.batch(sigma=sigma, e_sigma=e_sigma)
    out = np.empty(len(sigmas))
    for rows, block, ws, _ in matcore.support_blocks(
            e_sigmas.matrix, sigmas.eigenvalues, sigmas.eigenvectors, matcore.SUPPORT_RTOL):
        w = matcore.jacobi_eigh_batch(matcore.as_hermitian(block))[0]
        floor = matcore.SUPPORT_RTOL * np.maximum(w[:, -1:], np.finfo(float).tiny)
        out[rows] = np.minimum(ws[:, 0], np.where(w > floor, w, math.inf).min(axis=1))
    return float(out[0]) if one else out


def mutual_info_converse_check(e_on_b: ConditionalExpectation, rho, times: Sequence[float],
                               c: float, diamond: float) -> BoundReport:
    """Mutual-information converse for classical-classical states (one, or a
    family) under replacement noise on the B side, one cell per time: the
    commuting-state converse for rho against sigma = rho_A x rho_B under Id x E.

    D(rho || rho_A x rho_B) = I(A:B), and Id x E keeps rho_A, so each mixed sigma is
    the product of its mixed state's marginals and the decayed divergence is the
    decayed mutual information.  (Id x E)(sigma) = rho_A x E(rho_B) gives m_tilde, and
    g_tilde equals that of E(rho_B) against rho_B; the check's E(rho) = E(sigma) test
    is the product form (Id x E)(rho) = rho_A x E(rho_B) the bound needs.
    """
    states, _ = matcore.batch(rho=rho)
    d = states.dim_a * states.dim_b
    off = np.maximum.reduce(np.abs(states.state.matrix[:, ~np.eye(d, dtype=bool)]), axis=1)
    matcore._reject((off > 1e-10).tolist(), lambda i: (
        "input is not classical-classical (off-diagonal weight present)"))
    # Id x E from the d^2 matrix units: column l d + k holds vec((Id x E)(|k><l|))
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d).transpose(0, 2, 1)
    images = channels.apply_on_factor(e_on_b, units, (states.dim_a, states.dim_b), 1)
    e_ab = ConditionalExpectation(d, images.transpose(0, 2, 1).reshape(d * d, d * d).T)
    rho_a, rho_b = BipartiteDensity.marginals(states)
    sigmas = DensityMatrix.from_matrices(matcore.tensor(rho_a.matrix, rho_b.matrix))
    return classical_converse_check(e_ab, states.state, sigmas, times, c, diamond)


def _per_pair(eps, zeta, pairs: int) -> tuple:
    """eps and zeta (numbers for one pair) as lists; a ValueError unless each has one
    entry per state pair."""
    eps, zeta = (np.ravel(x).tolist() for x in (eps, zeta))
    if not len(eps) == len(zeta) == pairs:
        raise ValueError(f"need one eps and one zeta per state pair: {pairs} pairs, "
                         f"{len(eps)} eps, {len(zeta)} zeta")
    return eps, zeta


def decayed_state_bound_check(rho, sigma, theta_dens: DensityMatrix, omega: DensityMatrix,
                              eps, zeta, c: float) -> BoundReport:
    """Partial-replacement comparison
    D((1-eps) rho + eps theta || (1-eps) sigma + eps theta)
      >= (zeta / (c eps)) ((1-eps)/(1-zeta))^2
         D((1-zeta) rho + zeta omega || (1-zeta) sigma + zeta omega)
    for theta <= c omega and eps >= zeta, on pairs rho, sigma (as batch takes
    them) with one eps and one zeta each, theta and omega shared; one cell."""
    rhos, sigmas, _ = matcore.batch(rho=rho, sigma=sigma)
    eps, zeta = _per_pair(eps, zeta, len(rhos))
    check = matcore.loewner_min_coefficient(theta_dens, omega, strict=True)
    if not check <= c * (1 + 1e-9):
        raise ValueError(f"order precondition fails: smallest valid c is {check!r}")
    matcore._reject([not 0.0 < z <= e < 1.0 for e, z in zip(eps, zeta)],
                    lambda i: "need 0 < zeta <= eps < 1")
    n = len(rhos)
    built = DensityMatrix.from_matrices(np.concatenate([
        (1 - w) * xs.matrix + w * y.matrix
        for w, y in ((np.array(eps)[:, None, None], theta_dens),
                     (np.array(zeta)[:, None, None], omega)) for xs in (rhos, sigmas)]))
    lhs = entropy.unwrap(entropy.relative_entropy(built[:n], built[n:2 * n]))
    d_rhs = entropy.unwrap(entropy.relative_entropy(built[2 * n:3 * n], built[3 * n:]))
    factor = np.array([[(z / (c * e)) * ((1 - e) / (1 - z)) ** 2] for e, z in zip(eps, zeta)])
    return BoundReport(lhs[:, None], factor * d_rhs[:, None], factor,
                       {"dRhs": d_rhs})


def origcompare_check(rho, sigma, omega, eps, zeta) -> BoundReport:
    """Upper comparison of the original relative entropy by the mixed one:
    D(rho||sigma) <= (1/(1-eps)^2) (1 + eps (g/(1-zeta) - 1))
                     D((1-eps) rho + eps omega || (1-eps) sigma + eps omega)
    under rho >= (1-zeta) sigma, on triples of states (as batch takes them) with
    one eps and one zeta each; one cell."""
    rhos, sigmas, omegas, _ = matcore.batch(rho=rho, sigma=sigma, omega=omega)
    eps, zeta = _per_pair(eps, zeta, len(rhos))
    matcore._reject([not (0.0 <= e < 1.0 and 0.0 <= z < 1.0) for e, z in zip(eps, zeta)],
                    lambda i: "eps and zeta must lie in [0, 1)")
    r, s, o = rhos.matrix, sigmas.matrix, omegas.matrix
    e_a, z_a = (np.array(x)[:, None, None] for x in (eps, zeta))
    wmin = matcore.jacobi_eigh_batch(matcore.as_hermitian(r - (1 - z_a) * s))[0][:, 0].tolist()
    matcore._reject([w < -1e-10 for w in wmin], lambda i: (
        f"precondition rho >= (1-zeta) sigma fails by {wmin[i]!r}"))
    g = matcore.loewner_min_coefficient(o, sigmas, False)
    d_orig = entropy.unwrap(entropy.relative_entropy(rhos, sigmas))
    n = len(r)
    mixed = DensityMatrix.from_matrices(np.concatenate([(1 - e_a) * x + e_a * o for x in (r, s)]))
    d_mixed = entropy.unwrap(entropy.relative_entropy(mixed[:n], mixed[n:]))
    factor = np.array([[(1.0 + e * (g_i / (1 - z) - 1.0)) / (1 - e) ** 2]
                       for e, z, g_i in zip(eps, zeta, g.tolist())])
    # report in lhs >= rhs form: factor * D_mixed >= D_orig
    return BoundReport(factor * d_mixed[:, None], d_orig[:, None], factor,
                       {"dOrig": d_orig, "dMixed": d_mixed})

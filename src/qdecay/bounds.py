"""Converse lower bounds on information decay, with exact-value verifiers.

Each bound comes as a factor formula plus a check routine: the check
computes both sides from exact entropic quantities (never expansions)
and reports the slack.  The tau suprema are taken by a log-spaced grid
bracket followed by golden-section refinement, so a unimodality
assumption is never relied on globally.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
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


def g_factor(zeta: float, c: float, variant: str = "theorem") -> tuple[float, float]:
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
    if c <= 1.0:
        raise ValueError(f"c must exceed 1, got {c!r}")
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


@dataclass(frozen=True)
class ConverseBoundParams:
    """Scalar bundle feeding the bound formulas.

    zeta = 1 - exp(-t c diamond) is the replacement weight of the
    fixed-point converse; eps is the mixing weight of the commuting-case
    replacement step, derived as 1 - exp(-t c diamond / 2) (the keep
    amplitude exp(-t c diamond / 2) is epsilon_keep), both through expm1.
    a defaults to the midpoint of its feasible interval.
    """

    t: float = 0.0
    c: float = 1.0
    diamond: float = 1.0
    zeta: float = 0.0
    eps: float = 0.0
    a: float | None = None
    m_tilde: float = 1.0
    g_tilde: float = 1.0

    @property
    def eps_keep(self) -> float:
        return 1.0 - self.eps

    @classmethod
    def from_semigroup(cls, t: float, c: float, diamond: float,
                       m_tilde: float = 1.0, g_tilde: float = 1.0,
                       a: float | None = None) -> "ConverseBoundParams":
        if t < 0 or c < 1 or diamond <= 0:
            raise ValueError("need t >= 0, c >= 1, diamond > 0")
        return cls(
            t=t, c=c, diamond=diamond,
            zeta=-math.expm1(-t * c * diamond),
            eps=-math.expm1(-t * c * diamond / 2.0),
            a=a, m_tilde=m_tilde, g_tilde=g_tilde,
        )

    def feasible_a_interval(self) -> tuple[float, float]:
        f = entropy.f_almost_concavity(self.eps, self.m_tilde)
        lo = 2.0 * f / ((1.0 - self.eps) * self.m_tilde ** 2)
        return lo, 1.0

    def resolved_a(self) -> float:
        if self.a is not None:
            return self.a
        lo, hi = self.feasible_a_interval()
        if lo >= hi:
            raise InfeasibleParamsError(
                f"no feasible a: need a * m_tilde^2 > 2 f(eps)/(1-eps) = "
                f"{lo * self.m_tilde ** 2:.6g} with m_tilde = {self.m_tilde:.6g}")
        return 0.5 * (lo + hi)

    def to_json_dict(self) -> dict:
        return {
            "t": self.t, "c": self.c, "diamond": self.diamond,
            "zeta": self.zeta, "eps": self.eps,
            "a": self.a, "mTilde": self.m_tilde, "gTilde": self.g_tilde,
        }


@dataclass(frozen=True)
class BoundReport:
    """Both sides of one bound evaluation; pass means lhs >= rhs - PASS_SLACK."""

    name: str
    lhs: float
    rhs: float
    factor: float
    params: ConverseBoundParams | None = None
    tau_star: float | None = None
    g_star: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.lhs >= self.rhs - PASS_SLACK

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "factor": self.factor,
            "pass": self.passed,
            "slack": PASS_SLACK,
        }
        if self.params is not None:
            out["params"] = self.params.to_json_dict()
        if self.tau_star is not None:
            out["tauStar"] = self.tau_star
            out["gStar"] = self.g_star
        if self.extra:
            out["extra"] = self.extra
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def clsi_converse_check(lind: Lindbladian, rho: DensityMatrix, t: float,
                        variant: str = "theorem") -> BoundReport:
    """D(Phi^t rho || E rho) >= g(1 - e^{-t c ||L||}, c) D(rho || E rho),
    both sides exact."""
    e_rho = lind.fixed_point.apply(rho)
    d_pre = entropy.relative_entropy(rho, e_rho)
    if not d_pre.finite:
        raise AssertionError(
            "D(rho || E rho) infinite although c E >= Id; inconsistent fixed point")
    evolved = channels.semigroup_apply(lind, t, rho)
    d_post = entropy.relative_entropy(evolved, e_rho).unwrap()
    zeta = -math.expm1(-t * lind.pp_index * lind.diamond_upper)
    g, tau_star = g_factor(zeta, lind.pp_index, variant=variant)
    params = ConverseBoundParams(t=t, c=lind.pp_index, diamond=lind.diamond_upper,
                                 zeta=zeta)
    return BoundReport(
        name=f"clsi-converse[{variant}]",
        lhs=d_post, rhs=g * d_pre.value, factor=g,
        params=params, tau_star=tau_star, g_star=g,
    )


def replacement_converse_factor(zeta: float, c: float,
                                tau: float | str = "optimize") -> float:
    """Factor of D((1-zeta) rho + zeta sigma || sigma) >= factor * D(rho||sigma)
    for rho <= c sigma; shares its optimizer with g_factor."""
    if tau == "optimize":
        g, _ = g_factor(zeta, c, variant="theorem")
        return g
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau!r}")
    return max(_g_objective(zeta, entropy.kappa(c))(tau), 0.0)


def classical_converse_factor(params: ConverseBoundParams, branch: str) -> float:
    """Branch factors of the commuting-state converse.

    large-D branch (D >= a m^2 / 2):
        1 - eps - 2 f_m(eps) / (a m^2)
    small-D branch (D <= a m^2 / 2):
        (1 - a)(1 - eps)^2 / ((1 - eps)(1 - a) + eps g_tilde)
    Feasibility a m^2 > 2 f_m(eps)/(1 - eps) is enforced for both.
    """
    a = params.resolved_a()
    if not 0.0 < a < 1.0:
        raise InfeasibleParamsError(f"a must lie in (0, 1), got {a!r}")
    eps, m = params.eps, params.m_tilde
    f = entropy.f_almost_concavity(eps, m)
    if a * m * m <= 2.0 * f / (1.0 - eps):
        raise InfeasibleParamsError(
            f"infeasible triple: a m^2 = {a * m * m:.6g} but "
            f"2 f(eps)/(1-eps) = {2 * f / (1 - eps):.6g}")
    if branch == "large-D":
        return 1.0 - eps - 2.0 * f / (a * m * m)
    if branch == "small-D":
        return ((1.0 - a) * (1.0 - eps) ** 2
                / ((1.0 - eps) * (1.0 - a) + eps * params.g_tilde))
    raise ValueError(f"unknown branch {branch!r}")


def _check_commuting(*mats: np.ndarray) -> None:
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            dev = float(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i]).max())
            if dev > matcore.COMMUTE_ATOL:
                raise ValueError(f"matrices {i} and {j} do not commute: |[.,.]| = {dev:.3e}")


def _branch_report(name: str, params: ConverseBoundParams, lhs: float,
                   pre: float, pre_key: str) -> BoundReport:
    """Report lhs against factor * pre on the branch that pre selects."""
    a = params.resolved_a()
    branch = "large-D" if pre >= a * params.m_tilde ** 2 / 2.0 else "small-D"
    resolved = replace(params, a=a)
    factor = classical_converse_factor(resolved, branch)
    return BoundReport(
        name=f"{name}[{branch}]",
        lhs=lhs, rhs=factor * pre, factor=factor, params=resolved,
        extra={"branch": branch, pre_key: pre},
    )


def classical_converse_check(e: ConditionalExpectation, rho: DensityMatrix,
                             sigma: DensityMatrix, times: Sequence[float], c: float,
                             diamond: float) -> tuple[BoundReport, ...]:
    """Commuting-state converse under the replacement semigroup, one report
    per time; m_tilde and g_tilde come from sigma and E(sigma).

    Noise keeps amplitude eps_keep = 1 - eps on the state and mixes in the
    shared fixed point E(rho) = E(sigma) with weight eps; the exact decayed
    relative entropy is compared against the branch factor.
    """
    e_rho, e_sigma = DensityMatrix.from_matrices(
        [e.apply_matrix(rho.matrix), e.apply_matrix(sigma.matrix)])
    _check_commuting(rho.matrix, sigma.matrix)
    _check_commuting(rho.matrix, e_rho.matrix)
    img_dev = matcore.trace_norm(e_rho.matrix - e_sigma.matrix)
    if img_dev > 1e-10:
        raise ValueError(f"E(rho) != E(sigma): trace distance {img_dev:.3e}")
    d_pre = entropy.relative_entropy(rho, sigma).unwrap()
    m_tilde = smallest_nonzero_eigenvalue_direct_sum(sigma, e_sigma)
    g_tilde = matcore.loewner_min_coefficient(e_sigma, sigma)
    params = [ConverseBoundParams.from_semigroup(t, c, diamond, m_tilde=m_tilde,
                                                 g_tilde=g_tilde) for t in times]
    mixed = DensityMatrix.from_matrices([(1 - p.eps) * x.matrix + p.eps * e_x.matrix
                                         for p in params
                                         for x, e_x in ((rho, e_rho), (sigma, e_sigma))])
    return tuple(
        _branch_report("classical-converse", p,
                       entropy.relative_entropy(m_rho, m_sigma).unwrap(), d_pre, "dPre")
        for p, m_rho, m_sigma in zip(params, mixed[::2], mixed[1::2]))


def smallest_nonzero_eigenvalue_direct_sum(sigma: DensityMatrix,
                                           e_sigma: DensityMatrix) -> float:
    """m_tilde: smallest nonzero eigenvalue of sigma (+) E(sigma) compressed
    to supp(sigma)."""
    vals = list(sigma.eigenvalues[sigma.support_mask()])
    p = sigma.support_projector()
    compressed = p @ e_sigma.matrix @ p
    w, _ = matcore.eigh(compressed)
    top = max(float(w[-1]), np.finfo(float).tiny)
    vals.extend(w[w > matcore.SUPPORT_RTOL * top])
    return float(min(vals))


def mutual_info_converse_check(e_on_b: ConditionalExpectation,
                               rho: BipartiteDensity, times: Sequence[float], c: float,
                               diamond: float) -> tuple[BoundReport, ...]:
    """Mutual-information converse for classical-classical states under
    replacement noise on the B side, one report per time.

    m_tilde and g_tilde are computed from the pre-noise marginals; the
    underlying comparison is the commuting-state converse applied to
    sigma = rho_A x rho_B.
    """
    joint = rho.state.matrix
    off = float(np.abs(joint - np.diag(np.diagonal(joint))).max())
    if off > 1e-10:
        raise ValueError("input is not classical-classical (off-diagonal weight present)")
    rho_a = rho.marginal("A")
    rho_b = rho.marginal("B")
    e_rho_b = e_on_b.apply(rho_b)
    # the bound applies only when (Id x E)(rho) = rho_A x omega for some omega
    e_joint = channels.apply_on_factor(e_on_b, joint, (rho.dim_a, rho.dim_b), 1)
    target = matcore.tensor(rho_a.matrix, e_rho_b.matrix)
    if float(np.abs(e_joint - target).max()) > 1e-9:
        raise ValueError("(Id x E)(rho) is not of product form rho_A x omega")
    sigma, e_sigma = DensityMatrix.from_matrices(
        [matcore.tensor(rho_a.matrix, rho_b.matrix), target])
    m_tilde = smallest_nonzero_eigenvalue_direct_sum(sigma, e_sigma)
    g_tilde = matcore.loewner_min_coefficient(e_rho_b, rho_b)
    i_pre = entropy.mutual_information(rho)
    params = [ConverseBoundParams.from_semigroup(t, c, diamond, m_tilde=m_tilde,
                                                 g_tilde=g_tilde) for t in times]
    mixed = DensityMatrix.from_matrices([(1 - p.eps) * joint + p.eps * e_joint
                                         for p in params])
    return tuple(
        _branch_report("mutual-info-converse", p,
                       entropy.mutual_information(BipartiteDensity(rho.dim_a, rho.dim_b, m)),
                       i_pre, "iPre")
        for p, m in zip(params, mixed))


def decayed_state_bound_check(rho: DensityMatrix, sigma: DensityMatrix,
                              theta_dens: DensityMatrix, omega: DensityMatrix,
                              eps: float, zeta: float,
                              c: float | None = None) -> BoundReport:
    """Partial-replacement comparison
    D((1-eps) rho + eps theta || (1-eps) sigma + eps theta)
      >= (zeta / (c eps)) ((1-eps)/(1-zeta))^2
         D((1-zeta) rho + zeta omega || (1-zeta) sigma + zeta omega)
    for theta <= c omega and eps >= zeta."""
    if c is None:
        c = matcore.loewner_min_coefficient(theta_dens, omega, strict=True)
        if not math.isfinite(c):
            raise ValueError("theta has weight outside supp(omega)")
        c = max(c, 1.0)
    else:
        check = matcore.loewner_min_coefficient(theta_dens, omega, strict=True)
        if check > c * (1 + 1e-9):
            w = check
            raise ValueError(f"order precondition fails: smallest valid c is {w!r}")
    if not (0.0 < zeta <= eps < 1.0):
        raise ValueError("need 0 < zeta <= eps < 1")
    lhs_rho, lhs_sigma, rhs_rho, rhs_sigma = DensityMatrix.from_matrices(
        [(1 - w) * x.matrix + w * y.matrix
         for w, y in ((eps, theta_dens), (zeta, omega)) for x in (rho, sigma)])
    lhs = entropy.relative_entropy(lhs_rho, lhs_sigma).unwrap()
    d_rhs = entropy.relative_entropy(rhs_rho, rhs_sigma).unwrap()
    factor = (zeta / (c * eps)) * ((1 - eps) / (1 - zeta)) ** 2
    params = ConverseBoundParams(c=c, zeta=zeta, eps=eps)
    return BoundReport(name="decayed-state", lhs=lhs, rhs=factor * d_rhs,
                       factor=factor, params=params, extra={"dRhs": d_rhs})


def origcompare_check(rho: DensityMatrix, sigma: DensityMatrix,
                      omega: DensityMatrix, eps: float, zeta: float) -> BoundReport:
    """Upper comparison of the original relative entropy by the mixed one:
    D(rho||sigma) <= (1/(1-eps)^2) (1 + eps (g/(1-zeta) - 1))
                     D((1-eps) rho + eps omega || (1-eps) sigma + eps omega)
    under rho >= (1-zeta) sigma."""
    if not (0.0 <= eps < 1.0 and 0.0 <= zeta < 1.0):
        raise ValueError("eps and zeta must lie in [0, 1)")
    floor = rho.matrix - (1 - zeta) * sigma.matrix
    wmin = float(matcore.eigh(floor)[0][0])
    if wmin < -1e-10:
        raise ValueError(f"precondition rho >= (1-zeta) sigma fails by {wmin!r}")
    p = sigma.support_projector()
    g = matcore.loewner_min_coefficient(p @ omega.matrix @ p, sigma)
    factor = (1.0 + eps * (g / (1 - zeta) - 1.0)) / (1 - eps) ** 2
    d_orig = entropy.relative_entropy(rho, sigma).unwrap()
    mixed_rho, mixed_sigma = DensityMatrix.from_matrices(
        [(1 - eps) * x.matrix + eps * omega.matrix for x in (rho, sigma)])
    d_mixed = entropy.relative_entropy(mixed_rho, mixed_sigma).unwrap()
    # report in lhs >= rhs form: factor * D_mixed >= D_orig
    params = ConverseBoundParams(zeta=zeta, eps=eps, g_tilde=g)
    return BoundReport(name="origcompare", lhs=factor * d_mixed, rhs=d_orig,
                       factor=factor, params=params,
                       extra={"dOrig": d_orig, "dMixed": d_mixed})

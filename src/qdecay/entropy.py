"""Entropic functionals on finite-dimensional states.

All quantities are in nats.  Relative entropy is available through two
independent computation paths: the eigenbasis formula tr(rho log rho) -
tr(rho log sigma), and a double-integral representation built from
resolvent-weighted norms, evaluated by tensor Gauss-Legendre quadrature.
Their agreement is one of the standing cross-checks of the package.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import BipartiteDensity, DensityMatrix

ZERO_CLIP = 1e-18
PINSKER_SLACK = 1e-12

# Entropy formulas must resolve genuinely tiny spectrum (the sweeps push
# eigenvalues toward theta^2 ~ 1e-13); the rank rule used for Loewner
# queries (matcore.SUPPORT_RTOL = 1e-12) is far too coarse here, so the
# support pruning for log arguments sits just above machine noise.
ENTROPY_SUPPORT_RTOL = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class EntropyValue:
    """Relative entropy result; infinite is an explicit flag, not a float."""

    value: float
    finite: bool = True

    def unwrap(self) -> float:
        if not self.finite:
            raise ValueError("relative entropy is infinite")
        return self.value

    def __float__(self) -> float:
        return self.value if self.finite else math.inf

    @staticmethod
    def infinite() -> "EntropyValue":
        return EntropyValue(math.inf, finite=False)


def _entropy_of_spectrum(w: np.ndarray) -> float:
    w = w[w > ZERO_CLIP]
    return float(-(w * np.log(w)).sum())


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """H(rho) = -sum lambda_i ln lambda_i, with 0 ln 0 = 0."""
    return _entropy_of_spectrum(rho.eigenvalues)


def _compress_to_support(rho: DensityMatrix, sigma: DensityMatrix):
    """rho compressed to supp(sigma) in sigma's eigenbasis, the support
    eigenvalues of sigma, and the weight of rho outside supp(sigma)."""
    mask = sigma.eigenvalues > ENTROPY_SUPPORT_RTOL * sigma.eigenvalues[-1]
    vs = sigma.eigenvectors[:, mask]
    compressed = vs.conj().T @ rho.matrix @ vs
    leak = float(np.trace(rho.matrix).real - np.real(np.trace(compressed)))
    return compressed, sigma.eigenvalues[mask], leak


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> EntropyValue:
    """Umegaki relative entropy tr rho (ln rho - ln sigma).

    Computed on supp(sigma); if rho carries weight outside supp(sigma)
    the result is the infinite flag.
    """
    compressed, ws, leak = _compress_to_support(rho, sigma)
    if leak > 1e-12:
        return EntropyValue.infinite()
    tr_rho_log_rho = float((rho.eigenvalues[rho.eigenvalues > ZERO_CLIP]
                            * np.log(rho.eigenvalues[rho.eigenvalues > ZERO_CLIP])).sum())
    tr_rho_log_sigma = float(np.real((np.diagonal(compressed) * np.log(ws)).sum()))
    value = tr_rho_log_rho - tr_rho_log_sigma
    if value < -1e-10:
        raise AssertionError(f"relative entropy evaluated negative: {value!r}")
    return EntropyValue(max(value, 0.0) if value < 0 else value)


def mutual_information(rho: BipartiteDensity) -> float:
    """I[A:B] = D(rho_AB || rho_A x rho_B)."""
    ra = rho.marginal("A")
    rb = rho.marginal("B")
    product = DensityMatrix.from_matrix(matcore.tensor(ra.matrix, rb.matrix))
    return relative_entropy(rho.state, product).unwrap()


def binary_entropy(p: float) -> float:
    """h(p) = -p ln p - (1-p) ln(1-p) on [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary entropy argument {p!r} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log(p) - (1 - p) * math.log1p(-p))


def kappa(c: float) -> float:
    """kappa(c) = (c ln c - c + 1) / (c - 1)^2 for c > 1; limit 1/2 at c = 1."""
    if c < 1.0:
        raise ValueError(f"kappa requires c >= 1, got {c!r}")
    d = c - 1.0
    if d < 1e-4:
        # series around c = 1 avoids cancellation in the quotient
        return 0.5 - d / 6.0 + d * d / 12.0 - d ** 3 / 20.0
    return (c * math.log(c) - c + 1.0) / (d * d)


def f_almost_concavity(eps: float, m_tilde: float) -> float:
    """Mixing penalty h(eps) + eps ln(eps + (1-eps)/m) + (1-eps) ln((1-eps) + eps/m)."""
    if not 0.0 < m_tilde <= 1.0:
        raise ValueError(f"m_tilde must lie in (0, 1], got {m_tilde!r}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps!r}")
    if eps == 0.0:
        return 0.0
    inv = 1.0 / m_tilde
    return (binary_entropy(eps)
            + eps * math.log(eps + (1 - eps) * inv)
            + (1 - eps) * math.log((1 - eps) + eps * inv))


@dataclass(frozen=True)
class PinskerReport:
    relative_entropy: float
    trace_distance: float          # ||rho - sigma||_1
    basic_bound: float             # 0.5 * ||.||_1^2
    commuting: bool
    refined_bound: float | None    # max{-ln(1 - ||.||_1^2/4), basic} when commuting
    basic_holds: bool
    refined_holds: bool | None

    @property
    def passed(self) -> bool:
        return self.basic_holds and (self.refined_holds is not False)


def pinsker_check(rho: DensityMatrix, sigma: DensityMatrix) -> PinskerReport:
    """Evaluate both sides of the Pinsker bound and, for commuting pairs,
    of its refinement max{ -ln(1 - ||.||_1^2 / 4), ||.||_1^2 / 2 }."""
    d = relative_entropy(rho, sigma)
    tn = matcore.trace_norm(rho.matrix - sigma.matrix)
    basic = 0.5 * tn * tn
    dval = float(d)
    comm = float(np.abs(rho.matrix @ sigma.matrix
                        - sigma.matrix @ rho.matrix).max()) <= matcore.COMMUTE_ATOL
    refined = None
    refined_holds = None
    if comm:
        arg = 1.0 - 0.25 * tn * tn
        refined = math.inf if arg <= 0 else max(-math.log(arg), basic)
        refined_holds = dval >= refined - PINSKER_SLACK
    return PinskerReport(
        relative_entropy=dval,
        trace_distance=tn,
        basic_bound=basic,
        commuting=comm,
        refined_bound=refined,
        basic_holds=dval >= basic - PINSKER_SLACK,
        refined_holds=refined_holds,
    )


def _log_mean_weights(w: np.ndarray) -> np.ndarray:
    """Matrices of (ln a - ln b)/(a - b) over the last axis of an eigenvalue
    array (one vector or a stack), with the continuous value 1/a on the
    diagonal and for nearly equal pairs.  Nonpositive eigenvalues are
    clamped to the smallest normal double before the logarithm."""
    a = w[..., :, None]
    b = w[..., None, :]
    diff = a - b
    close = np.abs(diff) <= 1e-12 * np.maximum(a, b)
    tiny = np.finfo(float).tiny
    logw = np.log(np.maximum(w, tiny))
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (logw[..., :, None] - logw[..., None, :]) / diff
    sums = np.broadcast_to(a, close.shape)[close] + np.broadcast_to(b, close.shape)[close]
    lam[close] = 2.0 / np.maximum(sums, tiny)
    return lam


def weighted_norm_sq(x: np.ndarray, omega: DensityMatrix) -> float:
    """|| X ||^2 weighted by the resolvents of omega:
    integral over r of tr[ X (r+omega)^-1 X (r+omega)^-1 ].

    Closed form in omega's eigenbasis: sum_ij |X_ij|^2 (ln a_i - ln a_j)/(a_i - a_j).
    Weight of X outside supp(omega) makes the integral divergent: returns inf.
    """
    x = matcore.as_hermitian(x)
    mask = omega.eigenvalues > ENTROPY_SUPPORT_RTOL * omega.eigenvalues[-1]
    v = omega.eigenvectors
    xt = v.conj().T @ x @ v
    out_block = np.abs(xt[~mask][:, ~mask]).max() if (~mask).any() else 0.0
    cross = np.abs(xt[~mask][:, mask]).max() if (~mask).any() and mask.any() else 0.0
    scale = max(1.0, float(np.abs(x).max()))
    if max(out_block, cross) > 1e-12 * scale:
        return math.inf
    w = omega.eigenvalues[mask]
    xs = xt[mask][:, mask]
    lam = _log_mean_weights(w)
    return float(np.real((np.abs(xs) ** 2 * lam).sum()))


@functools.lru_cache(maxsize=4)
def _symmetric_gauss_rule(quad_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct nodes t = s_i s_j (i <= j) of the q x q tensor Gauss-Legendre
    rule on the (s, u) unit square, and their weights: jacobian s, summed
    over (i, j) and (j, i), once on the diagonal.  Built once per node
    count; the arrays are read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    s = 0.5 * (nodes + 1.0)
    ws = 0.5 * weights
    i, j = np.triu_indices(quad_points)
    t = s[i] * s[j]
    wts = ws[i] * ws[j] * np.where(i == j, s[i], s[i] + s[j])
    t.setflags(write=False)
    wts.setflags(write=False)
    return t, wts


def relative_entropy_integral_form(rho: DensityMatrix, sigma: DensityMatrix,
                                   quad_points: int = 64) -> float:
    """Relative entropy via the nested double integral of resolvent norms,
    D = int_0^1 int_0^s || rho - sigma ||^2_{((1-t) sigma + t rho)^-1} dt ds,
    with the inner variable substituted t = s u and tensor Gauss-Legendre
    nodes on the (s, u) unit square.

    The integrand depends on t = s_i s_j only, which is symmetric in the
    node pair (i, j), so each of the q (q + 1) / 2 distinct nodes i <= j is
    evaluated once, carrying the weight of both orderings.  The rule is
    built once per node count.  A singular sigma is handled on its
    support: both states are compressed to supp(sigma) first, which keeps
    every omega_t positive definite.  All nodes share one eigensolve; the basis
    change V^H X V takes one BLAS product X [V_1 ... V_n] and d broadcast
    rank-one terms for V^H.
    """
    try:
        quad_points = operator.index(quad_points)
    except TypeError:
        raise ValueError(f"quad_points must be an integer, got {quad_points!r}") from None
    if quad_points < 8:
        raise ValueError("quad_points must be at least 8")
    compressed, ws, leak = _compress_to_support(rho, sigma)
    if leak > 1e-12:
        raise ValueError("support violation: ker(sigma) is not contained in ker(rho)")
    r, s = rho.matrix, sigma.matrix
    if ws.size < sigma.dim:
        # off supp(sigma) every omega_t is singular and its log-mean weights 0/0
        r, s = compressed, np.diag(ws)
    t, wts = _symmetric_gauss_rule(quad_points)
    omegas = (1.0 - t)[:, None, None] * s + t[:, None, None] * r
    w, v = matcore.jacobi_eigh_batch(omegas)
    del omegas
    n, d = w.shape
    # y[k, m] = (X V_m)[k, :], all nodes in one (d, d) @ (d, n d) product
    y = (r - s) @ v.transpose(1, 0, 2).reshape(d, n * d)
    y = y.reshape(d, n, d)
    xt = v[:, 0, :, None].conj() * y[0, :, None, :]
    for k in range(1, d):
        xt += v[:, k, :, None].conj() * y[k, :, None, :]
    del v, y
    integrand = (np.abs(xt) ** 2 * _log_mean_weights(w)).sum(axis=(1, 2))
    return float((wts * integrand).sum())


@dataclass(frozen=True)
class SandwichReport:
    order_coefficient: float    # smallest c with rho <= c sigma
    norm_sq: float              # || rho - sigma ||^2 weighted by sigma resolvents
    lower: float                # kappa(c) * norm_sq
    relative_entropy: float
    upper: float                # norm_sq
    lower_slack: float
    upper_slack: float

    @property
    def passed(self) -> bool:
        return self.lower_slack >= -1e-10 and self.upper_slack >= -1e-10


def gaorouze_sandwich_check(rho: DensityMatrix, sigma: DensityMatrix) -> SandwichReport:
    """Two-sided comparison kappa(c) ||rho-sigma||^2_sigma <= D(rho||sigma)
    <= ||rho-sigma||^2_sigma for order-comparable pairs rho <= c sigma."""
    c = matcore.loewner_min_coefficient(rho, sigma, strict=True)
    if not math.isfinite(c):
        raise ValueError("incomparable pair: rho has weight outside supp(sigma)")
    c = max(c, 1.0)
    n2 = weighted_norm_sq(rho.matrix - sigma.matrix, sigma)
    d = relative_entropy(rho, sigma).unwrap()
    lower = kappa(c) * n2
    return SandwichReport(
        order_coefficient=c,
        norm_sq=n2,
        lower=lower,
        relative_entropy=d,
        upper=n2,
        lower_slack=d - lower,
        upper_slack=n2 - d,
    )

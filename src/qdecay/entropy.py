"""Entropic functionals on finite-dimensional states.

All quantities are in nats.  Relative entropy is available through two
independent computation paths: the eigenbasis formula tr(rho log rho) -
tr(rho log sigma), and a double-integral representation built from
resolvent-weighted norms, which Fubini reduces to one integral over the
mixing parameter, evaluated by a 2q-node Gauss-Legendre rule built by
Golub-Welsch.
Their agreement is one of the standing cross-checks of the package.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import BipartiteDensity

ZERO_CLIP = 1e-18
PINSKER_SLACK = 1e-12

# Support pruning for log arguments sits just above machine noise.  The
# pinched pure state E psi_theta = diag(cos^2 theta, sin^2 theta) has the
# genuine eigenvalue 9e-14 at theta = 3e-7; the Loewner rank rule
# (matcore.SUPPORT_RTOL = 1e-12) would drop it and put D(psi_theta || E psi_theta)
# 0.97 relative off h(sin^2 theta), where this rule is within 3e-5.
ENTROPY_SUPPORT_RTOL = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class EntropyValue:
    """Relative entropy result; value inf is the infinite one, which unwrap refuses."""

    value: float

    @property
    def finite(self) -> bool:
        return self.value != math.inf

    def unwrap(self) -> float:
        if not self.finite:
            raise ValueError("relative entropy is infinite")
        return self.value


def von_neumann_entropy(rho):
    """H(rho) = -sum lambda_i ln lambda_i, with 0 ln 0 = 0; an array of them
    for a stack of states."""
    rhos, one = matcore.batch(rho=rho)
    w = rhos.eigenvalues
    out = np.empty(len(w))
    for rows, k in matcore.support_groups(w, ZERO_CLIP):
        x = w[rows, w.shape[1] - k:]
        out[rows] = -(x * np.log(x)).sum(axis=1)
    return float(out[0]) if one else out


def relative_entropy(rho, sigma):
    """Umegaki relative entropy tr rho (ln rho - ln sigma).

    Computed on supp(sigma); if rho carries weight outside supp(sigma)
    the result is the infinite flag.  For two stacks of states (as batch
    takes them), an array of the values, inf for the flag.
    """
    rhos, sigmas, one = matcore.batch(rho=rho, sigma=sigma)
    out = np.empty(len(sigmas))
    for rows, compressed, ws, leak in matcore.support_blocks(
            rhos.matrix, sigmas.eigenvalues, sigmas.eigenvectors, ENTROPY_SUPPORT_RTOL):
        tr_log = (np.diagonal(compressed, axis1=1, axis2=2) * np.log(ws)).sum(axis=1).real
        if leak is not None:
            tr_log[leak] = -math.inf
        out[rows] = tr_log
    out = _nonnegative(-von_neumann_entropy(rhos) - out, "relative entropy")
    if not one:
        return out
    return EntropyValue(float(out[0]))


def unwrap(values: np.ndarray) -> np.ndarray:
    """Relative entropies as they are; an infinite one raises as EntropyValue.unwrap."""
    if math.inf in values:
        EntropyValue(math.inf).unwrap()
    return values


def _nonnegative(values: np.ndarray, what: str) -> np.ndarray:
    """Clamp round-off below zero to 0; a value below -1e-10 is an error."""
    low = min(values.tolist())
    if low < -1e-10:
        raise AssertionError(f"{what} evaluated negative: {low!r}")
    return values if low >= 0.0 else np.maximum(values, 0.0)


def mutual_information(rho):
    """I[A:B] = S(A) + S(B) - S(AB) from the cached joint spectrum and the two
    marginals; no product state is formed whose tiny eigenvalues could be cut.
    An array of them for a family of states."""
    states, one = matcore.batch(rho=rho)
    a, b = map(von_neumann_entropy, BipartiteDensity.marginals(states))
    value = _nonnegative(a + b - von_neumann_entropy(states.state), "mutual information")
    return float(value[0]) if one else value


def binary_entropy(p: float) -> float:
    """h(p) = -p ln p - (1-p) ln(1-p) on [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary entropy argument {p!r} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log(p) - (1 - p) * math.log1p(-p))


def kappa(c: float) -> float:
    """kappa(c) = (c ln c - c + 1) / (c - 1)^2 for c > 1; limit 1/2 at c = 1."""
    if not 1.0 <= c < math.inf:
        raise ValueError(f"kappa requires c >= 1 and finite, got {c!r}")
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
    """Both Pinsker forms on n pairs of states, one entry per pair."""

    relative_entropy: np.ndarray
    trace_distance: np.ndarray     # ||rho - sigma||_1
    basic_bound: np.ndarray        # 0.5 * ||.||_1^2
    commuting: np.ndarray
    refined_bound: np.ndarray      # max{-ln(1 - ||.||_1^2/4), basic} when commuting, else nan

    @property
    def basic_holds(self) -> np.ndarray:
        return self.relative_entropy >= self.basic_bound - PINSKER_SLACK

    @property
    def refined_holds(self) -> np.ndarray:
        """Whether the refined form holds, False where the pair does not commute."""
        return self.relative_entropy >= self.refined_bound - PINSKER_SLACK

    @property
    def passed(self) -> np.ndarray:
        return self.basic_holds & (self.refined_holds | ~self.commuting)


def pinsker_check(rho, sigma) -> PinskerReport:
    """Evaluate both sides of the Pinsker bound and, for commuting pairs,
    of its refinement max{ -ln(1 - ||.||_1^2 / 4), ||.||_1^2 / 2 }, on pairs
    of states as batch takes them."""
    rhos, sigmas, _ = matcore.batch(rho=rho, sigma=sigma)
    r, s = rhos.matrix, sigmas.matrix
    comm = matcore.commutator_max(r, s) <= matcore.COMMUTE_ATOL
    tn = matcore.trace_norm(r - s)
    basic = 0.5 * tn * tn
    refined = [(math.inf if arg <= 0 else max(-math.log(arg), b)) if c else math.nan
               for arg, b, c in zip((1.0 - 0.25 * tn * tn).tolist(), basic.tolist(), comm)]
    return PinskerReport(relative_entropy(rhos, sigmas), tn, basic, comm, np.array(refined))


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


def weighted_norm_sq(x: np.ndarray, omega):
    """|| X ||^2 weighted by the resolvents of omega:
    integral over r of tr[ X (r+omega)^-1 X (r+omega)^-1 ].

    Closed form in omega's eigenbasis: sum_ij |X_ij|^2 (ln a_i - ln a_j)/(a_i - a_j).
    X's rows off supp(omega) make the integral divergent, returning inf, once
    an entry exceeds SUPPORT_RTOL max(1, max |X|): X = rho - sigma is not PSD,
    so support_blocks' trace test does not apply.  An array for n pairs (x, omega),
    as batch takes them.
    """
    x, omegas, one = matcore.batch(x=x, omega=omega)
    ws, vs = omegas.eigenvalues, omegas.eigenvectors
    xt = vs.conj().transpose(0, 2, 1) @ x @ vs
    scale = np.maximum(1.0, np.maximum.reduce(np.abs(x), axis=(1, 2)))
    out = np.empty(len(ws))
    for rows, k in matcore.support_groups(ws, ENTROPY_SUPPORT_RTOL * ws[:, -1:]):
        j = ws.shape[1] - k
        outside = np.maximum.reduce(np.abs(xt[rows, :j]), axis=(1, 2)) if j else 0.0
        lam = _log_mean_weights(ws[rows, j:])
        value = (np.abs(xt[rows, j:, j:]) ** 2 * lam).sum(axis=(1, 2))
        out[rows] = np.where(outside > matcore.SUPPORT_RTOL * scale[rows], math.inf, value)
    return float(out[0]) if one else out


@functools.lru_cache(maxsize=4)
def _gauss_rule(quad_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t_k of the 2q-node Gauss-Legendre rule on [0, 1], and weights
    that carry the Fubini factor 1 - t_k.  Built by Golub-Welsch: the nodes
    are the eigenvalues of the Legendre Jacobi matrix (off-diagonal
    k / sqrt(4 k^2 - 1)) mapped to [0, 1], and each weight on [0, 1] is the
    squared first component of its eigenvector; numpy's leggauss weights
    are off by up to 6e-15 at 128 nodes.  Built once per node count; the
    arrays are read-only."""
    k = np.arange(1.0, 2 * quad_points)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = matcore.jacobi_eigh_batch((np.diag(off, 1) + np.diag(off, -1))[None])
    t = 0.5 * (x[0] + 1.0)
    wts = np.abs(v[0, 0]) ** 2 * (1.0 - t)
    t.setflags(write=False)
    wts.setflags(write=False)
    return t, wts


def relative_entropy_integral_form(rho, sigma, quad_points: int):
    """Relative entropy via the nested double integral of resolvent norms,
    D = int_0^1 int_0^s g(t) dt ds with g(t) = || rho - sigma ||^2_{omega_t},
    omega_t = (1-t) sigma + t rho.

    By Fubini the double integral is int_0^1 (1 - t) g(t) dt, evaluated
    with a 2q-node Gauss-Legendre rule (q = quad_points) whose weights
    carry the factor 1 - t: exact for polynomial g of degree up to
    4q - 2.  The rule is built by Golub-Welsch, once per node count.  A
    singular sigma is handled on its support: both states are compressed
    to supp(sigma) first, which keeps every omega_t positive definite.
    Each support group shares one eigensolve over its pairs' nodes; the basis
    change V^H X V takes one BLAS product X [V_1 ... V_n] per pair and d
    broadcast rank-one terms for V^H.  An array for two stacks of states.
    """
    try:
        quad_points = operator.index(quad_points)
    except TypeError:
        raise ValueError(f"quad_points must be an integer, got {quad_points!r}") from None
    if quad_points < 8:
        raise ValueError("quad_points must be at least 8")
    rhos, sigmas, one = matcore.batch(rho=rho, sigma=sigma)
    t, wts = _gauss_rule(quad_points)
    n = len(t)
    out, leaks = np.empty(len(sigmas)), np.zeros(len(sigmas), dtype=bool)
    for rows, compressed, ws, leak in matcore.support_blocks(
            rhos.matrix, sigmas.eigenvalues, sigmas.eigenvectors, ENTROPY_SUPPORT_RTOL):
        leaks[rows] = False if leak is None else leak
        p, d = ws.shape
        # off supp(sigma) every omega_t is singular and its log-mean weights 0/0
        r, s = ((compressed, ws[:, :, None] * np.eye(d)) if d < sigmas.dim
                else (rhos.matrix[rows], sigmas.matrix[rows]))
        omegas = (1.0 - t)[:, None, None] * s[:, None] + t[:, None, None] * r[:, None]
        w, v = matcore.jacobi_eigh_batch(omegas.reshape(p * n, d, d))
        del omegas
        # y[k, m] = (X_i V_m)[k, :] for node m of pair i: one (d, d) @ (d, n d) product per pair
        y = (r - s) @ v.reshape(p, n, d, d).transpose(0, 2, 1, 3).reshape(p, d, n * d)
        y = y.reshape(p, d, n, d).transpose(1, 0, 2, 3).reshape(d, p * n, d)
        xt = v[:, 0, :, None].conj() * y[0, :, None, :]
        for k in range(1, d):
            xt += v[:, k, :, None].conj() * y[k, :, None, :]
        del v, y
        integrand = (np.abs(xt) ** 2 * _log_mean_weights(w)).sum(axis=(1, 2))
        out[rows] = (wts * integrand.reshape(p, n)).sum(axis=1)
    matcore._reject(leaks.tolist(), lambda i: (
        "support violation: ker(sigma) is not contained in ker(rho)"))
    return float(out[0]) if one else out


@dataclass(frozen=True)
class SandwichReport:
    """The Gao-Rouze sandwich on n pairs of states, one entry per pair; the
    upper side is norm_sq."""

    order_coefficient: np.ndarray   # smallest c >= 1 with rho <= c sigma
    norm_sq: np.ndarray             # || rho - sigma ||^2 weighted by sigma resolvents
    lower: np.ndarray               # kappa(c) * norm_sq
    relative_entropy: np.ndarray

    @property
    def lower_slack(self) -> np.ndarray:
        return self.relative_entropy - self.lower

    @property
    def upper_slack(self) -> np.ndarray:
        return self.norm_sq - self.relative_entropy

    @property
    def passed(self) -> np.ndarray:
        return (self.lower_slack >= -1e-10) & (self.upper_slack >= -1e-10)


def gaorouze_sandwich_check(rho, sigma) -> SandwichReport:
    """Two-sided comparison kappa(c) ||rho-sigma||^2_sigma <= D(rho||sigma)
    <= ||rho-sigma||^2_sigma for order-comparable pairs rho <= c sigma, on
    pairs of states as batch takes them."""
    rhos, sigmas, _ = matcore.batch(rho=rho, sigma=sigma)
    cs = matcore.loewner_min_coefficient(rhos.matrix, sigmas, True)
    if not np.isfinite(cs).all():
        raise ValueError("incomparable pair: rho has weight outside supp(sigma)")
    cs = np.maximum(cs, 1.0)
    n2s = weighted_norm_sq(rhos.matrix - sigmas.matrix, sigmas)
    lower = np.array([kappa(c) * n2 for c, n2 in zip(cs.tolist(), n2s.tolist())])
    return SandwichReport(cs, n2s, lower, unwrap(relative_entropy(rhos, sigmas)))

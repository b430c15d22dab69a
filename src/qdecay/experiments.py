"""Quantitative demonstrations: sudden information decay, fragility under
group channels, and the flagged-channel private-rate application.

Sweeps return a SweepResult, a plain column/row table with metadata that
serializes to CSV (LF, comma separator, 17 significant digits) and JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import channels, entropy
from .channels import GroupLindbladian, KrausChannel
from .matcore import BipartiteDensity, DensityMatrix

ARTIFACT_VERSION = "0.1.0"

NOISE_KINDS = ("depolarizing", "dephasing-y")

THETA_MIN = 1e-150  # smallest sweep angle: sin^2(theta) leaves the normal doubles near 1.5e-154
MAX_THETA_POINTS = 10_000  # largest grid theta_logspace builds: the CLI's --points limit
# theta rows whose states the fragility demo builds and evaluates as one stack; bounds memory
SWEEP_CHUNK = 64


def _fmt17(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class SweepResult:
    """Tabular sweep output with reproducibility metadata."""

    columns: tuple
    rows: tuple
    metadata: dict

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt17(x) for x in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "columns": list(self.columns),
            "rows": [[_fmt17(x) for x in row] for row in self.rows],
            "metadata": self.metadata,
        }, sort_keys=True, indent=1)


def rho_theta_lambda(theta: float, lam: float, d: int = 2) -> DensityMatrix:
    """(1 - lam) |psi_theta><psi_theta| + lam I/d with the rotated pure state
    cos(theta)|0> + sin(theta)|1> living on the first two levels."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda {lam!r} outside [0, 1]")
    c, s = math.cos(theta), math.sin(theta)
    m = (lam / d) * np.eye(d, dtype=complex)
    m[0, 0] += (1 - lam) * c * c
    m[0, 1] += (1 - lam) * c * s
    m[1, 0] += (1 - lam) * c * s
    m[1, 1] += (1 - lam) * s * s
    return DensityMatrix.from_matrix(m)


def omega_theta_lambda(theta: float, lam: float, d: int = 2) -> BipartiteDensity:
    """Classical-quantum pair: flag 0 marks +theta, flag 1 marks -theta."""
    rp = rho_theta_lambda(theta, lam, d).matrix
    rm = rho_theta_lambda(-theta, lam, d).matrix
    big = np.zeros((2 * d, 2 * d), dtype=complex)
    big[:d, :d] = 0.5 * rp
    big[d:, d:] = 0.5 * rm
    return BipartiteDensity.from_matrix(big, 2, d)


def _theta_grid(grid) -> tuple:
    """Validate a sweep's theta grid: non-empty, every theta in
    [THETA_MIN, pi/4], strictly decreasing.  Returns it as a tuple of floats."""
    thetas = tuple(float(t) for t in grid)
    if not thetas:
        raise ValueError("theta grid is empty")
    if any(not THETA_MIN <= t <= math.pi / 4 for t in thetas):
        raise ValueError(f"theta values must lie in [THETA_MIN = {THETA_MIN:g}, pi/4]")
    if any(b >= a for a, b in zip(thetas, thetas[1:])):
        raise ValueError("theta grid must be strictly decreasing")
    return thetas


def theta_logspace(theta_max: float, theta_min: float, points: int) -> tuple:
    """points thetas from theta_max down to theta_min, evenly spaced in log."""
    for name, value in (("theta_max", theta_max), ("theta_min", theta_min)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if points < 1:
        raise ValueError(f"points must be at least 1, got {points!r}")
    if points > MAX_THETA_POINTS:
        raise ValueError(f"points must be at most MAX_THETA_POINTS = "
                         f"{MAX_THETA_POINTS}, got {points!r}")
    grid = np.logspace(math.log10(theta_max), math.log10(theta_min), points)
    return tuple(float(t) for t in grid)


def sudden_decay_sweep(theta_grid, lam: float, dim: int, noise: str) -> SweepResult:
    """Per theta: exact pre-noise and post-noise relative entropy to the
    computational-basis pinching E, their ratio, and ratio * ln(1/theta).

    Closed forms in s = sin^2(theta), within 1e-13 relative (mpmath) down to
    THETA_MIN.  D(rho || E rho) = S(E rho) - S(rho), E psi = diag(1 - s, s), so
    d_pre = h(s).  N psi has the level a = 1 - lam + lam/d once and b = lam/d
    d - 1 times; E moves delta = (1 - lam) s from a to one b, so d_post = delta
    ln(a/b) - (a - delta) log1p(-delta/a) - (b + delta) log1p(delta/b).  A real
    psi under dephasing-y is (1 - lam/2) psi + (lam/2)(I - psi): the same levels.
    """
    thetas = _theta_grid(theta_grid)
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if lam > 1.0 or not (lam == 0.0 or lam / dim >= np.finfo(float).tiny):
        raise ValueError("lambda must be 0, or lie in (0, 1] with lambda/dim a normal double")
    if noise not in NOISE_KINDS:
        raise ValueError(f"noise must be one of {NOISE_KINDS}")
    if noise == "dephasing-y" and dim != 2:
        raise ValueError(f"dephasing-y noise is a qubit channel; got dimension {dim}")
    rows = []
    for theta in thetas:
        s = math.sin(theta) ** 2
        d_pre, d_post = entropy.binary_entropy(s), _pinching_divergence(s, lam, dim)
        ratio = d_post / d_pre
        rows.append((theta, d_pre, d_post, ratio, ratio * math.log(1.0 / theta)))
    meta = {
        "experiment": "sudden-decay",
        "lambda": lam,
        "dim": dim,
        "noise": noise,
        "version": ARTIFACT_VERSION,
    }
    return SweepResult(
        columns=("theta", "d_pre", "d_post", "ratio", "ratio_times_log_inv_theta"),
        rows=tuple(rows), metadata=meta)


def _pinching_divergence(s: float, lam: float, d: int) -> float:
    """sudden_decay_sweep's d_post at s = sin^2(theta), derived there."""
    if lam == 0.0:
        return entropy.binary_entropy(s)
    a, b, delta = 1.0 - lam + lam / d, lam / d, (1.0 - lam) * s
    return (delta * math.log(a / b) - (a - delta) * math.log1p(-delta / a)
            - (b + delta) * math.log1p(delta / b))


def expansion_quadratic_coefficient(lam: float, d: int = 2) -> float:
    """Leading-order coefficient K(lam, d) in
    D(rho_{theta,lam} || pinch(rho_{theta,lam})) = K theta^2 + O(theta^4):
    K = (1 - lam) * ln( (1 - lam (d-1)/d) / (lam/d) ).

    Derivation: the pinched state differs from the spectrum of
    rho_{theta,lam} by moving weight (1-lam) sin^2(theta) from the top
    eigenvalue 1 - lam (d-1)/d down to lam/d, and the first-order entropy
    response is the log-ratio of the two levels.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    if lam == 1.0:
        return 0.0
    a = 1.0 - lam * (d - 1) / d
    b = lam / d
    return (1.0 - lam) * math.log(a / b)


def expansion_consistency_check(theta: float, lam: float, d: int = 2) -> dict:
    """Compare the exact post-noise relative entropy, from its closed form,
    against its quadratic coefficient times theta^2; meaningful for theta <= 1e-3."""
    if not theta <= 1e-3:
        raise ValueError("consistency check is a small-angle statement; need theta <= 1e-3")
    if d < 2:
        raise ValueError("dimension must be at least 2")
    coeff = expansion_quadratic_coefficient(lam, d)
    exact = _pinching_divergence(math.sin(theta) ** 2, lam, d)
    predicted = coeff * theta * theta
    if predicted == 0.0:
        rel = 0.0 if exact == 0.0 else math.inf
    else:
        rel = abs(exact - predicted) / predicted
    return {
        "theta": theta,
        "lambda": lam,
        "dim": d,
        "exact": exact,
        "coefficient": coeff,
        "predicted": predicted,
        "relative_deviation": rel,
    }


def group_fragility_demo(g: GroupLindbladian, t: float, theta_grid) -> SweepResult:
    """Fragility of mutual information under a group-generator semigroup.

    Finds a basis pair (i, j) whose coherence the fixed-point projection
    kills, then encodes the flag into the relative phase,
    |chi_theta> = (|i> + e^{i theta} |j>)/sqrt(2).  The projection image of
    this family is theta-independent (the diagonal block is the same for
    every theta), so once the semigroup has mixed any weight toward the
    fixed point the distinguishing information loses its ln(1/theta)
    enhancement and the pre/post ratio grows without bound as theta -> 0.
    """
    lind = channels.group_lindbladian(g)
    d = lind.dim
    # E(|i><j|) is the (i, j) block of E's Choi matrix; the first killed coherence, row-major
    kept = np.abs(channels.choi_matrix(lind.fixed_point).reshape(d, d, d, d)).max(axis=(0, 2))
    pairs = [(int(i), int(j)) for i, j in zip(*np.nonzero(kept < 1e-10)) if i != j]
    if not pairs:
        raise ValueError("fixed-point projection preserves every coherence; "
                         "no decay to exhibit")
    i, j = pairs[0]
    phi_t = lind.semigroup(t)
    rows = []
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    grid = _theta_grid(theta_grid)
    for thetas in (grid[k:k + SWEEP_CHUNK] for k in range(0, len(grid), SWEEP_CHUNK)):
        big = np.zeros((len(thetas), 2 * d, 2 * d), dtype=complex)
        for flag, sign in ((0, 1.0), (1, -1.0)):  # flag 0 carries +theta, flag 1 -theta
            vec = np.zeros((len(thetas), d), dtype=complex)
            vec[:, i] = inv_sqrt2
            vec[:, j] = [inv_sqrt2 * complex(math.cos(x), sign * math.sin(x)) for x in thetas]
            block = slice(flag * d, (flag + 1) * d)
            big[:, block, block] = 0.5 * (vec[:, :, None] * vec[:, None, :].conj())
        omegas = BipartiteDensity(2, d, DensityMatrix.from_matrices(big))
        i_pres, i_posts = (entropy.mutual_information(xs).tolist()
                           for xs in (omegas, channels.apply_to_b(phi_t, omegas)))
        rows.extend((theta, a, b, a / b if b > 0 else math.nan)  # i_post can round to 0
                    for theta, a, b in zip(thetas, i_pres, i_posts))
    meta = {
        "experiment": "group-fragility",
        "t": t,
        "dim": d,
        "generatorCount": len(g.unitaries),
        "coherencePair": [i, j],
        "version": ARTIFACT_VERSION,
    }
    return SweepResult(
        columns=("theta", "i_pre", "i_post", "ratio_pre_over_post"),
        rows=tuple(rows), metadata=meta)


def flagged_channel(lam, p, noise: str = "dephasing-y") -> KrausChannel:
    """Flagged combination: with probability p the input passes through
    unchanged behind flag 0; with probability 1-p the output is the
    Stinespring complement of the noise channel behind flag 1.  The flag
    is classical in both output and environment (Kraus operators split
    into flag-labelled blocks).  The boundary cases p = 1 (identity with
    flag) and lam = 0 (degenerate constant complement) are allowed.
    1-D arrays of lam or p give the family of those channels."""
    p = channels._parameters(p, lambda x: 0.0 < x <= 1.0, "flag probability must lie in (0, 1]")
    lam = channels._parameters(lam, lambda x: 0.0 <= x < 1.0, "noise strength must lie in [0, 1)")
    if noise not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {noise!r}; choose from {NOISE_KINDS}")
    comp = channels.complementary_channel(
        channels.depolarizing(2, lam) if noise == "depolarizing" else channels.dephasing_y(lam))
    # output C^2 x C^branch: flag f's block sits at rows f*branch to (f+1)*branch
    branch = max(2, comp.dim_out)
    lead = np.broadcast_shapes(lam.shape, p.shape)  # (n,) for a family
    m = comp.kraus.shape[-3] if lead or p < 1.0 else 0  # one channel at p = 1 has no zero operators
    ops = np.zeros(lead + (1 + m, 2 * branch, 2), dtype=complex)
    ops[..., 0, :2, :] = np.sqrt(p)[..., None, None] * np.eye(2)
    ops[..., 1:, branch:branch + comp.dim_out, :] = (
        np.sqrt(1 - p)[..., None, None, None] * comp.kraus[..., :m, :, :])
    return KrausChannel.from_kraus(ops)


def private_rate_lower_bound(p: float, lam: float, theta_grid, noise: str) -> SweepResult:
    """Single-letter private-rate lower bound sweep for the flagged channel.

    Per theta: i_kept is the mutual information of the flag-correlated input
    through the kept (identity) branch, i_env through the Stinespring
    complement of the noise (what it leaks to its environment), and the bound
    is p * i_kept - (1 - p) * i_env; the metadata records its largest
    positive value and the theta where it occurs.

    Closed forms in s = sin^2(theta) with only positive terms, within 1e-13
    relative (mpmath) down to THETA_MIN.  For the cq input I = S(mean output) -
    mean S(output), and the mean input is diag(1 - s, s): i_kept = h(s).  The
    dephasing-y complement sees only tr(Y rho) = 0, so i_env = 0.  Under
    depolarizing noise a pure input leaves h(lam/2) in the complement, and the
    mean input its entropy exchange (Schumacher, Phys. Rev. A 54, 2614, 1996),
    the spectrum of (N x id)(sqrt(1-s)|00> + sqrt(s)|11>): lam s/2, lam (1-s)/2,
    and mu, T - mu, where T = 1 - lam/2, det = (1 - s) s (lam - 3 lam^2/4) and
    mu = det / ((T + sqrt(T^2 - 4 det))/2).  With h(lam/2) = -(lam/2) ln(lam/2)
    - T ln T, i_env = (lam/2) h(s) - mu ln(mu/T) - (T - mu) log1p(-mu/T).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if noise not in NOISE_KINDS:
        raise ValueError(f"noise must be one of {NOISE_KINDS}")
    thetas = _theta_grid(theta_grid)
    total = 1.0 - lam / 2.0
    rows = []
    best = None
    for theta in thetas:
        s = math.sin(theta) ** 2
        i_kept = entropy.binary_entropy(s)
        i_env = 0.0
        det = (1.0 - s) * s * (lam - 0.75 * lam * lam)
        if noise == "depolarizing" and det > 0.0:  # det, like i_env, underflows with lam s
            mu = det / ((total + math.sqrt(total * total - 4.0 * det)) / 2.0)
            i_env = (lam / 2.0 * i_kept - mu * math.log(mu / total)
                     - (total - mu) * math.log1p(-mu / total))
        bound = p * i_kept - (1 - p) * i_env
        rows.append((theta, i_kept, i_env, bound))
        if bound > 0 and (best is None or bound > best[1]):
            best = (theta, bound)
    meta = {
        "experiment": "private-rate",
        "p": p,
        "lambda": lam,
        "noise": noise,
        "version": ARTIFACT_VERSION,
        "bestTheta": None if best is None else best[0],
        "bestBound": None if best is None else best[1],
        "positiveFound": best is not None,
    }
    return SweepResult(
        columns=("theta", "i_kept", "i_env", "rate_lower_bound"),
        rows=tuple(rows), metadata=meta)

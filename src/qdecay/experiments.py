"""Quantitative demonstrations: sudden information decay, fragility under
group channels, and the flagged-channel private-rate application.

Sweeps return a SweepResult, a plain column/row table with metadata that
serializes to CSV (LF, comma separator, 17 significant digits) and JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import channels, entropy
from .channels import GroupLindbladian, KrausChannel, Lindbladian
from .matcore import BipartiteDensity, DensityMatrix

ARTIFACT_VERSION = "0.1.0"

NOISE_KINDS = ("depolarizing", "dephasing-y")

# below this angle the pre-noise relative entropy (~ theta^2 ln(1/theta))
# sits within a few decades of the double-precision cancellation floor
THETA_PRECISION_WARNING = 1e-7


def _fmt17(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class SweepResult:
    """Tabular sweep output with reproducibility metadata."""

    columns: tuple
    rows: tuple
    metadata: dict = field(default_factory=dict)
    warnings: tuple = ()

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt17(x) for x in row))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "rows": [[_fmt17(x) for x in row] for row in self.rows],
            "metadata": self.metadata,
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


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


def _noise_channel(kind: str, lam: float, d: int) -> KrausChannel:
    if kind == "depolarizing":
        return channels.depolarizing(d, lam)
    if kind == "dephasing-y":
        return channels.dephasing_y(lam)
    raise ValueError(f"unknown noise kind {kind!r}; choose from {NOISE_KINDS}")


def _pinched(rho: DensityMatrix) -> DensityMatrix:
    return DensityMatrix.from_matrix(np.diag(np.diagonal(rho.matrix)))


def _theta_grid(grid) -> tuple:
    """Validate a sweep's theta grid: non-empty, every theta in (0, pi/4],
    strictly decreasing.  Returns it as a tuple of floats."""
    thetas = tuple(float(t) for t in grid)
    if not thetas:
        raise ValueError("theta grid is empty")
    if any(not 0.0 < t <= math.pi / 4 for t in thetas):
        raise ValueError("theta values must lie in (0, pi/4]")
    if any(b >= a for a, b in zip(thetas, thetas[1:])):
        raise ValueError("theta grid must be strictly decreasing")
    return thetas


def theta_logspace(theta_max: float, theta_min: float, points: int) -> tuple:
    """points thetas from theta_max down to theta_min, evenly spaced in log."""
    for name, value in (("theta_max", theta_max), ("theta_min", theta_min)):
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    grid = np.logspace(math.log10(theta_max), math.log10(theta_min), points)
    return tuple(float(t) for t in grid)


def _precision_warnings(thetas) -> tuple:
    """One warning per distinct theta below THETA_PRECISION_WARNING, sorted."""
    return tuple(sorted({
        f"theta={t:g} is below {THETA_PRECISION_WARNING:g}; "
        "values sit near the double-precision cancellation floor"
        for t in thetas if t < THETA_PRECISION_WARNING}))


@dataclass(frozen=True)
class SuddenDecayConfig:
    theta_grid: tuple
    lam: float = 0.1
    dim: int = 2
    noise: str = "depolarizing"

    def __post_init__(self):
        object.__setattr__(self, "theta_grid", _theta_grid(self.theta_grid))
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, got {self.dim}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"noise must be one of {NOISE_KINDS}")
        if self.noise == "dephasing-y" and self.dim != 2:
            raise ValueError(f"dephasing-y noise is a qubit channel; got dimension {self.dim}")

    @classmethod
    def logspace(cls, theta_max: float, theta_min: float, points: int,
                 lam: float = 0.1, dim: int = 2,
                 noise: str = "depolarizing") -> "SuddenDecayConfig":
        return cls(theta_logspace(theta_max, theta_min, points), lam, dim, noise)


def sudden_decay_sweep(cfg: SuddenDecayConfig) -> SweepResult:
    """Per theta: exact pre-noise and post-noise relative entropy to the
    computational-basis pinching, their ratio, and ratio * ln(1/theta)."""
    rows = []
    noise = None if cfg.lam == 0 else _noise_channel(cfg.noise, cfg.lam, cfg.dim)
    for theta in cfg.theta_grid:
        pre_state = rho_theta_lambda(theta, 0.0, cfg.dim)
        d_pre = entropy.relative_entropy(pre_state, _pinched(pre_state)).unwrap()
        if noise is None:
            post_state = pre_state
        else:
            post_state = noise.apply(pre_state)
        d_post = entropy.relative_entropy(post_state, _pinched(post_state)).unwrap()
        # below the cancellation floor d_pre can evaluate to exactly zero
        ratio = d_post / d_pre if d_pre > 0 else math.nan
        rows.append((theta, d_pre, d_post, ratio, ratio * math.log(1.0 / theta)))
    meta = {
        "experiment": "sudden-decay",
        "lambda": cfg.lam,
        "dim": cfg.dim,
        "noise": cfg.noise,
        "version": ARTIFACT_VERSION,
    }
    return SweepResult(
        columns=("theta", "d_pre", "d_post", "ratio", "ratio_times_log_inv_theta"),
        rows=tuple(rows), metadata=meta, warnings=_precision_warnings(cfg.theta_grid))


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
    """Compare the exact post-noise relative entropy against its quadratic
    coefficient times theta^2; meaningful for theta <= 1e-3."""
    if theta > 1e-3:
        raise ValueError("consistency check is a small-angle statement; need theta <= 1e-3")
    state = rho_theta_lambda(theta, lam, d)
    exact = entropy.relative_entropy(state, _pinched(state)).unwrap()
    coeff = expansion_quadratic_coefficient(lam, d)
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
    pair = None
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            e_ij = np.zeros((d, d), dtype=complex)
            e_ij[i, j] = 1.0
            if float(np.abs(lind.fixed_point.apply_matrix(e_ij)).max()) < 1e-10:
                pair = (i, j)
                break
        if pair:
            break
    if pair is None:
        raise ValueError("fixed-point projection preserves every coherence; "
                         "no decay to exhibit")
    i, j = pair
    phi_t = lind.semigroup(t)
    rows = []
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for theta in theta_grid:
        theta = float(theta)
        plus = np.zeros(d, dtype=complex)
        minus = np.zeros(d, dtype=complex)
        plus[i] = minus[i] = inv_sqrt2
        plus[j] = inv_sqrt2 * complex(math.cos(theta), math.sin(theta))
        minus[j] = inv_sqrt2 * complex(math.cos(theta), -math.sin(theta))
        big = np.zeros((2 * d, 2 * d), dtype=complex)
        big[:d, :d] = 0.5 * np.outer(plus, plus.conj())
        big[d:, d:] = 0.5 * np.outer(minus, minus.conj())
        omega = BipartiteDensity.from_matrix(big, 2, d)
        i_pre = entropy.mutual_information(omega)
        evolved = channels.apply_to_b(phi_t, omega)
        i_post = entropy.mutual_information(evolved)
        rows.append((theta, i_pre, i_post, i_pre / i_post))
    meta = {
        "experiment": "group-fragility",
        "t": t,
        "dim": d,
        "generatorCount": len(g.unitaries),
        "coherencePair": list(pair),
        "version": ARTIFACT_VERSION,
    }
    return SweepResult(
        columns=("theta", "i_pre", "i_post", "ratio_pre_over_post"),
        rows=tuple(rows), metadata=meta)


def flagged_channel(lam: float, p: float, noise: str = "dephasing-y") -> KrausChannel:
    """Flagged combination: with probability p the input passes through
    unchanged behind flag 0; with probability 1-p the output is the
    Stinespring complement of the noise channel behind flag 1.  The flag
    is classical in both output and environment (Kraus operators split
    into flag-labelled blocks).  The boundary cases p = 1 (identity with
    flag) and lam = 0 (degenerate constant complement) are allowed."""
    if not 0.0 < p <= 1.0:
        raise ValueError("flag probability must lie in (0, 1]")
    if not 0.0 <= lam < 1.0:
        raise ValueError("noise strength must lie in [0, 1)")
    comp = channels.complementary_channel(_noise_channel(noise, lam, 2))
    branch_dim = max(2, comp.dim_out)
    out_dim = 2 * branch_dim
    flag0 = np.zeros(2, dtype=complex)
    flag1 = np.zeros(2, dtype=complex)
    flag0[0] = 1.0
    flag1[1] = 1.0
    ops = []
    keep = np.zeros((branch_dim, 2), dtype=complex)
    keep[:2, :2] = np.eye(2)
    ops.append(math.sqrt(p) * _flag_block(flag0, keep, out_dim))
    if p < 1.0:
        for k in comp.kraus:
            kk = np.zeros((branch_dim, 2), dtype=complex)
            kk[:k.shape[0], :] = k
            ops.append(math.sqrt(1 - p) * _flag_block(flag1, kk, out_dim))
    return KrausChannel.from_kraus(ops)


def _flag_block(flag: np.ndarray, block: np.ndarray, out_dim: int) -> np.ndarray:
    """Kraus block |flag> tensor (block acting C^2 -> C^branch)."""
    branch = block.shape[0]
    out = np.zeros((out_dim, block.shape[1]), dtype=complex)
    idx = int(np.argmax(np.abs(flag)))
    out[idx * branch:(idx + 1) * branch, :] = block
    return out


@dataclass(frozen=True)
class PrivateRateConfig:
    p: float
    lam: float
    theta_grid: tuple = tuple(np.logspace(-1, -8, 8))
    noise: str = "dephasing-y"

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must lie in (0, 1)")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"noise must be one of {NOISE_KINDS}")
        object.__setattr__(self, "theta_grid", _theta_grid(self.theta_grid))


def private_rate_lower_bound(cfg: PrivateRateConfig) -> SweepResult:
    """Single-letter private-rate lower bound sweep for the flagged channel.

    Per theta: i_kept is the mutual information of the flag-correlated
    input through the kept (identity) branch; i_env is the mutual
    information through the Stinespring complement of the noise channel,
    which is what the noise leaks to its environment.  The reported bound
    is p * i_kept - (1 - p) * i_env; its maximum positive value and the
    witnessing theta are recorded in the metadata.
    """
    comp = channels.complementary_channel(_noise_channel(cfg.noise, cfg.lam, 2))
    rows = []
    best = None
    for theta in cfg.theta_grid:
        omega = omega_theta_lambda(theta, 0.0)
        i_kept = entropy.mutual_information(omega)
        env_state = channels.apply_to_b(comp, omega)
        i_env = entropy.mutual_information(env_state)
        bound = cfg.p * i_kept - (1 - cfg.p) * i_env
        rows.append((theta, i_kept, i_env, bound))
        if bound > 0 and (best is None or bound > best[1]):
            best = (theta, bound)
    meta = {
        "experiment": "private-rate",
        "p": cfg.p,
        "lambda": cfg.lam,
        "noise": cfg.noise,
        "version": ARTIFACT_VERSION,
        "bestTheta": None if best is None else best[0],
        "bestBound": None if best is None else best[1],
        "positiveFound": best is not None,
    }
    return SweepResult(
        columns=("theta", "i_kept", "i_env", "rate_lower_bound"),
        rows=tuple(rows), metadata=meta, warnings=_precision_warnings(cfg.theta_grid))

"""Reference constructions that only tests call: closed-form channels and
semigroups, single-state conveniences, the flag-correlated test states and
the small-angle expansion of the sudden-decay sweep.  Each is checked against
the package's own path by the tests that use it; none is reached by the
command line or the benchmark."""

from __future__ import annotations

import math

import numpy as np

from qdecay import experiments
from qdecay.channels import ConditionalExpectation, KrausChannel, SuperOperator
from qdecay.matcore import BipartiteDensity, DensityMatrix


def replacement_semigroup(e: ConditionalExpectation, t: float) -> SuperOperator:
    """exp(-t (Id - E)) = e^-t Id + (1 - e^-t) E, exactly."""
    if not t >= 0:
        raise ValueError("time must be nonnegative")
    d = e.dim
    # the weight on E through expm1: 1 - e^-t cancels at small t
    return SuperOperator(d, math.exp(-t) * np.eye(d * d, dtype=complex)
                         - math.expm1(-t) * e.matrix)


def pinching(d: int) -> ConditionalExpectation:
    """Conditional expectation deleting off-diagonal entries in the
    computational basis: its superoperator keeps the d diagonal entries of vec(rho)."""
    return ConditionalExpectation(d, np.diag(np.eye(d, dtype=complex).reshape(-1)))


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel.from_kraus([np.eye(d, dtype=complex)])


def to_superoperator(channel: KrausChannel) -> SuperOperator:
    if channel.dim_in != channel.dim_out:
        raise ValueError("square superoperator form needs dim_in == dim_out")
    out = np.zeros((channel.dim_in ** 2, channel.dim_in ** 2), dtype=complex)
    for k in channel._one():
        out += np.kron(k.conj(), k)
    return SuperOperator(channel.dim_in, out)


def apply(channel, rho: DensityMatrix) -> DensityMatrix:
    """The image of one state under a KrausChannel or a SuperOperator."""
    if isinstance(channel, KrausChannel):
        channel._one()  # a family has no single image of one state
    return DensityMatrix.from_matrix(channel.apply_matrix(rho.matrix))


def pure(vec: np.ndarray) -> DensityMatrix:
    vec = np.asarray(vec, dtype=complex)
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        raise ValueError("cannot normalize the zero vector")
    vec = vec / nrm
    return DensityMatrix.from_matrix(np.outer(vec, vec.conj()))


def diagonal(probs) -> DensityMatrix:
    p = np.asarray(probs, dtype=float)
    return DensityMatrix.from_matrix(np.diag(p.astype(complex)))


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
    return BipartiteDensity(2, d, DensityMatrix.from_matrix(big))


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
    """Compare the exact post-noise relative entropy, the sudden-decay sweep's
    closed-form d_post, against its quadratic coefficient times theta^2;
    meaningful for theta <= 1e-3."""
    if not theta <= 1e-3:
        raise ValueError("consistency check is a small-angle statement; need theta <= 1e-3")
    if d < 2:
        raise ValueError("dimension must be at least 2")
    coeff = expansion_quadratic_coefficient(lam, d)
    exact = experiments.sudden_decay_sweep((theta,), lam, d, "depolarizing").rows[0][2]
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

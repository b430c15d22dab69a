"""Quantum channels, Lindbladians and their order structure.

Channels live in two interchangeable forms: a Kraus list and a square
superoperator matrix in the column-stacking convention
vec(A rho B) = (B^T kron A) vec(rho).  On top of these sit conditional
expectations (idempotent channels), Lindbladian generators with their
fixed-point projections, Choi matrices and the completely positive
order, Stinespring complements, and a lower estimator for the diamond
norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import matcore
from .matcore import BipartiteDensity, DensityMatrix
from .rng import Rng

KRAUS_COMPLETENESS_ATOL = 1e-10
IDEMPOTENCE_ATOL = 1e-10
EXPM_TAYLOR_ORDER = 12
EXPM_SQUARING_THRESHOLD = 0.5
FIXED_POINT_GAP_TOL = 1e-8
DIAMOND_SEED = 2024
DIAMOND_MAX_ITERS = 200


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(rows, rows, order="F")


def expm_taylor(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring over a truncated Taylor
    series; works for arbitrary (non-Hermitian) square matrices."""
    m = np.asarray(m, dtype=complex)
    norm = float(np.linalg.norm(m, 1))
    squarings = 0
    if norm > EXPM_SQUARING_THRESHOLD:
        squarings = int(math.ceil(math.log2(norm / EXPM_SQUARING_THRESHOLD)))
        m = m / (2.0 ** squarings)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, EXPM_TAYLOR_ORDER + 1):
        term = term @ m / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map as a list of Kraus operators."""

    dim_in: int
    dim_out: int
    kraus: tuple

    @classmethod
    def from_kraus(cls, ops: Sequence[np.ndarray]) -> "KrausChannel":
        ops = [np.asarray(k, dtype=complex) for k in ops]
        if not ops:
            raise ValueError("need at least one Kraus operator")
        dim_out, dim_in = ops[0].shape
        for k in ops:
            if k.shape != (dim_out, dim_in):
                raise ValueError("Kraus operators have inconsistent shapes")
        comp = sum(k.conj().T @ k for k in ops)
        dev = float(np.abs(comp - np.eye(dim_in)).max())
        if dev > KRAUS_COMPLETENESS_ATOL:
            raise ValueError(f"Kraus completeness violated: |sum K^dag K - I| = {dev:.3e}")
        frozen = []
        for k in ops:
            k = k.copy()
            k.setflags(write=False)
            frozen.append(k)
        return cls(dim_in, dim_out, tuple(frozen))

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        m = np.asarray(m, dtype=complex)
        out = np.zeros((self.dim_out, self.dim_out), dtype=complex)
        for k in self.kraus:
            out += k @ m @ k.conj().T
        return out

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        if rho.dim != self.dim_in:
            raise ValueError(f"channel expects dim {self.dim_in}, got {rho.dim}")
        return DensityMatrix.from_matrix(self.apply_matrix(rho.matrix))

    def superoperator_matrix(self) -> np.ndarray:
        out = np.zeros((self.dim_out ** 2, self.dim_in ** 2), dtype=complex)
        for k in self.kraus:
            out += np.kron(k.conj(), k)
        return out

    def to_superoperator(self) -> "SuperOperator":
        if self.dim_in != self.dim_out:
            raise ValueError("square superoperator form needs dim_in == dim_out")
        return SuperOperator(self.dim_in, self.superoperator_matrix())


@dataclass(frozen=True)
class SuperOperator:
    """Square linear map on operators, column-stacking matrix of shape d^2 x d^2."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim ** 2, self.dim ** 2):
            raise ValueError(f"superoperator matrix shape {m.shape} does not match dim {self.dim}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        if np.shape(m) != (self.dim, self.dim):
            raise ValueError(f"superoperator expects dim {self.dim}, got shape {np.shape(m)}")
        return unvec(self.matrix @ vec(m), self.dim)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        return DensityMatrix.from_matrix(self.apply_matrix(rho.matrix))

    def compose(self, other: "SuperOperator") -> "SuperOperator":
        return SuperOperator(self.dim, self.matrix @ other.matrix)

    def tensor_identity(self, aux_dim: int) -> "SuperOperator":
        """This map on the left factor, identity on a right auxiliary factor."""
        d, a = self.dim, aux_dim
        # view the column-stacked matrix as a 4-tensor M[l, k, j, i]
        # (output column, output row, input column, input row)
        m4 = self.matrix.reshape(d, d, d, d)
        eye = np.eye(a, dtype=complex)
        j8 = np.einsum("lkji,mn,op->lmkojnip", m4, eye, eye)
        da = d * a
        return SuperOperator(da, j8.reshape(da * da, da * da))

    def is_trace_preserving(self) -> bool:
        d = self.dim
        tr_row = vec(np.eye(d)).conj() @ self.matrix
        return bool(np.abs(tr_row - vec(np.eye(d)).conj()).max() <= 1e-9)


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel.from_kraus([np.eye(d, dtype=complex)])


def identity_superoperator(d: int) -> SuperOperator:
    return SuperOperator(d, np.eye(d * d, dtype=complex))


def apply_on_factor(channel, m: np.ndarray, dims, which: int) -> np.ndarray:
    """Apply a map to one tensor factor of an operator on C^dims[0] x C^dims[1]
    and the identity to the other; which = 0 is the left factor, 1 the right.

    The map is a KrausChannel (possibly non-square), a SuperOperator or a
    ConditionalExpectation.  Each Kraus operator, or the column-stacked
    superoperator viewed as the 4-tensor M[l, k, j, i] (output column,
    output row, input column, input row), is contracted with the acted-on
    indices of m; the extended map is never built.
    """
    if isinstance(channel, ConditionalExpectation):
        channel = channel.superop
    d_in = channel.dim_in if isinstance(channel, KrausChannel) else channel.dim
    if dims[which] != d_in:
        raise ValueError(f"map expects dim {d_in}, got factor {which} of dim {dims[which]}")
    r = np.asarray(m, dtype=complex).reshape(dims[0], dims[1], dims[0], dims[1])
    if isinstance(channel, KrausChannel):
        spec = "ai,ibjc,dj->abdc" if which == 0 else "ab,ibjc,dc->iajd"
        out = sum(np.einsum(spec, k, r, k.conj()) for k in channel.kraus)
    else:
        m4 = channel.matrix.reshape(d_in, d_in, d_in, d_in)
        out = np.einsum("lkji,ibjc->kblc" if which == 0 else "lkji,aibj->akbl", m4, r)
    n = out.shape[0] * out.shape[1]
    return out.reshape(n, n)


def apply_to_b(channel, rho: BipartiteDensity) -> BipartiteDensity:
    """Apply a KrausChannel, SuperOperator or ConditionalExpectation to the
    B factor of a bipartite density."""
    out = apply_on_factor(channel, rho.state.matrix, (rho.dim_a, rho.dim_b), 1)
    return BipartiteDensity.from_matrix(out, rho.dim_a, out.shape[0] // rho.dim_a)


def depolarizing(d: int, lam: float) -> KrausChannel:
    """rho -> (1 - lam) rho + lam I/d.

    Same family as the semigroup exp(-t L_dep) under lam = 1 - e^(-t).
    Kraus set: sqrt(1-lam) I together with sqrt(lam/d) |i><j| over all i, j.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"depolarizing strength {lam!r} outside [0, 1]")
    ops = []
    if lam < 1.0:
        ops.append(math.sqrt(1.0 - lam) * np.eye(d, dtype=complex))
    if lam > 0.0:
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = math.sqrt(lam / d)
                ops.append(e)
    return KrausChannel.from_kraus(ops)


_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def dephasing_y(lam: float) -> KrausChannel:
    """Qubit dephasing toward the Pauli Y eigenbasis:
    rho -> (1 - lam) rho + lam E_Y(rho) = (1 - lam/2) rho + (lam/2) Y rho Y."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"dephasing strength {lam!r} outside [0, 1]")
    ops = [math.sqrt(1.0 - lam / 2.0) * np.eye(2, dtype=complex)]
    if lam > 0.0:
        ops.append(math.sqrt(lam / 2.0) * _PAULI_Y)
    return KrausChannel.from_kraus(ops)


@dataclass(frozen=True)
class ConditionalExpectation:
    """Idempotent trace-preserving projection onto a fixed-point subalgebra."""

    superop: SuperOperator

    def __post_init__(self):
        m = self.superop.matrix
        dev = float(np.abs(m @ m - m).max())
        if dev > IDEMPOTENCE_ATOL:
            raise ValueError(f"conditional expectation not idempotent: |E^2 - E| = {dev:.3e}")
        if not self.superop.is_trace_preserving():
            raise ValueError("conditional expectation is not trace-preserving")

    @property
    def dim(self) -> int:
        return self.superop.dim

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        return self.superop.apply_matrix(m)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        return self.superop.apply(rho)


def pinching(basis: np.ndarray | int) -> ConditionalExpectation:
    """Conditional expectation deleting off-diagonal entries in a basis.

    basis is either a unitary whose columns are the basis, or a dimension
    (computational basis).
    """
    if isinstance(basis, (int, np.integer)):
        u = np.eye(int(basis), dtype=complex)
    else:
        u = np.asarray(basis, dtype=complex)
        if float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()) > 1e-10:
            raise ValueError("pinching basis is not unitary")
    d = u.shape[0]
    m = np.zeros((d * d, d * d), dtype=complex)
    for l in range(d):
        p = np.outer(u[:, l], u[:, l].conj())
        m += np.kron(p.conj(), p)
    return ConditionalExpectation(SuperOperator(d, m))


def depolarizing_projection(d: int) -> ConditionalExpectation:
    """Projection onto the trivial algebra: rho -> tr(rho) I/d."""
    m = np.outer(vec(np.eye(d, dtype=complex) / d), vec(np.eye(d, dtype=complex)).conj())
    return ConditionalExpectation(SuperOperator(d, m))


def replacement_semigroup(e: ConditionalExpectation, t: float) -> SuperOperator:
    """exp(-t (Id - E)) = e^-t Id + (1 - e^-t) E, exactly."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    d = e.dim
    # the weight on E through expm1: 1 - e^-t cancels at small t
    return SuperOperator(d, math.exp(-t) * np.eye(d * d, dtype=complex)
                         - math.expm1(-t) * e.superop.matrix)


@dataclass(frozen=True)
class Lindbladian:
    """Generator L of the semigroup exp(-t L), with its fixed-point data.

    diamond_upper is an upper bound on ||L||_diamond supplied analytically
    (the numerical estimator only certifies lower bounds); pp_index is the
    completely positive order constant c with c E >= Id.
    """

    generator: SuperOperator
    fixed_point: ConditionalExpectation
    diamond_upper: float
    pp_index: float

    @property
    def dim(self) -> int:
        return self.generator.dim

    def semigroup(self, t: float) -> SuperOperator:
        if t < 0:
            raise ValueError("time must be nonnegative")
        return SuperOperator(self.dim, expm_taylor(-t * self.generator.matrix))


def semigroup_apply(lind: Lindbladian, t: float, rho: DensityMatrix) -> DensityMatrix:
    return lind.semigroup(t).apply(rho)


def replacement_lindbladian(e: ConditionalExpectation, diamond_upper: float | None = None,
                            pp_index: float | None = None) -> Lindbladian:
    """L = Id - E; ||L||_diamond <= 2 by triangle inequality since Id and E
    both have diamond norm one."""
    d = e.dim
    gen = SuperOperator(d, np.eye(d * d, dtype=complex) - e.superop.matrix)
    return Lindbladian(
        generator=gen,
        fixed_point=e,
        diamond_upper=2.0 if diamond_upper is None else diamond_upper,
        pp_index=pimsner_popa_index(e) if pp_index is None else pp_index,
    )


@dataclass(frozen=True)
class GroupLindbladian:
    """Weighted set of group generators u_j with probabilities p_j."""

    unitaries: tuple
    probs: tuple

    @classmethod
    def from_generators(cls, unitaries: Sequence[np.ndarray],
                        probs: Sequence[float]) -> "GroupLindbladian":
        us = [np.asarray(u, dtype=complex) for u in unitaries]
        ps = [float(p) for p in probs]
        if len(us) != len(ps) or not us:
            raise ValueError("need matching nonempty unitary and probability lists")
        d = us[0].shape[0]
        for u in us:
            if u.shape != (d, d):
                raise ValueError("unitaries have inconsistent dimensions")
            if float(np.abs(u.conj().T @ u - np.eye(d)).max()) > 1e-10:
                raise ValueError("generator is not unitary within tolerance")
        if any(p < 0 for p in ps) or abs(sum(ps) - 1.0) > 1e-10:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        nontrivial = False
        for u, p in zip(us, ps):
            if p > 0 and abs(abs(np.trace(u)) - d) > 1e-10:
                nontrivial = True
        if not nontrivial:
            raise ValueError("need nonzero weight on at least one non-identity unitary")
        frozen = []
        for u in us:
            u = u.copy()
            u.setflags(write=False)
            frozen.append(u)
        return cls(tuple(frozen), tuple(ps))

    @property
    def dim(self) -> int:
        return self.unitaries[0].shape[0]


def group_lindbladian(g: GroupLindbladian) -> Lindbladian:
    """L(rho) = rho - sum_j p_j (u_j rho u_j^dag + u_j^dag rho u_j)/2.

    The averaging map is self-adjoint for the Hilbert-Schmidt inner
    product, so the fixed-point projection is obtained spectrally.
    """
    d = g.dim
    avg = np.zeros((d * d, d * d), dtype=complex)
    for u, p in zip(g.unitaries, g.probs):
        avg += p * 0.5 * (np.kron(u.conj(), u) + np.kron(u.T, u.conj().T))
    gen = SuperOperator(d, np.eye(d * d, dtype=complex) - avg)
    e = fixed_point_projection(gen)
    return Lindbladian(
        generator=gen,
        fixed_point=e,
        diamond_upper=2.0,  # ||Id - average of unitary conjugations||_diamond <= 2
        pp_index=pimsner_popa_index(e),
    )


def fixed_point_projection(gen: SuperOperator) -> ConditionalExpectation:
    """Spectral projection onto the fixed points of exp(-t gen).

    Requires the superoperator matrix of the generator to be Hermitian
    (true for all generator families used here: pinching, depolarizing,
    group averages and replacement generators).  The projector onto the
    kernel of the generator is assembled from its eigenbasis; a spectral
    gap below FIXED_POINT_GAP_TOL is reported as non-convergence.
    """
    m = gen.matrix
    dev = float(np.abs(m - m.conj().T).max())
    if dev > 1e-9 * max(1.0, float(np.abs(m).max())):
        raise ValueError(
            "generator superoperator is not Hermitian; supply the fixed-point "
            "projection analytically")
    w, v = matcore.jacobi_eigh_batch(matcore.as_hermitian(m, atol=1e-9)[None])
    w, v = w[0], v[0]
    fixed = np.abs(w) <= FIXED_POINT_GAP_TOL
    moving = ~fixed
    if not fixed.any():
        raise ValueError("generator has no fixed point within tolerance")
    if moving.any() and float(np.abs(w[moving]).min()) < 10 * FIXED_POINT_GAP_TOL:
        raise ValueError(
            f"spectral gap {float(np.abs(w[moving]).min()):.3e} below resolution; "
            "supply the fixed-point projection analytically")
    vf = v[:, fixed]
    proj = vf @ vf.conj().T
    proj = (proj + proj.conj().T) / 2
    return ConditionalExpectation(SuperOperator(gen.dim, proj))


def choi_matrix(channel) -> np.ndarray:
    """(Phi kron Id) applied to the unnormalized maximally entangled state.

    Index order: output factor first, input copy second; the trace equals
    the input dimension for trace-preserving maps.
    """
    if isinstance(channel, KrausChannel):
        d_in = channel.dim_in
        c = np.zeros((channel.dim_out * d_in, channel.dim_out * d_in), dtype=complex)
        for k in channel.kraus:
            vk = np.asarray(k).reshape(-1)  # row-major flatten = sum_i (K|i>) kron |i>
            c += np.outer(vk, vk.conj())
        return c
    if isinstance(channel, (SuperOperator, ConditionalExpectation)):
        sup = channel.superop if isinstance(channel, ConditionalExpectation) else channel
        d = sup.dim
        # C[(k, i), (l, j)] = Phi(|i><j|)[k, l] = M[l, k, j, i]
        return sup.matrix.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)
    raise TypeError(f"cannot build a Choi matrix from {type(channel)!r}")


def cp_order_coefficient(phi, psi) -> float:
    """Smallest c with c Phi >=_cp Psi, via Choi matrices:
    c Choi(Phi) - Choi(Psi) >= 0 decided on supp(Choi(Phi)).  Infinite when
    Choi(Psi) has weight outside that support."""
    a = matcore.as_hermitian(choi_matrix(phi), atol=1e-8)
    b = matcore.as_hermitian(choi_matrix(psi), atol=1e-8)
    wa, va = matcore.eigh(a)
    top = max(float(wa[-1]), np.finfo(float).tiny)
    mask = wa > matcore.SUPPORT_RTOL * top
    outside = va[:, ~mask]
    if outside.size:
        leak = float(np.abs(outside.conj().T @ b @ outside).max())
        if leak > 1e-10 * max(1.0, float(np.abs(b).max())):
            return float("inf")
    vs = va[:, mask]
    ws = wa[mask]
    comp = vs.conj().T @ b @ vs
    scale = 1.0 / np.sqrt(ws)
    whitened = scale[:, None] * comp * scale[None, :]
    w, _ = matcore.eigh(matcore.as_hermitian(whitened, atol=1e-7))
    return float(w[-1])


def pimsner_popa_index(e: ConditionalExpectation) -> float:
    """Minimum c with c E >=_cp Id."""
    return cp_order_coefficient(e, identity_superoperator(e.dim))


def complementary_channel(channel: KrausChannel) -> KrausChannel:
    """Stinespring complement: the environment side of V psi = sum_k K_k psi kron |k>.

    The environment dimension equals the number of Kraus operators; no
    minimization is attempted since entropic quantities are isometry
    invariant.
    """
    m = len(channel.kraus)
    ops = []
    for i in range(channel.dim_out):
        kc = np.zeros((m, channel.dim_in), dtype=complex)
        for k_idx, k in enumerate(channel.kraus):
            kc[k_idx, :] = k[i, :]
        ops.append(kc)
    return KrausChannel.from_kraus(ops)


def diamond_norm_estimate(delta: SuperOperator, restarts: int = 8) -> float:
    """Certified lower estimate of the diamond norm of a Hermiticity-
    preserving map.

    Maximizes || (Delta kron Id)(|psi><psi|) ||_1 over pure bipartite
    states with a reference of the same dimension, by alternating ascent:
    fix the sign operator of the current output, then move to the top
    eigenvector of the induced Hermitian form.  Random restarts keep the
    estimate monotone in the restart count.
    """
    d = delta.dim
    m = delta.matrix
    herm_dev = float(np.abs(m - _conjugation_matrix(d) @ m.conj() @ _conjugation_matrix(d)).max())
    if herm_dev > 1e-8 * max(1.0, float(np.abs(m).max())):
        raise ValueError("map is not Hermiticity-preserving")
    if float(np.abs(m).max()) == 0.0:
        return 0.0
    rng = Rng(DIAMOND_SEED)
    best = 0.0
    adj = SuperOperator(d, m.conj().T)
    for r in range(restarts):
        sub = rng.substream(r)
        if r == 0:
            psi = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)  # maximally entangled
        else:
            psi = matcore.random_complex_normal(sub, (d * d,))
            psi = psi / np.linalg.norm(psi)
        val = _trace_norm_of_extended(delta, psi, d)
        for _ in range(DIAMOND_MAX_ITERS):
            out = apply_on_factor(delta, np.outer(psi, psi.conj()), (d, d), 0)
            w, v = matcore.jacobi_eigh_batch(matcore.as_hermitian(out, atol=1e-7)[None])
            sign = (v[0] * np.sign(w[0])) @ v[0].conj().T
            witness = apply_on_factor(adj, sign, (d, d), 0)
            ww, wv = matcore.jacobi_eigh_batch(matcore.as_hermitian(witness, atol=1e-7)[None])
            cand = wv[0][:, -1]
            cand_val = _trace_norm_of_extended(delta, cand, d)
            if cand_val <= val + 1e-13:
                break
            psi, val = cand, cand_val
        best = max(best, val)
    return best


def _conjugation_matrix(d: int) -> np.ndarray:
    # vec-space involution representing elementwise conjugation transport:
    # swap(kron) so that Delta preserves Hermiticity iff S Delta* S = Delta
    n = d * d
    s = np.zeros((n, n))
    for i in range(d):
        for j in range(d):
            s[j * d + i, i * d + j] = 1.0
    return s


def _trace_norm_of_extended(sup: SuperOperator, psi: np.ndarray, d: int) -> float:
    out = apply_on_factor(sup, np.outer(psi, psi.conj()), (d, d), 0)
    w, _ = matcore.jacobi_eigh_batch(matcore.as_hermitian(out, atol=1e-7)[None])
    return float(np.abs(w[0]).sum())

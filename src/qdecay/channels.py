"""Quantum channels, Lindbladians and their order structure.

Channels live in two interchangeable forms: a Kraus list and a square
superoperator matrix in the column-stacking convention
vec(A rho B) = (B^T kron A) vec(rho).  On top of these sit conditional
expectations (idempotent channels), Lindbladian generators with their
fixed-point projections, Choi matrices and the completely positive
order, Stinespring complements, and a two-sided bracket on the diamond
norm from the Choi matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import matcore
from .matcore import BipartiteDensity, DensityMatrix

KRAUS_COMPLETENESS_ATOL = 1e-10
IDEMPOTENCE_ATOL = 1e-10
FIXED_POINT_GAP_TOL = 1e-8


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def expm_taylor(generator: np.ndarray, t: float) -> np.ndarray:
    """exp(-t G) = V diag(e^(-t w)) V^dag from one eigensolve of a generator G that is
    Hermitian as a superoperator; its kernel (|w| <= FIXED_POINT_GAP_TOL, as in
    fixed_point_projection) keeps weight exactly 1 at every t.  The name predates the
    spectral form: perfbench/tracing.py wraps it by this name until ROADMAP item 1."""
    w, v = matcore.eigh(generator)
    return (v * np.exp(-t * (w * (np.abs(w) > FIXED_POINT_GAP_TOL)))) @ v.conj().T


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving map; kraus: read-only (m, dim_out, dim_in) array,
    or (n, m, dim_out, dim_in) for a family of n channels."""

    dim_in: int
    dim_out: int
    kraus: np.ndarray

    @classmethod
    def from_kraus(cls, ops: Sequence[np.ndarray]) -> "KrausChannel":
        if not len(ops):
            raise ValueError("need at least one Kraus operator")
        try:
            ops = np.array(ops, dtype=complex)
            if ops.ndim not in (3, 4):
                raise ValueError
        except ValueError:  # ragged, or not a stack of matrices
            raise ValueError("Kraus operators have inconsistent shapes") from None
        dim_out, dim_in = ops.shape[-2:]
        f = ops.reshape(ops.shape[:-3] + (-1, dim_in))  # sum K^dag K = F^dag F, per member
        dev = float(np.abs(f.conj().swapaxes(-1, -2) @ f - np.eye(dim_in)).max())
        if not dev <= KRAUS_COMPLETENESS_ATOL:
            raise ValueError(f"Kraus completeness violated: |sum K^dag K - I| = {dev:.3e}")
        ops.setflags(write=False)
        return cls(dim_in, dim_out, ops)

    def _one(self) -> np.ndarray:
        """The (m, dim_out, dim_in) operators of a single channel; a family is refused."""
        if self.kraus.ndim == 4:
            raise ValueError(f"a family of {len(self.kraus)} channels is not one map")
        return self.kraus

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """The map on a (d_in, d_in) matrix or on each matrix of an (n, d_in, d_in) stack;
        member i of a family of n maps matrix i of the stack."""
        m = np.asarray(m, dtype=complex)
        n = self.kraus.shape[:-3]  # (n,) for a family
        if (m.ndim not in (2, 3) or m.shape[-2:] != (self.dim_in, self.dim_in)
                or m.shape[:-2] != (n or m.shape[:-2])):
            raise ValueError(f"channel expects dim {self.dim_in}"
                             f"{f' and {n[0]} matrices' if n else ''}, got shape {m.shape}")
        out = np.zeros(m.shape[:-2] + (self.dim_out, self.dim_out), dtype=complex)
        for j in range(self.kraus.shape[-3]):
            k = self.kraus[..., j, :, :]
            out += k @ m @ k.conj().swapaxes(-1, -2)
        return out

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        self._one()  # a family has no single image of one state
        return DensityMatrix.from_matrix(self.apply_matrix(rho.matrix))

    def to_superoperator(self) -> "SuperOperator":
        if self.dim_in != self.dim_out:
            raise ValueError("square superoperator form needs dim_in == dim_out")
        out = np.zeros((self.dim_in ** 2, self.dim_in ** 2), dtype=complex)
        for k in self._one():
            out += np.kron(k.conj(), k)
        return SuperOperator(self.dim_in, out)


@dataclass(frozen=True, eq=False)
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
        """The map on a (d, d) matrix or on each matrix of an (n, d, d) stack."""
        m = np.asarray(m, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"superoperator expects dim {self.dim}, got shape {m.shape}")
        # vec(m) is m^T read row-major; one matrix-vector product per member
        v = m.reshape((-1,) + m.shape[-2:]).transpose(0, 2, 1).reshape(-1, self.dim ** 2, 1)
        return (self.matrix @ v).reshape(m.shape).swapaxes(-1, -2)

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


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel.from_kraus([np.eye(d, dtype=complex)])


def identity_superoperator(d: int) -> SuperOperator:
    return SuperOperator(d, np.eye(d * d, dtype=complex))


def apply_on_factor(channel, m: np.ndarray, dims, which: int) -> np.ndarray:
    """Apply a map to one tensor factor of an operator on C^dims[0] x C^dims[1],
    or of each operator of an (n, D, D) stack, and the identity to the other;
    which = 0 is the left factor, 1 the right.

    The map is a KrausChannel (possibly non-square) or a SuperOperator
    (a ConditionalExpectation is one).  Each Kraus operator, or the column-stacked
    superoperator viewed as the 4-tensor M[l, k, j, i] (output column,
    output row, input column, input row), is contracted with the acted-on
    indices of m; the extended map is never built.
    """
    d_in = channel.dim_in if isinstance(channel, KrausChannel) else channel.dim
    if dims[which] != d_in:
        raise ValueError(f"map expects dim {d_in}, got factor {which} of dim {dims[which]}")
    r = np.asarray(m, dtype=complex)
    r = r.reshape(r.shape[:-2] + (dims[0], dims[1], dims[0], dims[1]))
    if isinstance(channel, KrausChannel):
        spec = "ai,...ibjc,dj->...abdc" if which == 0 else "ab,...ibjc,dc->...iajd"
        out = sum(np.einsum(spec, k, r, k.conj()) for k in channel._one())
    else:
        m4 = channel.matrix.reshape(d_in, d_in, d_in, d_in)
        out = np.einsum("lkji,...ibjc->...kblc" if which == 0 else "lkji,...aibj->...akbl", m4, r)
    n = out.shape[-4] * out.shape[-3]
    return out.reshape(out.shape[:-4] + (n, n))


def apply_to_b(channel, rho):
    """Apply a KrausChannel or SuperOperator to the B factor of a bipartite
    density; for a family of them, the family of the images, built as one stack."""
    states, one = matcore.batch(rho=rho)
    out = apply_on_factor(channel, states.state.matrix, (states.dim_a, states.dim_b), 1)
    built = BipartiteDensity(states.dim_a, out.shape[-1] // states.dim_a,
                             DensityMatrix.from_matrices(out))
    return built[0] if one else built


def _parameters(x, ok, message: str) -> np.ndarray:
    """x as a 0-d float array, or the 1-D array of a family's members, each passing ok;
    else ValueError(message.format(value)), naming the member as matcore._reject does."""
    a = np.asarray(x, dtype=float)
    if a.ndim > 1:
        raise ValueError(f"expected a number or a 1-D array, got shape {a.shape}")
    xs = a.reshape(-1).tolist()
    matcore._reject([not ok(v) for v in xs], lambda i: message.format(xs[i]))
    return a


def depolarizing(d: int, lam) -> KrausChannel:
    """rho -> (1 - lam) rho + lam I/d.

    Same family as the semigroup exp(-t L_dep) under lam = 1 - e^(-t).
    Kraus set: sqrt(1-lam) I together with sqrt(lam/d) |i><j| over all i, j, less
    the zero ones; for a 1-D array of lam, the family of (1 + d^2, d, d) sets.
    """
    lam = _parameters(lam, lambda x: 0.0 <= x <= 1.0, "depolarizing strength {!r} outside [0, 1]")
    w = np.stack([np.sqrt(1.0 - lam)] + [np.sqrt(lam / d)] * (d * d), axis=-1)[..., None, None]
    # member i d + j of the identity's rows, reshaped, is |i><j|
    ops = w * np.concatenate([np.eye(d)[None], np.eye(d * d).reshape(d * d, d, d)])
    return KrausChannel.from_kraus(ops if lam.ndim else ops[[lam < 1.0] + [lam > 0.0] * (d * d)])


_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def dephasing_y(lam) -> KrausChannel:
    """Qubit dephasing toward the Pauli Y eigenbasis:
    rho -> (1 - lam) rho + lam E_Y(rho) = (1 - lam/2) rho + (lam/2) Y rho Y.
    For a 1-D array of lam, the family of those channels, each with both operators."""
    lam = _parameters(lam, lambda x: 0.0 <= x <= 1.0, "dephasing strength {!r} outside [0, 1]")
    w = np.stack([np.sqrt(1.0 - lam / 2.0), np.sqrt(lam / 2.0)], axis=-1)[..., None, None]
    ops = w * np.stack([np.eye(2, dtype=complex), _PAULI_Y])
    return KrausChannel.from_kraus(ops if lam.ndim else ops[[True, lam > 0.0]])


@dataclass(frozen=True, eq=False)
class ConditionalExpectation(SuperOperator):
    """Hilbert-Schmidt orthogonal trace-preserving projection onto a fixed-point subalgebra."""

    def __post_init__(self):
        super().__post_init__()
        m = self.matrix
        dev = float(np.abs(m @ m - m).max())
        if not dev <= IDEMPOTENCE_ATOL:
            raise ValueError(f"conditional expectation not idempotent: |E^2 - E| = {dev:.3e}")
        tr = vec(np.eye(self.dim))  # trace-preserving: vec(I)^dag E = vec(I)^dag
        if not float(np.abs(tr @ m - tr).max()) <= 1e-9:
            raise ValueError("conditional expectation is not trace-preserving")
        if not float(np.abs(m - m.conj().T).max()) <= 1e-9:
            raise ValueError("conditional expectation is not self-adjoint")

    @property
    def superop(self) -> SuperOperator:
        # E is its own superoperator; the benchmark's workloads read e.superop.matrix
        return self


def pinching(d: int) -> ConditionalExpectation:
    """Conditional expectation deleting off-diagonal entries in the
    computational basis: its superoperator keeps the d diagonal entries of vec(rho)."""
    return ConditionalExpectation(d, np.diag(np.eye(d, dtype=complex).reshape(-1)))


def depolarizing_projection(d: int) -> ConditionalExpectation:
    """Projection onto the trivial algebra: rho -> tr(rho) I/d."""
    m = np.outer(vec(np.eye(d, dtype=complex) / d), vec(np.eye(d, dtype=complex)).conj())
    return ConditionalExpectation(d, m)


def replacement_semigroup(e: ConditionalExpectation, t: float) -> SuperOperator:
    """exp(-t (Id - E)) = e^-t Id + (1 - e^-t) E, exactly."""
    if not t >= 0:
        raise ValueError("time must be nonnegative")
    d = e.dim
    # the weight on E through expm1: 1 - e^-t cancels at small t
    return SuperOperator(d, math.exp(-t) * np.eye(d * d, dtype=complex)
                         - math.expm1(-t) * e.matrix)


@dataclass(frozen=True, eq=False)
class Lindbladian:
    """Generator L of the semigroup exp(-t L), with its fixed-point data; L is Hermitian
    as a superoperator (Id - E and group generators are), so semigroup(t) is one eigensolve.

    diamond_upper bounds ||L||_diamond from above; diamond_norm_bracket(generator)
    certifies it in the trace-norm convention, in which the worked example's
    bounds.EXAMPLE_DIAMOND = 0.75 is half of ||Id - E_dep||_diamond = 1.5.
    pp_index is the completely positive order constant c with c E >= Id.
    """

    generator: SuperOperator
    fixed_point: ConditionalExpectation
    diamond_upper: float
    pp_index: float

    @property
    def dim(self) -> int:
        return self.generator.dim

    def semigroup(self, t: float) -> SuperOperator:
        if not 0 <= t < math.inf:
            raise ValueError("time must be nonnegative and finite")
        return SuperOperator(self.dim, expm_taylor(self.generator.matrix, t))


def replacement_lindbladian(e: ConditionalExpectation, diamond_upper: float,
                            pp_index: float) -> Lindbladian:
    """L = Id - E; diamond_upper = 2 always holds, by the triangle inequality, since
    Id and E both have diamond norm one."""
    d = e.dim
    gen = SuperOperator(d, np.eye(d * d, dtype=complex) - e.matrix)
    return Lindbladian(gen, e, diamond_upper, pp_index)


@dataclass(frozen=True, eq=False)
class GroupLindbladian:
    """Group generators u_j, a read-only (g, d, d) array, with probabilities p_j."""

    unitaries: np.ndarray
    probs: tuple

    @classmethod
    def from_generators(cls, unitaries: Sequence[np.ndarray],
                        probs: Sequence[float]) -> "GroupLindbladian":
        ps = [float(p) for p in probs]
        if len(unitaries) != len(ps) or not ps:
            raise ValueError("need matching nonempty unitary and probability lists")
        try:
            us = np.array(unitaries, dtype=complex)
        except ValueError:  # ragged
            us = np.empty(0)
        d = us.shape[-1]
        if us.shape != (len(ps), d, d):
            raise ValueError("unitaries have inconsistent dimensions")
        if not float(np.abs(us.conj().transpose(0, 2, 1) @ us - np.eye(d)).max()) <= 1e-10:
            raise ValueError("generator is not unitary within tolerance")
        if not (all(p >= 0 for p in ps) and abs(sum(ps) - 1.0) <= 1e-10):
            raise ValueError("probabilities must be nonnegative and sum to 1")
        traces = np.abs(np.trace(us, axis1=1, axis2=2))
        if not any(p > 0 and abs(t - d) > 1e-10 for t, p in zip(traces, ps)):
            raise ValueError("need nonzero weight on at least one non-identity unitary")
        us.setflags(write=False)
        return cls(us, tuple(ps))

    @property
    def dim(self) -> int:
        return self.unitaries.shape[1]


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
    w, v = matcore.jacobi_eigh_batch(matcore.as_hermitian(gen.matrix, atol=1e-9)[None])
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
    return ConditionalExpectation(gen.dim, proj)


def choi_matrix(channel) -> np.ndarray:
    """(Phi kron Id) applied to the unnormalized maximally entangled state.

    Index order: output factor first, input copy second; the trace equals
    the input dimension for trace-preserving maps.
    """
    if isinstance(channel, KrausChannel):
        # row-major flatten of K = sum_i (K|i>) kron |i>; C = sum over K of its outer products
        v = channel._one().reshape(len(channel.kraus), -1)
        return v.T @ v.conj()
    if isinstance(channel, SuperOperator):
        d = channel.dim
        # C[(k, i), (l, j)] = Phi(|i><j|)[k, l] = M[l, k, j, i]
        return channel.matrix.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)
    raise TypeError(f"cannot build a Choi matrix from {type(channel)!r}")


def cp_order_coefficient(phi, psi) -> float:
    """Smallest c with c Phi >=_cp Psi for CP maps Phi and Psi (PSD Choi matrices):
    c Choi(Phi) - Choi(Psi) >= 0 decided on supp(Choi(Phi)).  Infinite when
    Choi(Psi) has weight outside that support."""
    return matcore.loewner_min_coefficient(choi_matrix(psi), choi_matrix(phi), strict=True)


def pimsner_popa_index(e: ConditionalExpectation) -> float:
    """Minimum c with c E >=_cp Id."""
    return cp_order_coefficient(e, identity_superoperator(e.dim))


def complementary_channel(channel: KrausChannel) -> KrausChannel:
    """Stinespring complement: the environment side of V psi = sum_k K_k psi kron |k>.

    The environment dimension equals the number of Kraus operators; no
    minimization is attempted since entropic quantities are isometry
    invariant.
    """
    # complement operator i, row k is row i of K_k
    return KrausChannel.from_kraus(channel.kraus.swapaxes(-3, -2))


def diamond_norm_bracket(delta: SuperOperator) -> tuple[float, float]:
    """(lower, upper) bounds on the diamond norm of a Hermiticity-preserving map Delta,
    from one eigensolve of its Choi matrix J = V diag(w) V^dag (output factor first).

    Lower, ||J||_1 / d: the maximally entangled input gives the output J / d.
    Upper, ||Tr_out |J|||_inf with |J| = V |diag(w)| V^dag: as -|J| <= J <= |J|, the CP
    map P of Choi matrix |J| gives -(P x Id)(psi) <= (Delta x Id)(psi) <= (P x Id)(psi),
    so ||(Delta x Id)(psi)||_1 <= tr (P x Id)(psi) = tr(Tr_out|J| rho^T) for the input
    marginal rho of each pure psi.  The ends meet when Tr_out |J| is a multiple of I.
    """
    d = delta.dim
    j = choi_matrix(delta)  # Delta preserves Hermiticity iff its Choi matrix is Hermitian
    if float(np.abs(j - j.conj().T).max()) > 1e-8 * max(1.0, float(np.abs(j).max())):
        raise ValueError("map is not Hermiticity-preserving")
    w, v = matcore.jacobi_eigh_batch(((j + j.conj().T) / 2)[None])
    abs_j = (v[0] * np.abs(w[0])) @ v[0].conj().T
    top = matcore.jacobi_eigh_batch(matcore.partial_trace(abs_j, d, d, "B")[None])[0][0, -1]
    return float(np.abs(w[0]).sum()) / d, float(top)


def diamond_norm_estimate(delta: SuperOperator) -> float:
    """The certified lower end of diamond_norm_bracket.  It exists only because
    perfbench/workloads.py (_diamond_call) calls it and perfbench/tracing.py traces
    it by this name; the benchmark's switch to the bracket (ROADMAP item 1) removes it."""
    return diamond_norm_bracket(delta)[0]

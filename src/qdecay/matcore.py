"""Dense complex Hermitian linear algebra.

Everything downstream (entropies, channels, bound checks) sits on this
module: a batched complex Hermitian eigensolver (LAPACK, through
numpy.linalg.eigh), tensor and partial-trace structure, trace norms,
and Loewner-order queries.

Conventions fixed here and used globally:
  * matrices are numpy complex arrays, row-major;
  * vectorization is column-stacking (relevant to the channels module);
  * an eigenvalue counts as nonzero when it exceeds SUPPORT_RTOL times
    the largest eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .rng import Rng

HERMITIAN_ATOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10
DENSITY_TRACE_ATOL = 1e-10
SUPPORT_RTOL = 1e-12
# largest entry of a commutator [A, B] for A and B to count as commuting
COMMUTE_ATOL = 1e-10


def as_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate that m, a square matrix or an (n, d, d) stack of them, is finite
    and Hermitian within atol times max(1, max |M|) of each matrix, and return
    (M + M†)/2.  Each test is one numpy reduction and a check on Python floats."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    s = a if a.ndim == 3 else a[None]
    top = np.maximum.reduce(np.abs(s), axis=(1, 2)).tolist()
    if not math.isfinite(sum(top)):
        _reject([not math.isfinite(x) for x in top], lambda i: "matrix has non-finite entries")
    s_dag = s.conj().transpose(0, 2, 1)
    dev = np.maximum.reduce(np.abs(s - s_dag), axis=(1, 2)).tolist()
    if max(dev, default=0.0) > atol:  # else no matrix fails: its scale is at least 1
        _reject([e > atol * max(1.0, x) for e, x in zip(dev, top)],
                lambda i: f"matrix is not Hermitian: max |M - M^dagger| = {dev[i]:.3e}")
    h = s + s_dag
    h *= 0.5
    return h if a.ndim == 3 else h[0]


def _reject(bad: list, message: Callable[[int], str]) -> None:
    """Raise message(i) for the first flagged matrix i of a stack, naming i when
    the stack has more than one matrix."""
    if True in bad:
        i = bad.index(True)
        raise ValueError((f"stack member {i}: " if len(bad) > 1 else "") + message(i))


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # unitary, columns match eigenvalues


def jacobi_eigh_batch(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a stack of Hermitian matrices.

    One LAPACK call (numpy.linalg.eigh) on the (n, d, d) complex stack;
    returns (eigenvalues, eigenvectors) with eigenvalues ascending per
    matrix and eigenvector columns matching them.  Non-finite entries
    are rejected here, since every eigensolve passes through this
    function and LAPACK would otherwise return NaN spectra silently.
    The name predates the LAPACK solver; callers and the benchmark's
    tracing (perfbench/tracing.py) refer to it by this name.
    """
    A = np.asarray(stack, dtype=complex)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {A.shape}")
    if np.count_nonzero(np.isfinite(A)) != A.size:
        raise ValueError("cannot diagonalize a matrix with non-finite entries")
    return np.linalg.eigh(A)


def eigh(h: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a single Hermitian matrix, eigenvalues ascending."""
    h = as_hermitian(h)
    w, v = jacobi_eigh_batch(h[None])
    return EigenDecomposition(w[0], v[0])


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, left factor major (matches BipartiteDensity order)."""
    return np.kron(np.asarray(a), np.asarray(b))


def partial_trace(m: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Partial trace of a (dim_a*dim_b) square matrix; keep is 'A' or 'B'."""
    m = np.asarray(m)
    d = dim_a * dim_b
    if m.shape != (d, d):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dim_a}x{dim_b}")
    r = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("ijkj->ik", r)
    if keep == "B":
        return np.einsum("ijik->jk", r)
    raise ValueError("keep must be 'A' or 'B'")


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    w, _ = eigh(m)
    return float(np.abs(w).sum())


@dataclass(frozen=True)
class DensityMatrix:
    """Positive semidefinite unit-trace Hermitian matrix with cached spectrum.

    The stored matrix is reconstructed from the clamped spectrum, so the
    cached (eigenvalues, eigenvectors) pair is exactly consistent with
    .matrix.  Eigenvalues in [-1e-10, 0) are clamped to zero and the trace
    renormalized; anything more negative is rejected.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "DensityMatrix":
        return cls.from_matrices(np.asarray(m)[None])[0]

    @classmethod
    def from_matrices(cls, stack) -> tuple["DensityMatrix", ...]:
        """One density per matrix of an (n, d, d) stack, with one eigensolve; each
        member is accepted or rejected as from_matrix alone would judge it."""
        if len(stack) == 0:
            return ()
        h = as_hermitian(stack)
        if h.ndim != 3:
            raise ValueError(f"expected a stack of square matrices, got shape {h.shape}")
        tr = h.trace(0, 1, 2).real.tolist()
        if max(tr) - 1.0 > DENSITY_TRACE_ATOL or 1.0 - min(tr) > DENSITY_TRACE_ATOL:
            _reject([abs(t - 1.0) > DENSITY_TRACE_ATOL for t in tr], lambda i: (
                f"density trace {tr[i]!r} is not 1 within {DENSITY_TRACE_ATOL}"))
        w, v = jacobi_eigh_batch(h)
        low = min(w[:, 0].tolist())
        if low < DENSITY_EIG_FLOOR:
            _reject((w[:, 0] < DENSITY_EIG_FLOOR).tolist(), lambda i: (
                f"matrix is not positive semidefinite: eigenvalue {w[i, 0]!r}"))
        if low <= 0.0:  # clamping a positive spectrum would change no bit
            np.maximum(w, 0.0, out=w)
        w /= np.add.reduce(w, axis=1, keepdims=True)
        rebuilt = (v * w[:, None]) @ v.conj().transpose(0, 2, 1)
        rebuilt += rebuilt.conj().transpose(0, 2, 1)
        rebuilt *= 0.5
        for out in (rebuilt, w, v):
            out.setflags(write=False)
        return tuple([cls(rebuilt[i], w[i], v[i]) for i in range(len(w))])

    @classmethod
    def pure(cls, vec: np.ndarray) -> "DensityMatrix":
        vec = np.asarray(vec, dtype=complex)
        nrm = np.linalg.norm(vec)
        if nrm == 0:
            raise ValueError("cannot normalize the zero vector")
        vec = vec / nrm
        return cls.from_matrix(np.outer(vec, vec.conj()))

    @classmethod
    def diagonal(cls, probs) -> "DensityMatrix":
        p = np.asarray(probs, dtype=float)
        return cls.from_matrix(np.diag(p.astype(complex)))

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityMatrix":
        return cls.from_matrix(np.eye(d, dtype=complex) / d)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def support_mask(self) -> np.ndarray:
        top = self.eigenvalues[-1]
        return self.eigenvalues > SUPPORT_RTOL * max(top, np.finfo(float).tiny)

    def support_projector(self) -> np.ndarray:
        vs = self.eigenvectors[:, self.support_mask()]
        return vs @ vs.conj().T


@dataclass(frozen=True)
class BipartiteDensity:
    """Density on A tensor B with A fixed as the left factor."""

    dim_a: int
    dim_b: int
    state: DensityMatrix

    def __post_init__(self):
        if self.dim_a * self.dim_b != self.state.dim:
            raise ValueError(
                f"split {self.dim_a}x{self.dim_b} does not match dim {self.state.dim}")

    @classmethod
    def from_matrix(cls, m: np.ndarray, dim_a: int, dim_b: int) -> "BipartiteDensity":
        return cls(dim_a, dim_b, DensityMatrix.from_matrix(m))

    def marginal(self, keep: str) -> DensityMatrix:
        """Reduced state on A or B, built once and kept in the instance __dict__."""
        key = "_marginal_" + keep
        if key not in self.__dict__:
            red = partial_trace(self.state.matrix, self.dim_a, self.dim_b, keep)
            self.__dict__[key] = DensityMatrix.from_matrix(red)
        return self.__dict__[key]


def loewner_min_coefficient(rho, sigma, strict: bool = False) -> float:
    """Smallest g with g*sigma - P_sigma rho P_sigma >= 0.

    rho and sigma may be DensityMatrix instances or PSD Hermitian arrays
    (sigma's support is read off its spectrum either way).  When strict
    is set, any weight of rho outside supp(sigma) makes the answer
    infinite; otherwise rho is first compressed to supp(sigma).
    """
    rho_m = rho.matrix if isinstance(rho, DensityMatrix) else as_hermitian(rho)
    if isinstance(sigma, DensityMatrix):
        ws, vs = sigma.eigenvalues, sigma.eigenvectors
    else:
        ws, vs = eigh(as_hermitian(sigma))
    top = max(float(ws[-1]), np.finfo(float).tiny)
    mask = ws > SUPPORT_RTOL * top
    if strict:
        outside = vs[:, ~mask]
        if outside.size:
            leak = float(np.linalg.norm(outside.conj().T @ rho_m @ outside))
            if leak > SUPPORT_RTOL * max(1.0, float(np.abs(rho_m).max())):
                return float("inf")
    vsup = vs[:, mask]
    wsup = ws[mask]
    # generalized eigenvalue problem on supp(sigma): g = lmax(S^-1/2 R S^-1/2)
    compressed = vsup.conj().T @ rho_m @ vsup
    scale = 1.0 / np.sqrt(wsup)
    whitened = scale[:, None] * compressed * scale[None, :]
    w, _ = jacobi_eigh_batch(as_hermitian(whitened, atol=1e-8)[None])
    return float(w[0][-1])


def random_complex_normal(rng: Rng, shape) -> np.ndarray:
    """Standard complex normals in one draw, row-major, real part first: the
    one draw order the seeded complex Gaussian streams rely on."""
    return np.array(rng.normals(2 * math.prod(shape))).view(complex).reshape(shape)


def random_hermitian(rng: Rng, d: int) -> np.ndarray:
    """Gaussian Hermitian matrix (GUE-style up to normalization)."""
    g = random_complex_normal(rng, (d, d))
    return (g + g.conj().T) / 2


def random_densities(rng: Rng, d: int, mixes: tuple[float, ...]) -> tuple[DensityMatrix, ...]:
    """Hilbert-Schmidt random densities G G^dagger / tr, each mixed with I/d by
    its entry of mixes; all are drawn first, in order, then built together."""
    stack = []
    for mix in mixes:
        g = random_complex_normal(rng, (d, d))
        r = g @ g.conj().T
        r = r / np.trace(r).real
        stack.append((1 - mix) * r + mix * np.eye(d) / d if mix else r)
    return DensityMatrix.from_matrices(stack)


def random_density(rng: Rng, d: int, mix: float = 0.0) -> DensityMatrix:
    """One Hilbert-Schmidt random density; see random_densities."""
    return random_densities(rng, d, (mix,))[0]


def random_probability_vector(rng: Rng, d: int, floor: float = 0.0) -> np.ndarray:
    """Probability vector from exponential spacings, optionally floored."""
    x = np.array([-np.log(rng.uniform_open()) for _ in range(d)])
    p = x / x.sum()
    if floor:
        p = (1 - d * floor) * p + floor
    return p

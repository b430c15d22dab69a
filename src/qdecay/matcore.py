"""Dense complex Hermitian linear algebra.

Everything downstream (entropies, channels, bound checks) sits on this
module: a batched complex Hermitian eigensolver (LAPACK, through
numpy.linalg.eigh), tensor and partial-trace structure, trace norms,
and Loewner-order queries.

Conventions fixed here and used globally:
  * matrices are numpy complex arrays, row-major;
  * vectorization is column-stacking (relevant to the channels module);
  * support_blocks alone restricts to supp(sigma), keeping eigenvalues above
    rtol times the largest (SUPPORT_RTOL here, ENTROPY_SUPPORT_RTOL in entropy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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


def eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (eigenvalues, eigenvectors) of a single Hermitian matrix,
    eigenvalues ascending, as jacobi_eigh_batch returns a stack's."""
    w, v = jacobi_eigh_batch(as_hermitian(h)[None])
    return w[0], v[0]


def support_groups(w: np.ndarray, floor) -> list:
    """Split an (n, d) stack of ascending spectra by the number k of entries
    each row keeps above floor (a scalar or an (n, 1) column).

    Returns (rows, k) pairs, rows a slice when all rows keep as many, so that
    each group can be reduced with the bits of each row alone."""
    keep = (w > floor).sum(axis=1).tolist()
    if keep.count(keep[0]) == len(keep):
        return [(slice(None), keep[0])]
    counts = np.array(keep)
    return [(counts == k, k) for k in sorted(set(keep))]


def commutator_max(a: np.ndarray, b: np.ndarray):
    """max |AB - BA| over the entries, of two matrices or of each pair of two (n, d, d)
    stacks; A and B count as commuting when it is at most COMMUTE_ATOL."""
    return np.maximum.reduce(np.abs(a @ b - b @ a), axis=(-2, -1))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, left factor major (matches BipartiteDensity order), of two
    matrices or, pairwise, of two (n, ., .) stacks: the products np.kron makes."""
    a, b = np.asarray(a), np.asarray(b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def partial_trace(m: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Partial trace of a (dim_a*dim_b) square matrix or a stack of them; keep
    is 'A' or 'B'."""
    m = np.asarray(m)
    d = dim_a * dim_b
    if m.ndim not in (2, 3) or m.shape[-2:] != (d, d):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dim_a}x{dim_b}")
    r = m.reshape(m.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    if keep == "A":
        return np.einsum("...ijkj->...ik", r)
    if keep == "B":
        return np.einsum("...ijik->...jk", r)
    raise ValueError("keep must be 'A' or 'B'")


def trace_norm(m: np.ndarray):
    """Sum of absolute eigenvalues of a Hermitian matrix; an array of them for
    an (n, d, d) stack."""
    m, one = batch(m=m)
    out = np.abs(jacobi_eigh_batch(m)[0]).sum(axis=1)
    return float(out[0]) if one else out


@dataclass(frozen=True, slots=True, eq=False)
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
    def from_matrices(cls, stack) -> "DensityStack":
        """The DensityStack of an (n, d, d) stack's matrices, from one eigensolve; each
        is accepted or rejected as from_matrix alone would judge it."""
        if len(stack) == 0:
            raise ValueError("stack has no matrices: a DensityStack holds at least one state")
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
        return DensityStack(rebuilt, w, v)

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityMatrix":
        return cls.from_matrix(np.eye(d, dtype=complex) / d)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, slots=True, eq=False)
class DensityStack:
    """n densities of dimension d as three arrays, made read-only: matrix (n, d, d),
    eigenvalues (n, d) and eigenvectors (n, d, d).  An integer index gives a
    DensityMatrix of views, built when asked for; a slice, a boolean mask or an
    index array gives a DensityStack."""

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.matrix, self.eigenvalues, self.eigenvectors):
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def __getitem__(self, i):
        parts = self.matrix[i], self.eigenvalues[i], self.eigenvectors[i]
        return (DensityMatrix if parts[1].ndim == 1 else DensityStack)(*parts)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


@dataclass(frozen=True)
class BipartiteDensity:
    """Density on A tensor B with A fixed as the left factor; a family of them,
    indexed as its DensityStack is, when state is one."""

    dim_a: int
    dim_b: int
    state: DensityMatrix | DensityStack

    def __post_init__(self):
        if self.dim_a * self.dim_b != self.state.dim:
            raise ValueError(
                f"split {self.dim_a}x{self.dim_b} does not match dim {self.state.dim}")

    def __len__(self) -> int:
        return len(self.state)

    def __getitem__(self, i):
        return BipartiteDensity(self.dim_a, self.dim_b, self.state[i])

    @staticmethod
    def marginals(states) -> tuple:
        """The A and the B marginals of states of one split (as batch takes them) as
        two DensityStacks, built together, in one stack when dim_a == dim_b."""
        s = batch(rho=states)[0]
        red = [partial_trace(s.state.matrix, s.dim_a, s.dim_b, keep) for keep in "AB"]
        if s.dim_a != s.dim_b:
            return tuple(map(DensityMatrix.from_matrices, red))
        both = DensityMatrix.from_matrices(np.concatenate(red))
        return both[:len(s)], both[len(s):]


def _stacked(name: str, x):
    """One state (viewed) as a stack of one, a stack or family as it is, and, under the
    keywords that take matrices (trace_norm's m, weighted_norm_sq's x and
    loewner_min_coefficient's a and b), one matrix or an (n, d, d) array as a stack
    validated by as_hermitian; else a ValueError."""
    if isinstance(x, DensityMatrix):
        return DensityStack(x.matrix[None], x.eigenvalues[None], x.eigenvectors[None])
    if isinstance(x, DensityStack) or isinstance(getattr(x, "state", None), DensityStack):
        return x
    if isinstance(x, BipartiteDensity):
        return BipartiteDensity(x.dim_a, x.dim_b, _stacked(name, x.state))
    if isinstance(x, np.ndarray) and name not in ("m", "x", "a", "b"):
        raise ValueError(f"{name} is an array of shape {x.shape}, not a state or a stack: "
                         "build a stack of states with DensityMatrix.from_matrices")
    if isinstance(x, np.ndarray):
        h = as_hermitian(x)
        return h if h.ndim == 3 else h[None]
    raise ValueError(f"{name} is a {type(x).__name__}, not a state, a stack or a matrix "
                     "array: build a stack of states with DensityMatrix.from_matrices")


def batch(**named) -> tuple:
    """Each keyword argument (one state or one matrix, a DensityStack or BipartiteDensity
    family, or an (n, d, d) matrix array) as a stack, then whether the first was one
    state or one matrix.  Several arguments must have one length and one dimension; a
    ValueError names where they differ."""
    out = [_stacked(name, y) for name, y in named.items()]
    (first, x, xs), *rest = [
        (name, getattr(getattr(y, "state", y), "matrix", y),
         "matrices" if isinstance(y, np.ndarray) else "states") for name, y in zip(named, out)]
    if not len(x):
        raise ValueError(f"{first} has no {xs}: a batch holds at least one")
    for name, y, ys in rest:
        if y.shape[-1] != x.shape[-1]:
            raise ValueError(f"dimension mismatch: {first} has dim {x.shape[-1]}, "
                             f"{name} has dim {y.shape[-1]}")
        if len(y) != len(x):
            raise ValueError(f"length mismatch: {first} has {len(x)} {xs}, "
                             f"{name} has {len(y)} {ys}")
    one = named[first]
    return (*out, isinstance(getattr(one, "state", one), DensityMatrix)
            or isinstance(one, np.ndarray) and one.ndim == 2)


def support_blocks(x: np.ndarray, ws: np.ndarray, vs: np.ndarray, rtol: float):
    """Per group of rows of the (n, d, d) stack x whose sigma, of ascending eigenvalues
    ws (n, d) and eigenvectors vs (n, d, d), keeps k eigenvalues above rtol times its
    largest: the rows, V_k^dagger x V_k on those k eigenvectors, the k eigenvalues,
    and per row whether x has weight outside supp(sigma),
    tr x - tr(V_k^dagger x V_k) > SUPPORT_RTOL max(1, max |x|), or None when k = d.
    That weight test holds for PSD x only."""
    d = ws.shape[1]
    for rows, k in support_groups(ws, rtol * np.maximum(ws[:, -1:], np.finfo(float).tiny)):
        v = vs[rows, :, d - k:]
        compressed = v.conj().transpose(0, 2, 1) @ x[rows] @ v
        leak = None if k == d else (
            x[rows].trace(0, 1, 2).real - compressed.trace(0, 1, 2).real
            > SUPPORT_RTOL * np.maximum(1.0, np.maximum.reduce(np.abs(x[rows]), axis=(1, 2))))
        yield rows, compressed, ws[rows, d - k:], leak


def loewner_min_coefficient(a, b, strict: bool = False):
    """Smallest g with g*b - P_b a P_b >= 0, P_b the projector onto supp(b).

    a and b must be PSD: states or Hermitian matrices (b's support is read
    off its spectrum).  When strict is set, weight of a outside supp(b)
    (support_blocks' trace test) makes the answer infinite; otherwise a is
    compressed to supp(b).  For stacks of n (as batch takes them), an array,
    with one eigensolve per support size.
    """
    a, b, one = batch(a=a, b=b)
    a = getattr(a, "matrix", a)
    spectra = jacobi_eigh_batch(b) if isinstance(b, np.ndarray) else (b.eigenvalues, b.eigenvectors)
    out = np.empty(len(a))
    for rows, compressed, ws, leak in support_blocks(a, *spectra, SUPPORT_RTOL):
        # generalized eigenvalue problem on supp(b): g = lmax(B^-1/2 A B^-1/2)
        scale = 1.0 / np.sqrt(ws)
        whitened = scale[:, :, None] * compressed * scale[:, None, :]
        g = jacobi_eigh_batch(as_hermitian(whitened, atol=1e-8))[0][:, -1]
        if strict and leak is not None:
            g[leak] = math.inf
        out[rows] = g
    return float(out[0]) if one else out


def random_complex_normal(rng: Rng, shape) -> np.ndarray:
    """Standard complex normals in one draw, row-major, real part first: the
    one draw order the seeded complex Gaussian streams rely on.  A batched rng
    gives one array per member, along a leading axis."""
    g = rng.normals(2 * math.prod(shape)).view(complex)
    return g.reshape(g.shape[:-1] + tuple(shape))


def random_hermitian(rng: Rng, d: int) -> np.ndarray:
    """Gaussian Hermitian matrix (GUE-style up to normalization); one per
    member of a batched rng."""
    g = random_complex_normal(rng, (d, d))
    return (g + g.conj().swapaxes(-1, -2)) / 2


def hilbert_schmidt(g: np.ndarray, mix: float) -> np.ndarray:
    """G G^dagger / tr for each matrix G of an (n, d, d) stack of complex
    Gaussians, mixed with I/d by weight mix: Hilbert-Schmidt random densities."""
    r = g @ g.conj().transpose(0, 2, 1)
    r = r / r.trace(0, 1, 2).real[:, None, None]
    return (1 - mix) * r + mix * np.eye(g.shape[-1]) / g.shape[-1] if mix else r


def random_density(rng: Rng, d: int, mix: float = 0.0) -> DensityMatrix:
    """One Hilbert-Schmidt random density from d*d complex normals."""
    return DensityMatrix.from_matrix(hilbert_schmidt(random_complex_normal(rng, (1, d, d)), mix)[0])


def random_probability_vector(rng: Rng, d: int, floor: float = 0.0) -> np.ndarray:
    """Probability vector from exponential spacings, optionally floored; one
    per member of a batched rng."""
    x = -np.log(np.stack([rng.uniform_open() for _ in range(d)], axis=-1))
    p = x / x.sum(axis=-1, keepdims=True)
    if floor:
        p = (1 - d * floor) * p + floor
    return p

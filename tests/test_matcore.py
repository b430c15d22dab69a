import math

import numpy as np
import pytest

from conftest import random_unitary, stack_of
from oracles import diagonal, pure
from qdecay import entropy, matcore
from qdecay.matcore import BipartiteDensity, DensityMatrix
from qdecay.rng import Rng


def test_eigh_identity():
    w, v = matcore.eigh(np.eye(3, dtype=complex))
    assert np.allclose(w, [1, 1, 1])


def test_eigh_pauli_z():
    w, _ = matcore.eigh(np.diag([1.0, -1.0]).astype(complex))
    assert np.allclose(w, [-1, 1])


def test_eigh_reconstruction_random_4x4(rng):
    for _ in range(100):
        h = matcore.random_hermitian(rng, 4)
        w, v = matcore.eigh(h)
        recon = (v * w) @ v.conj().T
        assert np.abs(recon - h).max() < 1e-10
        assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-10
        assert np.all(np.diff(w) >= 0)


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_eigh_batch_reconstruction(d, rng):
    n = 250
    stack = np.stack([matcore.random_hermitian(rng, d) for _ in range(n)])
    w, v = matcore.jacobi_eigh_batch(stack)
    recon = v @ (w[:, :, None] * np.conj(np.transpose(v, (0, 2, 1))))
    scale = max(1.0, float(np.abs(stack).max()))
    assert np.abs(recon - stack).max() < 1e-10 * scale
    ref = np.linalg.eigvalsh(stack)
    assert np.abs(w - ref).max() < 1e-9 * scale


def _mp_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of the float matrix h computed by mpmath at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in h])
        e = mpmath.eighe(a, eigvals_only=True)
        return np.array(sorted(float(x) for x in e))


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_eigh_matches_mpmath_oracle(d, rng):
    for _ in range(3):
        h = matcore.random_hermitian(rng, d)
        w, _ = matcore.eigh(h)
        ref = _mp_eigenvalues(matcore.as_hermitian(h))
        assert np.abs(w - ref).max() < 1e-13 * max(1.0, float(np.abs(h).max()))


def test_eigh_graded_density_matches_mpmath_oracle(rng):
    u = random_unitary(rng, 16)
    h = matcore.as_hermitian((u * np.logspace(0, -15, 16)) @ u.conj().T)
    w, _ = matcore.eigh(h)
    ref = _mp_eigenvalues(h)
    assert np.abs(w - ref).max() < 1e-13 * max(1.0, float(np.abs(h).max()))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_eigensolver_rejects_non_finite_entries(bad):
    m = np.array([[0.5, bad], [bad, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        matcore.as_hermitian(m)
    with pytest.raises(ValueError, match="non-finite"):
        matcore.eigh(m)
    with pytest.raises(ValueError, match="non-finite"):
        matcore.jacobi_eigh_batch(m[None])
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix.from_matrix(m)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        matcore.eigh(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_tensor_identity_matrices():
    assert np.array_equal(matcore.tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_trace_multiplicative(rng):
    a = matcore.random_hermitian(rng, 2)
    b = matcore.random_hermitian(rng, 3)
    lhs = np.trace(matcore.tensor(a, b))
    assert abs(lhs - np.trace(a) * np.trace(b)) < 1e-12


def test_tensor_basis_projectors():
    e00 = np.zeros((2, 2)); e00[0, 0] = 1
    e11 = np.zeros((2, 2)); e11[1, 1] = 1
    out = matcore.tensor(e00, e11)
    expect = np.zeros((4, 4)); expect[1, 1] = 1
    assert np.array_equal(out, expect)


def test_tensor_bit_equal_to_kron_on_matrices_and_stacks():
    gen = np.random.default_rng(17)
    for _ in range(200):
        m, n, p, q = gen.integers(1, 5, size=4).tolist()
        a = gen.normal(size=(3, m, n)) + 1j * gen.normal(size=(3, m, n))
        b = gen.normal(size=(3, p, q)) + 1j * gen.normal(size=(3, p, q))
        for x, y in ((a[0], b[0]), (a[0].real, b[0]), (a[0], b[0].real)):
            out, expect = matcore.tensor(x, y), np.kron(x, y)
            assert out.dtype == expect.dtype and out.shape == expect.shape
            assert out.tobytes() == expect.tobytes()
        # two stacks pair up member by member
        out = matcore.tensor(a, b)
        assert out.shape == (3, m * p, n * q)
        assert all(out[i].tobytes() == np.kron(a[i], b[i]).tobytes() for i in range(3))


def test_partial_trace_product_states(rng):
    ra = matcore.random_density(rng, 2)
    rb = matcore.random_density(rng, 3)
    joint = matcore.tensor(ra.matrix, rb.matrix)
    assert np.abs(matcore.partial_trace(joint, 2, 3, "A") - ra.matrix).max() < 1e-12
    assert np.abs(matcore.partial_trace(joint, 2, 3, "B") - rb.matrix).max() < 1e-12


def test_partial_trace_bell_pair():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    rho = np.outer(bell, bell.conj())
    red = matcore.partial_trace(rho, 2, 2, "A")
    assert np.abs(red - np.eye(2) / 2).max() < 1e-12


def test_bipartite_marginals_and_the_keep_check():
    bip = BipartiteDensity(2, 2, DensityMatrix.from_matrix(
        np.diag([0.4, 0.1, 0.15, 0.35]).astype(complex)))
    rho_a = BipartiteDensity.marginals(bip)[0]
    assert np.array_equal(rho_a.matrix[0], np.diag([0.5, 0.5]).astype(complex))
    with pytest.raises(ValueError, match="keep"):
        matcore.partial_trace(bip.state.matrix, 2, 2, "C")


def test_partial_trace_preserves_trace_and_positivity(rng):
    for _ in range(200):
        rho = matcore.random_density(rng, 6)
        bip = BipartiteDensity(2, 3, rho)
        for marginal in BipartiteDensity.marginals(bip):
            red = marginal[0]
            assert abs(np.trace(red.matrix).real - 1) < 1e-10
            assert red.eigenvalues[0] >= 0


def test_trace_norm_examples(rng):
    rho = matcore.random_density(rng, 3)
    assert matcore.trace_norm(rho.matrix - rho.matrix) == 0
    e0 = pure([1, 0]).matrix
    e1 = pure([0, 1]).matrix
    assert abs(matcore.trace_norm(e0 - e1) - 2) < 1e-12
    plus = pure([1, 1]).matrix
    assert abs(matcore.trace_norm(plus - np.eye(2) / 2) - 1) < 1e-12


def test_loewner_same_state(rng):
    rho = matcore.random_density(rng, 3, mix=0.1)
    assert abs(matcore.loewner_min_coefficient(rho, rho) - 1) < 1e-9


def test_loewner_pure_vs_mixed():
    psi = pure([1, 0])
    mixed = DensityMatrix.maximally_mixed(2)
    assert abs(matcore.loewner_min_coefficient(psi, mixed) - 2) < 1e-10


def test_loewner_commuting_diagonal_ratio(rng):
    for _ in range(50):
        p = matcore.random_probability_vector(rng, 3, floor=0.05)
        q = matcore.random_probability_vector(rng, 3, floor=0.05)
        got = matcore.loewner_min_coefficient(
            diagonal(p), diagonal(q))
        assert abs(got - (p / q).max()) < 1e-9


def test_loewner_strict_infinite_outside_support():
    rho = pure([0, 1])
    sigma = pure([1, 0])
    assert matcore.loewner_min_coefficient(rho, sigma, strict=True) == math.inf


def test_loewner_order_certificate(rng):
    for _ in range(200):
        rho = matcore.random_density(rng, 3, mix=0.05)
        sigma = matcore.random_density(rng, 3, mix=0.05)
        c = matcore.loewner_min_coefficient(rho, sigma)
        gap = c * sigma.matrix - rho.matrix
        assert matcore.eigh(gap)[0][0] > -1e-9


def test_density_clamps_small_negative_eigenvalues():
    m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    rho = DensityMatrix.from_matrix(m)
    assert rho.eigenvalues[0] == 0.0
    assert abs(rho.eigenvalues.sum() - 1) < 1e-15


def test_density_rejects_big_negative_eigenvalue():
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityMatrix.from_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_density_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix.from_matrix(np.eye(2, dtype=complex))


def _parent_as_hermitian(m, atol=matcore.HERMITIAN_ATOL):
    """as_hermitian as it was before the conjugate transpose was shared."""
    m = np.asarray(m, dtype=complex)
    top = float(np.abs(m).max())
    assert math.isfinite(top)
    dev = float(np.abs(m - m.conj().T).max())
    assert dev <= atol * max(1.0, top)
    return (m + m.conj().T) / 2


def _parent_from_matrix(m):
    """DensityMatrix.from_matrix's arithmetic as it was before the trim:
    np.trace, np.clip and a renormalised copy.  Also returns the unclamped
    smallest eigenvalue."""
    h = _parent_as_hermitian(m)
    assert abs(float(np.trace(h).real) - 1.0) <= matcore.DENSITY_TRACE_ATOL
    w, v = np.linalg.eigh(h[None])
    w, v = w[0], v[0]
    smallest = float(w[0])
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    rebuilt = (v * w) @ v.conj().T
    rebuilt = (rebuilt + rebuilt.conj().T) / 2
    return rebuilt, w, v, smallest


def _density_inputs(rng, d):
    """Matrices that from_matrix accepts: Hilbert-Schmidt draws with and
    without a mixed part and a tiny anti-Hermitian part, a pure state, a
    degenerate spectrum and one with eigenvalues in [-1e-10, 0)."""
    u = random_unitary(rng, d)
    g = matcore.random_complex_normal(rng, (d, d))
    hs = g @ g.conj().T
    hs = hs / np.trace(hs).real
    skew = matcore.random_hermitian(rng, d) * 1j * 1e-12
    vec = matcore.random_complex_normal(rng, (d,))
    vec = vec / np.linalg.norm(vec)
    out = [hs, hs + skew, 0.9 * hs + 0.1 * np.eye(d) / d, np.outer(vec, vec.conj())]
    spectra = [np.where(np.arange(d) < d // 2, 2.0, 1.0)]
    if d > 1:
        spectra.append(np.linspace(1.0, 2.0, d))
        spectra[-1][: d // 2] = -1e-10
    for p in spectra:
        out.append((u * (p / p.sum())) @ u.conj().T)
    return out


@pytest.mark.parametrize("d", range(1, 9))
def test_density_construction_bit_identical_to_parent(rng, d):
    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    clamped = 0
    for m in _density_inputs(rng, d):
        assert np.array_equal(bits(matcore.as_hermitian(m)), bits(_parent_as_hermitian(m)))
        rho = DensityMatrix.from_matrix(m)
        rebuilt, w, v, smallest = _parent_from_matrix(m)
        clamped += smallest < 0
        assert np.array_equal(bits(rho.matrix), bits(rebuilt))
        assert np.array_equal(bits(rho.eigenvalues), bits(w))
        assert np.array_equal(bits(rho.eigenvectors), bits(v))
    if d > 1:
        assert clamped >= 1


def test_bipartite_dimension_check():
    with pytest.raises(ValueError, match="does not match"):
        BipartiteDensity(2, 2, DensityMatrix.maximally_mixed(6))


def test_rng_determinism_and_substreams():
    a = Rng(42)
    b = Rng(42)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]
    s1 = Rng(42).substream(3)
    s2 = Rng(42).substream(3)
    assert s1.uniform() == s2.uniform()
    assert Rng(42).substream(3).uniform() != Rng(42).substream(4).uniform()


def _word_by_word_normal(r):
    """Box-Muller from one uniform_open and one uniform draw: the reference
    for normals(n)."""
    u1 = r.uniform_open()
    u2 = r.uniform()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 32])
def test_rng_normals_match_successive_normal_draws(n):
    for seed in (0, 1, 2024, 2 ** 64 - 1):
        a, b, c = Rng(seed).substream(3), Rng(seed).substream(3), Rng(seed).substream(3)
        a.uniform()
        b.uniform()
        c.uniform()
        batch = np.array(a.normals(n))
        one_by_one = np.array([b.normal() for _ in range(n)])
        reference = np.array([_word_by_word_normal(c) for _ in range(n)])
        assert np.array_equal(batch.view(np.uint64), one_by_one.view(np.uint64))
        assert np.array_equal(batch.view(np.uint64), reference.view(np.uint64))
        assert a._counter == b._counter == c._counter == 1 + 2 * n
        assert a.uniform() == b.uniform()


@pytest.mark.parametrize("n", [1, 2, 8, 33])
def test_single_stream_normals_match_a_batched_member_and_normal(n):
    ks = np.arange(5, dtype=np.uint64)
    together = Rng(2024).substream(ks)
    together.uniform()
    members = together.normals(n)
    for k in ks.tolist():
        alone, by_normal = Rng(2024).substream(k), Rng(2024).substream(k)
        assert isinstance(alone.seed, int)
        alone.uniform()
        by_normal.uniform()
        got = alone.normals(n)
        assert got.shape == (n,)
        assert np.array_equal(got.view(np.uint64), members[k].view(np.uint64))
        assert np.array_equal(got.view(np.uint64),
                              np.array([by_normal.normal() for _ in range(n)]).view(np.uint64))
        assert alone._counter == by_normal._counter == together._counter == 1 + 2 * n
        assert alone.uniform() == by_normal.uniform()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_random_complex_normal_matches_entry_by_entry_draws(d):
    a, b = Rng(77 + d), Rng(77 + d)
    for shape in ((d, d), (d,)):
        got = matcore.random_complex_normal(a, shape)
        want = np.array([_word_by_word_normal(b) + 1j * _word_by_word_normal(b)
                         for _ in range(math.prod(shape))]).reshape(shape)
        assert got.shape == shape and got.dtype == complex
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert a._counter == b._counter


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_from_matrices_bit_identical_to_single_builds(rng, d):
    inputs = _density_inputs(rng, d)
    stacked = DensityMatrix.from_matrices(np.stack(inputs))
    assert len(stacked) == len(inputs)
    clamped = 0
    for m, rho in zip(inputs, stacked):
        alone = DensityMatrix.from_matrix(m)
        rebuilt, w, v, smallest = _parent_from_matrix(m)
        clamped += smallest < 0
        for got, want in ((rho.matrix, alone.matrix), (rho.eigenvalues, alone.eigenvalues),
                          (rho.eigenvectors, alone.eigenvectors), (rho.matrix, rebuilt),
                          (rho.eigenvalues, w), (rho.eigenvectors, v)):
            assert np.array_equal(_bits(got), _bits(want))
    assert clamped >= 1
    # a list of matrices is stacked the same way
    listed = DensityMatrix.from_matrices(inputs)
    assert all(np.array_equal(_bits(a.matrix), _bits(b.matrix))
               for a, b in zip(listed, stacked))


def _bad_members(d):
    """One matrix per way from_matrix rejects: non-finite, non-Hermitian,
    trace off 1, and an eigenvalue below -1e-10."""
    nan = np.eye(d, dtype=complex) / d
    nan[0, 1] = nan[1, 0] = math.nan
    skew = np.eye(d, dtype=complex) / d
    skew[0, 1] = 1e-6
    negative = np.diag([1.0 + 1e-9] + [0.0] * (d - 2) + [-1e-9]).astype(complex)
    return {"non-finite": nan, "Hermitian": skew, "trace": np.eye(d, dtype=complex),
            "positive semidefinite": negative}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["non-finite", "Hermitian", "trace", "positive semidefinite"])
def test_from_matrices_names_the_rejected_member(rng, kind):
    d = 3
    bad = _bad_members(d)[kind]
    with pytest.raises(ValueError, match=kind) as alone:
        DensityMatrix.from_matrix(bad)
    good = [matcore.random_density(rng, d, mix=0.1).matrix for _ in range(4)]
    for index in (0, 2, 4):
        stack = good[:index] + [bad] + good[index:]
        with pytest.raises(ValueError) as stacked:
            DensityMatrix.from_matrices(np.stack(stack))
        assert str(stacked.value) == f"stack member {index}: {alone.value}"
    with pytest.raises(ValueError) as single:
        DensityMatrix.from_matrices(bad[None])
    assert str(single.value) == str(alone.value)


def test_from_matrices_outputs_are_read_only(rng):
    stack = [matcore.random_density(rng, 3).matrix for _ in range(3)]
    for rho in DensityMatrix.from_matrices(stack):
        for a in (rho.matrix, rho.eigenvalues, rho.eigenvectors):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
            with pytest.raises(ValueError):
                a.setflags(write=True)


def test_from_matrices_empty_and_shape_checks():
    # a DensityStack holds at least one state: no matrices is an error, not ()
    for empty in ([], np.zeros((0, 2, 2))):
        with pytest.raises(ValueError, match="^stack has no matrices"):
            DensityMatrix.from_matrices(empty)
    assert matcore.as_hermitian(np.zeros((0, 2, 2))).shape == (0, 2, 2)
    with pytest.raises(ValueError, match="stack of square matrices"):
        DensityMatrix.from_matrices(np.eye(2) / 2)
    with pytest.raises(ValueError, match="square"):
        DensityMatrix.from_matrices(np.zeros((2, 2, 3)))


DENSITY_FIELDS = ("matrix", "eigenvalues", "eigenvectors")


@pytest.mark.parametrize("d", [2, 3, 4])
def test_density_stack_access_matches_one_build_per_matrix(rng, d):
    inputs = _density_inputs(rng, d)
    n = len(inputs)
    stack = DensityMatrix.from_matrices(np.stack(inputs))
    assert isinstance(stack, matcore.DensityStack)
    assert (len(stack), stack.dim) == (n, d)
    # one build per matrix: the reference for every kind of access
    members = [DensityMatrix.from_matrix(m) for m in inputs]
    mask = np.arange(n) % 2 == 1
    access = {"integer": (2, [2]), "negative": (-1, [n - 1]),
              "slice": (slice(1, None, 2), list(range(1, n, 2))),
              "mask": (mask, np.flatnonzero(mask).tolist()),
              "index array": (np.array([n - 1, 0, 0]), [n - 1, 0, 0])}
    for key, rows in access.values():
        got = stack[key]
        one = isinstance(key, int)
        assert type(got) is (DensityMatrix if one else matcore.DensityStack)
        for f in DENSITY_FIELDS:
            have = getattr(got, f)
            assert not have.flags.writeable
            have = [have] if one else list(have)
            assert len(have) == len(rows)
            for a, r in zip(have, rows):
                assert np.array_equal(_bits(a), _bits(getattr(members[r], f)))
    for x, m, want in zip(stack, inputs, members):
        assert np.array_equal(_bits(x.matrix), _bits(_parent_from_matrix(m)[0]))
        assert np.array_equal(_bits(x.eigenvectors), _bits(want.eigenvectors))


def test_density_stack_arrays_are_read_only(rng):
    stack = DensityMatrix.from_matrices(
        np.stack([matcore.random_density(rng, 3, mix=0.1).matrix for _ in range(4)]))
    parts = (stack, stack[0], stack[-1], stack[1:3], stack[np.array([True, False, True, False])],
             stack[np.array([3, 1])], matcore.batch(rho=stack[2])[0],
             matcore.batch(rho=BipartiteDensity(1, 3, stack[1]))[0].state)
    for part in parts:
        for f in DENSITY_FIELDS:
            a = getattr(part, f)
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0


def test_batch_of_one_state_and_a_stack_gives_the_same_bits(rng):
    stack = DensityMatrix.from_matrices(
        np.stack([matcore.random_density(rng, 3, mix=0.1).matrix for _ in range(3)]))
    members = list(stack)
    alone, one = matcore.batch(rho=members[1])
    restacked, many = matcore.batch(rho=stack_of(members))
    assert one and not many
    assert matcore.batch(rho=stack) == (stack, False)
    for f in DENSITY_FIELDS:
        want = getattr(stack, f)
        assert np.array_equal(_bits(getattr(alone, f)), _bits(want[1:2]))
        assert np.array_equal(_bits(getattr(restacked, f)), _bits(want))
    # a single state is viewed, not copied
    assert np.shares_memory(alone.matrix, members[1].matrix)
    # bipartite states: one becomes a family of one, a family stays
    fam, one = matcore.batch(rho=BipartiteDensity(1, 3, members[0]))
    assert one and len(fam) == 1
    assert np.array_equal(_bits(fam.state.eigenvalues), _bits(stack.eigenvalues[:1]))
    family = BipartiteDensity(1, 3, stack)
    assert matcore.batch(rho=family) == (family, False)
    assert [x.state.matrix.tolist() for x in family] == [x.matrix.tolist() for x in members]
    # a list of states, or of bipartite states, is no batch form
    bip = [BipartiteDensity(1, 3, members[0]), BipartiteDensity(3, 1, members[1])]
    for listed in (members, bip):
        with pytest.raises(ValueError, match="^rho is a list, .*DensityMatrix.from_matrices$"):
            matcore.batch(rho=listed)


def test_hilbert_schmidt_stack_matches_successive_random_density_draws():
    for d, mix in ((3, 0.1), (2, 0.0), (4, 0.02)):
        a, b = Rng(11), Rng(11)
        g = np.stack([matcore.random_complex_normal(a, (d, d)) for _ in range(3)])
        together = DensityMatrix.from_matrices(matcore.hilbert_schmidt(g, mix))
        one_by_one = [matcore.random_density(b, d, mix) for _ in range(3)]
        assert a._counter == b._counter
        for x, y in zip(together, one_by_one):
            assert np.array_equal(_bits(x.matrix), _bits(y.matrix))


def test_as_hermitian_judges_each_stack_member_on_its_own_scale():
    big = np.diag([1e4, -1e4]).astype(complex)
    big[0, 1] = 1e-7  # inside 1e-10 * 1e4
    small = np.eye(2, dtype=complex) / 2
    small[0, 1] = 1e-8  # outside 1e-10 * 1
    with pytest.raises(ValueError) as alone:
        matcore.as_hermitian(small)
    with pytest.raises(ValueError) as stacked:
        matcore.as_hermitian(np.stack([big, small]))
    assert str(stacked.value) == f"stack member 1: {alone.value}"
    h = matcore.as_hermitian(np.stack([big, big.T, np.eye(2) / 2]))
    for m, got in zip((big, big.T), h):
        assert np.array_equal(_bits(got), _bits(matcore.as_hermitian(m)))


# a stack against states: one matrix against two (which read that one matrix for
# both), three against two, and 3 x 3 matrices against qubit states
STACK_MISMATCHES = {
    "one-matrix": (lambda a: a[None], "length mismatch: .* has 1 matrices, .* has 2 states"),
    "three-matrices": (lambda a: np.stack([a] * 3), "length mismatch: .* has 3 matrices"),
    "dimension": (lambda a: np.stack([np.eye(3) / 3] * 2),
                  r"dimension mismatch: .* has dim 3, .* has dim 2$"),
}


@pytest.mark.parametrize("case", sorted(STACK_MISMATCHES))
@pytest.mark.parametrize("fn", [matcore.loewner_min_coefficient, entropy.weighted_norm_sq],
                         ids=["loewner", "weighted_norm_sq"])
def test_stack_against_states_must_match(fn, case):
    r = Rng(1)
    a, b, c = (matcore.random_density(r.substream(k), 2) for k in range(3))
    make, msg = STACK_MISMATCHES[case]
    with pytest.raises(ValueError, match=msg):
        fn(make(a.matrix), stack_of([b, c]))


@pytest.mark.parametrize("bad", [[], (), None, 0.5, "rho"],
                         ids=["list", "tuple", "None", "float", "str"])
def test_inputs_that_are_no_batch_form_name_their_argument(rng, bad):
    rho = matcore.random_density(rng, 2)
    kind = type(bad).__name__
    calls = {"rho": lambda: entropy.relative_entropy(bad, rho),
             "sigma": lambda: entropy.relative_entropy(rho, bad),
             "omega": lambda: entropy.weighted_norm_sq(rho.matrix, bad),
             "m": lambda: matcore.trace_norm(bad)}
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"^{name} is a {kind}, not a state, a stack or "
                                             "a matrix array: .*DensityMatrix.from_matrices$"):
            call()


def test_an_empty_stack_is_no_batch(rng):
    # from_matrices refuses no matrices; an empty slice of a stack is refused by batch
    stack = DensityMatrix.from_matrices(matcore.random_density(rng, 2).matrix[None])
    with pytest.raises(ValueError, match="^rho has no states: a batch holds at least one$"):
        entropy.relative_entropy(stack[1:], stack[1:])
    with pytest.raises(ValueError, match="^m has no matrices"):
        matcore.trace_norm(np.zeros((0, 2, 2)))


def test_loewner_validates_a_stack_as_it_does_one_matrix(rng):
    # |M - M^dagger| = 1e-9 is outside HERMITIAN_ATOL: one matrix was rejected, while
    # the same matrix in a stack was read as it was
    sigma = matcore.random_density(rng, 2, mix=0.1)
    m = np.array([[0.5, 0.2 + 1e-9], [0.2, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="^matrix is not Hermitian"):
        matcore.loewner_min_coefficient(m, sigma)
    with pytest.raises(ValueError, match="^matrix is not Hermitian"):
        matcore.loewner_min_coefficient(m[None], stack_of([sigma]))
    with pytest.raises(ValueError, match="^stack member 1: matrix is not Hermitian"):
        matcore.loewner_min_coefficient(np.stack([sigma.matrix, m]), stack_of([sigma, sigma]))

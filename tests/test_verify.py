import json
import math

import numpy as np
import pytest

from qdecay import bounds, channels, entropy, experiments, matcore, rng, verify
from qdecay.matcore import DensityMatrix


def test_clsi_tables_built_once_per_process(monkeypatch):
    calls = []
    g_factor = bounds.g_factor

    def counting_g_factor(*args, **kwargs):
        calls.append(args)
        return g_factor(*args, **kwargs)

    monkeypatch.setattr(bounds, "g_factor", counting_g_factor)
    bounds._clsi_tables.cache_clear()
    first = verify.clsi_converse_suite(2, 5)
    assert len(calls) == len(verify.CLSI_TIMES) * len(verify.CLSI_VARIANTS) == 8
    second = verify.clsi_converse_suite(2, 5)
    assert len(calls) == 8
    assert first == second
    _, maps = bounds._clsi_tables(verify.CLSI_LINDBLADIAN, verify.CLSI_TIMES,
                                  verify.CLSI_VARIANTS)
    assert len(calls) == 8
    assert len(maps) == 1 + len(verify.CLSI_TIMES)
    assert not any(m.matrix.flags.writeable for m in maps)


def _single_matrix_density(cls, m):
    """DensityMatrix.from_matrix as it was before stacked builds: validate,
    one eigensolve, clamp, renormalise and rebuild, for one matrix."""
    m = np.asarray(m, dtype=complex)
    top = float(np.abs(m).max())
    assert math.isfinite(top)
    m_dag = m.conj().T
    assert float(np.abs(m - m_dag).max()) <= matcore.HERMITIAN_ATOL * max(1.0, top)
    h = (m + m_dag) / 2
    assert abs(float(h.trace().real) - 1.0) <= matcore.DENSITY_TRACE_ATOL
    w, v = np.linalg.eigh(h[None])
    w, v = w[0], v[0]
    assert w[0] >= matcore.DENSITY_EIG_FLOOR
    w = np.maximum(w, 0.0)
    w /= w.sum()
    rebuilt = (v * w) @ v.conj().T
    rebuilt += rebuilt.conj().T
    rebuilt *= 0.5
    for a in (rebuilt, w, v):
        a.setflags(write=False)
    return cls(rebuilt, w, v)


@pytest.mark.parametrize("seed", [3, 11])
def test_report_identical_to_one_build_per_matrix(monkeypatch, seed):
    stacked = json.dumps(verify.run_suites("all", 20, seed))
    built = []

    def one_by_one(cls, stack):
        built.extend(stack)
        members = [_single_matrix_density(cls, m) for m in stack]
        return matcore.DensityStack(*(np.stack([getattr(x, f) for x in members])
                                      for f in ("matrix", "eigenvalues", "eigenvectors")))

    monkeypatch.setattr(DensityMatrix, "from_matrices", classmethod(one_by_one))
    assert json.dumps(verify.run_suites("all", 20, seed)) == stacked
    # every suite builds through the patch: 998 matrices at both seeds
    assert len(built) > 900


def _bits(x):
    return np.array(x, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
@pytest.mark.parametrize("seed", [3, 11])
def test_report_rebuilt_from_per_counter_replay(suite, seed):
    # one sample past two chunks' boundary: stack size must not change a bit
    samples = verify.CHUNK + 3
    report = verify.SUITES[suite](samples, seed)
    violations, margins = [], []
    for k in range(samples):
        for margin, violation in verify.replay(suite, seed, k):
            margins.append(margin)
            if violation is not None:
                violations.append({"counter": k, **violation})
    assert json.dumps(violations) == json.dumps(report["violations"])
    assert _bits(min(margins)) == _bits(report["worstMargin"])


def test_verify_eigensolves_are_batched(monkeypatch):
    raw_batch, raw_eigh = matcore.jacobi_eigh_batch, np.linalg.eigh
    calls, inside, stray = [], [], []

    def batch(stack):
        calls.append(len(stack))
        inside.append(True)
        try:
            return raw_batch(stack)
        finally:
            inside.pop()

    def eigh(a, *args, **kwargs):
        if not inside:
            stray.append(np.shape(a))
        return raw_eigh(a, *args, **kwargs)

    monkeypatch.setattr(matcore, "jacobi_eigh_batch", batch)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    verify.run_suites("all", 20, 5)
    # every eigensolve goes through the one traced path
    assert stray == []
    # a few stacks per suite and dimension (60 today); one solve per sample
    # and role made 818
    assert len(calls) <= 80
    # the two integral-form pairs solve one stack of their rule's 2q = 128
    # nodes each; the other suites solve about 1,300 matrices.  With the
    # q x q tensor rule's 2,080 distinct nodes the bound was 2 * 2,080 + 840
    # = 5,000; it is now 2 * 128 + 840 = 1,096
    nodes = len(entropy._gauss_rule(verify.INTEGRAL_QUAD_POINTS)[0])
    assert sum(calls) > 2 * nodes + 840


def test_verify_builds_few_member_densities(monkeypatch):
    raw = DensityMatrix.__init__
    built = []

    def counting(self, *args):
        built.append(1)
        raw(self, *args)

    monkeypatch.setattr(DensityMatrix, "__init__", counting)
    verify.run_suites("all", 20, 5)
    # the suites hold their states as DensityStacks: the one DensityMatrix
    # built is decayed-state's I/2.  One object per stack member made 1,018,
    # and integral-form's per-pair loop 4 more
    assert len(built) == 1


def test_verify_builds_one_report_per_check_call(monkeypatch):
    built = []
    for cls in (bounds.BoundReport, entropy.PinskerReport, entropy.SandwichReport):
        def counting(self, *args, raw=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            raw(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    verify.run_suites("all", 20, 5)
    # one report per check call and residue class: pinsker and gaorouze 2 each (d = 2, 3),
    # clsi-converse 2 (bare and extended), the other four converse checks 1 each.  One
    # report per state (and time) made 240
    assert sorted(built) == sorted(["PinskerReport"] * 2 + ["SandwichReport"] * 2
                                   + ["BoundReport"] * 6)


def test_verify_calls_each_library_check_once_per_batch(monkeypatch):
    calls = {"integral": [], "clsi": []}
    raw_integral, raw_clsi = entropy.relative_entropy_integral_form, bounds.clsi_converse_check

    def integral(rho, sigma, quad_points):
        calls["integral"].append(len(rho))
        return raw_integral(rho, sigma, quad_points)

    def clsi(lind, rho, times, variants):
        calls["clsi"].append((rho.dim, len(rho)))
        return raw_clsi(lind, rho, times, variants)

    monkeypatch.setattr(entropy, "relative_entropy_integral_form", integral)
    monkeypatch.setattr(bounds, "clsi_converse_check", clsi)
    verify.run_suites("all", 20, 5)
    # integral-form runs 2 samples, one per residue class (d = 2, 3); clsi-converse
    # runs 5 samples of one class, one call per kind (bare d = 2, extended d = 4)
    assert calls == {"integral": [1, 1], "clsi": [(2, 5), (4, 5)]}
    verify.run_suites(["integral-form", "clsi-converse"], 2 * verify.CHUNK, 5)
    assert calls["integral"][2:] == [verify.CHUNK // 2] * 4
    assert calls["clsi"][2:] == [(2, verify.CHUNK), (4, verify.CHUNK)] * 2


def test_verify_kraus_maps_are_batched(monkeypatch):
    raw_from = channels.KrausChannel.from_kraus.__func__
    raw_apply = channels.KrausChannel.apply_matrix
    calls = {"from_kraus": 0, "apply_matrix": 0}

    def from_kraus(cls, ops):
        calls["from_kraus"] += 1
        return raw_from(cls, ops)

    def apply_matrix(self, m):
        calls["apply_matrix"] += 1
        return raw_apply(self, m)

    monkeypatch.setattr(channels.KrausChannel, "from_kraus", classmethod(from_kraus))
    monkeypatch.setattr(channels.KrausChannel, "apply_matrix", apply_matrix)
    verify.run_suites("all", 20, 5)
    # one family per constructor and residue class, one map per family and role:
    # 8 builds and 9 maps today; one channel per sample made 120 and 140
    assert 0 < calls["from_kraus"] <= 12
    assert 0 < calls["apply_matrix"] <= 12


def _per_sample_data_processing(g1, g2, dep, deph, lam, p):
    """data-processing's evaluate as it was before channel families: each sample
    builds its three channels and applies each to its two states one at a time."""
    rhos, sigmas = verify._pair(g1, g2, 0.02)
    d_pre = entropy.unwrap(entropy.relative_entropy(rhos, sigmas))
    out = [[] for _ in rhos]
    for idx, chans in enumerate((
            [channels.depolarizing(2, x) for x in dep.tolist()],
            [channels.dephasing_y(x) for x in deph.tolist()],
            [experiments.flagged_channel(a, b, "dephasing-y")
             for a, b in zip(lam.tolist(), p.tolist())])):
        images = DensityMatrix.from_matrices(
            [ch.apply_matrix(x.matrix) for xs in (rhos, sigmas) for ch, x in zip(chans, xs)])
        d_post = entropy.unwrap(entropy.relative_entropy(images[:len(rhos)], images[len(rhos):]))
        for pairs, pre, post in zip(out, d_pre, d_post):
            pairs.append((pre - post, {"channel": idx} if post > pre + verify.SLACK else None))
    return out


def _per_sample_channel_validity(g, lam):
    """channel-validity's evaluate as it was before channel families."""
    rhos = DensityMatrix.from_matrices(matcore.hilbert_schmidt(g, 0.0))
    outs = np.stack([channels.depolarizing(g.shape[-1], x).apply_matrix(rho.matrix)
                     for x, rho in zip(lam.tolist(), rhos)])
    w = matcore.jacobi_eigh_batch(matcore.as_hermitian(outs))[0][:, 0].tolist()
    out = []
    for w0, tr in zip(w, outs.trace(0, 1, 2).real.tolist()):
        bad = w0 < -1e-9 or abs(tr - 1.0) > 1e-9
        out.append([(min(w0, 1e-9 - abs(tr - 1.0)), {} if bad else None)])
    return out


@pytest.mark.parametrize("seed", [3, 11])
def test_family_reports_identical_to_per_sample_channels(monkeypatch, seed):
    names = ["data-processing", "channel-validity"]
    # one sample past a chunk's boundary: family size must not change a bit
    samples = verify.CHUNK + 3
    families = json.dumps(verify.run_suites(names, samples, seed))
    used = []
    for name, evaluate in zip(names, (_per_sample_data_processing,
                                      _per_sample_channel_validity)):
        parts, period = verify._PARTS[name]

        def per_sample(parts=parts, evaluate=evaluate):
            draw, _, params = parts()
            used.append(evaluate)
            return draw, evaluate, params

        monkeypatch.setitem(verify._PARTS, name, (per_sample, period))
    assert json.dumps(verify.run_suites(names, samples, seed)) == families
    assert len(used) == 2


_MASK = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix(z):
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class _ScalarStream:
    """Substream k of a root seed as SplitMix64 on Python ints, one word at a
    time, with the matcore draws as one sample's draw makes them."""

    def __init__(self, seed, k):
        self.seed, self.counter = _mix(((seed & _MASK) ^ (k + 1) * _GAMMA) & _MASK), 0

    def word(self):
        self.counter += 1
        return _mix((self.seed + self.counter * _GAMMA) & _MASK)

    def uniform(self, low=0.0, high=1.0):
        return low + (high - low) * ((self.word() >> 11) * 2.0 ** -53)

    def uniform_open(self):
        return ((self.word() >> 11) + 1) * 2.0 ** -53

    def normal(self):
        u1 = self.uniform_open()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * self.uniform())

    def cn(self, d):
        return np.array([self.normal() for _ in range(2 * d * d)]).view(complex).reshape(d, d)

    def herm(self, d):
        g = self.cn(d)
        return (g + g.conj().T) / 2

    def pv(self, d, floor=0.0):
        x = np.array([-np.log(self.uniform_open()) for _ in range(d)])
        p = x / x.sum()
        return (1 - d * floor) * p + floor if floor else p


def _classical_draw(s, k):
    s0 = s.uniform(verify.CLASSICAL_SIGMA_FLOOR, 1.0 - verify.CLASSICAL_SIGMA_FLOOR)
    if k % 2 == 0:
        return s0, s.uniform(0.001, 0.999)
    return s0, min(max(s0 + 0.08 * s.normal(), 1e-4), 1 - 1e-4)


def _decayed_draw(s, k):
    h, p, q, zeta = s.herm(2), s.pv(2, 0.01), s.pv(2, 0.01), s.uniform(0.01, 0.5)
    return h, p, q, zeta, s.uniform(zeta + 1e-4, 0.95)


def _origcompare_draw(s, k):
    s0, zeta, w0 = s.uniform(0.05, 0.95), s.uniform(0.05, 0.9), s.uniform(0.0, 1.0)
    # no o0 is drawn where omega = sigma; the chunk's column holds NaN there
    return s0, zeta, w0, math.nan if k % 3 == 0 else s.uniform(0.02, 0.98), s.uniform(0.02, 0.9)


# each suite's inputs for sample k, drawn one value at a time in draw order
SCALAR_DRAWS = {
    "pinsker": lambda s, k: (s.herm(2 + k % 2), s.pv(2 + k % 2, 0.01), s.pv(2 + k % 2, 0.01),
                             s.cn(2 + k % 2), s.cn(2 + k % 2)),
    "almost-concavity": lambda s, k: (s.herm(3), s.pv(3, 0.02), s.pv(3, 0.02), s.pv(3),
                                      s.pv(3), s.uniform(0.001, 0.999)),
    "gaorouze": lambda s, k: (s.cn(2 + k % 2), s.cn(2 + k % 2)),
    "normcomp": lambda s, k: (s.cn(2 + k % 2), s.cn(2 + k % 2), s.herm(2 + k % 2)),
    "integral-form": lambda s, k: (s.cn(2 + k % 2), s.cn(2 + k % 2)),
    "clsi-converse": lambda s, k: (s.cn(2), s.cn(4)),
    "classical": _classical_draw,
    "classical-mutinfo": lambda s, k: (s.pv(4, verify.MUTINFO_CELL_FLOOR),),
    "decayed-state": _decayed_draw,
    "origcompare": _origcompare_draw,
    "data-processing": lambda s, k: (s.cn(2), s.cn(2), s.uniform(0.0, 1.0), s.uniform(0.0, 1.0),
                                     s.uniform(0.05, 0.95), s.uniform(0.05, 0.95)),
    "channel-validity": lambda s, k: (s.cn(2 + k % 3), s.uniform(0.0, 1.0)),
}


def _raw(x):
    a = np.asarray(x)
    return a.shape, a.dtype, a.tobytes()


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
@pytest.mark.parametrize("seed", [-1, 2 ** 64 + 5, 9001])
def test_chunk_draws_bit_equal_to_scalar_stream(monkeypatch, suite, seed):
    assert sorted(SCALAR_DRAWS) == sorted(verify.SUITES)
    parts, period = verify._PARTS[suite]
    columns = []

    def capturing_parts():
        draw, _, params = parts()

        def evaluate(*cols):
            # each row's violation names the call and row that drew it
            columns.append(cols)
            return [[(0.0, {"call": len(columns) - 1, "row": i})] for i in range(len(cols[0]))]
        return draw, evaluate, params

    monkeypatch.setitem(verify._PARTS, suite, (capturing_parts, period))
    # counters run across two chunk boundaries
    samples = 2 * verify.CHUNK + 3
    report = verify.SUITES[suite](samples, seed)
    assert [v["counter"] for v in report["violations"]] == list(range(samples))
    for v in report["violations"]:
        k = v["counter"]
        got = [col[v["row"]] for col in columns[v["call"]]]
        want = SCALAR_DRAWS[suite](_ScalarStream(seed, k), k)
        assert list(map(_raw, got)) == list(map(_raw, want)), (suite, k)


def test_verify_draws_are_batched(monkeypatch):
    raw_mix = rng.mix64
    calls = []

    def mix64(x):
        calls.append(np.size(x))
        return raw_mix(x)

    monkeypatch.setattr(rng, "mix64", mix64)
    verify.run_suites("all", 20, 5)
    # one word array per substream and per draw of each suite and residue
    # class (96 calls on 18 classes today); one word per call made 8,052
    assert len(calls) <= 120
    assert sum(calls) > 8000


def test_no_report_from_no_samples_or_no_suites():
    # a report of no samples would read worstMargin inf, which json.dumps writes as the
    # non-JSON token Infinity, and passed true
    with pytest.raises(ValueError, match="at least 1 sample, got 0"):
        verify.SUITES["pinsker"](0, 1)
    with pytest.raises(ValueError, match="at least 1 sample, got 0"):
        verify.run_suites(["pinsker"], 0, 1)
    with pytest.raises(ValueError, match="no suite named"):
        verify.run_suites([], 5, 1)

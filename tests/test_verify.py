import json
import math

import numpy as np
import pytest

from qdecay import bounds, matcore, verify
from qdecay.matcore import DensityMatrix


def test_clsi_tables_built_once_per_process(monkeypatch):
    calls = []
    g_factor = bounds.g_factor

    def counting_g_factor(*args, **kwargs):
        calls.append(args)
        return g_factor(*args, **kwargs)

    monkeypatch.setattr(bounds, "g_factor", counting_g_factor)
    verify._clsi_tables.cache_clear()
    first = verify.clsi_converse_suite(2, 5)
    assert len(calls) == len(verify.CLSI_TIMES) * len(verify.CLSI_VARIANTS) == 8
    second = verify.clsi_converse_suite(2, 5)
    assert len(calls) == 8
    assert first == second
    for _, _, e, evolve in verify._clsi_tables()[2]:
        assert not any(m.matrix.flags.writeable for m in (e, *evolve))


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
        return tuple(_single_matrix_density(cls, m) for m in stack)

    monkeypatch.setattr(DensityMatrix, "from_matrices", classmethod(one_by_one))
    assert json.dumps(verify.run_suites("all", 20, seed)) == stacked
    assert len(built) > 1000


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
    assert sum(calls) > 5000

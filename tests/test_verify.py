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

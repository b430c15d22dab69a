from qdecay import bounds, verify


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

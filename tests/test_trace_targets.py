"""The benchmark's traced run wraps qdecay functions by attribute name
(perfbench/tracing.py); a rename or deletion in qdecay must fail here, not
only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from qdecay import bounds, channels, cli, entropy, experiments, matcore, rng, verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODS = {"matcore": matcore, "rng": rng, "entropy": entropy, "channels": channels,
        "bounds": bounds, "experiments": experiments, "verify": verify, "cli": cli}


def test_traced_targets_exist_and_are_restored():
    tracing = _load_tracing()
    targets = tracing.targets(MODS)
    for owner, attr, _, _ in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is traced but missing"
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    suites = dict(verify.SUITES)
    tracer = tracing.Tracer()
    tracer.install(MODS)
    try:
        assert all(vars(owner)[attr] is not raw
                   for (owner, attr, _, _), raw in zip(targets, before))
    finally:
        tracer.uninstall(MODS)
    assert all(vars(owner)[attr] is raw for (owner, attr, _, _), raw in zip(targets, before))
    assert verify.SUITES == suites
    assert all(verify.SUITES[k] is fn for k, fn in suites.items())


def test_converse_checks_are_traced_as_bound_checks():
    # the tracer finds bound checks by their _check suffix
    checks = {attr for _, attr, span, _ in _load_tracing().targets(MODS)
              if span == "bounds.checks"}
    assert {"classical_converse_check", "mutual_info_converse_check"} <= checks


def test_semigroup_goes_through_the_traced_exponential_once(monkeypatch):
    # the channels.expm span wraps channels.expm_taylor; a semigroup that bypassed
    # it would read 0 there
    raw, calls = channels.expm_taylor, []

    def counted(generator, t):
        calls.append(t)
        return raw(generator, t)

    monkeypatch.setattr(channels, "expm_taylor", counted)
    lind = channels.replacement_lindbladian(channels.depolarizing_projection(2), 2.0, 4.0)
    lind.semigroup(0.3)
    assert calls == [0.3]

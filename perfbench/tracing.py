"""Span tracing for the traced benchmark run.

Tracing is installed from outside the package: public functions are
replaced by timing wrappers on their modules (or classes), the entries of
``verify.SUITES`` are replaced in place, and everything is restored by
``Tracer.uninstall``.  Spans stay in memory as (id, parent, name, start,
end, work) tuples and are written out once, after the run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# A work function maps a wrapped call's (args, kwargs, result) to a small
# tuple stored with its span; it runs after the span's end time is taken.


def _stack_work(args, kwargs, result):
    stack = args[0]
    return (stack.shape[0], stack.shape[1])


def _single_work(args, kwargs, result):
    return (1, args[0].shape[0])


def _quad_work(args, kwargs, result):
    q = args[2] if len(args) > 2 else kwargs.get("quad_points", 64)
    return (q * q,)


def _rows_work(args, kwargs, result):
    return (len(result.rows),)


def _samples_work(args, kwargs, result):
    return (args[0] if args else kwargs["samples"],)


def targets(qdecay_modules) -> list:
    """Everything the traced run wraps, as (owner, attribute, span, work)."""
    m = qdecay_modules
    out = [
        (m["matcore"], "jacobi_eigh_batch", "matcore.eig", _stack_work),
        (m["matcore"], "eigh", "matcore.eig", _single_work),
        (m["matcore"].DensityMatrix, "from_matrix", "matcore.density", None),
        (m["matcore"], "random_density", "matcore.random", None),
        (m["matcore"], "random_hermitian", "matcore.random", None),
        (m["matcore"], "random_probability_vector", "matcore.random", None),
        (m["rng"].Rng, "substream", "rng.substream", None),
        (m["entropy"], "relative_entropy", "entropy.relative_entropy", None),
        (m["entropy"], "mutual_information", "entropy.mutual_information", None),
        (m["entropy"], "relative_entropy_integral_form", "entropy.integral_form",
         _quad_work),
        (m["channels"].KrausChannel, "apply_matrix", "channels.kraus_apply", None),
        (m["channels"].SuperOperator, "apply_matrix", "channels.superop_apply", None),
        (m["channels"].SuperOperator, "tensor_identity", "channels.factor_extend", None),
        (m["channels"], "apply_to_b", "channels.factor_extend", None),
        (m["channels"], "expm_taylor", "channels.expm", None),
        (m["channels"], "choi_matrix", "channels.cp_order", None),
        (m["channels"], "cp_order_coefficient", "channels.cp_order", None),
        (m["channels"], "fixed_point_projection", "channels.cp_order", None),
        (m["channels"], "diamond_norm_estimate", "channels.diamond", None),
        (m["bounds"], "g_factor", "bounds.g_factor", None),
        (m["experiments"], "sudden_decay_sweep", "experiments.sweep", _rows_work),
        (m["experiments"], "group_fragility_demo", "experiments.sweep", _rows_work),
        (m["experiments"], "private_rate_lower_bound", "experiments.sweep", _rows_work),
        (m["verify"], "run_suites", "verify.runner", None),
        (m["cli"], "main", "cli.main", None),
    ]
    for name in ("normal", "uniform", "uniform_open", "integer"):
        out.append((m["rng"].Rng, name, "rng.draw", None))
    for name in sorted(vars(m["bounds"])):
        if name.endswith("_check") and callable(getattr(m["bounds"], name)):
            out.append((m["bounds"], name, "bounds.checks", None))
    return out


class Tracer:
    """Records nested spans from wrappers it installs and later removes."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._next_id = 0
        self._saved = []
        self._saved_suites = {}

    def span(self, name, fn, work=None):
        """Return fn wrapped so each call records one span called name."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, start, clock(), None))
                raise
            finally:
                stack.pop()
            end = clock()
            spans.append((sid, parent, name, start, end,
                          work(args, kwargs, result) if work else None))
            return result

        return wrapper

    def install(self, qdecay_modules) -> None:
        for owner, attr, name, work in targets(qdecay_modules):
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.span(name, raw.__func__, work)))
            else:
                setattr(owner, attr, self.span(name, raw, work))
        suites = qdecay_modules["verify"].SUITES
        self._saved_suites = dict(suites)
        for key, fn in self._saved_suites.items():
            suites[key] = self.span(f"verify.{key}", fn, _samples_work)

    def uninstall(self, qdecay_modules) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        qdecay_modules["verify"].SUITES.update(self._saved_suites)
        self._saved_suites = {}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, parent, name, start, end, _ in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{start}\t{end}\n")


def layer_metrics(spans, suites, cycles: int) -> dict:
    """Per-layer counts and self times, per pass over the call list.

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child_ns = defaultdict(int)
    name_of = {}
    for sid, parent, name, start, end, _ in spans:
        child_ns[parent] += end - start
        name_of[sid] = name
    # ids are assigned at span start, so a parent's id is below its children's
    in_mi = {-1: False}
    for sid, parent, name, *_ in sorted(spans):
        in_mi[sid] = in_mi.get(parent, False) or name == "entropy.mutual_information"

    calls = defaultdict(int)
    self_ns = defaultdict(int)
    incl_ns = defaultdict(int)
    work_sum = defaultdict(int)
    eig = {"calls": 0, "matrices": 0, "work_d3": 0, "in_mi": 0}
    draws = 0
    for sid, parent, name, start, end, work in spans:
        dur = end - start
        self_ns[name] += dur - child_ns[sid]
        incl_ns[name] += dur
        calls[name] += 1
        parent_name = name_of.get(parent, "")
        if name == "matcore.eig" and parent_name != "matcore.eig":
            n, d = work or (0, 0)
            eig["calls"] += 1
            eig["matrices"] += n
            eig["work_d3"] += n * d ** 3
            eig["in_mi"] += in_mi[sid]
        elif name == "rng.draw" and not parent_name.startswith("rng."):
            draws += 1
        elif work is not None:
            work_sum[name] += work[0]

    def per_cycle(x):
        return x / cycles

    def self_s(*names):
        return per_cycle(sum(self_ns[n] for n in names) / 1e9)

    out = {
        "matcore.eig.calls": (per_cycle(eig["calls"]), "count"),
        "matcore.eig.matrices": (per_cycle(eig["matrices"]), "count"),
        "matcore.eig.work_d3": (per_cycle(eig["work_d3"]), "count"),
        "matcore.eig.self_s": (self_s("matcore.eig"), "s"),
        "matcore.density.calls": (per_cycle(calls["matcore.density"]), "count"),
        "matcore.density.self_s": (self_s("matcore.density"), "s"),
        "matcore.random.calls": (per_cycle(calls["matcore.random"]), "count"),
        "matcore.random.self_s": (self_s("matcore.random"), "s"),
        "rng.draws": (per_cycle(draws), "count"),
        "rng.self_s": (self_s("rng.draw", "rng.substream"), "s"),
    }
    for key in ("relative_entropy", "mutual_information", "integral_form"):
        out[f"entropy.{key}.calls"] = (per_cycle(calls[f"entropy.{key}"]), "count")
        out[f"entropy.{key}.self_s"] = (self_s(f"entropy.{key}"), "s")
    mi_calls = calls["entropy.mutual_information"]
    out["entropy.mutual_information.eig_per_call"] = (
        eig["in_mi"] / mi_calls if mi_calls else 0.0, "eig/call")
    out["entropy.integral_form.nodes"] = (
        per_cycle(work_sum["entropy.integral_form"]), "count")
    for key in ("kraus_apply", "superop_apply", "factor_extend", "expm",
                "cp_order", "diamond"):
        out[f"channels.{key}.calls"] = (per_cycle(calls[f"channels.{key}"]), "count")
        out[f"channels.{key}.self_s"] = (self_s(f"channels.{key}"), "s")
    for key in ("g_factor", "checks"):
        out[f"bounds.{key}.calls"] = (per_cycle(calls[f"bounds.{key}"]), "count")
        out[f"bounds.{key}.self_s"] = (self_s(f"bounds.{key}"), "s")
    out["experiments.rows"] = (per_cycle(work_sum["experiments.sweep"]), "count")
    out["experiments.self_s"] = (self_s("experiments.sweep"), "s")
    for suite in suites:
        name = f"verify.{suite}"
        samples = work_sum[name]
        out[f"{name}.ms_per_sample"] = (
            incl_ns[name] / 1e6 / samples if samples else 0.0, "ms")
    out["verify.self_s"] = (
        self_s("verify.runner", *(f"verify.{s}" for s in suites)), "s")
    out["cli.self_s"] = (self_s("cli.main"), "s")
    return out

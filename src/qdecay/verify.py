"""Randomized verification suites.

Every suite draws its states from counter-derived substreams of a root
seed, checks an inequality against exact entropic values, and returns a
report dict.  One runner drives all suites, each given as two functions:
draw(sub, ks) takes the raw inputs (Gaussians, probability vectors,
uniforms) of samples ks, a range of counters, from sub, the batch of their
substreams, as columns with one row per sample; evaluate(*columns) builds
their states as stacks and returns each sample's (margin, violation) pairs.
The shapes of a suite's inputs depend on the counter k only through
k % period (the dimension), so the runner takes CHUNK samples at a time
and draws and evaluates each residue class of the chunk as one batch.  A
violation record carries the sample counter, and replay(suite, seed,
counter) evaluates that one sample as a batch of one, with the same bits.
Reports are plain JSON-serializable dicts with deterministic content.
"""

from __future__ import annotations

import copy
import math
import operator

import numpy as np

from . import bounds, channels, entropy, experiments, matcore
from .matcore import BipartiteDensity, DensityMatrix
from .rng import Rng

SLACK = 1e-10
# samples drawn and then evaluated together by the runner
CHUNK = 64
# integral-form: quadrature order and the largest accepted |quadrature - eigenbasis|
INTEGRAL_QUAD_POINTS = 64
INTEGRAL_TOL = 1e-6
# clsi-converse: the times and g-factor variants of the worked qubit-depolarizing table
CLSI_TIMES = (1e-3, 1e-2, 1e-1, 1.0)
CLSI_VARIANTS = ("theorem", "paper-example")
# one object per process, so that bounds._clsi_tables builds its g factors and maps once
CLSI_LINDBLADIAN = channels.replacement_lindbladian(channels.depolarizing_projection(2),
                                                    bounds.EXAMPLE_DIAMOND, bounds.EXAMPLE_C)
# weak replacement coupling keeps the (a, eps, m_tilde) triple feasible at
# the sampled m_tilde floor for both suite times; see bounds.feasible_a_midpoint
CLASSICAL_SUITE_TIMES = (0.01, 0.1)
CLASSICAL_SUITE_COUPLING = 0.01
CLASSICAL_SIGMA_FLOOR = 0.35
MUTINFO_SUITE_COUPLING = 2.5e-4
MUTINFO_CELL_FLOOR = 0.16

# suite name -> fn(samples, seed), and -> (parts, period), parts being
# () -> (draw, evaluate, params) and params the report's params dict or None
SUITES = {}
_PARTS = {}


def _suite(name: str, period: int):
    """Register a suite's parts, and the period in k of its input shapes, under
    name; the decorated name becomes the suite function fn(samples, seed)."""
    def register(parts):
        def suite(samples: int, seed: int) -> dict:
            return _run(name, samples, seed)
        suite.__name__, suite.__doc__ = parts.__name__, parts.__doc__
        _PARTS[name], SUITES[name] = (parts, period), suite
        return suite
    return register


def _pairs(draw, evaluate, seed: int, ks: range) -> list:
    """The (margin, violation) pairs of samples ks, which share their input shapes."""
    sub = Rng(seed).substream(np.array(ks, dtype=np.uint64))
    return evaluate(*draw(sub, ks))


def _sample_count(samples) -> int:
    """samples as an int if operator.index takes it and it is at least 1; else a ValueError."""
    count = operator.index(samples) if hasattr(samples, "__index__") else 0
    if not count >= 1:
        raise ValueError(f"a suite runs at least 1 sample, got {samples!r}")
    return count


def _run(name: str, samples: int, seed: int) -> dict:
    """Run one suite and build its report: each violation is recorded with its
    counter k, and the report keeps the smallest margin."""
    samples = _sample_count(samples)
    parts, period = _PARTS[name]
    draw, evaluate, params = parts()
    violations = []
    worst = math.inf
    for start in range(0, samples, CHUNK):
        stop = min(start + CHUNK, samples)
        chunk = [None] * (stop - start)
        for r in range(min(period, stop - start)):
            chunk[r::period] = _pairs(draw, evaluate, seed, range(start + r, stop, period))
        for k, pairs in enumerate(chunk, start):
            for margin, violation in pairs:
                if violation is not None:
                    violations.append({"counter": k, **violation})
                worst = min(worst, margin)
    out = {
        "suite": name,
        "samples": samples,
        "seed": seed,
        "violations": violations,
        "violationCount": len(violations),
        "worstMargin": worst,
        "passed": not violations,
    }
    if params:
        out["params"] = params
    return out


def replay(suite: str, seed: int, counter: int) -> list:
    """The (margin, violation) pairs of sample counter of a suite run at seed."""
    draw, evaluate, _ = _PARTS[suite][0]()
    return _pairs(draw, evaluate, seed, range(counter, counter + 1))[0]


def _report_pairs(rep: bounds.BoundReport, *labels: str, **record) -> list:
    """Per sample, the (margin, violation) pair of each cell of a report; a failed
    cell's violation holds its labels, read from rep.extra, then record."""
    return [[(m, None if ok else {**{k: rep.extra[k][j] for k in labels}, **record})
             for j, (m, ok) in enumerate(zip(margins, passed))]
            for margins, passed in zip(rep.margin.tolist(), rep.passed.tolist())]


def _cn(sub: Rng, d: int) -> np.ndarray:
    return matcore.random_complex_normal(sub, (d, d))


def _draw_commuting(sub: Rng, d: int) -> tuple:
    """A Gaussian Hermitian matrix, whose eigenbasis a commuting pair shares,
    and the pair's two floored spectra."""
    return (matcore.random_hermitian(sub, d),
            matcore.random_probability_vector(sub, d, floor=0.01),
            matcore.random_probability_vector(sub, d, floor=0.01))


def _in_eigenbases(h: np.ndarray, *spectra: np.ndarray) -> np.ndarray:
    """For each (n, d) array of spectra, the matrices with those spectra in the
    eigenbases of the (n, d, d) stack h, concatenated."""
    b = matcore.jacobi_eigh_batch(matcore.as_hermitian(h))[1]
    return np.concatenate([(b * x[:, None, :]) @ b.conj().transpose(0, 2, 1) for x in spectra])


def _diagonals(*probs: np.ndarray) -> np.ndarray:
    """Qubit diagonal matrices diag(p, 1 - p), for each array of p, concatenated."""
    p = np.concatenate(probs)
    out = np.zeros((len(p), 2, 2), dtype=complex)
    out[:, 0, 0], out[:, 1, 1] = p, 1.0 - p
    return out


def _draw_pair(sub: Rng, ks: range) -> tuple:
    """The Gaussians of two Hilbert-Schmidt densities of dimension 2 + k % 2."""
    return _cn(sub, 2 + (ks[0] % 2)), _cn(sub, 2 + (ks[0] % 2))


def _pair(g1: np.ndarray, g2: np.ndarray, mix: float) -> tuple:
    """The Hilbert-Schmidt densities of two Gaussian stacks, as two stacks."""
    states = DensityMatrix.from_matrices(np.concatenate(
        [matcore.hilbert_schmidt(g1, mix), matcore.hilbert_schmidt(g2, mix)]))
    return states[:len(g1)], states[len(g1):]


@_suite("pinsker", 2)
def pinsker_suite():
    """Both Pinsker forms on commuting pairs, the basic form on arbitrary pairs."""
    def draw(sub, ks):
        d = 2 + (ks[0] % 2)
        return (*_draw_commuting(sub, d), _cn(sub, d), _cn(sub, d))

    def evaluate(h, p, q, g1, g2):
        n = len(h)
        states = DensityMatrix.from_matrices(np.concatenate([
            _in_eigenbases(h, p, q), matcore.hilbert_schmidt(g1, 0.0),
            matcore.hilbert_schmidt(g2, 0.05)]))
        rho_rows = np.r_[:n, 2 * n:3 * n]
        rep = entropy.pinsker_check(states[rho_rows], states[rho_rows + n])
        basic = (rep.relative_entropy - rep.basic_bound).tolist()
        refined = (rep.relative_entropy - np.where(rep.commuting, rep.refined_bound, 0.0)).tolist()
        passed, holds = rep.passed.tolist(), rep.basic_holds.tolist()
        return [[(basic[i], None if passed[i] else {"kind": "commuting"}), (refined[i], None),
                 (basic[n + i], None if holds[n + i] else {"kind": "general"})]
                for i in range(n)]
    return draw, evaluate, None


@_suite("almost-concavity", 1)
def almost_concavity_suite():
    """Joint convexity defect bound
    D(mix || mix) >= p D1 + (1-p) D2 - f_m(p) on commuting tuples."""
    def draw(sub, ks):
        pv = matcore.random_probability_vector
        return (matcore.random_hermitian(sub, 3), pv(sub, 3, floor=0.02),
                pv(sub, 3, floor=0.02), pv(sub, 3), pv(sub, 3), sub.uniform(0.001, 0.999))

    def evaluate(h, sigma1, sigma2, rho1, rho2, p):
        n = len(h)
        w = p[:, None]
        states = DensityMatrix.from_matrices(_in_eigenbases(
            h, w * rho1 + (1 - w) * rho2, rho1, rho2, w * sigma1 + (1 - w) * sigma2,
            sigma1, sigma2))
        d = entropy.unwrap(entropy.relative_entropy(states[:3 * n], states[3 * n:])).tolist()
        out = []
        for i, (s1, s2, pi) in enumerate(zip(sigma1, sigma2, p.tolist())):
            lhs, d1, d2 = d[i], d[n + i], d[2 * n + i]
            rhs = pi * d1 + (1 - pi) * d2 - entropy.f_almost_concavity(
                pi, float(min(s1.min(), s2.min())))
            out.append([(lhs - rhs, {"lhs": lhs, "rhs": rhs} if lhs < rhs - SLACK else None)])
        return out
    return draw, evaluate, None


@_suite("gaorouze", 2)
def gaorouze_suite():
    """Order-to-entropy sandwich on comparable full-rank pairs."""
    def evaluate(g1, g2):
        rep = entropy.gaorouze_sandwich_check(*_pair(g1, g2, 0.1))
        return [[(lower, None if ok else {}), (upper, None)] for lower, upper, ok in zip(
            rep.lower_slack.tolist(), rep.upper_slack.tolist(), rep.passed.tolist())]
    return _draw_pair, evaluate, None


@_suite("normcomp", 2)
def normcomp_suite():
    """sigma <= c omega implies ||X||^2_{omega} <= c ||X||^2_{sigma} for the
    resolvent-weighted norms."""
    def draw(sub, ks):
        return (*_draw_pair(sub, ks), matcore.random_hermitian(sub, 2 + (ks[0] % 2)))

    def evaluate(g1, g2, x):
        sigmas, omegas = _pair(g1, g2, 0.1)
        cs = matcore.loewner_min_coefficient(sigmas.matrix, omegas)
        out = []
        for c, lhs, n2 in zip(cs.tolist(), entropy.weighted_norm_sq(x, omegas).tolist(),
                              entropy.weighted_norm_sq(x, sigmas).tolist()):
            rhs = c * n2
            bad = lhs > rhs + SLACK * max(1.0, abs(rhs))
            out.append([(rhs - lhs, {"lhs": lhs, "rhs": rhs} if bad else None)])
        return out
    return draw, evaluate, None


@_suite("integral-form", 2)
def integral_form_suite():
    """Quadrature path vs eigendecomposition path for relative entropy."""
    def evaluate(g1, g2):
        rhos, sigmas = _pair(g1, g2, 0.1)
        quad = entropy.relative_entropy_integral_form(rhos, sigmas, INTEGRAL_QUAD_POINTS)
        errs = np.abs(entropy.unwrap(entropy.relative_entropy(rhos, sigmas)) - quad).tolist()
        return [[(-err, {"error": err} if err > INTEGRAL_TOL else None)] for err in errs]
    return _draw_pair, evaluate, {"quadPoints": INTEGRAL_QUAD_POINTS, "tolerance": INTEGRAL_TOL}


@_suite("clsi-converse", 1)
def clsi_converse_suite():
    """Fixed-point converse for the qubit depolarizing semigroup, bare and
    with a dim-2 untouched auxiliary."""
    lind = CLSI_LINDBLADIAN
    kinds = (("bare", 2), ("extended", 4))

    def draw(sub, ks):
        return tuple(_cn(sub, dim) for _, dim in kinds)

    def evaluate(*gs):
        kinds_pairs = [_report_pairs(bounds.clsi_converse_check(
            lind, DensityMatrix.from_matrices(matcore.hilbert_schmidt(g, 0.0)), CLSI_TIMES,
            CLSI_VARIANTS), "t", "variant", kind=kind) for (kind, _), g in zip(kinds, gs)]
        return [sum(pairs, []) for pairs in zip(*kinds_pairs)]
    return draw, evaluate, {"c": lind.pp_index, "diamond": lind.diamond_upper,
                            "times": list(CLSI_TIMES), "variants": list(CLSI_VARIANTS),
                            "extended": True}


def _converse_pairs(rep: bounds.BoundReport, branches: dict) -> list:
    """The (margin, violation) pairs of a per-time converse report, counting the
    branch of each of its cells."""
    for branch in rep.extra["branch"].ravel().tolist():
        branches[branch] += 1
    return _report_pairs(rep, "t")


@_suite("classical", 1)
def classical_converse_suite():
    """Commuting-pair converse under the weakly-coupled replacement
    semigroup toward the qubit depolarizing projection."""
    e = channels.depolarizing_projection(2)
    c, diamond = 4.0, 2.0 * CLASSICAL_SUITE_COUPLING
    branches = {"large-D": 0, "small-D": 0}

    def draw(sub, ks):
        s0 = sub.uniform(CLASSICAL_SIGMA_FLOOR, 1.0 - CLASSICAL_SIGMA_FLOOR)
        # from the same counter, even k draw r0 and odd k step it from s0
        step = copy.copy(sub).normal()
        return s0, np.where(np.array(ks) % 2 == 0, sub.uniform(0.001, 0.999),
                            np.clip(s0 + 0.08 * step, 1e-4, 1 - 1e-4))

    def evaluate(s0, r0):
        states = DensityMatrix.from_matrices(_diagonals(s0, r0))
        return _converse_pairs(bounds.classical_converse_check(
            e, states[len(s0):], states[:len(s0)], CLASSICAL_SUITE_TIMES, c, diamond),
            branches)
    return draw, evaluate, {"coupling": CLASSICAL_SUITE_COUPLING, "c": c, "diamond": diamond,
                            "times": list(CLASSICAL_SUITE_TIMES), "branches": branches}


@_suite("classical-mutinfo", 1)
def classical_mutinfo_suite():
    """Mutual-information converse on random 2x2 classical joints with
    B-side replacement noise toward the depolarizing projection."""
    e = channels.depolarizing_projection(2)
    c, diamond = 4.0, 2.0 * MUTINFO_SUITE_COUPLING
    branches = {"large-D": 0, "small-D": 0}

    def draw(sub, ks):
        return (matcore.random_probability_vector(sub, 4, floor=MUTINFO_CELL_FLOOR),)

    def evaluate(cells):
        joints = np.zeros((len(cells), 4, 4), dtype=complex)
        joints[:, range(4), range(4)] = cells
        states = BipartiteDensity(2, 2, DensityMatrix.from_matrices(joints))
        return _converse_pairs(bounds.mutual_info_converse_check(
            e, states, CLASSICAL_SUITE_TIMES, c, diamond), branches)
    return draw, evaluate, {"coupling": MUTINFO_SUITE_COUPLING, "c": c, "diamond": diamond,
                            "times": list(CLASSICAL_SUITE_TIMES), "branches": branches}


@_suite("decayed-state", 1)
def decayed_state_suite():
    """Partial-replacement comparison with theta = omega = I/2 and c = 1."""
    mixed = DensityMatrix.maximally_mixed(2)

    def draw(sub, ks):
        pair = _draw_commuting(sub, 2)
        zeta = sub.uniform(0.01, 0.5)
        return (*pair, zeta, sub.uniform(zeta + 1e-4, 0.95))

    def evaluate(h, p, q, zeta, eps):
        states = DensityMatrix.from_matrices(_in_eigenbases(h, p, q))
        return _report_pairs(bounds.decayed_state_bound_check(
            states[:len(h)], states[len(h):], mixed, mixed, eps, zeta, 1.0))
    return draw, evaluate, None


@_suite("origcompare", 1)
def origcompare_suite():
    """Upper comparison of D(rho||sigma) through the mixed pair, on
    commuting qubit tuples with rho >= (1-zeta) sigma by construction."""
    def draw(sub, ks):
        s0, zeta, w0 = sub.uniform(0.05, 0.95), sub.uniform(0.05, 0.9), sub.uniform(0.0, 1.0)
        # omega = sigma every third sample, the replacement-style special
        # case: o0 is NaN there, and eps takes the counter of the others' o0
        own = np.array(ks) % 3 != 0
        eps_at_o0 = copy.copy(sub).uniform(0.02, 0.9)
        o0 = np.where(own, sub.uniform(0.02, 0.98), np.nan)
        return s0, zeta, w0, o0, np.where(own, sub.uniform(0.02, 0.9), eps_at_o0)

    def evaluate(s0, zeta, w0, o0, eps):
        own = ~np.isnan(o0)
        built = DensityMatrix.from_matrices(_diagonals(s0, o0[own]))
        sigmas = built[:len(s0)]
        # omega is the sample's own o0 state, or its sigma where o0 is NaN
        omegas = built[np.where(own, len(s0) - 1 + np.cumsum(own), np.arange(len(s0)))]
        z = zeta[:, None, None]
        rhos = DensityMatrix.from_matrices((1 - z) * sigmas.matrix + z * _diagonals(w0))
        return _report_pairs(bounds.origcompare_check(rhos, sigmas, omegas, eps, zeta))
    return draw, evaluate, None


@_suite("data-processing", 1)
def data_processing_suite():
    """D(Phi rho || Phi sigma) <= D(rho || sigma) for the channel
    constructors of the package."""
    def draw(sub, ks):
        return (_cn(sub, 2), _cn(sub, 2), *(sub.uniform(0.0, 1.0) for _ in range(2)),
                *(sub.uniform(0.05, 0.95) for _ in range(2)))

    def evaluate(g1, g2, dep, deph, lam, p):
        rhos, sigmas = _pair(g1, g2, 0.02)
        d_pre = entropy.unwrap(entropy.relative_entropy(rhos, sigmas)).tolist()
        out = [[] for _ in range(len(rhos))]
        # one family of channels per constructor, member i acting on sample i
        for idx, ch in enumerate((channels.depolarizing(2, dep), channels.dephasing_y(deph),
                                  experiments.flagged_channel(lam, p, "dephasing-y"))):
            images = DensityMatrix.from_matrices(
                np.concatenate([ch.apply_matrix(xs.matrix) for xs in (rhos, sigmas)]))
            d_post = entropy.unwrap(entropy.relative_entropy(images[:len(rhos)],
                                                             images[len(rhos):])).tolist()
            for pairs, pre, post in zip(out, d_pre, d_post):
                pairs.append((pre - post, {"channel": idx} if post > pre + SLACK else None))
        return out
    return draw, evaluate, None


@_suite("channel-validity", 3)
def channel_validity_suite():
    """Channels map random densities to valid densities (PSD, unit trace)."""
    def draw(sub, ks):
        return _cn(sub, 2 + (ks[0] % 3)), sub.uniform(0.0, 1.0)

    def evaluate(g, lam):
        rhos = DensityMatrix.from_matrices(matcore.hilbert_schmidt(g, 0.0))
        outs = channels.depolarizing(g.shape[-1], lam).apply_matrix(rhos.matrix)
        w = matcore.jacobi_eigh_batch(matcore.as_hermitian(outs))[0][:, 0].tolist()
        out = []
        for w0, tr in zip(w, outs.trace(0, 1, 2).real.tolist()):
            bad = w0 < -1e-9 or abs(tr - 1.0) > 1e-9
            out.append([(min(w0, 1e-9 - abs(tr - 1.0)), {} if bad else None)])
        return out
    return draw, evaluate, None


# in aggregate ("all") runs the heavier suites take a reduced share of the
# requested sample count; an explicitly named suite always runs the exact
# requested count
SAMPLE_SCALE = {
    "integral-form": 0.1,
    "clsi-converse": 0.25,
    "classical-mutinfo": 0.5,
}


def run_suites(names, samples: int, seed: int) -> dict:
    """Run the named suites (or all) and collect a deterministic report."""
    samples = _sample_count(samples)
    aggregate = names in ("all", ["all"], ("all",))
    if aggregate:
        names = list(SUITES)
    if not names:
        raise ValueError("no suite named: give suite names or 'all'")
    reports = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        n = max(1, int(samples * SAMPLE_SCALE.get(name, 1.0))) if aggregate else samples
        reports.append(SUITES[name](n, seed))
    return {
        "seed": seed,
        "requestedSamples": samples,
        "suites": reports,
        "allPassed": all(r["passed"] for r in reports),
    }

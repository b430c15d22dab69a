"""Randomized verification suites.

Every suite draws its states from counter-derived substreams of a root
seed, checks an inequality against exact entropic values, and returns a
report dict.  A violation record carries the sample counter so the
offending state can be regenerated from (seed, counter) alone.  Reports
are plain JSON-serializable dicts with deterministic content.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import bounds, channels, entropy, matcore
from .matcore import BipartiteDensity, DensityMatrix
from .rng import Rng

SLACK = 1e-10
# integral-form: quadrature order and the largest accepted |quadrature - eigenbasis|
INTEGRAL_QUAD_POINTS = 64
INTEGRAL_TOL = 1e-6
# clsi-converse: the times and g-factor variants of the worked qubit-depolarizing table
CLSI_TIMES = (1e-3, 1e-2, 1e-1, 1.0)
CLSI_VARIANTS = ("theorem", "paper-example")


def _run(name: str, samples: int, seed: int, case, extra: dict | None = None) -> dict:
    """Run one suite and build its report.

    case(sub, k) draws sample k from its substream sub and yields
    (margin, violation) pairs, where violation is None or a dict of details;
    each violation is recorded with its counter k, and the report keeps the
    smallest margin.
    """
    rng = Rng(seed)
    violations = []
    worst = math.inf
    for k in range(samples):
        for margin, violation in case(rng.substream(k), k):
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
    if extra:
        out["params"] = extra
    return out


def _rand_commuting_pair(rng: Rng, d: int):
    """Simultaneously diagonalizable pair in a random eigenbasis."""
    basis = matcore.eigh(matcore.random_hermitian(rng, d)).eigenvectors
    p = matcore.random_probability_vector(rng, d, floor=0.01)
    q = matcore.random_probability_vector(rng, d, floor=0.01)
    rho = DensityMatrix.from_matrix((basis * p) @ basis.conj().T)
    sigma = DensityMatrix.from_matrix((basis * q) @ basis.conj().T)
    return rho, sigma


def pinsker_suite(samples: int, seed: int) -> dict:
    """Both Pinsker forms on commuting pairs, the basic form on arbitrary pairs."""
    def case(sub, k):
        d = 2 + (k % 2)
        rep = entropy.pinsker_check(*_rand_commuting_pair(sub, d))
        yield (rep.relative_entropy - rep.basic_bound,
               None if rep.passed else {"kind": "commuting"})
        yield rep.relative_entropy - (rep.refined_bound or 0.0), None
        rep2 = entropy.pinsker_check(matcore.random_density(sub, d),
                                     matcore.random_density(sub, d, mix=0.05))
        yield (rep2.relative_entropy - rep2.basic_bound,
               None if rep2.basic_holds else {"kind": "general"})
    return _run("pinsker", samples, seed, case)


def almost_concavity_suite(samples: int, seed: int) -> dict:
    """Joint convexity defect bound
    D(mix || mix) >= p D1 + (1-p) D2 - f_m(p) on commuting tuples."""
    def case(sub, k):
        d = 3
        basis = matcore.eigh(matcore.random_hermitian(sub, d)).eigenvectors
        def diag_density(vals):
            return DensityMatrix.from_matrix((basis * vals) @ basis.conj().T)
        sigma1 = matcore.random_probability_vector(sub, d, floor=0.02)
        sigma2 = matcore.random_probability_vector(sub, d, floor=0.02)
        rho1 = matcore.random_probability_vector(sub, d)
        rho2 = matcore.random_probability_vector(sub, d)
        p = sub.uniform(0.001, 0.999)
        m_tilde = float(min(sigma1.min(), sigma2.min()))
        lhs = entropy.relative_entropy(
            diag_density(p * rho1 + (1 - p) * rho2),
            diag_density(p * sigma1 + (1 - p) * sigma2)).unwrap()
        d1 = entropy.relative_entropy(diag_density(rho1), diag_density(sigma1)).unwrap()
        d2 = entropy.relative_entropy(diag_density(rho2), diag_density(sigma2)).unwrap()
        rhs = p * d1 + (1 - p) * d2 - entropy.f_almost_concavity(p, m_tilde)
        yield lhs - rhs, ({"lhs": lhs, "rhs": rhs} if lhs < rhs - SLACK else None)
    return _run("almost-concavity", samples, seed, case)


def gaorouze_suite(samples: int, seed: int) -> dict:
    """Order-to-entropy sandwich on comparable full-rank pairs."""
    def case(sub, k):
        d = 2 + (k % 2)
        rho = matcore.random_density(sub, d, mix=0.1)
        sigma = matcore.random_density(sub, d, mix=0.1)
        rep = entropy.gaorouze_sandwich_check(rho, sigma)
        yield rep.lower_slack, (None if rep.passed else {})
        yield rep.upper_slack, None
    return _run("gaorouze", samples, seed, case)


def normcomp_suite(samples: int, seed: int) -> dict:
    """sigma <= c omega implies ||X||^2_{omega} <= c ||X||^2_{sigma} for the
    resolvent-weighted norms."""
    def case(sub, k):
        d = 2 + (k % 2)
        sigma = matcore.random_density(sub, d, mix=0.1)
        omega = matcore.random_density(sub, d, mix=0.1)
        c = matcore.loewner_min_coefficient(sigma, omega)
        x = matcore.random_hermitian(sub, d)
        lhs = entropy.weighted_norm_sq(x, omega)
        rhs = c * entropy.weighted_norm_sq(x, sigma)
        bad = lhs > rhs + SLACK * max(1.0, abs(rhs))
        yield rhs - lhs, ({"lhs": lhs, "rhs": rhs} if bad else None)
    return _run("normcomp", samples, seed, case)


def integral_form_suite(samples: int, seed: int) -> dict:
    """Quadrature path vs eigendecomposition path for relative entropy."""
    def case(sub, k):
        d = 2 + (k % 2)
        rho = matcore.random_density(sub, d, mix=0.1)
        sigma = matcore.random_density(sub, d, mix=0.1)
        de = entropy.relative_entropy(rho, sigma).unwrap()
        di = entropy.relative_entropy_integral_form(rho, sigma, INTEGRAL_QUAD_POINTS)
        err = abs(de - di)
        yield -err, ({"error": err} if err > INTEGRAL_TOL else None)
    return _run("integral-form", samples, seed, case,
                extra={"quadPoints": INTEGRAL_QUAD_POINTS, "tolerance": INTEGRAL_TOL})


@functools.cache
def _clsi_tables():
    """The clsi suite's fixed data, built once per process: the Lindbladian,
    the g factors per time and variant, and per kind its name, dimension,
    fixed-point map and semigroup per time."""
    # the worked qubit-depolarizing case: c = 4, analytic diamond bound 3/4
    lind = channels.replacement_lindbladian(channels.depolarizing_projection(2),
                                            diamond_upper=0.75, pp_index=4.0)
    factors = tuple(
        tuple(bounds.g_factor(-math.expm1(-t * lind.pp_index * lind.diamond_upper),
                              lind.pp_index, variant=variant)[0]
              for variant in CLSI_VARIANTS)
        for t in CLSI_TIMES)
    semis = tuple(lind.semigroup(t) for t in CLSI_TIMES)
    kinds = (("bare", 2, lind.fixed_point.superop, semis),
             ("extended", 4, lind.fixed_point.superop.tensor_identity(2),
              tuple(s.tensor_identity(2) for s in semis)))
    return lind, factors, kinds


def clsi_converse_suite(samples: int, seed: int) -> dict:
    """Fixed-point converse for the qubit depolarizing semigroup, bare and
    with a dim-2 untouched auxiliary."""
    lind, factors, kinds = _clsi_tables()

    def case(sub, k):
        for kind, dim, e, evolve in kinds:
            rho = matcore.random_density(sub, dim)
            e_rho = DensityMatrix.from_matrix(e.apply_matrix(rho.matrix))
            d_pre = entropy.relative_entropy(rho, e_rho).unwrap()
            for t, phi, g_t in zip(CLSI_TIMES, evolve, factors):
                evolved = DensityMatrix.from_matrix(phi.apply_matrix(rho.matrix))
                d_post = entropy.relative_entropy(evolved, e_rho).unwrap()
                for variant, g in zip(CLSI_VARIANTS, g_t):
                    bad = d_post < g * d_pre - SLACK
                    yield d_post - g * d_pre, (
                        {"t": t, "variant": variant, "kind": kind} if bad else None)
    return _run("clsi-converse", samples, seed, case,
                extra={"c": lind.pp_index, "diamond": lind.diamond_upper,
                       "times": list(CLSI_TIMES), "variants": list(CLSI_VARIANTS),
                       "extended": True})


# weak replacement coupling keeps the (a, eps, m_tilde) triple feasible at
# the sampled m_tilde floor for both suite times; see ConverseBoundParams
CLASSICAL_SUITE_TIMES = (0.01, 0.1)
CLASSICAL_SUITE_COUPLING = 0.01
CLASSICAL_SIGMA_FLOOR = 0.35
MUTINFO_SUITE_COUPLING = 2.5e-4
MUTINFO_CELL_FLOOR = 0.16


def _tally(reports, branches: dict):
    """(margin, violation) pairs of the per-time converse reports, counting
    each report's branch."""
    for t, rep in zip(CLASSICAL_SUITE_TIMES, reports):
        branches[rep.extra["branch"]] += 1
        yield rep.margin, (None if rep.passed else {"t": t})


def classical_converse_suite(samples: int, seed: int) -> dict:
    """Commuting-pair converse under the weakly-coupled replacement
    semigroup toward the qubit depolarizing projection."""
    e = channels.depolarizing_projection(2)
    c = 4.0
    diamond = 2.0 * CLASSICAL_SUITE_COUPLING
    branches = {"large-D": 0, "small-D": 0}

    def case(sub, k):
        s0 = sub.uniform(CLASSICAL_SIGMA_FLOOR, 1.0 - CLASSICAL_SIGMA_FLOOR)
        sigma = DensityMatrix.diagonal([s0, 1.0 - s0])
        if k % 2 == 0:
            r0 = sub.uniform(0.001, 0.999)
        else:
            r0 = min(max(s0 + 0.08 * sub.normal(), 1e-4), 1 - 1e-4)
        rho = DensityMatrix.diagonal([r0, 1.0 - r0])
        return _tally(bounds.classical_converse_check(
            e, rho, sigma, CLASSICAL_SUITE_TIMES, c, diamond), branches)
    return _run("classical", samples, seed, case,
                extra={"coupling": CLASSICAL_SUITE_COUPLING, "c": c,
                       "diamond": diamond, "times": list(CLASSICAL_SUITE_TIMES),
                       "branches": branches})


def classical_mutinfo_suite(samples: int, seed: int) -> dict:
    """Mutual-information converse on random 2x2 classical joints with
    B-side replacement noise toward the depolarizing projection."""
    e = channels.depolarizing_projection(2)
    c = 4.0
    diamond = 2.0 * MUTINFO_SUITE_COUPLING
    branches = {"large-D": 0, "small-D": 0}

    def case(sub, k):
        cells = matcore.random_probability_vector(sub, 4, floor=MUTINFO_CELL_FLOOR)
        joint = BipartiteDensity.from_matrix(np.diag(cells.astype(complex)), 2, 2)
        return _tally(bounds.mutual_info_converse_check(
            e, joint, CLASSICAL_SUITE_TIMES, c, diamond), branches)
    return _run("classical-mutinfo", samples, seed, case,
                extra={"coupling": MUTINFO_SUITE_COUPLING, "c": c,
                       "diamond": diamond, "times": list(CLASSICAL_SUITE_TIMES),
                       "branches": branches})


def decayed_state_suite(samples: int, seed: int) -> dict:
    """Partial-replacement comparison with theta = omega = I/2 and c = 1."""
    mixed = DensityMatrix.maximally_mixed(2)

    def case(sub, k):
        rho, sigma = _rand_commuting_pair(sub, 2)
        zeta = sub.uniform(0.01, 0.5)
        eps = sub.uniform(zeta + 1e-4, 0.95)
        rep = bounds.decayed_state_bound_check(rho, sigma, mixed, mixed,
                                               eps=eps, zeta=zeta, c=1.0)
        yield rep.margin, (None if rep.passed else {})
    return _run("decayed-state", samples, seed, case)


def origcompare_suite(samples: int, seed: int) -> dict:
    """Upper comparison of D(rho||sigma) through the mixed pair, on
    commuting qubit tuples with rho >= (1-zeta) sigma by construction."""
    def case(sub, k):
        s0 = sub.uniform(0.05, 0.95)
        sigma = DensityMatrix.diagonal([s0, 1.0 - s0])
        zeta = sub.uniform(0.05, 0.9)
        w0 = sub.uniform(0.0, 1.0)
        rho = DensityMatrix.from_matrix(
            (1 - zeta) * sigma.matrix + zeta * np.diag([w0, 1.0 - w0]).astype(complex))
        if k % 3 == 0:
            omega = sigma  # replacement-style special case
        else:
            o0 = sub.uniform(0.02, 0.98)
            omega = DensityMatrix.diagonal([o0, 1.0 - o0])
        eps = sub.uniform(0.02, 0.9)
        rep = bounds.origcompare_check(rho, sigma, omega, eps=eps, zeta=zeta)
        yield rep.margin, (None if rep.passed else {})
    return _run("origcompare", samples, seed, case)


def data_processing_suite(samples: int, seed: int) -> dict:
    """D(Phi rho || Phi sigma) <= D(rho || sigma) for the channel
    constructors of the package."""
    def case(sub, k):
        rho = matcore.random_density(sub, 2, mix=0.02)
        sigma = matcore.random_density(sub, 2, mix=0.02)
        d_pre = entropy.relative_entropy(rho, sigma).unwrap()
        chans = [
            channels.depolarizing(2, sub.uniform(0.0, 1.0)),
            channels.dephasing_y(sub.uniform(0.0, 1.0)),
            _random_flagged_channel(sub),
        ]
        for idx, ch in enumerate(chans):
            d_post = entropy.relative_entropy(ch.apply(rho), ch.apply(sigma)).unwrap()
            yield d_pre - d_post, ({"channel": idx} if d_post > d_pre + SLACK else None)
    return _run("data-processing", samples, seed, case)


def _random_flagged_channel(sub: Rng):
    from . import experiments
    return experiments.flagged_channel(sub.uniform(0.05, 0.95),
                                       sub.uniform(0.05, 0.95))


def channel_validity_suite(samples: int, seed: int) -> dict:
    """Channels map random densities to valid densities (PSD, unit trace)."""
    def case(sub, k):
        d = 2 + (k % 3)
        rho = matcore.random_density(sub, d)
        ch = channels.depolarizing(d, sub.uniform(0.0, 1.0))
        out = ch.apply_matrix(rho.matrix)
        w, _ = matcore.eigh(out)
        tr = float(np.trace(out).real)
        bad = w[0] < -1e-9 or abs(tr - 1.0) > 1e-9
        yield min(float(w[0]), 1e-9 - abs(tr - 1.0)), ({} if bad else None)
    return _run("channel-validity", samples, seed, case)


SUITES = {
    "pinsker": pinsker_suite,
    "almost-concavity": almost_concavity_suite,
    "gaorouze": gaorouze_suite,
    "normcomp": normcomp_suite,
    "integral-form": integral_form_suite,
    "clsi-converse": clsi_converse_suite,
    "classical": classical_converse_suite,
    "classical-mutinfo": classical_mutinfo_suite,
    "decayed-state": decayed_state_suite,
    "origcompare": origcompare_suite,
    "data-processing": data_processing_suite,
    "channel-validity": channel_validity_suite,
}

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
    aggregate = names in ("all", ["all"], ("all",))
    if aggregate:
        names = list(SUITES)
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

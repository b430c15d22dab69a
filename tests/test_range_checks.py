"""Range checks reject NaN with the message they give any other value outside
the range: each check is written so that a NaN comparison fails it.  A range
with a finite end rejects inf the same way."""

import math

import numpy as np
import pytest

from oracles import expansion_consistency_check, pinching, replacement_semigroup
from qdecay import bounds, channels, entropy, verify
from qdecay.matcore import DensityMatrix

NAN = math.nan
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def _replacement(diamond_upper, pp_index):
    return channels.replacement_lindbladian(channels.depolarizing_projection(2),
                                            diamond_upper, pp_index)


def _semigroup(t):
    return _replacement(2.0, 4.0).semigroup(t)


def _decayed_state(c):
    half = DensityMatrix.from_matrix(np.eye(2) / 2)
    return bounds.decayed_state_bound_check(half, half, half, half, 0.2, 0.1, c)


CASES = {
    "g_factor-c": (lambda: bounds.g_factor(0.5, NAN, "theorem"), "c must exceed 1"),
    "g_factor-c-inf": (lambda: bounds.g_factor(0.5, math.inf, "theorem"), "c must exceed 1"),
    "g_factor-zeta": (lambda: bounds.g_factor(NAN, 4.0, "theorem"), "zeta must lie in"),
    "kappa": (lambda: entropy.kappa(NAN), "kappa requires c >= 1"),
    "kappa-inf": (lambda: entropy.kappa(math.inf), "kappa requires c >= 1"),
    "replacement_weights-t": (lambda: bounds._replacement_weights(NAN, 4.0, 0.75), "need t >= 0"),
    "replacement_weights-c": (lambda: bounds._replacement_weights(0.1, NAN, 0.75), "need t >= 0"),
    "replacement_weights-diamond": (lambda: bounds._replacement_weights(0.1, 4.0, NAN),
                                    "need t >= 0"),
    "replacement_semigroup": (lambda: replacement_semigroup(pinching(2), NAN),
                              "time must be nonnegative"),
    "lindbladian_semigroup": (lambda: _semigroup(NAN), "time must be nonnegative"),
    "replacement_lindbladian-diamond": (lambda: _replacement(NAN, 4.0), "diamond_upper > 0"),
    "replacement_lindbladian-diamond-inf": (lambda: _replacement(math.inf, 4.0),
                                            "diamond_upper > 0"),
    "replacement_lindbladian-diamond-negative": (lambda: _replacement(-1.0, 0.5),
                                                 "diamond_upper > 0"),
    "replacement_lindbladian-pp_index": (lambda: _replacement(2.0, NAN), "pp_index >= 1"),
    "replacement_lindbladian-pp_index-inf": (lambda: _replacement(2.0, math.inf),
                                             "pp_index >= 1"),
    "lindbladian_semigroup-inf": (lambda: _semigroup(math.inf),
                                  "time must be nonnegative and finite"),
    "from_generators-probs": (
        lambda: channels.GroupLindbladian.from_generators([X, Z], [NAN, 0.5]),
        "probabilities must be nonnegative and sum to 1"),
    "from_generators-unitary": (
        lambda: channels.GroupLindbladian.from_generators([X, NAN * Z], [0.5, 0.5]),
        "not unitary"),
    "from_kraus": (lambda: channels.KrausChannel.from_kraus([NAN * np.eye(2)]), "completeness"),
    "expansion_consistency_check": (lambda: expansion_consistency_check(NAN, 0.1),
                                    "small-angle"),
    "decayed_state_bound_check": (lambda: _decayed_state(NAN), "order precondition fails"),
    "run_suites-zero": (lambda: verify.run_suites("all", 0, 1), "at least 1 sample"),
    "run_suites-negative": (lambda: verify.run_suites("all", -3, 1), "at least 1 sample"),
    "run_suites-fraction": (lambda: verify.run_suites(["pinsker"], 2.5, 1), "at least 1 sample"),
    "run_suites-nan": (lambda: verify.run_suites(["pinsker"], NAN, 1), "at least 1 sample"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_nan_fails_the_range_check(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=message):
        call()

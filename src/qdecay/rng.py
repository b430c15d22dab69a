"""Counter-based deterministic random number generation.

The generator is SplitMix64 (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014): a 64-bit counter advanced
by the golden-gamma constant and scrambled by two xor-multiply rounds.
Every draw is a pure function of (seed, counter), so streams can be
reproduced exactly in any language from the documented constants, and
per-sample substreams are derived by counter offsets rather than by
consuming shared state.

A generator may also hold a batch of streams, from a uint64 array of
seeds.  Its members advance their counters in lockstep, every draw returns
an array with a leading member axis, and member i draws the bits of the
scalar stream of seed i: numpy's uint64 arithmetic wraps modulo 2**64 as
the masks do.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x):
    """SplitMix64 finalizer: avalanche a 64-bit word, or each of a uint64 array."""
    z = x & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class Rng:
    """Deterministic stream of doubles derived from a 64-bit seed.

    ``substream(k)`` returns an independent generator for sample index k,
    and for a uint64 array of indices the batch of those substreams; suites
    use one substream per sample so violations can be reproduced from
    (root seed, sample counter) alone.
    """

    def __init__(self, seed):
        self.seed = seed & _MASK
        self._counter = 0

    def _next_word(self):
        self._counter += 1
        # the product is masked first so that a uint64 array seed can take it
        return mix64((self.seed + (self._counter * _GAMMA & _MASK)) & _MASK)

    def substream(self, index) -> "Rng":
        return Rng(mix64((self.seed ^ (index + 1) * _GAMMA) & _MASK))

    def uniform(self, low=0.0, high=1.0):
        # 53-bit mantissa draw in [0, 1)
        u = (self._next_word() >> 11) * (2.0 ** -53)
        return low + (high - low) * u

    def uniform_open(self):
        """Uniform in (0, 1]; safe as a log argument."""
        return ((self._next_word() >> 11) + 1) * (2.0 ** -53)

    def normal(self):
        return self.normals(1).T[0]

    def normals(self, n: int) -> np.ndarray:
        """n standard normals, the bits of n normal() calls: Box-Muller on word
        pairs, u1 in (0, 1] as uniform_open and u2 in [0, 1) as uniform, the
        second value discarded so each output depends on two counters only.
        The logarithm is math.log per value: numpy's differs in the last bit
        on some inputs, while its cos and sqrt agree with math's."""
        ks = np.arange(self._counter + 1, self._counter + 1 + 2 * n, dtype=np.uint64)
        self._counter += 2 * n
        w = mix64(np.asarray(self.seed, dtype=np.uint64)[..., None] + ks * _GAMMA)
        u1 = ((w[..., 0::2] >> 11) + 1) * (2.0 ** -53)
        u2 = (w[..., 1::2] >> 11) * (2.0 ** -53)
        log = np.array(list(map(math.log, u1.ravel().tolist()))).reshape(u1.shape)
        return np.sqrt(-2.0 * log) * np.cos(2.0 * math.pi * u2)

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection on the top bits; scalar
        streams only, since members would reject different words."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        span = (1 << 64) - ((1 << 64) % bound)
        while True:
            w = self._next_word()
            if w < span:
                return w % bound

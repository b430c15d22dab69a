"""Counter-based deterministic random number generation.

The generator is SplitMix64 (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014): a 64-bit counter advanced
by the golden-gamma constant and scrambled by two xor-multiply rounds.
Every draw is a pure function of (seed, counter), so streams can be
reproduced exactly in any language from the documented constants, and
per-sample substreams are derived by counter offsets rather than by
consuming shared state.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit word."""
    z = x & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class Rng:
    """Deterministic stream of doubles derived from a 64-bit seed.

    ``substream(k)`` returns an independent generator for sample index k;
    suites use one substream per sample so violations can be reproduced
    from (root seed, sample counter) alone.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._counter = 0

    def _next_word(self) -> int:
        self._counter += 1
        return mix64((self.seed + self._counter * _GAMMA) & _MASK)

    def substream(self, index: int) -> "Rng":
        return Rng(mix64((self.seed ^ (index + 1) * _GAMMA) & _MASK))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        # 53-bit mantissa draw in [0, 1)
        u = (self._next_word() >> 11) * (2.0 ** -53)
        return low + (high - low) * u

    def uniform_open(self) -> float:
        """Uniform in (0, 1]; safe as a log argument."""
        return ((self._next_word() >> 11) + 1) * (2.0 ** -53)

    def normal(self) -> float:
        return self.normals(1)[0]

    def normals(self, n: int) -> list[float]:
        """n standard normals, the bits of n normal() calls: Box-Muller on word
        pairs, u1 in (0, 1] as uniform_open and u2 in [0, 1) as uniform, the
        second value discarded so each output depends on two counters only."""
        seed, first = self.seed, self._counter + 1
        log, cos, sqrt, two_pi = math.log, math.cos, math.sqrt, 2.0 * math.pi
        out = []
        for k in range(first, first + 2 * n, 2):
            u1 = ((mix64((seed + k * _GAMMA) & _MASK) >> 11) + 1) * (2.0 ** -53)
            u2 = (mix64((seed + (k + 1) * _GAMMA) & _MASK) >> 11) * (2.0 ** -53)
            out.append(sqrt(-2.0 * log(u1)) * cos(two_pi * u2))
        self._counter += 2 * n
        return out

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection on the top bits."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        span = (1 << 64) - ((1 << 64) % bound)
        while True:
            w = self._next_word()
            if w < span:
                return w % bound

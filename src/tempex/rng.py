"""Portable deterministic randomness.

Everything seeded in this package goes through splitmix64 so that instances
and schedules reproduce bit-for-bit across runs and across implementations.
Child streams are derived additively: stream i of seed s is splitmix64
seeded with (s + i * GOLDEN) mod 2^64.

Integer draws are exact. `SplitMix64.gap`, which spaces a generator's extra
edges, also rests on libm's `log1p`, as `scheduler.rho_for` rests on
`math.log`: instances with extra edges reproduce wherever those agree.
"""

from __future__ import annotations

import math

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64 generator; same seed, same sequence, everywhere."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Draw an integer in [0, bound). Modulo reduction, documented as such."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def gap(self, rate: float) -> int:
        """Failures before the first success in trials that each succeed
        with probability `rate` in (0, 1], by inversion; no draw for rate 1.
        Capped at 2**63, as a subnormal rate's quotient is infinite."""
        if rate >= 1.0:
            return 0
        u = (self.next_u64() >> 11) / 2.0**53
        return int(min(math.log1p(-u) / math.log1p(-rate), 2**63))


def stream(seed: int, index: int) -> SplitMix64:
    """Child stream `index` of `seed`; index 0 is reserved for static structure."""
    return SplitMix64((seed + index * GOLDEN) & MASK64)

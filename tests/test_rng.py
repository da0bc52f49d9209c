from __future__ import annotations

from statistics import fmean

import pytest

from tempex.rng import SplitMix64


def test_gap_at_rate_one_is_zero_and_draws_nothing():
    rng, twin = SplitMix64(3), SplitMix64(3)
    assert [rng.gap(1.0) for _ in range(5)] == [0] * 5
    assert rng.next_u64() == twin.next_u64()


def test_gap_at_a_subnormal_rate_is_an_int():
    # log1p(-u) / log1p(-5e-324) overflows to infinity for all but u = 0
    rng = SplitMix64(3)
    assert all(isinstance(rng.gap(5e-324), int) for _ in range(5))


@pytest.mark.parametrize("rate", [0.05, 0.3, 0.9])
def test_gap_has_the_geometric_mean(rate):
    # failures before a success: mean (1 - rate) / rate; 20 000 draws put the
    # sample mean within a few percent of it
    rng = SplitMix64(11)
    mean = fmean(rng.gap(rate) for _ in range(20_000))
    assert mean == pytest.approx((1 - rate) / rate, rel=0.05)


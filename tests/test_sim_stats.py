"""Tests for online statistics helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim import TimeWeightedValue, WelfordStat


def test_welford_empty():
    w = WelfordStat()
    assert w.mean == 0.0
    assert w.variance == 0.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=200))
def test_welford_matches_numpy(xs):
    w = WelfordStat()
    for x in xs:
        w.add(x)
    assert w.mean == pytest.approx(np.mean(xs), rel=1e-9, abs=1e-6)
    assert w.variance == pytest.approx(np.var(xs, ddof=1), rel=1e-6, abs=1e-4)
    assert w.min == min(xs)
    assert w.max == max(xs)


def test_time_weighted_average_piecewise():
    tw = TimeWeightedValue(initial=0.0)
    tw.update(2.0, 10.0)   # value 0 for [0,2)
    tw.update(4.0, 0.0)    # value 10 for [2,4)
    # average over [0,4] = (0*2 + 10*2)/4 = 5
    assert tw.average(4.0) == pytest.approx(5.0)
    # extend with value 0 to t=8: (20)/8
    assert tw.average(8.0) == pytest.approx(2.5)
    assert tw.current == 0.0


def test_time_weighted_rejects_backwards_time():
    tw = TimeWeightedValue()
    tw.update(5.0, 1.0)
    with pytest.raises(ValueError):
        tw.update(4.0, 2.0)


def test_time_weighted_zero_span_returns_current():
    tw = TimeWeightedValue(initial=7.0)
    assert tw.average(0.0) == 7.0

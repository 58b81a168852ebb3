"""Lightweight online statistics for simulation instrumentation.

Counts belong on the component that makes them (plain ints or a
``collections.Counter``) and reach :class:`repro.obs.MetricsRegistry`
through a collector; this module keeps only the streaming estimators.
"""

from __future__ import annotations

import math
from typing import Optional


class WelfordStat:
    """Streaming mean/variance via Welford's algorithm (numerically stable)."""

    __slots__ = ("n", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


class TimeWeightedValue:
    """Time-weighted average of a piecewise-constant signal (queue depth...)."""

    __slots__ = ("_value", "_last_time", "_area", "_start")

    def __init__(self, initial: float = 0.0, start_time: float = 0.0) -> None:
        self._value = initial
        self._last_time = start_time
        self._start = start_time
        self._area = 0.0

    def update(self, now: float, value: float) -> None:
        if now < self._last_time:
            raise ValueError("time went backwards")
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = value

    @property
    def current(self) -> float:
        return self._value

    def average(self, now: Optional[float] = None) -> float:
        now = self._last_time if now is None else now
        span = now - self._start
        if span <= 0:
            return self._value
        area = self._area + self._value * (now - self._last_time)
        return area / span

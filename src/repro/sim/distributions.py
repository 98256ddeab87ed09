"""Seedable random distributions used by the trace generators.

The paper reports distributional statistics (medians, means, CDF anchors).
We fit simple parametric families to those anchors; every distribution here
draws from a caller-supplied :class:`numpy.random.Generator` so that a
single seed reproduces an entire synthetic trace.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class Distribution:
    """Base class: a distribution over floats."""

    def sample(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.array([self.sample(rng) for _ in range(n)], dtype=float)


@dataclass(frozen=True)
class Constant(Distribution):
    """Degenerate distribution: always ``value``."""

    value: float

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.value)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, float(self.value))


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform distribution over [low, high]."""
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError("high must be >= low")
        # numpy's uniform rejects, at every draw, a span that is not
        # finite or has its sign bit set (``Uniform(0.0, -0.0)``)
        span = float(self.high) - float(self.low)
        if not math.isfinite(span) or math.copysign(1.0, span) < 0:
            raise ValueError("high - low must be finite and non-negative")

    def sample(self, rng: np.random.Generator) -> float:
        # ``rng.uniform(low, high)`` computed as numpy does it, from the
        # same one double, without its per-call overhead.
        low = float(self.low)
        return low + (float(self.high) - low) * rng.random()

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Log-normal parameterized by the underlying normal's mu/sigma."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    @property
    def median(self) -> float:
        return math.exp(self.mu)

    @property
    def mean(self) -> float:
        return math.exp(self.mu + self.sigma ** 2 / 2.0)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu, self.sigma))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=n)


def lognormal_from_median_mean(median: float, mean: float) -> LogNormal:
    """Fit a log-normal to a reported (median, mean) pair.

    The paper's Table 3 reports both the median and the average of
    time-to-failure per category; a log-normal is the natural heavy-tailed
    family fitting both moments: ``mu = ln(median)`` and
    ``sigma = sqrt(2 * ln(mean / median))``.
    """
    if median <= 0 or mean <= 0:
        raise ValueError("median and mean must be positive")
    if mean < median:
        # Degenerate reporting (possible with tiny samples); fall back to a
        # narrow distribution centred on the median.
        return LogNormal(math.log(median), 0.05)
    sigma = math.sqrt(2.0 * math.log(mean / median))
    return LogNormal(math.log(median), sigma)


def _normalized(weights: Sequence[float]) -> tuple[np.ndarray, list[float]]:
    """Weights scaled to sum to 1, and the CDF a scalar pick bisects.

    ``rng.choice(k, p=p)`` builds ``cdf = p.cumsum(); cdf /= cdf[-1]`` on
    every call and returns ``cdf.searchsorted(rng.random(), side="right")``.
    Built once here, ``bisect_right(cdf, rng.random())`` picks the same
    index from the same one double.  numpy also checks ``p`` on every
    call; the checks it would fail are made here instead.
    """
    values = np.asarray(weights, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("weights must be finite")
    if (values < 0).any():
        raise ValueError("weights must be non-negative")
    total = float(sum(weights))
    if not 0 < total < math.inf:
        raise ValueError("weights must sum to a positive value")
    values = values / total
    cdf = values.cumsum()
    cdf /= cdf[-1]
    return values, cdf.tolist()


class Mixture(Distribution):
    """A weighted mixture of component distributions."""

    def __init__(self, components: Sequence[Distribution],
                 weights: Sequence[float]) -> None:
        if len(components) != len(weights):
            raise ValueError("components and weights must align")
        if len(components) == 0:
            raise ValueError("mixture must have at least one component")
        self.components = list(components)
        self.weights, self._cdf = _normalized(weights)

    def sample(self, rng: np.random.Generator) -> float:
        component = self.components[bisect_right(self._cdf, rng.random())]
        return component.sample(rng)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        counts = rng.multinomial(n, self.weights)
        parts = [component.sample_many(rng, int(count))
                 for component, count in zip(self.components, counts)
                 if count > 0]
        samples = np.concatenate(parts) if parts else np.empty(0)
        rng.shuffle(samples)
        return samples


class Choice:
    """A weighted categorical choice over arbitrary objects."""

    def __init__(self, options: Sequence, weights: Sequence[float]) -> None:
        if len(options) != len(weights):
            raise ValueError("options and weights must align")
        if len(options) == 0:
            raise ValueError("at least one option required")
        self.options = list(options)
        self.weights, self._cdf = _normalized(weights)

    def sample(self, rng: np.random.Generator):
        return self.options[bisect_right(self._cdf, rng.random())]

    def sample_many(self, rng: np.random.Generator, n: int) -> list:
        indices = rng.choice(len(self.options), size=n, p=self.weights)
        return [self.options[i] for i in indices.tolist()]

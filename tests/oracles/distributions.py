"""Reference scalar draws: one numpy call per draw.

``Choice.sample`` and ``Mixture.sample`` picked an index with
``rng.choice(k, p=weights)``, ``Uniform.sample`` called
``rng.uniform(low, high)``, and ``TraceGenerator._sample_utilization``
drew with ``rng.uniform`` and clamped with a scalar ``np.clip``.
Production computes each of these from one ``rng.random()`` with
numpy's own arithmetic, and must return the same value and leave the
generator in the same state after every draw.
"""

from __future__ import annotations

import numpy as np

from repro.scheduler.job import FinalStatus
from repro.sim.distributions import Choice, Distribution, Mixture, Uniform
from repro.workload.generator import TraceGenerator


def sample(distribution: Distribution, rng: np.random.Generator) -> float:
    """A reference draw of any distribution the oracles replace."""
    if isinstance(distribution, Uniform):
        return uniform_sample(distribution, rng)
    if isinstance(distribution, Mixture):
        return mixture_sample(distribution, rng)
    return distribution.sample(rng)


def uniform_sample(uniform: Uniform, rng: np.random.Generator) -> float:
    return float(rng.uniform(uniform.low, uniform.high))


def mixture_sample(mixture: Mixture, rng: np.random.Generator) -> float:
    index = int(rng.choice(len(mixture.components), p=mixture.weights))
    return sample(mixture.components[index], rng)


def choice_sample(choice: Choice, rng: np.random.Generator):
    index = int(rng.choice(len(choice.options), p=choice.weights))
    return choice.options[index]


def sample_utilization(generator: TraceGenerator,
                       rng: np.random.Generator,
                       status: FinalStatus) -> float:
    utilization = sample(generator.spec.utilization, rng)
    if status is FinalStatus.FAILED and rng.uniform() < 0.35:
        utilization = float(rng.uniform(0.0, 0.10))
    return float(np.clip(utilization, 0.0, 1.0))

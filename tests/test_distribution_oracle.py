"""Differential tests: scalar draws against their one-call-per-draw oracles.

``Choice.sample`` and ``Mixture.sample`` bisect a CDF built once, and
``Uniform.sample`` and ``TraceGenerator._sample_utilization`` compute
numpy's uniform from ``rng.random()``.  The bodies that called
``rng.choice(k, p=w)``, ``rng.uniform`` and ``np.clip`` per draw are
kept in ``tests/oracles/distributions.py``.  Production and oracle
draw from two generators with the same seed; after every draw the
values and ``rng.bit_generator.state`` must be equal, including when
other generator calls fall between the draws.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.scheduler.job import FinalStatus
from repro.sim.distributions import Choice, Constant, Mixture, Uniform
from repro.workload.generator import TraceGenerator
from repro.workload.spec import KALOS_SPEC, SEREN_SPEC

from .oracles import distributions as oracle

#: weights as the calibration writes them, plus the corners of the CDF:
#: zero, subnormal, tiny and lopsided values, and integers
WEIGHT = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 1e-290),
    st.floats(1e-6, 1.0),
    st.floats(1.0, 1e12),
    st.integers(0, 100),
)

#: generator calls that may fall between two draws; ``integers``
#: consumes half of a 64-bit word and buffers the other half
OTHER_CALLS = {
    "random": lambda rng: rng.random(),
    "integers": lambda rng: rng.integers(1, 16),
    "normal": lambda rng: rng.standard_normal(),
    "uniform-array": lambda rng: rng.uniform(0.0, 2.0, size=3),
    "choice": lambda rng: rng.choice(3, p=[0.2, 0.3, 0.5]),
}

#: draws with other calls between them; a draw is twice as likely
SCRIPT = st.lists(st.sampled_from(["draw", "draw", *OTHER_CALLS]),
                  min_size=1, max_size=40)

BOUND = st.one_of(st.floats(-1e300, 1e300),
                  st.floats(-2.0, 2.0),
                  st.integers(-2 ** 70, 2 ** 70))


@st.composite
def weight_lists(draw, max_size: int = 64) -> list:
    weights = draw(st.lists(WEIGHT, min_size=1, max_size=max_size))
    if not sum(weights) > 0:
        weights[draw(st.integers(0, len(weights) - 1))] = 1.0
    return weights


@st.composite
def uniforms(draw, bound=BOUND) -> Uniform:
    low, high = sorted([draw(bound), draw(bound)])
    # Uniform(0.0, -0.0) fails at construction (test_distributions.py)
    assume(math.copysign(1.0, float(high) - float(low)) > 0)
    return Uniform(low, high)


def replay(script: list, seed: int, draw, reference) -> None:
    """Run ``script`` on two same-seed generators; diff every step.

    A step named in ``OTHER_CALLS`` makes that call on both generators;
    any other step is a draw, passed to ``draw`` and ``reference``.
    """
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for step in script:
        if step in OTHER_CALLS:
            got, want = OTHER_CALLS[step](rng), OTHER_CALLS[step](rng_ref)
            assert np.array_equal(got, want)
        else:
            got, want = draw(rng, step), reference(rng_ref, step)
            assert type(got) is type(want)
            assert got is want or repr(got) == repr(want)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


@given(weights=weight_lists(), seed=st.integers(0, 2 ** 32 - 1),
       script=SCRIPT)
@settings(max_examples=300, deadline=None)
def test_choice_picks_as_numpy_does(weights, seed, script):
    choice = Choice([object() for _ in weights], weights)
    replay(script, seed, lambda rng, _: choice.sample(rng),
           lambda rng, _: oracle.choice_sample(choice, rng))


@given(weights=weight_lists(max_size=8), seed=st.integers(0, 2 ** 32 - 1),
       script=SCRIPT, data=st.data())
@settings(max_examples=200, deadline=None)
def test_mixture_draws_as_numpy_does(weights, seed, script, data):
    components = [data.draw(st.one_of(uniforms(),
                                      st.builds(Constant, st.floats(-1, 1))))
                  for _ in weights]
    mixture = Mixture(components, weights)
    replay(script, seed, lambda rng, _: mixture.sample(rng),
           lambda rng, _: oracle.mixture_sample(mixture, rng))


class OneDouble:
    """A generator stand-in whose ``random()`` returns a chosen double."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


@given(weights=weight_lists())
@settings(max_examples=200, deadline=None)
def test_picks_on_cdf_entries_match_searchsorted(weights):
    # A random double almost never equals a CDF entry, which is where
    # ``side="right"`` decides the pick; try every entry and both of
    # its neighbours against the CDF ``Generator.choice`` builds.
    p = np.asarray(weights, dtype=float) / float(sum(weights))
    cdf = p.cumsum()
    cdf /= cdf[-1]
    choice = Choice(list(range(len(weights))), weights)
    mixture = Mixture([Constant(float(i)) for i in range(len(weights))],
                      weights)
    for entry in cdf.tolist():
        for u in (math.nextafter(entry, -math.inf), entry,
                  math.nextafter(entry, math.inf)):
            if 0.0 <= u < 1.0:
                want = int(cdf.searchsorted(u, side="right"))
                assert choice.sample(OneDouble(u)) == want
                assert mixture.sample(OneDouble(u)) == want


@given(uniform=uniforms(), seed=st.integers(0, 2 ** 32 - 1), script=SCRIPT)
@settings(max_examples=300, deadline=None)
def test_uniform_draws_as_numpy_does(uniform, seed, script):
    replay(script, seed, lambda rng, _: uniform.sample(rng),
           lambda rng, _: oracle.uniform_sample(uniform, rng))


@given(weights=weight_lists(max_size=4), seed=st.integers(0, 2 ** 32 - 1),
       script=st.lists(st.sampled_from([*FinalStatus, *OTHER_CALLS]),
                       min_size=1, max_size=40),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_utilization_draws_and_clamps_as_numpy_does(weights, seed, script,
                                                    data):
    # components reach past [0, 1] so that both clamps are exercised
    components = [data.draw(uniforms(st.floats(-0.5, 1.5)))
                  for _ in weights]
    generator = TraceGenerator(dataclasses.replace(
        KALOS_SPEC, utilization=Mixture(components, weights)))
    replay(script, seed, generator._sample_utilization,
           lambda rng, status: oracle.sample_utilization(generator, rng,
                                                         status))


@pytest.mark.parametrize("spec", [KALOS_SPEC, SEREN_SPEC],
                         ids=lambda spec: spec.cluster)
def test_trace_with_oracles_swapped_in_is_identical(spec, monkeypatch):
    def every_field(trace):
        return [dataclasses.astuple(job) for job in trace.jobs]

    fast = TraceGenerator(spec, seed=3).generate(2000,
                                                 include_cpu_jobs=True)
    monkeypatch.setattr(Choice, "sample", oracle.choice_sample)
    monkeypatch.setattr(Mixture, "sample", oracle.mixture_sample)
    monkeypatch.setattr(Uniform, "sample", oracle.uniform_sample)
    monkeypatch.setattr(TraceGenerator, "_sample_utilization",
                        oracle.sample_utilization)
    reference = TraceGenerator(spec, seed=3).generate(
        2000, include_cpu_jobs=True)
    assert repr(every_field(fast)) == repr(every_field(reference))

"""Every bundled chaos scenario at seeds 0-31, pinned to its known
invariant violations.

Ten of these 256 runs end in an ``InvariantViolation`` (ROADMAP, "Zero
known invariant violations").  The pin names each violating
``(scenario, seed)`` and the invariant it breaks, told apart by the
violation's message; every other run must finish clean.  The pin may
only shrink: a fix deletes its entries, and a new violation fails here.
"""

import re

import pytest

from repro.chaos import BUNDLED_SCENARIOS, InvariantViolation, run_scenario

SEEDS = range(32)

#: invariant number -> what its violation message says
INVARIANT_MESSAGES = {
    6: re.compile(r"which is a corrupt/quarantined generation"
                  r"|which was never durably persisted"),
    12: re.compile(r"s after injection — past the"
                   r"|never detected although the"
                   r"|was not flagged as silent waste"),
    14: re.compile(r"localization convicted node \S+ whose fabric path"),
}

#: (scenario, seed) -> the invariant its run violates
KNOWN_VIOLATIONS = {
    **{("storage-storm", seed): 6
       for seed in (7, 9, 14, 16, 17, 19, 24, 28)},
    ("straggler-storm", 4): 12,
    ("partition-storm", 3): 14,
}


def violated(error: InvariantViolation) -> int | str:
    """The invariant a violation names, or its message when unknown."""
    for number, pattern in INVARIANT_MESSAGES.items():
        if pattern.search(str(error)):
            return number
    return str(error)


@pytest.mark.parametrize("name", sorted(BUNDLED_SCENARIOS))
def test_seed_sweep_violates_only_the_known_invariants(name):
    found = {}
    for seed in SEEDS:
        try:
            run_scenario(BUNDLED_SCENARIOS[name].with_seed(seed))
        except InvariantViolation as error:
            found[seed] = violated(error)
    assert found == {seed: invariant for (scenario, seed), invariant
                     in KNOWN_VIOLATIONS.items() if scenario == name}

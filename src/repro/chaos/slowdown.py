"""The slowdown fault domain of a chaos run: stragglers and power caps.

Nothing crashes in this domain.  A straggler (or a silent degrader)
makes one node a little slower every ramp interval, and a facility
power cap slows the whole fleet for a window.  :class:`SlowdownDomain`
keeps that state, composes it with the fabric's health into the gang's
step stretch, samples step time for the deviation detector, and
accounts the quietly lost capacity at the horizon.  Interrupting,
cordoning and re-placing the gang stay with the harness.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.chaos.fabric import FabricDomain
from repro.chaos.invariants import InvariantChecker
from repro.chaos.scenario import GPUS_PER_NODE, ChaosScenario, InjectedFault
from repro.core.recovery.controller import RecoveryPlan
from repro.core.recovery.detector import StepTimeDeviationDetector
from repro.failures.taxonomy import STRAGGLER_FAULT_KINDS
from repro.obs.tracer import NULL_TRACER, TracerLike
from repro.sim.engine import Engine
from repro.training.pretrain import PretrainProcess

#: per-ramp multiplicative decay and floor of a loud straggler's step
#: contribution
STRAGGLER_DECAY = 0.88
STRAGGLER_FLOOR = 0.45
#: gentler per-ramp decay for silent degraders, down to the scenario's
#: ``silent_floor``
SILENT_DECAY = 0.97


@dataclass
class StragglerState:
    """Live state of one injected straggler / silent degrader."""

    index: int
    fault: InjectedFault
    node: str
    #: per-ramp multiplicative step-contribution decay
    decay: float
    #: decay saturates here (silent degraders stay near 1.0)
    floor: float
    factor: float = 1.0
    detected_at: float | None = None
    #: sim time waste was last accrued up to
    last_accrual: float = 0.0
    #: GPU-seconds of capacity quietly lost while undetected
    waste_gpu_seconds: float = 0.0


class SlowdownDomain:
    """Straggler and power-cap state, and the stretch it composes."""

    def __init__(self, scenario: ChaosScenario,
                 faults: Sequence[InjectedFault], engine: Engine,
                 event_log: list[tuple[float, str, str]],
                 placements: dict[str, str], pretrain: PretrainProcess,
                 fabric: FabricDomain,
                 tracer: TracerLike | None = None) -> None:
        self.scenario = scenario
        self.engine = engine
        self.tracer = tracer or NULL_TRACER
        self.event_log = event_log
        #: the gang's live placements (shared with the harness)
        self.placements = placements
        self.pretrain = pretrain
        self.fabric = fabric
        #: stragglers emit no failure log line, so a schedule holding
        #: any arms the periodic step-time probe
        self.has_stragglers = any(fault.kind in STRAGGLER_FAULT_KINDS
                                  for fault in faults)
        self.stragglers: list[StragglerState] = []
        self._deviation = StepTimeDeviationDetector()
        #: (time, iteration) the next probe sample measures from; the
        #: harness clears it on every gang restart
        self.baseline: tuple[float, int] | None = None
        self.stragglers_detected = 0
        self.silent_waste_gpu_seconds = 0.0
        #: open power-cap windows: fault index -> (factor, opened_at)
        self._power_caps: dict[int, tuple[float, float]] = {}
        self.power_capped_seconds = 0.0

    def _log(self, kind: str, detail: str) -> None:
        self.event_log.append((self.engine.now, kind, detail))

    # -- stragglers ---------------------------------------------------------

    def add_straggler(self, index: int, fault: InjectedFault, node: str,
                      checker: InvariantChecker) -> StragglerState:
        """``node`` starts quietly under-delivering.  No failure line is
        logged on its behalf — detection must come from step-time
        deviation, not log parsing."""
        if fault.kind == "silent_degrader":
            decay, floor = SILENT_DECAY, self.scenario.silent_floor
        else:
            decay, floor = STRAGGLER_DECAY, STRAGGLER_FLOOR
        state = StragglerState(index=index, fault=fault, node=node,
                               decay=decay, floor=floor,
                               last_accrual=self.engine.now)
        self.stragglers.append(state)
        checker.record_straggler(index, self.engine.now, fault.kind, node)
        return state

    def ramp(self, state: StragglerState) -> bool:
        """One decay tick; True when the node's factor slipped."""
        self._accrue(state)
        factor = max(state.factor * state.decay, state.floor)
        if factor == state.factor:
            return False
        state.factor = factor
        return True

    def _accrue(self, state: StragglerState) -> None:
        """Charge the capacity quietly lost since the last accrual."""
        now = self.engine.now
        if state.node in self.placements:
            state.waste_gpu_seconds += ((1.0 - state.factor)
                                        * (now - state.last_accrual)
                                        * GPUS_PER_NODE)
        state.last_accrual = now

    def suspects(self) -> dict[str, float]:
        """What a DCGM scan of the gang measures: each host's factor,
        below 1.0 only under an undetected straggler."""
        factors = {name: 1.0 for name in sorted(self.placements)}
        for state in self.stragglers:
            if state.detected_at is None and state.node in factors:
                factors[state.node] = min(factors[state.node],
                                          state.factor)
        return factors

    def convict(self, plan: RecoveryPlan,
                checker: InvariantChecker) -> list[StragglerState]:
        """Mark the stragglers on nodes ``plan`` cordoned as detected."""
        now = self.engine.now
        convicted: list[StragglerState] = []
        for state in self.stragglers:
            if (state.detected_at is None
                    and state.node in plan.cordoned_nodes):
                self._accrue(state)
                state.detected_at = now
                convicted.append(state)
                self.stragglers_detected += 1
                checker.record_straggler_detected(state.index, now)
                checker.record_infra_plan(state.index, plan)
        return convicted

    def probe(self) -> bool:
        """One periodic step-time sample; True when the deviation
        detector fires."""
        pretrain = self.pretrain
        if not pretrain.running:
            self.baseline = None
            return False
        now = self.engine.now
        baseline = self.baseline
        self.baseline = (now, pretrain.iteration)
        if baseline is None:
            return False
        steps = pretrain.iteration - baseline[1]
        if steps <= 0:
            return False
        observed = (now - baseline[0]) / steps
        # a downed path is an interruption the hard-fault path owns,
        # not a slowdown to divide out
        factor = self.fabric.factor(self.placements, now)
        expected = (self.stretch(factor if factor > 0.0 else 1.0,
                                 stragglers=False)
                    * pretrain.step_time)
        ratio = observed / expected
        event = self._deviation.observe(pretrain.iteration, ratio)
        if event is None:
            return False
        self._log("deviation_detected",
                  f"step={event.step} observed/expected={ratio:.2f}x "
                  f"({event.detail})")
        self.tracer.count("chaos.deviations_detected")
        return True

    # -- power caps ---------------------------------------------------------

    def open_power_cap(self, index: int, fault: InjectedFault) -> None:
        """A facility power cap opens: the whole fleet steps slower."""
        end = fault.time + fault.duration
        factor = fault.factor if fault.factor is not None else 1.0
        self._log("power_cap_begin",
                  f"#{index} step_factor={factor:.3f} until={end:.3f}")
        self.tracer.complete(f"window:{fault.kind}", fault.time, end,
                             "chaos.power", index=index, factor=factor)
        self._power_caps[index] = (factor, self.engine.now)

    def close_power_cap(self, index: int) -> None:
        _, start = self._power_caps.pop(index)
        self.power_capped_seconds += self.engine.now - start
        self._log("power_cap_end", f"#{index} step_factor restored")

    # -- composition --------------------------------------------------------

    def stretch(self, fabric_factor: float = 1.0, *,
                stragglers: bool = True) -> float:
        """The gang's step stretch: 1 / (fabric factor × slowest
        undetected straggler hosting the gang × power-cap factor).

        With the defaults this is the residual the checker expects once
        every fabric window has closed (invariant 10).  The deviation
        probe leaves stragglers out, so only unexplained slowdown trips
        the detector.  With nothing degraded every term is exactly 1.0.
        """
        stretch = 1.0 / fabric_factor
        if stragglers:
            stretch *= 1.0 / min(self.suspects().values(), default=1.0)
        power = min((factor for factor, _ in self._power_caps.values()),
                    default=1.0)
        return stretch * (1.0 / power)

    # -- horizon ------------------------------------------------------------

    def finalize(self, checker: InvariantChecker) -> None:
        """Horizon bookkeeping: still-open power caps, and every
        undetected straggler flagged as silent waste."""
        now = self.engine.now
        for _, (_, start) in sorted(self._power_caps.items()):
            self.power_capped_seconds += now - start
        for state in self.stragglers:
            if state.detected_at is not None:
                continue
            self._accrue(state)
            self.silent_waste_gpu_seconds += state.waste_gpu_seconds
            checker.record_silent_waste(
                state.index, state.waste_gpu_seconds / 3600.0)
            self._log("silent_straggler",
                      f"#{state.index} {state.node} "
                      f"kind={state.fault.kind} "
                      f"factor={state.factor:.3f} "
                      f"waste={state.waste_gpu_seconds / 3600.0:.2f} "
                      "GPU-h (never detected)")

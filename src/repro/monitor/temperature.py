"""GPU temperature model (Fig. 21, Appendix A.5).

Temperature follows power draw with the server-room ambient as baseline.
The paper observes: GPU memory temperature consistently above core
temperature, a heavily-loaded mode above 65°C, and a ~5°C room-wide rise
while training communication-optimized 7B models in July 2023 — the
overheating that caused NVLink/ECC errors (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import NULL_TRACER, TracerLike


@dataclass
class TemperatureModel:
    """Maps GPU power draw to core and memory temperatures.

    ``ambient_offset`` models room conditions (e.g. +5°C during the July
    heat event before the cooling upgrade).
    """

    ambient_celsius: float = 28.0
    ambient_offset: float = 0.0
    #: °C of steady-state rise per watt of draw
    core_celsius_per_watt: float = 0.075
    #: HBM stacks run hotter than the die
    memory_delta: float = 9.0
    noise_sigma: float = 2.0

    def core_temperature(self, watts: float,
                         rng: np.random.Generator) -> float:
        """GPU die temperature for a power draw."""
        base = (self.ambient_celsius + self.ambient_offset
                + self.core_celsius_per_watt * watts)
        return float(base + rng.normal(0.0, self.noise_sigma))

    def sample_fleet(self, power_draws: np.ndarray, seed: int = 0,
                     tracer: TracerLike | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """(core, memory) temperature arrays for a fleet of power draws.

        Traced through the ``tracer=None → NULL_TRACER`` seam;
        instrumentation never touches the RNG, so traced and untraced
        runs are byte-identical.
        """
        tracer = tracer or NULL_TRACER
        rng = np.random.default_rng(seed)
        core = np.array([self.core_temperature(w, rng)
                         for w in power_draws])
        memory = core + self.memory_delta
        tracer.count("monitor.temperature.samples",
                     float(len(power_draws)))
        if len(power_draws):
            tracer.set_gauge("monitor.temperature.mean_core_celsius",
                             float(core.mean()))
        return core, memory

    def overheating_risk_fraction(self, power_draws: np.ndarray,
                                  threshold: float = 65.0,
                                  seed: int = 0) -> float:
        """Fraction of GPUs whose core exceeds ``threshold`` °C."""
        core, _ = self.sample_fleet(power_draws, seed)
        return float((core > threshold).mean())

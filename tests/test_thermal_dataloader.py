"""Tests for thermal-failure coupling (§5.2) and the dataloader leak
(Appendix B)."""

import numpy as np
import pytest

from repro.failures.thermal import (PAPER_SCENARIOS, ThermalHazardModel,
                                    THERMALLY_SENSITIVE,
                                    scenario_failure_rates)
from repro.training.dataloader import DataloaderConfig, DataloaderModel

GIB = 1024 ** 3


class TestThermalHazard:
    def test_reference_temperature_is_neutral(self):
        model = ThermalHazardModel()
        assert model.acceleration(model.reference_celsius) == \
            pytest.approx(1.0)

    def test_ten_degrees_roughly_doubles(self):
        model = ThermalHazardModel()
        ratio = (model.acceleration(65.0) / model.acceleration(55.0))
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_fleet_acceleration_monotone_in_temperature(self):
        model = ThermalHazardModel()
        cool = model.fleet_acceleration(np.full(100, 50.0))
        hot = model.fleet_acceleration(np.full(100, 70.0))
        assert hot > cool

    def test_effective_mtbf_shrinks_when_hot(self):
        model = ThermalHazardModel()
        mtbf = model.effective_mtbf(400.0, np.full(100, 70.0))
        assert mtbf < 400.0

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            ThermalHazardModel().fleet_acceleration(np.array([]))

    def test_sensitive_reasons_are_the_papers(self):
        assert set(THERMALLY_SENSITIVE) == {"NVLinkError", "ECCError"}


class TestScenarios:
    def test_july_heat_event_doubles_failures(self):
        """§5.2: the July 2023 regime concentrates NVLink/ECC errors."""
        rows = {row["scenario"]: row for row in scenario_failure_rates()}
        normal = rows["normal"]
        july = rows["july-2023-heat"]
        assert july["hazard_multiplier"] > 1.5 * normal[
            "hazard_multiplier"]
        assert july["effective_mtbf_hours"] < normal[
            "effective_mtbf_hours"]

    def test_cooling_upgrade_restores_baseline(self):
        """§5.2: the cooling upgrade significantly reduced failures,
        even with the hot workload still running."""
        rows = {row["scenario"]: row for row in scenario_failure_rates()}
        assert rows["after-cooling-upgrade"]["hazard_multiplier"] < \
            0.7 * rows["july-2023-heat"]["hazard_multiplier"]

    def test_july_fleet_runs_above_65c(self):
        rows = {row["scenario"]: row for row in scenario_failure_rates()}
        assert rows["july-2023-heat"]["over_65c_fraction"] > 0.3
        assert rows["normal"]["over_65c_fraction"] < 0.1

    def test_three_paper_scenarios(self):
        assert [s.name for s in PAPER_SCENARIOS] == [
            "normal", "july-2023-heat", "after-cooling-upgrade"]


class TestDataloaderLeak:
    def test_paper_example_dies_near_27_hours(self):
        """Appendix B: the error occurs ~27 hours into the run."""
        leaky = DataloaderModel(DataloaderConfig(num_workers=4))
        assert leaky.hours_until_killed() == pytest.approx(27.0, abs=3.0)

    def test_fix_runs_forever(self):
        fixed = DataloaderModel(DataloaderConfig(num_workers=0))
        assert fixed.hours_until_killed() == float("inf")

    def test_footprint_grows_with_workers(self):
        few = DataloaderModel(DataloaderConfig(num_workers=1))
        many = DataloaderModel(DataloaderConfig(num_workers=8))
        assert many.footprint_bytes(10.0) > few.footprint_bytes(10.0)

    def test_zero_workers_footprint_is_flat(self):
        model = DataloaderModel(DataloaderConfig(num_workers=0))
        assert model.footprint_bytes(0.0) == model.footprint_bytes(100.0)

    def test_megatron_style_metadata_costs_memory_up_front(self):
        """Appendix A.2: full-metadata loading vs on-the-fly."""
        on_the_fly = DataloaderModel(DataloaderConfig(
            num_workers=0, on_the_fly=True))
        full = DataloaderModel(DataloaderConfig(
            num_workers=0, on_the_fly=False))
        assert (full.footprint_bytes(0.0)
                > on_the_fly.footprint_bytes(0.0) + 10 * GIB)

    def test_leak_saturates_before_oom_on_big_budget(self):
        model = DataloaderModel(DataloaderConfig(num_workers=2),
                                host_memory_bytes=2048 * GIB)
        assert model.hours_until_killed() == float("inf")

    def test_tiny_budget_dies_immediately(self):
        model = DataloaderModel(DataloaderConfig(num_workers=4),
                                host_memory_bytes=124 * GIB)
        assert model.hours_until_killed() < 2.0

    def test_fixed_configuration_detector(self):
        good = DataloaderModel(DataloaderConfig(num_workers=0,
                                                on_the_fly=True))
        bad = DataloaderModel(DataloaderConfig(num_workers=4))
        assert good.is_fixed_configuration()
        assert not bad.is_fixed_configuration()

    def test_negative_hours_rejected(self):
        with pytest.raises(ValueError):
            DataloaderModel(DataloaderConfig()).footprint_bytes(-1.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DataloaderConfig(num_workers=-1)

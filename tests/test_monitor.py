"""Tests for the telemetry simulators (Figs. 7/8/9/18/21, A.3)."""

import numpy as np
import pytest

from repro.monitor.carbon import (ACME_CARBON, CarbonModel,
                                  SEREN_MAY_2023_EMISSIONS_TCO2E,
                                  SEREN_MAY_2023_ENERGY_MWH)
from repro.monitor.dcgm import DcgmSampler
from repro.monitor.hostmem import (HostMemoryBreakdown,
                                   pretraining_host_memory)
from repro.monitor.ipmi import IpmiSampler
from repro.monitor.power import (GpuPowerModel, PowerCappingModel,
                                 ServerPowerModel)
from repro.monitor.prometheus import PrometheusSampler
from repro.monitor.temperature import TemperatureModel
from repro.obs import Tracer


class TestDcgm:
    def test_idle_fraction_observed(self, kalos_trace):
        sampler = DcgmSampler(kalos_trace, idle_fraction=0.3, seed=1)
        samples = sampler.sample_many(3000)
        idle = sum(1 for s in samples if s.job_type is None)
        assert idle / len(samples) == pytest.approx(0.3, abs=0.03)

    def test_median_sm_activity_near_40pct(self, kalos_trace):
        """Fig. 7a: median SM activity ~40% (2x PAI's 20%)."""
        arrays = DcgmSampler(kalos_trace, seed=2).metric_arrays(4000)
        assert 0.30 < np.median(arrays["sm_activity"]) < 0.50

    def test_kalos_memory_over_75pct_near_half(self, kalos_trace):
        """Fig. 7b: 50% of Kalos GPUs consume > 75% of memory (60 GB)."""
        arrays = DcgmSampler(kalos_trace, seed=3).metric_arrays(4000)
        over = (arrays["memory_fraction"] > 0.75).mean()
        assert 0.35 < over < 0.60

    def test_tc_activity_below_sm(self, kalos_trace):
        arrays = DcgmSampler(kalos_trace, seed=4).metric_arrays(2000)
        assert arrays["tc_activity"].mean() < arrays["sm_activity"].mean()

    def test_invalid_idle_fraction(self, kalos_trace):
        with pytest.raises(ValueError):
            DcgmSampler(kalos_trace, idle_fraction=1.0)

    def test_zero_samples_rejected(self, kalos_trace):
        with pytest.raises(ValueError):
            DcgmSampler(kalos_trace).sample_many(0)


class TestPower:
    def test_idle_gpus_near_60w(self, kalos_trace):
        """Fig. 8a: ~30% of GPUs idle at ~60 W."""
        draws = GpuPowerModel().sample_cluster(
            DcgmSampler(kalos_trace, seed=5), 4000, seed=5)
        assert 0.20 < (draws < 75.0).mean() < 0.40

    def test_over_tdp_fraction(self, seren_trace):
        """Fig. 8a: a double-digit share of GPUs exceeds the 400 W TDP."""
        draws = GpuPowerModel().sample_cluster(
            DcgmSampler(seren_trace, seed=6), 4000, seed=6)
        assert 0.05 < (draws > 400.0).mean() < 0.40

    def test_never_exceeds_600w(self, seren_trace):
        draws = GpuPowerModel().sample_cluster(
            DcgmSampler(seren_trace, seed=7), 2000, seed=7)
        assert draws.max() <= 600.0

    def test_gpu_server_about_5x_cpu_server(self, seren_trace):
        """Fig. 8b: GPU servers draw ~5x CPU-server power."""
        model = ServerPowerModel()
        servers = model.sample_servers(
            DcgmSampler(seren_trace, seed=8), 100, seed=8)
        ratio = servers.mean() / model.cpu_server_watts()
        assert 3.0 < ratio < 6.5

    def test_breakdown_shares_sum_to_one(self, seren_trace):
        model = ServerPowerModel()
        rng = np.random.default_rng(0)
        draws = np.array([GpuPowerModel().draw(s, rng) for s in
                          DcgmSampler(seren_trace, seed=9).sample_many(8)])
        shares = model.breakdown(draws)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_wrong_gpu_count_rejected(self):
        with pytest.raises(ValueError):
            ServerPowerModel().total(np.ones(3))


class TestIpmi:
    def test_gpus_take_about_two_thirds(self, seren_trace):
        """Fig. 9: GPUs ~2/3 of server power, CPUs ~11%, PSU ~9.6%."""
        sampler = IpmiSampler(DcgmSampler(seren_trace, seed=10), seed=10)
        shares = sampler.average_breakdown(n_servers=80).shares()
        assert 0.55 < shares["gpu"] < 0.75
        assert 0.08 < shares["cpu"] < 0.18
        assert shares["psu_loss"] == pytest.approx(0.096, abs=0.01)

    def test_monthly_energy_positive(self, seren_trace):
        sampler = IpmiSampler(DcgmSampler(seren_trace, seed=11), seed=11)
        energy = sampler.monthly_energy_mwh(n_servers=286, samples=50)
        # Seren consumed ~673 MWh in May 2023 (A.3).
        assert 300 < energy < 1200


class TestPrometheus:
    def test_cpu_utilization_low(self):
        """Fig. 7c: 16 CPUs per GPU leave most threads idle."""
        arrays = PrometheusSampler(seed=1).metric_arrays(4000)
        assert np.median(arrays["cpu_utilization"]) < 0.30

    def test_host_memory_below_half(self):
        """Fig. 7b: host memory utilization stays below 50%."""
        arrays = PrometheusSampler(seed=2).metric_arrays(4000)
        assert np.median(arrays["host_memory_fraction"]) < 0.50

    def test_kalos_memory_fraction_lower(self):
        seren = PrometheusSampler(host_memory_gb=1024, seed=3)
        kalos = PrometheusSampler(host_memory_gb=2048, seed=3)
        m_seren = np.median(seren.metric_arrays(3000)
                            ["host_memory_fraction"])
        m_kalos = np.median(kalos.metric_arrays(3000)
                            ["host_memory_fraction"])
        assert m_kalos < m_seren

    def test_nic_idle_over_60pct(self):
        """Fig. 7d: NICs idle > 60% of the time."""
        arrays = PrometheusSampler(seed=4).metric_arrays(4000)
        assert (arrays["ib_send_fraction"] < 0.01).mean() > 0.55

    def test_bandwidth_rarely_over_25pct(self):
        arrays = PrometheusSampler(seed=5).metric_arrays(4000)
        assert (arrays["ib_send_fraction"] > 0.25).mean() < 0.10

    def test_send_recv_symmetric(self):
        """Fig. 7d: the send/receive curves overlap (symmetric comm)."""
        arrays = PrometheusSampler(seed=6).metric_arrays(4000)
        delta = np.abs(arrays["ib_send_fraction"]
                       - arrays["ib_recv_fraction"])
        assert delta.mean() < 0.01


class TestTemperature:
    def test_memory_hotter_than_core(self):
        model = TemperatureModel()
        core, memory = model.sample_fleet(np.full(500, 350.0), seed=1)
        assert memory.mean() > core.mean()

    def test_loaded_gpus_exceed_65c(self):
        model = TemperatureModel()
        risk = model.overheating_risk_fraction(np.full(500, 550.0))
        assert risk > 0.5

    def test_july_heat_event_raises_risk(self):
        """§5.2: a ~5°C room rise increased NVLink/ECC failures."""
        normal = TemperatureModel()
        july = TemperatureModel(ambient_offset=5.0)
        draws = np.full(2000, 430.0)
        assert (july.overheating_risk_fraction(draws)
                > normal.overheating_risk_fraction(draws))


class TestCarbon:
    def test_paper_worked_example(self):
        emissions = ACME_CARBON.effective_emissions_tco2e(
            SEREN_MAY_2023_ENERGY_MWH)
        assert emissions == pytest.approx(
            SEREN_MAY_2023_EMISSIONS_TCO2E, abs=0.5)

    def test_pue_multiplies_facility_energy(self):
        assert ACME_CARBON.facility_energy_mwh(100.0) == pytest.approx(
            125.0)

    def test_invalid_pue_rejected(self):
        with pytest.raises(ValueError):
            CarbonModel(pue=0.9, carbon_free_fraction=0.3,
                        emission_rate=0.5)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            ACME_CARBON.effective_emissions_tco2e(-1.0)

    def test_grid_accounting_same_order(self):
        grid = ACME_CARBON.grid_emissions_tco2e(673.0)
        effective = ACME_CARBON.effective_emissions_tco2e(673.0)
        assert 0.5 < grid / effective < 2.0


class TestHostMemory:
    def test_fig18_totals(self):
        breakdown = pretraining_host_memory()
        assert breakdown.total_used / 1e9 == pytest.approx(123.0,
                                                           rel=0.01)
        assert breakdown.components["filesystem_client"] / 1e9 == \
            pytest.approx(45.3, rel=0.01)

    def test_used_fraction_small(self):
        assert pretraining_host_memory().used_fraction < 0.15

    def test_checkpoint_buffers_fit_in_idle_memory(self):
        """§6.1: spare host memory holds several checkpoints."""
        breakdown = pretraining_host_memory()
        per_node_7b = int(16 * 7e9 / 8)
        assert breakdown.checkpoint_buffers_that_fit(per_node_7b) >= 2

    def test_overflow_rejected(self):
        breakdown = HostMemoryBreakdown(capacity=100)
        with pytest.raises(ValueError):
            breakdown.add("too-big", 101)

    def test_async_buffer_component(self):
        breakdown = pretraining_host_memory(
            model_state_bytes_per_node=50 * 10 ** 9)
        assert "async_checkpoint_buffer" in breakdown.components


class TestDcgmBatchedSampling:
    """The batched metric_arrays must be *statistically* equivalent to
    polling with sample_many: it consumes the RNG stream in a different
    order, so values differ — distributions must not."""

    def arrays_both_ways(self, trace, n=6000, seed=21):
        batched = DcgmSampler(trace, seed=seed).metric_arrays(n)
        samples = DcgmSampler(trace, seed=seed).sample_many(n)
        polled = {
            "gpu_utilization": np.array([s.gpu_utilization
                                         for s in samples]),
            "sm_activity": np.array([s.sm_activity for s in samples]),
            "tc_activity": np.array([s.tc_activity for s in samples]),
            "memory_fraction": np.array([s.memory_used_fraction
                                         for s in samples]),
        }
        return batched, polled

    def test_distributions_match_reference(self, kalos_trace):
        batched, polled = self.arrays_both_ways(kalos_trace)
        for key in ("gpu_utilization", "sm_activity", "tc_activity",
                    "memory_fraction"):
            assert batched[key].shape == polled[key].shape
            assert batched[key].mean() == pytest.approx(
                polled[key].mean(), abs=0.05), key
        # medians only where the distribution is not knife-edge
        # bimodal (gpu_utilization is polarized per Fig. 2b, so its
        # overall median flips across the cliff with RNG ordering)
        for key in ("sm_activity", "tc_activity", "memory_fraction"):
            assert np.median(batched[key]) == pytest.approx(
                np.median(polled[key]), abs=0.05), key
        # idle mass instead: both show ~the idle_fraction of
        # exactly-zero utilization samples
        assert (batched["sm_activity"] == 0.0).mean() == pytest.approx(
            (polled["sm_activity"] == 0.0).mean(), abs=0.03)

    def test_batch_preserves_calibration_anchors(self, kalos_trace):
        """The paper's Fig. 7 anchors hold on the batched path too."""
        arrays = DcgmSampler(kalos_trace, seed=22).metric_arrays(4000)
        assert 0.30 < np.median(arrays["sm_activity"]) < 0.50
        assert arrays["tc_activity"].mean() < \
            arrays["sm_activity"].mean()
        idle = (arrays["sm_activity"] == 0.0).mean()
        assert idle == pytest.approx(0.30, abs=0.03)

    def test_batch_bounds(self, kalos_trace):
        arrays = DcgmSampler(kalos_trace, seed=23).metric_arrays(3000)
        assert arrays["sm_activity"].max() <= 1.0
        assert arrays["memory_fraction"].max() <= 0.98
        assert arrays["memory_fraction"].min() >= 0.0
        assert arrays["gpu_utilization"].min() >= 0.0

    def test_batch_deterministic_per_seed(self, kalos_trace):
        first = DcgmSampler(kalos_trace, seed=24).metric_arrays(500)
        second = DcgmSampler(kalos_trace, seed=24).metric_arrays(500)
        for key, values in first.items():
            np.testing.assert_array_equal(values, second[key])

    def test_batch_rejects_non_positive_n(self, kalos_trace):
        with pytest.raises(ValueError):
            DcgmSampler(kalos_trace, seed=25).metric_arrays(0)


class TestPowerCapping:
    def test_under_cap_is_unity(self):
        model = PowerCappingModel()
        assert model.step_factor(200.0) == 1.0
        assert model.step_factor(model.cap_watts) == 1.0

    def test_cube_law_above_cap(self):
        model = PowerCappingModel(cap_watts=330.0)
        factor = model.step_factor(400.0)
        assert factor == pytest.approx((330.0 / 400.0) ** (1.0 / 3.0))
        assert 0.0 < factor < 1.0

    def test_thermal_derate_applies_above_threshold(self):
        model = PowerCappingModel()
        cool = model.step_factor(400.0, mean_core_celsius=60.0)
        hot = model.step_factor(400.0, mean_core_celsius=70.0)
        assert hot == pytest.approx(cool * (1.0 - model.thermal_derate))

    def test_threshold_boundary_is_not_derated(self):
        model = PowerCappingModel()
        at_threshold = model.step_factor(
            400.0, mean_core_celsius=model.thermal_threshold_celsius)
        assert at_threshold == model.step_factor(400.0)

    def test_hot_but_under_cap_still_derates(self):
        model = PowerCappingModel()
        assert model.step_factor(200.0, mean_core_celsius=80.0) == (
            pytest.approx(1.0 - model.thermal_derate))

    def test_floor_clamps_extreme_caps(self):
        model = PowerCappingModel(cap_watts=330.0, min_step_factor=0.25)
        assert model.step_factor(330.0 * 1000.0) == 0.25

    def test_rejects_non_positive_draw(self):
        with pytest.raises(ValueError):
            PowerCappingModel().step_factor(0.0)


class TestMonitorTracerSeam:
    """Instrumentation goes through the ``tracer=None → NULL_TRACER``
    seam and never touches the RNG: traced and untraced runs must be
    byte-identical."""

    def test_power_samples_identical_with_and_without_tracer(
            self, kalos_trace):
        model = GpuPowerModel()
        tracer = Tracer()
        untraced = model.sample_cluster(
            DcgmSampler(kalos_trace, seed=7), 200, seed=3)
        traced = model.sample_cluster(
            DcgmSampler(kalos_trace, seed=7), 200, seed=3,
            tracer=tracer)
        np.testing.assert_array_equal(untraced, traced)
        assert tracer.counters["monitor.power.samples"].last == 200.0
        assert "monitor.power.mean_watts" in tracer.gauges

    def test_server_samples_identical_with_and_without_tracer(
            self, kalos_trace):
        model = ServerPowerModel()
        tracer = Tracer()
        untraced = model.sample_servers(
            DcgmSampler(kalos_trace, seed=9), 16, seed=4)
        traced = model.sample_servers(
            DcgmSampler(kalos_trace, seed=9), 16, seed=4,
            tracer=tracer)
        np.testing.assert_array_equal(untraced, traced)
        assert (tracer.counters["monitor.power.server_samples"].last
                == 16.0)

    def test_temperature_samples_identical_with_and_without_tracer(self):
        draws = np.linspace(60.0, 450.0, 64)
        model = TemperatureModel()
        untraced_core, untraced_mem = model.sample_fleet(draws, seed=5)
        tracer = Tracer()
        traced_core, traced_mem = model.sample_fleet(draws, seed=5,
                                                     tracer=tracer)
        np.testing.assert_array_equal(untraced_core, traced_core)
        np.testing.assert_array_equal(untraced_mem, traced_mem)
        assert (tracer.counters["monitor.temperature.samples"].last
                == 64.0)

    def test_dcgm_samples_identical_with_and_without_tracer(
            self, kalos_trace):
        tracer = Tracer()
        untraced = DcgmSampler(kalos_trace, seed=11).metric_arrays(300)
        traced = DcgmSampler(kalos_trace, seed=11,
                             tracer=tracer).metric_arrays(300)
        for key, values in untraced.items():
            np.testing.assert_array_equal(values, traced[key])
        assert "monitor.dcgm.metric_arrays" in tracer.counters

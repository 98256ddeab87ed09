"""Tests for goodput analysis and optimal checkpoint intervals."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.failures.reliability import GoodputModel, interval_sweep


class TestGoodputModel:
    def model(self, **overrides):
        defaults = dict(mtbf=12 * 3600.0, checkpoint_cost=2.5,
                        restart_cost=600.0)
        defaults.update(overrides)
        return GoodputModel(**defaults)

    def test_young_daly_formula(self):
        model = self.model()
        expected = math.sqrt(2 * 2.5 * 12 * 3600.0)
        assert model.young_daly_interval() == pytest.approx(expected)

    def test_optimal_matches_young_daly_when_first_order_holds(self):
        model = self.model()
        optimal = model.optimal_interval()
        assert optimal == pytest.approx(model.young_daly_interval(),
                                        rel=0.05)

    def test_goodput_peaks_at_optimum(self):
        model = self.model()
        optimum = model.optimal_interval()
        best = model.goodput(optimum)
        assert best >= model.goodput(optimum / 4) - 1e-9
        assert best >= model.goodput(optimum * 4) - 1e-9

    def test_async_checkpointing_shifts_optimum_shorter(self):
        """Cheaper checkpoints -> checkpoint more often (the §6.1 logic:
        async made 30-minute intervals affordable)."""
        sync = self.model(checkpoint_cost=60.0)
        asynchronous = self.model(checkpoint_cost=0.5)
        assert (asynchronous.young_daly_interval()
                < sync.young_daly_interval())

    def test_paper_configuration_30min_is_reasonable(self):
        """With async costs (~0.05 s blocking) and the Table 3 failure
        rate for a 2048-GPU job, 30 minutes wastes < 5%."""
        model = GoodputModel(mtbf=0.8 * 86400.0, checkpoint_cost=0.05,
                             restart_cost=600.0)
        assert model.wasted_fraction(1800.0) < 0.05

    def test_zero_cost_checkpointing(self):
        model = self.model(checkpoint_cost=0.0)
        assert model.young_daly_interval() == 0.0
        assert model.optimal_interval(low=1.0) == pytest.approx(1.0,
                                                                abs=2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GoodputModel(mtbf=0.0, checkpoint_cost=1.0, restart_cost=1.0)
        with pytest.raises(ValueError):
            self.model().wasted_fraction(0.0)

    def test_interval_sweep_rows(self):
        rows = interval_sweep(self.model(), [600.0, 1800.0, 7200.0])
        assert len(rows) == 3
        assert all(0.0 <= row["goodput"] <= 1.0 for row in rows)

    @given(mtbf=st.floats(3600.0, 1e6),
           cost=st.floats(0.01, 100.0),
           restart=st.floats(0.0, 3600.0))
    @settings(max_examples=40, deadline=None)
    def test_optimum_never_beaten_by_probes(self, mtbf, cost, restart):
        model = GoodputModel(mtbf=mtbf, checkpoint_cost=cost,
                             restart_cost=restart)
        optimum = model.optimal_interval(low=1.0)
        waste = model.wasted_fraction(optimum)
        for factor in (0.25, 0.5, 2.0, 4.0):
            assert waste <= model.wasted_fraction(optimum * factor) + 1e-6

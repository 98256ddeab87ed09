"""Tests for statistical helpers and report rendering."""

import numpy as np
import pytest

from repro.analysis.report import (render_cdf_summary, render_key_values,
                                   render_table)
from repro.analysis.stats import boxplot_stats, cdf, median, percentile


class TestCdf:
    def test_cdf_monotone(self):
        values, probability = cdf([3, 1, 2])
        assert list(values) == [1, 2, 3]
        assert list(probability) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_cdf_empty(self):
        values, probability = cdf([])
        assert values.size == 0

    def test_percentile_and_median(self):
        data = list(range(1, 101))
        assert median(data) == pytest.approx(50.5)
        assert percentile(data, 90) == pytest.approx(90.1)

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestBoxplot:
    def test_five_number_summary(self):
        stats = boxplot_stats(list(range(1, 101)))
        assert stats.median == pytest.approx(50.5)
        assert stats.q1 == pytest.approx(25.75)
        assert stats.q3 == pytest.approx(75.25)
        assert stats.whisker_low == 1
        assert stats.whisker_high == 100

    def test_whiskers_exclude_outliers(self):
        data = [10] * 50 + [11] * 50 + [1000]
        stats = boxplot_stats(data)
        assert stats.whisker_high < 100

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            boxplot_stats([])


class TestReport:
    def test_render_table_aligns_columns(self):
        text = render_table([{"name": "a", "value": 1.5},
                             {"name": "bbbb", "value": 22222.0}])
        lines = text.splitlines()
        assert "name" in lines[0]
        assert len(lines) == 4

    def test_render_table_empty(self):
        assert render_table([]) == "(empty table)"

    def test_render_cdf_summary_quantiles(self):
        series = {"x": (np.arange(100.0), np.linspace(0, 1, 100))}
        text = render_cdf_summary(series, quantiles=(50,), unit="s")
        assert "p50" in text
        assert "(values in s)" in text

    def test_render_key_values(self):
        text = render_key_values({"speedup": 1.8}, title="Result")
        assert "Result" in text
        assert "speedup" in text

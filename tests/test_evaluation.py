"""Tests for the evaluation substrate (§4.2)."""

from dataclasses import replace

import pytest

from repro.evaluation.datasets import (DATASET_CATALOG, dataset_by_name,
                                       standard_catalog)
from repro.evaluation.harness import EvalStage, humaneval_profile


class TestCatalog:
    def test_sixty_three_datasets(self):
        """§6.2's round covers 63 datasets."""
        assert len(DATASET_CATALOG) == 63

    def test_names_unique(self):
        names = [d.name for d in DATASET_CATALOG]
        assert len(set(names)) == len(names)

    def test_code_benchmarks_have_heavy_metrics(self):
        """§4.2: correctness tests take up to ~30 CPU minutes."""
        for name in ("humaneval", "mbpp", "chatbot-arena"):
            assert dataset_by_name(name).metric_cpu_seconds > 15 * 60

    def test_loglikelihood_benchmarks_have_light_metrics(self):
        assert dataset_by_name("hellaswag").metric_cpu_seconds < 60

    def test_scaled_runtime(self):
        base = dataset_by_name("mmlu")
        scaled = base.scaled(4.0)
        assert scaled.inference_seconds == pytest.approx(
            4 * base.inference_seconds)
        assert scaled.metric_cpu_seconds == base.metric_cpu_seconds

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dataset_by_name("mmlu").scaled(0.0)

    @pytest.mark.parametrize("field", [
        "inference_seconds", "preprocess_seconds", "metric_cpu_seconds"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_runtimes_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ValueError, match=f"mmlu: {field}"):
            replace(dataset_by_name("mmlu"), **{field: value})

    def test_scale_that_overflows_a_runtime_is_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            standard_catalog(1e308)

    def test_split_partitions_work(self):
        dataset = dataset_by_name("mmlu")
        shards = dataset.split(4)
        assert len(shards) == 4
        total = sum(s.inference_seconds for s in shards)
        assert total == pytest.approx(dataset.inference_seconds)
        assert all(not s.splittable for s in shards)

    def test_unsplittable_dataset_returns_itself(self):
        arena = dataset_by_name("chatbot-arena")
        assert arena.split(4) == [arena]

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            dataset_by_name("nonexistent")

    def test_standard_catalog_scaling(self):
        catalog = standard_catalog(model_scale=2.0)
        assert catalog[0].inference_seconds == pytest.approx(
            2 * DATASET_CATALOG[0].inference_seconds)


class TestHumanEvalProfile:
    """The Fig. 13 anchors."""

    def test_load_preprocess_near_29_5_pct(self):
        profile = humaneval_profile()
        fraction = (profile.stage_fraction(EvalStage.MODEL_LOAD)
                    + profile.stage_fraction(EvalStage.PREPROCESS))
        assert fraction == pytest.approx(0.295, abs=0.03)

    def test_metric_tail_near_19_pct(self):
        profile = humaneval_profile()
        assert profile.stage_fraction(EvalStage.METRIC) == pytest.approx(
            0.19, abs=0.02)

    def test_gpu_busy_about_half(self):
        assert humaneval_profile().gpu_busy_fraction == pytest.approx(
            0.5, abs=0.05)

    def test_pre_inference_exceeds_one_minute(self):
        """§4.2: over 1 minute passes before GPU inference starts."""
        profile = humaneval_profile()
        pre = (profile.stage_seconds(EvalStage.MODEL_LOAD)
               + profile.stage_seconds(EvalStage.PREPROCESS))
        assert pre > 60.0

    def test_metric_tail_is_42_seconds(self):
        assert humaneval_profile().stage_seconds(
            EvalStage.METRIC) == pytest.approx(42.0)

    def test_timeline_idle_during_metric_tail(self):
        profile = humaneval_profile()
        timeline = profile.utilization_timeline(resolution=1.0)
        tail = timeline.sm[timeline.times > profile.total - 30.0]
        assert tail.mean() < 0.1

    def test_timeline_busy_during_inference(self):
        profile = humaneval_profile()
        timeline = profile.utilization_timeline(resolution=1.0)
        start = profile.segments[2].start
        end = profile.segments[2].end
        window = timeline.sm[(timeline.times > start + 5)
                             & (timeline.times < end - 5)]
        assert window.mean() > 0.3

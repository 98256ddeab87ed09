"""Edge-case tests across modules (inputs the happy paths never hit)."""

import numpy as np
import pytest

from repro.analysis.plotting import SvgFigure
from repro.analysis.report import render_key_values, render_table
from repro.core.diagnosis import DiagnosisSystem
from repro.core.evalsched import (CoordinatorConfig, TrialCoordinator,
                                  lpt_pack)
from repro.evaluation.datasets import EvalDataset
from repro.sim.engine import Engine
from repro.training.profiler import UtilizationTimeline
from repro.workload.trace import Trace


class TestEngineEdges:
    def test_zero_delay_timeout(self):
        engine = Engine()
        fired = []
        engine.call_after(0.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [0.0]

    def test_event_chain_through_many_hops(self):
        """Callbacks that schedule the next one at ``now`` all run."""
        engine = Engine()
        got = []

        def hop(value):
            if value == 49:
                got.append((value, engine.now))
            else:
                engine.call_at(engine.now, lambda: hop(value + 1))

        engine.call_at(2.0, lambda: hop(0))
        engine.run()
        assert got == [(49, 2.0)]
        assert engine.events_processed == 50

    def test_run_twice_is_safe(self):
        engine = Engine()
        engine.call_at(1.0, lambda: None)
        engine.run()
        assert engine.run() == 1.0  # empty second run keeps the clock


class TestDiagnosisEdges:
    def test_empty_log(self):
        diagnosis = DiagnosisSystem().diagnose([])
        assert diagnosis.reason == "Unknown"
        assert diagnosis.path == "unknown"

    def test_log_of_blank_lines(self):
        diagnosis = DiagnosisSystem().diagnose(["", "   ", ""])
        assert diagnosis.reason == "Unknown"

    def test_unicode_heavy_log(self):
        lines = ["训练中 step=1 ✓", "RuntimeError: CUDA error: "
                 "an illegal memory access was encountered"]
        diagnosis = DiagnosisSystem().diagnose(lines)
        assert diagnosis.reason == "CUDAError"

    def test_single_line_log(self):
        diagnosis = DiagnosisSystem().diagnose(
            ["OSError: [Errno 28] No space left on device"])
        assert diagnosis.reason == "OSError"


class TestEvalSchedEdges:
    def test_more_gpus_than_datasets(self):
        datasets = [EvalDataset("only", 10, 100.0, 1.0, 5.0)]
        assignments = lpt_pack(datasets, gpus=64)
        used = [a for a in assignments if a.datasets]
        assert len(used) == 1

    def test_zero_metric_round(self):
        datasets = [EvalDataset(f"d{i}", 10, 60.0, 1.0, 0.0)
                    for i in range(4)]
        outcome = TrialCoordinator(
            CoordinatorConfig(n_nodes=1)).compare(datasets)
        assert outcome["speedup"] > 1.0  # loading decoupling alone wins

    def test_identical_datasets_balance_perfectly(self):
        datasets = [EvalDataset(f"d{i}", 10, 60.0, 0.0, 0.0)
                    for i in range(8)]
        assignments = lpt_pack(datasets, gpus=8)
        loads = [a.gpu_seconds() for a in assignments]
        assert max(loads) == pytest.approx(min(loads))


class TestRenderEdges:
    def test_table_with_mixed_types(self):
        text = render_table([{"a": True, "b": None, "c": 1.23456e9}])
        assert "True" in text
        assert "None" in text

    def test_key_values_without_title(self):
        text = render_key_values({"x": 1})
        assert text.strip().startswith("x:")

    def test_missing_column_filled_blank(self):
        text = render_table([{"a": 1}, {"a": 2, "b": 3}],
                            columns=["a", "b"])
        assert text  # renders without KeyError


class TestTimelineEdges:
    def test_empty_timeline_statistics(self):
        timeline = UtilizationTimeline(times=np.empty(0),
                                       sm=np.empty(0), tc=np.empty(0))
        assert timeline.mean_sm() == 0.0
        assert timeline.peak_sm() == 0.0
        assert timeline.idle_fraction() == 0.0
        assert timeline.duration == 0.0

    def test_svg_with_many_series_cycles_palette(self):
        figure = SvgFigure("many", "x", "y")
        for index in range(12):
            figure.add_series(f"s{index}", [0.0, 1.0],
                              [float(index), float(index)])
        assert figure.render().count("<polyline") == 12


class TestTraceEdges:
    def test_trace_with_only_cpu_jobs(self):
        from repro.scheduler.job import Job, JobType

        trace = Trace("x", [Job("c", "x", JobType.OTHER, 0.0, 10.0, 0)])
        assert trace.gpu_jobs() == []
        assert trace.durations().size == 0
        assert trace.mean_gpu_demand() == 0.0

    def test_unicode_failure_reason_round_trip(self, tmp_path):
        from repro.scheduler.job import FinalStatus, Job, JobType

        job = Job("u", "x", JobType.DEBUG, 0.0, 5.0, 1,
                  final_status=FinalStatus.FAILED,
                  failure_reason="错误Error")
        trace = Trace("x", [job])
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        loaded = Trace.from_csv(path)
        assert loaded.jobs[0].failure_reason == "错误Error"

    def test_crlf_failure_reason_round_trip(self, tmp_path):
        """A line break inside a quoted CSV field keeps its ``\\r``."""
        from repro.scheduler.job import FinalStatus, Job, JobType

        job = Job("u", "x", JobType.DEBUG, 0.0, 5.0, 1,
                  final_status=FinalStatus.FAILED,
                  failure_reason="x\r\ny")
        trace = Trace("x", [job])
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert Trace.from_csv(path).jobs[0].failure_reason == "x\r\ny"

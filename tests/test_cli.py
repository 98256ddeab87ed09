"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.failures.logs import generate_job_log
from repro.workload.generator import TraceGenerator
from repro.workload.spec import KALOS_SPEC
from repro.workload.trace import Trace


class TestGenerateAndAnalyze:
    def test_generate_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["generate-trace", "--cluster", "kalos",
                     "--jobs", "300", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert len(Trace.from_csv(out)) == 300

    def test_generate_jsonl(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert main(["generate-trace", "--jobs", "100",
                     "--out", str(out)]) == 0
        assert len(Trace.from_jsonl(out)) == 100

    def test_generate_with_cpu_jobs(self, tmp_path):
        out = tmp_path / "trace.csv"
        main(["generate-trace", "--cluster", "kalos", "--jobs", "100",
              "--cpu-jobs", "--out", str(out)])
        trace = Trace.from_csv(out)
        assert len(trace.cpu_jobs()) > 0

    @pytest.mark.parametrize("jobs", ["0", "-5", "ten"])
    def test_generate_rejects_non_positive_jobs(self, jobs, tmp_path,
                                                capsys):
        out = tmp_path / "trace.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["generate-trace", "--jobs", jobs, "--out", str(out)])
        assert exit_info.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_analyze_prints_mix(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        main(["generate-trace", "--jobs", "400", "--out", str(out)])
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        output = capsys.readouterr().out
        assert "workload mix" in output
        assert "evaluation" in output
        assert "median duration" in output


#: three generated jobs, one JSONL record a line
THREE_JOBS = "".join(
    json.dumps(job.to_record()) + "\n"
    for job in TraceGenerator(KALOS_SPEC, seed=0).generate(3).jobs)


def fourth_job(**fields) -> str:
    """THREE_JOBS plus a copy of its first record with ``fields`` set."""
    first = json.loads(THREE_JOBS.splitlines()[0])
    return THREE_JOBS + json.dumps({**first, **fields}) + "\n"


#: file name -> (file content, or None for no file; what the one-line
#: message must say)
BAD_TRACES = {
    "missing.csv": (None, "No such file or directory"),
    "open-brace.jsonl": ("{\n", "Expecting property name"),
    "no-duration.csv": ("job_id,cluster,job_type,submit_time\n"
                        "j0,kalos,pretrain,0\n",
                        "missing field 'duration'"),
    "nan-duration.csv": ("job_id,cluster,job_type,submit_time,duration,"
                         "gpu_demand,final_status\n"
                         "j0,kalos,pretrain,0,60,8,completed\n"
                         "j1,kalos,pretrain,1,nan,8,completed\n",
                         "duration must be finite and non-negative"),
    "empty.csv": ("job_id,cluster,job_type,submit_time,duration,"
                  "gpu_demand,final_status\n", "no GPU jobs"),
    # a bad record names its line in the file
    "brace-on-line-4.jsonl": (THREE_JOBS + "{\n",
                              "line 4: Expecting property name"),
    "list-record.jsonl": (THREE_JOBS + "\n[1]\n",
                          "line 5: not a JSON object"),
    "nan-on-line-3.csv": ("job_id,cluster,job_type,submit_time,duration,"
                          "gpu_demand,final_status\n"
                          "j0,kalos,pretrain,0,60,8,completed\n"
                          "j1,kalos,pretrain,1,nan,8,completed\n"
                          "j2,kalos,pretrain,2,60,8,completed\n",
                          "line 3: duration must be finite"),
    # a resource count is rejected, not truncated by int()
    "fractional-gpu.jsonl": (fourth_job(gpu_demand=8.7),
                             "line 4: gpu_demand must be a whole number, "
                             "got 8.7"),
    "boolean-gpu.jsonl": (fourth_job(gpu_demand=True),
                          "line 4: gpu_demand must be a whole number, "
                          "got True"),
    "fractional-cpu.jsonl": (fourth_job(cpu_demand=2.5),
                             "line 4: cpu_demand must be a whole number, "
                             "got 2.5"),
    # int(inf) raises OverflowError, not the ValueError readers catch
    "infinite-gpu.jsonl": (fourth_job(gpu_demand=float("inf")),
                           "line 4: gpu_demand must be a whole number, "
                           "got inf"),
}


@pytest.mark.parametrize("command", ["analyze", "validate"])
@pytest.mark.parametrize("name", list(BAD_TRACES))
def test_bad_trace_exits_2_with_one_line(command, name, tmp_path, capsys):
    path = tmp_path / name
    content, reason = BAD_TRACES[name]
    if content is not None:
        path.write_text(content)
    assert main([command, str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"invalid trace {path}: ")
    assert reason in out
    assert out.count("\n") == 1


class TestDiagnose:
    def test_diagnose_known_failure(self, tmp_path, capsys):
        log = tmp_path / "job.log"
        log.write_text(generate_job_log("NVLinkError", seed=2).text)
        assert main(["diagnose", str(log)]) == 0
        output = capsys.readouterr().out
        assert "NVLinkError" in output
        assert "infrastructure" in output

    def test_diagnose_script_error_not_recoverable(self, tmp_path,
                                                   capsys):
        log = tmp_path / "job.log"
        log.write_text(generate_job_log("TypeError", seed=3).text)
        main(["diagnose", str(log)])
        output = capsys.readouterr().out
        assert "script" in output
        assert "False" in output

    def test_diagnose_unintelligible_log_exits_nonzero(self, tmp_path):
        log = tmp_path / "noise.log"
        log.write_text("hello\nworld\n")
        assert main(["diagnose", str(log)]) == 1


class TestModelCommands:
    def test_checkpoint_cost(self, capsys):
        assert main(["checkpoint", "--model", "123b",
                     "--gpus", "2048"]) == 0
        output = capsys.readouterr().out
        assert "blocking reduction" in output

    def test_evalsched(self, capsys):
        assert main(["evalsched", "--nodes", "1"]) == 0
        output = capsys.readouterr().out
        assert "speedup" in output

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["evalsched", "--nodes", "0"],
        ["evalsched", "--nodes", "-1"],
        ["evalsched", "--model-scale", "0"],
        ["evalsched", "--model-scale", "-1"],
        ["evalsched", "--model-scale", "nan"],
        ["evalsched", "--model-scale", "inf"],
        ["serve", "--eval-batch", "0"],
        ["loadtest", "--horizon-hours", "-1"],
        ["loadtest", "--horizon-hours", "0"],
        ["export-figures", "--jobs", "0"],
        ["export-figures", "--jobs", "-5"],
    ], ids=" ".join)
    def test_bad_number_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"argument {argv[1]}:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["checkpoint", "--gpus", "0"],
        ["checkpoint", "--gpus", "-8"],
        ["checkpoint", "--gpus", "12"],
        ["loadtest", "--slots", "0"],
        ["loadtest", "--slots", "1"],
        ["loadtest", "--slots", "-3"],
    ], ids=" ".join)
    def test_override_rejected_by_the_config_exits_2(self, argv, capsys):
        assert main(argv) == 2
        output = capsys.readouterr().out
        assert output.startswith(f"invalid override: {argv[1]} {argv[2]}: ")
        assert output.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["evalsched", "--model-scale", "1e308"],
        ["evalsched", "--model-scale", "1e305"],
        ["loadtest", "--horizon-hours", "1e308"],
    ], ids=" ".join)
    def test_number_that_overflows_exits_2(self, argv, capsys):
        """A model scale of 1e308 overflows a runtime and 1e305 their
        sum (an infinite makespan, or a traceback); 1e308 hours
        overflow in seconds."""
        assert main(argv) == 2
        output = capsys.readouterr().out
        assert output.startswith(
            f"invalid override: {argv[1]} {float(argv[2]):g}: ")
        assert output.count("\n") == 1


class TestTrace:
    def test_trace_writes_chrome_json_and_summary(self, tmp_path,
                                                  capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "smoke", "--seed", "0",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        spans = [event for event in payload["traceEvents"]
                 if event["ph"] == "X"]
        assert spans
        output = capsys.readouterr().out
        assert "spans" in output
        assert "wrote Chrome-trace JSON" in output

    def test_trace_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["trace", "no-such-scenario"])


class TestValidateAndExport:
    def test_validate_passes_on_generated_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        main(["generate-trace", "--cluster", "kalos", "--jobs", "1500",
              "--out", str(out)])
        capsys.readouterr()
        assert main(["validate", str(out)]) == 0
        output = capsys.readouterr().out
        assert "PASS" in output

    def test_validate_fails_on_corrupted_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        main(["generate-trace", "--jobs", "500", "--out", str(out)])
        trace = Trace.from_csv(out)
        for job in trace.gpu_jobs():
            job.gpu_utilization = 0.1
        trace.to_csv(out)
        assert main(["validate", str(out)]) == 1

    def test_export_figures(self, tmp_path, capsys):
        outdir = tmp_path / "figs"
        assert main(["export-figures", "--outdir", str(outdir),
                     "--jobs", "1200"]) == 0
        svgs = list(outdir.glob("*.svg"))
        assert len(svgs) >= 10

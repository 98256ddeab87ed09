"""reprolint: per-rule fixtures, suppressions, CLI contract.

Every rule gets at least one positive fixture (the violation fires,
with the expected span) and one negative fixture (the idiomatic
deterministic replacement stays silent).  The meta-test at the bottom
pins the acceptance criterion of the lint gate itself: the committed
tree lints clean.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import (
    LintConfig,
    RULES,
    lint_source,
)
from repro.devtools.lint.context import is_sim_owned
from repro.devtools.lint.runner import add_arguments, main

REPO_ROOT = Path(__file__).resolve().parents[1]

SIM_PATH = "src/repro/sim/fixture.py"
NON_SIM_PATH = "src/repro/analysis/fixture.py"


def lint(source: str, path: str = SIM_PATH, **config):
    findings = lint_source(textwrap.dedent(source), path,
                           LintConfig(**config) if config else None)
    return findings


def codes(findings) -> list[str]:
    return [f.code for f in findings]


# -- RNG001: unseeded randomness -------------------------------------------


def test_rng_flags_global_random_module():
    findings = lint("""\
        import random

        def draw():
            return random.random()
        """)
    assert codes(findings) == ["RNG001"]
    assert findings[0].line == 4
    assert findings[0].snippet == "return random.random()"


def test_rng_flags_legacy_numpy_and_builtin_hash():
    findings = lint("""\
        import numpy as np

        def draw(token):
            return np.random.rand() + hash(token)
        """)
    assert codes(findings) == ["RNG001", "RNG001"]
    messages = " ".join(f.message for f in findings)
    assert "numpy.random.rand" in messages
    assert "hash" in messages


def test_rng_allows_seeded_generators():
    findings = lint("""\
        import random

        import numpy as np

        def draw(seed):
            rng = random.Random(seed)
            gen = np.random.default_rng(seed)
            return rng.random() + gen.random()
        """)
    assert findings == []


# -- CLK001: wall-clock reads ----------------------------------------------


def test_clk_flags_wall_clock_in_sim_code():
    source = """\
        import time

        def stamp():
            return time.time()
        """
    assert codes(lint(source, SIM_PATH)) == ["CLK001"]
    # the same read is fine outside sim-owned packages
    assert lint(source, NON_SIM_PATH) == []


def test_clk_flags_argless_datetime_now_only():
    findings = lint("""\
        import datetime

        def stamp(tz):
            naive = datetime.datetime.now()
            aware = datetime.datetime.now(tz)
            return naive, aware
        """)
    assert codes(findings) == ["CLK001"]
    assert findings[0].line == 4


# -- ORD001: hash-order iteration ------------------------------------------


def test_ord_flags_iteration_over_set():
    findings = lint("""\
        def walk(jobs):
            for job in {j.name for j in jobs}:
                yield job
        """)
    assert codes(findings) == ["ORD001"]
    assert findings[0].line == 2


def test_ord_flags_id_sort_key_and_allows_sorted_sets():
    source = """\
        def stable(jobs):
            pending = set(jobs)
            for job in sorted(pending):
                yield job

        def unstable(jobs):
            return sorted(jobs, key=id)
        """
    findings = lint(source)
    assert codes(findings) == ["ORD001"]
    assert findings[0].line == 7


# -- EXC001: silent broad except -------------------------------------------


def test_exc_flags_silent_broad_except():
    findings = lint("""\
        def persist(store):
            try:
                store.flush()
            except Exception:
                pass
        """)
    assert codes(findings) == ["EXC001"]
    assert findings[0].line == 4


def test_exc_allows_narrow_or_loud_handlers():
    findings = lint("""\
        def persist(store, log):
            try:
                store.flush()
            except OSError:
                pass
            try:
                store.sync()
            except Exception:
                log.warning("sync failed")
                raise
        """)
    assert findings == []


# -- LSN001: listener leak -------------------------------------------------


def test_lsn_flags_add_listener_without_remove():
    findings = lint("""\
        def attach(engine, check):
            engine.add_listener(check)
        """)
    assert codes(findings) == ["LSN001"]


def test_lsn_allows_paired_removal():
    findings = lint("""\
        def attach(engine, check):
            engine.add_listener(check)
            try:
                engine.run()
            finally:
                engine.remove_listener(check)
        """)
    assert findings == []


# -- FLT001: float loop accumulation ---------------------------------------


def test_flt_flags_float_accumulator_in_loop():
    findings = lint("""\
        def total(samples):
            acc = 0.0
            for sample in samples:
                acc += sample
            return acc
        """)
    assert codes(findings) == ["FLT001"]
    assert findings[0].line == 4


def test_flt_allows_fsum_and_integer_ticks():
    findings = lint("""\
        import math

        def total(samples):
            ticks = 0
            for sample in samples:
                ticks += 1
            return math.fsum(samples), ticks
        """)
    assert findings == []


# -- MUT001: mutable default arguments -------------------------------------


def test_mut_flags_mutable_defaults_everywhere():
    source = """\
        def enqueue(job, queue=[], *, meta={}):
            queue.append(job)
            return queue, meta
        """
    # fires regardless of sim ownership
    for path in (SIM_PATH, NON_SIM_PATH):
        findings = lint(source, path)
        assert codes(findings) == ["MUT001", "MUT001"]


def test_mut_allows_none_sentinel():
    findings = lint("""\
        def enqueue(job, queue=None):
            queue = queue if queue is not None else []
            queue.append(job)
            return queue
        """)
    assert findings == []


# -- rule metadata / selection ---------------------------------------------


def test_every_rule_has_a_positive_fixture():
    file_local = {"RNG001", "CLK001", "ORD001", "EXC001", "LSN001",
                  "FLT001", "MUT001"}
    # cross-module rules: fixtures live in test_reprolint_project.py
    cross_module = {"SEED001", "TRC001", "LSN002", "SPAN001", "IMP001"}
    assert file_local | cross_module == set(RULES) - {"PAR000"}


def test_select_and_ignore_narrow_the_run():
    source = """\
        import random

        def f(xs=[]):
            return random.random()
        """
    assert codes(lint(source, select=frozenset({"MUT001"}))) == ["MUT001"]
    assert codes(lint(source, ignore=frozenset({"MUT001"}))) == ["RNG001"]


def test_sim_ownership_is_path_based():
    assert is_sim_owned("src/repro/scheduler/queue.py")
    assert is_sim_owned("src/repro/core/checkpoint.py")
    assert not is_sim_owned("src/repro/analysis/figures.py")
    # the *file* being named like a package does not count
    assert not is_sim_owned("src/repro/analysis/core.py")


# -- suppressions ----------------------------------------------------------


def test_trailing_comment_suppresses_own_line():
    findings = lint("""\
        import random

        def draw():
            return random.random()  # reprolint: disable=RNG001
        """)
    assert findings == []


def test_comment_line_suppresses_next_line_only():
    findings = lint("""\
        import random

        def draw():
            # reprolint: disable=RNG001
            first = random.random()
            second = random.random()
            return first + second
        """)
    assert [f.line for f in findings] == [6]


def test_bare_disable_suppresses_all_codes_on_line():
    findings = lint("""\
        import random

        def draw(xs=[]):  # reprolint: disable
            return random.random()
        """)
    assert codes(findings) == ["RNG001"]


def test_disable_file_silences_whole_module():
    findings = lint("""\
        # reprolint: disable-file=RNG001
        import random

        def draw():
            return random.random() + random.random()
        """)
    assert findings == []


def test_suppressing_wrong_code_does_not_hide_finding():
    findings = lint("""\
        import random

        def draw():
            return random.random()  # reprolint: disable=CLK001
        """)
    assert codes(findings) == ["RNG001"]


# -- CLI surface -----------------------------------------------------------


VIOLATING = textwrap.dedent("""\
    import random

    def draw():
        return random.random()
    """)


def cli(argv, tmp_path=None):
    parser = argparse.ArgumentParser()
    add_arguments(parser)
    stream = io.StringIO()
    status = main(parser.parse_args(argv), stream=stream)
    return status, stream.getvalue()


def test_cli_text_output_and_exit_one(tmp_path):
    target = tmp_path / "sim" / "mod.py"
    target.parent.mkdir()
    target.write_text(VIOLATING)
    status, out = cli([str(target)])
    assert status == 1
    assert f"{target}:4:12: RNG001" in out
    assert "1 files, 1 findings" in out


def test_cli_json_output_includes_spans(tmp_path):
    target = tmp_path / "sim" / "mod.py"
    target.parent.mkdir()
    target.write_text(VIOLATING)
    status, out = cli([str(target), "--format", "json"])
    payload = json.loads(out)
    assert status == payload["exit_code"] == 1
    (finding,) = payload["findings"]
    assert finding["code"] == "RNG001"
    assert finding["line"] == 4
    assert finding["snippet"] == "return random.random()"


def test_cli_parse_error_exits_two(tmp_path):
    target = tmp_path / "sim" / "broken.py"
    target.parent.mkdir()
    target.write_text("def draw(:\n")
    status, out = cli([str(target)])
    assert status == 2
    assert "PAR000" in out


@pytest.mark.parametrize("missing", ["does_not_exist.py", "srcc/"])
def test_cli_missing_path_exits_two(tmp_path, missing):
    target = tmp_path / missing
    status, out = cli([str(target)])
    assert status == 2
    assert f"{target}:1:1: PAR000" in out
    assert "1 parse errors" in out


def test_cli_rejects_unknown_rule_code(tmp_path):
    status, out = cli(["--select", "NOPE42"])
    assert status == 2
    assert "NOPE42" in out


def test_cli_list_rules():
    status, out = cli(["--list-rules"])
    assert status == 0
    for code in RULES:
        assert code in out


# -- the gate itself -------------------------------------------------------


@pytest.mark.skipif(not (REPO_ROOT / "src" / "repro").is_dir(),
                    reason="requires the repository layout")
def test_committed_tree_lints_clean():
    """`python -m repro lint src` must exit 0 on the committed tree."""
    env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "src"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout

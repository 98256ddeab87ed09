"""reprolint phase 2: ProjectIndex and the cross-module rules.

Fixtures here are miniature on-disk ``repro`` package trees (module
names and sim-ownership are derived from the path layout), linted with
``run_lint`` so both phases execute.  Each cross-module rule gets a
positive and a negative fixture; the index itself gets structural
tests (import graph, re-export canonicalization, one parse per file).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import FileContext, LintConfig, run_lint
from repro.devtools.lint.project import (module_name_for,
                                         module_name_from_path_text)


def write_tree(root: Path, files: dict[str, str]) -> list[Path]:
    """Materialize ``relative path -> source`` as a package tree.

    Every directory on the way gets an ``__init__.py`` so module names
    resolve by package ascent, exactly as in the real repo layout.
    """
    paths = []
    for relative, source in files.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        package = target.parent
        while package != root:
            init = package / "__init__.py"
            if not init.exists():
                init.write_text("")
            package = package.parent
        target.write_text(textwrap.dedent(source))
        paths.append(target)
    return sorted(root.rglob("*.py"))


def project_lint(root: Path, files: dict[str, str], code: str):
    """Write the tree, lint both phases, return findings for ``code``."""
    paths = write_tree(root, files)
    result = run_lint(paths, LintConfig(select=frozenset({code})))
    assert not result.parse_errors
    return [f for f in result.findings if f.code == code]


REGISTRY = """\
    STREAM_OFFSETS: dict[str, int] = {
        "node_faults": 0,
        "storage": 2,
    }
    """


# -- SEED001: RNG-stream registry ------------------------------------------


def test_seed_flags_unregistered_offset(tmp_path):
    findings = project_lint(tmp_path, {
        "repro/chaos/streams.py": REGISTRY,
        "repro/chaos/scenario.py": """\
            import numpy as np

            class Scenario:
                def __init__(self, seed):
                    self.seed = seed

                def build(self):
                    return np.random.default_rng(self.seed + 9)
            """,
    }, "SEED001")
    assert [f.code for f in findings] == ["SEED001"]
    assert "seed + 9 is not a registered RNG stream" in findings[0].message
    assert "stream_rng()" in findings[0].message


def test_seed_allows_registered_offsets_and_plain_seeds(tmp_path):
    findings = project_lint(tmp_path, {
        "repro/chaos/streams.py": REGISTRY,
        "repro/chaos/scenario.py": """\
            import numpy as np

            class Scenario:
                def __init__(self, seed):
                    self.seed = seed

                def build(self):
                    base = np.random.default_rng(self.seed)
                    return base, np.random.default_rng(self.seed + 2)
            """,
    }, "SEED001")
    assert findings == []


def test_seed_reports_registry_collision_on_the_registry(tmp_path):
    findings = project_lint(tmp_path, {
        "repro/chaos/streams.py": """\
            STREAM_OFFSETS: dict[str, int] = {
                "node_faults": 0,
                "storage": 0,
            }
            """,
    }, "SEED001")
    assert len(findings) == 1
    assert findings[0].path.endswith("streams.py")
    assert "collision" in findings[0].message
    assert "'storage' and 'node_faults'" in findings[0].message


# -- TRC001: tracer seam ---------------------------------------------------


#: the evalsched replay as committed before instrumentation — the
#: untraced surface this rule was built to catch (trimmed, faithful)
PRE_FIX_EVALSCHED = """\
    from repro.sim.engine import Engine

    class EventDrivenEvalRound:
        def __init__(self, config, deserialize_rate=1.5e9):
            self.config = config
            self.deserialize_rate = deserialize_rate

        def run_baseline(self, datasets):
            engine = Engine()
            for dataset in datasets:
                engine.process(iter([dataset]), name=dataset.name)
            return engine.run()
    """


def test_trc_fires_on_pre_instrumentation_evalsched(tmp_path):
    findings = project_lint(tmp_path, {
        "repro/sim/engine.py": "class Engine:\n    pass\n",
        "repro/core/evalsched/simulation.py": PRE_FIX_EVALSCHED,
    }, "TRC001")
    assert len(findings) == 1
    assert findings[0].path.endswith("simulation.py")
    assert "EventDrivenEvalRound" in findings[0].message
    assert "untraced surface" in findings[0].message


def test_trc_seam_shape_requires_default_and_normalization(tmp_path):
    findings = project_lint(tmp_path, {
        "repro/core/runner.py": """\
            class Runner:
                def __init__(self, tracer):
                    self.tracer = tracer
            """,
    }, "TRC001")
    messages = sorted(f.message for f in findings)
    assert len(messages) == 2
    assert "never normalizes" in messages[0]
    assert "default to None" in messages[1]


def test_trc_resolves_null_tracer_through_reexports(tmp_path):
    findings = project_lint(tmp_path, {
        "repro/obs/tracer.py": "NULL_TRACER = None\n",
        "repro/obs/__init__.py":
            "from repro.obs.tracer import NULL_TRACER\n",
        "repro/core/runner.py": """\
            from repro.obs import NULL_TRACER

            class Runner:
                def __init__(self, tracer=None):
                    self.tracer = tracer or NULL_TRACER
            """,
    }, "TRC001")
    assert findings == []


def test_trc_ignores_dataclasses_and_private_helpers(tmp_path):
    findings = project_lint(tmp_path, {
        "repro/sim/engine.py": "class Engine:\n    pass\n",
        "repro/core/shapes.py": """\
            from dataclasses import dataclass

            from repro.sim.engine import Engine

            @dataclass
            class Plan:
                steps: int = 0

            class _Clock:
                def now(self):
                    return Engine()
            """,
    }, "TRC001")
    assert findings == []


# -- LSN002: exit-safe paired release --------------------------------------


def test_lsn2_flags_class_that_never_releases(tmp_path):
    findings = project_lint(tmp_path, {
        "repro/chaos/hooks.py": """\
            class Harness:
                def start(self, engine, hook):
                    engine.add_listener(hook)
            """,
    }, "LSN002")
    assert len(findings) == 1
    assert "ever calls remove_listener()" in findings[0].message


def test_lsn2_flags_conditional_only_release(tmp_path):
    findings = project_lint(tmp_path, {
        "repro/chaos/hooks.py": """\
            class Harness:
                def start(self, engine, hook):
                    self.engine = engine
                    engine.add_listener(hook)

                def maybe_stop(self, hook, flag):
                    if flag:
                        self.engine.remove_listener(hook)
            """,
    }, "LSN002")
    assert len(findings) == 1
    assert "conditional paths" in findings[0].message


@pytest.mark.parametrize("release", [
    # finally block inside the acquiring method
    """\
        def run(self, engine, hook):
            engine.add_listener(hook)
            try:
                pass
            finally:
                engine.remove_listener(hook)
    """,
    # teardown method, even behind a conditional receiver
    """\
        def start(self, engine, hook):
            self.engine, self.hook = engine, hook
            engine.add_listener(hook)

        def close(self):
            self.engine.remove_listener(self.hook)
    """,
])
def test_lsn2_accepts_exit_safe_release(tmp_path, release):
    source = "class Harness:\n" + textwrap.indent(
        textwrap.dedent(release), "    ")
    findings = project_lint(
        tmp_path, {"repro/chaos/hooks.py": source}, "LSN002")
    assert findings == []


def test_lsn2_exempts_the_resource_api_owner(tmp_path):
    findings = project_lint(tmp_path, {
        "repro/sim/bus.py": """\
            class Bus:
                def add_listener(self, hook):
                    self.hooks.append(hook)

                def subscribe(self, hook):
                    self.add_listener(hook)
            """,
    }, "LSN002")
    assert findings == []


# -- SPAN001: span begin/end pairing ---------------------------------------


def test_span_flags_begin_without_any_end(tmp_path):
    findings = project_lint(tmp_path, {
        "repro/chaos/probe.py": """\
            class Probe:
                def fire(self):
                    self.span = self.tracer.begin("fire", "chaos")
            """,
    }, "SPAN001")
    assert len(findings) == 1
    assert "ever calls .end()" in findings[0].message


def test_span_accepts_end_in_another_method(tmp_path):
    findings = project_lint(tmp_path, {
        "repro/chaos/probe.py": """\
            class Probe:
                def fire(self):
                    self.span = self.tracer.begin("fire", "chaos")

                def settle(self):
                    self.tracer.end(self.span)
            """,
    }, "SPAN001")
    assert findings == []


# -- IMP001: transitive import taint ---------------------------------------


def test_imp_flags_direct_taint_root_import(tmp_path):
    findings = project_lint(tmp_path, {
        "repro/chaos/worker.py": "import threading\n",
    }, "IMP001")
    assert len(findings) == 1
    assert "imports threading directly" in findings[0].message
    assert "blessed" in findings[0].message


def test_imp_reports_transitive_taint_with_witness_chain(tmp_path):
    findings = project_lint(tmp_path, {
        "repro/chaos/clockio.py": "import time\n",
        "repro/chaos/faults.py":
            "from repro.chaos.clockio import time\n",
        "repro/chaos/scenario.py":
            "from repro.chaos.faults import time\n",
    }, "IMP001")
    by_path = {Path(f.path).name: f for f in findings}
    # clockio is directly tainted; faults and scenario transitively
    assert set(by_path) == {"clockio.py", "faults.py", "scenario.py"}
    assert ("repro.chaos.scenario -> repro.chaos.faults -> "
            "repro.chaos.clockio -> time"
            in by_path["scenario.py"].message)


def test_imp_blessed_seams_absorb_taint(tmp_path):
    findings = project_lint(tmp_path, {
        # repro.cluster.storage is a blessed seam: it may touch the
        # host, and importing it is not tainting
        "repro/cluster/storage.py": "import time\n",
        "repro/chaos/scenario.py":
            "from repro.cluster.storage import time\n",
    }, "IMP001")
    assert findings == []


def test_imp_ignores_non_sim_modules(tmp_path):
    findings = project_lint(tmp_path, {
        "repro/analysis/plots.py": "import threading\n",
    }, "IMP001")
    assert findings == []


# -- ProjectIndex structure ------------------------------------------------


class TestProjectIndex:
    def test_module_names_by_package_ascent(self, tmp_path):
        paths = write_tree(tmp_path, {
            "repro/chaos/faults.py": "x = 1\n",
        })
        names = {module_name_for(p) for p in paths}
        assert names == {"repro", "repro.chaos", "repro.chaos.faults"}
        assert (module_name_from_path_text("src/repro/chaos/faults.py")
                == "repro.chaos.faults")
        assert module_name_from_path_text("elsewhere/util.py") is None

    def test_import_graph_resolves_relative_imports(self, tmp_path):
        paths = write_tree(tmp_path, {
            "repro/chaos/faults.py": "x = 1\n",
            "repro/chaos/scenario.py": "from .faults import x\n",
            "repro/chaos/deep/nested.py": "from ..faults import x\n",
        })
        index = run_lint(paths).index
        assert ("repro.chaos.faults" in
                index.modules["repro.chaos.scenario"].module_imports)
        assert ("repro.chaos.faults" in
                index.modules["repro.chaos.deep.nested"].module_imports)

    def test_reexport_chains_canonicalize(self, tmp_path):
        paths = write_tree(tmp_path, {
            "repro/obs/tracer.py": "NULL_TRACER = None\n",
            "repro/obs/__init__.py":
                "from repro.obs.tracer import NULL_TRACER\n",
            "repro/core/__init__.py":
                "from repro.obs import NULL_TRACER\n",
        })
        index = run_lint(paths).index
        assert (index.canonical("repro.core", "NULL_TRACER")
                == "repro.obs.tracer.NULL_TRACER")
        assert (index.canonical_use("repro.core.NULL_TRACER")
                == "repro.obs.tracer.NULL_TRACER")
        # an unknown symbol stays where it was named
        assert (index.canonical("repro.core", "missing")
                == "repro.core.missing")

    def test_each_file_is_parsed_once(self, tmp_path, monkeypatch):
        paths = write_tree(tmp_path, {
            "repro/chaos/faults.py": "x = 1\n",
            "repro/chaos/scenario.py": "from .faults import x\n",
        })
        calls = []
        parse = FileContext.parse

        def counting_parse(source, path):
            calls.append(path)
            return parse(source, path)

        monkeypatch.setattr(FileContext, "parse",
                            staticmethod(counting_parse))
        result = run_lint(paths)
        assert result.index is not None
        assert set(result.index.modules) == {
            "repro", "repro.chaos", "repro.chaos.faults",
            "repro.chaos.scenario"}
        assert len(calls) == result.files_checked == len(paths)


# -- phase toggling --------------------------------------------------------


def test_no_project_skips_cross_module_phase(tmp_path):
    paths = write_tree(tmp_path, {
        "repro/chaos/worker.py": "import threading\n",
    })
    with_phase = run_lint(paths)
    without = run_lint(paths, LintConfig(project=False))
    assert any(f.code == "IMP001" for f in with_phase.findings)
    assert without.index is None
    assert all(f.code != "IMP001" for f in without.findings)


def test_project_findings_respect_suppressions(tmp_path):
    paths = write_tree(tmp_path, {
        "repro/chaos/worker.py":
            "import threading  # reprolint: disable=IMP001\n",
    })
    result = run_lint(paths)
    assert all(f.code != "IMP001" for f in result.findings)

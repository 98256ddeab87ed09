"""Meta-tests: the repository delivers what DESIGN.md promises.

Parses DESIGN.md's per-experiment index and verifies every referenced
bench target exists, and that every paper figure/table has both a
generator and a benchmark.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DESIGN = (REPO / "DESIGN.md").read_text()
BENCH_DIR = REPO / "benchmarks"


def referenced_bench_files() -> set[str]:
    return set(re.findall(r"`benchmarks/(bench_\w+\.py)", DESIGN)) | set(
        re.findall(r"\| `(bench_\w+\.py)", DESIGN))


class TestDesignPromises:
    def test_every_referenced_bench_exists(self):
        missing = [name for name in referenced_bench_files()
                   if not (BENCH_DIR / name).exists()]
        assert not missing, missing

    def test_every_paper_figure_has_a_generator(self):
        from repro.analysis import figures

        for number in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16,
                       17, 18, 19, 20, 21, 22):
            assert hasattr(figures, f"fig{number}"), f"fig{number}"

    def test_every_paper_table_has_a_generator(self):
        from repro.analysis import tables

        for name in ("table1", "table2", "table3"):
            assert hasattr(tables, name)

    def test_design_lists_every_subpackage(self):
        src = REPO / "src" / "repro"
        subpackages = {path.name for path in src.iterdir()
                       if path.is_dir() and (path / "__init__.py").exists()}
        for subpackage in subpackages:
            assert f"repro/{subpackage}" in DESIGN or \
                f"repro.{subpackage}" in DESIGN, subpackage

    def test_experiments_md_covers_all_figures(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for label in ("Fig. 2a", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6",
                      "Fig. 7a", "Fig. 8a", "Fig. 9", "Fig. 10",
                      "Fig. 11", "Fig. 12", "Fig. 13", "Fig. 14",
                      "Table 1", "Table 2", "Table 3", "Fig. 16",
                      "Fig. 17", "Fig. 18", "Fig. 21", "Fig. 22",
                      "A.3"):
            assert label in experiments, label


class TestBenchmarkHygiene:
    @pytest.mark.parametrize("bench", sorted(
        BENCH_DIR.glob("bench_*.py"), key=lambda p: p.name),
        ids=lambda p: p.name)
    def test_every_bench_asserts_something(self, bench):
        """Benches must check shapes, not just print them."""
        assert "assert " in bench.read_text(), bench.name

    def test_all_reports_named_after_experiments(self):
        text = "\n".join(path.read_text()
                         for path in BENCH_DIR.glob("bench_*.py"))
        emitted = set(re.findall(r'emit\("([\w_]+)"', text))
        assert len(emitted) >= 25  # one artifact per experiment family


class TestStyleGates:
    """Cheap, dependency-free style enforcement (PEP 8 basics)."""

    PYTHON_ROOTS = ("src", "tests", "benchmarks", "examples")

    def iter_files(self):
        for root in self.PYTHON_ROOTS:
            yield from (REPO / root).rglob("*.py")

    def test_no_lines_over_79_columns(self):
        offenders = []
        for path in self.iter_files():
            for lineno, line in enumerate(
                    path.read_text().splitlines(), 1):
                if len(line) > 79:
                    offenders.append(f"{path}:{lineno}")
        assert not offenders, offenders[:10]

    def test_no_tabs(self):
        offenders = [str(path) for path in self.iter_files()
                     if "\t" in path.read_text()]
        assert not offenders, offenders

    def test_every_module_has_a_docstring(self):
        import ast

        missing = []
        for path in (REPO / "src").rglob("*.py"):
            if path.name == "__main__.py":
                continue
            if ast.get_docstring(ast.parse(path.read_text())) is None:
                missing.append(str(path))
        assert not missing, missing

    def test_no_unused_imports(self):
        """Every name an import binds is read in its module (F401).

        A read is a name, the root of an attribute chain, or a name
        inside a string annotation (``"FatTreeConfig"``).  Package
        ``__init__.py`` files are skipped: their imports re-export.
        """
        import ast

        offenders = []
        for path in self.iter_files():
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            bound: dict[str, int] = {}
            annotations = []
            for node in ast.walk(tree):
                if isinstance(node, ast.Import) or (
                        isinstance(node, ast.ImportFrom)
                        and node.module != "__future__"):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        bound[name] = node.lineno
                elif isinstance(node, ast.arg) and node.annotation:
                    annotations.append(node.annotation)
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)) \
                        and node.returns:
                    annotations.append(node.returns)
                elif isinstance(node, ast.AnnAssign):
                    annotations.append(node.annotation)
            trees = [tree] + [
                ast.parse(node.value, mode="eval")
                for annotation in annotations
                for node in ast.walk(annotation)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)]
            read = {node.id for each in trees for node in ast.walk(each)
                    if isinstance(node, ast.Name)}
            offenders += [f"{path}:{lineno} {name}"
                          for name, lineno in bound.items()
                          if name not in read]
        assert not offenders, offenders


class TestExamplesCompile:
    """Every example must at least import-compile (full runs are the
    user's quickstart, not the test suite's job)."""

    def test_examples_compile(self):
        import py_compile

        for path in sorted((REPO / "examples").glob("*.py")):
            py_compile.compile(str(path), doraise=True)

    def test_examples_have_docstrings_and_main(self):
        import ast

        for path in sorted((REPO / "examples").glob("*.py")):
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), path.name
            assert "__main__" in path.read_text(), path.name

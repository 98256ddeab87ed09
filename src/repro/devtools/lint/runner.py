"""Run reprolint over files and directories; report; set exit codes.

A full run reads and parses each file exactly once.  Phase 1 runs the
file-local checkers over each parsed
:class:`~repro.devtools.lint.context.FileContext`; phase 2 builds a
:class:`~repro.devtools.lint.project.ProjectIndex` from those same
contexts and runs the cross-module checkers against it.

Exit-code contract (relied on by CI):

* ``0`` — clean: no findings, or every one suppressed inline;
* ``1`` — fresh findings;
* ``2`` — a path could not be read or parsed (reported as ``PAR000``),
  or the invocation was invalid.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from repro.devtools.lint.checkers import (ALL_CHECKERS,
                                          ALL_PROJECT_CHECKERS)
from repro.devtools.lint.context import FileContext
from repro.devtools.lint.findings import RULES, Finding
from repro.devtools.lint.project import (ProjectChecker, ProjectIndex,
                                         run_project_checkers)
from repro.devtools.lint.walker import Checker, run_checkers


@dataclass
class LintConfig:
    """Rule selection; defaults to every registered checker."""

    select: frozenset[str] | None = None
    ignore: frozenset[str] = frozenset()
    #: run the cross-module phase (ProjectIndex + project checkers)
    project: bool = True

    def _wants(self, code: str) -> bool:
        return ((self.select is None or code in self.select)
                and code not in self.ignore)

    def checkers(self) -> list[type[Checker]]:
        return [c for c in ALL_CHECKERS if self._wants(c.code)]

    def project_checkers(self) -> list[type[ProjectChecker]]:
        if not self.project:
            return []
        return [c for c in ALL_PROJECT_CHECKERS if self._wants(c.code)]


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    parse_errors: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: the phase-2 index (None when the project phase was skipped)
    index: ProjectIndex | None = None

    @property
    def exit_code(self) -> int:
        if self.parse_errors:
            return 2
        return 1 if self.findings else 0

    def to_dict(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "parse_errors": [f.to_dict() for f in self.parse_errors],
            "exit_code": self.exit_code,
        }


def lint_source(source: str, path: str = "<memory>",
                config: LintConfig | None = None) -> list[Finding]:
    """Lint one in-memory source blob (the pytest-facing entry)."""
    config = config or LintConfig()
    ctx = FileContext.parse(source, path)
    return run_checkers(ctx, config.checkers())


def _iter_files(paths: Sequence[str | Path]) -> Iterable[Path]:
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        candidates = (sorted(path.rglob("*.py")) if path.is_dir()
                      else [path])
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def run_lint(paths: Sequence[str | Path],
             config: LintConfig | None = None) -> LintResult:
    """Lint files/directories: both phases over one parse per file."""
    config = config or LintConfig()
    checkers = config.checkers()
    result = LintResult()
    contexts: list[FileContext] = []
    for path in _iter_files(paths):
        result.files_checked += 1
        try:
            ctx = FileContext.parse(path.read_text(encoding="utf-8"),
                                    str(path))
        except (OSError, SyntaxError, UnicodeDecodeError) as error:
            line = getattr(error, "lineno", 1) or 1
            result.parse_errors.append(Finding(
                code="PAR000", message=str(error), path=str(path),
                line=line, col=0))
            continue
        contexts.append(ctx)
        result.findings.extend(run_checkers(ctx, checkers))
    project_checkers = config.project_checkers()
    if project_checkers and contexts:
        result.index = ProjectIndex.build(contexts)
        result.findings.extend(
            run_project_checkers(result.index, project_checkers))
    return result


# -- reporting -------------------------------------------------------------


def render_text(result: LintResult, stream: TextIO) -> None:
    for finding in result.parse_errors:
        print(finding.render(), file=stream)
    for finding in result.findings:
        print(finding.render(), file=stream)
        if finding.snippet:
            print(f"    {finding.snippet}", file=stream)
    counts = (f"{result.files_checked} files, "
              f"{len(result.findings)} findings")
    if result.parse_errors:
        counts += f", {len(result.parse_errors)} parse errors"
    print(f"reprolint: {counts}", file=stream)


def render_json(result: LintResult, stream: TextIO) -> None:
    json.dump(result.to_dict(), stream, indent=2, sort_keys=True)
    stream.write("\n")


# -- CLI -------------------------------------------------------------------


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install reprolint's flags on a (sub)parser."""
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories (default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule codes to run")
    parser.add_argument("--ignore", default="",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--no-project", action="store_true",
                        help="skip phase 2 (cross-module checkers)")


def _codes(raw: str | None) -> frozenset[str] | None:
    if raw is None:
        return None
    return frozenset(code.strip() for code in raw.split(",")
                     if code.strip())


def main(args: argparse.Namespace,
         stream: TextIO | None = None) -> int:
    """Entry point shared by ``python -m repro lint`` and tests."""
    stream = stream or sys.stdout
    if args.list_rules:
        for code, charter in sorted(RULES.items()):
            print(f"{code}  {charter}", file=stream)
        return 0
    unknown = ((_codes(args.select) or frozenset())
               | (_codes(args.ignore) or frozenset())) - set(RULES)
    if unknown:
        print(f"unknown rule code(s): {', '.join(sorted(unknown))}",
              file=stream)
        return 2
    config = LintConfig(select=_codes(args.select),
                        ignore=_codes(args.ignore) or frozenset(),
                        project=not args.no_project)
    result = run_lint(args.paths, config)
    if args.format == "json":
        render_json(result, stream)
    else:
        render_text(result, stream)
    return result.exit_code

"""Run reprolint over files and directories; report; set exit codes.

A full run has two phases: phase 1 walks each file once and runs the
file-local checkers; phase 2 builds a
:class:`~repro.devtools.lint.project.ProjectIndex` over every parsed
file and runs the cross-module checkers against it.

Exit-code contract (relied on by CI):

* ``0`` — clean: every finding suppressed inline or absorbed by the
  baseline;
* ``1`` — fresh findings;
* ``2`` — a file failed to parse or the invocation was invalid.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from repro.devtools.lint.baseline import Baseline, BaselineEntry
from repro.devtools.lint.checkers import (ALL_CHECKERS,
                                          ALL_PROJECT_CHECKERS)
from repro.devtools.lint.context import FileContext
from repro.devtools.lint.findings import RULES, Finding
from repro.devtools.lint.fixes import FIXABLE_CODES, apply_fixes
from repro.devtools.lint.project import (ProjectChecker, ProjectIndex,
                                         run_project_checkers)
from repro.devtools.lint.walker import Checker, run_checkers

DEFAULT_BASELINE = Path("tools") / "reprolint_baseline.json"


@dataclass
class LintConfig:
    """Rule selection; defaults to every registered checker."""

    select: frozenset[str] | None = None
    ignore: frozenset[str] = frozenset()
    #: run the cross-module phase (ProjectIndex + project checkers)
    project: bool = True

    def checkers(self) -> list[type[Checker]]:
        chosen = []
        for checker in ALL_CHECKERS:
            if self.select is not None and checker.code not in self.select:
                continue
            if checker.code in self.ignore:
                continue
            chosen.append(checker)
        return chosen

    def project_checkers(self) -> list[type[ProjectChecker]]:
        if not self.project:
            return []
        chosen: list[type[ProjectChecker]] = []
        for checker in ALL_PROJECT_CHECKERS:
            if self.select is not None and checker.code not in self.select:
                continue
            if checker.code in self.ignore:
                continue
            chosen.append(checker)
        return chosen


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale_entries: list[BaselineEntry] = field(default_factory=list)
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
            "baselined": [f.to_dict() for f in self.baselined],
            "stale_baseline_entries": [e.to_dict()
                                       for e in self.stale_entries],
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
             config: LintConfig | None = None,
             baseline: Baseline | None = None,
             index: ProjectIndex | None = None) -> LintResult:
    """Lint files/directories (both phases) and apply the baseline.

    Pass a previous run's ``index`` to reuse its content-hash cache —
    unchanged files keep their phase-1 summaries.
    """
    config = config or LintConfig()
    result = LintResult()
    all_findings: list[Finding] = []
    parsed: list[Path] = []
    for path in _iter_files(paths):
        result.files_checked += 1
        try:
            source = path.read_text(encoding="utf-8")
            findings = lint_source(source, str(path), config)
        except (SyntaxError, UnicodeDecodeError) as error:
            line = getattr(error, "lineno", 1) or 1
            result.parse_errors.append(Finding(
                code="PAR000", message=str(error), path=str(path),
                line=line, col=0))
            continue
        parsed.append(path)
        all_findings.extend(findings)
    project_checkers = config.project_checkers()
    if project_checkers and parsed:
        result.index = ProjectIndex.build(parsed, previous=index)
        all_findings.extend(
            run_project_checkers(result.index, project_checkers))
    if baseline is not None:
        fresh, absorbed, stale = baseline.apply(all_findings)
        result.findings = fresh
        result.baselined = absorbed
        result.stale_entries = stale
    else:
        result.findings = all_findings
    return result


def run_fix(paths: Sequence[str | Path],
            config: LintConfig | None = None) -> tuple[int, int]:
    """Apply autofixes in place; returns (fixes applied, files changed).

    Runs a full (baseline-free) lint to collect findings, then rewrites
    each file whose findings have a known mechanical fix.
    """
    result = run_lint(paths, config, baseline=None)
    by_path: dict[str, list[Finding]] = {}
    for finding in result.findings:
        if finding.code in FIXABLE_CODES:
            by_path.setdefault(finding.path, []).append(finding)
    fixes = files = 0
    for path, findings in sorted(by_path.items()):
        target = Path(path)
        source = target.read_text(encoding="utf-8")
        fixed, applied = apply_fixes(source, findings)
        if applied and fixed != source:
            target.write_text(fixed, encoding="utf-8")
            files += 1
            fixes += applied
    return fixes, files


# -- reporting -------------------------------------------------------------


def render_text(result: LintResult, stream: TextIO) -> None:
    for finding in result.parse_errors:
        print(finding.render(), file=stream)
    for finding in result.findings:
        print(finding.render(), file=stream)
        if finding.snippet:
            print(f"    {finding.snippet}", file=stream)
    for entry in result.stale_entries:
        print(f"note: stale baseline entry {entry.fingerprint} "
              f"({entry.code} {entry.path}) — violation fixed; "
              f"regenerate with --update-baseline", file=stream)
    counts = (f"{result.files_checked} files, "
              f"{len(result.findings)} findings")
    if result.baselined:
        counts += f", {len(result.baselined)} baselined"
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
    parser.add_argument("--baseline", default=None,
                        help=f"baseline JSON (default: "
                             f"{DEFAULT_BASELINE} when present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--update-baseline", action="store_true",
                        help="absorb current findings into the "
                             "baseline and exit 0")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule codes to run")
    parser.add_argument("--ignore", default="",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--no-project", action="store_true",
                        help="skip phase 2 (cross-module checkers)")
    parser.add_argument("--fix", action="store_true",
                        help="apply mechanical autofixes in place "
                             "before linting")
    parser.add_argument("--check-idempotent", action="store_true",
                        help="with --fix: run a second fix pass and "
                             "fail (exit 2) if it changes anything")


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
                        project=not getattr(args, "no_project", False))

    if getattr(args, "check_idempotent", False) and not args.fix:
        print("--check-idempotent requires --fix", file=stream)
        return 2
    if getattr(args, "fix", False):
        fixes, files = run_fix(args.paths, config)
        print(f"fix: applied {fixes} fixes in {files} files",
              file=stream)
        if args.check_idempotent:
            second, _ = run_fix(args.paths, config)
            if second:
                print(f"--check-idempotent: second pass applied "
                      f"{second} further fixes; autofixes did not "
                      f"converge", file=stream)
                return 2

    baseline_path: Path | None = None
    if not args.no_baseline:
        if args.baseline:
            baseline_path = Path(args.baseline)
            if not baseline_path.exists() and not args.update_baseline:
                print(f"baseline not found: {baseline_path}",
                      file=stream)
                return 2
        elif DEFAULT_BASELINE.exists():
            baseline_path = DEFAULT_BASELINE
    baseline = (Baseline.load(baseline_path)
                if baseline_path and baseline_path.exists() else None)

    if args.update_baseline:
        target = baseline_path or Path(args.baseline or DEFAULT_BASELINE)
        raw = run_lint(args.paths, config, baseline=None)
        if raw.parse_errors:
            render_text(raw, stream)
            return 2
        Baseline.from_findings(raw.findings, previous=baseline
                               ).save(target)
        print(f"wrote {target} ({len(raw.findings)} findings "
              f"absorbed)", file=stream)
        return 0

    result = run_lint(args.paths, config, baseline=baseline)
    if args.format == "json":
        render_json(result, stream)
    else:
        render_text(result, stream)
    return result.exit_code

"""reprolint — determinism & simulation-safety static analysis.

An AST-based lint pass purpose-built for this seeded discrete-event
codebase.  Twelve rules — seven file-local, five cross-module — encode
the conventions that keep golden chaos traces byte-stable; see
``docs/LINT.md`` for the catalogue and ``python -m repro lint
--list-rules`` for a summary.

Library use::

    from repro.devtools.lint import lint_source, run_lint
    findings = lint_source(code, path="sim/example.py")
"""

from repro.devtools.lint.checkers import ALL_CHECKERS
from repro.devtools.lint.context import SIM_PACKAGES, FileContext
from repro.devtools.lint.findings import RULES, Finding
from repro.devtools.lint.runner import (LintConfig, LintResult,
                                        lint_source, run_lint)
from repro.devtools.lint.walker import Checker, run_checkers

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "FileContext",
    "Finding",
    "LintConfig",
    "LintResult",
    "RULES",
    "SIM_PACKAGES",
    "lint_source",
    "run_checkers",
    "run_lint",
]

"""Real-time log compression (§6.1, Fig. 15 left).

``FilterRules`` is the continuously-updated collection of regular
expressions that strip routine output; ``LogCompressor`` applies them
streamingly and reports what survived (the error candidates) plus the
compression ratio.  Rule learning itself lives in the Log Agent
(``repro.core.diagnosis.agents``), which mines templates and promotes the
high-support ones here.

Rules can be serialized so that "repetitive or similar tasks" reuse an
existing rule set instead of re-learning it (§6.1).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

_VOCABULARY = (
    r"(error|exception|traceback|fatal|killed|abort|assert|xid|cancelled"
    r"|timeout|heartbeat|notready|refused|denied|corrupt|failure|failed"
    r"|no space left|quota exceeded)")
#: Error evidence must never be filtered, whatever the rules say.
_PROTECTED = re.compile(_VOCABULARY, re.IGNORECASE)
_PROTECTED_LOWER = re.compile(_VOCABULARY)


def is_protected(line: str) -> bool:
    """Whether ``line`` holds error vocabulary (``_PROTECTED``).

    An ASCII line is lowercased and searched case-sensitively, about ten
    times faster than the ``IGNORECASE`` search.  Any other line keeps
    that search, because it and ``str.lower`` disagree on letters such
    as ``İ``, ``ı`` and ``ſ`` (``"Kılled"`` is protected).
    """
    if line.isascii():
        return _PROTECTED_LOWER.search(line.lower()) is not None
    return _PROTECTED.search(line) is not None


class FilterRules:
    """An ordered set of compiled filter regexes."""

    def __init__(self, patterns: list[str] | None = None) -> None:
        self._patterns: list[str] = []
        self._compiled: list[re.Pattern] = []
        for pattern in patterns or []:
            self.add(pattern)

    def add(self, pattern: str) -> bool:
        """Add a pattern; returns False if it was already present."""
        if pattern in self._patterns:
            return False
        compiled = re.compile(pattern)
        self._patterns.append(pattern)
        self._compiled.append(compiled)
        return True

    def matches(self, line: str) -> bool:
        """Whether any rule matches ``line``.

        :meth:`LogCompressor.compress` keeps protected lines before it
        asks, so no rule can filter error evidence.
        """
        return any(regex.search(line) for regex in self._compiled)

    def __len__(self) -> int:
        return len(self._patterns)

    def __contains__(self, pattern: str) -> bool:
        return pattern in self._patterns

    @property
    def patterns(self) -> list[str]:
        return list(self._patterns)

    # -- persistence (rule reuse across similar tasks, §6.1) --------------

    def save(self, path: str | Path) -> None:
        """Persist the rule set as JSON."""
        Path(path).write_text(json.dumps(self._patterns, indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "FilterRules":
        """Load a rule set saved with :meth:`save`."""
        return cls(json.loads(Path(path).read_text()))


@dataclass
class CompressionResult:
    """Outcome of compressing one log."""

    kept_lines: list[str]
    total_lines: int
    filtered_lines: int
    input_bytes: int
    output_bytes: int
    error_lines: list[str] = field(default_factory=list)

    @property
    def compression_ratio(self) -> float:
        """input size / output size (higher is better)."""
        if self.output_bytes == 0:
            return float("inf")
        return self.input_bytes / self.output_bytes

    @property
    def filtered_fraction(self) -> float:
        if self.total_lines == 0:
            return 0.0
        return self.filtered_lines / self.total_lines


class LogCompressor:
    """Applies filter rules to a log and extracts error candidates."""

    def __init__(self, rules: FilterRules | None = None) -> None:
        self.rules = rules or FilterRules()

    def compress(self, lines: list[str]) -> CompressionResult:
        """Filter routine lines; returns kept lines and error evidence."""
        kept: list[str] = []
        errors: list[str] = []
        input_bytes = 0
        for line in lines:
            input_bytes += len(line) + 1
            if is_protected(line):
                errors.append(line)
            elif self.rules.matches(line):
                continue
            kept.append(line)
        output_bytes = sum(len(line) + 1 for line in kept)
        return CompressionResult(
            kept_lines=kept,
            total_lines=len(lines),
            filtered_lines=len(lines) - len(kept),
            input_bytes=input_bytes,
            output_bytes=output_bytes,
            error_lines=errors,
        )

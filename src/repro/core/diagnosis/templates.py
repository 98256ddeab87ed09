"""Log template mining (the Log Agent's pattern discovery).

A lightweight Drain-style miner: lines are tokenized, variable tokens
(numbers, hex ids, paths, percentages, timestamps) are masked to ``<*>``,
and lines sharing a masked skeleton form a template.  Templates with high
support are "fixed patterns" — exactly what the paper's Log Agent turns
into filter rules for compression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_TIMESTAMP = re.compile(
    r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}[,.]\d+")
_VARIABLE_TOKEN = re.compile(
    r"^("
    r"[-+]?\d+(\.\d+)?([eE][-+]?\d+)?%?"   # numbers / scientific / percent
    r"|0x[0-9a-fA-F]+"                      # hex
    r"|[0-9a-fA-F]{8,}"                     # long hex-ish ids
    r"|/[^\s]*"                             # absolute paths
    r"|[a-zA-Z_]+=\S*"                      # key=value pairs
    r"|\d+:\d+(:\d+)?"                      # times
    r")$")


def mask_line(line: str) -> str:
    """Replace variable tokens with ``<*>``; strip leading timestamps."""
    line = _TIMESTAMP.sub("<ts>", line.strip())
    tokens = line.split()
    masked = ["<*>" if _VARIABLE_TOKEN.match(token) else token
              for token in tokens]
    return " ".join(masked)


def template_to_regex(template: str) -> str:
    """Turn a masked template into an anchored matching regex."""
    parts = []
    for token in template.split():
        if token == "<*>":
            parts.append(r"\S+")
        elif token == "<ts>":
            parts.append(r"\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}[,.]\d+")
        else:
            parts.append(re.escape(token))
    return r"\s+".join(parts)


@dataclass
class LogTemplate:
    """One mined template with its support count."""

    masked: str
    count: int = 0
    examples: list[str] = field(default_factory=list)

    @property
    def regex(self) -> str:
        return template_to_regex(self.masked)


class TemplateMiner:
    """Accumulates lines and exposes high-support templates."""

    def __init__(self, max_examples: int = 3) -> None:
        self._templates: dict[str, LogTemplate] = {}
        self.max_examples = max_examples
        self.lines_seen = 0

    def add_line(self, line: str) -> LogTemplate:
        """Mask a line and fold it into its template."""
        self.lines_seen += 1
        masked = mask_line(line)
        template = self._templates.get(masked)
        if template is None:
            template = LogTemplate(masked=masked)
            self._templates[masked] = template
        template.count += 1
        if len(template.examples) < self.max_examples:
            template.examples.append(line)
        return template

    def add_lines(self, lines: list[str]) -> None:
        """Feed many lines through :meth:`add_line`."""
        for line in lines:
            self.add_line(line)

    def templates(self, min_support: int = 1) -> list[LogTemplate]:
        """Templates sorted by support, highest first."""
        found = [t for t in self._templates.values()
                 if t.count >= min_support]
        return sorted(found, key=lambda t: -t.count)

    def routine_templates(self, min_support: int = 5,
                          min_fraction: float = 0.0) -> list[LogTemplate]:
        """Templates frequent enough to be routine output.

        ``min_fraction`` additionally requires the template to cover that
        share of all lines seen — guards against promoting a repeated
        error line to a filter rule on small logs.
        """
        threshold = max(min_support, int(min_fraction * self.lines_seen))
        return self.templates(min_support=threshold)

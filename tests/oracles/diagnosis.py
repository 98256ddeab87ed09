"""Reference diagnosis bodies: the error vocabulary searched with
``IGNORECASE`` up to four times per line, two filter passes per log,
every routine template re-proposed and every evidence list re-scored.

``compress`` and ``observe_segment`` are the Log Agent's compression
and ``score`` is ``TemplateLLM._score`` as they were before a diagnosis
read each log line once.  ``observe_segment`` runs the filter rules
over its segment to find the error lines, and ``score`` tests each of a
reason's regexes in turn.  Production must give the same error lines,
filter rules, compression and scores for any log.
"""

from __future__ import annotations

import re

from repro.core.diagnosis.agents import LogAgent
from repro.core.diagnosis.compression import (_PROTECTED, CompressionResult,
                                              FilterRules, LogCompressor)
from repro.core.diagnosis.llm import (_DEFAULT_SPECIFICITY, _SPECIFICITY,
                                      TemplateLLM, _keyword_patterns)

#: each reason's regexes, compiled one by one
_REASON_PATTERNS = {reason: [re.compile(source) for source in sources]
                    for reason, sources in _keyword_patterns().items()}


def _filtered(rules: FilterRules, line: str) -> bool:
    """Whether a (non-protected) line is filtered by any rule."""
    if _PROTECTED.search(line):
        return False
    return any(regex.search(line) for regex in rules._compiled)


def compress(compressor: LogCompressor,
             lines: list[str]) -> CompressionResult:
    """Filter routine lines; returns kept lines and error evidence."""
    kept: list[str] = []
    errors: list[str] = []
    input_bytes = 0
    for line in lines:
        input_bytes += len(line) + 1
        if _filtered(compressor.rules, line):
            continue
        kept.append(line)
        if _PROTECTED.search(line):
            errors.append(line)
    output_bytes = sum(len(line) + 1 for line in kept)
    return CompressionResult(
        kept_lines=kept,
        total_lines=len(lines),
        filtered_lines=len(lines) - len(kept),
        input_bytes=input_bytes,
        output_bytes=output_bytes,
        error_lines=errors,
    )


def observe_segment(agent: LogAgent, lines: list[str]) -> list[str]:
    """Mine the segment, propose every routine template, then compress
    the segment with the rules to find its error lines."""
    agent.miner.add_lines(lines)
    for template in agent.miner.routine_templates(agent.min_support):
        if re.search(r"(?i)(error|exception|traceback|fatal|killed)",
                     template.masked):
            continue
        pattern = agent.llm.propose_filter_regex(template.masked)
        if agent.rules.add(pattern):
            agent.rules_written += 1
    with agent.tracer.span("diagnosis:compress", "diagnosis"):
        return compress(LogCompressor(agent.rules), lines).error_lines


def score(llm: TemplateLLM, error_lines: list[str]) -> dict[str, float]:
    """Score every line against every regex of every reason."""
    scores: dict[str, float] = {}
    n = max(len(error_lines), 1)
    for index, line in enumerate(error_lines):
        recency = 0.5 + 1.5 * (index + 1) / n  # later lines weigh more
        for reason, patterns in _REASON_PATTERNS.items():
            if any(p.search(line) for p in patterns):
                weight = _SPECIFICITY.get(reason, _DEFAULT_SPECIFICITY)
                scores[reason] = (scores.get(reason, 0.0)
                                  + weight * recency)
    return scores

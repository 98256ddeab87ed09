"""The diagnosis LLM interface and its offline stand-in.

The paper uses GPT-4 behind the Failure Agent.  Offline, we provide
:class:`TemplateLLM`: a deterministic classifier that scores the error
lines of a compressed log against the known failure signatures, weighting
by *specificity* (an Xid/NVLink line is stronger evidence than a generic
``RuntimeError``) and *recency* (root causes appear in the final error
blocks of a cascade).  It exposes the same ``LLMClient`` interface, so a
real model can be dropped in.

The stand-in is intentionally imperfect under sampling temperature —
self-consistency voting (§6.1) exists precisely because single LLM calls
are noisy, and the tests exercise that machinery.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.failures.logs import REASON_SIGNATURES
from repro.failures.taxonomy import FailureCategory, taxonomy_by_reason


@dataclass(frozen=True)
class LLMVerdict:
    """A structured diagnosis answer."""

    reason: str
    category: FailureCategory
    confidence: float
    mitigation: str

    @property
    def recoverable(self) -> bool:
        return self.category is not FailureCategory.SCRIPT


class LLMClient(Protocol):
    """Anything that can turn error lines into a verdict."""

    def classify_error(self, error_lines: list[str]) -> LLMVerdict:
        """Score the evidence against known signatures; returns a verdict."""
        ...


#: Evidence weight per reason — hardware signatures are near-unambiguous,
#: generic Python exceptions are weak (they appear in every cascade).
_SPECIFICITY: dict[str, float] = {
    "NVLinkError": 10.0,
    "ECCError": 10.0,
    "NodeFailure": 9.0,
    "CUDAError": 8.0,
    "DataloaderKilled": 8.0,
    "OutOfMemoryError": 8.0,
    "NetworkError": 7.0,
    "S3StorageError": 7.0,
    "NCCLRemoteError": 6.0,
    "ModelLoadingError": 6.0,
    "DatasetLoadingError": 6.0,
    "NCCLTimeoutError": 4.0,
    "ConnectionError": 3.0,
    "RuntimeError": 1.5,
}
_DEFAULT_SPECIFICITY = 5.0

_MITIGATIONS: dict[FailureCategory, str] = {
    FailureCategory.INFRASTRUCTURE: (
        "Run the hardware detection toolkit (two-round NCCL test), cordon "
        "faulty nodes, and restart from the latest checkpoint."),
    FailureCategory.FRAMEWORK: (
        "Inspect the training configuration (shapes, dtypes, memory "
        "budget); fix and resubmit — usually reproducible at step 0."),
    FailureCategory.SCRIPT: (
        "User-code error: fix the script/paths/arguments and resubmit; "
        "automatic restart would fail identically."),
}


def _keyword_patterns() -> dict[str, list[str]]:
    """Per-reason regexes derived from the known signature corpus."""
    patterns: dict[str, list[str]] = {}
    for reason, signatures in REASON_SIGNATURES.items():
        sources = []
        for signature in signatures:
            # Match on the distinctive head of the signature, not exact
            # payloads (addresses, paths and ranks vary).
            head = re.escape(signature[:48])
            sources.append(re.sub(r"\d+", r"\\d+", head))
        # Also match the bare exception name when it leads a line.
        sources.append(rf"(?:^|\s){re.escape(reason)}\b")
        patterns[reason] = sources
    return patterns


class TemplateLLM:
    """Deterministic signature-scoring classifier behind ``LLMClient``.

    ``temperature`` adds Gumbel noise to scores — at 0 the argmax is
    deterministic; above 0 occasional wrong answers emerge, which the
    self-consistency voter is designed to absorb.
    """

    def __init__(self, temperature: float = 0.0, seed: int = 0) -> None:
        if temperature < 0:
            raise ValueError("temperature must be non-negative")
        self.temperature = temperature
        self.rng = np.random.default_rng(seed)
        #: one alternation per reason: a line is evidence for a reason
        #: when any of that reason's regexes matches it
        self._patterns = {
            reason: re.compile("|".join(f"(?:{source})"
                                        for source in sources))
            for reason, sources in _keyword_patterns().items()}
        self._taxonomy = taxonomy_by_reason()
        self.calls = 0
        #: the evidence last scored and its scores; self-consistency
        #: samples and the final verdict all score the same lines
        self._scored: tuple[tuple[str, ...], dict[str, float]] = ((), {})

    def _score(self, error_lines: list[str]) -> dict[str, float]:
        evidence = tuple(error_lines)
        if evidence == self._scored[0]:
            return self._scored[1]
        scores: dict[str, float] = {}
        n = max(len(error_lines), 1)
        for index, line in enumerate(error_lines):
            recency = 0.5 + 1.5 * (index + 1) / n  # later lines weigh more
            for reason, pattern in self._patterns.items():
                if pattern.search(line):
                    weight = _SPECIFICITY.get(reason, _DEFAULT_SPECIFICITY)
                    scores[reason] = (scores.get(reason, 0.0)
                                      + weight * recency)
        self._scored = (evidence, scores)
        return scores

    def classify_error(self, error_lines: list[str]) -> LLMVerdict:
        """Score the evidence against known signatures; returns a verdict."""
        self.calls += 1
        scores = self._score(error_lines)
        if not scores:
            return LLMVerdict(
                reason="Unknown",
                category=FailureCategory.FRAMEWORK,
                confidence=0.0,
                mitigation="No known signature found; escalate to a human.")
        if self.temperature > 0:
            noisy = {reason: score + self.temperature
                     * float(self.rng.gumbel())
                     for reason, score in scores.items()}
        else:
            noisy = scores
        best = max(noisy, key=lambda r: (noisy[r], r))
        total = sum(scores.values())
        spec = self._taxonomy.get(best)
        category = (spec.category if spec else FailureCategory.FRAMEWORK)
        return LLMVerdict(
            reason=best,
            category=category,
            confidence=scores.get(best, 0.0) / total if total else 0.0,
            mitigation=_MITIGATIONS[category],
        )

    # -- the Log Agent also asks the LLM to write filter regexes ------------

    def propose_filter_regex(self, template_masked: str) -> str:
        """Write a filter regex for a mined routine-output template."""
        from repro.core.diagnosis.templates import template_to_regex

        return template_to_regex(template_masked)

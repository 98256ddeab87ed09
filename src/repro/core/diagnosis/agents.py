"""The Log Agent, the Failure Agent, and the assembled diagnosis system.

Mirrors Fig. 15:

* :class:`LogAgent` watches raw log segments, mines templates for routine
  output, asks the LLM to write filter regexes for them, updates the
  shared :class:`FilterRules`, and forwards error lines onward.
* :class:`FailureAgent` takes the compressed error evidence; tries the
  rule base; on a miss embeds the evidence, retrieves similar past
  incidents from the vector store, queries the LLM with self-consistency
  voting, and writes the resolved signature back as a new rule.
* :class:`DiagnosisSystem` wires both together behind one
  ``diagnose(log_lines)`` call and tracks how often each path fired —
  the basis of the paper's "~90% less manual intervention" claim.

Every stage reads its tracer through the ``tracer=None →``
:data:`~repro.obs.NULL_TRACER` seam, so a traced chaos run shows where
diagnosis time goes (compression, rule match, retrieval, voting) while
untraced runs pay nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.diagnosis.compression import (CompressionResult,
                                              FilterRules, LogCompressor,
                                              is_protected)
from repro.core.diagnosis.llm import LLMClient, LLMVerdict, TemplateLLM
from repro.core.diagnosis.rules import DiagnosisRule, RuleBasedDiagnoser
from repro.core.diagnosis.self_consistency import sample_and_vote
from repro.core.diagnosis.templates import TemplateMiner
from repro.core.diagnosis.vector_store import VectorStore
from repro.failures.taxonomy import FailureCategory, taxonomy_by_reason
from repro.obs import NULL_TRACER, TracerLike

_MITIGATION_FALLBACK = "Escalate to the operations team for manual triage."


@dataclass(frozen=True)
class Diagnosis:
    """The system's answer for one failed job."""

    reason: str
    category: FailureCategory
    recoverable: bool
    mitigation: str
    #: which path produced it: "rules", "agent", or "unknown"
    path: str
    confidence: float
    compression: CompressionResult


class LogAgent:
    """Learns filter rules from streaming log segments."""

    def __init__(self, rules: FilterRules, llm: TemplateLLM | None = None,
                 min_support: int = 5,
                 tracer: TracerLike | None = None) -> None:
        self.rules = rules
        self.llm = llm or TemplateLLM()
        self.miner = TemplateMiner()
        self.min_support = min_support
        self.rules_written = 0
        self.tracer = tracer or NULL_TRACER
        #: routine templates already proposed; ``FilterRules`` never
        #: drops a rule, so proposing one again could add nothing
        self._proposed: set[str] = set()

    def observe_segment(self, lines: list[str]) -> list[str]:
        """Consume a raw segment; returns the error lines found in it.

        Mines templates from the segment and promotes routine ones (high
        support, no error vocabulary) to filter rules via the LLM.  The
        error lines are the protected ones, which no filter rule drops.
        """
        self.miner.add_lines(lines)
        for template in self.miner.routine_templates(self.min_support):
            if template.masked in self._proposed:
                continue
            self._proposed.add(template.masked)
            if re.search(r"(?i)(error|exception|traceback|fatal|killed)",
                         template.masked):
                continue
            pattern = self.llm.propose_filter_regex(template.masked)
            if self.rules.add(pattern):
                self.rules_written += 1
        with self.tracer.span("diagnosis:compress", "diagnosis"):
            return [line for line in lines if is_protected(line)]


class FailureAgent:
    """Root-cause identification over compressed evidence."""

    def __init__(self, diagnoser: RuleBasedDiagnoser | None = None,
                 llm: LLMClient | None = None,
                 store: VectorStore | None = None,
                 consistency_samples: int = 3,
                 tracer: TracerLike | None = None) -> None:
        self.diagnoser = diagnoser or RuleBasedDiagnoser()
        self.llm = llm or TemplateLLM()
        self.store = store or VectorStore()
        self.consistency_samples = consistency_samples
        self._taxonomy = taxonomy_by_reason()
        self.tracer = tracer or NULL_TRACER

    def diagnose(self, error_lines: list[str],
                 compression: CompressionResult) -> Diagnosis:
        """Identify the root cause of the given error evidence."""
        if not error_lines:
            self.tracer.count("diagnosis.unknown")
            return Diagnosis(
                reason="Unknown", category=FailureCategory.FRAMEWORK,
                recoverable=False, mitigation=_MITIGATION_FALLBACK,
                path="unknown", confidence=0.0, compression=compression)

        with self.tracer.span("diagnosis:rules", "diagnosis"):
            matched = self.diagnoser.diagnose(error_lines)
        if matched is not None:
            self.tracer.count("diagnosis.rule_hits")
            category = self.diagnoser.category_of(matched)
            return Diagnosis(
                reason=matched, category=category,
                recoverable=category is not FailureCategory.SCRIPT,
                mitigation=self._mitigation(category),
                path="rules", confidence=1.0, compression=compression)

        # LLM path: vote over the evidence; retrieval from the incident
        # store only breaks low-confidence verdicts (a high-similarity
        # past incident of known cause outranks a weak guess).
        distinctive = [line for line in error_lines
                       if not self._GENERIC.search(line)]
        evidence_text = "\n".join(distinctive or error_lines)

        def one_sample() -> str:
            return self.llm.classify_error(error_lines).reason

        with self.tracer.span("diagnosis:vote", "diagnosis"):
            reason, agreement = sample_and_vote(one_sample,
                                                self.consistency_samples)
            verdict = self._verdict_for(reason, error_lines)
        if verdict.confidence < 0.3:
            with self.tracer.span("diagnosis:retrieve", "diagnosis"):
                hits = self.store.query(evidence_text, top_k=1)
            if hits and hits[0].similarity > 0.85:
                past_reason = hits[0].document.metadata.get("reason")
                if past_reason and past_reason != "Unknown":
                    verdict = self._verdict_for(past_reason, error_lines)
        self.tracer.count("diagnosis.agent_path")
        doc_id = f"incident-{len(self.store):06d}"
        self.store.add(doc_id, evidence_text, {"reason": verdict.reason})
        self._learn_rule(error_lines, verdict.reason)
        return Diagnosis(
            reason=verdict.reason, category=verdict.category,
            recoverable=verdict.recoverable,
            mitigation=verdict.mitigation, path="agent",
            confidence=verdict.confidence * agreement,
            compression=compression)

    def _verdict_for(self, reason: str,
                     context_lines: list[str]) -> LLMVerdict:
        verdict = self.llm.classify_error(context_lines)
        if verdict.reason == reason:
            return verdict
        # The vote disagreed with this sample; rebuild the verdict around
        # the voted reason.
        spec = self._taxonomy.get(reason)
        category = spec.category if spec else FailureCategory.FRAMEWORK
        return LLMVerdict(reason=reason, category=category,
                          confidence=verdict.confidence,
                          mitigation=self._mitigation(category))

    #: lines too generic to ever become a rule — they appear in every
    #: cascade regardless of the root cause
    _GENERIC = re.compile(
        r"(Traceback \(most recent call last\)|caught exception"
        r"|^\s*File \"|^\s{2,})")

    def _learn_rule(self, error_lines: list[str], reason: str) -> None:
        """Write the resolved incident back as a regex rule (Fig. 15).

        Learning is conservative: the rule anchors on a line that names
        the diagnosed reason (or matches the LLM's signature corpus for
        it); generic cascade lines are never promoted — an over-broad
        learned rule would misroute every later diagnosis.
        """
        if reason == "Unknown":
            return
        signature = None
        reason_pattern = getattr(self.llm, "_patterns", {}).get(reason)
        for line in reversed(error_lines):
            if self._GENERIC.search(line):
                continue
            if (reason.lower() in line.lower()
                    or (reason_pattern is not None
                        and reason_pattern.search(line))):
                signature = line
                break
        if signature is None:
            return  # nothing distinctive to anchor on; do not learn
        # Generalize digits/hex payloads, then anchor on the stable text.
        pattern = re.escape(signature.strip()[:120])
        pattern = re.sub(r"\\?\d+", r"\\d+", pattern)
        try:
            self.diagnoser.add_rule(DiagnosisRule(pattern=pattern,
                                                  reason=reason,
                                                  priority=5))
        except re.error:
            pass  # never let a bad learned rule break diagnosis

    @staticmethod
    def _mitigation(category: FailureCategory) -> str:
        from repro.core.diagnosis.llm import _MITIGATIONS

        return _MITIGATIONS[category]


@dataclass
class DiagnosisStats:
    """Where diagnoses came from — the manual-intervention accounting."""

    total: int = 0
    via_rules: int = 0
    via_agent: int = 0
    unknown: int = 0

    @property
    def automated_fraction(self) -> float:
        if self.total == 0:
            return 0.0
        return (self.via_rules + self.via_agent) / self.total


class DiagnosisSystem:
    """The full Fig. 15 pipeline behind one call."""

    def __init__(self, llm: TemplateLLM | None = None,
                 consistency_samples: int = 3,
                 segment_lines: int = 500,
                 tracer: TracerLike | None = None) -> None:
        llm = llm or TemplateLLM()
        self.tracer = tracer or NULL_TRACER
        self.filter_rules = FilterRules()
        self.log_agent = LogAgent(self.filter_rules, llm,
                                  tracer=self.tracer)
        self.failure_agent = FailureAgent(llm=llm,
                                          consistency_samples=(
                                              consistency_samples),
                                          tracer=self.tracer)
        self.segment_lines = segment_lines
        self.stats = DiagnosisStats()

    def diagnose(self, log_lines: list[str]) -> Diagnosis:
        """Compress a raw job log and identify the failure root cause."""
        error_lines: list[str] = []
        for start in range(0, len(log_lines), self.segment_lines):
            segment = log_lines[start:start + self.segment_lines]
            error_lines.extend(self.log_agent.observe_segment(segment))
        with self.tracer.span("diagnosis:compress", "diagnosis"):
            compression = LogCompressor(
                self.filter_rules).compress(log_lines)
        diagnosis = self.failure_agent.diagnose(error_lines, compression)
        self.stats.total += 1
        if diagnosis.path == "rules":
            self.stats.via_rules += 1
        elif diagnosis.path == "agent":
            self.stats.via_agent += 1
        else:
            self.stats.unknown += 1
        return diagnosis

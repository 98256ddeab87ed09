"""Differential tests: the diagnosis pipeline against its oracles.

A diagnosis reads each log line once per pass: one error-vocabulary
test (``is_protected``), one filter pass per log, each routine template
proposed once and each evidence list scored once.  The bodies that
searched with ``IGNORECASE`` up to four times per line, filtered every
log twice, re-proposed every template and re-scored on every LLM call
are kept in ``tests/oracles/diagnosis.py``.  This file diffs the
vocabulary test against the regex over arbitrary Unicode lines, and
runs production and oracle side by side over generated, degraded logs,
comparing everything a diagnosis leaves behind after every log.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diagnosis import (DiagnosisSystem, FilterRules, LogAgent,
                                  RuleBasedDiagnoser, TemplateLLM)
from repro.core.diagnosis.compression import (_PROTECTED, _VOCABULARY,
                                              is_protected)
from repro.failures.logs import REASON_SIGNATURES, LogGenerator, make_messy

from .oracles import diagnosis as oracle
from .oracles import substitute

WORDS = _VOCABULARY.strip("()").split("|")
#: per letter, the spellings case-insensitive matching may accept;
#: ``İ``, ``ı``, ``ſ`` and the Kelvin sign are where it and
#: ``str.lower`` disagree
SPELLINGS = {"i": "iI\u0130\u0131", "s": "sS\u017f", "k": "kK\u212a"}
#: other characters a multi-rank capture leaves in a line
DEBRIS = ["\ufffd", "\x1b[31m", "\x1b[0m", "\u00e9", "[rank 7]: "]


@st.composite
def vocabulary_word(draw: st.DrawFn) -> str:
    word = draw(st.sampled_from(WORDS))
    return "".join(draw(st.sampled_from(SPELLINGS.get(c, c + c.upper())))
                   for c in word)


LINES = st.lists(st.one_of(st.text(max_size=16), st.sampled_from(DEBRIS),
                           vocabulary_word()),
                 max_size=6).map("".join)


@pytest.mark.parametrize("line", [
    "KİLLED", "Kılled", "aſſert", "KILLED", "ERROR",
    "\x1b[31mRuntimeError: boom\x1b[0m", "\ufffd\ufffd S3 GET timed out",
    "[rank 7]: température élevée", "step=120 loss=2.3456",
])
def test_vocabulary_test_on_known_lines(line):
    assert is_protected(line) == bool(_PROTECTED.search(line))


@settings(max_examples=500, deadline=None)
@given(LINES)
def test_vocabulary_test_equals_ignorecase_search(line):
    assert is_protected(line) == bool(_PROTECTED.search(line))


#: reasons the seed rules catch, and reasons only the LLM finds the
#: first time (it then learns a rule); the NodeFailure, S3, timeout and
#: refused signatures carry vocabulary that a filter rule may match
REASONS = ["CUDAError", "ImportError", "NodeFailure", "KeyError",
           "S3StorageError", "NCCLTimeoutError", "ConnectionError",
           "OSError"]
#: non-ASCII lines: error vocabulary only through Unicode case folding,
#: and none at all
UNICODE_LINES = ["[rank 9]: KİLLED by the OOM reaper",
                 "[rank 7]: température élevée"]
#: routine output with error vocabulary: the Log Agent writes a filter
#: rule for it, and no rule may drop it from the evidence
ROUTINE_EVIDENCE = "INFO [dist] NCCL watchdog timeout set to 1800000 ms"


def failed_log(generator: LogGenerator, reason: str, index: int,
               messy: bool = True) -> list[str]:
    """A failed log, every third one longer than a 500-line segment,
    degraded like a multi-rank capture and given two non-ASCII lines."""
    log = generator.failed_log(reason, n_steps=600 if index % 3 == 0
                               else 40)
    lines = list(make_messy(log, seed=index).lines if messy
                 else log.lines)
    for offset, line in enumerate(UNICODE_LINES, start=1):
        lines.insert(offset * len(lines) // 3, line)
    lines.insert(5, ROUTINE_EVIDENCE)
    return lines


def oracle_diagnose(system: DiagnosisSystem, lines: list[str]):
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = substitute(monkeypatch)
        diagnosis = system.diagnose(lines)
    assert calls["LogAgent.observe_segment"] == math.ceil(len(lines) / 500)
    assert calls["LogCompressor.compress"] == 1
    return diagnosis


def left_behind(system: DiagnosisSystem) -> dict:
    """Everything a diagnosis can change in the system."""
    agent = system.failure_agent
    return {
        "filter_rules": system.filter_rules.patterns,
        "rules_written": system.log_agent.rules_written,
        "learned_rules": list(agent.diagnoser.rules),
        "incidents": list(agent.store._documents),
        "llm_calls": agent.llm.calls,
        "llm_rng": agent.llm.rng.bit_generator.state,
        "stats": system.stats,
    }


@pytest.mark.parametrize("temperature", [0.0, 3.0])
def test_systems_agree_after_every_log(temperature):
    production = DiagnosisSystem(llm=TemplateLLM(temperature, seed=5))
    reference = DiagnosisSystem(llm=TemplateLLM(temperature, seed=5))
    generator = LogGenerator(seed=17)
    paths: Counter[str] = Counter()
    for index, reason in enumerate(REASONS * 3):
        lines = failed_log(generator, reason, index, messy=index % 2 == 0)
        expected = oracle_diagnose(reference, lines)
        assert production.diagnose(lines) == expected, (index, reason)
        assert left_behind(production) == left_behind(reference), index
        paths[expected.path] += 1
    assert paths["rules"] and paths["agent"]


def test_log_agent_matches_oracle_segment_by_segment():
    production = LogAgent(FilterRules())
    reference = LogAgent(FilterRules())
    generator = LogGenerator(seed=23)
    for index, reason in enumerate(REASONS * 2):
        lines = failed_log(generator, reason, index, messy=index % 2 == 0)
        for start in range(0, len(lines), 500):
            segment = lines[start:start + 500]
            assert (production.observe_segment(segment)
                    == oracle.observe_segment(reference, segment))
            assert production.rules.patterns == reference.rules.patterns
            assert production.rules_written == reference.rules_written
    assert production.rules.matches(ROUTINE_EVIDENCE)


def test_observe_segment_returns_protected_lines_a_rule_matches():
    agent = LogAgent(FilterRules([r"heartbeat", r"step=\d+", r"KİLLED"]))
    lines = ["step=1 loss=2.0",
             "kubelet: node controller lost heartbeat, marking NotReady",
             UNICODE_LINES[0]]
    assert agent.observe_segment(lines) == lines[1:]


def test_scores_follow_the_evidence():
    """Scores come from the list asked about, whatever was asked last."""
    llm = TemplateLLM()
    header = "Traceback (most recent call last):"
    evidence = [[header, signature]
                for signatures in REASON_SIGNATURES.values()
                for signature in signatures]
    for lines in evidence + evidence[::-1] + [[]]:
        assert llm._score(lines) == oracle.score(llm, lines)


class CountingPattern:
    def __init__(self, pattern) -> None:
        self.pattern = pattern
        self.searches = 0

    def search(self, line: str):
        self.searches += 1
        return self.pattern.search(line)


def test_each_line_is_filtered_once_and_the_evidence_scored_once(
        monkeypatch):
    system = DiagnosisSystem()
    system.failure_agent.diagnoser = RuleBasedDiagnoser(rules=[])
    llm = system.failure_agent.llm
    llm._patterns = {reason: CountingPattern(pattern)
                     for reason, pattern in llm._patterns.items()}
    asked: list[str] = []
    matches = FilterRules.matches

    def counted(rules, line):
        asked.append(line)
        return matches(rules, line)

    monkeypatch.setattr(FilterRules, "matches", counted)
    lines = LogGenerator(seed=4).failed_log("ECCError", n_steps=600).lines
    diagnosis = system.diagnose(lines)
    assert diagnosis.path == "agent" and diagnosis.reason == "ECCError"
    evidence = diagnosis.compression.error_lines
    # the rules are asked once about each line that is not evidence
    assert len(asked) == len(lines) - len(evidence)
    assert not set(asked) & set(evidence)
    # one search per evidence line and reason, for three votes and the
    # verdict; learning the rule afterwards also asks the winner's
    searches = {reason: pattern.searches
                for reason, pattern in llm._patterns.items()
                if reason != diagnosis.reason}
    assert set(searches.values()) == {len(evidence)}

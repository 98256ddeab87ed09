"""LLM-assisted failure diagnosis (§6.1, design 2).

Pipeline (Fig. 15):

1. **Real-time log compression** — a template miner learns the fixed
   patterns of routine output (metric records, init banners); learned
   *filter rules* strip them, shrinking hundreds of MB to the error lines.
2. **Rule-based diagnosis** — an ordered regex rule set built from past
   incidents; cheap and first in line.
3. **LLM-assisted diagnosis** — when rules miss, the compressed log is
   embedded into a vector store; the Failure Agent retrieves similar past
   incidents and asks the LLM for the root cause, with self-consistency
   voting.  Each resolved failure is written back as a new regex rule, so
   the rule base grows over time.

GPT-4 is not available offline; :class:`~repro.core.diagnosis.llm.TemplateLLM`
is a deterministic stand-in behind the same :class:`LLMClient` interface
(see DESIGN.md's substitution table).
"""

from repro.core.diagnosis.templates import TemplateMiner, LogTemplate
from repro.core.diagnosis.compression import (FilterRules, LogCompressor,
                                              CompressionResult)
from repro.core.diagnosis.llm import LLMClient, TemplateLLM, LLMVerdict
from repro.core.diagnosis.vector_store import VectorStore, embed_text
from repro.core.diagnosis.rules import RuleBasedDiagnoser, DiagnosisRule
from repro.core.diagnosis.agents import (LogAgent, FailureAgent,
                                         DiagnosisSystem, Diagnosis)
from repro.core.diagnosis.self_consistency import majority_vote

__all__ = [
    "TemplateMiner",
    "LogTemplate",
    "FilterRules",
    "LogCompressor",
    "CompressionResult",
    "LLMClient",
    "TemplateLLM",
    "LLMVerdict",
    "VectorStore",
    "embed_text",
    "RuleBasedDiagnoser",
    "DiagnosisRule",
    "LogAgent",
    "FailureAgent",
    "DiagnosisSystem",
    "Diagnosis",
    "majority_vote",
]

"""Tests for the failure-diagnosis pipeline (§6.1, design 2)."""

import re

import pytest

from repro.core.diagnosis import (DiagnosisSystem, FilterRules, LogAgent,
                                  LogCompressor, RuleBasedDiagnoser,
                                  TemplateLLM, TemplateMiner, VectorStore,
                                  embed_text, majority_vote)
from repro.core.diagnosis.rules import DiagnosisRule
from repro.core.diagnosis.self_consistency import sample_and_vote
from repro.core.diagnosis.templates import mask_line, template_to_regex
from repro.failures.logs import REASON_SIGNATURES, LogGenerator
from repro.failures.taxonomy import FailureCategory


class TestTemplates:
    def test_mask_replaces_numbers(self):
        masked = mask_line("step=120 loss=2.3456 lr=3.0e-05")
        assert masked == "<*> <*> <*>"

    def test_mask_strips_timestamps(self):
        masked = mask_line("2023-07-12 03:14:25,123 INFO [trainer] ready")
        assert masked.startswith("<ts>")

    def test_mask_preserves_words(self):
        masked = mask_line("loading model from /mnt/ckpt/7b done")
        assert "loading model from <*> done" == masked

    def test_miner_groups_similar_lines(self):
        miner = TemplateMiner()
        for step in range(20):
            miner.add_line(f"step={step} loss={2.0 + step * 0.01:.4f}")
        templates = miner.templates(min_support=10)
        assert len(templates) == 1
        assert templates[0].count == 20

    def test_routine_templates_require_support(self):
        miner = TemplateMiner()
        miner.add_line("one-off weird line alpha beta")
        assert miner.routine_templates(min_support=5) == []

    def test_template_regex_matches_originals(self):
        import re

        line = "step=5 loss=2.5000 tgs=510.1"
        regex = template_to_regex(mask_line(line))
        assert re.search(regex, "step=9999 loss=1.0001 tgs=3.3")


class TestCompression:
    def test_filter_rules_never_drop_error_lines(self):
        rules = FilterRules([r".*"])  # pathological catch-all rule
        compressor = LogCompressor(rules)
        result = compressor.compress([
            "routine metric line",
            "RuntimeError: boom",
        ])
        assert result.kept_lines == ["RuntimeError: boom"]

    def test_compression_ratio_reported(self):
        rules = FilterRules([r"step=\d+"])
        lines = [f"step={i} loss=2.0" for i in range(100)]
        lines.append("ERROR something broke")
        result = LogCompressor(rules).compress(lines)
        assert result.compression_ratio > 50
        assert result.filtered_fraction > 0.98

    def test_duplicate_rule_not_added(self):
        rules = FilterRules()
        assert rules.add(r"abc")
        assert not rules.add(r"abc")
        assert len(rules) == 1

    def test_rules_persistence(self, tmp_path):
        rules = FilterRules([r"step=\d+", r"INFO \[config\]"])
        path = tmp_path / "rules.json"
        rules.save(path)
        loaded = FilterRules.load(path)
        assert loaded.patterns == rules.patterns

    def test_error_lines_extracted(self):
        result = LogCompressor().compress([
            "normal line", "Traceback (most recent call last):",
            "ValueError: bad"])
        assert len(result.error_lines) == 2


class TestLogAgent:
    def test_agent_learns_filter_rules_from_volume(self):
        rules = FilterRules()
        agent = LogAgent(rules, min_support=5)
        log = LogGenerator(seed=1).healthy_log(n_steps=300)
        agent.observe_segment(log.lines)
        assert len(rules) > 0
        assert agent.rules_written == len(rules)

    def test_learned_rules_compress_similar_logs(self):
        """§6.1: rules from one job transfer to similar/resubmitted jobs."""
        rules = FilterRules()
        agent = LogAgent(rules, min_support=5)
        agent.observe_segment(
            LogGenerator(seed=2).healthy_log(n_steps=400).lines)
        fresh = LogGenerator(seed=3).healthy_log(n_steps=400)
        result = LogCompressor(rules).compress(fresh.lines)
        assert result.filtered_fraction > 0.8

    def test_agent_returns_error_lines(self):
        rules = FilterRules()
        agent = LogAgent(rules)
        log = LogGenerator(seed=4).failed_log("ValueError", n_steps=50)
        errors = agent.observe_segment(log.lines)
        assert any("ValueError" in line for line in errors)


#: corpus signatures whose 48-character matching head holds a rank, a
#: pid, an errno, a job id or a PCI address
NUMBERED_SIGNATURES = [
    pytest.param(reason, signature, id=f"{reason}-{index}")
    for reason, signatures in REASON_SIGNATURES.items()
    for index, signature in enumerate(signatures)
    if re.search(r"\d", signature[:48])]


class TestLLM:
    @pytest.mark.parametrize("reason,signature", NUMBERED_SIGNATURES)
    def test_signature_heads_generalize_their_digits(self, reason,
                                                     signature):
        shifted = re.sub(r"\d+", lambda run: str(int(run[0]) * 3 + 7),
                         signature)
        assert shifted != signature
        assert TemplateLLM().classify_error([shifted]).reason == reason

    def test_classifies_each_reason_from_its_signature(self):
        llm = TemplateLLM()
        for reason, signatures in REASON_SIGNATURES.items():
            verdict = llm.classify_error([signatures[0]])
            assert verdict.reason == reason, reason

    def test_cascade_root_cause_wins(self):
        """§6.1's motivating case: NCCL timeout + CUDA error cascade."""
        llm = TemplateLLM()
        lines = [
            REASON_SIGNATURES["NCCLTimeoutError"][0],
            REASON_SIGNATURES["RuntimeError"][0],
            REASON_SIGNATURES["CUDAError"][0],
        ]
        assert llm.classify_error(lines).reason == "CUDAError"

    def test_no_evidence_returns_unknown(self):
        verdict = TemplateLLM().classify_error(["nothing to see here"])
        assert verdict.reason == "Unknown"
        assert verdict.confidence == 0.0

    def test_temperature_zero_is_deterministic(self):
        llm = TemplateLLM(temperature=0.0)
        lines = [REASON_SIGNATURES["OSError"][0]]
        assert all(llm.classify_error(lines).reason == "OSError"
                   for _ in range(5))

    def test_high_temperature_adds_noise(self):
        llm = TemplateLLM(temperature=50.0, seed=1)
        lines = [REASON_SIGNATURES["NCCLTimeoutError"][0],
                 REASON_SIGNATURES["RuntimeError"][0]]
        answers = {llm.classify_error(lines).reason for _ in range(30)}
        assert len(answers) > 1

    def test_mitigation_matches_category(self):
        verdict = TemplateLLM().classify_error(
            [REASON_SIGNATURES["TypeError"][0]])
        assert verdict.category is FailureCategory.SCRIPT
        assert not verdict.recoverable


class TestVectorStore:
    def test_similar_text_retrieved_first(self):
        store = VectorStore()
        store.add("a", "CUDA error illegal memory access on rank 3", {})
        store.add("b", "FileNotFoundError missing dataset shard", {})
        hits = store.query("CUDA error: illegal memory access rank 99")
        assert hits[0].document.doc_id == "a"
        assert hits[0].similarity > hits[1].similarity

    def test_embedding_normalized(self):
        import numpy as np

        vector = embed_text("some log line with payloads 123")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_empty_store_returns_nothing(self):
        assert VectorStore().query("anything") == []

    def test_top_k_limits_results(self):
        store = VectorStore()
        for i in range(5):
            store.add(f"d{i}", f"document number {i}", {})
        assert len(store.query("document", top_k=2)) == 2

    def test_invalid_top_k(self):
        with pytest.raises(ValueError):
            VectorStore().query("x", top_k=0)


class TestRules:
    def test_seed_rules_catch_hardware_signatures(self):
        diagnoser = RuleBasedDiagnoser()
        assert diagnoser.diagnose(
            [REASON_SIGNATURES["NVLinkError"][0]]) == "NVLinkError"

    def test_priority_orders_rules(self):
        diagnoser = RuleBasedDiagnoser([])
        diagnoser.add_rule(DiagnosisRule(r"boom", "TypeError",
                                         priority=1))
        diagnoser.add_rule(DiagnosisRule(r"boom", "CUDAError",
                                         priority=9))
        assert diagnoser.diagnose(["boom"]) == "CUDAError"

    def test_later_lines_win_within_rule(self):
        diagnoser = RuleBasedDiagnoser([])
        diagnoser.add_rule(DiagnosisRule(r"error (\w+)", "RuntimeError",
                                         priority=1))
        assert diagnoser.diagnose(["error one", "error two"]) == \
            "RuntimeError"

    def test_miss_returns_none_and_counts(self):
        diagnoser = RuleBasedDiagnoser()
        assert diagnoser.diagnose(["quiet line"]) is None
        assert diagnoser.misses == 1

    def test_duplicate_rule_rejected(self):
        diagnoser = RuleBasedDiagnoser([])
        rule = DiagnosisRule(r"x", "KeyError")
        assert diagnoser.add_rule(rule)
        assert not diagnoser.add_rule(rule)

    def test_malformed_regex_raises(self):
        with pytest.raises(Exception):
            RuleBasedDiagnoser([]).add_rule(
                DiagnosisRule(r"([unclosed", "KeyError"))

    def test_persistence_round_trip(self, tmp_path):
        diagnoser = RuleBasedDiagnoser()
        diagnoser.add_rule(DiagnosisRule(r"custom", "OSError",
                                         priority=5))
        path = tmp_path / "rules.json"
        diagnoser.save(path)
        loaded = RuleBasedDiagnoser.load(path)
        assert loaded.diagnose(["custom failure"]) == "OSError"


class TestSelfConsistency:
    def test_majority_wins(self):
        answer, agreement = majority_vote(["a", "b", "a"])
        assert answer == "a"
        assert agreement == pytest.approx(2 / 3)

    def test_tie_breaks_to_first(self):
        answer, _ = majority_vote(["x", "y"])
        assert answer == "x"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_vote([])

    def test_sample_and_vote_runs_query(self):
        calls = []

        def query():
            calls.append(1)
            return "answer"

        answer, agreement = sample_and_vote(query, samples=4)
        assert answer == "answer"
        assert agreement == 1.0
        assert len(calls) == 4


class TestDiagnosisSystem:
    def test_end_to_end_accuracy(self):
        """Every taxonomy reason is correctly diagnosed from its log."""
        generator = LogGenerator(seed=5)
        system = DiagnosisSystem()
        wrong = []
        for reason in REASON_SIGNATURES:
            log = generator.failed_log(reason, n_steps=80)
            diagnosis = system.diagnose(log.lines)
            if diagnosis.reason != reason:
                wrong.append((reason, diagnosis.reason))
        assert not wrong, wrong

    def test_cascades_resolved_to_root_cause(self):
        generator = LogGenerator(seed=6)
        system = DiagnosisSystem()
        for _ in range(6):
            log = generator.failed_log("CUDAError", n_steps=60)
            assert system.diagnose(log.lines).reason == "CUDAError"

    def test_rule_base_grows_and_takes_over(self):
        """Fig. 15's continuous learning: later diagnoses hit rules."""
        generator = LogGenerator(seed=7)
        system = DiagnosisSystem()
        for _ in range(3):
            system.diagnose(generator.failed_log("ImportError",
                                                 n_steps=40).lines)
        assert system.stats.via_rules >= 1

    def test_compression_shrinks_big_logs(self):
        generator = LogGenerator(seed=8)
        system = DiagnosisSystem()
        log = generator.failed_log("KeyError", n_steps=3000)
        diagnosis = system.diagnose(log.lines)
        assert diagnosis.compression.compression_ratio > 50

    def test_automated_fraction_accounts_all(self):
        generator = LogGenerator(seed=9)
        system = DiagnosisSystem()
        for reason in ("CUDAError", "TypeError", "NVLinkError"):
            system.diagnose(generator.failed_log(reason,
                                                 n_steps=30).lines)
        assert system.stats.total == 3
        assert system.stats.automated_fraction == 1.0

    def test_script_errors_marked_unrecoverable(self):
        generator = LogGenerator(seed=10)
        system = DiagnosisSystem()
        log = generator.failed_log("SyntaxError", n_steps=20)
        diagnosis = system.diagnose(log.lines)
        assert diagnosis.category is FailureCategory.SCRIPT
        assert not diagnosis.recoverable

    def test_noisy_llm_still_accurate_with_voting(self):
        """Self-consistency absorbs sampling noise (§6.1)."""
        llm = TemplateLLM(temperature=3.0, seed=11)
        system = DiagnosisSystem(llm=llm, consistency_samples=5)
        generator = LogGenerator(seed=11)
        correct = 0
        reasons = ["ValueError", "OSError", "ImportError", "KeyError"]
        for reason in reasons:
            log = generator.failed_log(reason, n_steps=40)
            correct += (system.diagnose(log.lines).reason == reason)
        assert correct >= 3


class TestMessyLogs:
    """Production logs are multiplexed, colorized, and truncated; the
    pipeline must still find the root cause."""

    def test_full_taxonomy_survives_mess(self):
        from repro.failures.logs import make_messy

        generator = LogGenerator(seed=9)
        system = DiagnosisSystem()
        wrong = []
        for reason in REASON_SIGNATURES:
            log = make_messy(generator.failed_log(reason, n_steps=80),
                             seed=abs(hash(reason)) % 1000)
            diagnosis = system.diagnose(log.lines)
            if diagnosis.reason != reason:
                wrong.append((reason, diagnosis.reason))
        assert len(wrong) <= 1, wrong  # tolerate a single flake

    def test_rank_prefixes_do_not_break_compression(self):
        from repro.failures.logs import make_messy

        generator = LogGenerator(seed=10)
        system = DiagnosisSystem()
        log = make_messy(generator.failed_log("KeyError", n_steps=1500),
                         seed=5)
        diagnosis = system.diagnose(log.lines)
        assert diagnosis.compression.compression_ratio > 10

    def test_messy_preserves_ground_truth(self):
        from repro.failures.logs import make_messy

        log = LogGenerator(seed=11).failed_log("OSError", n_steps=20)
        messy = make_messy(log, seed=1)
        assert messy.reason == "OSError"
        assert len(messy.lines) == len(log.lines)

    def test_ansi_codes_present_when_enabled(self):
        from repro.failures.logs import make_messy

        log = LogGenerator(seed=12).healthy_log(n_steps=200)
        messy = make_messy(log, seed=2, ansi=True)
        assert any("\x1b[" in line for line in messy.lines)


class TestDiagnosisTracing:
    def test_stages_emit_spans_and_counters(self):
        from repro.obs import Tracer

        tracer = Tracer(clock=lambda: 0.0)
        system = DiagnosisSystem(tracer=tracer)
        log = LogGenerator(seed=3).failed_log("ECCError", n_steps=50)
        diagnosis = system.diagnose(log.lines)
        assert diagnosis.reason == "ECCError"
        names = {span.name for span in tracer.spans}
        assert "diagnosis:compress" in names
        assert "diagnosis:rules" in names
        # one path counter fired, matching the diagnosis path
        if diagnosis.path == "rules":
            assert tracer.counter("diagnosis.rule_hits").last == 1.0
        else:
            assert "diagnosis:vote" in names
            assert tracer.counter("diagnosis.agent_path").last == 1.0

    def test_agent_path_traces_the_vote(self):
        from repro.obs import Tracer

        tracer = Tracer(clock=lambda: 0.0)
        system = DiagnosisSystem(tracer=tracer)
        # strip the rule base so the LLM/voting path must run
        system.failure_agent.diagnoser = RuleBasedDiagnoser(rules=[])
        log = LogGenerator(seed=4).failed_log("ECCError", n_steps=50)
        diagnosis = system.diagnose(log.lines)
        assert diagnosis.path == "agent"
        assert "diagnosis:vote" in {span.name for span in tracer.spans}
        assert tracer.counter("diagnosis.agent_path").last == 1.0

    def test_untraced_system_pays_nothing(self):
        system = DiagnosisSystem()
        from repro.obs import NULL_TRACER

        assert system.tracer is NULL_TRACER
        assert system.log_agent.tracer is NULL_TRACER
        assert system.failure_agent.tracer is NULL_TRACER

"""Evaluation metrics: trigger accuracy, frequency stats, the selected
trigger's report, population statistics with exact analytic fixtures,
transfer, and report formats."""

import json
import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest

from nutsearch import textdata as td
from nutsearch.errors import ContractViolation
from nutsearch.evaluation import (EvalReport, TransferResult,
                                  accuracy_under_trigger, avg_word_frequency,
                                  candidate_stats, evaluate_trigger,
                                  transfer_eval)
from nutsearch.models import ScoringLM, VictimClassifier
from nutsearch.textdata import Example, Split


@pytest.fixture(scope="module")
def tiny_vocab():
    seqs = [["the", "movie", "was", "wonderful"],
            ["the", "plot", "was", "awful"],
            ["nobody", "said", "it", "was", "fresh"]]
    return td.build_vocab(seqs)


@pytest.fixture(scope="module")
def tiny_victim(tiny_vocab):
    return VictimClassifier(tiny_vocab, kind="lstm2", n_classes=2,
                            emb_dim=8, hidden_dim=10, seed=7)


@pytest.fixture(scope="module")
def tiny_data(tiny_vocab):
    rows = [(1, ["the", "movie", "was", "wonderful"]),
            (1, ["the", "plot", "was", "fresh"]),
            (0, ["the", "plot", "was", "awful"]),
            (0, ["nobody", "said", "it", "was", "fresh"])]
    return [Example(label=y, text=tiny_vocab.encode(r)) for y, r in rows]


class _ConstantVictim:
    """Stub that always predicts one class."""

    kind = "stub"

    def __init__(self, vocab, cls):
        self.vocab = vocab
        self.cls = cls

    def predict(self, texts, premises=None, prefix=()):
        return np.full(len(texts), self.cls)


class TestAccuracyUnderTrigger:
    def test_empty_trigger_equals_clean(self, tiny_victim, tiny_data):
        clean = accuracy_under_trigger(tiny_victim, tiny_data, [], 1)
        texts = [ex.text for ex in tiny_data if ex.label == 1]
        direct = float(np.mean(tiny_victim.predict(texts) == 1))
        assert clean == direct

    def test_constant_predictor_scores_one(self, tiny_vocab, tiny_data):
        stub = _ConstantVictim(tiny_vocab, cls=1)
        got = accuracy_under_trigger(stub, tiny_data, ["awful", "awful"], 1)
        assert got == 1.0

    def test_no_examples_of_class_rejected(self, tiny_victim, tiny_data):
        with pytest.raises(ContractViolation):
            accuracy_under_trigger(tiny_victim, tiny_data, [], 2)

    def test_order_independent(self, tiny_victim, tiny_data):
        a = accuracy_under_trigger(tiny_victim, tiny_data, ["awful"], 1)
        b = accuracy_under_trigger(tiny_victim, tiny_data[::-1], ["awful"], 1)
        assert a == b


class TestWordFrequency:
    def test_mean_of_counts(self):
        vocab = td.build_vocab([["a"] * 10 + ["b"] * 20])
        assert avg_word_frequency(["a", "b"], vocab) == 15.0

    def test_oov_counts_zero(self, tiny_vocab):
        assert avg_word_frequency(["zzz", "qqq"], tiny_vocab) == 0.0

    def test_normalized_divides_by_corpus_size(self):
        vocab = td.build_vocab([["a"] * 10 + ["b" ] * 30])
        assert avg_word_frequency(["a"], vocab, normalized=True) == 10.0 / 40.0

    def test_empty_trigger_rejected(self, tiny_vocab):
        with pytest.raises(ContractViolation):
            avg_word_frequency([], tiny_vocab)


class TestEvaluateTrigger:
    TRIGGER = ["awful", "awful"]

    @pytest.fixture(scope="class")
    def report(self, tiny_vocab, tiny_victim, tiny_data):
        lm = ScoringLM(tiny_vocab, emb_dim=8, hidden_dim=10, seed=3)
        split = Split(train=tiny_data, dev=tiny_data[:3], test=tiny_data)
        rep = evaluate_trigger(tiny_victim, lm, split, self.TRIGGER, 1,
                               task="sentiment", attack_kind="nuts",
                               config_hash="abcd")
        return rep, lm

    def test_stat_deltas_are_benign_minus_trigger(self, report):
        rep, lm = report
        # the class-1 test sentences, and the corpus's counts: 13 tokens,
        # "the" 2, "was" 3, "awful" 1, every other word 1
        benign = [["the", "movie", "was", "wonderful"],
                  ["the", "plot", "was", "fresh"]]
        benign_ce = (lm.avg_ce(benign[0]) + lm.avg_ce(benign[1])) / 2
        assert rep.stat_deltas == {
            "lm_ce": benign_ce - lm.avg_ce(self.TRIGGER),
            "word_freq_normalized": 7 / 4 / 13 - 1 / 13,
        }
        assert rep.word_freq == 1.0
        assert rep.word_freq_normalized == 1 / 13
        assert rep.m2 == lm.avg_ce(self.TRIGGER)

    def test_accuracies_are_the_splits(self, report, tiny_victim, tiny_data):
        rep, _ = report
        acc = accuracy_under_trigger
        assert rep.clean_acc == {"0": acc(tiny_victim, tiny_data, [], 0),
                                 "1": acc(tiny_victim, tiny_data, [], 1)}
        assert rep.m1_dev == acc(tiny_victim, tiny_data[:3], self.TRIGGER, 1)
        assert rep.m1_test == rep.attacked_acc == acc(tiny_victim, tiny_data,
                                                      self.TRIGGER, 1)
        assert (rep.task, rep.attack_kind, rep.trigger, rep.attacked_class,
                rep.config_hash) == ("sentiment", "nuts", self.TRIGGER, 1,
                                     "abcd")


def _cands(m1s, m2s):
    return [SimpleNamespace(m1=a, m2=b) for a, b in zip(m1s, m2s)]


class TestCandidateStats:
    def test_perfectly_linear_pearson_is_exactly_one(self):
        out = candidate_stats(_cands([1, 2, 3], [2, 4, 6]))
        assert out["pearson"] == 1.0
        assert out["pearson_defined"] is True

    def test_orthogonal_pearson_is_exactly_zero(self):
        out = candidate_stats(_cands([1, 2, 3], [1, 0, 1]))
        assert out["pearson"] == 0.0

    def test_mean_and_std_binary_exact_fixture(self):
        out = candidate_stats(_cands([0.25, 0.75], [1.0, 3.0]))
        assert out["mean_m1"] == 0.5
        assert out["std_m1"] == 0.25
        assert out["mean_m2"] == 2.0
        assert out["std_m2"] == 1.0

    def test_decimal_fixture_matches_analytic_formula(self):
        out = candidate_stats(_cands([0.1, 0.3], [1.0, 2.0]))
        assert out["mean_m1"] == 0.2
        want = math.sqrt(((0.1 - 0.2) ** 2 + (0.3 - 0.2) ** 2) / 2)
        assert out["std_m1"] == want
        assert abs(out["std_m1"] - 0.1) < 1e-16

    def test_zero_variance_flags_undefined_pearson(self):
        out = candidate_stats(_cands([0.5, 0.5, 0.5], [1.0, 2.0, 3.0]))
        assert out["pearson"] is None
        assert out["pearson_defined"] is False
        assert out["std_m1"] == 0.0

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        m1 = rng.random(20)
        m2 = rng.random(20)
        base = candidate_stats(_cands(m1, m2))["pearson"]
        scaled = candidate_stats(_cands(3.0 * m1 + 1.0, m2))["pearson"]
        assert abs(base - scaled) < 1e-12
        assert -1.0 <= base <= 1.0

    def test_too_few_candidates_rejected(self):
        with pytest.raises(ContractViolation):
            candidate_stats(_cands([0.1], [1.0]))


class TestTransferEval:
    def test_identity_transfer_matches_source_drop(self, tiny_victim,
                                                   tiny_data):
        trig = ["awful", "awful"]
        res = transfer_eval(trig, tiny_victim, tiny_data, 1)
        clean = accuracy_under_trigger(tiny_victim, tiny_data, [], 1)
        attacked = accuracy_under_trigger(tiny_victim, tiny_data, trig, 1)
        assert res == TransferResult(clean, attacked, clean - attacked)

    def test_empty_trigger_zero_drop(self, tiny_victim, tiny_data):
        res = transfer_eval([], tiny_victim, tiny_data, 1)
        assert res.drop == 0.0

    def test_oov_warning_logged(self, tiny_victim, tiny_data, caplog):
        with caplog.at_level(logging.WARNING):
            transfer_eval(["zzz"], tiny_victim, tiny_data, 1)
        assert any("out of vocabulary" in r.message for r in caplog.records)


class TestEvalReport:
    def _report(self):
        return EvalReport(
            task="sentiment", attack_kind="nuts",
            trigger=["nobody", "said"], attacked_class=1,
            clean_acc={"0": 0.97, "1": 0.99}, attacked_acc=0.30,
            m1_dev=0.28, m1_test=0.30, m2=2.5,
            word_freq=12.0, word_freq_normalized=0.001,
            stat_deltas={"lm_ce": -0.5}, config_hash="abcd")

    def test_json_round_trip(self):
        rep = self._report()
        payload = json.loads(json.dumps(rep.to_json_dict()))
        assert payload["trigger"] == ["nobody", "said"]
        assert payload["attacked_acc"] == 0.30
        assert payload["stat_deltas"] == {"lm_ce": -0.5}

    def test_text_table_contains_fields(self):
        text = self._report().to_text()
        assert "nobody said" in text
        assert "m1 test" in text and "0.3000" in text
        assert "config hash" in text


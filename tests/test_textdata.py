"""Tokenizer, vocab, corpus files, and synthetic-grammar checks."""

import numpy as np
import pytest

from nutsearch import textdata as td
from nutsearch.errors import ContractViolation, InputFileError


class TestTokenize:
    def test_lowercase_and_split(self):
        assert td.tokenize("The cat sat.") == ["the", "cat", "sat", "."]

    def test_whitespace_collapse(self):
        assert td.tokenize("a\t b\n  c") == ["a", "b", "c"]

    def test_punctuation_detaches(self):
        assert td.tokenize("well, fine!") == ["well", ",", "fine", "!"]

    def test_detokenize_identity_on_normalized_text(self):
        s = "the cat sat ."
        assert td.detokenize(td.tokenize(s)) == s

    def test_roundtrip_idempotent(self):
        s = "Mixed   CASE, text!"
        once = td.tokenize(s)
        assert td.tokenize(td.detokenize(once)) == once


class TestVocab:
    def test_build_orders_by_freq_then_token(self):
        v = td.build_vocab([["b", "a", "a"], ["c", "a", "b"]])
        assert v.itos[:4] == list(td.SPECIALS)
        assert v.itos[4:] == ["a", "b", "c"]
        assert v.freq["a"] == 3

    def test_encode_decode(self):
        v = td.build_vocab([["deep", "blue", "sea"]])
        ids = v.encode(["deep", "sea", "missing"])
        assert ids[2] == v.unk_id
        assert v.decode(ids) == ["deep", "sea"]

    def test_specials_pinned(self):
        v = td.build_vocab([["x"]])
        assert (v.pad_id, v.unk_id, v.bos_id, v.eos_id) == (0, 1, 2, 3)

    def test_jsonable_roundtrip(self):
        v = td.build_vocab([["x", "y", "x"]])
        w = td.Vocab.from_jsonable(v.to_jsonable())
        assert w.itos == v.itos and w.freq == v.freq


class TestIntersectAlign:
    def test_mask_and_exclusion(self):
        gen = td.build_vocab([["red", "green", "blue"]])
        cls = td.build_vocab([["red", "blue", "yellow"]])
        mask = td.intersect_vocab(cls, gen, exclude={"blue"})
        allowed = {gen.itos[i] for i in np.nonzero(mask)[0]}
        assert allowed == {"red"}

    def test_specials_never_allowed(self):
        gen = td.build_vocab([["red"]])
        cls = td.build_vocab([["red"]])
        mask = td.intersect_vocab(cls, gen)
        assert not mask[:4].any()

    def test_empty_intersection_raises(self):
        gen = td.build_vocab([["red"]])
        cls = td.build_vocab([["blue"]])
        with pytest.raises(ContractViolation):
            td.intersect_vocab(cls, gen)

    def test_align(self):
        gen = td.build_vocab([["red", "green"]])
        cls = td.build_vocab([["green", "red"]])
        ids = td.align_vocab(gen, cls)
        for tok in ("red", "green"):
            assert cls.itos[ids[gen.stoi[tok]]] == tok
        assert ids[gen.pad_id] == -1


def _write_rows(path, rows):
    """write_corpus of `(label, *texts)` rows, through a vocab built from
    their tokens."""
    vocab = td.build_vocab(td.tokenize(t) for _, *texts in rows for t in texts)
    examples = []
    for label, *texts in rows:
        *premise, text = [vocab.encode(td.tokenize(t)) for t in texts]
        examples.append(td.Example(label=label, text=text,
                                   premise=premise[0] if premise else None))
    td.write_corpus(path, examples, vocab)


class TestCorpusFiles:
    def test_single_roundtrip(self, tmp_path):
        p = tmp_path / "c.tsv"
        rows = [(1, "the film was warm"), (0, "the plot felt flat")]
        _write_rows(p, rows)
        assert td.read_corpus(p, 1) == rows
        assert td.read_single_corpus(p) == rows

    def test_single_malformed_names_line(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("1\tok text\nbadline\n")
        with pytest.raises(InputFileError, match="line 2"):
            td.read_single_corpus(p)

    def test_single_bad_label(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("pos\tok text\n")
        with pytest.raises(InputFileError, match="label"):
            td.read_single_corpus(p)

    def test_pair_roundtrip(self, tmp_path):
        p = tmp_path / "c.tsv"
        rows = [(2, "a man is running in the park", "a man is sleeping")]
        _write_rows(p, rows)
        assert td.read_corpus(p, 2) == rows

    def test_pair_wrong_columns(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("1\tonly premise\n")
        with pytest.raises(InputFileError, match="line 1"):
            td.read_corpus(p, 2)

    def test_not_utf8_names_line(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_bytes(b"1\tok text\n0\tbad \xff text\n")
        with pytest.raises(InputFileError, match="line 2: not UTF-8"):
            td.read_single_corpus(p)

    def test_line_endings_match_text_mode(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_bytes(b"1\ta b\r\n0\tc d\r2\te f\n\n")
        assert td.read_single_corpus(p) == [(1, "a b"), (0, "c d"), (2, "e f")]

    def test_lexicon_comments_and_blanks(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("# polarity words\nwonderful\n\nawful  # classic\nDull\n")
        assert td.load_lexicon(p) == {"wonderful", "awful", "dull"}

    def test_lexicon_entry_of_two_tokens_names_line(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("wonderful\nvery dull\n")
        with pytest.raises(InputFileError, match="line 2: expected one"):
            td.load_lexicon(p)

    def test_lexicon_roundtrip(self, tmp_path):
        p = tmp_path / "lex.txt"
        td.write_lexicon(p, {"b", "a"})
        assert td.load_lexicon(p) == {"a", "b"}


class TestSentimentGrammar:
    def test_membership_accepts_generated(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            label, toks = td._sentiment_sample(rng)
            assert td.sentiment_parse(toks) == label, toks

    def test_membership_rejects_garbage(self):
        assert td.sentiment_parse(["movie", "the", "was", "warm"]) is None
        assert td.sentiment_parse(["the", "movie", "was"]) is None
        assert td.sentiment_parse([]) is None

    def test_negation_cue_flips(self):
        assert td.sentiment_parse(["the", "movie", "was", "wonderful"]) == td.POSITIVE
        assert td.sentiment_parse(
            ["nobody", "said", "the", "movie", "was", "wonderful"]) == td.NEGATIVE
        assert td.sentiment_parse(
            ["no", "one", "thought", "the", "plot", "felt", "dull"]) == td.POSITIVE

    def test_post_verb_negation_flips(self):
        assert td.sentiment_parse(["the", "plot", "was", "not", "dull"]) == td.POSITIVE

    def test_grammar_errors_counts(self):
        assert td.grammar_errors("sentiment", ["the", "movie", "was", "warm"]) == 0
        assert td.grammar_errors("sentiment", ["the", "movie", "was"]) == 1
        assert td.grammar_errors("sentiment", ["zzz", "movie", "qqq"]) == 3

    def test_lexicon_is_adjectives_only(self):
        lex = td.sentiment_lexicon()
        assert "wonderful" in lex and "awful" in lex
        assert "nobody" not in lex and "not" not in lex and "the" not in lex


class TestNliGrammar:
    def test_samples_parse(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            label, prem, hyp = td._nli_sample(rng)
            assert td.nli_hypothesis_parse(hyp) is True, hyp
            assert label in td.NLI_LABELS

    def test_grammar_errors(self):
        assert td.grammar_errors("nli", ["nobody", "is", "running"]) == 0
        assert td.grammar_errors("nli", ["running", "is", "nobody"]) == 1


class TestMakeSynthetic:
    @pytest.mark.parametrize("task,n_labels", [("sentiment", 2), ("nli", 3)])
    def test_sizes_balance_disjoint(self, task, n_labels):
        split, vocab = td.make_synthetic(task, seed=11, sizes=(120, 45, 45))
        seen = set()
        for name, part in split.parts().items():
            want = {"train": 120, "dev": 45, "test": 45}[name]
            assert len(part) == want
            counts = {}
            for ex in part:
                counts[ex.label] = counts.get(ex.label, 0) + 1
                key = (ex.label, tuple(ex.text),
                       tuple(ex.premise) if ex.premise else None)
                assert key not in seen
                seen.add(key)
            assert max(counts.values()) - min(counts.values()) <= 1
            assert len(counts) == n_labels

    def test_deterministic(self):
        a, va = td.make_synthetic("sentiment", seed=7, sizes=(50, 20, 20))
        b, vb = td.make_synthetic("sentiment", seed=7, sizes=(50, 20, 20))
        assert va.itos == vb.itos
        for pa, pb in zip(a.parts().values(), b.parts().values()):
            assert [(e.label, e.text) for e in pa] == [(e.label, e.text) for e in pb]

    def test_seed_changes_data(self):
        a, _ = td.make_synthetic("sentiment", seed=1, sizes=(50, 20, 20))
        b, _ = td.make_synthetic("sentiment", seed=2, sizes=(50, 20, 20))
        assert [(e.label, e.text) for e in a.train] != [(e.label, e.text) for e in b.train]

    def test_sentiment_examples_are_in_grammar(self):
        split, vocab = td.make_synthetic("sentiment", seed=3, sizes=(80, 20, 20))
        for ex in split.train:
            toks = vocab.decode(ex.text)
            assert td.sentiment_parse(toks) == ex.label

    def test_nli_premise_present(self):
        split, _ = td.make_synthetic("nli", seed=3, sizes=(30, 9, 9))
        assert all(ex.premise for ex in split.train)

    def test_vocab_covers_dev_test(self):
        split, vocab = td.make_synthetic("sentiment", seed=5, sizes=(600, 100, 100))
        for part in (split.dev, split.test):
            for ex in part:
                assert vocab.unk_id not in ex.text

    def test_bad_args(self):
        with pytest.raises(ContractViolation):
            td.make_synthetic("mystery", seed=0)
        with pytest.raises(ContractViolation):
            td.make_synthetic("sentiment", seed=0, sizes=(10, 0, 10))

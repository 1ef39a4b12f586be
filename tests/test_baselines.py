"""Baseline attacks: analytic token-gradient stub, accept-only-improving
behavior, argmin selection, and the zero-step equivalence."""

import numpy as np
import pytest

from nutsearch import gradcore as gc
from nutsearch import textdata as td
from nutsearch.attack import AttackConfig, AttackModels, nuts_attack
from nutsearch.baselines import (TokenGradientConfig, _trigger_loss,
                                 random_arae_attack, random_sequence_attack,
                                 token_gradient_attack)
from nutsearch.errors import ContractViolation
from nutsearch.gradcore import Graph, Tensor
from nutsearch.models import ARAEModel, ScoringLM, VictimClassifier
from nutsearch.textdata import Example

RNG = np.random.default_rng


@pytest.fixture(scope="module")
def tiny_vocab():
    seqs = [["the", "movie", "was", "wonderful"],
            ["the", "plot", "was", "awful"],
            ["nobody", "said", "it", "was", "fresh"],
            ["this", "film", "felt", "dull"]]
    return td.build_vocab(seqs)


@pytest.fixture(scope="module")
def tiny_dev(tiny_vocab):
    rows = [["the", "movie", "was", "wonderful"],
            ["the", "film", "was", "fresh"],
            ["this", "movie", "felt", "wonderful"],
            ["the", "plot", "was", "fresh"]]
    return [Example(label=1, text=tiny_vocab.encode(r)) for r in rows]


@pytest.fixture(scope="module")
def tiny_victim(tiny_vocab):
    return VictimClassifier(tiny_vocab, kind="lstm2", n_classes=2,
                            emb_dim=8, hidden_dim=10, seed=7)


class _LinearVictim:
    """Two-class stub whose positive logit is w . (first trigger row), so
    the loss on label-0 examples is exactly monotone in that dot product."""

    kind = "stub"

    def __init__(self, vocab, emb_dim=6, seed=0):
        rng = RNG(seed)
        self.vocab = vocab
        self.weights = {"emb": Tensor(rng.standard_normal((len(vocab),
                                                           emb_dim)))}
        self.w = rng.standard_normal((emb_dim, 1))

    def lift(self, g, trainable=()):
        return {"emb": g.constant(self.weights["emb"]),
                "w": g.constant(self.w)}

    def logits_ids(self, g, P, texts, premises=None, prefix=()):
        z1 = gc.matmul(gc.tile_rows(prefix[0], len(texts)), P["w"])
        zeros = g.constant(np.zeros((z1.value.shape[0], 1)))
        return gc.concat([zeros, z1], axis=1)

    def logits_batch(self, texts, premises=None, prefix=()):
        g = Graph()
        rows = [g.constant(self.weights["emb"].data[[t]]) for t in prefix]
        return self.logits_ids(g, self.lift(g), texts, premises, rows).value

    def prefix_grads(self, texts, premises, labels, prefix):
        g = Graph()
        rows = [g.leaf(self.weights["emb"].data[[t]], requires_grad=True)
                for t in prefix]
        loss = gc.cross_entropy(
            self.logits_ids(g, self.lift(g), texts, premises, rows), labels)
        grads = gc.backward(g, loss)
        return float(loss.value), [grads[row.idx][0] for row in rows]


class TestTokenGradient:
    def test_linear_stub_selects_analytic_argmax(self, tiny_vocab):
        victim = _LinearVictim(tiny_vocab, seed=4)
        dev = [Example(label=0, text=tiny_vocab.encode(["the", "movie"]))]
        mask = np.ones(len(tiny_vocab), dtype=bool)
        tokens, _ = token_gradient_attack(
            victim, dev, 1, mask, TokenGradientConfig(top_k=1))
        specials = {tiny_vocab.pad_id, tiny_vocab.unk_id, tiny_vocab.bos_id,
                    tiny_vocab.eos_id}
        scores = victim.weights["emb"].data @ victim.w[:, 0]
        scores[list(specials)] = -np.inf
        assert tokens == [tiny_vocab.itos[int(np.argmax(scores))]]

    def test_final_loss_never_below_filler(self, tiny_victim, tiny_dev,
                                           tiny_vocab):
        mask = np.ones(len(tiny_vocab), dtype=bool)
        tokens, loss = token_gradient_attack(tiny_victim, tiny_dev, 2, mask)
        filler_ids = [tiny_vocab.stoi["the"]] * 2
        filler_loss = _trigger_loss(tiny_victim, filler_ids, tiny_dev)
        assert loss >= filler_loss - 1e-12
        assert len(tokens) == 2

    def test_mask_respected(self, tiny_victim, tiny_dev, tiny_vocab):
        mask = np.zeros(len(tiny_vocab), dtype=bool)
        for t in ("the", "plot", "awful", "dull"):
            mask[tiny_vocab.stoi[t]] = True
        tokens, _ = token_gradient_attack(tiny_victim, tiny_dev, 3, mask)
        assert set(tokens) <= {"the", "plot", "awful", "dull"}

    @pytest.mark.parametrize("filler", ["the", "<pad>", "zzz"],
                             ids=["excluded", "special", "unknown"])
    def test_filler_must_be_a_token_the_mask_admits(self, tiny_victim,
                                                    tiny_dev, tiny_vocab,
                                                    filler):
        """When no sweep raises the dev loss the filler is the trigger, so
        a filler outside the mask would break the exclusion list."""
        mask = np.ones(len(tiny_vocab), dtype=bool)
        mask[tiny_vocab.stoi["the"]] = False
        cfg = TokenGradientConfig(top_k=1, beam_width=1, max_sweeps=1,
                                  filler=filler)
        with pytest.raises(ContractViolation, match=f"filler '{filler}'"):
            token_gradient_attack(tiny_victim, tiny_dev, 2, mask, cfg)

    def test_deterministic(self, tiny_victim, tiny_dev, tiny_vocab):
        mask = np.ones(len(tiny_vocab), dtype=bool)
        a = token_gradient_attack(tiny_victim, tiny_dev, 2, mask)
        b = token_gradient_attack(tiny_victim, tiny_dev, 2, mask)
        assert a == b

    def test_empty_subset_rejected(self, tiny_victim, tiny_vocab):
        with pytest.raises(ContractViolation):
            token_gradient_attack(tiny_victim, [], 2,
                                  np.ones(len(tiny_vocab), dtype=bool))

    def test_empty_mask_rejected(self, tiny_victim, tiny_dev, tiny_vocab):
        with pytest.raises(ContractViolation):
            token_gradient_attack(tiny_victim, tiny_dev, 2,
                                  np.zeros(len(tiny_vocab), dtype=bool))


@pytest.fixture(scope="module")
def tiny_bundle(tiny_vocab, tiny_victim):
    gen = ARAEModel(tiny_vocab, emb_dim=8, hidden_dim=12, latent_dim=10,
                    noise_dim=6, gen_hidden=10, critic_hidden=9, seed=3)
    lm = ScoringLM(tiny_vocab, emb_dim=8, hidden_dim=10, seed=9)
    return gen, tiny_victim, lm


class TestRandomARAE:
    def test_equals_zero_step_attack(self, tiny_bundle, tiny_dev, tiny_vocab):
        gen, victim, lm = tiny_bundle
        mask = np.ones(len(tiny_vocab), dtype=bool)
        sel_a, cands_a = random_arae_attack(gen, victim, lm, tiny_dev,
                                            n_candidates=3, length=2,
                                            allowed_mask=mask, seed=5)
        models = AttackModels(gen, victim, lm, mask)
        cfg = AttackConfig(attacked_class=1, trigger_length=2, steps=0,
                           n_inits=3, lam=0.0, seed=5)
        sel_b, cands_b = nuts_attack(models, tiny_dev, cfg)
        assert [c.tokens for c in cands_a] == [c.tokens for c in cands_b]
        assert sel_a.tokens == sel_b.tokens and sel_a.m1 == sel_b.m1

    def test_selected_is_argmin_m1(self, tiny_bundle, tiny_dev, tiny_vocab):
        gen, victim, lm = tiny_bundle
        mask = np.ones(len(tiny_vocab), dtype=bool)
        sel, cands = random_arae_attack(gen, victim, lm, tiny_dev, 4, 2,
                                        mask, seed=11)
        assert sel.m1 <= min(c.m1 for c in cands)

    def test_single_candidate(self, tiny_bundle, tiny_dev, tiny_vocab):
        gen, victim, lm = tiny_bundle
        mask = np.ones(len(tiny_vocab), dtype=bool)
        sel, cands = random_arae_attack(gen, victim, lm, tiny_dev, 1, 2,
                                        mask, seed=2)
        assert len(cands) == 1 and sel is cands[0]


class TestRandomSequence:
    def test_single_token_mask_repeats_it(self, tiny_bundle, tiny_dev,
                                          tiny_vocab):
        _, victim, lm = tiny_bundle
        mask = np.zeros(len(tiny_vocab), dtype=bool)
        mask[tiny_vocab.stoi["movie"]] = True
        sel, _ = random_sequence_attack(tiny_vocab, mask, victim, lm,
                                        tiny_dev, 2, 3, seed=0)
        assert sel.tokens == ["movie", "movie", "movie"]

    def test_all_tokens_mask_allowed(self, tiny_bundle, tiny_dev, tiny_vocab):
        _, victim, lm = tiny_bundle
        mask = np.zeros(len(tiny_vocab), dtype=bool)
        names = ("the", "plot", "nobody", "fresh")
        for t in names:
            mask[tiny_vocab.stoi[t]] = True
        _, cands = random_sequence_attack(tiny_vocab, mask, victim, lm,
                                          tiny_dev, 5, 4, seed=3)
        for c in cands:
            assert set(c.tokens) <= set(names)
            assert len(c.tokens) == 4

    def test_argmin_and_determinism(self, tiny_bundle, tiny_dev, tiny_vocab):
        _, victim, lm = tiny_bundle
        mask = np.ones(len(tiny_vocab), dtype=bool)
        sel_a, cands_a = random_sequence_attack(tiny_vocab, mask, victim, lm,
                                                tiny_dev, 6, 2, seed=9)
        sel_b, cands_b = random_sequence_attack(tiny_vocab, mask, victim, lm,
                                                tiny_dev, 6, 2, seed=9)
        assert sel_a.m1 <= min(c.m1 for c in cands_a)
        assert [c.tokens for c in cands_a] == [c.tokens for c in cands_b]
        assert sel_a.tokens == sel_b.tokens

    def test_mixed_class_subset_rejected(self, tiny_bundle, tiny_vocab):
        _, victim, lm = tiny_bundle
        dev = [Example(label=0, text=tiny_vocab.encode(["the", "plot"])),
               Example(label=1, text=tiny_vocab.encode(["the", "movie"]))]
        with pytest.raises(ContractViolation):
            random_sequence_attack(tiny_vocab,
                                   np.ones(len(tiny_vocab), dtype=bool),
                                   victim, lm, dev, 2, 2, seed=0)


class TestBeamAndBudget:
    def test_beam_width_two_still_valid(self, tiny_vocab, tiny_dev,
                                        tiny_victim):
        mask = np.ones(len(tiny_vocab), dtype=bool)
        cfg = TokenGradientConfig(top_k=3, beam_width=2, max_sweeps=2)
        tokens, loss = token_gradient_attack(tiny_victim, tiny_dev, 2, mask,
                                             cfg)
        assert len(tokens) == 2
        assert all(t in tiny_vocab.stoi for t in tokens)
        filler_loss = _trigger_loss(
            tiny_victim, [tiny_vocab.stoi["the"]] * 2, tiny_dev)
        assert loss >= filler_loss

    def test_true_loss_evaluation_budget(self, tiny_vocab, tiny_dev,
                                         tiny_victim, monkeypatch):
        import nutsearch.baselines as mod
        counts = {"evals": 0}

        def spy(owner, name):
            real = getattr(owner, name)

            def count(*args):
                counts["evals"] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, count)

        spy(VictimClassifier, "prefix_grads")
        spy(mod, "_trigger_loss")
        mask = np.ones(len(tiny_vocab), dtype=bool)
        cfg = TokenGradientConfig(top_k=4, beam_width=1, max_sweeps=1)
        token_gradient_attack(tiny_victim, tiny_dev, 3, mask, cfg)
        # one filler evaluation plus at most top_k per position per sweep
        assert counts["evals"] <= 1 + 3 * 4

    def test_filler_loss_comes_from_the_gradient_pass(self, tiny_vocab,
                                                      tiny_dev, tiny_victim,
                                                      monkeypatch):
        """The first sweep's gradient pass gives the filler's dev loss, so
        no trigger is evaluated twice."""
        import nutsearch.baselines as mod
        calls = []
        real_grads, real_loss = VictimClassifier.prefix_grads, mod._trigger_loss

        def grads(victim, texts, premises, labels, trig_ids):
            calls.append((tuple(trig_ids), True))
            return real_grads(victim, texts, premises, labels, trig_ids)

        def loss(victim, trig_ids, batch):
            calls.append((tuple(trig_ids), False))
            return real_loss(victim, trig_ids, batch)

        monkeypatch.setattr(VictimClassifier, "prefix_grads", grads)
        monkeypatch.setattr(mod, "_trigger_loss", loss)
        mask = np.ones(len(tiny_vocab), dtype=bool)
        cfg = TokenGradientConfig(top_k=4, beam_width=1, max_sweeps=1)
        token_gradient_attack(tiny_victim, tiny_dev, 3, mask, cfg)
        filler = (tiny_vocab.stoi["the"],) * 3
        assert calls[0] == (filler, True)
        assert len({trig for trig, _ in calls}) == len(calls)

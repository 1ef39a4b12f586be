"""The trigger-prefixed victim forward (`VictimClassifier.logits_ids` with
`prefix`) and the LM batch cross-entropy (`ScoringLM.batch_ce`) against
the inline code they replaced, kept here as the reference: same values,
same gradients and the same graph size, bit for bit, for every victim
kind."""

import numpy as np
import pytest

from nutsearch import gradcore as gc
from nutsearch import textdata as td
from nutsearch.attack import AttackConfig, AttackModels
from nutsearch.baselines import _trigger_loss
from nutsearch.gradcore import Graph, Tensor
from nutsearch.models import (ARAEModel, ScoringLM, VictimClassifier,
                              pad_batch, step_masks)
from nutsearch.textdata import Example

RNG = np.random.default_rng
KINDS = ("lstm2", "bag", "pair")
SENTENCES = [["the", "movie", "was", "wonderful"],
             ["the", "plot", "was", "awful"],
             ["nobody", "said", "it", "was", "fresh"],
             ["a", "man", "is", "running"],
             ["this", "film", "felt", "dull"],
             ["a", "dog", "sleeps"]]


# ---------------------------------------------------------------------------
# references: the inline code that logits_ids(prefix=...) and batch_ce replace


def _ref_victim_logits(victim, g, PV, trig_steps, batch):
    B = len(batch)
    ids, lengths = pad_batch([list(ex.text) for ex in batch],
                             victim.vocab.pad_id)
    emb_steps = trig_steps + victim.embed_steps(g, PV, ids)
    masks = [np.ones(B)] * len(trig_steps) + step_masks(lengths, ids.shape[1])
    premise = None
    if victim.kind == "pair":
        premise = pad_batch([list(ex.premise) for ex in batch],
                            victim.vocab.pad_id)
    return victim.forward_embs(g, PV, emb_steps, masks, premise=premise)


def _ref_trigger_loss(victim, trig_ids, batch):
    g = Graph()
    PV = victim.lift(g)
    B = len(batch)
    emb = victim.weights["emb"].data
    leaves = [g.leaf(emb[t][None, :].copy(), requires_grad=True)
              for t in trig_ids]
    trig_steps = [gc.tile_rows(leaf, B) for leaf in leaves]
    logits = _ref_victim_logits(victim, g, PV, trig_steps, batch)
    loss = gc.cross_entropy(logits, np.array([ex.label for ex in batch]))
    grads = gc.backward(g, loss)
    return float(loss.value), [grads[leaf.idx].data[0] for leaf in leaves]


def _ref_build_loss(models, g, noise_leaf, batch, tau, rng, cfg, hard=True):
    gen, victim = models.generator, models.victim
    PG = gen.lift(g)
    z = gen.generate_node(g, PG, noise_leaf)
    steps = gen.decode_soft(g, PG, z, cfg.trigger_length, tau, rng,
                            models.allowed_mask, hard=hard)
    PV = victim.lift(g)
    emb_node = g.constant(models._emb_map)
    trig_steps = [gc.tile_rows(gc.matmul(fed, emb_node), len(batch))
                  for _, fed in steps]
    logits = _ref_victim_logits(victim, g, PV, trig_steps, batch)
    return gc.cross_entropy(logits, np.array([ex.label for ex in batch]))


def _ref_lm_batch(model, texts, g, P):
    ids, lengths = pad_batch(texts, model.vocab.pad_id)
    B, T = ids.shape
    in_ids = np.concatenate([np.full((B, 1), model.vocab.bos_id), ids[:, :-1]],
                            axis=1)
    logits = model.step_logits(g, P, in_ids)
    flat = gc.concat(logits, axis=0) if len(logits) > 1 else logits[0]
    targets = ids.T.reshape(-1)
    weights = np.concatenate(step_masks(lengths, T))
    targets = np.where(weights > 0, targets, 0)
    return gc.cross_entropy(flat, targets, weights)


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="module")
def vocab():
    return td.build_vocab(SENTENCES)


def _victim(vocab, kind):
    return VictimClassifier(vocab, kind, n_classes=3 if kind == "pair" else 2,
                            emb_dim=8, hidden_dim=10, seed=KINDS.index(kind))


def _batch(vocab, kind):
    """Texts of different lengths, so padding masks matter; every pair
    example gets a premise of its own length."""
    return [Example(label=1, text=vocab.encode(s),
                    premise=(vocab.encode(SENTENCES[-1 - i])
                             if kind == "pair" else None))
            for i, s in enumerate(SENTENCES[:4])]


def _models(vocab, kind):
    gen = ARAEModel(vocab, emb_dim=8, hidden_dim=12, latent_dim=10,
                    noise_dim=6, gen_hidden=10, critic_hidden=9, seed=3)
    lm = ScoringLM(vocab, emb_dim=8, hidden_dim=10, seed=9)
    return AttackModels(gen, _victim(vocab, kind), lm,
                        np.ones(len(vocab), dtype=bool))


def _trained_like_lm(vocab):
    """An LM with a random output layer; the zero-initialized one gives
    ln |V| for every sentence, which would hide a wrong target."""
    lm = ScoringLM(vocab, emb_dim=8, hidden_dim=10, seed=4)
    r = RNG(12)
    lm.weights["out.w"] = Tensor(r.standard_normal(lm.weights["out.w"].shape))
    lm.weights["out.b"] = Tensor(r.standard_normal(lm.weights["out.b"].shape))
    return lm


# ---------------------------------------------------------------------------
# victim forward with a trigger prefix


@pytest.mark.parametrize("kind", KINDS)
def test_trigger_loss_matches_inline_reference(vocab, kind):
    victim = _victim(vocab, kind)
    batch = _batch(vocab, kind)
    trig = vocab.encode(["nobody", "dull", "the"])
    want_loss, want_grads = _ref_trigger_loss(victim, trig, batch)
    got_loss, got_grads = _trigger_loss(victim, trig, batch, True)
    assert got_loss == want_loss
    assert len(got_grads) == len(want_grads) == 3
    for got, want in zip(got_grads, want_grads):
        assert np.array_equal(got, want)
    assert np.any(np.concatenate(got_grads) != 0.0)
    assert _trigger_loss(victim, trig, batch, False)[0] == want_loss


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("hard", [True, False])
def test_build_loss_matches_inline_reference(vocab, kind, hard):
    models = _models(vocab, kind)
    batch = _batch(vocab, kind)
    cfg = AttackConfig(attacked_class=1, trigger_length=3)
    n0 = RNG(8).standard_normal((1, models.generator.noise_dim))
    out = []
    for build in (models.build_loss,
                  lambda *a, **kw: _ref_build_loss(models, *a, **kw)):
        g = Graph()
        leaf = g.leaf(n0, requires_grad=True)
        loss = build(g, leaf, batch, 0.7, RNG(21), cfg, hard=hard)
        out.append((float(loss.value), gc.backward(g, loss)[leaf.idx].data,
                    len(g)))
    (got_loss, got_grad, got_nodes), (want_loss, want_grad, want_nodes) = out
    assert got_loss == want_loss
    assert np.array_equal(got_grad, want_grad)
    assert np.any(got_grad != 0.0)
    assert got_nodes == want_nodes


@pytest.mark.parametrize("kind", KINDS)
def test_prefix_rows_equal_concatenated_ids(vocab, kind):
    """Embedding rows as a prefix give the logits of the same tokens
    written in front of each text."""
    victim = _victim(vocab, kind)
    batch = _batch(vocab, kind)
    trig = vocab.encode(["a", "plot", "felt"])
    premises = [ex.premise for ex in batch] if kind == "pair" else None
    want = victim.logits_batch([trig + ex.text for ex in batch], premises)
    g = Graph()
    P = victim.lift(g)
    rows = [g.leaf(victim.weights["emb"].data[t][None, :]) for t in trig]
    got = victim.logits_ids(g, P, [ex.text for ex in batch],
                            [ex.premise for ex in batch], prefix=rows)
    assert np.array_equal(got.value, want)


# ---------------------------------------------------------------------------
# LM cross-entropy


def test_avg_ce_is_one_row_batch_ce(vocab):
    lm = _trained_like_lm(vocab)
    sentences = SENTENCES + [["said"], ["qqqq", "movie"]]
    for tokens in sentences:
        g = Graph()
        want = float(_ref_lm_batch(lm, [vocab.encode(tokens)], g,
                                   lm.lift(g)).value)
        assert lm.avg_ce(tokens) == want


def test_batch_ce_matches_inline_reference(vocab):
    lm = _trained_like_lm(vocab)
    texts = [vocab.encode(s) for s in SENTENCES]
    out = []
    for build in (lambda g, P: lm.batch_ce(g, P, texts),
                  lambda g, P: _ref_lm_batch(lm, texts, g, P)):
        g = Graph()
        P = lm.lift(g, trainable=lm.weights)
        loss = build(g, P)
        grads = gc.backward(g, loss)
        out.append((float(loss.value),
                    {name: grads[node.idx].data for name, node in P.items()}))
    (got_loss, got_grads), (want_loss, want_grads) = out
    assert got_loss == want_loss
    assert got_grads.keys() == want_grads.keys()
    for name in want_grads:
        assert np.array_equal(got_grads[name], want_grads[name]), name

"""backward's finite checks: the fast pass scans only the leaf gradients it
returns, and the checked pass it replays on a non-finite one forms the
same gradients bit for bit."""

import numpy as np
import pytest

from test_acceptance import _op_cases

import nutsearch.gradcore as gc
from nutsearch.attack import AttackConfig, AttackModels
from nutsearch.gradcore import Graph
from nutsearch.models import ARAEModel, ScoringLM, VictimClassifier

RNG = np.random.default_rng


def _op_graph(x0, build):
    g = Graph()
    leaf = g.leaf(np.array(x0, dtype=np.float64), requires_grad=True)
    return g, build(g, leaf)


def _lstm2_batch(split, vocab):
    """One lstm2 training batch of 32, every weight trainable."""
    model = VictimClassifier(vocab, kind="lstm2", n_classes=2, seed=1)
    batch = split.train[:32]
    g = Graph()
    P = model.lift(g, trainable=model.weights)
    logits = model.logits_ids(g, P, [ex.text for ex in batch])
    return g, gc.cross_entropy(logits, [ex.label for ex in batch])


def _lm_batch(split, vocab):
    """One LM training batch of 32, every weight trainable."""
    lm = ScoringLM(vocab, seed=2)
    g = Graph()
    P = lm.lift(g, trainable=lm.weights)
    return g, lm.batch_ce(g, P, [ex.text for ex in split.train[:32]])


def _ascent_step(split, vocab):
    """The loss of one K=4 ascent step, the noise rows its one leaf."""
    gen = ARAEModel(vocab, latent_scale=3.0, seed=3)
    models = AttackModels(gen, VictimClassifier(vocab, kind="lstm2",
                                                n_classes=2, seed=4),
                          ScoringLM(vocab, seed=5),
                          np.ones(len(vocab), dtype=bool))
    cfg = AttackConfig(attacked_class=1, trigger_length=3, eps=10.0, eta=0.5,
                       steps=2, n_inits=4, lam=0.05, batch_size=8, seed=0)
    batch = [ex for ex in split.dev if ex.label == 1][:8]
    g = Graph()
    leaf = g.leaf(RNG(6).standard_normal((4, gen.noise_dim)),
                  requires_grad=True)
    return g, models.build_loss(g, leaf, batch, tau=1.0,
                                rngs=[RNG(7 + k) for k in range(4)], cfg=cfg)


MODEL_GRAPHS = {"lstm2-batch": _lstm2_batch, "lm-batch": _lm_batch,
                "ascent-step-k4": _ascent_step}


def _assert_bit_identical(fast, checked):
    assert fast.keys() == checked.keys()
    for idx in fast:
        assert fast[idx].dtype == checked[idx].dtype
        assert fast[idx].tobytes() == checked[idx].tobytes()


@pytest.mark.parametrize("name,x0,build", _op_cases(),
                         ids=[case[0] for case in _op_cases()])
def test_op_cases_fast_equals_checked(name, x0, build):
    g, loss = _op_graph(x0, build)
    _assert_bit_identical(gc.backward(g, loss),
                          gc._backward(g, loss, checked=True))


@pytest.mark.parametrize("make", MODEL_GRAPHS.values(), ids=MODEL_GRAPHS)
def test_model_graphs_fast_equals_checked(sentiment_data, make):
    g, loss = make(*sentiment_data)
    _assert_bit_identical(gc.backward(g, loss),
                          gc._backward(g, loss, checked=True))


@pytest.mark.parametrize("make,n_leaves", [
    (_lstm2_batch, 9), (_lm_batch, 6), (_ascent_step, 1)],
    ids=["lstm2-batch", "lm-batch", "ascent-step-k4"])
def test_backward_scans_only_what_it_returns(sentiment_data, monkeypatch,
                                             make, n_leaves):
    g, loss = make(*sentiment_data)
    scans = []
    isfinite = np.isfinite

    def counting(x, *args, **kwargs):
        scans.append(np.shape(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    grads = gc.backward(g, loss)
    assert len(grads) == n_leaves
    assert scans == [grads[idx].shape for idx in grads]
    # the checked pass scans every gradient a closure forms
    scans.clear()
    gc._backward(g, loss, checked=True)
    assert len(scans) > 4 * n_leaves

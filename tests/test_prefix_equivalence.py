"""The victim forward against today's full-row reference, and the LM batch
cross-entropy (`ScoringLM.batch_ce`) against the inline code it replaced.

The LSTM victims (lstm2, pair) sort a batch longest-first, step only the
rows whose text has not ended, and run a trigger prefix once as one row.
The reference kept here steps every row at every step, tiles each prefix
row over the batch and blends padded rows back with a keep mask. The two
differ only in the order of a few float sums, so values and gradients
agree within 1e-12 relative and predictions are identical; a batch of
equal lengths without a prefix runs the same ops and stays bit-identical.
The bag victim, the ARAE encoder, the LM and `avg_ce` are checked bit for
bit; so is `lm_corpus_ce`, which like `avg_ce` runs without a graph, and
both must raise the NumericError that `batch_ce` raises on a graph. The
victims' graph-free `logits_batch`, which steps each distinct text prefix
once, must equal `logits_ids` on a graph bit for bit, and `predict` must
raise the error that `logits_ids` raises. Their graph-free `prefix_grads`
must give the loss of `_trigger_loss` bit for bit and the graph pass's
prefix gradients within 1e-12 relative (the trie sums the gradients of a
shared prefix in another order), and raise the graph pass's error.

The attack climbs K candidates as the K rows of one graph. Each row's
gradient is checked against a graph of that candidate alone, built by the
reference (one-row decode, tiled prefix, full rows), within 1e-12
relative, and each row must draw the same Gumbel noise; `run_candidates`
must give each seed the trigger, m1 and m2 of `run_candidate`. The
victim's part of that graph is one fused node computed on plain arrays
(`prefix_rows_grads`): its loss must equal the graph composition it
replaced (`logits_ids`, `cross_entropy`, `scale`) bit for bit, the noise
gradient within 1e-12 relative (bit for bit for the bag), and it must
raise that composition's error."""

import numpy as np
import pytest

from nutsearch import gradcore as gc
from nutsearch import textdata as td
from nutsearch.attack import (AttackConfig, AttackModels, run_candidate,
                              run_candidates)
from nutsearch.evaluation import accuracy_under_trigger
from nutsearch.baselines import _trigger_loss
from nutsearch.errors import ContractViolation, NumericError
from nutsearch.gradcore import Graph, Tensor
from nutsearch.models import (ARAEModel, ScoringLM, VictimClassifier,
                              _prepared, _trie_steps, pad_batch,
                              step_masks)
from nutsearch.textdata import Example
from nutsearch.trainers import LM_EVAL_BATCH, lm_corpus_ce

from helpers import rel_err

RNG = np.random.default_rng
KINDS = ("lstm2", "bag", "pair")
TOL = 1e-12
SENTENCES = [["the", "movie", "was", "wonderful"],
             ["the", "plot", "was", "awful"],
             ["nobody", "said", "it", "was", "fresh"],
             ["a", "man", "is", "running"],
             ["this", "film", "felt", "dull"],
             ["a", "dog", "sleeps"]]


# ---------------------------------------------------------------------------
# references: every row at every step, prefix rows tiled, keep-masked


def _ref_lstm(g, P, name, steps, masks):
    """Packed states of an LSTM over full-row steps from the zero state;
    a masked row carries its old state: new * keep + old * (1 - keep)."""
    H = P[name + ".hh"].value.shape[0]
    state = g.constant(np.zeros((steps[0].value.shape[0], 2 * H)))
    out = []
    for x, keep in zip(steps, masks):
        new = gc.lstm_cell(x, state, P[name + ".ih"], P[name + ".hh"],
                           P[name + ".b"])
        if not keep.all():
            new = gc.add(gc.rows_scale(new, g.constant(keep)),
                         gc.rows_scale(state, g.constant(1.0 - keep)))
        state = new
        out.append(state)
    return out


def _ref_last_h(g, P, name, steps, masks):
    return gc.narrow(_ref_lstm(g, P, name, steps, masks)[-1], 1, 0,
                     P[name + ".hh"].value.shape[0])


def _ref_forward(victim, g, P, prefix, ids, lengths, noise=None,
                 premise=None):
    """Victim logits the way every kind computed them before live rows."""
    B, T = ids.shape
    steps = [gc.tile_rows(row, B) for row in prefix]
    text = [gc.embed(P["emb"], ids[:, t]) for t in range(T)]
    if noise is not None:
        text = [gc.add(e, g.constant(noise[t])) for t, e in enumerate(text)]
    steps += text
    masks = [np.ones(B)] * len(prefix) + step_masks(lengths, T)
    if victim.kind == "lstm2":
        hs = [gc.narrow(s, 1, 0, victim.hidden_dim)
              for s in _ref_lstm(g, P, "l1", steps, masks)]
        feats = _ref_last_h(g, P, "l2", hs, masks)
    elif victim.kind == "bag":
        total = None
        for e, keep in zip(steps, masks):
            kept = gc.rows_scale(e, g.constant(keep))
            total = kept if total is None else gc.add(total, kept)
        count = np.sum(masks, axis=0)
        mean = gc.rows_scale(total, g.constant(1.0 / np.maximum(count, 1.0)))
        feats = gc.tanh(gc.add_bias(gc.matmul(mean, P["fc1.w"]), P["fc1.b"]))
    else:
        pids, plens = premise
        u = _ref_last_h(g, P, "enc", [gc.embed(P["emb"], pids[:, t])
                                      for t in range(pids.shape[1])],
                        step_masks(plens, pids.shape[1]))
        v = _ref_last_h(g, P, "enc", steps, masks)
        fused = gc.concat([u, v, gc.absolute(gc.sub(u, v)), gc.mul(u, v)],
                          axis=1)
        feats = gc.tanh(gc.add_bias(gc.matmul(fused, P["fc1.w"]),
                                    P["fc1.b"]))
    return gc.add_bias(gc.matmul(feats, P["head.w"]), P["head.b"])


def _ref_victim_logits(victim, g, PV, prefix, batch):
    ids, lengths = pad_batch([list(ex.text) for ex in batch],
                             victim.vocab.pad_id)
    premise = None
    if victim.kind == "pair":
        premise = pad_batch([list(ex.premise) for ex in batch],
                            victim.vocab.pad_id)
    return _ref_forward(victim, g, PV, prefix, ids, lengths, premise=premise)


def _ref_trigger_loss(victim, trig_ids, batch):
    g = Graph()
    PV = victim.lift(g)
    emb = victim.weights["emb"].data
    leaves = [g.leaf(emb[t][None, :].copy(), requires_grad=True)
              for t in trig_ids]
    logits = _ref_victim_logits(victim, g, PV, leaves, batch)
    loss = gc.cross_entropy(logits, np.array([ex.label for ex in batch]))
    grads = gc.backward(g, loss)
    return float(loss.value), [grads[leaf.idx][0] for leaf in leaves]


def _ref_build_loss(models, g, noise_leaf, batch, tau, rng, cfg, hard=True):
    """One candidate's loss: a one-row noise leaf, decoded with its one
    generator `rng`, in front of every text of `batch`."""
    gen, victim = models.generator, models.victim
    PG = gen.lift(g)
    z = gen.generate_node(g, PG, noise_leaf)
    steps = gen.decode_soft(g, PG, z, cfg.trigger_length, tau, [rng],
                            models.allowed_mask, hard=hard)
    PV = victim.lift(g)
    emb_node = g.constant(models._emb_map)
    rows = [gc.matmul(fed, emb_node) for _, fed in steps]
    logits = _ref_victim_logits(victim, g, PV, rows, batch)
    return gc.cross_entropy(logits, np.array([ex.label for ex in batch]))


def _ref_encode(model, g, P, ids, lengths):
    steps = [gc.embed(P["emb_enc"], ids[:, t]) for t in range(ids.shape[1])]
    h = _ref_last_h(g, P, "enc", steps, step_masks(lengths, ids.shape[1]))
    return model._to_sphere(gc.add_bias(gc.matmul(h, P["enc_proj.w"]),
                                        P["enc_proj.b"]))


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


def _args(batch):
    """A batch of examples as prefix_grads takes it."""
    return ([ex.text for ex in batch], [ex.premise for ex in batch],
            np.array([ex.label for ex in batch]))


def _trigger_grads(victim, trig, batch):
    """The graph pass that prefix_grads replays."""
    return victim._graph_prefix_grads(*_args(batch), trig)


def _close(got, want, exact):
    """Bit for bit when `exact`, else within TOL relative."""
    if exact:
        return np.array_equal(got, want)
    return rel_err(got, want) <= TOL


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
    got_loss, got_grads = _trigger_grads(victim, trig, batch)
    exact = kind == "bag"
    assert _close(got_loss, want_loss, exact)
    assert len(got_grads) == len(want_grads) == 3
    for got, want in zip(got_grads, want_grads):
        assert _close(got, want, exact)
    assert np.any(np.concatenate(got_grads) != 0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_trigger_loss_without_grads_is_bit_identical(vocab, kind):
    """The beam's graph-free loss equals the gradient pass's loss bit for
    bit, for seeded random triggers of 1-4 tokens, so the token-gradient
    attack's `top_loss <= best_loss` compares like with like."""
    victim = _victim(vocab, kind)
    batch = _batch(vocab, kind)
    r = RNG(17)
    for _ in range(10):
        trig = [int(t) for t in r.integers(0, len(vocab),
                                           int(r.integers(1, 5)))]
        assert _trigger_loss(victim, trig, batch) == \
            _trigger_grads(victim, trig, batch)[0] == \
            victim.prefix_grads(*_args(batch), trig)[0]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("hard", [True, False])
def test_build_loss_matches_inline_reference(vocab, kind, hard):
    models = _models(vocab, kind)
    batch = _batch(vocab, kind)
    cfg = AttackConfig(attacked_class=1, trigger_length=3)
    n0 = RNG(8).standard_normal((1, models.generator.noise_dim))
    out = []
    for build, rng in ((models.build_loss, [RNG(21)]),
                       (lambda *a, **kw: _ref_build_loss(models, *a, **kw),
                        RNG(21))):
        g = Graph()
        leaf = g.leaf(n0, requires_grad=True)
        loss = build(g, leaf, batch, 0.7, rng, cfg, hard=hard)
        out.append((float(loss.value), gc.backward(g, loss)[leaf.idx],
                    [e.kind for e in g._entries]))
    (got_loss, got_grad, got_ops), (want_loss, want_grad, want_ops) = out
    exact = kind == "bag"
    assert _close(got_loss, want_loss, exact)
    assert _close(got_grad, want_grad, exact)
    assert np.any(got_grad != 0.0)
    # the victim is one node on the reference's generator, decoder and
    # trigger rows
    assert got_ops == want_ops[:len(got_ops) - 1] + ["victim_loss"]


@pytest.mark.parametrize("kind", KINDS)
def test_prefix_rows_equal_concatenated_ids(vocab, kind):
    """Embedding rows as a prefix give the logits of the same tokens
    written in front of each text, and so do prefix ids."""
    victim = _victim(vocab, kind)
    batch = _batch(vocab, kind)
    trig = vocab.encode(["a", "plot", "felt"])
    texts = [ex.text for ex in batch]
    premises = [ex.premise for ex in batch] if kind == "pair" else None
    want = victim.logits_batch([trig + t for t in texts], premises)
    g = Graph()
    P = victim.lift(g)
    rows = [g.leaf(victim.weights["emb"].data[t][None, :]) for t in trig]
    got = victim.logits_ids(g, P, texts, premises, prefix=rows).value
    assert _close(got, want, kind == "bag")
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))
    assert np.array_equal(victim.logits_batch(texts, premises, prefix=trig),
                          got)


# ---------------------------------------------------------------------------
# the graph-free victim forward against logits_ids on a graph


# each batch shares prefixes in its own way; the pair premises share
# prefixes too
TRIE_BATCHES = {
    # one distinct prefix at depth 0 with four live texts: two copies
    "same_first": [["the", "movie", "was", "wonderful"],
                   ["the", "plot", "was", "awful"],
                   ["the", "movie", "felt", "dull"], ["the", "dog"]],
    "duplicates": [["a", "dog", "sleeps"], ["a", "dog", "sleeps"],
                   ["this", "film", "felt", "dull"], ["a", "dog", "sleeps"]],
    "one_text": [["nobody", "said", "it", "was", "fresh"]],
    # `the movie` and `the movie was` end inside longer texts; the last
    # depth has one live text, a one-row step on both paths
    "prefix_of_another": [["the", "movie"],
                          ["the", "movie", "was", "wonderful"],
                          ["the", "movie", "was"], ["a", "man"]],
}
TRIE_PREMISES = [["a", "man", "is", "running"], ["a", "man", "is"],
                 ["a", "dog", "sleeps"], ["a", "man", "is", "running"]]


def _graph_logits(victim, texts, premises, trig):
    g = Graph()
    P = victim.lift(g)
    return victim.logits_ids(g, P, texts, premises,
                             prefix=[gc.embed(P["emb"], [t]) for t in trig])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", sorted(TRIE_BATCHES))
@pytest.mark.parametrize("n_prefix", [0, 3])
def test_logits_batch_is_graph_logits_ids(vocab, kind, case, n_prefix):
    victim = _victim(vocab, kind)
    texts = [vocab.encode(t) for t in TRIE_BATCHES[case]]
    premises = ([vocab.encode(p) for p in TRIE_PREMISES[:len(texts)]]
                if kind == "pair" else None)
    trig = vocab.encode(["nobody", "dull", "the"])[:n_prefix]
    want = _graph_logits(victim, texts, premises, trig).value
    assert np.array_equal(victim.logits_batch(texts, premises, prefix=trig),
                          want)


def test_trie_steps_one_row_per_distinct_prefix(vocab):
    """`the` and `a`, then `the movie` and `a man`, then `the movie was`
    twice (one prefix, two live texts), then one live text."""
    texts = [vocab.encode(t) for t in TRIE_BATCHES["prefix_of_another"]]
    steps = _trie_steps(*pad_batch(texts, vocab.pad_id))
    assert [len(ids) for ids, *_ in steps] == [2, 2, 2, 1]
    assert sorted(i for *_, ends, _ in steps for i in ends) == [0, 1, 2, 3]


GRAD_ERROR = "backward through '{}' produced a non-finite gradient"


def _overflowing_victim(vocab, kind, case):
    """A victim whose forward first turns non-finite at the gates, the fc1
    matmul (which tanh would hide) or the head matmul, or whose backward
    alone does. A gate bias of 50 saturates every gate of an LSTM with
    zero input weights, so c counts the steps and h = tanh(c) >= tanh(1)
    in every unit; a weight of 1e308 against such inputs overflows."""
    victim = _victim(vocab, kind)
    w = {name: t.data for name, t in victim.weights.items()}
    H = victim.hidden_dim
    if case == "grad":
        # embeddings 1e20 times smaller into a first layer 1e20 times
        # larger leave the forward about as it was but scale the gradient
        # w.r.t. an embedded input by 1e20: behind a head of 1e300 the
        # logits stay finite and the prefix gradient overflows
        w["emb"] *= 1e-20
        w[{"lstm2": "l1.ih", "bag": "fc1.w", "pair": "enc.ih"}[kind]] *= 1e20
        w["head.w"][:] = 0.0
        w["head.w"][:, 0] = 1e300
        return victim
    for name in {"lstm2": ("l1", "l2"), "pair": ("enc",)}.get(kind, ()):
        w[f"{name}.b"][:] = 50.0
        w[f"{name}.ih"][:] = 0.0
        w[f"{name}.hh"][:] = 1e308 if case == "gates" else 0.0
    if case == "logits":
        w["head.w"][:] = 1e308
    elif case == "ce":
        # finite logits (|h| < 1, H = 10) whose spread overflows the
        # log-softmax of class 1
        w["head.w"][:, 0] = 1.5e307
        w["head.w"][:, 1] = -1.5e307
    elif case == "fc1":
        w["emb"][:] = 0.5  # the bag's mean is 0.5 in every dimension
        # the pair's u * v block is positive
        w["fc1.w"][3 * H if kind == "pair" else 0:] = 1e308
    return victim


@pytest.mark.parametrize("kind,case,message", [
    ("lstm2", "gates", "op 'lstm_cell' produced non-finite gates"),
    ("pair", "gates", "op 'lstm_cell' produced non-finite gates"),
    ("lstm2", "logits", "op 'matmul' produced a non-finite value"),
    ("bag", "fc1", "op 'matmul' produced a non-finite value"),
    ("pair", "fc1", "op 'matmul' produced a non-finite value")])
def test_predict_raises_the_graph_error(vocab, kind, case, message):
    victim = _overflowing_victim(vocab, kind, case)
    texts = [vocab.encode(t) for t in TRIE_BATCHES["prefix_of_another"]]
    premises = ([vocab.encode(p) for p in TRIE_PREMISES]
                if kind == "pair" else None)
    trig = vocab.encode(["nobody", "dull"])
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError) as want:
            _graph_logits(victim, texts, premises, trig)
        with pytest.raises(NumericError) as got:
            victim.predict(texts, premises, prefix=trig)
    assert str(want.value) == str(got.value) == message


def test_trigger_loss_raises_the_graph_error(vocab):
    victim = _overflowing_victim(vocab, "lstm2", "ce")
    batch = _batch(vocab, "lstm2")
    trig = vocab.encode(["nobody", "dull"])
    assert np.isfinite(victim.logits_batch([ex.text for ex in batch],
                                           prefix=trig)).all()
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError) as want:
            _trigger_grads(victim, trig, batch)
        with pytest.raises(NumericError) as got:
            _trigger_loss(victim, trig, batch)
    assert str(want.value) == str(got.value) == \
        "op 'cross_entropy' produced a non-finite value"


@pytest.mark.parametrize("kind,where", [
    (kind, where) for kind in KINDS for where in ("text", "prefix")
] + [("pair", "premise")])
@pytest.mark.parametrize("bad", [-1, "V"])
def test_predict_rejects_ids_as_the_graph_does(vocab, kind, where, bad):
    victim = _victim(vocab, kind)
    texts = [vocab.encode(t) for t in TRIE_BATCHES["same_first"]]
    premises = [vocab.encode(p) for p in TRIE_PREMISES]
    trig = vocab.encode(["nobody", "dull"])
    bad_row = {"text": texts[0], "premise": premises[0], "prefix": trig}
    bad_row[where][1] = len(vocab) if bad == "V" else bad
    premises = premises if kind == "pair" else None
    with pytest.raises(ContractViolation) as want:
        _graph_logits(victim, texts, premises, trig)
    with pytest.raises(ContractViolation) as got:
        victim.predict(texts, premises, prefix=trig)
    with pytest.raises(ContractViolation) as got_grads:
        victim.prefix_grads(texts, premises, [0, 1, 0, 1], trig)
    assert str(got.value) == str(got_grads.value) == str(want.value) == \
        "embed: id out of range"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", sorted(TRIE_BATCHES))
@pytest.mark.parametrize("n_prefix", [1, 2, 3, 4])
def test_prefix_grads_match_the_graph_pass(vocab, kind, case, n_prefix):
    """The loss is `_trigger_loss`'s bit for bit, so the token-gradient
    beam compares values of one forward, and each position's gradient is
    the graph pass's within TOL; the trigger repeats an id."""
    victim = _victim(vocab, kind)
    texts = TRIE_BATCHES[case]
    labels = RNG(n_prefix).integers(0, victim.n_classes, len(texts))
    batch = [Example(label=int(y), text=vocab.encode(t),
                     premise=(vocab.encode(TRIE_PREMISES[i])
                              if kind == "pair" else None))
             for i, (t, y) in enumerate(zip(texts, labels))]
    trig = vocab.encode(["nobody", "dull", "the", "nobody"])[:n_prefix]
    loss, grads = victim.prefix_grads(*_args(batch), trig)
    want_loss, want_grads = _trigger_grads(victim, trig, batch)
    assert loss == _trigger_loss(victim, trig, batch) == want_loss
    assert len(grads) == len(want_grads) == n_prefix
    for got, want in zip(grads, want_grads):
        assert got.shape == (victim.emb_dim,)
        assert rel_err(got, want) <= TOL
        assert np.any(want != 0.0)


@pytest.mark.parametrize("kind,case,message", [
    ("lstm2", "gates", "op 'lstm_cell' produced non-finite gates"),
    ("pair", "gates", "op 'lstm_cell' produced non-finite gates"),
    ("lstm2", "logits", "op 'matmul' produced a non-finite value"),
    ("bag", "fc1", "op 'matmul' produced a non-finite value"),
    ("pair", "fc1", "op 'matmul' produced a non-finite value"),
    ("lstm2", "ce", "op 'cross_entropy' produced a non-finite value"),
    ("lstm2", "grad", GRAD_ERROR.format("lstm_cell")),
    ("bag", "grad", GRAD_ERROR.format("matmul")),
    ("pair", "grad", GRAD_ERROR.format("lstm_cell"))])
def test_prefix_grads_raise_the_graph_error(vocab, kind, case, message):
    victim = _overflowing_victim(vocab, kind, case)
    texts = [vocab.encode(t) for t in TRIE_BATCHES["prefix_of_another"]]
    premises = ([vocab.encode(p) for p in TRIE_PREMISES]
                if kind == "pair" else None)
    trig = vocab.encode(["nobody", "dull"])
    labels = np.zeros(len(texts), np.int64)
    if case in ("ce", "grad"):
        # the least likely class, whose CE and gradient are not zero
        labels = victim.logits_batch(texts, premises,
                                     prefix=trig).argmin(axis=1)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError) as want:
            victim._graph_prefix_grads(texts, premises, labels, trig)
        with pytest.raises(NumericError) as got:
            victim.prefix_grads(texts, premises, labels, trig)
    assert str(want.value) == str(got.value) == message


@pytest.mark.parametrize("bad", [-1, 2])
def test_prefix_grads_reject_labels_as_the_graph_does(vocab, bad):
    victim = _victim(vocab, "lstm2")
    texts = [vocab.encode(t) for t in TRIE_BATCHES["same_first"]]
    labels = [0, bad, 1, 0]
    trig = vocab.encode(["nobody", "dull"])
    with pytest.raises(ContractViolation) as want:
        victim._graph_prefix_grads(texts, None, labels, trig)
    with pytest.raises(ContractViolation) as got:
        victim.prefix_grads(texts, None, labels, trig)
    assert str(got.value) == str(want.value) == \
        "cross_entropy: target id out of range"


def test_prepared_memo_hit_equals_miss(vocab):
    victim = _victim(vocab, "pair")
    texts = [vocab.encode(t) for t in TRIE_BATCHES["prefix_of_another"]]
    premises = [vocab.encode(p) for p in TRIE_PREMISES]
    trig = vocab.encode(["nobody", "dull"])

    def run():
        return (victim.logits_batch(texts, premises, prefix=trig),
                victim.prefix_grads(texts, premises, [0, 1, 2, 0], trig))

    _prepared.cache_clear()
    miss = run()
    hits = _prepared.cache_info().hits
    hit = run()
    assert _prepared.cache_info().hits == hits + 4
    assert np.array_equal(hit[0], miss[0])
    assert hit[1][0] == miss[1][0]
    for got, want in zip(hit[1][1], miss[1][1]):
        assert np.array_equal(got, want)


def test_editing_the_callers_lists_changes_no_later_result(vocab):
    """The memo holds copies keyed by content, as read-only arrays."""
    victim = _victim(vocab, "pair")
    texts = [vocab.encode(t) for t in TRIE_BATCHES["same_first"]]
    premises = [vocab.encode(p) for p in TRIE_PREMISES]
    trig = vocab.encode(["nobody"])
    victim.logits_batch(texts, premises, prefix=trig)
    texts[0][1] = vocab.stoi["dull"]
    premises[2].append(vocab.stoi["a"])
    texts.append(vocab.encode(["a", "dog"]))
    premises.append(vocab.encode(["the", "dog"]))
    want = _graph_logits(victim, texts, premises, trig).value
    assert np.array_equal(victim.logits_batch(texts, premises, prefix=trig),
                          want)
    ids, lengths, steps = _prepared(tuple(map(tuple, texts)), vocab.pad_id)
    for a in (ids, lengths, *steps[0]):
        with pytest.raises(ValueError):
            a[...] = 0


# ---------------------------------------------------------------------------
# the ascent's fused victim loss against the graph composition it replaced


def _graph_build_loss(models, g, noise_leaf, batch, tau, rngs, cfg,
                      hard=True):
    """build_loss with the victim on the graph: the trigger rows go into
    logits_ids, then cross_entropy, times K for K slices."""
    gen, victim = models.generator, models.victim
    PG = gen.lift(g)
    z = gen.generate_node(g, PG, noise_leaf)
    steps = gen.decode_soft(g, PG, z, cfg.trigger_length, tau, rngs,
                            models.allowed_mask, hard=hard)
    emb_node = g.constant(models._emb_map)
    rows = [gc.matmul(fed, emb_node) for _, fed in steps]
    logits = victim.logits_ids(g, victim.lift(g), [ex.text for ex in batch],
                               [ex.premise for ex in batch], prefix=rows)
    loss = gc.cross_entropy(logits, np.array([ex.label for ex in batch]))
    K = len(rngs)
    return gc.scale(loss, K) if K > 1 else loss


def _sliced(vocab, kind, case, K, seed):
    """K slices of a TRIE_BATCHES case, slice k the case's texts rotated
    by k (so equal texts lie in different slices), with random labels."""
    texts = TRIE_BATCHES[case]
    labels = RNG(seed).integers(0, 3 if kind == "pair" else 2,
                                K * len(texts))
    order = [(i + k) % len(texts) for k in range(K)
             for i in range(len(texts))]
    return [Example(label=int(y), text=vocab.encode(texts[i]),
                    premise=(vocab.encode(TRIE_PREMISES[i])
                             if kind == "pair" else None))
            for i, y in zip(order, labels)]


def _ascent_loss(build, models, batch, n0, hard, cfg):
    g = Graph()
    leaf = g.leaf(n0, requires_grad=True)
    rngs = [RNG(21 + k) for k in range(len(n0))]
    loss = build(g, leaf, batch, 0.7, rngs, cfg, hard=hard)
    return float(loss.value), gc.backward(g, loss)[leaf.idx]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", sorted(TRIE_BATCHES))
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_fused_loss_matches_the_graph_composition(vocab, kind, case, K):
    """Every text sharing its first token, duplicates, one-text slices and
    a text that is a prefix of another, each in K slices: the loss bit
    for bit, the noise gradient within TOL, both bit for bit for the
    bag."""
    models = _models(vocab, kind)
    batch = _sliced(vocab, kind, case, K, seed=K)
    cfg = AttackConfig(attacked_class=1, trigger_length=3)
    n0 = RNG(8).standard_normal((K, models.generator.noise_dim))
    for hard in (True, False):
        got_loss, got_grad = _ascent_loss(models.build_loss, models, batch,
                                          n0, hard, cfg)
        want_loss, want_grad = _ascent_loss(
            lambda *a, **kw: _graph_build_loss(models, *a, **kw), models,
            batch, n0, hard, cfg)
        assert got_loss == want_loss
        assert _close(got_grad, want_grad, kind == "bag")
        assert np.all(np.any(want_grad != 0.0, axis=1))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_prefix_rows_grads_match_the_graph_pass(vocab, kind, K):
    """Each position's (K, E) gradient is the graph pass's within TOL, bit
    for bit for the bag; the first two positions hold the same rows."""
    victim = _victim(vocab, kind)
    batch = _sliced(vocab, kind, "prefix_of_another", K, seed=K + 4)
    rows = list(RNG(K).standard_normal((3, K, victim.emb_dim)))
    rows[1] = rows[0].copy()
    loss, grads = victim.prefix_rows_grads(*_args(batch), rows)
    g = Graph()
    want_loss, want_grads = victim._graph_rows_grads(g, victim.lift(g),
                                                     *_args(batch), rows)
    assert loss == want_loss
    assert len(grads) == len(want_grads) == 3
    for got, want in zip(grads, want_grads):
        assert got.shape == (K, victim.emb_dim)
        assert _close(got, want, kind == "bag")
        assert np.all(np.any(want != 0.0, axis=1))


@pytest.mark.parametrize("kind,case,message", [
    ("lstm2", "gates", "op 'lstm_cell' produced non-finite gates"),
    ("pair", "gates", "op 'lstm_cell' produced non-finite gates"),
    ("lstm2", "logits", "op 'matmul' produced a non-finite value"),
    ("bag", "fc1", "op 'matmul' produced a non-finite value"),
    ("pair", "fc1", "op 'matmul' produced a non-finite value"),
    ("lstm2", "ce", "op 'cross_entropy' produced a non-finite value"),
    ("lstm2", "grad", GRAD_ERROR.format("lstm_cell")),
    ("bag", "grad", GRAD_ERROR.format("matmul")),
    ("pair", "grad", GRAD_ERROR.format("lstm_cell"))])
def test_prefix_rows_grads_raise_the_graph_error(vocab, kind, case,
                                                 message):
    """K = 2 slices with embedding rows as the prefix; for the CE and the
    gradient-only overflow, each text's least likely class."""
    victim = _overflowing_victim(vocab, kind, case)
    texts = [vocab.encode(t) for t in TRIE_BATCHES["prefix_of_another"]]
    premises = ([vocab.encode(p) for p in TRIE_PREMISES]
                if kind == "pair" else None)
    emb = victim.weights["emb"].data
    trig = [vocab.encode(["nobody", "dull"]), vocab.encode(["the", "dog"])]
    rows = [emb[[a, b]] for a, b in zip(*trig)]
    labels = np.zeros(len(texts), np.int64)
    with np.errstate(all="ignore"):
        if case in ("ce", "grad"):
            labels = np.concatenate([
                victim.logits_batch(texts[:2], premises and premises[:2],
                                    prefix=trig[0]),
                victim.logits_batch(texts[2:], premises and premises[2:],
                                    prefix=trig[1])]).argmin(axis=1)
        with pytest.raises(NumericError) as want:
            g = Graph()
            victim._graph_rows_grads(g, victim.lift(g), texts, premises,
                                     labels, rows)
        with pytest.raises(NumericError) as got:
            victim.prefix_rows_grads(texts, premises, labels, rows)
    assert str(want.value) == str(got.value) == message


@pytest.mark.parametrize("kind", ["lstm2", "pair"])
def test_build_loss_raises_the_graph_error(vocab, kind):
    """An overflowing gate raises from build_loss what the graph
    composition raised."""
    victim = _overflowing_victim(vocab, kind, "gates")
    models = _models(vocab, kind)
    models = AttackModels(models.generator, victim, models.lm,
                          models.allowed_mask)
    batch = _sliced(vocab, kind, "same_first", 2, seed=3)
    cfg = AttackConfig(attacked_class=1, trigger_length=2)
    n0 = RNG(8).standard_normal((2, models.generator.noise_dim))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError) as want:
            _ascent_loss(lambda *a, **kw: _graph_build_loss(models, *a, **kw),
                         models, batch, n0, True, cfg)
        with pytest.raises(NumericError) as got:
            _ascent_loss(models.build_loss, models, batch, n0, True, cfg)
    assert str(want.value) == str(got.value) == \
        "op 'lstm_cell' produced non-finite gates"


def test_ascent_batches_leave_the_memo_to_scoring(vocab):
    """The ascent's one-off batches do not go through `_prepared`: after
    12 steps of fresh batches, every candidate's m1 after the first reads
    the dev subset's memo entry."""
    models = _models(vocab, "lstm2")
    dev = _live_examples(vocab, "lstm2", range(len(LIVE_TEXTS)))
    cfg = AttackConfig(attacked_class=1, trigger_length=2, steps=12,
                       batch_size=2)
    _prepared.cache_clear()
    run_candidates([3, 14, 15], dev, models, cfg)
    info = _prepared.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    accuracy_under_trigger(models.victim, dev, ["the"], 1)
    assert _prepared.cache_info().hits == 3


# ---------------------------------------------------------------------------
# live rows against the full-row reference, gradients of every leaf


# text lengths 4, 2, 5, 3: the longest is unique, so the last step has
# one live row (numpy's gemv path), and the sort moves every row
LIVE_TEXTS = [["the", "movie", "was", "wonderful"], ["a", "dog"],
              ["nobody", "said", "it", "was", "fresh"],
              ["this", "film", "felt"]]
LIVE_PREMISES = [["a", "dog", "sleeps"], ["the", "plot", "was", "awful"],
                 ["a", "man"], ["nobody", "said", "it", "was", "fresh"]]
EQUAL_TEXTS = [["the", "movie", "was", "wonderful"],
               ["the", "plot", "was", "awful"],
               ["a", "man", "is", "running"]]


def _victim_run(victim, forward, texts, premises, n_prefix, seed):
    """Logits, loss and the gradients of every weight and prefix row of
    one victim forward with a trainable prefix and embedding noise."""
    vocab = victim.vocab
    texts = [vocab.encode(t) for t in texts]
    premises = ([vocab.encode(p) for p in premises]
                if victim.kind == "pair" else None)
    r = RNG(seed)
    noise = 0.3 * r.standard_normal((max(map(len, texts)), len(texts),
                                     victim.emb_dim))
    rows = r.standard_normal((n_prefix, victim.emb_dim))
    g = Graph()
    P = victim.lift(g, trainable=victim.weights)
    prefix = [g.leaf(row[None, :], requires_grad=True) for row in rows]
    ids, lengths = pad_batch(texts, vocab.pad_id)
    prem = pad_batch(premises, vocab.pad_id) if premises else None
    logits = forward(g, P, prefix, ids, lengths, noise, prem)
    loss = gc.cross_entropy(logits, r.integers(0, victim.n_classes,
                                               len(texts)))
    grads = gc.backward(g, loss)
    named = {name: grads[node.idx] for name, node in P.items()}
    named.update({f"prefix{k}": grads[leaf.idx]
                  for k, leaf in enumerate(prefix)})
    return logits.value, float(loss.value), named, len(g)


def _both(victim, texts, premises, n_prefix, seed=5):
    return [_victim_run(victim, forward, texts, premises, n_prefix, seed)
            for forward in (victim.forward_embs,
                            lambda *a: _ref_forward(victim, *a))]


@pytest.mark.parametrize("kind", ["lstm2", "pair"])
@pytest.mark.parametrize("n_prefix", [0, 3])
def test_live_rows_match_full_row_reference(vocab, kind, n_prefix):
    victim = _victim(vocab, kind)
    got, want = _both(victim, LIVE_TEXTS, LIVE_PREMISES, n_prefix)
    (got_logits, got_loss, got_grads, _), (want_logits, want_loss,
                                           want_grads, _) = got, want
    assert np.array_equal(got_logits.argmax(axis=1),
                          want_logits.argmax(axis=1))
    assert rel_err(got_logits, want_logits) <= TOL
    assert rel_err(got_loss, want_loss) <= TOL
    assert got_grads.keys() == want_grads.keys()
    for name, grad in want_grads.items():
        assert rel_err(got_grads[name], grad) <= TOL, name
        assert np.any(grad != 0.0), name


@pytest.mark.parametrize("kind", ["lstm2", "pair"])
def test_equal_lengths_without_prefix_run_the_same_ops(vocab, kind):
    """Nothing to sort and no prefix: the same ops in the same order as
    the reference, so every value and gradient is bit-identical."""
    victim = _victim(vocab, kind)
    got, want = _both(victim, EQUAL_TEXTS, EQUAL_TEXTS[::-1], 0)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    for name, grad in want[2].items():
        assert np.array_equal(got[2][name], grad), name
    assert got[3] == want[3]


def test_arae_encode_is_bit_identical_to_keep_masked_reference(vocab):
    """The encoder steps every row and reads each text's last state, so
    values and gradients equal the keep-masked reference bit for bit."""
    model = ARAEModel(vocab, emb_dim=8, hidden_dim=12, latent_dim=10,
                      noise_dim=6, gen_hidden=10, critic_hidden=9, seed=3)
    ids, lengths = pad_batch([vocab.encode(t) for t in LIVE_TEXTS],
                             vocab.pad_id)
    w = RNG(6).standard_normal((len(LIVE_TEXTS), model.latent_dim))
    out = []
    for encode in (model.encode, lambda *a: _ref_encode(model, *a)):
        g = Graph()
        P = model.lift(g, trainable=model.weights)
        z = encode(g, P, ids, lengths)
        loss = gc.mean_all(gc.mul(z, g.constant(w)))
        grads = gc.backward(g, loss)
        out.append((z.value, {name: grads[node.idx]
                              for name, node in P.items()}))
    (got_z, got_grads), (want_z, want_grads) = out
    assert np.array_equal(got_z, want_z)
    assert got_grads.keys() == want_grads.keys()
    for name, grad in want_grads.items():
        assert np.array_equal(got_grads[name], grad), name
        assert np.any(grad != 0.0), name


# ---------------------------------------------------------------------------
# K candidates as the rows of one graph against K one-row graphs


# three candidates' slices of LIVE_TEXTS (lengths 4 2, 5 3, 3 2): sorted
# together, the longest text is unique, so the last step has one live row
SLICES = [[0, 1], [2, 3], [3, 1]]


class _Recording:
    """A generator that keeps each uniform draw it makes."""

    def __init__(self, seed):
        self.rng, self.draws = RNG(seed), []

    def random(self, shape):
        u = self.rng.random(shape)
        self.draws.append(u)
        return u


def _live_examples(vocab, kind, rows):
    return [Example(label=1, text=vocab.encode(LIVE_TEXTS[i]),
                    premise=(vocab.encode(LIVE_PREMISES[i])
                             if kind == "pair" else None))
            for i in rows]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("hard", [True, False])
def test_k_rows_match_one_candidate_at_a_time(vocab, kind, hard):
    """Each noise row's gradient is its own candidate's, as from a graph
    of that candidate alone, and each row draws the same Gumbel noise."""
    models = _models(vocab, kind)
    cfg = AttackConfig(attacked_class=1, trigger_length=3)
    slices = [_live_examples(vocab, kind, rows) for rows in SLICES]
    K = len(slices)
    n0 = RNG(8).standard_normal((K, models.generator.noise_dim))
    g = Graph()
    leaf = g.leaf(n0, requires_grad=True)
    rngs = [_Recording(30 + k) for k in range(K)]
    loss = models.build_loss(g, leaf, [ex for s in slices for ex in s], 0.7,
                             rngs, cfg, hard=hard)
    grad = gc.backward(g, loss)[leaf.idx]
    total = 0.0
    for k, batch in enumerate(slices):
        solo = _Recording(30 + k)
        g1 = Graph()
        leaf1 = g1.leaf(n0[k:k + 1], requires_grad=True)
        ref = _ref_build_loss(models, g1, leaf1, batch, 0.7, solo, cfg,
                              hard=hard)
        want = gc.backward(g1, ref)[leaf1.idx]
        assert rel_err(grad[k:k + 1], want) <= TOL, k
        assert np.any(want != 0.0)
        assert len(rngs[k].draws) == len(solo.draws) == cfg.trigger_length
        for got_u, want_u in zip(rngs[k].draws, solo.draws):
            assert np.array_equal(got_u, want_u)
        total += float(ref.value)
    assert rel_err(float(loss.value), total) <= TOL


@pytest.mark.parametrize("kind", KINDS)
def test_run_candidates_match_run_candidate(vocab, kind):
    """Climbing together changes no candidate's trigger, m1 or m2."""
    models = _models(vocab, kind)
    dev = _live_examples(vocab, kind, range(len(LIVE_TEXTS)))
    cfg = AttackConfig(attacked_class=1, trigger_length=2, eps=1.0, eta=0.5,
                       steps=3, batch_size=3, normalize_gradient=True)
    seeds = [3, 14, 15]
    for seed, got in zip(seeds, run_candidates(seeds, dev, models, cfg)):
        want = run_candidate(seed, dev, models, cfg)
        assert got.init_seed == want.init_seed == seed
        assert got.tokens == want.tokens
        assert got.m1 == want.m1 and got.m2 == want.m2
        assert rel_err(got.n_final.data, want.n_final.data) <= 1e-10


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


def _corpus_ce_reference(lm, examples):
    """lm_corpus_ce as a token-weighted sum of graph batch_ce values, one
    graph per chunk of LM_EVAL_BATCH."""
    tot_ce, tot_tok = 0.0, 0
    for lo in range(0, len(examples), LM_EVAL_BATCH):
        texts = [ex.text for ex in examples[lo : lo + LM_EVAL_BATCH]]
        g = Graph()
        n = sum(len(t) for t in texts)
        tot_ce += float(lm.batch_ce(g, lm.lift(g), texts).value) * n
        tot_tok += n
    return tot_ce / tot_tok


def test_lm_corpus_ce_is_graph_batch_ce(vocab):
    """Mixed lengths, 1-token texts, OOV words and more than one chunk."""
    lm = _trained_like_lm(vocab)
    r = RNG(21)
    words = sorted({w for s in SENTENCES for w in s}) + ["qqqq", "zzzz"]
    texts = [["said"], ["qqqq"]] + [
        list(r.choice(words, size=int(r.integers(1, 9))))
        for _ in range(LM_EVAL_BATCH + 40)]
    examples = [Example(label=0, text=vocab.encode(t)) for t in texts]
    assert any(vocab.unk_id in ex.text for ex in examples)
    for chunk in (examples[:7], examples):
        assert lm_corpus_ce(lm, chunk) == _corpus_ce_reference(lm, chunk)


def _overflowing_lm(vocab, case):
    """An LM whose scoring of `the movie was wonderful` first turns
    non-finite at the gates, the logits, the CE or the embedding table. A
    bias of 50 saturates every gate, so each h unit lies in [tanh(1), 1)
    from the first step on, and a weight column of +-x sets that column's
    logits near +-x * H."""
    lm = _trained_like_lm(vocab)
    w = {name: t.data for name, t in lm.weights.items()}
    col = vocab.stoi
    if case == "emb":
        w["emb"][col["movie"]] = np.inf
        return lm
    w["lstm.b"][:] = 50.0
    if case == "gates":
        w["lstm.hh"][:] = 1e308  # h @ w_hh overflows at the second step
    elif case == "logits":
        # -inf at a token no step targets: the CE alone would stay finite
        w["out.w"][:, col["dog"]] = -1e308
    else:
        # finite logits whose spread overflows the log-softmax of `the`
        w["out.w"][:, col["the"]] = -1.5e307
        w["out.w"][:, col["dog"]] = 1.5e307
    return lm


@pytest.mark.parametrize("case,message", [
    ("gates", "op 'lstm_cell' produced non-finite gates"),
    ("logits", "op 'matmul' produced a non-finite value"),
    ("ce", "op 'cross_entropy' produced a non-finite value"),
    ("emb", "op 'embed' produced a non-finite value")])
def test_forward_ce_raises_the_graph_error(vocab, case, message):
    lm = _overflowing_lm(vocab, case)
    tokens = ["the", "movie", "was", "wonderful"]
    texts = [vocab.encode(tokens), vocab.encode(["said"])]
    g = Graph()
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError) as want:
            lm.batch_ce(g, lm.lift(g), texts)
        with pytest.raises(NumericError) as got_one:
            lm.avg_ce(tokens)
        with pytest.raises(NumericError) as got_corpus:
            lm_corpus_ce(lm, [Example(label=0, text=t) for t in texts])
    assert str(want.value) == message
    assert str(got_one.value) == str(got_corpus.value) == message


@pytest.mark.parametrize("bad", [-1, "V"])
def test_forward_ce_rejects_ids_as_the_graph_does(vocab, bad):
    lm = _trained_like_lm(vocab)
    bad = len(vocab) if bad == "V" else bad
    texts = [[vocab.stoi["the"], bad, vocab.stoi["movie"]]]
    g = Graph()
    with pytest.raises(ContractViolation) as want:
        lm.batch_ce(g, lm.lift(g), texts)
    with pytest.raises(ContractViolation) as got:
        lm.forward_ce(texts)
    assert str(got.value) == str(want.value)


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
                    {name: grads[node.idx] for name, node in P.items()}))
    (got_loss, got_grads), (want_loss, want_grads) = out
    assert got_loss == want_loss
    assert got_grads.keys() == want_grads.keys()
    for name in want_grads:
        assert np.array_equal(got_grads[name], want_grads[name]), name

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
both must raise the NumericError that `batch_ce` raises on a graph.

The attack climbs K candidates as the K rows of one graph. Each row's
gradient is checked against a graph of that candidate alone, built by the
reference (one-row decode, tiled prefix, full rows), within 1e-12
relative, and each row must draw the same Gumbel noise; `run_candidates`
must give each seed the trigger, m1 and m2 of `run_candidate`."""

import numpy as np
import pytest

from nutsearch import gradcore as gc
from nutsearch import textdata as td
from nutsearch.attack import (AttackConfig, AttackModels, run_candidate,
                              run_candidates)
from nutsearch.baselines import _trigger_loss
from nutsearch.errors import ContractViolation, NumericError
from nutsearch.gradcore import Graph, Tensor
from nutsearch.models import (ARAEModel, ScoringLM, VictimClassifier,
                              pad_batch, step_masks)
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
    got_loss, got_grads = _trigger_loss(victim, trig, batch, True)
    exact = kind == "bag"
    assert _close(got_loss, want_loss, exact)
    assert len(got_grads) == len(want_grads) == 3
    for got, want in zip(got_grads, want_grads):
        assert _close(got, want, exact)
    assert np.any(np.concatenate(got_grads) != 0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_trigger_loss_without_grads_is_bit_identical(vocab, kind):
    """The loss-only evaluation, whose graph holds no backward closures,
    gives the loss of the gradient evaluation bit for bit."""
    victim = _victim(vocab, kind)
    batch = _batch(vocab, kind)
    trig = vocab.encode(["nobody", "dull", "the"])
    loss, grads = _trigger_loss(victim, trig, batch, False)
    assert grads is None
    assert loss == _trigger_loss(victim, trig, batch, True)[0]


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
                    len(g)))
    (got_loss, got_grad, got_nodes), (want_loss, want_grad, want_nodes) = out
    exact = kind == "bag"
    assert _close(got_loss, want_loss, exact)
    assert _close(got_grad, want_grad, exact)
    assert np.any(got_grad != 0.0)
    if exact:
        assert got_nodes == want_nodes


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

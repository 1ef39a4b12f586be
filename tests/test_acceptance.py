"""Top-level acceptance gates for the trigger-search workbench.

Each test checks one end-to-end guarantee and prints a single
``[PASS]/[FAIL]`` line with the measured numbers, so a verbose run of this
file doubles as a scoreboard. Heavy artifacts (the trained models, the main
attack run, and the baseline runs) are shared through module fixtures; the
trained models come from the session fixtures in conftest.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import fd_grad, rel_err

import nutsearch.gradcore as gc
from nutsearch.attack import (AttackConfig, AttackModels, TriggerCandidate,
                              nuts_attack, rerank, write_candidates)
from nutsearch.baselines import (TokenGradientConfig, random_arae_attack,
                                 random_sequence_attack,
                                 token_gradient_attack)
from nutsearch.checkpoint import load_checkpoint, save_checkpoint
from nutsearch.evaluation import (accuracy_under_trigger, candidate_stats,
                                  transfer_eval)
from nutsearch.gradcore import Graph, Tensor
from nutsearch.models import ARAEModel, ScoringLM, VictimClassifier
from nutsearch.textdata import build_vocab, intersect_vocab, sentiment_lexicon

RNG = np.random.default_rng

ATTACKED_CLASS = 1
TRIGGER_LEN = 3
N_CANDIDATES = 32

# the pinned end-to-end attack configuration: short schedule, 32 restarts,
# unit-length normalized ascent steps inside an eps=10 noise ball
ATTACK_CFG = dict(attacked_class=ATTACKED_CLASS, trigger_length=TRIGGER_LEN,
                  eps=10.0, eta=0.5, steps=200, n_inits=N_CANDIDATES,
                  lam=0.05, batch_size=32, seed=0, normalize_gradient=True)

OP_TOL = 1e-4          # single-op gradient vs central differences
PIPELINE_TOL = 1e-3    # full noise -> loss gradient vs central differences
TV_TOL = 0.02          # total variation, sample frequencies vs softmax
DROP_MIN = 0.30        # required attacked-class test accuracy drop
CLEAN_MIN = 0.95       # required clean dev accuracy
GAP_MAX = 0.10         # dev/test attacked-accuracy gap
TRANSFER_DROP_MIN = 0.10


def _gate(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared end-to-end run
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def e2e(sentiment_data, lstm2_sentiment, bag_sentiment, lm_sentiment,
        arae_sentiment):
    split, _ = sentiment_data
    victim, _ = lstm2_sentiment
    bag, _ = bag_sentiment
    lm, _ = lm_sentiment
    gen, _ = arae_sentiment
    mask = intersect_vocab(victim.vocab, gen.vocab,
                           exclude=sentiment_lexicon())
    models = AttackModels(gen, victim, lm, mask)
    dev_subset = [ex for ex in split.dev if ex.label == ATTACKED_CLASS]
    cfg = AttackConfig(**ATTACK_CFG)

    t0 = time.perf_counter()
    nuts_sel, nuts_all = nuts_attack(models, dev_subset, cfg)
    attack_seconds = time.perf_counter() - t0

    labels = np.array([ex.label for ex in split.dev])
    preds = victim.predict([list(ex.text) for ex in split.dev])
    clean_dev_acc = float(np.mean(preds == labels))
    clean_test_cls = accuracy_under_trigger(victim, split.test, [],
                                            ATTACKED_CLASS)
    m1_test = accuracy_under_trigger(victim, split.test, nuts_sel.tokens,
                                     ATTACKED_CLASS)

    # baselines at the same 32-candidate budget, same seed
    rarae_sel, _ = random_arae_attack(gen, victim, lm, dev_subset,
                                      N_CANDIDATES, TRIGGER_LEN, mask, seed=0)
    rseq_sel, _ = random_sequence_attack(gen.vocab, mask, victim, lm,
                                         dev_subset, N_CANDIDATES,
                                         TRIGGER_LEN, seed=0)
    # first-order token search capped at the same number of true dev-loss
    # evaluations: 1 filler eval + 3 positions x top 10 swaps = 31 <= 32
    vmask = np.zeros(len(victim.vocab), dtype=bool)
    for gid in np.flatnonzero(mask):
        vmask[victim.vocab.stoi[gen.vocab.itos[gid]]] = True
    tg_tokens, _ = token_gradient_attack(
        victim, dev_subset, TRIGGER_LEN, vmask,
        TokenGradientConfig(top_k=10, beam_width=1, max_sweeps=1))
    tg_m1 = accuracy_under_trigger(victim, split.dev, tg_tokens,
                                   ATTACKED_CLASS)

    t1 = time.perf_counter()
    bag_transfer = transfer_eval(nuts_sel.tokens, bag, split.test,
                                 ATTACKED_CLASS)
    transfer_seconds = time.perf_counter() - t1

    return SimpleNamespace(
        models=models, cfg=cfg, dev_subset=dev_subset,
        nuts_sel=nuts_sel, nuts_all=nuts_all,
        attack_seconds=attack_seconds, clean_dev_acc=clean_dev_acc,
        clean_test_cls=clean_test_cls, m1_test=m1_test,
        rarae_sel=rarae_sel, rseq_sel=rseq_sel,
        tg_tokens=tg_tokens, tg_m1=tg_m1,
        bag_transfer=bag_transfer, transfer_seconds=transfer_seconds)


# ---------------------------------------------------------------------------
# 1. every autodiff op, and the full noise -> loss pipeline, match central
#    finite differences
# ---------------------------------------------------------------------------

def _op_cases():
    """One FD check per differentiable op, plus extra cases where the two
    arguments have structurally different gradients."""
    r = RNG(12345)
    M = r.standard_normal((3, 4))
    W34 = r.standard_normal((3, 4))
    W43 = r.standard_normal((4, 3))
    W32 = r.standard_normal((3, 2))
    W42 = r.standard_normal((4, 2))
    W25 = r.standard_normal((2, 5))
    W35 = r.standard_normal((3, 5))
    W4 = r.standard_normal(4)
    W3 = r.standard_normal(3)
    bias = r.standard_normal(4)
    s3 = r.standard_normal(3)
    ids = np.array([0, 2, 2, 4, 1])
    Wids = r.standard_normal((5, 3))
    targets = np.array([0, 2, 1, 1])
    cweights = np.array([1.0, 0.0, 2.0, 0.5])

    def wsum(node, w):
        return gc.mean_all(gc.mul(node, node.graph.constant(w)))

    pos34 = r.uniform(0.8, 2.0, (3, 4))
    away34 = np.where(np.abs(M) < 0.3, np.sign(M) * 0.5 + M, M)

    # lstm_cell parents: x (B x E), state (B x 2H), w_ih, w_hh, b; H = 2
    cell_args = [r.standard_normal(shape)
                 for shape in ((3, 2), (3, 4), (2, 8), (2, 8), (8,))]

    def cell_case(pos, live):
        def build(g, l):
            args = [l if k == pos else g.constant(v)
                    for k, v in enumerate(cell_args)]
            return wsum(gc.lstm_cell(*args, live=live), W34)
        return build

    cell_cases = [(f"lstm_cell/{part}" + ("" if live is None else "/live"),
                   cell_args[pos], cell_case(pos, live))
                  for pos, part in enumerate(("x", "state", "w_ih", "w_hh", "b"))
                  for live in (None, 2)]

    return [
        ("add/a", M, lambda g, l: wsum(gc.add(l, g.constant(W34)), W34)),
        ("add/b", M, lambda g, l: wsum(gc.add(g.constant(W34), l), W34)),
        ("sub/a", M, lambda g, l: wsum(gc.sub(l, g.constant(W34)), W34)),
        ("sub/b", M, lambda g, l: wsum(gc.sub(g.constant(W34), l), W34)),
        ("add_bias/matrix", M,
         lambda g, l: wsum(gc.add_bias(l, g.constant(bias)), W34)),
        ("add_bias/bias", bias,
         lambda g, l: wsum(gc.add_bias(g.constant(M), l), W34)),
        ("mul/a", M, lambda g, l: gc.mean_all(gc.mul(l, g.constant(W34)))),
        ("mul/b", M, lambda g, l: gc.mean_all(gc.mul(g.constant(W34), l))),
        ("scale", M, lambda g, l: wsum(gc.scale(l, -1.7), W34)),
        ("add_const", M, lambda g, l: wsum(gc.add_const(l, 0.9), W34)),
        ("rows_scale/matrix", M,
         lambda g, l: wsum(gc.rows_scale(l, g.constant(s3)), W34)),
        ("rows_scale/scales", s3,
         lambda g, l: wsum(gc.rows_scale(g.constant(M), l), W34)),
        ("reciprocal", pos34,
         lambda g, l: wsum(gc.reciprocal(l), W34)),
        ("matmul/a", M,
         lambda g, l: wsum(gc.matmul(l, g.constant(W42)), W32)),
        ("matmul/b", W42,
         lambda g, l: wsum(gc.matmul(g.constant(M), l), W32)),
        ("transpose", M, lambda g, l: wsum(gc.transpose(l), W43)),
        ("tanh", M, lambda g, l: wsum(gc.tanh(l), W34)),
        ("sigmoid", M, lambda g, l: wsum(gc.sigmoid(l), W34)),
        ("absolute", away34, lambda g, l: wsum(gc.absolute(l), W34)),
        ("sqrt", pos34, lambda g, l: wsum(gc.sqrt(l), W34)),
        ("softmax/rows", M,
         lambda g, l: wsum(gc.softmax(l, axis=-1), W34)),
        ("softmax/cols", M,
         lambda g, l: wsum(gc.softmax(l, axis=0), W34)),
        ("embed", Wids,
         lambda g, l: wsum(gc.embed(l, ids), RNG(9).standard_normal((5, 3)))),
        ("concat/axis1", M,
         lambda g, l: wsum(gc.concat([l, g.constant(W32)], axis=1),
                           RNG(10).standard_normal((3, 6)))),
        ("concat/axis0", M,
         lambda g, l: wsum(gc.concat([g.constant(W34), l], axis=0),
                           RNG(11).standard_normal((6, 4)))),
        ("narrow", M,
         lambda g, l: wsum(gc.narrow(l, 1, 1, 2), W32)),
        ("mean_all", M, lambda g, l: gc.mean_all(l)),
        ("sum_axis/0", M, lambda g, l: wsum(gc.sum_axis(l, 0), W4)),
        ("sum_axis/1", M, lambda g, l: wsum(gc.sum_axis(l, 1), W3)),
        ("cross_entropy", W43,
         lambda g, l: gc.cross_entropy(l, targets)),
        ("cross_entropy/weighted", W43,
         lambda g, l: gc.cross_entropy(l, targets, cweights)),
        ("tile_rows", M[:1],
         lambda g, l: wsum(gc.tile_rows(l, 3), W34)),
        # hard arg recomputed from the live leaf value, so the forward
        # numerically equals the soft path and FD sees the pass-through grad
        ("straight_through", M,
         lambda g, l: wsum(gc.straight_through(
             gc.softmax(l, axis=-1),
             _softmax_rows(l.value)), W34)),
        ("gumbel_soft", W35,
         lambda g, l: wsum(gc.gumbel_softmax(l, tau=0.7, rngs=[RNG(6)] * 3,
                                             hard=False)[0], W35)),
    ] + cell_cases


def _softmax_rows(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@pytest.fixture(scope="module")
def fd_models():
    """Small random-weight models for the full-pipeline gradient check."""
    seqs = [["the", "movie", "was", "wonderful"],
            ["the", "plot", "was", "awful"],
            ["nobody", "said", "it", "was", "fresh"],
            ["this", "film", "felt", "dull"]]
    vocab = build_vocab(seqs)
    gen = ARAEModel(vocab, emb_dim=8, hidden_dim=12, latent_dim=10,
                    noise_dim=6, gen_hidden=10, critic_hidden=9, seed=3)
    victim = VictimClassifier(vocab, kind="lstm2", n_classes=2,
                              emb_dim=8, hidden_dim=10, seed=7)
    lm = ScoringLM(vocab, emb_dim=8, hidden_dim=10, seed=9)
    mask = np.ones(len(vocab), dtype=bool)
    from nutsearch.textdata import Example
    dev = [Example(label=1, text=vocab.encode(s)) for s in seqs]
    return AttackModels(gen, victim, lm, mask), dev


def test_gradients_match_finite_differences(e2e, fd_models):
    t0 = time.perf_counter()
    worst_name, worst = "", 0.0
    for name, x0, build in _op_cases():
        # fresh copy: FD perturbs the array in place, and the leaf must not
        # alias any array the build closes over as a constant
        x0 = np.array(x0, dtype=np.float64)
        g = Graph()
        leaf = g.leaf(x0, requires_grad=True)
        got = gc.backward(g, build(g, leaf))[leaf.idx]

        def f(x, build=build):
            g2 = Graph()
            return float(build(g2, g2.leaf(x)).value)

        err = rel_err(got, fd_grad(f, x0.copy()))
        if err > worst:
            worst_name, worst = name, err
    ops_ok = worst <= OP_TOL

    models, dev = fd_models
    cfg = AttackConfig(attacked_class=1, trigger_length=2, eps=1.0, eta=0.5,
                       steps=2, n_inits=2, lam=0.05, batch_size=2, seed=0)
    n0 = RNG(11).standard_normal((1, models.generator.noise_dim))

    def pipeline(x):
        g = Graph()
        leaf = g.leaf(x)
        loss = models.build_loss(g, leaf, dev[:2], tau=1.0, rngs=[RNG(5)],
                                 cfg=cfg, hard=False)
        return float(loss.value)

    g = Graph()
    leaf = g.leaf(n0, requires_grad=True)
    loss = models.build_loss(g, leaf, dev[:2], tau=1.0, rngs=[RNG(5)],
                             cfg=cfg, hard=False)
    got = gc.backward(g, loss)[leaf.idx]
    pipe_err = rel_err(got, fd_grad(pipeline, n0.copy()))
    pipe_ok = pipe_err <= PIPELINE_TOL

    dt = time.perf_counter() - t0
    _gate("gradient-suite", ops_ok and pipe_ok and dt < 60.0,
          f"worst op rel err {worst:.2e} ({worst_name}, tol {OP_TOL:.0e}), "
          f"pipeline rel err {pipe_err:.2e} (tol {PIPELINE_TOL:.0e}), "
          f"{dt:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. noise-ball projection: in-ball, interior identity, idempotence, and the
#    analytic case, over 1000 random instances
# ---------------------------------------------------------------------------

def test_noise_ball_projection_properties(e2e):
    t0 = time.perf_counter()
    r = RNG(202)
    in_ball = identity = idempotent = True
    interior_seen = exterior_seen = 0
    for _ in range(1000):
        dim = int(r.integers(1, 9))
        n0 = r.standard_normal((1, dim)) * float(r.uniform(0.5, 3.0))
        n = n0 + r.standard_normal((1, dim)) * float(r.uniform(0, 3))
        eps = float(r.uniform(0.1, 4.0))
        dist = float(np.linalg.norm(n - n0))
        p = gc.l2_project(n, n0, eps)
        in_ball &= float(np.linalg.norm(p - n0)) <= eps * (1.0 + 1e-12)
        if dist <= eps:
            interior_seen += 1
            identity &= np.array_equal(p, n)
        else:
            exterior_seen += 1
        pp = gc.l2_project(p, n0, eps)
        idempotent &= np.array_equal(pp, p)
    out = gc.l2_project(np.array([[3.0, 4.0]]), np.zeros((1, 2)), 2.5)
    analytic = np.array_equal(out, np.array([[1.5, 2.0]]))
    dt = time.perf_counter() - t0
    ok = (in_ball and identity and idempotent and analytic
          and interior_seen >= 100 and exterior_seen >= 100 and dt < 10.0)
    _gate("projection-suite", ok,
          f"1000 cases ({interior_seen} interior / {exterior_seen} exterior):"
          f" in_ball={in_ball} identity={identity} idempotent={idempotent}"
          f" analytic(3,4|eps=2.5)->(1.5,2.0)={analytic}, {dt:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 3. relaxed discrete sampling: hard-sample frequencies track the softmax
#    distribution, and the straight-through backward equals the soft backward
# ---------------------------------------------------------------------------

def test_gumbel_sampling_and_straight_through(e2e):
    t0 = time.perf_counter()
    row = RNG(99).standard_normal(5)
    n = 100_000
    g = Graph()
    logits = g.constant(np.tile(row, (n, 1)))
    _, sample = gc.gumbel_softmax(logits, tau=1.0, rngs=[RNG(8)] * n,
                                  hard=True)
    freq = sample.value.mean(axis=0)
    e = np.exp(row - row.max())
    p = e / e.sum()
    tv = 0.5 * float(np.abs(freq - p).sum())

    r = RNG(42)
    x = r.standard_normal((3, 7))
    w = r.standard_normal((3, 7))

    def grads(hard):
        g2 = Graph()
        leaf = g2.leaf(x, requires_grad=True)
        _, s = gc.gumbel_softmax(leaf, tau=0.5, rngs=[RNG(5)] * 3,
                                 hard=hard)
        return gc.backward(g2, gc.mean_all(gc.mul(s, g2.constant(w))))[
            leaf.idx]

    st_equal = np.array_equal(grads(True), grads(False))
    dt = time.perf_counter() - t0
    ok = tv <= TV_TOL and st_equal and dt < 30.0
    _gate("gumbel-suite", ok,
          f"TV(hard freq, softmax)={tv:.4f} (tol {TV_TOL}) over {n} draws, "
          f"straight-through backward == soft backward: {st_equal}, "
          f"{dt:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 4. selection guarantees: against the plain attack-strength argmin, the
#    reranked pick never wins on m1 and never loses on m2
# ---------------------------------------------------------------------------

def test_rerank_tradeoff_guarantees(e2e):
    t0 = time.perf_counter()
    r = RNG(77)
    words = ["the", "a", "film", "was", "never", "dull"]
    ok = True
    for case in range(200):
        size = int(r.integers(1, 21))
        cands = []
        for i in range(size):
            m1 = float(r.integers(0, 5)) / 4.0       # grid -> frequent ties
            m2 = float(r.integers(0, 25)) / 2.0
            toks = [words[int(j)] for j in r.integers(0, len(words), 3)]
            cands.append(TriggerCandidate(
                init_seed=i, n_final=Tensor(np.zeros(1)), tokens=toks,
                m1=m1, m2=m2, score=m1 + 0.05 * m2))
        best_m1 = min(cands, key=lambda c: (c.m1, tuple(c.tokens)))
        picked = rerank(cands, 0.05)
        ok &= best_m1.m1 <= picked.m1
        ok &= picked.m2 <= best_m1.m2
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    _gate("rerank-guarantees", ok,
          f"200 random candidate sets: m1(argmin m1) <= m1(reranked) and "
          f"m2(reranked) <= m2(argmin m1) held exactly, {dt:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# 5. the end-to-end attack: accurate clean victim, large accuracy drop under
#    the selected trigger, inside the wall-clock budget
# ---------------------------------------------------------------------------

def test_attack_degrades_victim_accuracy(e2e):
    drop = e2e.clean_test_cls - e2e.m1_test
    ok = (e2e.clean_dev_acc >= CLEAN_MIN and drop >= DROP_MIN
          and e2e.attack_seconds <= 600.0)
    _gate("end-to-end-attack", ok,
          f"clean dev acc {e2e.clean_dev_acc:.4f} (>= {CLEAN_MIN}), trigger "
          f"{e2e.nuts_sel.tokens} drops attacked-class test acc "
          f"{e2e.clean_test_cls:.4f} -> {e2e.m1_test:.4f} "
          f"(drop {drop:.4f} >= {DROP_MIN}), "
          f"attack {e2e.attack_seconds:.0f}s (<= 600s)")


# ---------------------------------------------------------------------------
# 6. attack-strength ordering across methods at an equal candidate budget
# ---------------------------------------------------------------------------

def test_attack_strength_ordering_across_methods(e2e):
    nuts, rarae = e2e.nuts_sel.m1, e2e.rarae_sel.m1
    rseq, tg = e2e.rseq_sel.m1, e2e.tg_m1
    ok = tg <= nuts <= rarae and nuts <= rseq
    _gate("baseline-ordering", ok,
          f"selected dev m1: token-gradient {tg:.4f} <= noise-search "
          f"{nuts:.4f} <= random-noise {rarae:.4f}; noise-search {nuts:.4f}"
          f" <= random-sequence {rseq:.4f} (budget {N_CANDIDATES})")


# ---------------------------------------------------------------------------
# 7. naturalness: the selected trigger scores no worse than the best random
#    token sequence under the scoring LM
# ---------------------------------------------------------------------------

def test_attack_naturalness_beats_random_sequences(e2e):
    ok = e2e.nuts_sel.m2 <= e2e.rseq_sel.m2
    _gate("naturalness-ordering", ok,
          f"selected m2 {e2e.nuts_sel.m2:.3f} ({e2e.nuts_sel.tokens}) <= "
          f"random-sequence m2 {e2e.rseq_sel.m2:.3f} "
          f"({e2e.rseq_sel.tokens})")


# ---------------------------------------------------------------------------
# 8. the dev-selected trigger generalizes: dev vs test attacked accuracy
# ---------------------------------------------------------------------------

def test_dev_test_consistency(e2e):
    gap = abs(e2e.nuts_sel.m1 - e2e.m1_test)
    ok = gap <= GAP_MAX
    _gate("dev-test-consistency", ok,
          f"attacked-class accuracy dev {e2e.nuts_sel.m1:.4f} vs test "
          f"{e2e.m1_test:.4f}, gap {gap:.4f} (<= {GAP_MAX})")


# ---------------------------------------------------------------------------
# 9. the trigger transfers to a held-out architecture
# ---------------------------------------------------------------------------

def test_trigger_transfers_to_held_out_model(e2e):
    tr = e2e.bag_transfer
    ok = tr.drop >= TRANSFER_DROP_MIN and e2e.transfer_seconds < 120.0
    _gate("transfer", ok,
          f"bag-of-embeddings victim: clean {tr.clean:.4f} -> attacked "
          f"{tr.attacked:.4f}, drop {tr.drop:.4f} (>= {TRANSFER_DROP_MIN}), "
          f"{e2e.transfer_seconds:.1f}s (< 120s)")


# ---------------------------------------------------------------------------
# 10. statistics fixtures are exact; checkpoints and candidate dumps are
#     bit-reproducible
# ---------------------------------------------------------------------------

def test_statistics_and_reproducibility(e2e, arae_sentiment, tmp_path):
    def c(m1, m2):
        return SimpleNamespace(m1=m1, m2=m2)

    s = candidate_stats([c(0.25, 2.0), c(0.75, 4.0)])
    stats_ok = (s["mean_m1"] == 0.5 and s["std_m1"] == 0.25
                and s["mean_m2"] == 3.0 and s["std_m2"] == 1.0
                and s["pearson"] == 1.0 and s["pearson_defined"])
    s2 = candidate_stats([c(0.25, 4.0), c(0.75, 2.0)])
    stats_ok &= s2["pearson"] == -1.0
    s3 = candidate_stats([c(1.0, 2.0), c(2.0, 4.0), c(3.0, 6.0)])
    stats_ok &= s3["pearson"] == 1.0

    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    gen, _ = arae_sentiment
    save_checkpoint(gen, p1, seed=7, config_hash="roundtrip")
    loaded, _ = load_checkpoint(p1)
    save_checkpoint(loaded, p2, seed=7, config_hash="roundtrip")
    ckpt_ok = p1.read_bytes() == p2.read_bytes()

    _, cands2 = nuts_attack(e2e.models, e2e.dev_subset, e2e.cfg)
    f1, f2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
    write_candidates(f1, e2e.nuts_all, kind="nuts", config_hash="rerun")
    write_candidates(f2, cands2, kind="nuts", config_hash="rerun")
    dump_ok = f1.read_bytes() == f2.read_bytes()

    ok = stats_ok and ckpt_ok and dump_ok
    _gate("stats-and-reproducibility", ok,
          f"analytic candidate stats exact: {stats_ok}, checkpoint "
          f"save->load->save bit-identical: {ckpt_ok}, attack re-run "
          f"candidate dump byte-identical: {dump_ok}")

"""Attack engine: projected step algebra, candidate determinism, ball
invariants, rerank selection, and parallel/sequential equivalence."""

import ctypes
import gc as cycle_collector
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import nutsearch.attack as attack_mod
from nutsearch import gradcore as gc
from nutsearch import textdata as td
from nutsearch.attack import (AttackConfig, AttackModels, TriggerCandidate,
                              attack_step, derive_init_seeds, nuts_attack,
                              rerank, run_candidate)
from nutsearch.errors import ContractViolation
from nutsearch.gradcore import Graph, Tensor, l2_project
from nutsearch.models import ARAEModel, ScoringLM, VictimClassifier
from nutsearch.textdata import Example

from helpers import fd_grad, rel_err, see_cpus

RNG = np.random.default_rng


def _blas_threads():
    """OpenBLAS's thread count in this process, or None without one."""
    fn = attack_mod._openblas_function("scipy_openblas_get_num_threads64_",
                                       "openblas_get_num_threads")
    if fn is None:
        return None
    fn.argtypes, fn.restype = [], ctypes.c_int
    return fn()


@pytest.fixture(scope="module")
def tiny_vocab():
    seqs = [["the", "movie", "was", "wonderful"],
            ["the", "plot", "was", "awful"],
            ["nobody", "said", "it", "was", "fresh"],
            ["this", "film", "felt", "dull"]]
    return td.build_vocab(seqs)


@pytest.fixture(scope="module")
def tiny_models(tiny_vocab):
    gen = ARAEModel(tiny_vocab, emb_dim=8, hidden_dim=12, latent_dim=10,
                    noise_dim=6, gen_hidden=10, critic_hidden=9, seed=3)
    victim = VictimClassifier(tiny_vocab, kind="lstm2", n_classes=2,
                              emb_dim=8, hidden_dim=10, seed=7)
    lm = ScoringLM(tiny_vocab, emb_dim=8, hidden_dim=10, seed=9)
    mask = np.ones(len(tiny_vocab), dtype=bool)
    return AttackModels(gen, victim, lm, mask)


@pytest.fixture(scope="module")
def tiny_dev(tiny_vocab):
    rows = [["the", "movie", "was", "wonderful"],
            ["the", "film", "was", "fresh"],
            ["this", "movie", "felt", "wonderful"],
            ["the", "plot", "was", "fresh"]]
    return [Example(label=1, text=tiny_vocab.encode(r)) for r in rows]


def _cfg(**kw):
    base = dict(attacked_class=1, trigger_length=2, eps=1.0, eta=0.5,
                steps=2, n_inits=2, lam=0.05, batch_size=2, seed=0)
    base.update(kw)
    return AttackConfig(**base)


class _ZeroLossModels:
    """Stub whose loss never depends on the noise: gradient is exactly 0."""

    def build_loss(self, g, leaf, batch, tau, rng, cfg, hard=True):
        zero = g.constant(np.zeros(leaf.value.shape))
        return gc.mean_all(gc.mul(leaf, zero))


class _IdentityLossModels:
    """Stub whose loss IS the (scalar) noise value."""

    def build_loss(self, g, leaf, batch, tau, rng, cfg, hard=True):
        return gc.mean_all(leaf)


class TestAttackConfig:
    def test_validation(self):
        with pytest.raises(ContractViolation):
            _cfg(eps=0.0)
        with pytest.raises(ContractViolation):
            _cfg(steps=-1)
        with pytest.raises(ContractViolation):
            _cfg(n_inits=0)
        with pytest.raises(ContractViolation):
            _cfg(lam=-0.1)
        with pytest.raises(ContractViolation):
            _cfg(trigger_length=0)

    @pytest.mark.parametrize("key", ["eps", "eta", "lam", "tau_start",
                                     "tau_end"])
    def test_nan_rejected(self, key):
        # every comparison with NaN is false, so a `v <= 0` check passes it
        with pytest.raises(ContractViolation, match=key):
            _cfg(**{key: float("nan")})

    def test_tau_schedule_geometric(self):
        cfg = _cfg(steps=5, tau_start=1.0, tau_end=0.1)
        taus = [cfg.tau_at(t) for t in range(5)]
        assert taus[0] == 1.0
        assert abs(taus[-1] - 0.1) < 1e-12
        ratios = [taus[i + 1] / taus[i] for i in range(4)]
        assert np.allclose(ratios, ratios[0])

    def test_tau_single_step(self):
        assert _cfg(steps=1).tau_at(0) == 1.0


class TestAttackStep:
    def test_zero_gradient_reduces_to_projection(self, tiny_dev):
        cfg = _cfg(eps=0.7, eta=3.0)
        n0 = Tensor(np.zeros((1, 4)))
        n_t = Tensor(np.full((1, 4), 0.2))
        got = attack_step(n_t, n0, tiny_dev, _ZeroLossModels(), cfg)
        want = l2_project(n_t.data, n0.data, cfg.eps)
        assert np.array_equal(got.data, want)

    def test_identity_pipeline_one_step_clips_at_ball(self, tiny_dev):
        cfg = _cfg(eps=0.5, eta=1.0)
        n0 = Tensor(np.zeros((1, 1)))
        got = attack_step(n0, n0, tiny_dev, _IdentityLossModels(), cfg)
        assert got.data.shape == (1, 1)
        assert abs(got.data[0, 0] - 0.5) < 1e-12

    def test_empty_batch_rejected(self, tiny_models):
        with pytest.raises(ContractViolation):
            attack_step(Tensor(np.zeros((1, 6))), Tensor(np.zeros((1, 6))),
                        [], tiny_models, _cfg())

    def test_noise_vector_rejected(self, tiny_models, tiny_dev):
        # the noise is (K, D) rows; a bare vector is no candidate
        n = Tensor(np.zeros(6))
        with pytest.raises(ContractViolation, match="matmul"):
            attack_step(n, n, tiny_dev[:1], tiny_models, _cfg())

    def test_batch_splits_into_one_slice_per_row(self, tiny_models,
                                                 tiny_dev):
        n = Tensor(RNG(11).standard_normal((2, 6)))
        with pytest.raises(ContractViolation, match="equal slices"):
            attack_step(n, n, tiny_dev[:3], tiny_models, _cfg(),
                        rngs=[RNG(1), RNG(2)])
        with pytest.raises(ContractViolation, match="2 latent rows"):
            attack_step(n, n, tiny_dev[:2], tiny_models, _cfg(),
                        rngs=[RNG(1)])

    def test_full_pipeline_gradient_matches_fd(self, tiny_models, tiny_dev):
        cfg = _cfg()
        n0 = RNG(11).standard_normal((1, 6))
        batch = tiny_dev[:2]

        def f(x):
            g = Graph()
            leaf = g.leaf(x)
            loss = tiny_models.build_loss(g, leaf, batch, tau=1.0,
                                          rngs=[RNG(5)], cfg=cfg, hard=False)
            return float(loss.value)

        g = Graph()
        leaf = g.leaf(n0, requires_grad=True)
        loss = tiny_models.build_loss(g, leaf, batch, tau=1.0, rngs=[RNG(5)],
                                      cfg=cfg, hard=False)
        got = gc.backward(g, loss)[leaf.idx]
        want = fd_grad(f, n0.copy(), h=1e-5)
        assert rel_err(got, want) <= 1e-3

    def test_build_loss_lifts_only_the_weights_it_reads(self, tiny_models,
                                                        tiny_dev):
        g = Graph()
        leaf = g.leaf(RNG(11).standard_normal((1, 6)), requires_grad=True)
        tiny_models.build_loss(g, leaf, tiny_dev[:2], tau=1.0,
                               rngs=[RNG(5)], cfg=_cfg())
        values = {id(e.value) for e in g._entries if e.kind == "leaf"}

        def lifted(model):  # a lifted weight's leaf holds its own array
            return {name for name, t in model.weights.items()
                    if id(t.data) in values}

        gen = tiny_models.generator
        unread = {n for n in gen.weights
                  if n == "emb_enc" or n.startswith(("enc.", "enc_proj.",
                                                     "critic."))}
        assert len(unread) == 10
        assert lifted(gen) == set(gen.weights) - unread
        # the victim's loss is one fused node, computed off the graph
        assert lifted(tiny_models.victim) == set()

    def test_loss_graph_freed_without_cycle_collector(self, tiny_models,
                                                      tiny_dev):
        # backward closures hold arrays and flags, never Nodes, so a graph
        # is no reference cycle and goes as soon as its last handle does
        def step():
            g = Graph()
            leaf = g.leaf(RNG(11).standard_normal((1, 6)), requires_grad=True)
            loss = tiny_models.build_loss(g, leaf, tiny_dev[:2], tau=1.0,
                                          rngs=[RNG(5)], cfg=_cfg())
            gc.backward(g, loss)
            return weakref.ref(g)

        was_enabled = cycle_collector.isenabled()
        cycle_collector.disable()
        try:
            assert step()() is None
        finally:
            if was_enabled:
                cycle_collector.enable()

    def test_normalized_gradient_step_length(self, tiny_dev):
        cfg = _cfg(eps=50.0, eta=0.25, normalize_gradient=True)
        n0 = Tensor(np.zeros((1, 3)))
        got = attack_step(n0, n0, tiny_dev, _IdentityLossModels(), cfg)
        # gradient of the mean is (1/3, 1/3, 1/3); normalized to unit length
        assert abs(np.linalg.norm(got.data) - 0.25) < 1e-12


class TestRunCandidate:
    def test_zero_steps_is_initial_decode(self, tiny_models, tiny_dev):
        cfg = _cfg(steps=0)
        cand = run_candidate(42, tiny_dev, tiny_models, cfg)
        init_ss, _ = np.random.SeedSequence(42).spawn(2)
        n0 = Tensor(RNG(init_ss).standard_normal((1, 6)))
        assert np.array_equal(cand.n_final.data, n0.data)
        assert cand.tokens == tiny_models.decode_trigger(n0, 2)
        assert cand.score == cand.m1 + cfg.lam * cand.m2

    def test_same_seed_same_candidate(self, tiny_models, tiny_dev):
        cfg = _cfg(steps=2)
        a = run_candidate(7, tiny_dev, tiny_models, cfg)
        b = run_candidate(7, tiny_dev, tiny_models, cfg)
        assert a.tokens == b.tokens
        assert a.m1 == b.m1 and a.m2 == b.m2
        assert np.array_equal(a.n_final.data, b.n_final.data)

    def test_every_step_stays_in_ball(self, tiny_models, tiny_dev,
                                      monkeypatch):
        cfg = _cfg(steps=4, eps=0.3, eta=10.0)
        seen = []
        real = attack_mod.attack_step

        def spy(n_t, n0, batch, models, c, tau=None, rngs=None):
            out = real(n_t, n0, batch, models, c, tau=tau, rngs=rngs)
            seen.append(float(np.linalg.norm(out.data - n0.data)))
            return out

        monkeypatch.setattr(attack_mod, "attack_step", spy)
        run_candidate(3, tiny_dev, tiny_models, cfg)
        assert len(seen) == 4
        assert all(d <= cfg.eps + 1e-9 for d in seen)

    def test_trigger_tokens_respect_mask_and_length(self, tiny_vocab,
                                                    tiny_models, tiny_dev):
        mask = np.zeros(len(tiny_vocab), dtype=bool)
        for t in ("movie", "plot", "nobody"):
            mask[tiny_vocab.stoi[t]] = True
        models = AttackModels(tiny_models.generator, tiny_models.victim,
                              tiny_models.lm, mask)
        cand = run_candidate(5, tiny_dev, models, _cfg(steps=1,
                                                       trigger_length=3))
        assert len(cand.tokens) == 3
        assert set(cand.tokens) <= {"movie", "plot", "nobody"}

    def test_wrong_class_subset_rejected(self, tiny_models, tiny_vocab):
        bad = [Example(label=0, text=tiny_vocab.encode(["the", "plot"]))]
        with pytest.raises(ContractViolation):
            run_candidate(1, bad, tiny_models, _cfg())

    def test_empty_subset_rejected(self, tiny_models):
        with pytest.raises(ContractViolation):
            run_candidate(1, [], tiny_models, _cfg())


def _cand(m1, m2, tokens=("a",), seed=0):
    return TriggerCandidate(init_seed=seed, n_final=Tensor(np.zeros(1)),
                            tokens=list(tokens), m1=m1, m2=m2,
                            score=m1 + 0.05 * m2)


class TestRerank:
    def test_documented_example(self):
        a, b = _cand(0.10, 9.0), _cand(0.12, 6.0)
        assert rerank([a, b], 0.05) is b

    def test_lambda_zero_is_pure_m1(self):
        a, b = _cand(0.10, 9.0), _cand(0.12, 6.0)
        assert rerank([a, b], 0.0) is a

    def test_single_candidate(self):
        a = _cand(0.5, 5.0)
        assert rerank([a], 0.05) is a

    def test_tie_breaks_to_lower_m1(self):
        a, b = _cand(0.2, 4.0), _cand(0.1, 6.0)  # scores both 0.4 at lam=0.05
        assert rerank([a, b], 0.05) is b

    def test_full_tie_breaks_lexicographic(self):
        a, b = _cand(0.1, 5.0, tokens=("b",)), _cand(0.1, 5.0, tokens=("a",))
        assert rerank([a, b], 0.05) is b

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            rerank([], 0.05)

    def test_dominance_theorems_random_sets(self):
        rng = RNG(0)
        for _ in range(100):
            cands = [_cand(float(rng.random()), float(10 * rng.random()))
                     for _ in range(rng.integers(2, 12))]
            best_m1 = min(cands, key=lambda c: (c.m1, c.m2, tuple(c.tokens)))
            pick = rerank(cands, 0.05)
            assert best_m1.m1 <= pick.m1 + 1e-15
            assert pick.m2 <= best_m1.m2 + 1e-15


class TestNutsAttack:
    def test_candidate_count_and_distinct_seeds(self, tiny_models, tiny_dev):
        cfg = _cfg(steps=1, n_inits=3)
        selected, cands = nuts_attack(tiny_models, tiny_dev, cfg)
        assert len(cands) == 3
        assert len({c.init_seed for c in cands}) == 3
        assert selected in cands

    def test_single_init_selects_it(self, tiny_models, tiny_dev):
        selected, cands = nuts_attack(tiny_models, tiny_dev,
                                      _cfg(steps=1, n_inits=1))
        assert len(cands) == 1 and selected is cands[0]

    def test_selection_is_rerank(self, tiny_models, tiny_dev):
        cfg = _cfg(steps=1, n_inits=3)
        selected, cands = nuts_attack(tiny_models, tiny_dev, cfg)
        assert selected is rerank(cands, cfg.lam)

    def test_parallel_equals_sequential(self, tiny_models, tiny_dev):
        # 10 restarts are two chunks, of 8 and 2
        assert attack_mod.CHUNK_SIZE == 8
        cfg = _cfg(steps=1, n_inits=10)
        _, seq = nuts_attack(tiny_models, tiny_dev, cfg, workers=1)
        _, par = nuts_attack(tiny_models, tiny_dev, cfg, workers=2)
        assert [c.init_seed for c in seq] == [c.init_seed for c in par]
        for a, b in zip(seq, par):
            assert a.tokens == b.tokens and a.m1 == b.m1 and a.m2 == b.m2
            assert np.array_equal(a.n_final.data, b.n_final.data)

    def test_pool_workers_run_one_blas_thread(self, tiny_models, tiny_dev,
                                              monkeypatch):
        threads = []

        class ProbingPool(ProcessPoolExecutor):
            def map(self, fn, jobs):
                threads.append(self.submit(_blas_threads).result())
                return super().map(fn, jobs)

        monkeypatch.setattr(attack_mod, "ProcessPoolExecutor", ProbingPool)
        nuts_attack(tiny_models, tiny_dev, _cfg(steps=1, n_inits=10),
                    workers=2)
        if threads == [None]:
            pytest.skip("NumPy loaded no OpenBLAS")
        assert threads == [1]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, tiny_models, tiny_dev,
                                        workers):
        with pytest.raises(ContractViolation):
            nuts_attack(tiny_models, tiny_dev, _cfg(n_inits=2),
                        workers=workers)

    @pytest.fixture
    def pool_log(self, monkeypatch):
        """The size of each pool nuts_attack makes, and the size of each
        chunk it maps; the chunks run in this process."""
        log = {"made": [], "chunks": []}

        class RecordingPool:
            def __init__(self, max_workers, initializer):
                log["made"].append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                jobs = list(jobs)
                log["chunks"].extend(len(seeds) for seeds, *_ in jobs)
                return map(fn, jobs)

        monkeypatch.setattr(attack_mod, "ProcessPoolExecutor", RecordingPool)
        return log

    def _check_pools(self, models, dev, pool_log, workers, n_inits, pools):
        cfg = _cfg(steps=1, n_inits=n_inits)
        _, got = nuts_attack(models, dev, cfg, workers=workers)
        _, want = nuts_attack(models, dev, cfg, workers=1)
        assert pool_log["made"] == pools
        if pools:
            assert pool_log["chunks"] == [8] * (n_inits // 8) + [n_inits % 8]
        assert [c.tokens for c in got] == [c.tokens for c in want]

    # the jobs are chunks of CHUNK_SIZE (8) seeds, so 3 seeds are one job
    # and run without a pool
    @pytest.mark.parametrize("workers,n_inits,pools", [
        (8, 3, []), (2, 3, []), (5, 1, []), (8, 20, [3]), (2, 10, [2])])
    def test_pool_never_larger_than_jobs(self, tiny_models, tiny_dev,
                                         pool_log, workers, n_inits, pools):
        self._check_pools(tiny_models, tiny_dev, pool_log, workers, n_inits,
                          pools)

    # by default, one process per CPU this process sees, but never more
    # than there are chunks
    @pytest.mark.parametrize("cpus,n_inits,pools", [
        (1, 20, []), (3, 20, [3]), (8, 10, [2])])
    def test_default_pool_follows_the_cpus(self, tiny_models, tiny_dev,
                                           pool_log, monkeypatch, cpus,
                                           n_inits, pools):
        see_cpus(monkeypatch, cpus)
        self._check_pools(tiny_models, tiny_dev, pool_log, None, n_inits,
                          pools)

    def test_derived_seeds_deterministic(self):
        assert derive_init_seeds(9, 5) == derive_init_seeds(9, 5)
        assert len(set(derive_init_seeds(9, 64))) == 64


class TestBenchmarkCalls:
    """The calls the benchmark (perfbench/) makes into the package, in its
    shapes: a renamed argument or a changed return would otherwise show
    only when the benchmark runs."""

    def test_setup_probe_warm_up_step(self, tiny_models, tiny_dev):
        # perfbench/setup_probe.py: one (1, D) row, tau and rngs defaulted
        cfg = AttackConfig(attacked_class=1, eta=0.5, normalize_gradient=True)
        n0 = Tensor(RNG(0).standard_normal(
            (1, tiny_models.generator.noise_dim)))
        out = attack_step(n0, n0, tiny_dev[:cfg.batch_size], tiny_models, cfg)
        assert isinstance(out, Tensor) and out.shape == n0.shape
        assert np.isclose(np.linalg.norm(out.data - n0.data), cfg.eta)

    def test_stages_search_attack(self, tiny_models, tiny_dev):
        # perfbench/stages.py's search: in-process, read as (selected,
        # candidates) with each candidate's seed, tokens, m1 and m2
        cfg = _cfg(steps=1, n_inits=3, seed=4)
        selected, candidates = attack_mod.nuts_attack(tiny_models, tiny_dev,
                                                      cfg, workers=1)
        assert ([c.init_seed for c in candidates]
                == derive_init_seeds(cfg.seed, cfg.n_inits))
        assert selected is rerank(candidates, cfg.lam)
        for c in candidates:
            assert c.tokens and all(isinstance(t, str) for t in c.tokens)
            assert np.isfinite(c.m1) and np.isfinite(c.m2)


class TestCandidateDump:
    def test_jsonl_round_trip(self, tmp_path):
        import json
        cands = [_cand(0.3, 2.0, tokens=("x", "y"), seed=4),
                 _cand(0.1, 5.0, tokens=("z", "w"), seed=8)]
        path = tmp_path / "cands.jsonl"
        attack_mod.write_candidates(path, cands, kind="nuts",
                                    config_hash="ff")
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert rows[0] == {"init_seed": 4, "tokens": ["x", "y"],
                           "m1_dev": 0.3, "m2": 2.0, "score": 0.4,
                           "kind": "nuts", "config_hash": "ff"}
        sel = tmp_path / "sel.json"
        attack_mod.write_selected(sel, cands[1], m1_test=0.05, kind="nuts",
                                  config_hash="ff")
        rec = json.loads(sel.read_text())
        assert rec["m1_test"] == 0.05 and rec["tokens"] == ["z", "w"]

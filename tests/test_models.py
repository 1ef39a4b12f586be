"""Model checks: gradient oracles through every forward path, decode
behavior, masking/batch invariance, and the zero-initialized LM."""

import numpy as np
import pytest

from nutsearch import gradcore as gc
from nutsearch import textdata as td
from nutsearch.errors import ContractViolation
from nutsearch.models import (ARAEModel, ScoringLM, VictimClassifier,
                              model_from_parts, pad_batch)

from helpers import fd_grad, rel_err

RNG = np.random.default_rng


@pytest.fixture(scope="module")
def tiny_vocab():
    seqs = [["the", "movie", "was", "wonderful"],
            ["the", "plot", "was", "awful"],
            ["nobody", "said", "it", "was", "fresh"],
            ["a", "man", "is", "running"]]
    return td.build_vocab(seqs)


@pytest.fixture(scope="module")
def tiny_arae(tiny_vocab):
    return ARAEModel(tiny_vocab, emb_dim=8, hidden_dim=12, latent_dim=10,
                     noise_dim=6, gen_hidden=10, critic_hidden=9, seed=3)


class _ZeroGumbel:
    """rng stub whose uniform draws make the Gumbel noise exactly zero."""

    def random(self, shape):
        return np.full(shape, np.exp(-1.0))


class TestLift:
    def test_weight_pushed_once_on_first_read(self, tiny_arae):
        g = gc.Graph()
        P = tiny_arae.lift(g, trainable=("gen.w1",))
        assert len(g) == 0
        w1, b1 = P["gen.w1"], P["gen.b1"]
        assert P["gen.w1"] is w1 and len(g) == 2
        assert set(P) == {"gen.w1", "gen.b1"}
        assert w1.requires_grad and not b1.requires_grad
        assert w1.value is tiny_arae.weights["gen.w1"].data


class TestARAE:
    def test_weights_deterministic_in_seed(self, tiny_vocab):
        a = ARAEModel(tiny_vocab, seed=5)
        b = ARAEModel(tiny_vocab, seed=5)
        c = ARAEModel(tiny_vocab, seed=6)
        assert all(np.array_equal(a.weights[k].data, b.weights[k].data)
                   for k in a.weights)
        assert any(not np.array_equal(a.weights[k].data, c.weights[k].data)
                   for k in a.weights)

    def test_encode_on_sphere(self, tiny_arae, tiny_vocab):
        ids, lengths = pad_batch([tiny_vocab.encode(["the", "movie", "was"]),
                                  tiny_vocab.encode(["a", "man"])],
                                 tiny_vocab.pad_id)
        g = gc.Graph()
        P = tiny_arae.lift(g)
        z = tiny_arae.encode(g, P, ids, lengths)
        norms = np.linalg.norm(z.value, axis=1)
        assert np.allclose(norms, tiny_arae.latent_scale, atol=1e-9)

    def test_generate_grad_matches_fd(self, tiny_arae):
        n0 = RNG(0).standard_normal((1, tiny_arae.noise_dim))
        w = RNG(1).standard_normal((1, tiny_arae.latent_dim))

        def build(g, x):
            z = tiny_arae.generate_node(g, tiny_arae.lift(g), x)
            return gc.mean_all(gc.mul(z, g.constant(w)))

        g = gc.Graph()
        leaf = g.leaf(n0, requires_grad=True)
        got = gc.backward(g, build(g, leaf))[leaf.idx]

        def f(x):
            g2 = gc.Graph()
            return float(build(g2, g2.leaf(x)).value)

        assert rel_err(got, fd_grad(f, n0.copy())) <= 1e-4

    def test_generate_inference_matches_node(self, tiny_arae):
        n = RNG(2).standard_normal((3, tiny_arae.noise_dim))
        z = tiny_arae.generate(n)
        g = gc.Graph()
        z2 = tiny_arae.generate_node(g, tiny_arae.lift(g), g.leaf(n))
        assert np.array_equal(z, z2.value)

    def test_critic_input_grad_matches_backward(self, tiny_arae):
        x = RNG(3).standard_normal((4, tiny_arae.latent_dim))
        g = gc.Graph()
        P = tiny_arae.lift(g)
        leaf = g.leaf(x, requires_grad=True)
        # the mean's gradient times the row count is each row's own
        score = gc.scale(gc.mean_all(tiny_arae.critic_score(g, P, leaf)),
                         len(x))
        want = gc.backward(g, score)[leaf.idx]
        got = tiny_arae.critic_input_grad(g, P, g.leaf(x)).value
        assert rel_err(got, want) <= 1e-12

    def test_decode_soft_shapes_and_mask(self, tiny_arae, tiny_vocab):
        mask = np.ones(len(tiny_vocab), dtype=bool)
        banned = tiny_vocab.stoi["movie"]
        mask[banned] = False
        g = gc.Graph()
        P = tiny_arae.lift(g)
        z = g.leaf(RNG(4).standard_normal((1, tiny_arae.latent_dim)))
        steps = tiny_arae.decode_soft(g, P, z, 4, tau=1.0, rngs=[RNG(5)],
                                      allowed_mask=mask, hard=True)
        assert len(steps) == 4
        for soft, sample in steps:
            assert sample.value.shape == (1, len(tiny_vocab))
            assert sample.value.sum() == 1.0
            chosen = int(sample.value.argmax())
            assert chosen != banned and chosen >= 4
            assert soft.value[0, banned] == 0.0
            assert soft.value[0, :4].max() == 0.0

    def test_decode_soft_zero_noise_cold_tau_equals_greedy(self, tiny_arae, tiny_vocab):
        mask = np.ones(len(tiny_vocab), dtype=bool)
        n = RNG(6).standard_normal((1, tiny_arae.noise_dim))
        z = tiny_arae.generate(n)
        greedy = tiny_arae.decode_greedy(z, 5, mask)
        g = gc.Graph()
        P = tiny_arae.lift(g)
        zn = g.leaf(z)
        steps = tiny_arae.decode_soft(g, P, zn, 5, tau=1e-3,
                                      rngs=[_ZeroGumbel()], allowed_mask=mask,
                                      hard=True)
        assert [int(s.value.argmax()) for _, s in steps] == greedy

    def test_decode_greedy_deterministic(self, tiny_arae, tiny_vocab):
        mask = np.ones(len(tiny_vocab), dtype=bool)
        z = tiny_arae.generate(RNG(7).standard_normal((1, tiny_arae.noise_dim)))
        assert tiny_arae.decode_greedy(z, 3, mask) == tiny_arae.decode_greedy(z, 3, mask)

    def test_decode_greedy_rejects_two_latent_rows(self, tiny_arae, tiny_vocab):
        mask = np.ones(len(tiny_vocab), dtype=bool)
        z = tiny_arae.generate(RNG(7).standard_normal((2, tiny_arae.noise_dim)))
        with pytest.raises(ContractViolation, match="concat"):
            tiny_arae.decode_greedy(z, 3, mask)

    def test_decode_until_eos_stops_or_caps(self, tiny_arae):
        z = tiny_arae.generate(RNG(8).standard_normal((1, tiny_arae.noise_dim)))
        toks = tiny_arae.decode_until_eos(z, max_len=7)
        assert len(toks) <= 7
        assert tiny_arae.vocab.eos_id not in toks
        assert tiny_arae.vocab.pad_id not in toks

    def test_generate_bad_shape(self, tiny_arae):
        with pytest.raises(ContractViolation):
            tiny_arae.generate(np.zeros((1, tiny_arae.noise_dim + 1)))
        with pytest.raises(ContractViolation):
            tiny_arae.generate(np.zeros(tiny_arae.noise_dim))


class TestVictims:
    def _data(self, vocab):
        texts = [vocab.encode(t) for t in
                 (["the", "movie", "was", "wonderful"],
                  ["the", "plot", "was", "awful"],
                  ["nobody", "said", "it", "was", "fresh"])]
        return texts

    @pytest.mark.parametrize("kind", ["lstm2", "bag"])
    def test_single_text_models(self, tiny_vocab, kind):
        m = VictimClassifier(tiny_vocab, kind, n_classes=2, emb_dim=8,
                             hidden_dim=10, seed=1)
        logits = m.logits_batch(self._data(tiny_vocab))
        assert logits.shape == (3, 2)
        assert np.array_equal(m.predict(self._data(tiny_vocab)),
                              logits.argmax(axis=1))

    def test_batch_invariance_under_padding(self, tiny_vocab):
        m = VictimClassifier(tiny_vocab, "lstm2", n_classes=2, emb_dim=8,
                             hidden_dim=10, seed=2)
        texts = self._data(tiny_vocab)
        solo = np.concatenate([m.logits_batch([t]) for t in texts], axis=0)
        together = m.logits_batch(texts)
        assert np.allclose(solo, together, atol=1e-12)

    def test_soft_onehot_equals_ids(self, tiny_vocab):
        m = VictimClassifier(tiny_vocab, "lstm2", n_classes=2, emb_dim=8,
                             hidden_dim=10, seed=3)
        text = tiny_vocab.encode(["the", "movie", "was", "wonderful"])
        g = gc.Graph()
        P = m.lift(g)
        want = m.logits_ids(g, P, [text]).value
        onehots = np.zeros((len(text), len(tiny_vocab)))
        onehots[np.arange(len(text)), text] = 1.0
        g2 = gc.Graph()
        P2 = m.lift(g2)
        emb_steps = [gc.matmul(g2.leaf(onehots[t : t + 1]), P2["emb"])
                     for t in range(len(text) - 1)]
        got = m.logits_ids(g2, P2, [text[-1:]], prefix=emb_steps).value
        assert np.array_equal(want, got)

    def test_soft_input_grad_matches_fd(self, tiny_vocab):
        m = VictimClassifier(tiny_vocab, "lstm2", n_classes=2, emb_dim=8,
                             hidden_dim=10, seed=4)
        V = len(tiny_vocab)
        rows = gc.softmax(gc.Graph().leaf(RNG(1).standard_normal((2, V))), 1).value
        tgt = np.array([1])

        def loss_of(x):
            g = gc.Graph()
            P = m.lift(g)
            emb_steps = [gc.matmul(g.leaf(x[t : t + 1], requires_grad=True), P["emb"])
                         for t in range(2)]
            logits = m.logits_ids(g, P, [[tiny_vocab.stoi["movie"]]],
                                  prefix=emb_steps)
            return g, gc.cross_entropy(logits, tgt)

        g, loss = loss_of(rows)
        leaf_ids = [i for i, e in enumerate(g._entries)
                    if e.kind == "leaf" and e.requires_grad]
        grads = gc.backward(g, loss)
        got = np.concatenate([grads[i] for i in leaf_ids], axis=0)
        want = fd_grad(lambda x: float(loss_of(x)[1].value), rows.copy())
        assert rel_err(got, want) <= 1e-4

    def test_pair_model_needs_premise(self, tiny_vocab):
        m = VictimClassifier(tiny_vocab, "pair", n_classes=3, emb_dim=8,
                             hidden_dim=10, seed=5)
        text = [tiny_vocab.encode(["a", "man", "is", "running"])]
        with pytest.raises(ContractViolation):
            m.logits_batch(text)
        prem = [tiny_vocab.encode(["a", "man", "is", "running"])]
        assert m.logits_batch(text, prem).shape == (1, 3)

    def test_pair_symmetric_features_differ_on_swap(self, tiny_vocab):
        m = VictimClassifier(tiny_vocab, "pair", n_classes=3, emb_dim=8,
                             hidden_dim=10, seed=6)
        a = [tiny_vocab.encode(["a", "man", "is", "running"])]
        b = [tiny_vocab.encode(["nobody", "said", "it"])]
        ab = m.logits_batch(a, b)
        ba = m.logits_batch(b, a)
        assert not np.allclose(ab, ba)

    def test_unknown_kind(self, tiny_vocab):
        with pytest.raises(ContractViolation):
            VictimClassifier(tiny_vocab, "transformer", n_classes=2)


class TestScoringLM:
    def test_untrained_ce_is_log_vocab(self, tiny_vocab):
        lm = ScoringLM(tiny_vocab, emb_dim=8, hidden_dim=10, seed=0)
        got = lm.avg_ce(["the", "movie", "was", "wonderful"])
        assert got == pytest.approx(np.log(len(tiny_vocab)), abs=1e-12)

    def test_oov_maps_to_unk(self, tiny_vocab):
        lm = ScoringLM(tiny_vocab, emb_dim=8, hidden_dim=10, seed=0)
        assert lm.avg_ce(["qqqq"]) == lm.avg_ce(["zzzz"])

    def test_empty_rejected(self, tiny_vocab):
        lm = ScoringLM(tiny_vocab, emb_dim=8, hidden_dim=10, seed=0)
        with pytest.raises(ContractViolation):
            lm.avg_ce([])

    def test_single_token(self, tiny_vocab):
        lm = ScoringLM(tiny_vocab, emb_dim=8, hidden_dim=10, seed=0)
        assert np.isfinite(lm.avg_ce(["movie"]))


class TestFullSoftPipelineGradient:
    def test_noise_to_loss_matches_fd(self, tiny_arae, tiny_vocab):
        """Noise -> generator -> soft decode -> victim loss, all soft,
        gradient vs central differences."""
        victim = VictimClassifier(tiny_vocab, "lstm2", n_classes=2, emb_dim=8,
                                  hidden_dim=10, seed=7)
        align = td.align_vocab(tiny_vocab, tiny_vocab)
        emb_map = victim.weights["emb"].data[np.maximum(align, 0)]
        emb_map[align < 0] = 0.0
        mask = np.ones(len(tiny_vocab), dtype=bool)
        benign = [tiny_vocab.encode(["the", "movie", "was", "wonderful"]),
                  tiny_vocab.encode(["the", "plot", "was", "awful"])]
        y = np.array([1, 0])
        n0 = RNG(9).standard_normal((1, tiny_arae.noise_dim))
        L = 3

        def build(g, noise_leaf):
            P = tiny_arae.lift(g)
            z = tiny_arae.generate_node(g, P, noise_leaf)
            steps = tiny_arae.decode_soft(g, P, z, L, tau=1.0, rngs=[RNG(10)],
                                          allowed_mask=mask, hard=False)
            PV = victim.lift(g)
            emb_node = g.constant(emb_map)
            rows = [gc.matmul(s, emb_node) for _, s in steps]
            logits = victim.logits_ids(g, PV, benign, prefix=rows)
            return gc.cross_entropy(logits, y)

        g = gc.Graph()
        leaf = g.leaf(n0, requires_grad=True)
        got = gc.backward(g, build(g, leaf))[leaf.idx]

        def f(x):
            g2 = gc.Graph()
            return float(build(g2, g2.leaf(x)).value)

        want = fd_grad(f, n0.copy(), h=1e-5)
        assert rel_err(got, want) <= 1e-3


# every kind, every size off its default
_BUILDS = {
    "arae": lambda v: ARAEModel(v, emb_dim=8, hidden_dim=12, latent_dim=10,
                                noise_dim=6, gen_hidden=10, critic_hidden=9,
                                latent_scale=3.0),
    "lstm2": lambda v: VictimClassifier(v, "lstm2", n_classes=2, emb_dim=8,
                                        hidden_dim=10),
    "bag": lambda v: VictimClassifier(v, "bag", n_classes=3, emb_dim=8,
                                      hidden_dim=10, seed=8),
    "pair": lambda v: VictimClassifier(v, "pair", n_classes=3, emb_dim=8,
                                       hidden_dim=10),
    "lm": lambda v: ScoringLM(v, emb_dim=8, hidden_dim=10),
}


class TestModelRebuild:
    def test_roundtrip_parts(self, tiny_vocab):
        """A model rebuilt from its kind, hyperparams and weights declares
        the same sizes and shapes, for every kind."""
        for kind, build in _BUILDS.items():
            m = build(tiny_vocab)
            m2 = model_from_parts(kind, m.hyperparams(), tiny_vocab,
                                  m.weights)
            assert type(m2) is type(m) and m2.kind == kind
            assert m2.hyperparams() == m.hyperparams()
            assert m2.weight_shapes() == m.weight_shapes()
            # hyperparams() leaves out no attribute but the weights
            assert ({k: v for k, v in vars(m2).items() if k != "weights"}
                    == {k: v for k, v in vars(m).items() if k != "weights"})
            if kind == "bag":
                texts = [tiny_vocab.encode(["the", "movie", "was",
                                            "wonderful"])]
                assert np.array_equal(m.logits_batch(texts),
                                      m2.logits_batch(texts))

    @pytest.mark.parametrize("kind", sorted(_BUILDS))
    def test_weight_shapes_are_the_drawn_weights(self, tiny_vocab, kind):
        m = _BUILDS[kind](tiny_vocab)
        shapes = m.weight_shapes()
        assert list(shapes) == list(m.weights)
        assert shapes == {k: t.data.shape for k, t in m.weights.items()}

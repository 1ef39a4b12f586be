"""Trainer behavior: quality thresholds at pinned seeds, determinism,
zero-epoch identity, divergence reporting, and optimizer math."""

import numpy as np
import pytest

from conftest import ARAE_DIMS, LSTM2_CFG
from nutsearch import gradcore as gc
from nutsearch.config import derive_init_seeds
from nutsearch.errors import ContractViolation, TrainingDiverged
from nutsearch.gradcore import Tensor
from nutsearch.models import ARAEModel, VictimClassifier
from nutsearch.textdata import Split
from nutsearch.trainers import (AE_PARTS, ENC_PARTS, SGD, TrainConfig,
                                classifier_accuracy, lm_corpus_ce, train_arae,
                                train_classifier, train_lm)

from helpers import decode_until_eos, grammar_errors


class TestTrainConfig:
    def test_negative_epochs_rejected(self):
        with pytest.raises(ContractViolation):
            TrainConfig(epochs=-1)

    def test_bad_momentum_rejected(self):
        with pytest.raises(ContractViolation):
            TrainConfig(epochs=1, momentum=1.0)

    def test_zero_lr_rejected(self):
        with pytest.raises(ContractViolation):
            TrainConfig(epochs=1, lr=0.0)

    def test_bad_lr_anneal_rejected(self):
        with pytest.raises(ContractViolation):
            TrainConfig(epochs=1, lr_anneal=0.0)

    def test_bad_augment_probability_rejected(self):
        with pytest.raises(ContractViolation):
            TrainConfig(epochs=1, augment_prefixes=1.5)

    def test_negative_emb_noise_rejected(self):
        with pytest.raises(ContractViolation):
            TrainConfig(epochs=1, emb_noise=-0.1)

    @pytest.mark.parametrize("key", ["lr", "gan_lr", "clip_norm",
                                     "gp_weight", "momentum", "gan_momentum",
                                     "lr_anneal", "augment_prefixes",
                                     "emb_noise"])
    def test_nan_rejected(self, key):
        # every comparison with NaN is false, so a `v <= 0` check passes it
        with pytest.raises(ContractViolation, match=key):
            TrainConfig(epochs=1, **{key: float("nan")})


class TestSGD:
    def test_momentum_update_math(self):
        w = {"x": Tensor(np.array([1.0]))}
        opt = SGD(w, lr=0.1, momentum=0.5, clip_norm=1e9)
        opt.step({"x": np.array([2.0])})
        assert w["x"].data[0] == 1.0 - 0.1 * 2.0
        opt.step({"x": np.array([2.0])})
        # velocity: 0.5 * (-0.2) - 0.2 = -0.3
        assert abs(w["x"].data[0] - 0.5) < 1e-15

    def test_step_needs_a_gradient_for_every_weight(self):
        w = {"x": Tensor(np.zeros(1)), "y": Tensor(np.zeros(1))}
        opt = SGD(w, lr=0.1)
        with pytest.raises(KeyError, match="y"):
            opt.step({"x": np.ones(1)})

    def test_clip_engages_at_threshold(self):
        w = {"x": Tensor(np.zeros(2))}
        opt = SGD(w, lr=1.0, momentum=0.0, clip_norm=5.0)
        opt.step({"x": np.array([6.0, 8.0])})  # norm 10 -> factor 0.5
        assert np.allclose(w["x"].data, [-3.0, -4.0], atol=1e-12)


class TestClassifierTraining:
    def test_lstm2_dev_accuracy(self, lstm2_sentiment, sentiment_data):
        split, _ = sentiment_data
        model, _ = lstm2_sentiment
        assert classifier_accuracy(model, split.dev) >= 0.95

    def test_bag_dev_accuracy(self, bag_sentiment, sentiment_data):
        split, _ = sentiment_data
        model, _ = bag_sentiment
        assert classifier_accuracy(model, split.dev) >= 0.95

    def test_pair_dev_accuracy(self, pair_nli, nli_data):
        split, _ = nli_data
        model, _ = pair_nli
        assert classifier_accuracy(model, split.dev) >= 0.85

    def test_metrics_rows(self, lstm2_sentiment):
        _, metrics = lstm2_sentiment
        assert [r["epoch"] for r in metrics] == list(
            range(1, LSTM2_CFG.epochs + 1))
        assert all({"epoch", "train_loss", "dev_acc"} <= set(r) for r in metrics)

    def test_same_seed_bit_identical(self, sentiment_data):
        split, vocab = sentiment_data
        cfg = TrainConfig(epochs=2, lr=0.05, seed=9)
        a, _ = train_classifier(split, vocab, "bag", 2, cfg)
        b, _ = train_classifier(split, vocab, "bag", 2, cfg)
        assert a.weights.keys() == b.weights.keys()
        for k in a.weights:
            assert np.array_equal(a.weights[k].data, b.weights[k].data), k

    def test_zero_epochs_is_seeded_init(self, sentiment_data):
        split, vocab = sentiment_data
        cfg = TrainConfig(epochs=0, seed=21)
        model, metrics = train_classifier(split, vocab, "bag", 2, cfg)
        assert metrics == []
        init_seed = derive_init_seeds(cfg.seed, 2)[0]
        ref = VictimClassifier(vocab, kind="bag", n_classes=2, seed=init_seed)
        for k in ref.weights:
            assert np.array_equal(model.weights[k].data, ref.weights[k].data), k

    def test_augmented_training_is_deterministic_and_distinct(
            self, sentiment_data):
        split, vocab = sentiment_data
        cfg = TrainConfig(epochs=2, lr=0.05, seed=9, augment_prefixes=0.5)
        a, _ = train_classifier(split, vocab, "bag", 2, cfg)
        b, _ = train_classifier(split, vocab, "bag", 2, cfg)
        plain, _ = train_classifier(
            split, vocab, "bag", 2, TrainConfig(epochs=2, lr=0.05, seed=9))
        for k in a.weights:
            assert np.array_equal(a.weights[k].data, b.weights[k].data), k
        assert any(not np.array_equal(a.weights[k].data,
                                      plain.weights[k].data)
                   for k in a.weights)

    def test_emb_noise_training_is_deterministic_and_distinct(
            self, sentiment_data):
        split, vocab = sentiment_data
        cfg = TrainConfig(epochs=2, lr=0.05, seed=9, emb_noise=0.3)
        a, _ = train_classifier(split, vocab, "bag", 2, cfg)
        b, _ = train_classifier(split, vocab, "bag", 2, cfg)
        plain, _ = train_classifier(
            split, vocab, "bag", 2, TrainConfig(epochs=2, lr=0.05, seed=9))
        for k in a.weights:
            assert np.array_equal(a.weights[k].data, b.weights[k].data), k
        assert any(not np.array_equal(a.weights[k].data,
                                      plain.weights[k].data)
                   for k in a.weights)

    def test_prefix_augmentation_hardens_against_neutral_lead_ins(
            self, sentiment_data, lstm2_sentiment):
        split, vocab = sentiment_data
        model, _ = lstm2_sentiment
        neutral = vocab.encode(["a", "film", "the"])
        subset = [ex for ex in split.dev if ex.label == 1]
        prefixed = [neutral + list(ex.text) for ex in subset]
        acc = float(np.mean(model.predict(prefixed) == 1))
        assert acc >= 0.9

    def test_divergence_names_phase(self, sentiment_data):
        split, vocab = sentiment_data
        cfg = TrainConfig(epochs=1, seed=0)
        model, _ = train_classifier(split, vocab, "lstm2", 2,
                                    TrainConfig(epochs=0, seed=0))
        for t in model.weights.values():
            t.data[:] = 1e200
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged, match="classifier epoch 1"):
                train_classifier(split, vocab, "lstm2", 2, cfg, model=model)

    def test_metrics_rows_returned(self, sentiment_data):
        split, vocab = sentiment_data
        _, rows = train_classifier(split, vocab, "bag", 2,
                                   TrainConfig(epochs=2, lr=0.05, seed=9))
        assert [r["epoch"] for r in rows] == [1, 2]
        assert all(set(r) == {"epoch", "train_loss", "dev_acc"} for r in rows)


class TestLMTraining:
    def test_dev_ce_beats_uniform_with_margin(self, lm_sentiment,
                                              sentiment_data):
        _, vocab = sentiment_data
        _, metrics = lm_sentiment
        assert metrics[-1]["dev_ce"] < np.log(len(vocab)) - 0.5

    def test_ranks_grammar_over_shuffles(self, lm_sentiment, sentiment_data):
        split, vocab = sentiment_data
        model, _ = lm_sentiment
        rng = np.random.default_rng(0)
        wins = tries = 0
        for ex in split.dev[:100]:
            toks = vocab.decode(ex.text)
            if len(toks) < 2:
                continue
            shuf = toks[:]
            for _ in range(10):
                rng.shuffle(shuf)
                if shuf != toks:
                    break
            if shuf == toks:
                continue
            tries += 1
            if model.avg_ce(toks) < model.avg_ce(shuf):
                wins += 1
        assert tries >= 90
        assert wins / tries >= 0.90

    def test_zero_epochs_scores_uniform(self, sentiment_data):
        split, vocab = sentiment_data
        model, _ = train_lm(split, vocab, TrainConfig(epochs=0, seed=5))
        assert abs(lm_corpus_ce(model, split.dev[:20])
                   - np.log(len(vocab))) < 1e-9

    def test_corpus_ce_of_no_examples_rejected(self, sentiment_data):
        split, vocab = sentiment_data
        model, _ = train_lm(split, vocab, TrainConfig(epochs=0, seed=5))
        with pytest.raises(ContractViolation, match="empty example list"):
            lm_corpus_ce(model, [])

    def test_divergence_names_phase(self, sentiment_data):
        split, vocab = sentiment_data
        model, _ = train_lm(split, vocab, TrainConfig(epochs=0, seed=0))
        for t in model.weights.values():
            t.data[:] = 1e200
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged, match="lm epoch 1"):
                train_lm(split, vocab, TrainConfig(epochs=1, seed=0),
                         model=model)


class TestARAETraining:
    def test_reconstruction_accuracy(self, arae_sentiment):
        _, metrics = arae_sentiment
        assert metrics[-1]["recon_acc"] >= 0.80

    def test_reconstruction_improves(self, arae_sentiment):
        _, metrics = arae_sentiment
        assert metrics[-1]["recon_acc"] > metrics[0]["recon_acc"] + 0.3
        assert metrics[-1]["recon_loss"] < metrics[0]["recon_loss"]

    def test_gradient_penalty_nonnegative(self, arae_sentiment):
        _, metrics = arae_sentiment
        assert all(r["gp"] >= 0.0 for r in metrics)

    def test_reconstruction_loss_nearly_monotone(self, arae_sentiment):
        # at most one epoch-to-epoch increase, and that one below 5%
        _, metrics = arae_sentiment
        losses = [r["recon_loss"] for r in metrics]
        ups = [losses[i + 1] / losses[i] - 1.0
               for i in range(len(losses) - 1) if losses[i + 1] > losses[i]]
        assert len(ups) <= 1
        assert all(f <= 0.05 for f in ups)

    def test_generator_samples_grammatical(self, arae_sentiment,
                                           sentiment_data):
        _, vocab = sentiment_data
        model, _ = arae_sentiment
        rng = np.random.default_rng(123)
        outs = [tuple(decode_until_eos(
            model, model.generate(rng.standard_normal((1, model.noise_dim)))))
            for _ in range(100)]
        valid = sum(1 for o in outs
                    if grammar_errors("sentiment", vocab.decode(o)) == 0)
        assert valid >= 80
        assert len(set(outs)) >= 30

    def test_zero_epochs_is_seeded_init(self, sentiment_data):
        split, vocab = sentiment_data
        cfg = TrainConfig(epochs=0, seed=33)
        model, metrics = train_arae(split, vocab, cfg, **ARAE_DIMS)
        assert metrics == []
        init_seed = derive_init_seeds(cfg.seed, 3)[0]
        ref = ARAEModel(vocab, seed=init_seed, **ARAE_DIMS)
        for k in ref.weights:
            assert np.array_equal(model.weights[k].data, ref.weights[k].data), k

    def test_divergence_names_phase(self, sentiment_data):
        split, vocab = sentiment_data
        model, _ = train_arae(split, vocab, TrainConfig(epochs=0, seed=0),
                              **ARAE_DIMS)
        for t in model.weights.values():
            t.data[:] = 1e200
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged,
                               match="arae reconstruction epoch 1"):
                train_arae(split, vocab, TrainConfig(epochs=1, seed=0),
                           model=model, **ARAE_DIMS)

    def test_critic_divergence_names_its_phase(self, sentiment_data):
        # the reconstruction phase reads no gen.* weight, so it stays finite
        split, vocab = sentiment_data
        model, _ = train_arae(split, vocab, TrainConfig(epochs=0, seed=0),
                              **ARAE_DIMS)
        for name, t in model.weights.items():
            if name.startswith("gen."):
                t.data[:] = 1e200
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged, match="arae critic epoch 1"):
                train_arae(split, vocab, TrainConfig(epochs=1, seed=0),
                           model=model, **ARAE_DIMS)

    def test_each_phase_lifts_only_the_weights_it_reads(self, sentiment_data,
                                                        monkeypatch):
        split, vocab = sentiment_data
        one_batch = Split(train=split.train[:32], dev=[], test=[])
        model, _ = train_arae(one_batch, vocab, TrainConfig(epochs=0, seed=0),
                              **ARAE_DIMS)
        graphs = []
        backward = gc.backward

        def spy(graph, loss):
            graphs.append(graph)
            return backward(graph, loss)

        monkeypatch.setattr(gc, "backward", spy)
        train_arae(one_batch, vocab,
                   TrainConfig(epochs=1, critic_steps=2, seed=0),
                   model=model, **ARAE_DIMS)

        def under(*prefixes):
            return {n for n in model.weights if n.startswith(prefixes)}

        # a lifted weight's leaf holds the weight's own array
        def leaves(graph, trainable):
            return {name for name, t in model.weights.items()
                    for e in graph._entries
                    if e.value is t.data and e.requires_grad == trainable}

        phases = [  # (weights read and trained, weights read only)
            (under(*AE_PARTS), set()),
            (under("critic."), under("gen.")),
            (under("critic."), under("gen.")),
            (under(*ENC_PARTS), under("critic.")),
            (under("gen."), under("critic.")),
        ]
        assert len(graphs) == len(phases)
        for graph, (trained, frozen) in zip(graphs, phases):
            assert leaves(graph, True) == trained
            assert leaves(graph, False) == frozen

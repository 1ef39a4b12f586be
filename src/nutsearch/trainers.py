"""Training loops for the stand-in models.

All three trainers are deterministic functions of (corpus, config, seed):
model init, batch order, and noise draws all derive from the config seed,
so identical calls produce bit-identical weights. SGD with momentum and
global-norm clipping is the only optimizer; a non-finite loss aborts with
a divergence error naming the phase that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gradcore as gc
from .config import derive_init_seeds
from .errors import ContractViolation, NumericError, TrainingDiverged
from .gradcore import Graph, Node, Tensor
from .models import ARAEModel, ScoringLM, VictimClassifier, pad_batch, step_masks
from .textdata import Split, Vocab, neutral_scaffold


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 32
    lr: float = 0.2
    gan_lr: float = 0.05
    momentum: float = 0.99
    gan_momentum: float = 0.5
    clip_norm: float = 5.0
    critic_steps: int = 5
    gp_weight: float = 10.0
    lr_anneal: float = 1.0
    augment_prefixes: float = 0.0
    emb_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ContractViolation("epochs must be >= 0")
        # written so that NaN, for which every comparison is false, fails
        for name in ("batch_size", "lr", "gan_lr", "clip_norm",
                     "critic_steps", "gp_weight"):
            if not getattr(self, name) > 0:
                raise ContractViolation(f"{name} must be positive")
        for name in ("momentum", "gan_momentum"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ContractViolation(f"{name} must be in [0, 1)")
        if not 0.0 < self.lr_anneal <= 1.0:
            raise ContractViolation("lr_anneal must be in (0, 1]")
        if not 0.0 <= self.augment_prefixes <= 1.0:
            raise ContractViolation("augment_prefixes must be in [0, 1]")
        if not self.emb_noise >= 0:
            raise ContractViolation("emb_noise must be >= 0")


class SGD:
    """Momentum SGD over named weights, with global-norm gradient
    clipping. A step needs a gradient for every weight it holds."""

    def __init__(self, weights: dict[str, Tensor], lr: float,
                 momentum: float = 0.9, clip_norm: float = 5.0):
        self.weights = weights
        self.lr = lr
        self.momentum = momentum
        self.clip_norm = clip_norm
        self.velocity = {k: np.zeros_like(t.data) for k, t in weights.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        gs = [grads[name] for name in self.weights]
        total = 0.0
        for v in gs:
            total += float((v * v).sum())
        norm = np.sqrt(total)
        factor = 1.0
        if self.clip_norm and norm > self.clip_norm:
            factor = self.clip_norm / norm
        for name, gv in zip(self.weights, gs):
            vel = self.velocity[name]
            vel *= self.momentum
            vel -= self.lr * factor * gv
            self.weights[name].data += vel


def _sgd_step(model, opt: SGD, phase: str, build) -> Node:
    """One optimizer step: build(g, P) makes the loss on a fresh graph
    where only opt's weights are trainable, then backpropagate and step.
    A non-finite value raises TrainingDiverged naming `phase`."""
    g = Graph()
    P = model.lift(g, trainable=opt.weights)
    try:
        loss = build(g, P)
        raw = gc.backward(g, loss)
    except NumericError as err:
        raise TrainingDiverged(f"{phase}: {err}") from err
    opt.step({name: raw[node.idx] for name, node in P.items()
              if node.requires_grad})
    return loss


def _batches(n: int, batch_size: int, rng) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[lo : lo + batch_size] for lo in range(0, n, batch_size)]


# ---------------------------------------------------------------------------
# victim classifiers


def train_classifier(split: Split, vocab: Vocab, arch: str, n_classes: int,
                     cfg: TrainConfig, model: VictimClassifier | None = None,
                     **sizes):
    """Supervised training on the train split; returns (model, metrics),
    one metrics row per epoch."""
    init_seed, shuffle_seed, noise_seed = derive_init_seeds(cfg.seed, 3)
    if model is None:
        model = VictimClassifier(vocab, arch, n_classes, **sizes,
                                 seed=init_seed)
    rng = np.random.default_rng(shuffle_seed)
    noise_rng = np.random.default_rng(noise_seed)
    opt = SGD(model.weights, cfg.lr, cfg.momentum, cfg.clip_norm)
    texts = [ex.text for ex in split.train]
    prems = [ex.premise for ex in split.train]  # only pair reads them
    labels = np.array([ex.label for ex in split.train])
    # label-neutral prefix pool: teaches the model that an arbitrary short
    # lead-in does not change the label, so only label-bearing prefixes
    # can move a prediction
    aug_pool = None
    if cfg.augment_prefixes > 0:
        aug_pool = np.array([vocab.stoi[t] for t in sorted(neutral_scaffold())
                             if t in vocab.stoi])
        if aug_pool.size == 0:
            aug_pool = None

    def maybe_prefix(txt):
        if rng.random() >= cfg.augment_prefixes:
            return txt
        k = int(rng.integers(1, 4))
        return [int(t) for t in rng.choice(aug_pool, size=k)] + list(txt)

    metrics = []
    for epoch in range(1, cfg.epochs + 1):
        losses = []
        for idx in _batches(len(texts), cfg.batch_size, rng):
            batch_texts = [texts[i] for i in idx]
            if aug_pool is not None:
                batch_texts = [maybe_prefix(t) for t in batch_texts]
            noise = None
            if cfg.emb_noise > 0:
                T = max(len(t) for t in batch_texts)
                noise = cfg.emb_noise * noise_rng.standard_normal(
                    (T, len(batch_texts), model.emb_dim))
            loss = _sgd_step(model, opt, f"classifier epoch {epoch}",
                             lambda g, P: gc.cross_entropy(model.logits_ids(
                                 g, P, batch_texts, [prems[i] for i in idx],
                                 emb_noise=noise), labels[idx]))
            losses.append(float(loss.value))
        dev_acc = classifier_accuracy(model, split.dev)
        metrics.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                        "dev_acc": dev_acc})
    return model, metrics


def classifier_accuracy(model: VictimClassifier, examples) -> float:
    if not examples:
        raise ContractViolation("accuracy of an empty example list")
    texts = [ex.text for ex in examples]
    prems = [ex.premise for ex in examples] if model.kind == "pair" else None
    pred = model.predict(texts, prems)
    labels = np.array([ex.label for ex in examples])
    return float((pred == labels).mean())


# ---------------------------------------------------------------------------
# scoring language model


LM_EVAL_BATCH = 256  # examples per graph in lm_corpus_ce


def lm_corpus_ce(model: ScoringLM, examples) -> float:
    """Token-weighted mean CE over a list of Examples."""
    tot_ce, tot_tok = 0.0, 0
    for lo in range(0, len(examples), LM_EVAL_BATCH):
        texts = [ex.text for ex in examples[lo : lo + LM_EVAL_BATCH]]
        g = Graph()
        ce = model.batch_ce(g, model.lift(g), texts)
        n = sum(len(t) for t in texts)
        tot_ce += float(ce.value) * n
        tot_tok += n
    return tot_ce / tot_tok


def train_lm(split: Split, vocab: Vocab, cfg: TrainConfig,
             model: ScoringLM | None = None, **sizes):
    """Next-token training on the train split; returns (model, metrics),
    one metrics row per epoch."""
    init_seed, shuffle_seed = derive_init_seeds(cfg.seed, 2)
    if model is None:
        model = ScoringLM(vocab, **sizes, seed=init_seed)
    rng = np.random.default_rng(shuffle_seed)
    opt = SGD(model.weights, cfg.lr, cfg.momentum, cfg.clip_norm)
    texts = [ex.text for ex in split.train]
    metrics = []
    for epoch in range(1, cfg.epochs + 1):
        losses = []
        for idx in _batches(len(texts), cfg.batch_size, rng):
            batch = [texts[i] for i in idx]
            loss = _sgd_step(model, opt, f"lm epoch {epoch}",
                             lambda g, P: model.batch_ce(g, P, batch))
            losses.append(float(loss.value))
        metrics.append({"epoch": epoch, "train_ce": float(np.mean(losses)),
                        "dev_ce": lm_corpus_ce(model, split.dev)})
    return model, metrics


# ---------------------------------------------------------------------------
# adversarially regularized autoencoder


AE_PARTS = ("emb_enc", "emb_dec", "enc.", "enc_proj.", "dec.", "dec_init.",
            "dec_out.")
ENC_PARTS = ("emb_enc", "enc.", "enc_proj.")


def train_arae(split: Split, vocab: Vocab, cfg: TrainConfig,
               model: ARAEModel | None = None, **sizes):
    """Three phases per batch: (1) reconstruction, (2) critic with a
    gradient penalty at interpolates, (3) adversarial encoder/generator.
    Returns (model, metrics), one metrics row per epoch."""
    init_seed, shuffle_seed, noise_seed = derive_init_seeds(cfg.seed, 3)
    if model is None:
        model = ARAEModel(vocab, **sizes, seed=init_seed)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    noise_rng = np.random.default_rng(noise_seed)

    def sgd(parts, lr, momentum):  # over the weights one phase moves
        return SGD({name: t for name, t in model.weights.items()
                    if name.startswith(parts)}, lr, momentum, cfg.clip_norm)

    opt_ae = sgd(AE_PARTS, cfg.lr, cfg.momentum)
    opt_critic = sgd(("critic.",), cfg.gan_lr, cfg.gan_momentum)
    # the adversarial nudge on the encoder must stay well below the
    # reconstruction step or it erases what the autoencoder learned
    opt_enc = sgd(ENC_PARTS, 0.1 * cfg.gan_lr, cfg.gan_momentum)
    opt_gen = sgd(("gen.",), cfg.gan_lr, cfg.gan_momentum)

    texts = [ex.text for ex in split.train]
    metrics = []

    def encode_batch(g, P, batch_texts):
        return model.encode(g, P, *pad_batch(batch_texts, vocab.pad_id))

    def fake_batch(g, P, B):
        noise = noise_rng.standard_normal((B, model.noise_dim))
        return model.generate_node(g, P, g.constant(noise))

    for epoch in range(1, cfg.epochs + 1):
        opt_ae.lr = cfg.lr * cfg.lr_anneal ** (epoch - 1)
        recon_sum = recon_tok = 0
        recon_hits, critic_losses, gp_vals, gen_vals = [], [], [], []
        for idx in _batches(len(texts), cfg.batch_size, shuffle_rng):
            batch = [texts[i] for i in idx]
            B = len(batch)

            # (1) reconstruction
            dec_in, dlen = pad_batch([[vocab.bos_id] + t for t in batch],
                                     vocab.pad_id)
            targets = pad_batch([t + [vocab.eos_id] for t in batch],
                                vocab.pad_id)[0].T.reshape(-1)
            weights = np.concatenate(step_masks(dlen, dec_in.shape[1]))
            keep = weights > 0

            def reconstruction(g, P):
                logits = model.teacher_logits(g, P, encode_batch(g, P, batch),
                                              dec_in)
                flat = gc.concat(logits, axis=0) if len(logits) > 1 else logits[0]
                pred = flat.value.argmax(axis=1)
                recon_hits.append(int((pred[keep] == targets[keep]).sum()))
                return gc.cross_entropy(flat, targets, weights)

            loss = _sgd_step(model, opt_ae,
                             f"arae reconstruction epoch {epoch}",
                             reconstruction)
            recon_tok += int(keep.sum())
            recon_sum += float(loss.value) * int(keep.sum())

            # (2) critic; only the critic's weights move in this phase, so
            # the batch is encoded once and enters each step as a constant
            phase = f"arae critic epoch {epoch}"
            try:
                g = Graph()
                real = encode_batch(g, model.lift(g), batch).value
            except NumericError as err:
                raise TrainingDiverged(f"{phase}: {err}") from err

            def critic(g, P):
                c_lat = g.constant(real)
                z_lat = fake_batch(g, P, B)
                d_real = gc.mean_all(model.critic_score(g, P, c_lat))
                d_fake = gc.mean_all(model.critic_score(g, P, z_lat))
                alpha = noise_rng.random((B, 1))
                x_hat = g.constant(alpha * real + (1.0 - alpha) * z_lat.value)
                gradx = model.critic_input_grad(g, P, x_hat)
                nrm = gc.sqrt(gc.add_const(
                    gc.sum_axis(gc.mul(gradx, gradx), 1), 1e-12))
                nm1 = gc.add_const(nrm, -1.0)
                gp = gc.mean_all(gc.mul(nm1, nm1))
                gp_vals.append(float(gp.value))
                return gc.add(gc.sub(d_fake, d_real),
                              gc.scale(gp, cfg.gp_weight))

            for _ in range(cfg.critic_steps):
                loss = _sgd_step(model, opt_critic, phase, critic)
                critic_losses.append(float(loss.value))

            # (3) adversarial: encoder makes real latents look fake,
            # generator makes fake latents look real
            phase = f"arae adversarial epoch {epoch}"
            _sgd_step(model, opt_enc, phase, lambda g, P: gc.mean_all(
                model.critic_score(g, P, encode_batch(g, P, batch))))

            loss = _sgd_step(model, opt_gen, phase, lambda g, P: gc.scale(
                gc.mean_all(model.critic_score(g, P, fake_batch(g, P, B))),
                -1.0))
            gen_vals.append(float(loss.value))

        metrics.append({
            "epoch": epoch,
            "recon_loss": recon_sum / max(recon_tok, 1),
            "recon_acc": sum(recon_hits) / max(recon_tok, 1),
            "critic_loss": float(np.mean(critic_losses)),
            "gp": float(np.mean(gp_vals)),
            "gen_loss": float(np.mean(gen_vals)),
        })
    return model, metrics

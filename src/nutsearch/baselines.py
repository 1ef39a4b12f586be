"""Comparison attacks: embedding-gradient token flips with beam search,
best-of-N random generator decodes, and best-of-N random token strings.

All three produce the same candidate-record shape as the main attack and
select purely by attacked-class accuracy (no naturalness reranking). The
token flips build no graph: each sweep's gradient comes from the victim's
`prefix_grads` and each flip's loss from its `logits_batch`, both on plain
arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gradcore as gc
from .attack import (AttackConfig, AttackModels, _check_subset,
                     derive_init_seeds, rerank, run_candidate, score_trigger)
from .errors import ContractViolation, NumericError
from .textdata import Example, Vocab


@dataclass
class TokenGradientConfig:
    top_k: int = 20
    beam_width: int = 3
    max_sweeps: int = 5
    filler: str = "the"

    def __post_init__(self):
        if self.top_k < 1 or self.beam_width < 1 or self.max_sweeps < 1:
            raise ContractViolation("top_k, beam_width, max_sweeps must be "
                                    ">= 1")


def _check_length(length: int) -> None:
    if length < 1:
        raise ContractViolation("trigger_length must be >= 1")


def _usable_ids(vocab: Vocab, mask, name: str) -> np.ndarray:
    """The ids a boolean mask over `vocab` admits, minus the specials."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (len(vocab),):
        raise ContractViolation(f"{name} must cover the vocabulary")
    specials = (vocab.pad_id, vocab.unk_id, vocab.bos_id, vocab.eos_id)
    allowed = np.array([i for i in np.flatnonzero(mask) if i not in specials])
    if allowed.size == 0:
        raise ContractViolation(f"{name} admits no usable tokens")
    return allowed


def _trigger_loss(victim, trig_ids: list[int], batch: list[Example]) -> float:
    """True mean victim loss of a trigger over `batch`, with no graph: the
    cross-entropy value of `logits_batch`, bit for bit the loss that
    `prefix_grads` returns."""
    logits = victim.logits_batch([ex.text for ex in batch],
                                 [ex.premise for ex in batch], prefix=trig_ids)
    labels = np.array([ex.label for ex in batch])
    loss, _ = gc.cross_entropy_value(logits, labels, np.ones(len(batch)))
    if not np.isfinite(loss):
        raise NumericError("op 'cross_entropy' produced a non-finite value")
    return float(loss)


def token_gradient_attack(victim, dev_subset: list[Example], length: int,
                          vocab_mask, cfg: TokenGradientConfig | None = None):
    """Beam search over first-order best token replacements, accepting a
    sweep only when the true dev loss improves.

    Returns (trigger tokens, final dev loss). The trigger lives in the
    victim's vocabulary; `vocab_mask` is boolean over that vocabulary.
    Each sweep starts with one gradient pass, the victim's `prefix_grads`
    of the current trigger, whose loss is bit for bit the `_trigger_loss`
    that the beam's checks compute."""
    cfg = cfg or TokenGradientConfig()
    _check_length(length)
    _check_subset(dev_subset)
    vocab: Vocab = victim.vocab
    allowed = _usable_ids(vocab, vocab_mask, "vocab_mask")
    if vocab.stoi.get(cfg.filler) not in allowed:
        raise ContractViolation(f"filler {cfg.filler!r} is not a token "
                                f"vocab_mask admits")
    emb = victim.weights["emb"].data
    texts = [ex.text for ex in dev_subset]
    premises = [ex.premise for ex in dev_subset]
    labels = np.array([ex.label for ex in dev_subset])

    trigger = [vocab.stoi[cfg.filler]] * length
    for _ in range(cfg.max_sweeps):
        best_loss, grads = victim.prefix_grads(texts, premises, labels,
                                               trigger)
        # beam search across positions; replacements are proposed by the
        # first-order loss increase and verified by the true dev loss
        beam = [(best_loss, list(trigger))]
        for pos in range(length):
            scores = (emb[allowed] - emb[trigger[pos]]) @ grads[pos]
            order = np.argsort(-scores, kind="stable")[:cfg.top_k]
            pool = {tuple(trig): loss for loss, trig in beam}
            for _, trig in beam:
                for cand_tok in allowed[order]:
                    cand = list(trig)
                    cand[pos] = int(cand_tok)
                    key = tuple(cand)
                    if key in pool:
                        continue
                    pool[key] = _trigger_loss(victim, cand, dev_subset)
            ranked = sorted(pool.items(), key=lambda kv: (-kv[1], kv[0]))
            beam = [(loss, list(key))
                    for key, loss in ranked[:cfg.beam_width]]
        top_loss, top_trig = beam[0]
        if top_loss <= best_loss:
            break
        best_loss, trigger = top_loss, top_trig
    return vocab.decode(trigger), best_loss


def random_arae_attack(generator, victim, lm, dev_subset: list[Example],
                       n_candidates: int, length: int, allowed_mask,
                       seed: int):
    """Best-of-N greedy decodes of random generator noise, selected by dev
    attacked-class accuracy. Identical to the main attack at 0 steps with
    reranking off, sharing its seed derivation; with no ascent to share,
    each seed runs as a candidate of its own."""
    y = _check_subset(dev_subset)
    models = AttackModels(generator, victim, lm, allowed_mask)
    cfg = AttackConfig(attacked_class=y, trigger_length=length, steps=0,
                       n_inits=n_candidates, lam=0.0, seed=seed)
    candidates = [run_candidate(s, dev_subset, models, cfg)
                  for s in derive_init_seeds(seed, n_candidates)]
    return rerank(candidates, cfg.lam), candidates


def random_sequence_attack(vocab: Vocab, allowed_mask, victim, lm,
                           dev_subset: list[Example], n_candidates: int,
                           length: int, seed: int):
    """Best-of-N uniformly random token sequences over the allowed mask,
    selected by dev attacked-class accuracy."""
    if n_candidates < 1:
        raise ContractViolation("n_candidates must be >= 1")
    _check_length(length)
    y = _check_subset(dev_subset)
    allowed = _usable_ids(vocab, allowed_mask, "allowed_mask")
    candidates = []
    for s in derive_init_seeds(seed, n_candidates):
        rng = np.random.default_rng(np.random.SeedSequence(s))
        ids = [int(allowed[i])
               for i in rng.integers(0, allowed.size, size=length)]
        candidates.append(score_trigger(victim, lm, dev_subset, y,
                                        vocab.decode(ids), 0.0, s))
    return rerank(candidates, 0.0), candidates

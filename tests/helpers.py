"""Shared test utilities: finite-difference gradients, a CPU count to size
the attack's pool by, and two oracles the package does not need: the
grammar membership oracle (`grammar_errors`, with `sentiment_parse` and
`nli_hypothesis_parse`), which scores generated text for well-formedness
against make-synth's word lists, and `decode_until_eos`, a greedy ARAE
decode that stops at EOS, built from the model's public calls."""

import os

import numpy as np

from nutsearch import gradcore as gc
from nutsearch.errors import ContractViolation
from nutsearch.models import LOGIT_BAN
from nutsearch.textdata import (NEGATIVE, POSITIVE, _DETS, _INTENS, _INTROS,
                                _NEG_ADJ, _NEG_CUES, _NEG_WORDS, _NLI_ACTS,
                                _NLI_OBJS, _NLI_PLACES, _NLI_WHO, _NOUNS,
                                _POS_ADJ, _VERBS)


def fd_grad(f, x, h=1e-5):
    """Central finite differences of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(1e-12, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / denom


def see_cpus(monkeypatch, n: int) -> None:
    """Make this process see n CPUs, as its affinity set and as the
    machine's count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def decode_until_eos(model, z, max_len: int = 12) -> list[int]:
    """Greedy decode from a (1, Z) latent row with EOS enabled: <pad>,
    <unk> and <bos> are banned, and the decode stops at EOS or after
    max_len tokens."""
    vocab = model.vocab
    penalty = np.zeros(len(vocab))
    penalty[[vocab.pad_id, vocab.unk_id, vocab.bos_id]] = LOGIT_BAN
    g = gc.Graph()
    P = model.lift(g)
    zn = g.leaf(z)
    state = model.dec_init_state(g, P, zn)
    tok = vocab.bos_id
    out = []
    for _ in range(max_len):
        emb = gc.embed(P["emb_dec"], np.array([tok]))
        state, logits = model.dec_step(g, P, emb, zn, state)
        tok = int((logits.value[0] + penalty).argmax())
        if tok == vocab.eos_id:
            break
        out.append(tok)
    return out


# ---------------------------------------------------------------------------
# grammar membership oracle

_POS_SET = frozenset(_POS_ADJ)
_NEG_SET = frozenset(_NEG_ADJ)


def sentiment_parse(tokens) -> int | None:
    """Return the grammar label for a well-formed sentence, else None."""
    toks = list(tokens)

    def adj_pol(t):
        if t in _POS_SET:
            return POSITIVE
        if t in _NEG_SET:
            return NEGATIVE
        return None

    def core_then_adj(rest, flip):
        # DET NOUN VERB [INTENS|NEGWORD] ADJ
        if len(rest) == 4:
            det, noun, verb, adj = rest
            mid = None
        elif len(rest) == 5:
            det, noun, verb, mid, adj = rest
        else:
            return None
        if det not in _DETS or noun not in _NOUNS or verb not in _VERBS:
            return None
        pol = adj_pol(adj)
        if pol is None:
            return None
        if mid is not None:
            if mid in _NEG_WORDS:
                flip = not flip
            elif mid not in _INTENS:
                return None
        return (1 - pol) if flip else pol

    if len(toks) == 5 and toks[0] == "it" and toks[1] in ("was", "is") and toks[2] == "a":
        pol = adj_pol(toks[3])
        if pol is not None and toks[4] in _NOUNS:
            return pol
        return None
    if toks and toks[0] in _INTROS:
        rest = toks[1:]
        if len(rest) == 4:
            return core_then_adj(rest, flip=False)
        return None
    for cue in _NEG_CUES:
        k = len(cue)
        if tuple(toks[:k]) == cue and len(toks) == k + 4:
            return core_then_adj(toks[k:], flip=True)
    return core_then_adj(toks, flip=False)


def sentiment_vocabulary() -> set[str]:
    words = set(_DETS) | set(_NOUNS) | set(_VERBS) | set(_POS_ADJ) | set(_NEG_ADJ)
    words |= set(_INTENS) | set(_INTROS) | set(_NEG_WORDS) | {"it", "a"}
    for cue in _NEG_CUES:
        words |= set(cue)
    return words


def nli_vocabulary() -> set[str]:
    words = {"a", "is", "in", "the", "someone", "has", "likes", "nobody", "not"}
    for who in _NLI_WHO:
        words |= set(who)
    return words | set(_NLI_ACTS) | set(_NLI_PLACES) | set(_NLI_OBJS)


def nli_hypothesis_parse(tokens) -> bool | None:
    """Structural check only (hypothesis shapes); returns True or None."""
    toks = list(tokens)
    whos = {w[1] for w in _NLI_WHO}

    def is_who(ts):
        return len(ts) == 2 and ts[0] == "a" and ts[1] in whos

    if len(toks) == 3 and toks[0] == "someone" and toks[1] == "is" and toks[2] in _NLI_ACTS:
        return True
    if len(toks) == 3 and toks[0] == "nobody" and toks[1] == "is" and toks[2] in _NLI_ACTS:
        return True
    if is_who(toks[:2]):
        rest = toks[2:]
        if len(rest) == 2 and rest[0] == "is" and rest[1] in _NLI_ACTS:
            return True
        if len(rest) == 3 and rest[:2] == ["is", "not"] and rest[2] in _NLI_ACTS:
            return True
        if len(rest) == 4 and rest[:3] == ["is", "in", "the"] and rest[3] in _NLI_PLACES:
            return True
        if len(rest) == 3 and rest[0] == "has" and rest[1] == "a" and rest[2] in _NLI_OBJS:
            return True
        if len(rest) == 3 and rest[0] == "likes" and rest[1] == "the" and rest[2] in _NLI_PLACES:
            return True
    return None


def grammar_errors(task: str, tokens) -> int:
    """Error count for one sentence: unknown words each count once, plus one
    if the remaining structure matches no template. 0 means well-formed."""
    toks = list(tokens)
    if task == "sentiment":
        vocab_words = sentiment_vocabulary()
        parsed = sentiment_parse(toks) is not None
    elif task == "nli":
        vocab_words = nli_vocabulary()
        parsed = nli_hypothesis_parse(toks) is not None
    else:
        raise ContractViolation(f"unknown task {task!r}")
    oov = sum(1 for t in toks if t not in vocab_words)
    return oov + (0 if parsed else 1)

"""Stand-in models for the attack workbench.

Three families, all desk-scale and all built on the gradcore graph so
one engine carries every gradient in the pipeline:

* an adversarially regularized autoencoder: LSTM encoder onto a scaled
  unit sphere, LSTM decoder conditioned on the latent, a feed-forward
  noise-to-latent generator, and a one-hidden-layer critic;
* victim classifiers: a 2-layer LSTM, a mean-of-embeddings bag model
  (the transfer target), and a shared-encoder premise/hypothesis model;
* a single-layer LSTM language model whose output layer starts at zero,
  so its untrained average cross-entropy is exactly ln |V|.

Victim texts are token ids, optionally preceded by embedding rows such
as a trigger's; the attack passes decoded probability rows times the
embedding table, which is what lets trigger gradients flow end to end.
"""

from __future__ import annotations

import numpy as np

from . import gradcore as gc
from .errors import ContractViolation
from .gradcore import Graph, Node, Tensor
from .textdata import Vocab

LOGIT_BAN = -1e9  # additive penalty for disallowed tokens; keeps softmax finite


def _uniform(rng, shape, k) -> Tensor:
    return Tensor(rng.uniform(-k, k, size=shape))


def pad_batch(seqs, pad_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id sequences into a (B, T) matrix plus lengths."""
    if not seqs:
        raise ContractViolation("pad_batch: empty batch")
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    if lengths.min() < 1:
        raise ContractViolation("pad_batch: empty sequence")
    out = np.full((len(seqs), int(lengths.max())), pad_id, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out, lengths


def step_masks(lengths: np.ndarray, n_steps: int) -> list[np.ndarray]:
    """Per-step keep masks (1.0 while t < length) for a padded batch."""
    t = np.arange(n_steps)[:, None]
    m = (t < lengths[None, :]).astype(np.float64)
    return [m[i] for i in range(n_steps)]


def _init_lstm(rng, in_dim: int, hidden: int) -> dict[str, Tensor]:
    k = 1.0 / np.sqrt(hidden)
    b = rng.uniform(-k, k, size=4 * hidden)
    b[hidden : 2 * hidden] += 1.0  # open the forget gate at init
    return {
        "ih": _uniform(rng, (in_dim, 4 * hidden), k),
        "hh": _uniform(rng, (hidden, 4 * hidden), k),
        "b": Tensor(b),
    }


def _lstm_cell(P, prefix, x: Node, state: Node, keep=None) -> Node:
    return gc.lstm_cell(x, state, P[prefix + ".ih"], P[prefix + ".hh"],
                        P[prefix + ".b"], keep)


def _hidden(state: Node) -> Node:
    """The h half of a packed [h | c] LSTM state."""
    return gc.narrow(state, 1, 0, state.value.shape[1] // 2)


def run_lstm(g: Graph, P, prefix: str, inputs: list[Node],
             masks=None) -> list[Node]:
    """Unroll an LSTM over step inputs (each B x E) from a zero state.
    Masked steps carry the previous state through, so padded rows freeze
    at their last real step. Returns the packed [h | c] state after each
    step."""
    hidden = P[prefix + ".hh"].value.shape[0]
    state = g.constant(np.zeros((inputs[0].value.shape[0], 2 * hidden)))
    states = []
    for t, x in enumerate(inputs):
        keep = masks[t] if masks is not None and not masks[t].all() else None
        state = _lstm_cell(P, prefix, x, state, keep)
        states.append(state)
    return states


class _ModelBase:
    kind: str = ""
    vocab_sized: tuple[str, ...] = ()
    vocab: Vocab
    weights: dict[str, Tensor]

    def lift(self, g: Graph, trainable=()) -> dict[str, Node]:
        """Map weight names to leaves of `g`. A weight is pushed the first
        time an op reads it, so the graph holds only the weights it uses;
        its leaf gets gradients when its name is in `trainable`."""
        return _Lifted(g, self.weights, trainable)


class _Lifted(dict):
    """The mapping `lift` returns: a missing name pushes its weight."""

    def __init__(self, g: Graph, weights: dict[str, Tensor], trainable):
        super().__init__()
        self.g, self.weights, self.trainable = g, weights, trainable

    def __missing__(self, name: str) -> Node:
        node = self[name] = self.g.leaf(self.weights[name],
                                        requires_grad=name in self.trainable)
        return node


# ---------------------------------------------------------------------------
# autoencoder + generator + critic


class ARAEModel(_ModelBase):
    kind = "arae"
    vocab_sized = ("emb_enc", "emb_dec")

    def __init__(self, vocab: Vocab, emb_dim=32, hidden_dim=64, latent_dim=32,
                 noise_dim=16, gen_hidden=64, critic_hidden=64,
                 latent_scale=1.0, seed=0, weights=None):
        self.vocab = vocab
        self.emb_dim = emb_dim
        self.hidden_dim = hidden_dim
        self.latent_dim = latent_dim
        self.noise_dim = noise_dim
        self.gen_hidden = gen_hidden
        self.critic_hidden = critic_hidden
        self.latent_scale = float(latent_scale)
        if weights is not None:
            self.weights = weights
            return
        rng = np.random.default_rng(seed)
        V, E, H, Z = len(vocab), emb_dim, hidden_dim, latent_dim
        w: dict[str, Tensor] = {
            "emb_enc": _uniform(rng, (V, E), 0.1),
            "emb_dec": _uniform(rng, (V, E), 0.1),
        }
        for name, params in (("enc", _init_lstm(rng, E, H)),
                             ("dec", _init_lstm(rng, E + Z, H))):
            for suf, t in params.items():
                w[f"{name}.{suf}"] = t
        kH, kZ = 1.0 / np.sqrt(H), 1.0 / np.sqrt(Z)
        w["enc_proj.w"] = _uniform(rng, (H, Z), kH)
        w["enc_proj.b"] = _uniform(rng, (Z,), kH)
        w["dec_init.w"] = _uniform(rng, (Z, H), kZ)
        w["dec_init.b"] = _uniform(rng, (H,), kZ)
        w["dec_out.w"] = _uniform(rng, (H, V), kH)
        w["dec_out.b"] = _uniform(rng, (V,), kH)
        kN, kG = 1.0 / np.sqrt(noise_dim), 1.0 / np.sqrt(gen_hidden)
        w["gen.w1"] = _uniform(rng, (noise_dim, gen_hidden), kN)
        w["gen.b1"] = _uniform(rng, (gen_hidden,), kN)
        w["gen.w2"] = _uniform(rng, (gen_hidden, Z), kG)
        w["gen.b2"] = _uniform(rng, (Z,), kG)
        kC = 1.0 / np.sqrt(critic_hidden)
        w["critic.w1"] = _uniform(rng, (Z, critic_hidden), kZ)
        w["critic.b1"] = _uniform(rng, (critic_hidden,), kZ)
        w["critic.w2"] = _uniform(rng, (critic_hidden, 1), kC)
        w["critic.b2"] = _uniform(rng, (1,), kC)
        self.weights = w

    def hyperparams(self) -> dict:
        return {"emb_dim": self.emb_dim, "hidden_dim": self.hidden_dim,
                "latent_dim": self.latent_dim, "noise_dim": self.noise_dim,
                "gen_hidden": self.gen_hidden, "critic_hidden": self.critic_hidden,
                "latent_scale": self.latent_scale}

    # -- encoder

    def encode(self, g: Graph, P, ids: np.ndarray, lengths: np.ndarray) -> Node:
        """(B, T) token ids -> (B, Z) latent on the scaled unit sphere."""
        masks = step_masks(lengths, ids.shape[1])
        inputs = [gc.embed(P["emb_enc"], ids[:, t]) for t in range(ids.shape[1])]
        h_last = _hidden(run_lstm(g, P, "enc", inputs, masks)[-1])
        proj = gc.add_bias(gc.matmul(h_last, P["enc_proj.w"]), P["enc_proj.b"])
        return self._to_sphere(proj)

    def _to_sphere(self, x: Node) -> Node:
        nrm = gc.sqrt(gc.add_const(gc.sum_axis(gc.mul(x, x), 1), 1e-12))
        unit = gc.rows_scale(x, gc.reciprocal(nrm))
        return gc.scale(unit, self.latent_scale) if self.latent_scale != 1.0 else unit

    # -- generator

    def generate_node(self, g: Graph, P, n: Node) -> Node:
        """Noise rows -> latent rows, normalized onto the same scaled
        sphere the encoder maps to."""
        h = gc.tanh(gc.add_bias(gc.matmul(n, P["gen.w1"]), P["gen.b1"]))
        raw = gc.add_bias(gc.matmul(h, P["gen.w2"]), P["gen.b2"])
        return self._to_sphere(raw)

    def generate(self, n) -> Tensor:
        """Noise vector (N,) -> latent (Z,); inference convenience."""
        n = np.asarray(n, dtype=np.float64)
        if n.shape != (self.noise_dim,):
            raise ContractViolation(f"generate: expected ({self.noise_dim},), "
                                    f"got {n.shape}")
        g = Graph()
        P = self.lift(g)
        z = self.generate_node(g, P, g.leaf(n[None, :]))
        return Tensor(z.value[0])

    # -- critic

    def critic_score(self, g: Graph, P, x: Node) -> Node:
        h = gc.tanh(gc.add_bias(gc.matmul(x, P["critic.w1"]), P["critic.b1"]))
        s = gc.add_bias(gc.matmul(h, P["critic.w2"]), P["critic.b2"])
        return gc.sum_axis(s, 1)

    def critic_input_grad(self, g: Graph, P, x: Node) -> Node:
        """d critic / d input, written with first-order ops so the penalty
        on its norm stays differentiable w.r.t. the critic weights.
        For score = w2 . tanh(x W1 + b1) + b2 the input gradient is
        ((1 - tanh^2) * w2) W1^T, exact for this architecture."""
        a1 = gc.add_bias(gc.matmul(x, P["critic.w1"]), P["critic.b1"])
        t1 = gc.tanh(a1)
        sens = gc.add_const(gc.scale(gc.mul(t1, t1), -1.0), 1.0)
        w2row = gc.tile_rows(gc.transpose(P["critic.w2"]), x.value.shape[0])
        return gc.matmul(gc.mul(sens, w2row), gc.transpose(P["critic.w1"]))

    # -- decoder

    def dec_init_state(self, g: Graph, P, z: Node) -> Node:
        """Packed [h | c] decoder state: h from the latent, c zero."""
        h0 = gc.tanh(gc.add_bias(gc.matmul(z, P["dec_init.w"]), P["dec_init.b"]))
        c0 = g.constant(np.zeros((z.value.shape[0], self.hidden_dim)))
        return gc.concat([h0, c0], axis=1)

    def dec_step(self, g: Graph, P, emb_row: Node, z: Node, state: Node):
        x = gc.concat([emb_row, z], axis=1)
        state = _lstm_cell(P, "dec", x, state)
        logits = gc.add_bias(gc.matmul(_hidden(state), P["dec_out.w"]),
                             P["dec_out.b"])
        return state, logits

    def teacher_logits(self, g: Graph, P, z: Node, in_ids: np.ndarray) -> list[Node]:
        """Teacher-forced decoder logits, one (B, V) node per step."""
        state = self.dec_init_state(g, P, z)
        out = []
        for t in range(in_ids.shape[1]):
            emb = gc.embed(P["emb_dec"], in_ids[:, t])
            state, logits = self.dec_step(g, P, emb, z, state)
            out.append(logits)
        return out

    def _ban_vector(self, allowed_mask) -> np.ndarray:
        vec = np.where(np.asarray(allowed_mask, dtype=bool), 0.0, LOGIT_BAN)
        vec[[self.vocab.pad_id, self.vocab.unk_id,
             self.vocab.bos_id, self.vocab.eos_id]] = LOGIT_BAN
        return vec

    def decode_soft(self, g: Graph, P, z: Node, length: int, tau: float, rng,
                    allowed_mask, hard: bool = True):
        """Autoregressive relaxed decode of exactly `length` positions.

        Returns [(soft, sample), ...] with (1, V) rows; `sample` is the
        straight-through one-hot when hard=True, else the soft row. The
        sample row feeds back through the decoder embedding, so the whole
        trigger stays differentiable w.r.t. z."""
        if length < 1:
            raise ContractViolation("decode_soft: length must be >= 1")
        if z.value.shape[0] != 1:
            raise ContractViolation("decode_soft operates on a single latent row")
        penalty = g.constant(self._ban_vector(allowed_mask))
        state = self.dec_init_state(g, P, z)
        emb_row = gc.embed(P["emb_dec"], np.array([self.vocab.bos_id]))
        steps = []
        for _ in range(length):
            state, logits = self.dec_step(g, P, emb_row, z, state)
            masked = gc.add_bias(logits, penalty)
            soft, sample = gc.gumbel_softmax(masked, tau, rng, hard=hard)
            steps.append((soft, sample))
            emb_row = gc.matmul(sample, P["emb_dec"])
        return steps

    def decode_greedy(self, z, length: int, allowed_mask) -> list[int]:
        """Deterministic argmax decode of exactly `length` tokens."""
        return self._argmax_decode(z, length, self._ban_vector(allowed_mask),
                                   stop_at_eos=False)

    def decode_until_eos(self, z, max_len: int = 12) -> list[int]:
        """Greedy decode with EOS enabled; used for sample-quality checks."""
        penalty = np.zeros(len(self.vocab))
        penalty[[self.vocab.pad_id, self.vocab.unk_id, self.vocab.bos_id]] = LOGIT_BAN
        return self._argmax_decode(z, max_len, penalty, stop_at_eos=True)

    def _argmax_decode(self, z, max_len: int, penalty: np.ndarray,
                       stop_at_eos: bool) -> list[int]:
        z = np.asarray(z.data if isinstance(z, Tensor) else z, dtype=np.float64)
        g = Graph()
        P = self.lift(g)
        zn = g.leaf(z[None, :])
        state = self.dec_init_state(g, P, zn)
        tok = self.vocab.bos_id
        out = []
        for _ in range(max_len):
            emb = gc.embed(P["emb_dec"], np.array([tok]))
            state, logits = self.dec_step(g, P, emb, zn, state)
            tok = int((logits.value[0] + penalty).argmax())
            if stop_at_eos and tok == self.vocab.eos_id:
                break
            out.append(tok)
        return out


# ---------------------------------------------------------------------------
# victims


class VictimClassifier(_ModelBase):
    vocab_sized = ("emb",)
    KINDS = ("lstm2", "bag", "pair")

    def __init__(self, vocab: Vocab, kind: str, n_classes: int,
                 emb_dim=32, hidden_dim=64, seed=0, weights=None):
        if kind not in self.KINDS:
            raise ContractViolation(f"unknown victim kind {kind!r}")
        self.vocab = vocab
        self.kind = kind
        self.n_classes = n_classes
        self.emb_dim = emb_dim
        self.hidden_dim = hidden_dim
        if weights is not None:
            self.weights = weights
            return
        rng = np.random.default_rng(seed)
        V, E, H, C = len(vocab), emb_dim, hidden_dim, n_classes
        w: dict[str, Tensor] = {"emb": _uniform(rng, (V, E), 0.1)}
        kH = 1.0 / np.sqrt(H)
        if kind == "lstm2":
            for name, params in (("l1", _init_lstm(rng, E, H)),
                                 ("l2", _init_lstm(rng, H, H))):
                for suf, t in params.items():
                    w[f"{name}.{suf}"] = t
            w["head.w"] = _uniform(rng, (H, C), kH)
            w["head.b"] = _uniform(rng, (C,), kH)
        elif kind == "bag":
            kE = 1.0 / np.sqrt(E)
            w["fc1.w"] = _uniform(rng, (E, H), kE)
            w["fc1.b"] = _uniform(rng, (H,), kE)
            w["head.w"] = _uniform(rng, (H, C), kH)
            w["head.b"] = _uniform(rng, (C,), kH)
        else:  # pair: one encoder shared by premise and hypothesis
            for suf, t in _init_lstm(rng, E, H).items():
                w[f"enc.{suf}"] = t
            k4 = 1.0 / np.sqrt(4 * H)
            w["fc1.w"] = _uniform(rng, (4 * H, H), k4)
            w["fc1.b"] = _uniform(rng, (H,), k4)
            w["head.w"] = _uniform(rng, (H, C), kH)
            w["head.b"] = _uniform(rng, (C,), kH)
        self.weights = w

    def hyperparams(self) -> dict:
        return {"kind": self.kind, "n_classes": self.n_classes,
                "emb_dim": self.emb_dim, "hidden_dim": self.hidden_dim}

    def embed_steps(self, g: Graph, P, ids: np.ndarray) -> list[Node]:
        return [gc.embed(P["emb"], ids[:, t]) for t in range(ids.shape[1])]

    def _encode_lstm(self, g, P, prefix, emb_steps, masks):
        return _hidden(run_lstm(g, P, prefix, emb_steps, masks)[-1])

    def forward_embs(self, g: Graph, P, emb_steps: list[Node], masks,
                     premise: tuple[np.ndarray, np.ndarray] | None = None) -> Node:
        """Logits from per-position embedding rows (each B x E).

        masks: list of per-step keep vectors covering emb_steps. For the
        pair model, premise=(ids, lengths) is encoded with the same
        weights and fused as [u, v, |u-v|, u*v].
        """
        if self.kind == "lstm2":
            hs = [_hidden(s) for s in run_lstm(g, P, "l1", emb_steps, masks)]
            h_last = self._encode_lstm(g, P, "l2", hs, masks)
            return gc.add_bias(gc.matmul(h_last, P["head.w"]), P["head.b"])
        if self.kind == "bag":
            total = None
            count = np.zeros(emb_steps[0].value.shape[0])
            for t, e in enumerate(emb_steps):
                kept = gc.rows_scale(e, g.constant(masks[t]))
                total = kept if total is None else gc.add(total, kept)
                count = count + masks[t]
            mean = gc.rows_scale(total, g.constant(1.0 / np.maximum(count, 1.0)))
            h = gc.tanh(gc.add_bias(gc.matmul(mean, P["fc1.w"]), P["fc1.b"]))
            return gc.add_bias(gc.matmul(h, P["head.w"]), P["head.b"])
        if premise is None:
            raise ContractViolation("pair model needs a premise")
        pids, plens = premise
        prem_steps = self.embed_steps(g, P, pids)
        u = self._encode_lstm(g, P, "enc", prem_steps,
                              step_masks(plens, pids.shape[1]))
        v = self._encode_lstm(g, P, "enc", emb_steps, masks)
        feats = gc.concat([u, v, gc.absolute(gc.sub(u, v)), gc.mul(u, v)], axis=1)
        h = gc.tanh(gc.add_bias(gc.matmul(feats, P["fc1.w"]), P["fc1.b"]))
        return gc.add_bias(gc.matmul(h, P["head.w"]), P["head.b"])

    def logits_ids(self, g: Graph, P, texts: list[list[int]],
                   premises: list[list[int]] | None = None,
                   emb_noise: np.ndarray | None = None,
                   prefix: list[Node] = ()) -> Node:
        """Logits for a batch of id sequences.

        `prefix` holds (1, E) embedding rows, such as a trigger, put in
        front of every text and never masked. `emb_noise`, shaped
        (T, B, E), is added to the embedded text steps; training uses it
        to smooth the model's response to off-manifold embedding inputs.
        Only the pair model reads `premises`."""
        ids, lengths = pad_batch(texts, self.vocab.pad_id)
        B, T = ids.shape
        prefix_steps = [gc.tile_rows(row, B) for row in prefix]
        text_steps = self.embed_steps(g, P, ids)
        if emb_noise is not None:
            if emb_noise.shape != (T, B, self.emb_dim):
                raise ContractViolation("emb_noise must be (T, B, E)")
            text_steps = [gc.add(e, g.constant(emb_noise[t]))
                          for t, e in enumerate(text_steps)]
        masks = [np.ones(B)] * len(prefix) + step_masks(lengths, T)
        prem = (pad_batch(premises, self.vocab.pad_id)
                if self.kind == "pair" and premises is not None else None)
        return self.forward_embs(g, P, prefix_steps + text_steps, masks,
                                 premise=prem)

    def logits_batch(self, texts, premises=None, batch_size: int = 512) -> np.ndarray:
        out = []
        for lo in range(0, len(texts), batch_size):
            g = Graph()
            P = self.lift(g)
            chunk_prem = premises[lo : lo + batch_size] if premises else None
            node = self.logits_ids(g, P, texts[lo : lo + batch_size], chunk_prem)
            out.append(node.value)
        return np.concatenate(out, axis=0)

    def predict(self, texts, premises=None) -> np.ndarray:
        return self.logits_batch(texts, premises).argmax(axis=1)


# ---------------------------------------------------------------------------
# scoring language model


class ScoringLM(_ModelBase):
    kind = "lm"
    vocab_sized = ("emb",)

    def __init__(self, vocab: Vocab, emb_dim=32, hidden_dim=64, seed=0,
                 weights=None):
        self.vocab = vocab
        self.emb_dim = emb_dim
        self.hidden_dim = hidden_dim
        if weights is not None:
            self.weights = weights
            return
        rng = np.random.default_rng(seed)
        V, E, H = len(vocab), emb_dim, hidden_dim
        w: dict[str, Tensor] = {"emb": _uniform(rng, (V, E), 0.1)}
        for suf, t in _init_lstm(rng, E, H).items():
            w[f"lstm.{suf}"] = t
        # zero output layer: the untrained model is exactly uniform
        w["out.w"] = Tensor(np.zeros((H, V)))
        w["out.b"] = Tensor(np.zeros(V))
        self.weights = w

    def hyperparams(self) -> dict:
        return {"emb_dim": self.emb_dim, "hidden_dim": self.hidden_dim}

    def step_logits(self, g: Graph, P, in_ids: np.ndarray) -> list[Node]:
        """Next-token logits for each position of a (B, T) input batch."""
        inputs = [gc.embed(P["emb"], in_ids[:, t]) for t in range(in_ids.shape[1])]
        return [gc.add_bias(gc.matmul(_hidden(s), P["out.w"]), P["out.b"])
                for s in run_lstm(g, P, "lstm", inputs)]

    def batch_ce(self, g: Graph, P, texts: list[list[int]]) -> Node:
        """Token-weighted mean next-token cross-entropy of a batch of id
        sequences, teacher-forced from BOS; padding carries no weight."""
        ids, lengths = pad_batch(texts, self.vocab.pad_id)
        B, T = ids.shape
        in_ids = np.concatenate([np.full((B, 1), self.vocab.bos_id), ids[:, :-1]],
                                axis=1)
        logits = self.step_logits(g, P, in_ids)
        flat = gc.concat(logits, axis=0) if len(logits) > 1 else logits[0]
        # concat is step-major: row t*B + i holds batch row i at step t
        targets = ids.T.reshape(-1)
        weights = np.concatenate(step_masks(lengths, T))
        targets = np.where(weights > 0, targets, 0)
        return gc.cross_entropy(flat, targets, weights)

    def avg_ce(self, tokens: list[str]) -> float:
        """Mean per-token cross-entropy of a token sequence under the LM:
        the one-row case of batch_ce; unknown words map to <unk>."""
        if not tokens:
            raise ContractViolation("avg_ce of an empty sequence")
        if not all(isinstance(t, str) for t in tokens):
            raise ContractViolation("avg_ce expects token strings")
        g = Graph()
        ce = self.batch_ce(g, self.lift(g), [self.vocab.encode(list(tokens))])
        return float(ce.value)


MODEL_KINDS = {
    "arae": ARAEModel,
    "lstm2": VictimClassifier,
    "bag": VictimClassifier,
    "pair": VictimClassifier,
    "lm": ScoringLM,
}


def model_from_parts(kind: str, hyperparams: dict, vocab: Vocab,
                     weights: dict[str, Tensor]):
    """Rebuild a model object from checkpoint payload pieces."""
    if kind not in MODEL_KINDS:
        raise ContractViolation(f"unknown model kind {kind!r}")
    return MODEL_KINDS[kind](vocab, weights=weights, **hyperparams)

"""Stand-in models for the attack workbench.

Three families, all desk-scale and all trained on the gradcore graph,
so one engine carries every gradient in the pipeline:

* an adversarially regularized autoencoder: LSTM encoder onto a scaled
  unit sphere, LSTM decoder conditioned on the latent, a feed-forward
  noise-to-latent generator, and a one-hidden-layer critic;
* victim classifiers: a 2-layer LSTM, a mean-of-embeddings bag model
  (the transfer target), and a shared-encoder premise/hypothesis model;
  they predict, and give a trigger prefix's loss gradient, on plain
  arrays, stepping each distinct text prefix once;
* a single-layer LSTM language model whose output layer starts at zero,
  so its untrained average cross-entropy is exactly ln |V|; it scores on
  plain arrays, through the same gradcore step functions its training
  graph runs.

Victim texts are token ids, optionally preceded by embedding rows such
as a trigger's; the attack passes decoded probability rows times the
embedding table, which is what lets trigger gradients flow end to end.

The generator works on rows: `generate` maps (K, N) noise rows to (K, Z)
latent rows as a plain array, the greedy decoders take one (1, Z) row, and
`decode_soft` draws each row's Gumbel noise with that row's own generator.
"""

from __future__ import annotations

import functools
from dataclasses import KW_ONLY, InitVar, dataclass, fields

import numpy as np

from . import gradcore as gc
from .errors import ContractViolation, NumericError
from .gradcore import Graph, Node, Tensor
from .textdata import Vocab

LOGIT_BAN = -1e9  # additive penalty for disallowed tokens; keeps softmax finite


def _uniform(rng, shape, k):
    """A Tensor drawn uniform in (-k, k); with no generator, only `shape`."""
    return shape if rng is None else Tensor(rng.uniform(-k, k, size=shape))


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


def _linear(w: dict, rng, weight: str, bias: str, n_in: int, n_out: int):
    """Declare a dense layer: w[weight] (n_in x n_out), then w[bias]."""
    k = None if rng is None else 1.0 / np.sqrt(n_in)
    w[weight] = _uniform(rng, (n_in, n_out), k)
    w[bias] = _uniform(rng, (n_out,), k)


def _lstm(w: dict, rng, name: str, in_dim: int, hidden: int):
    """Declare LSTM `name`: its b is drawn before its ih and hh, but the
    three are listed ih, hh, b, the order SGD sums the gradient norm in."""
    k = None if rng is None else 1.0 / np.sqrt(hidden)
    b = _uniform(rng, (4 * hidden,), k)
    if rng is not None:
        b.data[hidden : 2 * hidden] += 1.0  # open the forget gate at init
    w[f"{name}.ih"] = _uniform(rng, (in_dim, 4 * hidden), k)
    w[f"{name}.hh"] = _uniform(rng, (hidden, 4 * hidden), k)
    w[f"{name}.b"] = b


def _lstm_cell(P, prefix, x: Node, state: Node, live=None) -> Node:
    return gc.lstm_cell(x, state, P[prefix + ".ih"], P[prefix + ".hh"],
                        P[prefix + ".b"], live)


def _hidden(state: Node) -> Node:
    """The h half of a packed [h | c] LSTM state."""
    return gc.narrow(state, 1, 0, state.value.shape[1] // 2)


def run_lstm(g: Graph, P, prefix: str, inputs: list[Node], live=None,
             state: Node | None = None) -> list[Node]:
    """Unroll an LSTM over step inputs from `state` (zeros by default).
    Step t steps the first live[t] rows (all of them without `live`) and
    carries the others through, so in a batch sorted longest-first each
    row freezes at its last real step. Returns the packed [h | c] state
    after each step."""
    if state is None:
        hidden = P[prefix + ".hh"].value.shape[0]
        state = g.constant(np.zeros((inputs[0].value.shape[0], 2 * hidden)))
    states = []
    for t, x in enumerate(inputs):
        state = _lstm_cell(P, prefix, x, state,
                           None if live is None else live[t])
        states.append(state)
    return states


def _owners(prefix: list[Node], n_texts: int) -> np.ndarray:
    """The prefix row each text is read after: K prefix rows split the
    texts into K equal slices, in order, and row k goes in front of the
    k-th slice (with one row, in front of every text)."""
    K = prefix[0].value.shape[0]
    if n_texts % K:
        raise ContractViolation(f"{n_texts} texts do not split into {K} "
                                "equal slices, one per prefix row")
    return np.arange(n_texts) // (n_texts // K)


class _Sorted:
    """A padded id batch sorted longest-first (stable), with each step's
    input embedded for its live rows only: the texts longer than t."""

    def __init__(self, g: Graph, table: Node, ids: np.ndarray,
                 lengths: np.ndarray, noise: np.ndarray | None = None):
        self.order = np.argsort(-lengths, kind="stable")
        self.live = (lengths[None, :] > np.arange(ids.shape[1])[:, None]).sum(1)
        ids = ids[self.order]
        self.steps = [gc.embed(table, ids[:n, t])
                      for t, n in enumerate(self.live)]
        if noise is not None:
            self.steps = [gc.add(x, g.constant(noise[t][self.order[:n]]))
                          for t, (x, n) in enumerate(zip(self.steps,
                                                         self.live))]

    def last_hidden(self, g: Graph, P, layers, prefix: list[Node] = ()) -> Node:
        """The last layer's h after each text's last step, in input order.
        The `prefix` rows (each K x E) go through every layer once, as K
        rows from the zero state, and one row gather hands each text the
        state of its own prefix row (see `_owners`)."""
        B = len(self.order)
        xs, pre = self.steps, list(prefix)
        if pre:
            owners = _owners(pre, B)[self.order]
        for k, name in enumerate(layers):
            if k:
                xs = [_hidden(s) for s in states]
                pre = [_hidden(s) for s in pre]
            state = None
            if pre:
                pre = run_lstm(g, P, name, pre)
                state = gc.embed(pre[-1], owners)
            states = run_lstm(g, P, name, xs, self.live, state)
        h = _hidden(states[-1])
        if np.array_equal(self.order, np.arange(B)):
            return h
        return gc.embed(h, np.argsort(self.order))


def _trie_steps(ids: np.ndarray, lengths: np.ndarray) -> list[tuple]:
    """A padded id batch as the trie of its texts' prefixes, for the
    graph-free victim forward: depth t steps one row per distinct prefix
    of length t+1, from its parent prefix's row at depth t-1.

    Step t is (the last id of each row, each row's parent row, the texts
    whose last step is t, and their rows). The live-row graph path steps
    every text that has not ended; a row of a multi-row product is
    bit-equal whatever the row count, but a one-row product takes BLAS's
    gemv and sums differently. So a depth with one distinct prefix and
    two or more live texts is stepped as two copies of that row."""
    T = ids.shape[1]
    depth = np.arange(T)
    live = lengths[:, None] > depth
    keyed = np.where(live, ids, -1)  # an ended text sorts before a live one
    order = np.lexsort(keyed.T[::-1])
    keyed, live, last = keyed[order], live[order], lengths[order] - 1
    # sorted, the texts sharing a prefix are adjacent: a live text opens a
    # row at depth t unless the text before it has the same t+1 ids
    differ = keyed[1:] != keyed[:-1]
    first = np.where(differ.any(axis=1), differ.argmax(axis=1), T)
    opens = live.copy()
    opens[1:] &= first[:, None] <= depth
    row = np.cumsum(opens, axis=0) - 1
    steps = []
    for t in depth:
        new = np.flatnonzero(opens[:, t])
        if new.size == 1 and live[:, t].sum() > 1:
            new = np.repeat(new, 2)
        parents = row[new, t - 1] if t else np.zeros(new.size, np.int64)
        ends = np.flatnonzero(last == t)
        steps.append((keyed[new, t], parents, order[ends], row[ends, t]))
    return steps


@functools.lru_cache(maxsize=8)
def _prepared(texts: tuple, pad_id: int) -> tuple:
    """A text list as the graph-free victim paths read it: padded ids,
    lengths and `_trie_steps`, all read-only. Scoring passes the same list
    for every trigger (a dev subset, a test split), so the last few lists
    are kept, keyed by their content: equal ids give the same arrays, and
    a caller that edits its lists after a call makes a new key."""
    ids, lengths = pad_batch(texts, pad_id)
    steps = tuple(_trie_steps(ids, lengths))
    for a in (ids, lengths, *(a for step in steps for a in step)):
        a.flags.writeable = False
    return ids, lengths, steps


def _segment_sums(x: np.ndarray, idx: np.ndarray):
    """The rows of x summed by their target index `idx`, which is sorted:
    the distinct targets and the sum of each one's rows."""
    starts = np.flatnonzero(np.diff(idx, prepend=-1))
    return idx[starts], np.add.reduceat(x, starts, axis=0)


@dataclass(eq=False)
class _ModelBase:
    """A model's one declaration: its fields after `vocab` are its sizes,
    what a checkpoint header stores. `seed` draws the weights, unless
    `weights` are given."""

    vocab: Vocab
    _: KW_ONLY
    seed: InitVar[int] = 0
    weights: InitVar[dict[str, Tensor] | None] = None

    def __post_init__(self, seed, weights):
        self.weights = (weights if weights is not None
                        else self._declare(np.random.default_rng(seed)))

    def hyperparams(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)[1:]}

    def weight_shapes(self) -> dict[str, tuple]:
        """Each weight's shape by name, from the declarations that draw the
        weights, with nothing allocated: a checkpoint's tensors must have
        exactly these."""
        return self._declare(None)

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


@dataclass(eq=False)
class ARAEModel(_ModelBase):
    kind = "arae"
    emb_dim: int = 32
    hidden_dim: int = 64
    latent_dim: int = 32
    noise_dim: int = 16
    gen_hidden: int = 64
    critic_hidden: int = 64
    latent_scale: float = 1.0

    def __post_init__(self, seed, weights):
        self.latent_scale = float(self.latent_scale)
        super().__post_init__(seed, weights)

    def _declare(self, rng) -> dict:
        V, E, H, Z = (len(self.vocab), self.emb_dim, self.hidden_dim,
                      self.latent_dim)
        w = {
            "emb_enc": _uniform(rng, (V, E), 0.1),
            "emb_dec": _uniform(rng, (V, E), 0.1),
        }
        _lstm(w, rng, "enc", E, H)
        _lstm(w, rng, "dec", E + Z, H)
        _linear(w, rng, "enc_proj.w", "enc_proj.b", H, Z)
        _linear(w, rng, "dec_init.w", "dec_init.b", Z, H)
        _linear(w, rng, "dec_out.w", "dec_out.b", H, V)
        _linear(w, rng, "gen.w1", "gen.b1", self.noise_dim, self.gen_hidden)
        _linear(w, rng, "gen.w2", "gen.b2", self.gen_hidden, Z)
        _linear(w, rng, "critic.w1", "critic.b1", Z, self.critic_hidden)
        _linear(w, rng, "critic.w2", "critic.b2", self.critic_hidden, 1)
        return w

    # -- encoder

    def encode(self, g: Graph, P, ids: np.ndarray, lengths: np.ndarray) -> Node:
        """(B, T) token ids -> (B, Z) latent on the scaled unit sphere.

        Every row steps at every step, as in the LM, and each text's state
        is read at its last step: unlike the victims' longest-first order,
        this keeps the order of every sum in ARAE training."""
        B, T = ids.shape
        inputs = [gc.embed(P["emb_enc"], ids[:, t]) for t in range(T)]
        states = run_lstm(g, P, "enc", inputs)
        last = states[-1]
        if not (lengths == T).all():
            last = gc.embed(gc.concat(states, axis=0),
                            (lengths - 1) * B + np.arange(B))
        h_last = _hidden(last)
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

    def generate(self, n) -> np.ndarray:
        """Noise rows (K, N) -> latent rows (K, Z); inference convenience."""
        g = Graph()
        return self.generate_node(g, self.lift(g), g.leaf(n)).value

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

    def decode_soft(self, g: Graph, P, z: Node, length: int, tau: float,
                    rngs, allowed_mask, hard: bool = True):
        """Autoregressive relaxed decode of exactly `length` positions for
        each of the K latent rows of z.

        Returns [(soft, sample), ...] with (K, V) rows; `sample` is the
        straight-through one-hot when hard=True, else the soft row. The
        sample row feeds back through the decoder embedding, so the whole
        trigger stays differentiable w.r.t. z. `rngs` holds one generator
        per row, which draws that row's Gumbel noise, one row a position:
        a row draws what it would draw decoded alone."""
        if length < 1:
            raise ContractViolation("decode_soft: length must be >= 1")
        K, rngs = z.value.shape[0], list(rngs)
        if len(rngs) != K:
            raise ContractViolation(f"decode_soft: {len(rngs)} generators "
                                    f"for {K} latent rows")
        penalty = g.constant(self._ban_vector(allowed_mask))
        state = self.dec_init_state(g, P, z)
        emb_row = gc.embed(P["emb_dec"], np.full(K, self.vocab.bos_id))
        steps = []
        for _ in range(length):
            state, logits = self.dec_step(g, P, emb_row, z, state)
            masked = gc.add_bias(logits, penalty)
            soft, sample = gc.gumbel_softmax(masked, tau, rngs, hard=hard)
            steps.append((soft, sample))
            emb_row = gc.matmul(sample, P["emb_dec"])
        return steps

    def decode_greedy(self, z, length: int, allowed_mask) -> list[int]:
        """Deterministic argmax decode of exactly `length` tokens from a
        (1, Z) latent row."""
        return self._argmax_decode(z, length, self._ban_vector(allowed_mask),
                                   stop_at_eos=False)

    def decode_until_eos(self, z, max_len: int = 12) -> list[int]:
        """Greedy decode from a (1, Z) latent row with EOS enabled; used
        for sample-quality checks."""
        penalty = np.zeros(len(self.vocab))
        penalty[[self.vocab.pad_id, self.vocab.unk_id, self.vocab.bos_id]] = LOGIT_BAN
        return self._argmax_decode(z, max_len, penalty, stop_at_eos=True)

    def _argmax_decode(self, z, max_len: int, penalty: np.ndarray,
                       stop_at_eos: bool) -> list[int]:
        g = Graph()
        P = self.lift(g)
        zn = g.leaf(z)
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


@dataclass(eq=False)
class VictimClassifier(_ModelBase):
    KINDS = ("lstm2", "bag", "pair")
    kind: str
    n_classes: int
    emb_dim: int = 32
    hidden_dim: int = 64

    def __post_init__(self, seed, weights):
        if self.kind not in self.KINDS:
            raise ContractViolation(f"unknown victim kind {self.kind!r}")
        super().__post_init__(seed, weights)

    def _declare(self, rng) -> dict:
        V, E, H, C = (len(self.vocab), self.emb_dim, self.hidden_dim,
                      self.n_classes)
        w = {"emb": _uniform(rng, (V, E), 0.1)}
        if self.kind == "lstm2":
            _lstm(w, rng, "l1", E, H)
            _lstm(w, rng, "l2", H, H)
        elif self.kind == "bag":
            _linear(w, rng, "fc1.w", "fc1.b", E, H)
        else:  # pair: one encoder shared by premise and hypothesis
            _lstm(w, rng, "enc", E, H)
            _linear(w, rng, "fc1.w", "fc1.b", 4 * H, H)
        _linear(w, rng, "head.w", "head.b", H, C)
        return w

    def forward_embs(self, g: Graph, P, prefix: list[Node], ids: np.ndarray,
                     lengths: np.ndarray, emb_noise: np.ndarray | None = None,
                     premise: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> Node:
        """Logits for padded text ids (B, T) of the given lengths, each
        text preceded by the `prefix` rows, one (K, E) node per position:
        row k goes in front of the k-th of K equal slices of the texts.

        `emb_noise` (T, B, E) is added to the embedded text steps. The
        LSTM victims run the prefix once, as K rows, and the text
        longest-first, only on the rows that have not ended. For the pair
        model, premise=(ids, lengths) is encoded with the same weights and
        fused as [u, v, |u-v|, u*v].
        """
        if self.kind == "pair" and premise is None:
            raise ContractViolation("pair model needs a premise")
        if self.kind == "bag":
            B, T = ids.shape
            owners = _owners(prefix, B) if prefix else None
            steps = [gc.embed(row, owners) for row in prefix]
            text = [gc.embed(P["emb"], ids[:, t]) for t in range(T)]
            if emb_noise is not None:
                text = [gc.add(e, g.constant(emb_noise[t]))
                        for t, e in enumerate(text)]
            steps += text
            masks = [np.ones(B)] * len(prefix) + step_masks(lengths, T)
            total = None
            count = np.zeros(B)
            for t, e in enumerate(steps):
                kept = gc.rows_scale(e, g.constant(masks[t]))
                total = kept if total is None else gc.add(total, kept)
                count = count + masks[t]
            mean = gc.rows_scale(total, g.constant(1.0 / np.maximum(count, 1.0)))
            h = gc.tanh(gc.add_bias(gc.matmul(mean, P["fc1.w"]), P["fc1.b"]))
            return gc.add_bias(gc.matmul(h, P["head.w"]), P["head.b"])
        text = _Sorted(g, P["emb"], ids, lengths, emb_noise)
        if self.kind == "lstm2":
            h_last = text.last_hidden(g, P, ("l1", "l2"), prefix)
            return gc.add_bias(gc.matmul(h_last, P["head.w"]), P["head.b"])
        u = _Sorted(g, P["emb"], *premise).last_hidden(g, P, ("enc",))
        v = text.last_hidden(g, P, ("enc",), prefix)
        feats = gc.concat([u, v, gc.absolute(gc.sub(u, v)), gc.mul(u, v)], axis=1)
        h = gc.tanh(gc.add_bias(gc.matmul(feats, P["fc1.w"]), P["fc1.b"]))
        return gc.add_bias(gc.matmul(h, P["head.w"]), P["head.b"])

    def logits_ids(self, g: Graph, P, texts: list[list[int]],
                   premises: list[list[int]] | None = None,
                   emb_noise: np.ndarray | None = None,
                   prefix: list[Node] = ()) -> Node:
        """Logits for a batch of id sequences.

        `prefix` holds one (K, E) node per trigger position; row k goes in
        front of the k-th of K equal slices of the texts, so a (1, E) row
        goes in front of every text. `emb_noise`, shaped (T, B, E), is
        added to the embedded text steps; training uses it to smooth the
        model's response to off-manifold embedding inputs. Only the pair
        model reads `premises`."""
        ids, lengths = pad_batch(texts, self.vocab.pad_id)
        B, T = ids.shape
        if emb_noise is not None and emb_noise.shape != (T, B, self.emb_dim):
            raise ContractViolation("emb_noise must be (T, B, E)")
        prem = (pad_batch(premises, self.vocab.pad_id)
                if self.kind == "pair" and premises is not None else None)
        return self.forward_embs(g, P, prefix, ids, lengths, emb_noise, prem)

    def logits_batch(self, texts, premises=None,
                     prefix: list[int] = ()) -> np.ndarray:
        """logits_ids' value, bit for bit, with the token ids of `prefix`
        in front of every text, on plain arrays with no graph.

        It runs the per-step expressions of the graph path
        (gradcore.lstm_step, the narrow copy, matmul, add_bias), but the
        LSTM kinds walk a trie of the texts (`_trie_steps`): the prefix
        steps once, as one row, and each depth steps one row per distinct
        text prefix.

        A graph checks every op's output; this path checks the gates
        (inside lstm_step), the fc1 pre-activation that tanh would
        saturate (bag, pair) and the logits. No unscanned value can be the
        first non-finite one: an embedded input feeds its step's gates or
        the bag's sum, a state past finite gates is bounded (|c'| <= |c| +
        1, |h'| <= 1), and what feeds fc1 and the head reaches the checked
        values. So when a check fails (or an id is out of range, or the
        premises do not pair up with the texts), logits_ids replayed on a
        graph meets the same values and raises the error that names the
        op."""
        prep, prem = self._prepare(texts, premises)
        prefix = np.asarray(prefix, dtype=np.int64)
        try:
            out = self._array_logits(prep, prem, prefix)
        except NumericError:
            out = None
        if out is not None:
            return out[0]
        g = Graph()
        P = self.lift(g)
        self.logits_ids(g, P, texts, premises,
                        prefix=[gc.embed(P["emb"], [t]) for t in prefix])
        raise NumericError("logits_batch: a non-finite value that the graph "
                           "did not reproduce")

    def prefix_grads(self, texts, premises, labels,
                     prefix: list[int]) -> tuple[float, list[np.ndarray]]:
        """The mean cross-entropy of logits_batch(texts, premises, prefix)
        against `labels`, bit for bit the `cross_entropy_value` of those
        logits, and its gradient w.r.t. the embedding row of each prefix
        position, one (E,) array each: what `_graph_prefix_grads` gives on
        a graph, up to the order of float sums.

        The forward is logits_batch's, keeping each trie step's gates and
        output state. The backward walks the trie deepest depth first and
        the last layer first, through gradcore.lstm_step_back, and sums
        each depth's state gradients into the parent rows; the first
        layer's text rows form no input gradient, since their inputs are
        constant embeddings.

        Past logits_batch's checks, the CE and the returned gradients are
        checked: a gradient that turns non-finite reaches a prefix row,
        since every trie row descends from the prefix. When a check fails
        (or an id or label is out of range, or the premises do not pair up
        with the texts), the graph pass is replayed, which raises the
        error that names the op."""
        prep, prem = self._prepare(texts, premises)
        prefix = np.asarray(prefix, dtype=np.int64)
        try:
            out = self._array_prefix_grads(
                prep, prem, np.asarray(labels, dtype=np.int64), prefix)
        except NumericError:
            out = None
        if out is not None:
            return out
        self._graph_prefix_grads(texts, premises, labels, prefix)
        raise NumericError("prefix_grads: a non-finite value that the graph "
                           "did not reproduce")

    def _graph_prefix_grads(self, texts, premises, labels, prefix):
        """prefix_grads on a graph: each prefix id's embedding row is a
        trainable leaf in front of every text. prefix_grads replays it to
        name the op behind a non-finite value, and the tests hold the
        array path to it."""
        g = Graph()
        P = self.lift(g)
        leaves = [g.leaf(gc.embed(P["emb"], [t]).value, requires_grad=True)
                  for t in prefix]
        loss = gc.cross_entropy(self.logits_ids(g, P, texts, premises,
                                                prefix=leaves), labels)
        grads = gc.backward(g, loss)
        return float(loss.value), [grads[leaf.idx][0] for leaf in leaves]

    def _prepare(self, texts, premises):
        """The texts, and for the pair model the premises, as `_prepared`
        arrays."""
        prep = _prepared(tuple(map(tuple, texts)), self.vocab.pad_id)
        if self.kind != "pair":
            return prep, None
        if premises is None:
            raise ContractViolation("pair model needs a premise")
        return prep, _prepared(tuple(map(tuple, premises)), self.vocab.pad_id)

    def _array_logits(self, prep, prem, prefix, tape=None):
        """logits_batch's arithmetic: the logits, the features that feed
        fc1 (bag, pair) or the head (lstm2), and fc1's tanh output (None
        for lstm2). None where the graph would raise: an id out of range,
        premises that do not pair up with the texts, or a non-finite fc1
        pre-activation or logit; lstm_step raises on non-finite gates.
        With a `tape` list, the texts' trie walk records its steps there
        (see `_trie_hidden`)."""
        w = self._arrays()
        ids, lengths, steps = prep
        V = w["emb"].shape[0]
        for a in [ids, prefix] + ([prem[0]] if prem else []):
            if a.size and (a.min() < 0 or a.max() >= V):
                return None
        B = ids.shape[0]
        if self.kind == "bag":
            feats = self._bag_mean(w["emb"], ids, lengths, prefix)
        elif self.kind == "lstm2":
            feats = self._trie_hidden(w, ("l1", "l2"), steps, B, prefix, tape)
        else:
            if prem[0].shape[0] != B:
                return None
            u = self._trie_hidden(w, ("enc",), prem[2], B, prefix[:0])
            v = self._trie_hidden(w, ("enc",), steps, B, prefix, tape)
            feats = np.concatenate([u, v, np.abs(u - v), u * v], axis=1)
        hidden = None
        if self.kind != "lstm2":
            pre = feats @ w["fc1.w"] + w["fc1.b"]
            if not np.isfinite(pre).all():
                return None
            hidden = np.tanh(pre)
        top = feats if hidden is None else hidden
        logits = top @ w["head.w"] + w["head.b"]
        return (logits, feats, hidden) if np.isfinite(logits).all() else None

    def _array_prefix_grads(self, prep, prem, labels, prefix):
        """prefix_grads' arithmetic, or None where the graph would raise."""
        tape = []
        fwd = self._array_logits(prep, prem, prefix, tape)
        B = prep[0].shape[0]
        if (fwd is None or labels.shape != (B,)
                or labels.min() < 0 or labels.max() >= self.n_classes):
            return None
        logits, feats, hidden = fwd
        loss, logp = gc.cross_entropy_value(logits, labels, np.ones(B))
        if not np.isfinite(loss):
            return None
        if not prefix.size:
            return float(loss), []
        # cross_entropy's backward at a loss gradient of one
        dlogits = np.exp(logp)
        dlogits[np.arange(B), labels] -= 1.0
        dlogits *= 1.0 / B
        grads = self._prefix_back(prep, prefix.size, tape, feats, hidden,
                                  dlogits)
        if not all(np.isfinite(gr).all() for gr in grads):
            return None
        return float(loss), grads

    def _prefix_back(self, prep, n_prefix, tape, feats, hidden, dlogits):
        """The gradient w.r.t. each prefix position's embedding row, back
        from the logits through the head, fc1's tanh and the features."""
        w = self._arrays()
        dz = dlogits @ w["head.w"].T
        if self.kind == "lstm2":
            return self._trie_back(w, ("l1", "l2"), prep[2], tape, dz)
        dfeats = (dz * (1.0 - hidden * hidden)) @ w["fc1.w"].T
        if self.kind == "bag":
            # every prefix row is in every text's mean with weight 1/count
            inv_count = 1.0 / np.maximum(n_prefix + prep[1], 1.0)
            row = (dfeats * inv_count[:, None]).sum(axis=0)
            return [row.copy() for _ in range(n_prefix)]
        # pair: to v through [u, v, |u - v|, u * v]
        H = self.hidden_dim
        u, v = feats[:, :H], feats[:, H:2 * H]
        _, dv, dabs, dmul = np.split(dfeats, 4, axis=1)
        return self._trie_back(w, ("enc",), prep[2], tape,
                               dv + dmul * u - dabs * np.sign(u - v))

    def _arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.weights.items()}

    @staticmethod
    def _bag_mean(emb, ids, lengths, prefix):
        """The bag's masked mean of embedded rows, prefix rows first, with
        forward_embs' sums in its order."""
        B, T = ids.shape
        steps = [np.repeat(emb[[t]], B, axis=0) for t in prefix]
        steps += [emb[ids[:, t]] for t in range(T)]
        masks = [np.ones(B)] * len(prefix) + step_masks(lengths, T)
        total, count = None, np.zeros(B)
        for e, keep in zip(steps, masks):
            kept = e * keep[:, None]
            total = kept if total is None else total + kept
            count = count + keep
        return total * (1.0 / np.maximum(count, 1.0))[:, None]

    def _trie_hidden(self, w, layers, steps, n_texts, prefix, tape=None):
        """The last layer's h after each text, each text preceded by the
        `prefix` ids: the prefix steps through every layer once, as one
        row from the zero state, then each depth of the texts' trie
        (`_trie_steps`) steps every layer, one row per distinct prefix.

        With a `tape` list, each step appends its parent rows and, per
        layer, its packed output state and gates: what `_trie_back`
        reads."""
        cells = [(w[f"{name}.ih"], w[f"{name}.hh"], w[f"{name}.b"])
                 for name in layers]
        H = self.hidden_dim
        states = [np.zeros((1, 2 * H)) for _ in layers]

        def step(step_ids, parents):
            x = w["emb"][step_ids]
            kept = []
            for k, (ih, hh, b) in enumerate(cells):
                s = states[k][parents]
                states[k], gates = gc.lstm_step(x, s[:, :H], s[:, H:],
                                                 ih, hh, b)
                kept.append((states[k], gates))
                x = np.ascontiguousarray(states[k][:, :H])
            if tape is not None:
                tape.append((parents, kept))
            return x

        for k in range(prefix.size):
            step(prefix[k : k + 1], np.zeros(1, np.int64))
        out = np.empty((n_texts, H))
        for step_ids, parents, texts, rows in steps:
            out[texts] = step(step_ids, parents)[rows]
        return out

    def _trie_back(self, w, layers, steps, tape, d_out):
        """The gradient w.r.t. each prefix position's input row, from
        `d_out`, the gradient w.r.t. each text's last-layer h, back through
        `_trie_hidden`'s tape: the deepest step first, the last layer
        first. A row's previous c is read through its parent index, and
        each step's state gradients are summed into their parent rows."""
        H = self.hidden_dim
        n_prefix = len(tape) - len(steps)
        d = [np.zeros_like(state) for state, _ in tape[-1][1]]
        grads = []
        for j in range(len(tape) - 1, -1, -1):
            parents, kept = tape[j]
            if j >= n_prefix:
                _, _, texts, rows = steps[j - n_prefix]
                if texts.size:
                    at, sums = _segment_sums(d_out[texts], rows)
                    d[-1][at, :H] += sums
            prev = tape[j - 1][1] if j else None
            d_prev = [None] * len(layers)
            for k in range(len(layers) - 1, -1, -1):
                state, gates = kept[k]
                c = (prev[k][0][parents, H:] if j
                     else np.zeros((parents.size, H)))
                dgates, dc = gc.lstm_step_back(d[k][:, :H], d[k][:, H:], c,
                                               state[:, H:], gates)
                if k:
                    d[k - 1][:, :H] += dgates @ w[f"{layers[k]}.ih"].T
                elif j < n_prefix:
                    grads.append((dgates @ w[f"{layers[0]}.ih"].T)[0])
                if j:
                    d_prev[k] = np.concatenate(
                        [dgates @ w[f"{layers[k]}.hh"].T, dc], axis=1)
            if j:
                d = []
                for dp, (state, _) in zip(d_prev, prev):
                    at, sums = _segment_sums(dp, parents)
                    d.append(np.zeros_like(state))
                    d[-1][at] = sums
        return grads[::-1]

    def predict(self, texts, premises=None, prefix: list[int] = ()) -> np.ndarray:
        return self.logits_batch(texts, premises, prefix=prefix).argmax(axis=1)


# ---------------------------------------------------------------------------
# scoring language model


@dataclass(eq=False)
class ScoringLM(_ModelBase):
    kind = "lm"
    emb_dim: int = 32
    hidden_dim: int = 64

    def _declare(self, rng) -> dict:
        V, E, H = len(self.vocab), self.emb_dim, self.hidden_dim
        w = {"emb": _uniform(rng, (V, E), 0.1)}
        _lstm(w, rng, "lstm", E, H)
        # zero output layer: the untrained model is exactly uniform
        for name, shape in (("out.w", (H, V)), ("out.b", (V,))):
            w[name] = shape if rng is None else Tensor(np.zeros(shape))
        return w

    def step_logits(self, g: Graph, P, in_ids: np.ndarray) -> list[Node]:
        """Next-token logits for each position of a (B, T) input batch."""
        inputs = [gc.embed(P["emb"], in_ids[:, t]) for t in range(in_ids.shape[1])]
        return [gc.add_bias(gc.matmul(_hidden(s), P["out.w"]), P["out.b"])
                for s in run_lstm(g, P, "lstm", inputs)]

    def _teacher_forced(self, texts: list[list[int]]):
        """(in_ids, targets, weights) of a batch of id sequences: (B, T)
        inputs from BOS, then step-major targets and token weights (row
        t*B + i is text i at step t), padding with weight 0 and target 0."""
        ids, lengths = pad_batch(texts, self.vocab.pad_id)
        B, T = ids.shape
        in_ids = np.concatenate([np.full((B, 1), self.vocab.bos_id), ids[:, :-1]],
                                axis=1)
        weights = np.concatenate(step_masks(lengths, T))
        targets = np.where(weights > 0, ids.T.reshape(-1), 0)
        return in_ids, targets, weights

    def batch_ce(self, g: Graph, P, texts: list[list[int]]) -> Node:
        """Token-weighted mean next-token cross-entropy of a batch of id
        sequences, teacher-forced from BOS; padding carries no weight. The
        training loss; `forward_ce` scores with its value."""
        in_ids, targets, weights = self._teacher_forced(texts)
        logits = self.step_logits(g, P, in_ids)
        flat = gc.concat(logits, axis=0) if len(logits) > 1 else logits[0]
        return gc.cross_entropy(flat, targets, weights)

    def forward_ce(self, texts: list[list[int]]) -> float:
        """batch_ce's value, bit for bit, on plain arrays with no graph:
        the same padding, per-step expressions (gradcore.lstm_step, the
        narrow copy, matmul, add_bias), step-major logits and token weights.

        A graph checks every op's output; this path checks the gates
        (inside lstm_step), the logits and the CE. No unscanned value can
        be the first non-finite one: an embedded input feeds its step's
        gates, a state past finite gates is bounded (|c'| <= |c| + 1,
        |h'| <= 1), and h @ out.w feeds the logits. So when a check fails
        (or an id is out of range), batch_ce replayed on a graph meets the
        same values and raises the error that names the op."""
        in_ids, targets, weights = self._teacher_forced(texts)
        try:
            ce = self._array_ce(in_ids, targets, weights)
        except NumericError:
            ce = np.nan
        if np.isfinite(ce):
            return ce
        g = Graph()
        self.batch_ce(g, self.lift(g), texts)
        raise NumericError("forward_ce: a non-finite value that the graph "
                           "did not reproduce")

    def _array_ce(self, in_ids, targets, weights) -> float:
        """forward_ce's arithmetic. An id out of range or a non-finite
        logit gives NaN, and lstm_step raises on non-finite gates."""
        emb, ih, hh, b, out_w, out_b = (
            self.weights[k].data for k in ("emb", "lstm.ih", "lstm.hh",
                                           "lstm.b", "out.w", "out.b"))
        if targets.min() < 0 or targets.max() >= emb.shape[0]:
            return np.nan
        H = hh.shape[0]
        state = np.zeros((in_ids.shape[0], 2 * H))
        logits = []
        for step_ids in in_ids.T:
            state, _ = gc.lstm_step(emb[step_ids], state[:, :H], state[:, H:],
                                    ih, hh, b)
            logits.append(np.ascontiguousarray(state[:, :H]) @ out_w + out_b)
        flat = np.concatenate(logits) if len(logits) > 1 else logits[0]
        if not np.isfinite(flat).all():
            return np.nan
        return float(gc.cross_entropy_value(flat, targets, weights)[0])

    def avg_ce(self, tokens: list[str]) -> float:
        """Mean per-token cross-entropy of a token sequence under the LM:
        `forward_ce` of one row; unknown words map to <unk>."""
        if not tokens:
            raise ContractViolation("avg_ce of an empty sequence")
        if not all(isinstance(t, str) for t in tokens):
            raise ContractViolation("avg_ce expects token strings")
        return self.forward_ce([self.vocab.encode(list(tokens))])


MODEL_KINDS = {"arae": ARAEModel, "lm": ScoringLM,
               **dict.fromkeys(VictimClassifier.KINDS, VictimClassifier)}


def model_from_parts(kind: str, hyperparams: dict, vocab: Vocab,
                     weights: dict[str, Tensor]):
    """Rebuild a model object from checkpoint payload pieces."""
    if kind not in MODEL_KINDS:
        raise ContractViolation(f"unknown model kind {kind!r}")
    return MODEL_KINDS[kind](vocab, weights=weights, **hyperparams)

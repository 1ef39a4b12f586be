"""Reverse-mode autodiff over dense float64 arrays, plus the two attack
primitives that live at the same level: projection of (K, D) rows, each
onto its own l2 ball, and Gumbel-softmax sampling with a straight-through
estimator, whose noise takes one generator per row. A Tensor is a value
checked once on the way in (a weight, a leaf input); what the graph hands
back, node values and backward's gradients, are plain arrays.

Design constraints, fixed on purpose:

* the graph is append-only; node ids are creation order, so reverse
  creation order is already a topological order for backward;
* an op states only its math -- its output and its backward closure --
  and Graph._push applies the graph rules once: the parents must be on
  the pushing graph, the output needs a gradient iff a parent does, and
  only then is the closure kept; a closure captures arrays and flags,
  never a Node, and an entry records parent indices, so no graph is a
  reference cycle;
* every op validates shapes eagerly and checks its output for NaN/Inf
  (a silent non-finite value is always a bug upstream); backward checks
  only the leaf gradients it returns, and replays a checked pass to name
  the op when one is not finite;
* an LSTM step is one fused op, lstm_cell, on a packed [h | c] state with
  a hand-written backward; it steps only the first `live` rows, and it
  also checks its internal gates, because a saturated sigmoid would hide
  an overflow from the output check;
* lstm_step and cross_entropy_value are those two ops' forward values on
  plain arrays, one definition that a forward-only caller (the scoring
  LM) runs without a graph;
* float64 everywhere, no implicit broadcasting beyond the few ops that
  document it (add_bias, tile_rows) -- shape mismatches raise instead
  of broadcasting wrong;
* no higher-order derivatives, no in-place mutation of node values.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, NumericError

__all__ = [
    "Tensor", "Graph", "Node", "backward",
    "add", "add_bias", "sub", "mul", "scale", "add_const",
    "rows_scale", "reciprocal",
    "matmul", "transpose", "tanh", "sigmoid", "absolute", "sqrt",
    "softmax", "embed", "concat", "narrow",
    "mean_all", "sum_axis", "cross_entropy", "cross_entropy_value",
    "tile_rows", "straight_through", "lstm_step", "lstm_cell",
    "gumbel_softmax",
    "l2_project",
]


class Tensor:
    """Immutable-by-convention dense float64 array, row-major."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        if not np.isfinite(arr).all():
            raise NumericError("Tensor constructed with non-finite values")
        self.data = arr

    @property
    def shape(self):
        return tuple(self.data.shape)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class _Entry:
    """What backward reads of a node: its parents' ids, its backward closure,
    and, for a leaf only, its value (for the shape of a zero gradient).
    An op's output lives in its Node, so a forward-only graph frees an
    intermediate value once no Node refers to it; a graph with backward
    closures keeps what they capture."""

    __slots__ = ("kind", "parents", "value", "requires_grad", "back")

    def __init__(self, kind, parents, value, requires_grad, back):
        self.kind = kind
        self.parents = parents
        self.value = value
        self.requires_grad = requires_grad
        self.back = back


class Node:
    """Cheap handle: a graph, an index into it, and the node's value."""

    __slots__ = ("graph", "idx", "value")

    def __init__(self, graph, idx, value):
        self.graph = graph
        self.idx = idx
        self.value = value

    @property
    def shape(self):
        return self.value.shape

    @property
    def requires_grad(self):
        return self.graph._entries[self.idx].requires_grad

    def __repr__(self):
        kind = self.graph._entries[self.idx].kind
        return f"Node({kind}, idx={self.idx}, shape={tuple(self.value.shape)})"


class Graph:
    """Append-only computation record. Every op's output is checked for
    non-finite values as it is pushed, so a NumericError names the first
    op that produced one. A leaf's value was checked when its Tensor was
    made, so it is not scanned again."""

    def __init__(self):
        self._entries: list[_Entry] = []

    def __len__(self):
        return len(self._entries)

    def _push(self, kind, parents, value, back) -> Node:
        """Record op `kind`'s output `value` from the parent Nodes. The
        output needs a gradient iff a parent does; only then is `back`
        (go -> one gradient or None per parent) kept."""
        entries = self._entries
        ids = []
        req = False
        for p in parents:
            if p.graph is not self:
                raise ContractViolation("nodes belong to different graphs")
            ids.append(p.idx)
            req = req or entries[p.idx].requires_grad
        if not np.isfinite(value).all():
            raise NumericError(f"op '{kind}' produced a non-finite value")
        entries.append(_Entry(kind, ids, None, req, back if req else None))
        return Node(self, len(entries) - 1, value)

    def leaf(self, value, requires_grad: bool = False) -> Node:
        """Insert an input node. Leaves are the only nodes whose gradients
        backward() reports."""
        arr = value.data if isinstance(value, Tensor) else Tensor(value).data
        self._entries.append(_Entry("leaf", (), arr, requires_grad, None))
        return Node(self, len(self._entries) - 1, arr)

    def constant(self, value) -> Node:
        return self.leaf(value, requires_grad=False)


# ---------------------------------------------------------------------------
# ops


def add(a: Node, b: Node) -> Node:
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ContractViolation(f"add: shape mismatch {av.shape} vs {bv.shape}")
    return a.graph._push("add", (a, b), av + bv, lambda go: (go, go))


def sub(a: Node, b: Node) -> Node:
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ContractViolation(f"sub: shape mismatch {av.shape} vs {bv.shape}")
    return a.graph._push("sub", (a, b), av - bv, lambda go: (go, -go))


def add_bias(a: Node, b: Node) -> Node:
    """a (..., H) + b (H,): broadcast over leading axes only."""
    av, bv = a.value, b.value
    if bv.ndim != 1 or av.shape[-1] != bv.shape[0]:
        raise ContractViolation(f"add_bias: {av.shape} vs {bv.shape}")
    lead = tuple(range(av.ndim - 1))
    return a.graph._push("add_bias", (a, b), av + bv,
                         lambda go: (go, go.sum(axis=lead) if lead else go))


def mul(a: Node, b: Node) -> Node:
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ContractViolation(f"mul: shape mismatch {av.shape} vs {bv.shape}")
    return a.graph._push("mul", (a, b), av * bv, lambda go: (go * bv, go * av))


def scale(a: Node, c: float) -> Node:
    c = float(c)
    return a.graph._push("scale", (a,), a.value * c, lambda go: (go * c,))


def add_const(a: Node, c: float) -> Node:
    c = float(c)
    return a.graph._push("add_const", (a,), a.value + c, lambda go: (go,))


def rows_scale(a: Node, s: Node) -> Node:
    """a (B x K) scaled row-wise by s (B,)."""
    av, sv = a.value, s.value
    if av.ndim != 2 or sv.shape != (av.shape[0],):
        raise ContractViolation(f"rows_scale: {av.shape} vs {sv.shape}")
    a_req, s_req = a.requires_grad, s.requires_grad

    def back(go):
        ga = go * sv[:, None] if a_req else None
        gs = (go * av).sum(axis=1) if s_req else None
        return (ga, gs)

    return a.graph._push("rows_scale", (a, s), av * sv[:, None], back)


def reciprocal(a: Node) -> Node:
    av = a.value
    if np.any(av == 0.0):
        raise NumericError("reciprocal of zero")
    out = 1.0 / av
    return a.graph._push("reciprocal", (a,), out, lambda go: (-go * out * out,))


def matmul(a: Node, b: Node) -> Node:
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ContractViolation(f"matmul: {av.shape} @ {bv.shape}")
    a_req, b_req = a.requires_grad, b.requires_grad

    def back(go):
        ga = go @ bv.T if a_req else None
        gb = av.T @ go if b_req else None
        return (ga, gb)

    return a.graph._push("matmul", (a, b), av @ bv, back)


def transpose(a: Node) -> Node:
    if a.value.ndim != 2:
        raise ContractViolation("transpose expects a matrix")
    return a.graph._push("transpose", (a,), np.ascontiguousarray(a.value.T),
                         lambda go: (go.T,))


def tanh(a: Node) -> Node:
    out = np.tanh(a.value)
    return a.graph._push("tanh", (a,), out,
                         lambda go: (go * (1.0 - out * out),))


def sigmoid(a: Node) -> Node:
    # 0.5*(1+tanh(x/2)) is stable for large |x|
    out = 0.5 * (1.0 + np.tanh(0.5 * a.value))
    return a.graph._push("sigmoid", (a,), out,
                         lambda go: (go * out * (1.0 - out),))


def absolute(a: Node) -> Node:
    av = a.value
    return a.graph._push("abs", (a,), np.abs(av),
                         lambda go: (go * np.sign(av),))


def sqrt(a: Node) -> Node:
    av = a.value
    if np.any(av < 0.0):
        raise NumericError("sqrt of a negative value")
    out = np.sqrt(av)
    # the derivative blows up at 0; callers add an epsilon under the root
    return a.graph._push("sqrt", (a,), out, lambda go: (go * 0.5 / out,))


def softmax(a: Node, axis: int = -1) -> Node:
    av = a.value
    shifted = av - av.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def back(go):
        dot = (go * out).sum(axis=axis, keepdims=True)
        return (out * (go - dot),)

    return a.graph._push("softmax", (a,), out, back)


def embed(table: Node, ids) -> Node:
    """Gather rows of table (V x E) by an integer id array."""
    ids = np.asarray(ids, dtype=np.int64)
    tv = table.value
    if tv.ndim != 2:
        raise ContractViolation("embed expects a (V, E) table")
    if ids.size and (ids.min() < 0 or ids.max() >= tv.shape[0]):
        raise ContractViolation("embed: id out of range")

    def back(go):
        gt = np.zeros_like(tv)
        np.add.at(gt, ids, go)
        return (gt,)

    return table.graph._push("embed", (table,), tv[ids], back)


def concat(nodes, axis: int = -1) -> Node:
    """Join nodes of one rank along `axis`; every other size must match."""
    nodes = tuple(nodes)
    if not nodes:
        raise ContractViolation("concat of nothing")
    vals = [n.value for n in nodes]
    shapes = [v.shape for v in vals]
    nd = len(shapes[0])
    ax = axis % nd if -nd <= axis < nd else None
    if ax is None or len({(len(s), s[:ax] + s[ax + 1:]) for s in shapes}) > 1:
        raise ContractViolation(f"concat: shapes {shapes} along axis {axis}")
    out = np.concatenate(vals, axis=axis)
    splits = np.cumsum([v.shape[axis] for v in vals[:-1]])

    def back(go):
        return tuple(np.ascontiguousarray(p) for p in np.split(go, splits, axis=axis))

    return nodes[0].graph._push("concat", nodes, out, back)


def narrow(a: Node, axis: int, start: int, length: int) -> Node:
    av = a.value
    if not (0 <= start and start + length <= av.shape[axis]):
        raise ContractViolation(f"narrow: [{start}:{start + length}] outside axis "
                                f"{axis} of {av.shape}")
    key = [slice(None)] * av.ndim
    key[axis] = slice(start, start + length)
    key = tuple(key)

    def back(go):
        ga = np.zeros_like(av)
        ga[key] = go
        return (ga,)

    return a.graph._push("narrow", (a,), np.ascontiguousarray(av[key]), back)


def mean_all(a: Node) -> Node:
    av = a.value
    n = av.size
    return a.graph._push("mean_all", (a,), np.asarray(av.mean()),
                         lambda go: (np.full_like(av, float(go) / n),))


def sum_axis(a: Node, axis: int) -> Node:
    av = a.value

    def back(go):
        return (np.ascontiguousarray(np.broadcast_to(np.expand_dims(go, axis),
                                                     av.shape)),)

    return a.graph._push("sum_axis", (a,), av.sum(axis=axis), back)


def cross_entropy(logits: Node, targets, weights=None) -> Node:
    """Weighted mean negative log-likelihood, fused with log-softmax.

    logits (B x C), targets (B,) int, weights (B,) nonnegative or None.
    Weighting divides by the weight total, so padded positions with
    weight 0 drop out exactly.
    """
    lv = logits.value
    targets = np.asarray(targets, dtype=np.int64)
    if lv.ndim != 2 or targets.shape != (lv.shape[0],):
        raise ContractViolation(f"cross_entropy: logits {lv.shape}, targets "
                                f"{targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= lv.shape[1]):
        raise ContractViolation("cross_entropy: target id out of range")
    if weights is None:
        w = np.ones(lv.shape[0])
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (lv.shape[0],) or np.any(w < 0):
            raise ContractViolation("cross_entropy: bad weights")
    wsum = w.sum()
    if wsum <= 0.0:
        raise ContractViolation("cross_entropy: weights sum to zero")
    out, logp = cross_entropy_value(lv, targets, w)
    rows = np.arange(lv.shape[0])

    def back(go):
        gl = np.exp(logp)
        gl[rows, targets] -= 1.0
        gl *= (w / wsum)[:, None]
        return (gl * float(go),)

    return logits.graph._push("cross_entropy", (logits,), out, back)


def cross_entropy_value(lv: np.ndarray, targets: np.ndarray,
                        w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cross_entropy's output on plain, already validated arrays: returns
    the weighted mean NLL (a 0-d array) and the log-softmax it read."""
    shifted = lv - lv.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    rows = np.arange(lv.shape[0])
    return np.asarray(-(w * logp[rows, targets]).sum() / w.sum()), logp


def tile_rows(a: Node, n: int) -> Node:
    """(1 x E) -> (n x E); backward sums the replicas."""
    av = a.value
    if av.ndim != 2 or av.shape[0] != 1:
        raise ContractViolation("tile_rows expects a single-row matrix")
    return a.graph._push("tile_rows", (a,), np.repeat(av, n, axis=0),
                         lambda go: (go.sum(axis=0, keepdims=True),))


def straight_through(soft: Node, hard) -> Node:
    """Forward the hard array, route gradients to the soft parent unchanged."""
    hard = np.ascontiguousarray(hard, dtype=np.float64)
    if hard.shape != soft.value.shape:
        raise ContractViolation("straight_through: shape mismatch")
    return soft.graph._push("straight_through", (soft,), hard, lambda go: (go,))


def lstm_step(x, h, c, w_ih, w_hh, b):
    """lstm_cell's forward on plain arrays: x (n x E), h and c (n x H).
    Returns the packed next state [h' | c'] (n x 2H) and the gate
    activations (i, f, u, o) that the backward reads. The gates are
    checked for non-finite values; past that check every value is bounded
    (sigmoid and tanh lie in [-1, 1], so |c'| <= |c| + 1 and |h'| <= 1)."""
    H = w_hh.shape[0]
    gates = (x @ w_ih + h @ w_hh) + b
    if not np.isfinite(gates).all():
        raise NumericError("op 'lstm_cell' produced non-finite gates")
    i, f, o = (0.5 * (1.0 + np.tanh(0.5 * gates[:, k * H:(k + 1) * H]))
               for k in (0, 1, 3))
    u = np.tanh(gates[:, 2 * H:3 * H])
    c2 = f * c + i * u
    return np.concatenate([o * np.tanh(c2), c2], axis=1), (i, f, u, o)


def lstm_cell(x: Node, state: Node, w_ih: Node, w_hh: Node, b: Node,
              live: int | None = None) -> Node:
    """One LSTM step as a single node.

    x (R x E), state (B x 2H) packed as [h | c], w_ih (E x 4H), w_hh
    (H x 4H), b (4H,) with gates in the order i, f, u, o. Returns the
    packed next state. With live=n, the step reads only the first n rows
    of x and state (n <= R <= B), and rows n: of the state pass through
    unchanged, in the forward and the backward: a batch sorted
    longest-first steps only the texts that have not ended.

    The forward (lstm_step) evaluates the numpy expressions of the
    matmul, add_bias, narrow, sigmoid, tanh and mul composition it
    replaces, in the same order, and the backward forms each gradient with
    the same expressions, so values and gradients are bit-identical to
    that composition. The gates are checked for non-finite values as well
    as the output: a saturated sigmoid would otherwise hide an overflow.
    """
    xv, sv, ih, hh, bv = x.value, state.value, w_ih.value, w_hh.value, b.value
    H = hh.shape[0]
    B = sv.shape[0]
    n = B if live is None else int(live)
    if (xv.ndim != 2 or ih.shape != (xv.shape[1], 4 * H)
            or hh.shape != (H, 4 * H) or bv.shape != (4 * H,)
            or sv.shape != (B, 2 * H) or not 1 <= n <= xv.shape[0] <= B):
        raise ContractViolation(f"lstm_cell: x {xv.shape}, state {sv.shape}, "
                                f"w_ih {ih.shape}, w_hh {hh.shape}, "
                                f"b {bv.shape}, live {live}")
    R = xv.shape[0]
    xn = xv[:n]
    h = sv[:n, :H]
    c = sv[:n, H:]
    out, (i, f, u, o) = lstm_step(xn, h, c, ih, hh, bv)
    if n < B:
        out = np.concatenate([out, sv[n:]])

    parents = (x, state, w_ih, w_hh, b)
    x_req, s_req, ih_req, hh_req, b_req = (p.requires_grad for p in parents)

    def back(go):
        dh, dc = go[:n, :H], go[:n, H:]
        tc = np.tanh(out[:n, H:])
        dc = dc + dh * o * (1.0 - tc * tc)
        dgates = np.concatenate([dc * u * i * (1.0 - i),
                                 dc * c * f * (1.0 - f),
                                 dc * i * (1.0 - u * u),
                                 dh * tc * o * (1.0 - o)], axis=1)
        dx = dstate = None
        if x_req:
            dx = dgates @ ih.T
            if n < R:
                dx = np.concatenate([dx, np.zeros((R - n, xv.shape[1]))])
        if s_req:
            dstate = np.concatenate([dgates @ hh.T, dc * f], axis=1)
            if n < B:
                dstate = np.concatenate([dstate, go[n:]])
        return (dx, dstate,
                xn.T @ dgates if ih_req else None,
                h.T @ dgates if hh_req else None,
                dgates.sum(axis=0) if b_req else None)

    return x.graph._push("lstm_cell", parents, out, back)


# ---------------------------------------------------------------------------
# backward


def backward(graph: Graph, loss: Node) -> dict[int, np.ndarray]:
    """Accumulate dLoss/dLeaf for every leaf marked requires_grad.

    Returns {leaf node id: gradient array}; leaves the loss never touched
    get exact zeros. Node values are left untouched, so several losses can
    be differentiated from one graph. A node's gradient is dropped once its
    backward has run, so at most the gradients of the nodes still waiting
    for their backward are held at once.

    The pass checks only what it returns: each leaf gradient, once. When
    one is not finite, the same graph is replayed with every check on,
    which raises the NumericError naming the op whose backward first formed
    a non-finite gradient or sum. The replay recomputes the same gradients,
    because backward changes no value and no closure. And no closure of
    the ops above turns a non-finite gradient into a finite one: each
    multiplies its incoming gradient by checked forward values, sums,
    gathers or scatters it, and a float product or sum with a NaN or Inf
    term is NaN or Inf. So a non-finite gradient either shows at a leaf or
    reaches no leaf that needs a gradient; then it changes no result and
    raises nothing.
    """
    if loss.graph is not graph:
        raise ContractViolation("loss node belongs to a different graph")
    if loss.value.size != 1:
        raise ContractViolation(f"loss must be scalar, got shape {loss.shape}")
    out = _backward(graph, loss, checked=False)
    for idx, g in out.items():
        if not np.isfinite(g).all():
            _backward(graph, loss, checked=True)
            raise NumericError(f"backward produced a non-finite gradient for "
                               f"leaf {idx}")
    return out


def _backward(graph: Graph, loss: Node, checked: bool) -> dict[int, np.ndarray]:
    """backward's pass. With `checked`, every gradient a closure forms and
    every sum of two is checked finite, and the first that is not raises
    a NumericError naming the op; the gradients are the same either way."""
    entries = graph._entries
    grads: list = [None] * (loss.idx + 1)
    grads[loss.idx] = np.ones_like(loss.value)

    for idx in range(loss.idx, -1, -1):
        go = grads[idx]
        if go is None:
            continue
        e = entries[idx]
        if e.back is None:
            continue
        pgrads = e.back(go)
        grads[idx] = go = None
        for pid, pg in zip(e.parents, pgrads):
            if checked and pg is not None and not np.isfinite(pg).all():
                raise NumericError(f"backward through '{e.kind}' produced a "
                                   "non-finite gradient")
            if pg is None or not entries[pid].requires_grad:
                continue
            if grads[pid] is None:
                grads[pid] = pg.copy() if pg.base is not None else pg
            else:
                grads[pid] = grads[pid] + pg
                if checked and not np.isfinite(grads[pid]).all():
                    raise NumericError(f"backward through '{e.kind}' produced "
                                       "a non-finite gradient sum")

    out: dict[int, np.ndarray] = {}
    for idx, e in enumerate(entries):
        if e.kind == "leaf" and e.requires_grad:
            g = grads[idx] if idx <= loss.idx else None
            out[idx] = g if g is not None else np.zeros_like(e.value)
    return out


# ---------------------------------------------------------------------------
# attack primitives


def l2_project(n: np.ndarray, n0: np.ndarray, eps: float) -> np.ndarray:
    """Project each row of n (K x D) onto the l2 ball of radius eps around
    the same row of n0.

    Rows inside the ball (within a 1e-12 relative margin, which also makes
    the projection exactly idempotent) come back unchanged, and when every
    row is inside, n itself comes back.
    """
    if n.ndim != 2 or n.shape != n0.shape:
        raise ContractViolation(f"l2_project: expected two (K, D) arrays, got "
                                f"{n.shape} and {n0.shape}")
    eps = float(eps)
    if not eps > 0.0:
        raise ContractViolation("l2_project: eps must be positive")
    d = n - n0
    nrm = np.sqrt((d * d).sum(axis=1))
    out = nrm > eps * (1.0 + 1e-12)
    if not out.any():
        return n
    n = n.copy()
    n[out] = n0[out] + d[out] * (eps / nrm[out])[:, None]
    return n


def sample_gumbel(shape, rngs) -> np.ndarray:
    """Standard Gumbel noise of a (B, V) shape, G = -log(-log U) with U
    clipped into (1e-12, 1 - 1e-12) so both logs stay finite. `rngs` holds
    one generator per row, which draws that row's V uniforms."""
    u = np.concatenate([r.random((1, shape[1])) for r in rngs])
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def gumbel_softmax(logits: Node, tau: float, rngs, hard: bool = False):
    """Sample a relaxed categorical row-wise from logits (B x V).

    Returns (soft, sample): soft is softmax((logits + G)/tau), with G
    drawn by `rngs` as `sample_gumbel` draws it; with hard=True, sample
    forwards the one-hot argmax of soft but passes gradients through as
    if it were soft (straight-through), otherwise sample is soft itself.
    """
    if not tau > 0.0:
        raise ContractViolation("gumbel_softmax: tau must be positive")
    lv = logits.value
    if lv.ndim != 2:
        raise ContractViolation("gumbel_softmax expects (B, V) logits")
    g = logits.graph
    noise = g.constant(sample_gumbel(lv.shape, rngs))
    soft = softmax(scale(add(logits, noise), 1.0 / tau), axis=1)
    if not hard:
        return soft, soft
    onehot = np.zeros_like(soft.value)
    onehot[np.arange(onehot.shape[0]), soft.value.argmax(axis=1)] = 1.0
    return soft, straight_through(soft, onehot)

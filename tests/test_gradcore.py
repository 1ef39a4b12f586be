"""Engine checks: finite-difference oracles for every op, projection
geometry, Gumbel sampling statistics, and determinism."""

import re
import tracemalloc
import weakref

import numpy as np
import pytest

from nutsearch import gradcore as gc
from nutsearch.errors import ContractViolation, NumericError

from helpers import fd_grad, rel_err
from test_acceptance import _op_cases

RNG = np.random.default_rng

FD_TOL = 1e-4


def _grad_of(build, x0):
    """Gradient of build(graph, leaf_node) -> scalar node at x0."""
    g = gc.Graph()
    x = g.leaf(np.asarray(x0, dtype=np.float64), requires_grad=True)
    loss = build(g, x)
    return gc.backward(g, loss)[x.idx]


def _check_op(build, x0, tol=FD_TOL):
    x0 = np.asarray(x0, dtype=np.float64)
    got = _grad_of(build, x0)

    def f(x):
        g = gc.Graph()
        leaf = g.leaf(x, requires_grad=False)
        return float(build(g, leaf).value)

    want = fd_grad(f, x0.copy())
    assert rel_err(got, want) <= tol, f"rel err {rel_err(got, want)}"


class TestOpGradients:
    def test_square_scalar(self):
        g = gc.Graph()
        x = g.leaf(np.asarray(3.0), requires_grad=True)
        loss = gc.mul(x, x)
        grads = gc.backward(g, loss)
        assert grads[x.idx] == pytest.approx(6.0, abs=0.0)

    def test_constant_gets_exact_zero(self):
        g = gc.Graph()
        x = g.leaf(np.asarray([1.0, 2.0]), requires_grad=True)
        unused = g.leaf(np.asarray([5.0, 5.0]), requires_grad=True)
        loss = gc.mean_all(gc.mul(x, x))
        grads = gc.backward(g, loss)
        assert np.array_equal(grads[unused.idx], np.zeros(2))

    def test_add(self):
        r = RNG(0)
        b = r.standard_normal((3, 4))
        _check_op(lambda g, x: gc.mean_all(gc.mul(gc.add(x, g.constant(b)), x)),
                  r.standard_normal((3, 4)))

    def test_sub(self):
        r = RNG(1)
        b = r.standard_normal((3, 4))
        _check_op(lambda g, x: gc.mean_all(gc.mul(gc.sub(x, g.constant(b)), x)),
                  r.standard_normal((3, 4)))

    def test_add_bias_on_bias(self):
        r = RNG(2)
        a = r.standard_normal((5, 3))
        _check_op(lambda g, x: gc.mean_all(gc.tanh(gc.add_bias(g.constant(a), x))),
                  r.standard_normal(3))

    def test_mul(self):
        r = RNG(3)
        b = r.standard_normal((2, 6))
        _check_op(lambda g, x: gc.mean_all(gc.mul(x, g.constant(b))),
                  r.standard_normal((2, 6)))

    def test_scale_add_const(self):
        r = RNG(4)
        _check_op(lambda g, x: gc.mean_all(gc.mul(gc.add_const(gc.scale(x, -2.5), 1.0), x)),
                  r.standard_normal((4,)))

    def test_matmul_left_right(self):
        r = RNG(5)
        b = r.standard_normal((4, 3))
        _check_op(lambda g, x: gc.mean_all(gc.tanh(gc.matmul(x, g.constant(b)))),
                  r.standard_normal((2, 4)))
        a = r.standard_normal((2, 4))
        _check_op(lambda g, x: gc.mean_all(gc.tanh(gc.matmul(g.constant(a), x))),
                  r.standard_normal((4, 3)))

    def test_transpose(self):
        r = RNG(6)
        b = r.standard_normal((3, 2))
        _check_op(lambda g, x: gc.mean_all(gc.mul(gc.transpose(x), g.constant(b))),
                  r.standard_normal((2, 3)))

    def test_tanh_sigmoid(self):
        r = RNG(7)
        _check_op(lambda g, x: gc.mean_all(gc.tanh(x)), r.standard_normal((3, 3)))
        _check_op(lambda g, x: gc.mean_all(gc.sigmoid(x)), r.standard_normal((3, 3)))

    def test_abs_away_from_zero(self):
        x0 = np.array([1.5, -2.0, 0.75, -0.5])
        _check_op(lambda g, x: gc.mean_all(gc.absolute(x)), x0)

    def test_sqrt(self):
        r = RNG(8)
        _check_op(lambda g, x: gc.mean_all(gc.sqrt(x)),
                  r.random((3, 3)) + 0.5)

    def test_softmax(self):
        r = RNG(9)
        w = r.standard_normal((2, 5))
        _check_op(lambda g, x: gc.mean_all(gc.mul(gc.softmax(x, axis=1), g.constant(w))),
                  r.standard_normal((2, 5)))

    def test_embed(self):
        r = RNG(11)
        ids = np.array([0, 2, 2, 1])
        w = r.standard_normal((4, 3))
        _check_op(lambda g, x: gc.mean_all(gc.mul(gc.embed(x, ids), g.constant(w))),
                  r.standard_normal((5, 3)))

    def test_concat_narrow(self):
        r = RNG(12)
        b = r.standard_normal((2, 3))

        def build(g, x):
            cat = gc.concat([x, g.constant(b)], axis=1)
            return gc.mean_all(gc.tanh(gc.narrow(cat, 1, 1, 4)))

        _check_op(build, r.standard_normal((2, 3)))

    def test_sum_axis(self):
        r = RNG(13)
        _check_op(lambda g, x: gc.mean_all(gc.tanh(gc.sum_axis(x, 1))),
                  r.standard_normal((3, 4)))
        _check_op(lambda g, x: gc.mean_all(gc.tanh(gc.sum_axis(x, 0))),
                  r.standard_normal((3, 4)))

    def test_mean_all(self):
        r = RNG(14)
        _check_op(lambda g, x: gc.mean_all(gc.mul(x, x)), r.standard_normal((4, 2)))

    def test_cross_entropy(self):
        r = RNG(15)
        tgt = np.array([1, 0, 3, 2])
        _check_op(lambda g, x: gc.cross_entropy(x, tgt), r.standard_normal((4, 5)))

    def test_cross_entropy_weighted_drops_zero_rows(self):
        r = RNG(16)
        tgt = np.array([1, 0, 3])
        w = np.array([1.0, 0.0, 2.0])
        _check_op(lambda g, x: gc.cross_entropy(x, tgt, w), r.standard_normal((3, 5)))
        # a row with weight 0 must not influence the value at all
        g = gc.Graph()
        logits = r.standard_normal((3, 5))
        a = gc.cross_entropy(g.constant(logits), tgt, w)
        logits2 = logits.copy()
        logits2[1] += 100.0
        b = gc.cross_entropy(g.constant(logits2), tgt, w)
        assert float(a.value) == pytest.approx(float(b.value), abs=1e-12)

    def test_tile_rows(self):
        r = RNG(17)
        w = r.standard_normal((6, 3))
        _check_op(lambda g, x: gc.mean_all(gc.mul(gc.tile_rows(x, 6), g.constant(w))),
                  r.standard_normal((1, 3)))

    def test_rows_scale_both_sides(self):
        r = RNG(19)
        s = r.standard_normal(3) + 2.0
        _check_op(lambda g, x: gc.mean_all(gc.tanh(gc.rows_scale(x, g.constant(s)))),
                  r.standard_normal((3, 4)))
        a = r.standard_normal((3, 4))
        _check_op(lambda g, x: gc.mean_all(gc.tanh(gc.rows_scale(g.constant(a), x))),
                  r.standard_normal(3))

    def test_reciprocal(self):
        r = RNG(20)
        _check_op(lambda g, x: gc.mean_all(gc.reciprocal(x)), r.random((3,)) + 0.5)

    def test_row_l2_normalize_matches_fd(self):
        # the composite the encoder uses: x / sqrt(sum(x^2) + eps) row-wise
        r = RNG(21)
        w = r.standard_normal((3, 4))

        def build(g, x):
            nrm = gc.sqrt(gc.add_const(gc.sum_axis(gc.mul(x, x), 1), 1e-12))
            unit = gc.rows_scale(x, gc.reciprocal(nrm))
            return gc.mean_all(gc.mul(unit, g.constant(w)))

        _check_op(build, r.standard_normal((3, 4)))

    def test_chained_mlp(self):
        r = RNG(18)
        w1 = r.standard_normal((4, 8))
        w2 = r.standard_normal((8, 2))
        tgt = np.array([1, 0, 1])

        def build(g, x):
            h = gc.tanh(gc.matmul(x, g.constant(w1)))
            return gc.cross_entropy(gc.matmul(h, g.constant(w2)), tgt)

        _check_op(build, r.standard_normal((3, 4)))


class TestBackwardContract:
    def test_non_scalar_loss_rejected(self):
        g = gc.Graph()
        x = g.leaf(np.ones((2, 2)), requires_grad=True)
        y = gc.tanh(x)
        with pytest.raises(ContractViolation):
            gc.backward(g, y)

    def test_shape_mismatch_rejected(self):
        g = gc.Graph()
        a = g.leaf(np.ones((2, 3)))
        b = g.leaf(np.ones((3, 2)))
        with pytest.raises(ContractViolation):
            gc.add(a, b)

    def test_nonfinite_op_output_names_op(self):
        g = gc.Graph()
        a = g.leaf(np.asarray([[1e308]]))
        b = g.leaf(np.asarray([[1e308]]))
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="mul"):
            gc.mul(a, b)

    def test_overflowing_gradient_names_op(self):
        # every value is finite, but b's gradient is 1e200 * 1e200
        g = gc.Graph()
        a = g.leaf(np.asarray([1e200]), requires_grad=True)
        b = g.leaf(np.asarray([1e-200]), requires_grad=True)
        loss = gc.mean_all(gc.scale(gc.mul(a, b), 1e200))
        with np.errstate(over="ignore"), pytest.raises(
                NumericError,
                match="backward through 'mul' produced a non-finite gradient"):
            gc.backward(g, loss)

    def test_overflowing_gradient_sum_raises(self):
        # each path's gradient is 1e308; only their sum overflows
        g = gc.Graph()
        a = g.leaf(np.asarray([1e-300]), requires_grad=True)
        loss = gc.mean_all(gc.add(gc.scale(a, 1e308), gc.scale(a, 1e308)))
        with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                       match="'scale'"):
            gc.backward(g, loss)

    def test_overflow_reaching_only_a_constant_raises_nothing(self):
        # the constant's gradient is 1e200 * 1e200, but no result reads it
        g = gc.Graph()
        x = g.leaf(np.asarray([1e200]), requires_grad=True)
        c = g.constant(np.asarray([1e-200]))
        loss = gc.mean_all(gc.scale(gc.mul(x, c), 1e200))
        with np.errstate(over="ignore"):
            grads = gc.backward(g, loss)
        assert grads.keys() == {x.idx}
        assert grads[x.idx] == pytest.approx([1.0], rel=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_raw_input_rejected(self, bad):
        raw = np.asarray([[1.0, bad]])
        with pytest.raises(NumericError):
            gc.Tensor(raw)
        g = gc.Graph()
        with pytest.raises(NumericError):
            g.leaf(raw)
        assert len(g) == 0

    def test_values_survive_backward(self):
        g = gc.Graph()
        x = g.leaf(np.asarray([[1.0, 2.0]]), requires_grad=True)
        y = gc.tanh(x)
        loss = gc.mean_all(y)
        before = y.value.copy()
        g1 = gc.backward(g, loss)
        g2 = gc.backward(g, loss)
        assert np.array_equal(y.value, before)
        assert np.array_equal(g1[x.idx], g2[x.idx])

    def test_fanout_accumulates(self):
        g = gc.Graph()
        x = g.leaf(np.asarray(2.0), requires_grad=True)
        loss = gc.add(gc.mul(x, x), gc.scale(x, 3.0))  # x^2 + 3x
        grads = gc.backward(g, loss)
        assert float(grads[x.idx]) == pytest.approx(7.0, abs=0.0)

    def test_determinism_bit_identical(self):
        def run():
            r = RNG(123)
            g = gc.Graph()
            x = g.leaf(r.standard_normal((4, 6)), requires_grad=True)
            w = g.leaf(r.standard_normal((6, 3)), requires_grad=True)
            h = gc.softmax(gc.matmul(gc.tanh(x), w), axis=1)
            loss = gc.mean_all(gc.mul(h, h))
            grads = gc.backward(g, loss)
            return float(loss.value), grads[x.idx], grads[w.idx]

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)


OP_CASES = _op_cases()

# each op with several parents, and parent shapes it accepts
MULTI_PARENT = {
    "add": (gc.add, [(2, 3), (2, 3)]),
    "sub": (gc.sub, [(2, 3), (2, 3)]),
    "add_bias": (gc.add_bias, [(2, 3), (3,)]),
    "mul": (gc.mul, [(2, 3), (2, 3)]),
    "rows_scale": (gc.rows_scale, [(2, 3), (2,)]),
    "matmul": (gc.matmul, [(2, 3), (3, 2)]),
    "concat": (lambda *nodes: gc.concat(nodes), [(2, 3), (2, 3)]),
    "lstm_cell": (gc.lstm_cell, [(2, 2), (2, 4), (2, 8), (2, 8), (8,)]),
}


class TestGraphRules:
    """The graph, not the op, decides which graph a node is on, whether
    it needs a gradient, and whether it keeps a backward closure."""

    @pytest.mark.parametrize("name,x0,build", OP_CASES,
                             ids=[name for name, _, _ in OP_CASES])
    def test_gradient_needed_iff_an_input_needs_one(self, name, x0, build):
        g = gc.Graph()
        loss = build(g, g.leaf(np.array(x0)))
        assert not loss.requires_grad
        assert all(e.back is None for e in g._entries)
        g = gc.Graph()
        assert build(g, g.leaf(np.array(x0), requires_grad=True)).requires_grad

    @pytest.mark.parametrize("op,pos", [
        (op, k) for op, (_, shapes) in MULTI_PARENT.items()
        for k in range(len(shapes))])
    def test_nodes_of_two_graphs_rejected(self, op, pos):
        fn, shapes = MULTI_PARENT[op]
        g, other = gc.Graph(), gc.Graph()
        args = [(other if k == pos else g).leaf(RNG(k).standard_normal(shape))
                for k, shape in enumerate(shapes)]
        with pytest.raises(ContractViolation, match="different graphs"):
            fn(*args)


def _peak_bytes(fn):
    """The traced allocation peak while fn() runs, and its result."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


class TestMemory:
    """A graph keeps only what its backward reads."""

    def test_forward_only_intermediate_freed_with_its_node(self):
        g = gc.Graph()
        y = gc.tanh(g.leaf(np.full((4, 4), 0.5)))
        freed = weakref.ref(y.value)
        z = gc.scale(y, 2.0)
        del y
        assert freed() is None
        assert len(g) == 3 and z.value.shape == (4, 4)

    def test_backward_holds_few_gradients_at_once(self):
        g = gc.Graph()
        x = g.leaf(np.full((256, 256), 0.01), requires_grad=True)
        y = x
        for _ in range(30):
            y = gc.tanh(y)
        loss = gc.mean_all(y)
        peak, grads = _peak_bytes(lambda: gc.backward(g, loss))
        # one gradient per node would be 30 arrays
        assert peak < 5 * x.value.nbytes
        assert grads[x.idx].shape == x.shape

    def test_forward_only_cross_entropy_allocates_no_softmax(self):
        logits = RNG(7).standard_normal((512, 512))
        targets = RNG(8).integers(0, 512, size=512)
        g = gc.Graph()
        leaf = g.leaf(logits)
        peak, _ = _peak_bytes(lambda: gc.cross_entropy(leaf, targets))
        # the shifted logits and the log-probabilities; a softmax is a third
        assert peak < 2.5 * logits.nbytes


def _project_one(n, n0, eps):
    """The one-vector projection that the row-wise l2_project replaced,
    kept as the reference each of its rows must match bit for bit."""
    d = n - n0
    nrm = float(np.sqrt((d * d).sum()))
    if nrm <= eps * (1.0 + 1e-12):
        return n
    return n0 + d * (eps / nrm)


class TestL2Project:
    def test_analytic_case_exact(self):
        out = gc.l2_project(np.array([[3.0, 4.0]]), np.zeros((1, 2)), 2.5)
        assert np.array_equal(out, np.array([[1.5, 2.0]]))

    def test_interior_identity(self):
        n0 = np.array([[1.0, 1.0]])
        n = np.array([[1.0, 1.0 + 0.5]])  # distance eps/2 for eps=1
        out = gc.l2_project(n, n0, 1.0)
        assert out is n

    def test_center_stays(self):
        n0 = np.array([[2.0, -3.0]])
        out = gc.l2_project(n0, n0, 0.1)
        assert np.array_equal(out, n0)

    def test_random_suite(self):
        r = RNG(2024)
        for _ in range(1000):
            dim = int(r.integers(1, 9))
            n0 = r.standard_normal((1, dim)) * 3.0
            n = r.standard_normal((1, dim)) * 5.0
            eps = float(r.random() * 4.0 + 1e-3)
            p = gc.l2_project(n, n0, eps)
            d = p - n0
            assert float(np.sqrt((d * d).sum())) <= eps * (1.0 + 1e-12)
            # exact idempotence
            pp = gc.l2_project(p, n0, eps)
            assert np.array_equal(pp, p)
            # interior identity
            inside = n0 + d * (0.5 * eps / max(1e-9, np.linalg.norm(d)))
            q = gc.l2_project(inside, n0, eps)
            assert np.array_equal(q, inside)

    @pytest.mark.parametrize("K", [1, 4, 8])
    def test_rows_match_one_vector_projection(self, K):
        """Each row is projected onto its own ball exactly as the
        one-vector projection projects it alone, with the rows inside, on
        and outside their balls mixed in one call."""
        r = RNG(K)
        for i in range(200):
            dim = int(r.choice([1, 3, 16, 33]))
            n0 = r.standard_normal((K, dim)) * 3.0
            d = r.standard_normal((K, dim))
            eps = float(r.random() * 4.0 + 1e-3)
            # row k's distance is eps times 0.5 (inside), 1 (on the sphere,
            # to rounding) or 2 (outside), in turn across rows and calls
            ratio = np.array([0.5, 1.0, 2.0])[(np.arange(K) + i) % 3]
            n = n0 + d * (ratio * eps / np.linalg.norm(d, axis=1))[:, None]
            got = gc.l2_project(n, n0, eps)
            want = np.stack([_project_one(a, b, eps) for a, b in zip(n, n0)])
            assert np.array_equal(got, want)

    def test_bad_args(self):
        with pytest.raises(ContractViolation):
            gc.l2_project(np.ones((1, 1)), np.ones((1, 2)), 1.0)
        with pytest.raises(ContractViolation):
            gc.l2_project(np.ones(2), np.ones(2), 1.0)
        with pytest.raises(ContractViolation):
            gc.l2_project(np.ones((1, 1)), np.ones((1, 1)), 0.0)


class TestGumbelSoftmax:
    def test_peaked_logits_pick_argmax(self):
        g = gc.Graph()
        logits = g.constant(np.tile(np.array([10.0, 0.0, 0.0]), (10_000, 1)))
        _, sample = gc.gumbel_softmax(logits, tau=0.5,
                                      rngs=[RNG(7)] * 10_000, hard=True)
        freq0 = sample.value[:, 0].mean()
        assert freq0 >= 0.99

    def test_hard_frequencies_match_softmax(self):
        r = RNG(99)
        row = r.standard_normal(5)
        n = 100_000
        g = gc.Graph()
        logits = g.constant(np.tile(row, (n, 1)))
        _, sample = gc.gumbel_softmax(logits, tau=1.0, rngs=[RNG(8)] * n,
                                      hard=True)
        freq = sample.value.mean(axis=0)
        e = np.exp(row - row.max())
        p = e / e.sum()
        tv = 0.5 * float(np.abs(freq - p).sum())
        assert tv <= 0.02

    def test_rows_sum_to_one(self):
        g = gc.Graph()
        logits = g.leaf(RNG(1).standard_normal((4, 6)), requires_grad=True)
        soft, sample = gc.gumbel_softmax(logits, tau=0.7, rngs=[RNG(2)] * 4,
                                         hard=True)
        assert np.allclose(soft.value.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(sample.value.sum(axis=1), np.ones(4))
        assert np.array_equal(sample.value[sample.value > 0], np.ones(4))

    def test_straight_through_backward_equals_soft(self):
        r = RNG(42)
        row = r.standard_normal((3, 7))
        w = r.standard_normal((3, 7))

        def grads(hard):
            g = gc.Graph()
            logits = g.leaf(row, requires_grad=True)
            _, sample = gc.gumbel_softmax(logits, tau=0.5, rngs=[RNG(5)] * 3,
                                          hard=hard)
            loss = gc.mean_all(gc.mul(sample, g.constant(w)))
            return gc.backward(g, loss)[logits.idx]

        assert np.array_equal(grads(True), grads(False))

    def test_soft_path_matches_fd(self):
        r = RNG(43)
        row = r.standard_normal((2, 4))
        w = r.standard_normal((2, 4))
        gumbel = gc.sample_gumbel((2, 4), [RNG(6)] * 2)

        def f_graph(x, want_grad):
            g = gc.Graph()
            logits = g.leaf(x, requires_grad=want_grad)
            noisy = gc.add(logits, g.constant(gumbel))
            soft = gc.softmax(gc.scale(noisy, 1.0 / 0.7), axis=1)
            loss = gc.mean_all(gc.mul(soft, g.constant(w)))
            return g, logits, loss

        g, logits, loss = f_graph(row, True)
        got = gc.backward(g, loss)[logits.idx]
        want = fd_grad(lambda x: float(f_graph(x, False)[2].value), row.copy())
        assert rel_err(got, want) <= FD_TOL

    def test_one_generator_per_row_draws_as_one_draw_did(self):
        """A shared generator draws the rows in turn, which is what one
        rng.random((B, V)) call drew; distinct generators draw a row each."""
        def gumbel(u):
            u = np.clip(u, 1e-12, 1.0 - 1e-12)
            return -np.log(-np.log(u))

        for B, V in [(1, 1), (3, 7), (8, 33)]:
            got = gc.sample_gumbel((B, V), [RNG(6)] * B)
            assert np.array_equal(got, gumbel(RNG(6).random((B, V))))
            got = gc.sample_gumbel((B, V), [RNG(k) for k in range(B)])
            want = np.concatenate([RNG(k).random((1, V)) for k in range(B)])
            assert np.array_equal(got, gumbel(want))

    def test_bad_tau(self):
        g = gc.Graph()
        logits = g.constant(np.zeros((1, 3)))
        with pytest.raises(ContractViolation):
            gc.gumbel_softmax(logits, tau=0.0, rngs=[RNG(0)])


def _unfused_cell(x, h, c, w_ih, w_hh, b, live=None):
    """The matmul/narrow/sigmoid/tanh/mul composition that lstm_cell
    replaces, kept as the reference it must match bit for bit. With
    live=n, the first n rows of x, h and c step and the other rows of h
    and c are concatenated back unchanged."""
    B, H = h.value.shape[0], w_hh.value.shape[0]
    n = B if live is None else live
    if n < x.value.shape[0]:
        x = gc.narrow(x, 0, 0, n)
    hn, cn = (h, c) if n == B else (gc.narrow(h, 0, 0, n), gc.narrow(c, 0, 0, n))
    gates = gc.add_bias(gc.add(gc.matmul(x, w_ih), gc.matmul(hn, w_hh)), b)
    i = gc.sigmoid(gc.narrow(gates, 1, 0, H))
    f = gc.sigmoid(gc.narrow(gates, 1, H, H))
    u = gc.tanh(gc.narrow(gates, 1, 2 * H, H))
    o = gc.sigmoid(gc.narrow(gates, 1, 3 * H, H))
    c2 = gc.add(gc.mul(f, cn), gc.mul(i, u))
    h2 = gc.mul(o, gc.tanh(c2))
    if n < B:
        h2 = gc.concat([h2, gc.narrow(h, 0, n, B - n)], axis=0)
        c2 = gc.concat([c2, gc.narrow(c, 0, n, B - n)], axis=0)
    return h2, c2


class TestLSTMCell:
    B, E, H, T, V = 5, 3, 4, 6, 7

    def _run(self, fused):
        """Two stacked layers over a batch sorted longest-first, each step
        on its live rows only. Layer 1 starts from a trainable h and reads
        just its live rows' embeddings; its h feeds the next step, layer 2
        (all rows, of which the cell reads the live ones) and the loss, as
        in the models. Returns (loss, each step's (h, c), leaf grads)."""
        B, E, H, T, V = self.B, self.E, self.H, self.T, self.V
        r = RNG(31)
        init = {"emb": (V, E), "h0": (B, H), "head": (H, 3),
                "l1.ih": (E, 4 * H), "l1.hh": (H, 4 * H), "l1.b": (4 * H,),
                "l2.ih": (H, 4 * H), "l2.hh": (H, 4 * H), "l2.b": (4 * H,)}
        g = gc.Graph()
        P = {k: g.leaf(r.standard_normal(s), requires_grad=True)
             for k, s in init.items()}
        ids = r.integers(0, V, (B, T))
        lengths = np.array([6, 6, 4, 3, 1])
        live = [int((lengths > t).sum()) for t in range(T)]

        def layer(prefix, xs, h):
            c = g.constant(np.zeros((B, H)))
            w = [P[prefix + s] for s in (".ih", ".hh", ".b")]
            state = gc.concat([h, c], axis=1) if fused else None
            out = []
            for x, n in zip(xs, live):
                n = None if n == B else n
                if fused:
                    state = gc.lstm_cell(x, state, *w, live=n)
                    out.append(state)
                else:
                    h, c = _unfused_cell(x, h, c, *w, live=n)
                    out.append((h, c))
            if fused:
                out = [(gc.narrow(s, 1, 0, H), gc.narrow(s, 1, H, H))
                       for s in out]
            return out

        xs = [gc.embed(P["emb"], ids[:n, t]) for t, n in enumerate(live)]
        l1 = layer("l1", xs, P["h0"])
        l2 = layer("l2", [h for h, _ in l1], g.constant(np.zeros((B, H))))
        loss = gc.cross_entropy(gc.matmul(l2[-1][0], P["head"]),
                                r.integers(0, 3, B))
        for h, _ in l1:
            loss = gc.add(loss, gc.mean_all(gc.mul(h, h)))
        grads = gc.backward(g, loss)
        return (float(loss.value),
                [(h.value, c.value) for h, c in l1 + l2],
                {k: grads[n.idx] for k, n in P.items()})

    def test_bit_identical_to_unfused_composition(self):
        loss_f, states_f, grads_f = self._run(fused=True)
        loss_u, states_u, grads_u = self._run(fused=False)
        assert loss_f == loss_u
        for (hf, cf), (hu, cu) in zip(states_f, states_u):
            assert np.array_equal(hf, hu) and np.array_equal(cf, cu)
        for k in grads_u:
            assert np.array_equal(grads_f[k], grads_u[k]), k

    def test_overflowing_gates_name_the_op(self):
        g = gc.Graph()
        x = g.leaf(np.full((2, 3), 1e200))
        state = g.leaf(np.zeros((2, 4)))
        w_ih = g.leaf(np.full((3, 8), 1e200))
        w_hh = g.leaf(np.zeros((2, 8)))
        b = g.leaf(np.zeros(8))
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="lstm_cell"):
            gc.lstm_cell(x, state, w_ih, w_hh, b)

    def test_bad_shapes_rejected(self):
        g = gc.Graph()
        x = g.leaf(np.zeros((2, 3)))
        w_ih, w_hh, b = (g.leaf(np.zeros(s)) for s in ((3, 8), (2, 8), (8,)))
        with pytest.raises(ContractViolation):
            gc.lstm_cell(x, g.leaf(np.zeros((2, 2))), w_ih, w_hh, b)
        for live in (0, 3):
            with pytest.raises(ContractViolation):
                gc.lstm_cell(x, g.leaf(np.zeros((2, 4))), w_ih, w_hh, b,
                             live=live)
        with pytest.raises(ContractViolation):  # x holds fewer rows than live
            gc.lstm_cell(g.leaf(np.zeros((1, 3))), g.leaf(np.zeros((2, 4))),
                         w_ih, w_hh, b, live=2)


@pytest.mark.parametrize("shapes,axis", [
    (((2, 3), (3, 3)), 1),      # sizes differ off the axis
    (((2, 3), (2, 3, 1)), 1),   # ranks differ
    (((2, 3), (2, 3)), 2),      # no such axis
    (((2, 3), (2, 3)), -3),
    (((), ()), 0),              # scalars have no axis
], ids=["off-axis", "rank", "axis", "negative-axis", "scalars"])
def test_concat_bad_shapes_rejected(shapes, axis):
    g = gc.Graph()
    nodes = [g.leaf(np.zeros(s)) for s in shapes]
    with pytest.raises(ContractViolation, match=re.escape(str(list(shapes)))):
        gc.concat(nodes, axis=axis)
    assert len(g) == len(shapes)


def test_fused_hands_each_parent_its_gradient_times_the_incoming_one():
    """A fused op of f(a, b) = sum(a * w) + sum(b), inside a graph that
    scales it by 3: the parents get 3 w and 3, and the output is checked
    as every op's is."""
    g = gc.Graph()
    w = RNG(1).standard_normal((2, 3))
    a = g.leaf(RNG(2).standard_normal((2, 3)), requires_grad=True)
    b = g.leaf(RNG(3).standard_normal((1, 3)), requires_grad=True)
    value = (a.value * w).sum() + b.value.sum()
    out = gc.fused("f", (a, b), value, (w, np.ones((1, 3))))
    assert out.value == value
    grads = gc.backward(g, gc.scale(out, 3.0))
    assert np.array_equal(grads[a.idx], w * 3.0)
    assert np.array_equal(grads[b.idx], np.full((1, 3), 3.0))
    with pytest.raises(NumericError, match="op 'f'"):
        gc.fused("f", (a,), np.inf, (w,))


@pytest.mark.parametrize("value,grads", [
    (np.zeros(1), [np.zeros((2, 3))]),   # not a scalar
    (0.0, []),                           # a gradient short
    (0.0, [np.zeros((3, 2))]),           # a gradient of the wrong shape
], ids=["value", "count", "shape"])
def test_fused_bad_shapes_rejected(value, grads):
    g = gc.Graph()
    a = g.leaf(np.zeros((2, 3)), requires_grad=True)
    with pytest.raises(ContractViolation, match="fused 'f'"):
        gc.fused("f", (a,), value, grads)

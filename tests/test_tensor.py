"""Unit tests for the reverse-mode tensor module."""

import contextlib
import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from prunemerge import tensor as T
from prunemerge import vit
from prunemerge.compression import compress_model, global_plan
from prunemerge.data import Dataset
from prunemerge.errors import ContractError, NumericError, ShapeMismatchError
from prunemerge.finetune import evaluate_accuracy, self_distill_loss
from prunemerge.scoring import (ScorerVariant, collect_scores,
                                scores_from_trace)
from prunemerge.vit import ModelConfig, VisionTransformer, block_forward

from helpers import (assert_grads_close, broadcast_to, composed_attention,
                     composed_embed, composed_mlp, concat, fresh_lane,
                     numeric_grad, reshape, tensor_sum, transpose, uncalled)


class TestMatmul:
    def test_batch_against_one_matrix_is_one_owned_product(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(3, 5, 4)), rng.normal(size=(4, 6))
        out = T.matmul(T.Tensor(a), T.Tensor(b)).data
        # an array of its own, not a view that a weakref would outlive
        assert out.base is None and out.shape == (3, 5, 6)
        np.testing.assert_allclose(out, np.matmul(a, b), rtol=1e-12)
        # single rows stay batched: one GEMV each, as np.matmul runs them
        rows = T.matmul(T.Tensor(a[:, :1]), T.Tensor(b)).data
        assert rows.tobytes() == np.matmul(a[:, :1], b).tobytes()

    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, b.data)

    def test_hand_values(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0], [6.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[17.0], [39.0]])

    def test_zeros(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.arange(12.0).reshape(3, 4))
        np.testing.assert_array_equal(T.matmul(a, b).data, np.zeros((2, 4)))

    def test_shape_mismatch_names_both_shapes(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((4, 2)))
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(a, b)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        a = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def loss():
            return float(tensor_sum(T.matmul(
                T.Tensor(a.data, requires_grad=True), T.Tensor(b.data))
                * T.Tensor(w)).data)

        w = rng.normal(size=(3, 2))
        out = tensor_sum(T.matmul(a, b) * T.Tensor(w))
        T.backward(out)
        assert_grads_close(a.grad, numeric_grad(loss, a.data))
        assert_grads_close(b.grad, numeric_grad(loss, b.data))

    def test_broadcast_batched_gradients(self):
        # (m,k) @ (B,k,n): the shared left operand must sum grads over B.
        rng = np.random.default_rng(7)
        a = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(5, 4, 2)), requires_grad=True)
        out = tensor_sum(T.matmul(a, b))
        T.backward(out)

        def loss():
            return float(np.matmul(a.data, b.data).sum())

        assert_grads_close(a.grad, numeric_grad(loss, a.data))
        assert_grads_close(b.grad, numeric_grad(loss, b.data))

    @pytest.mark.parametrize("a_shape", [(3, 5, 4), (2, 3, 5, 4)])
    def test_folded_weight_gradient(self, a_shape):
        # Batched rows @ one 2-D weight: the weight gradient is one GEMM
        # over the flattened batch.
        rng = np.random.default_rng(19)
        a = T.Tensor(rng.normal(size=a_shape), requires_grad=True)
        b = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        w = rng.normal(size=a_shape[:-1] + (2,))
        T.backward(tensor_sum(T.matmul(a, b) * T.Tensor(w)))

        def loss():
            return float((np.matmul(a.data, b.data) * w).sum())

        assert_grads_close(a.grad, numeric_grad(loss, a.data))
        assert_grads_close(b.grad, numeric_grad(loss, b.data))
        batched = T._unbroadcast(
            np.matmul(np.swapaxes(a.data, -1, -2), w), b.shape)
        np.testing.assert_allclose(b.grad, batched, rtol=1e-13, atol=1e-14)


class TestSoftmax:
    def test_kernel_in_place_matches_a_new_array(self):
        x = np.random.default_rng(8).normal(size=(2, 3, 7))
        want = T._softmax(x, 0.7)
        buf = x.copy()
        got = T._softmax(buf, 0.7, out=buf)
        assert got is buf
        assert got.tobytes() == want.tobytes()

    def test_symmetry(self):
        y = T.softmax_rows(T.Tensor([0.0, 0.0]))
        np.testing.assert_allclose(y.data, [0.5, 0.5], atol=1e-15)

    def test_saturation_is_stable(self):
        y = T.softmax_rows(T.Tensor([1e9, 0.0]))
        np.testing.assert_allclose(y.data, [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            x = rng.normal(scale=rng.uniform(0.1, 50.0), size=(4, 7))
            y = T.softmax_rows(T.Tensor(x))
            np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)
            assert (y.data >= 0).all()

    def test_grad_of_row_sums_is_zero(self):
        x = T.Tensor(np.random.default_rng(0).normal(size=(3, 5)),
                     requires_grad=True)
        T.backward(tensor_sum(T.softmax_rows(x)))
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-12)

    def test_nan_input_rejected(self):
        with pytest.raises(NumericError):
            T.softmax_rows(T.Tensor([np.nan, 0.0]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_entry_rejected_anywhere(self, bad):
        # One bad entry in an otherwise finite row, whether or not it is
        # the row's max, raises the same error as before.
        for pos in [(0, 0), (1, 2), (1, 4)]:
            x = np.random.default_rng(1).normal(size=(2, 5))
            x[pos] = bad
            with pytest.raises(NumericError,
                               match="softmax input contains non-finite"):
                T.softmax_rows(T.Tensor(x))

    def test_matches_former_expression(self):
        # The finiteness check moved into reductions; the arithmetic did
        # not, so the output is bit-identical to the former expression.
        rng = np.random.default_rng(6)
        for shape, scale in [((3, 7), 1.0), ((2, 3, 5, 9), 0.125),
                             ((0, 4), 2.0)]:
            x = rng.normal(scale=5.0, size=shape)
            want = x - x.max(axis=-1, keepdims=True)
            want *= scale
            np.exp(want, out=want)
            want /= want.sum(axis=-1, keepdims=True)
            np.testing.assert_array_equal(
                T.softmax_rows(T.Tensor(x), scale).data, want)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        x = T.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        w = rng.normal(size=(2, 4))
        T.backward(tensor_sum(T.softmax_rows(x) * T.Tensor(w)))

        def loss():
            e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
            return float((e / e.sum(axis=-1, keepdims=True) * w).sum())

        assert_grads_close(x.grad, numeric_grad(loss, x.data))

    def test_scale_matches_scaled_input(self):
        rng = np.random.default_rng(8)
        x = rng.normal(scale=4.0, size=(2, 3, 5, 5))
        for scale in (1.0, 0.125, 1.0 / math.sqrt(48), 3.0):
            np.testing.assert_allclose(
                T.softmax_rows(T.Tensor(x), scale).data,
                T.softmax_rows(T.Tensor(x * scale)).data,
                rtol=0.0, atol=1e-14)

    def test_scaled_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        x = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = rng.normal(size=(2, 3, 4))
        scale = 0.37
        T.backward(tensor_sum(T.softmax_rows(x, scale) * T.Tensor(w)))

        def loss():
            z = scale * x.data
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            return float((e / e.sum(axis=-1, keepdims=True) * w).sum())

        assert_grads_close(x.grad, numeric_grad(loss, x.data))

    def test_nonpositive_scale_rejected(self):
        for scale in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ContractError):
                T.softmax_rows(T.Tensor([0.0, 1.0]), scale)


class TestLayerNorm:
    def test_rebuilt_output_and_rows_are_the_forward_bits(self):
        rng = np.random.default_rng(10)
        x = T.Tensor(rng.normal(size=(3, 5, 6)), requires_grad=True)
        gamma = T.Tensor(rng.normal(size=6), requires_grad=True)
        beta = T.Tensor(rng.normal(size=6), requires_grad=True)
        out = T.layer_norm(x, gamma, beta)
        assert out._node.rebuild.array().tobytes() == out.data.tobytes()
        for key in ((slice(None), slice(None, 1)), (slice(None), 0),
                    (slice(None), 0, slice(None)), (Ellipsis, slice(1, 4)),
                    (0, slice(None), 2), (slice(None), None, slice(2, 3))):
            rows = out[key]._node.rebuild.array()
            assert rows.shape == out.data[key].shape
            assert rows.tobytes() == out.data[key].tobytes()

    @pytest.mark.parametrize("key", [None, (slice(None), slice(None, 1))])
    def test_product_saves_the_recipe_not_the_output(self, key):
        rng = np.random.default_rng(11)
        x = T.Tensor(rng.normal(size=(3, 5, 6)), requires_grad=True)
        gamma = T.Tensor(rng.normal(size=6), requires_grad=True)
        beta = T.Tensor(rng.normal(size=6), requires_grad=True)
        w = T.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        out = T.layer_norm(x, gamma, beta)
        h = out if key is None else out[key]
        saved = T.Tensor(h.data.copy())
        g = rng.normal(size=h.shape[:-1] + (4,))
        product = T.matmul(h, w)
        ref = weakref.ref(out.data)
        del out, h
        assert ref() is None
        got = product._node.grad_fn(g)[1]
        want = T.matmul(saved, w)._node.grad_fn(g)[1]
        assert got.tobytes() == want.tobytes()

    def _params(self, d):
        return T.Tensor(np.ones(d), requires_grad=True), \
            T.Tensor(np.zeros(d), requires_grad=True)

    def test_constant_rows_map_to_zero(self):
        g, b = self._params(4)
        x = T.Tensor(np.full((3, 4), 2.5))
        y = T.layer_norm(x, g, b)
        np.testing.assert_allclose(y.data, 0.0, atol=1e-9)

    def test_zero_gamma_gives_beta(self):
        x = T.Tensor(np.random.default_rng(1).normal(size=(2, 4)))
        y = T.layer_norm(x, T.Tensor(np.zeros(4)), T.Tensor(np.full(4, 3.0)))
        np.testing.assert_array_equal(y.data, np.full((2, 4), 3.0))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(3, 4))
        gamma = rng.normal(size=4)
        beta = rng.normal(size=4)
        y = T.layer_norm(T.Tensor(x), T.Tensor(gamma), T.Tensor(beta))
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + 1e-6) * gamma + beta
        np.testing.assert_allclose(y.data, expected, atol=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        gamma = T.Tensor(rng.normal(size=6), requires_grad=True)
        beta = T.Tensor(rng.normal(size=6), requires_grad=True)
        w = rng.normal(size=(3, 6))
        T.backward(tensor_sum(T.layer_norm(x, gamma, beta) * T.Tensor(w)))

        def loss():
            mu = x.data.mean(axis=-1, keepdims=True)
            var = x.data.var(axis=-1, keepdims=True)
            xh = (x.data - mu) / np.sqrt(var + 1e-6)
            return float(((xh * gamma.data + beta.data) * w).sum())

        assert_grads_close(x.grad, numeric_grad(loss, x.data))
        assert_grads_close(gamma.grad, numeric_grad(loss, gamma.data))
        assert_grads_close(beta.grad, numeric_grad(loss, beta.data))

    def test_in_place_forward_matches_former_expression(self):
        # The forward as it read before it reused its buffers: results
        # must be bit-identical, also for strided input.
        def reference(x, gamma, beta, eps=1e-6):
            xc = x - x.mean(axis=-1, keepdims=True)
            var = (xc * xc).mean(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt(var + eps)
            return xc * inv * gamma + beta

        rng = np.random.default_rng(12)
        for x in [rng.normal(size=(7,)), rng.normal(size=(3, 5, 6)),
                  rng.normal(scale=4.0, size=(4, 33, 48)) + 2.0,
                  rng.normal(size=(6, 4, 5)).transpose(1, 0, 2),
                  rng.normal(size=(4, 6, 5))[:, :1]]:
            d = x.shape[-1]
            gamma, beta = rng.normal(size=d), rng.normal(size=d)
            before = x.copy()
            got = T.layer_norm(T.Tensor(x), T.Tensor(gamma), T.Tensor(beta))
            np.testing.assert_array_equal(got.data,
                                          reference(x, gamma, beta))
            np.testing.assert_array_equal(x, before)

    def test_in_place_backward_matches_former_expression(self):
        # The backward as it read before it reduced and reused buffers
        # itself: gradients must be bit-identical, also for strided input.
        def reference(x, gamma, g, eps=1e-6):
            xc = x - x.mean(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
            xhat = xc * inv
            lead = tuple(range(x.ndim - 1))
            dxhat = g * gamma
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            return (inv * (dxhat - m1 - xhat * m2), (g * xhat).sum(axis=lead),
                    g.sum(axis=lead))

        rng = np.random.default_rng(13)
        for x in [rng.normal(size=(7,)), rng.normal(size=(3, 5, 6)),
                  rng.normal(scale=4.0, size=(4, 33, 48)) + 2.0,
                  rng.normal(size=(6, 4, 5)).transpose(1, 0, 2)]:
            d = x.shape[-1]
            gamma, beta = rng.normal(size=d), rng.normal(size=d)
            g = rng.normal(size=x.shape)
            y = T.layer_norm(T.Tensor(x, requires_grad=True),
                             T.Tensor(gamma, requires_grad=True),
                             T.Tensor(beta, requires_grad=True))
            for got, want in zip(y._node.grad_fn(g),
                                 reference(x, gamma, g)):
                np.testing.assert_array_equal(got, want)

    def test_gain_and_offset_must_fit_the_last_axis(self):
        x = T.Tensor(np.zeros((2, 4)))
        with pytest.raises(ShapeMismatchError):
            T.layer_norm(x, T.Tensor(np.ones(3)), T.Tensor(np.zeros(4)))
        with pytest.raises(ShapeMismatchError):
            T.layer_norm(x, T.Tensor(np.ones(4)), T.Tensor(np.zeros((1, 4))))


class TestGelu:
    def test_zero(self):
        assert T.gelu(T.Tensor(0.0)).data == 0.0

    def test_asymptote(self):
        x = np.array([6.0, 8.0, 12.0])
        np.testing.assert_allclose(T.gelu(T.Tensor(x)).data, x, atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        x = T.Tensor(np.array([-3.0, -1.0, -0.2, 0.0, 0.4, 1.7, 3.0]),
                     requires_grad=True)
        T.backward(tensor_sum(T.gelu(x)))

        def loss():
            c = math.sqrt(2.0 / math.pi)
            u = c * (x.data + 0.044715 * x.data ** 3)
            return float((0.5 * x.data * (1.0 + np.tanh(u))).sum())

        assert_grads_close(x.grad, numeric_grad(loss, x.data), rel=1e-6)

    def test_weighted_batched_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = T.Tensor(rng.normal(scale=2.0, size=(2, 3, 5)), requires_grad=True)
        w = rng.normal(size=(2, 3, 5))
        T.backward(tensor_sum(T.gelu(x) * T.Tensor(w)))

        def loss():
            c = math.sqrt(2.0 / math.pi)
            u = c * (x.data + 0.044715 * x.data ** 3)
            return float((0.5 * x.data * (1.0 + np.tanh(u)) * w).sum())

        assert_grads_close(x.grad, numeric_grad(loss, x.data), rel=1e-6)

    def test_zero_dim_gradient(self):
        x = T.Tensor(0.0, requires_grad=True)
        T.backward(T.gelu(x))
        assert x.grad == 0.5

    def test_chunked_passes_match_whole_array_passes(self):
        # The same chain of passes over whole arrays, as gelu ran them
        # before it worked chunk by chunk: results must be bit-identical.
        c, a = math.sqrt(2.0 / math.pi), 0.044715

        def tanh_part(x):
            t = np.multiply(x * x, x, out=np.empty(np.shape(x)))
            t *= a
            t += x
            t *= c
            return np.tanh(t, out=t)

        def reference(x, g):
            y = tanh_part(x)
            y += 1.0
            y *= x
            y *= 0.5
            t = tanh_part(x)
            slope = np.multiply(x, x, out=np.empty(np.shape(x)))
            slope *= 3.0 * a
            slope += 1.0
            slope *= c
            slope *= x
            slope *= 1.0 - t * t
            t += 1.0
            t += slope
            t *= 0.5
            t *= g
            return y, t

        rng = np.random.default_rng(9)
        for shape in [(), (5,), (2, T._CHUNK + 3), (3, 7, 4097)]:
            xd = rng.normal(scale=3.0, size=shape)
            g = rng.normal(size=shape)
            x = T.Tensor(xd.copy(), requires_grad=True)
            y = T.gelu(x)
            T.backward(tensor_sum(y * T.Tensor(g)))
            want_y, want_grad = reference(xd, g)
            np.testing.assert_array_equal(y.data, want_y)
            np.testing.assert_array_equal(x.grad, want_grad)

    def test_input_never_written(self):
        x = T.Tensor(np.linspace(-4.0, 4.0, 9), requires_grad=True)
        before = x.data.copy()
        T.backward(tensor_sum(T.gelu(x)))
        np.testing.assert_array_equal(x.data, before)


def _run(op, inputs, w):
    """Output data and every input's gradient under a weighted-sum loss."""
    for t in inputs:
        t.grad = None
    out = op(*inputs)
    T.backward(tensor_sum(out * T.Tensor(w)))
    return out.data, [None if t.grad is None else t.grad.copy()
                      for t in inputs]


def _assert_same_run(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    assert len(got[1]) == len(want[1])
    for g, w in zip(got[1], want[1]):
        assert (g is None) == (w is None)
        if g is not None:
            np.testing.assert_array_equal(g, w)


class TestAttention:
    """The fused op is bit for bit the composed head split,
    matmul-softmax-matmul and head merge, also in what it writes to a sink
    and under a bump."""

    @pytest.mark.parametrize("rows, recorded",
                             [(None, False), (1, False), (None, True),
                              (1, True)],
                             ids=["None", "1", "None-sink-bump",
                                  "1-sink-bump"])
    def test_matches_composed_ops_on_split_views(self, rows, recorded):
        rng = np.random.default_rng(21)
        b, n, d, heads = 3, 9, 12, 3
        scale = 1.0 / math.sqrt(d // heads)
        bases = [T.Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
                 for _ in range(3)]
        bases.append(T.Tensor(rng.normal(size=(d, d)), requires_grad=True))
        w = rng.normal(size=(b, rows or n, d))
        bump = rng.normal(scale=0.1, size=(b, heads, rows or n, n)) \
            if recorded else None
        sinks = []

        def op(attend):
            sink = vit.AttentionTrace(0) if recorded else None
            sinks.append(sink)

            def run(qb, kb, vb, wb):
                if rows is not None:
                    qb = qb[:, :rows]
                return attend(qb, kb, vb, wb, heads, scale, sink=sink,
                              bump=bump)
            return run

        _assert_same_run(_run(op(T.attention), bases, w),
                         _run(op(composed_attention), bases, w))
        if recorded:
            fused, composed = sinks
            assert fused.maps.shape == (b, heads, rows or n, n)
            np.testing.assert_array_equal(fused.maps, composed.maps)
            np.testing.assert_array_equal(fused.grads, composed.grads)

    def test_constant_operands_get_no_gradient(self):
        rng = np.random.default_rng(22)
        arrays = [rng.normal(size=(2, 4, 6)), rng.normal(size=(2, 6, 6)),
                  rng.normal(size=(2, 6, 10)), rng.normal(size=(10, 10))]
        w = rng.normal(size=(2, 4, 10))
        learnable = [T.Tensor(a, requires_grad=True) for a in arrays]
        both = _run(lambda q, k, v, w_o: T.attention(q, k, v, w_o, 2, 0.5),
                    learnable, w)
        for frozen in range(4):
            inputs = [T.Tensor(a, requires_grad=i != frozen)
                      for i, a in enumerate(arrays)]
            out = T.attention(*inputs, 2, 0.5)
            assert out._node.inputs[frozen] is None
            grads = out._node.grad_fn(w)
            assert grads[frozen] is None
            for i, g in enumerate(grads):
                if i != frozen:
                    np.testing.assert_array_equal(g, both[1][i])
        only_v = [T.Tensor(arrays[0]), T.Tensor(arrays[1]),
                  T.Tensor(arrays[2], requires_grad=True),
                  T.Tensor(arrays[3])]
        sink = vit.AttentionTrace(0)
        grads = T.attention(*only_v, 2, 0.5, sink=sink)._node.grad_fn(w)
        assert grads[0] is None and grads[1] is None and grads[3] is None
        np.testing.assert_array_equal(grads[2], both[1][2])
        # No gradient reaches the maps, so the sink gets none, and a
        # gradient scorer refuses the trace.
        assert sink.maps is not None and sink.grads is None
        for variant in (ScorerVariant.GRAD_WEIGHTED_AVG,
                        ScorerVariant.GRAD_ONLY,
                        ScorerVariant.GRAD_CLASS_ATTN):
            with pytest.raises(ContractError, match="backward"):
                scores_from_trace(sink, variant)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(23)
        q, k, v, w_o = (T.Tensor(rng.normal(size=s), requires_grad=True)
                        for s in [(2, 3, 4), (2, 5, 4), (2, 5, 6), (6, 5)])
        w = rng.normal(size=(2, 3, 5))
        scale = 0.6

        def heads(x):
            return x.reshape(x.shape[:-1] + (2, -1)).transpose(0, 2, 1, 3)

        # The second round adds a bump and reads dL/dA from a sink.
        for bump in (None, rng.normal(scale=0.1, size=(2, 2, 3, 5))):
            sink = vit.AttentionTrace(0)
            for t in (q, k, v, w_o):
                t.grad = None
            loss_t = tensor_sum(T.attention(q, k, v, w_o, 2, scale,
                                            sink=sink, bump=bump)
                                * T.Tensor(w))
            T.backward(loss_t)

            def loss():
                kt = np.swapaxes(heads(k.data), -1, -2)
                s = scale * (heads(q.data) @ kt)
                e = np.exp(s - s.max(axis=-1, keepdims=True))
                a = e / e.sum(axis=-1, keepdims=True)
                if bump is not None:
                    a = a + bump
                out = (a @ heads(v.data)).transpose(0, 2, 1, 3)
                out = out.reshape(w.shape[:-1] + (-1,)) @ w_o.data
                return float((out * w).sum())

            for t in (q, k, v, w_o):
                assert_grads_close(t.grad, numeric_grad(loss, t.data))
            if bump is not None:
                assert_grads_close(sink.grads, numeric_grad(loss, bump))
                once = sink.grads.copy()
                T.backward(loss_t)
                np.testing.assert_array_equal(sink.grads, 2.0 * once)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_scores_raise(self, bad):
        rng = np.random.default_rng(24)
        q = rng.normal(size=(1, 3, 2))
        q[0, 1, 0] = bad
        k = rng.uniform(0.5, 1.0, size=(1, 4, 2))   # positive: no inf - inf
        v = T.Tensor(rng.normal(size=(1, 4, 2)), requires_grad=True)
        with pytest.raises(NumericError,
                           match="softmax input contains non-finite"):
            T.attention(T.Tensor(q), T.Tensor(k), v, T.Tensor(np.eye(2)), 1,
                        1.0)

    def test_bad_shapes_and_scale_rejected(self):
        q, k = T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 3)))
        v, w_o = T.Tensor(np.zeros((4, 2))), T.Tensor(np.eye(2))
        with pytest.raises(ShapeMismatchError):
            T.attention(q, k, T.Tensor(np.zeros((5, 2))), w_o, 1, 1.0)
        with pytest.raises(ShapeMismatchError):
            T.attention(q, T.Tensor(np.zeros((4, 2))), v, w_o, 1, 1.0)
        for bad in (np.eye(3), np.ones(2), np.ones((1, 2, 2))):
            with pytest.raises(ShapeMismatchError, match="w_o"):
                T.attention(q, k, v, T.Tensor(bad), 1, 1.0)
        with pytest.raises(ContractError):
            T.attention(q, k, v, w_o, 1, 0.0)
        with pytest.raises(ShapeMismatchError, match="bump"):
            T.attention(q, k, v, w_o, 1, 1.0, bump=np.zeros((3, 2, 4)))
        for heads in (0, 2, 1.0):
            with pytest.raises(ShapeMismatchError, match="heads"):
                T.attention(q, k, v, w_o, heads, 1.0)


def _mlp_input(kind, x, gamma, beta):
    """The op's ``h``: ``x`` itself, its layer-norm output (saved as a
    recipe) or that output's class row, (B, 1, D)."""
    if kind == "plain":
        return x
    h = T.layer_norm(x, gamma, beta)
    return h if kind == "norm" else h[:, :1]


# Which of (x, w1, w2) need a gradient: every combination but none.
_MLP_GRADS = [(x, w1, w2) for x in (True, False) for w1 in (True, False)
              for w2 in (True, False) if x or w1 or w2]


class TestGeluMatmul:
    """``mlp(x, I, w)`` is bit for bit ``matmul(gelu(x), w)``: with an
    identity first layer the hidden layer is exactly ``x``."""

    @pytest.mark.parametrize("x_shape,w_shape", [
        ((2, 3, 5), (5, 4)),
        ((2, 70, 300), (300, 8)),          # x spans several chunks
        ((6, 5), (5, 4)),
        ((2, 3, 5), (2, 5, 4)),
    ])
    def test_matches_composed_ops(self, x_shape, w_shape):
        rng = np.random.default_rng(31)
        xd = rng.normal(scale=2.0, size=x_shape)
        wd = rng.normal(size=w_shape)
        g = rng.normal(size=np.matmul(xd, wd).shape)
        eye = T.Tensor(np.eye(x_shape[-1]))
        for x_grad, w_grad in [(True, True), (True, False), (False, True)]:
            def inputs():
                return [T.Tensor(xd, requires_grad=x_grad),
                        T.Tensor(wd, requires_grad=w_grad)]
            _assert_same_run(
                _run(lambda x, w: T.mlp(x, eye, w), inputs(), g),
                _run(lambda x, w: T.matmul(T.gelu(x), w), inputs(), g))

    def test_constant_operands_get_no_gradient(self):
        rng = np.random.default_rng(32)
        xd, wd = rng.normal(size=(2, 3, 5)), rng.normal(size=(5, 4))
        g = rng.normal(size=(2, 3, 4))
        operands = (xd, np.eye(5), wd)
        both = T.mlp(*(T.Tensor(a, requires_grad=True)
                       for a in operands))._node.grad_fn(g)
        for grads in _MLP_GRADS:
            out = T.mlp(*(T.Tensor(a, requires_grad=r)
                          for a, r in zip(operands, grads)))
            got = out._node.grad_fn(g)
            for slot, r in enumerate(grads):
                if r:
                    np.testing.assert_array_equal(got[slot], both[slot])
                else:
                    assert out._node.inputs[slot] is None
                    assert got[slot] is None

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(33)
        x = T.Tensor(rng.normal(scale=2.0, size=(2, 3, 5)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        g = rng.normal(size=(2, 3, 4))
        w1 = T.Tensor(np.eye(5), requires_grad=True)
        T.backward(tensor_sum(T.mlp(x, w1, w) * T.Tensor(g)))

        def loss():
            c = math.sqrt(2.0 / math.pi)
            a = x.data @ w1.data
            u = c * (a + 0.044715 * a ** 3)
            h = 0.5 * a * (1.0 + np.tanh(u))
            return float(((h @ w.data) * g).sum())

        for t in (x, w1, w):
            assert_grads_close(t.grad, numeric_grad(loss, t.data), rel=1e-6)

    def test_input_never_written_and_shapes_checked(self):
        x = T.Tensor(np.linspace(-4.0, 4.0, 12).reshape(3, 4),
                     requires_grad=True)
        eye = T.Tensor(np.eye(4))
        before = x.data.copy()
        T.backward(tensor_sum(T.mlp(x, eye, T.Tensor(np.ones((4, 2))))))
        np.testing.assert_array_equal(x.data, before)
        with pytest.raises(ShapeMismatchError):
            T.mlp(x, eye, T.Tensor(np.ones((3, 2))))
        with pytest.raises(ShapeMismatchError):
            T.mlp(x, T.Tensor(np.ones((3, 4))), T.Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeMismatchError):
            T.mlp(x, eye, T.Tensor(np.ones(4)))


class TestMlp:
    """The fused op is bit for bit ``matmul(gelu(matmul(h, w1)), w2)`` for
    a plain ``h``, a layer-norm output and its class row, whichever
    operands need a gradient."""

    @pytest.mark.parametrize("grads", _MLP_GRADS)
    @pytest.mark.parametrize("kind", ["plain", "norm", "row"])
    def test_matches_composed_ops_on_every_input(self, kind, grads):
        rng = np.random.default_rng(34)
        b, n, d, hidden = 3, 7, 6, 24
        xd = rng.normal(size=(b, n, d))
        gamma, beta = (T.Tensor(rng.normal(size=d)) for _ in range(2))
        w1d = rng.normal(size=(d, hidden))
        w2d = rng.normal(size=(hidden, d))
        g = rng.normal(size=(b, 1 if kind == "row" else n, d))

        def run(op):
            inputs = [T.Tensor(a, requires_grad=r)
                      for a, r in zip((xd, w1d, w2d), grads)]
            return _run(lambda x, w1, w2: op(_mlp_input(kind, x, gamma, beta),
                                             w1, w2), inputs, g)

        _assert_same_run(run(T.mlp), run(composed_mlp))

    @pytest.mark.parametrize("key", [None, (slice(None), slice(None, 1))])
    def test_saves_the_recipe_not_the_norm_output(self, key):
        rng = np.random.default_rng(35)
        x = T.Tensor(rng.normal(size=(3, 5, 6)), requires_grad=True)
        gamma = T.Tensor(rng.normal(size=6), requires_grad=True)
        beta = T.Tensor(rng.normal(size=6), requires_grad=True)
        w1 = T.Tensor(rng.normal(size=(6, 12)), requires_grad=True)
        w2 = T.Tensor(rng.normal(size=(12, 6)), requires_grad=True)
        out = T.layer_norm(x, gamma, beta)
        h = out if key is None else out[key]
        saved = T.Tensor(h.data.copy(), requires_grad=True)
        g = rng.normal(size=h.shape)
        fused = T.mlp(h, w1, w2)
        ref = weakref.ref(out.data)
        del out, h
        assert ref() is None
        got = fused._node.grad_fn(g)
        want = T.mlp(saved, w1, w2)._node.grad_fn(g)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["plain", "norm", "row"])
    def test_gradients_of_every_input_match_finite_differences(self, kind):
        rng = np.random.default_rng(36)
        x = T.Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        gamma, beta = (T.Tensor(rng.normal(size=5), requires_grad=True)
                       for _ in range(2))
        w1 = T.Tensor(rng.normal(size=(5, 8)), requires_grad=True)
        w2 = T.Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        out = T.mlp(_mlp_input(kind, x, gamma, beta), w1, w2)
        g = rng.normal(size=out.shape)
        T.backward(tensor_sum(out * T.Tensor(g)))

        def loss():
            h = x.data
            if kind != "plain":
                h = h - h.mean(-1, keepdims=True)
                h = h / np.sqrt((h * h).mean(-1, keepdims=True) + 1e-6)
                h = h * gamma.data + beta.data
                if kind == "row":
                    h = h[:, :1]
            a = h @ w1.data
            c = math.sqrt(2.0 / math.pi)
            y = 0.5 * a * (1.0 + np.tanh(c * (a + 0.044715 * a ** 3)))
            return float(((y @ w2.data) * g).sum())

        inputs = [x, w1, w2] + ([] if kind == "plain" else [gamma, beta])
        for t in inputs:
            assert_grads_close(t.grad, numeric_grad(loss, t.data))
        if kind == "plain":
            assert gamma.grad is None and beta.grad is None


# Which of (w, b, cls, pos) need a gradient: every combination but none.
_EMBED_GRADS = [g for g in itertools.product((True, False), repeat=4)
                if any(g)]


def _embed_operands(rng, patches_shape, d):
    """Pixel patches and the (w, b, cls, pos) arrays that fit them."""
    p, patch_dim = patches_shape[-2:]
    return (rng.normal(size=patches_shape), rng.normal(size=(patch_dim, d)),
            rng.normal(size=d), rng.normal(size=(1, d)),
            rng.normal(size=(p + 1, d)))


class TestEmbed:
    """The fused op is bit for bit ``concat(cls, patches @ w + b) + pos``
    built from the matmul, add, broadcast and concat nodes, whichever
    operands need a gradient."""

    @pytest.mark.parametrize("grads", _EMBED_GRADS)
    @pytest.mark.parametrize("patches_shape", [(3, 4, 5), (2, 1, 5), (4, 5)],
                             ids=["batch", "one-patch", "unbatched"])
    def test_matches_composed_ops_on_every_operand(self, patches_shape,
                                                   grads):
        rng = np.random.default_rng(37)
        patches, *params = _embed_operands(rng, patches_shape, 6)
        g = rng.normal(size=patches_shape[:-2] + (patches_shape[-2] + 1, 6))

        def run(op):
            inputs = [T.Tensor(a, requires_grad=r)
                      for a, r in zip(params, grads)]
            return _run(lambda *ts: op(patches, *ts), inputs, g)

        _assert_same_run(run(T.embed), run(composed_embed))

    def test_saves_the_patches_only_for_the_weight_gradient(self):
        rng = np.random.default_rng(38)
        for w_grad in (True, False):
            patches, w, b, cls, pos = _embed_operands(rng, (2, 3, 4), 5)
            ref = weakref.ref(patches)
            out = T.embed(patches, T.Tensor(w, requires_grad=w_grad),
                          *(T.Tensor(a, requires_grad=True)
                            for a in (b, cls, pos)))
            del patches
            assert (ref() is not None) == w_grad
            assert out._node.name == "embed"

    @pytest.mark.parametrize("which", ["w", "b", "cls", "pos", "all"])
    def test_gradients_match_finite_differences(self, which):
        rng = np.random.default_rng(39)
        patches, *arrays = _embed_operands(rng, (2, 3, 4), 5)
        names = ("w", "b", "cls", "pos")
        params = [T.Tensor(a, requires_grad=which in (name, "all"))
                  for name, a in zip(names, arrays)]
        g = rng.normal(size=(2, 4, 5))
        T.backward(tensor_sum(T.embed(patches, *params) * T.Tensor(g)))
        w, b, cls, pos = params

        def loss():
            tok = patches @ w.data + b.data
            cls_rows = np.broadcast_to(cls.data, (2, 1, 5))
            z = np.concatenate([cls_rows, tok], axis=1) + pos.data
            return float((z * g).sum())

        for name, t in zip(names, params):
            if t.requires_grad:
                assert_grads_close(t.grad, numeric_grad(loss, t.data))
            else:
                assert t.grad is None

    def test_operands_that_do_not_fit_are_refused(self):
        rng = np.random.default_rng(40)
        patches, *good = _embed_operands(rng, (2, 3, 4), 5)
        bad = [np.ones((5, 5)), np.ones((1, 5)), np.ones(5), np.ones((3, 5))]
        for slot, wrong in enumerate(bad):
            args = [T.Tensor(a) for a in good]
            args[slot] = T.Tensor(wrong)
            with pytest.raises(ShapeMismatchError):
                T.embed(patches, *args)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = T.Tensor(np.zeros((3, 4)))
        labels = np.array([0, 1, 3])
        loss = T.cross_entropy(logits, labels)
        np.testing.assert_allclose(loss.data, math.log(4.0), atol=1e-12)

    def test_saturated_correct_logits(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss = T.cross_entropy(T.Tensor(logits), np.array([1, 2]))
        assert loss.data < 1e-12

    def test_hand_value(self):
        loss = T.cross_entropy(T.Tensor([[1.0, 2.0]]), np.array([0]))
        np.testing.assert_allclose(loss.data, math.log(1.0 + math.e),
                                   atol=1e-10)

    def test_out_of_range_label(self):
        with pytest.raises(ContractError):
            T.cross_entropy(T.Tensor(np.zeros((1, 3))), np.array([3]))
        with pytest.raises(ContractError):
            T.cross_entropy(T.Tensor(np.zeros((1, 3))), np.array([-1]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        logits = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        labels = np.array([0, 2, 4, 1])
        T.backward(T.cross_entropy(logits, labels))

        def loss():
            z = logits.data
            lse = np.log(np.exp(z - z.max(-1, keepdims=True)).sum(-1)) \
                + z.max(-1)
            return float(np.mean(lse - z[np.arange(4), labels]))

        assert_grads_close(logits.grad, numeric_grad(loss, logits.data))


class TestKLDivergence:
    def test_identical_logits_give_zero(self):
        x = np.random.default_rng(2).normal(size=(3, 5))
        loss = T.kl_divergence(T.Tensor(x), T.Tensor(x))
        np.testing.assert_allclose(loss.data, 0.0, atol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = T.Tensor(rng.normal(scale=3.0, size=(2, 6)))
            q = T.Tensor(rng.normal(scale=3.0, size=(2, 6)))
            assert T.kl_divergence(p, q).data >= -1e-15

    def test_hand_value(self):
        loss = T.kl_divergence(T.Tensor([[0.0, 0.0]]),
                               T.Tensor([[math.log(3.0), 0.0]]))
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        np.testing.assert_allclose(loss.data, expected, atol=1e-12)

    def test_teacher_receives_no_gradient(self):
        p = T.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        q = T.Tensor(np.array([[0.5, 0.1]]), requires_grad=True)
        T.backward(T.kl_divergence(p, q))
        assert p.grad is not None
        assert q.grad is None

    def test_temperature_must_be_positive(self):
        with pytest.raises(ContractError):
            T.kl_divergence(T.Tensor([[0.0]]), T.Tensor([[0.0]]),
                            temperature=0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        p = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        q = rng.normal(size=(3, 4))
        temp = 2.0
        T.backward(T.kl_divergence(p, T.Tensor(q), temperature=temp))

        def loss():
            def logsm(z):
                s = z - z.max(-1, keepdims=True)
                return s - np.log(np.exp(s).sum(-1, keepdims=True))
            lq = logsm(q / temp)
            lp = logsm(p.data / temp)
            return float((np.exp(lq) * (lq - lp)).sum(-1).mean())

        assert_grads_close(p.grad, numeric_grad(loss, p.data))


class TestBackward:
    def test_sum_gives_ones(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.backward(tensor_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_elementwise_square(self):
        x = T.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        T.backward(tensor_sum(x * x))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(x * x)

    def test_accumulation_until_zeroed(self):
        x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        T.backward(tensor_sum(x * x))
        first = x.grad.copy()
        T.backward(tensor_sum(x * x))
        np.testing.assert_array_equal(x.grad, 2.0 * first)
        x.zero_grad()
        assert x.grad is None
        T.backward(tensor_sum(x * x))
        np.testing.assert_array_equal(x.grad, first)

    def test_deterministic_bit_identical(self):
        def run():
            rng = np.random.default_rng(99)
            x = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            y = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            out = T.gelu(T.matmul(x, y))
            T.backward(tensor_sum(T.softmax_rows(out)))
            return x.grad.copy(), y.grad.copy()

        gx1, gy1 = run()
        gx2, gy2 = run()
        assert (gx1 == gx2).all() and (gy1 == gy2).all()

    def test_tape_visits_each_node_once(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        y = x * x
        z = y + y  # diamond: y consumed twice
        tape = T.backward(tensor_sum(z))
        # replay walks ``tape.nodes`` once, so each node appears once
        assert [n.name for n in tape.nodes] == ["mul", "add", "sum"]
        assert len({id(n) for n in tape.nodes}) == len(tape.nodes)
        np.testing.assert_array_equal(x.grad, [4.0, 4.0, 4.0])

    def test_residual_topology_orders_tape_correctly(self):
        # A node feeding both a short residual edge and a longer chain must
        # have all consumer gradients folded in before it propagates.
        x = T.Tensor(np.array([0.3, -0.7, 1.1]), requires_grad=True)
        a = x * x
        out = tensor_sum(a + T.gelu(T.gelu(a)))
        T.backward(out)

        def loss():
            v = x.data ** 2

            def g(t):
                c = math.sqrt(2.0 / math.pi)
                return 0.5 * t * (1 + np.tanh(c * (t + 0.044715 * t ** 3)))

            return float((v + g(g(v))).sum())

        assert_grads_close(x.grad, numeric_grad(loss, x.data), rel=1e-6)

    def test_intermediate_grads_populated(self):
        x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        mid = x * x
        T.backward(tensor_sum(mid * T.Tensor([3.0, 4.0])))
        np.testing.assert_array_equal(mid.grad, [3.0, 4.0])

    def test_grad_shape_matches_data(self):
        rng = np.random.default_rng(21)
        x = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        T.backward(tensor_sum(x * x))
        assert x.grad.shape == x.data.shape


class TestShapeOps:
    def test_reshape_transpose_take_concat_grads(self):
        rng = np.random.default_rng(17)
        x = T.Tensor(rng.normal(size=(2, 12)), requires_grad=True)
        w = rng.normal(size=(3, 2, 2))
        a = transpose(reshape(x, (2, 3, 4)), (1, 0, 2))
        out = tensor_sum(concat([a[:, :, :2] * a[:, :, :2], a[:, :, 2:]],
                                axis=2)[:, :, :2] * T.Tensor(w))
        T.backward(out)

        def loss():
            at = x.data.reshape(2, 3, 4).transpose(1, 0, 2)
            cat = np.concatenate([at[:, :, :2] ** 2, at[:, :, 2:]], axis=2)
            return float((cat[:, :, :2] * w).sum())

        assert_grads_close(x.grad, numeric_grad(loss, x.data))

    def test_broadcast_to_grads(self):
        x = T.Tensor(np.array([[1.0], [2.0]]), requires_grad=True)
        T.backward(tensor_sum(broadcast_to(x, (2, 3))))
        np.testing.assert_array_equal(x.grad, [[3.0], [3.0]])

    def test_fancy_indexing_rejected(self):
        x = T.Tensor(np.ones(5), requires_grad=True)
        with pytest.raises(ContractError):
            x[np.array([0, 0, 1])]



class TestConstantOperands:
    def test_mul_and_matmul_give_a_constant_no_gradient(self):
        rng = np.random.default_rng(8)
        w = T.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        row = rng.standard_normal(3)
        patches = rng.standard_normal((2, 4, 3))
        cols = rng.standard_normal((3, 2))
        cases = [(T.mul, row, 1), (T.mul, row, 0), (T.matmul, patches, 0),
                 (T.matmul, cols, 1)]
        for op, const, slot in cases:
            c = T.Tensor(const)
            out = op(w, c) if slot else op(c, w)
            grads = out._node.grad_fn(np.ones(out.shape))
            assert grads[slot] is None and out._node.inputs[slot] is None
            assert out._node.inputs[1 - slot] is w
            # w's gradient is the one it gets beside a learnable operand.
            c.requires_grad = True
            both = (op(w, c) if slot else op(c, w))._node.grad_fn(
                np.ones(out.shape))
            np.testing.assert_array_equal(grads[1 - slot], both[1 - slot])


def _tiny_model():
    config = ModelConfig(image_size=8, patch_size=4, channels=1,
                         embed_dim=8, depth=2, heads=2, num_classes=3)
    images = np.random.default_rng(1).random((2, 1, 8, 8))
    return VisionTransformer.build(config, seed=2), images


class TestNoGrad:
    def test_forward_records_nothing(self):
        model, images = _tiny_model()
        with T.no_grad():
            logits = model.forward(images)
            loss = T.cross_entropy(logits, np.array([0, 2]))
        for t in (logits, loss):
            assert t._node is None
            assert t.requires_grad is False
        T.backward(loss)
        assert all(p.grad is None for _, p in model.named_parameters())
        np.testing.assert_array_equal(logits.data, model.forward(images).data)

    def test_parameters_keep_requires_grad(self):
        model, images = _tiny_model()
        with T.no_grad():
            model.forward(images)
        assert all(p.requires_grad for _, p in model.named_parameters())

    def test_nesting_restores_previous_mode(self):
        x = T.Tensor(np.ones(2), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert (x * x)._node is None
            assert (x * x)._node is None
        assert (x * x)._node is not None

    def test_exception_restores_recording(self):
        x = T.Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(NumericError):
            with T.no_grad():
                T.softmax_rows(T.Tensor([np.nan, 0.0]))
        y = x * x
        assert y.requires_grad and y._node is not None


@contextlib.contextmanager
def _gc_off():
    """Reference counting alone decides lifetimes inside the body."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _tiny_compressed_model():
    """``_tiny_model`` behind a plan that prunes and merges, with learnable
    matrices."""
    model, images = _tiny_model()
    rng = np.random.default_rng(3)
    n = model.config.num_tokens
    plan = global_plan([rng.uniform(0.1, 1.0, size=n) for _ in range(2)],
                       rate=0.6, pm_threshold=0.2)
    return compress_model(model, plan, learnable_matrices=True), images


class TestGraphLifetime:
    def test_dropping_logits_frees_the_graph(self, monkeypatch):
        model, images = _tiny_model()
        keys = []

        def spy(q, k, *args, **kwargs):
            # k is token-major; the op saves per-head views of its array
            keys.append(weakref.ref(k.data))
            return attention(q, k, *args, **kwargs)

        attention = T.attention
        monkeypatch.setattr(T, "attention", spy)
        with _gc_off():
            traces = []
            logits = model.forward(images, traces=traces)
            # Backward reads the keys (the fused attention op saves them),
            # so the graph keeps them alive, and nothing else does.
            saved = keys[1]
            del traces
            assert saved() is not None
            del logits
            assert saved() is None

    def test_block_inputs_are_not_kept_by_the_graph(self, monkeypatch):
        model, images = _tiny_model()
        inputs = []

        def spy(z, *args, **kwargs):
            inputs.append(weakref.ref(z.data))
            return block_forward(z, *args, **kwargs)

        monkeypatch.setattr(vit, "block_forward", spy)
        with _gc_off():
            logits = model.forward(images)
            assert len(inputs) == model.config.depth
            # No backward reads a block input, so nothing saved one.
            assert all(ref() is None for ref in inputs)
            T.backward(T.cross_entropy(logits, np.array([1, 0])))
        assert all(p.grad is not None for _, p in model.named_parameters())

    def test_held_intermediate_gets_grad(self):
        x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = x * x
        T.backward(tensor_sum(y * T.Tensor([3.0, 5.0])))
        np.testing.assert_array_equal(y.grad, [3.0, 5.0])
        np.testing.assert_array_equal(x.grad, [6.0, 20.0])

    def test_backward_twice_on_live_loss_accumulates(self):
        model, images = _tiny_model()
        loss = T.cross_entropy(model.forward(images), np.array([1, 0]))
        T.backward(loss)
        params = dict(model.named_parameters())
        first = {k: p.grad.copy() for k, p in params.items()}
        T.backward(loss)
        for k, p in params.items():
            np.testing.assert_array_equal(p.grad, 2.0 * first[k])

    @pytest.mark.parametrize("compressed", [False, True],
                             ids=["base", "compressed"])
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    def test_no_layer_norm_output_or_context_outlives_the_forward(
            self, monkeypatch, compressed, traced):
        # Backward rebuilds both from arrays the graph saves anyway, so
        # nothing keeps them, not even the class-row slices of the last
        # block's query and of the head's class token.
        model, images = (_tiny_compressed_model() if compressed
                         else _tiny_model())
        made = []
        layer_norm, merge_heads = T.layer_norm, T._merge_heads

        def norm_spy(*args, **kwargs):
            out = layer_norm(*args, **kwargs)
            made.append(("layer_norm", weakref.ref(out.data)))
            return out

        def context_spy(x):
            out = merge_heads(x)
            made.append(("context", weakref.ref(out)))
            return out

        monkeypatch.setattr(T, "layer_norm", norm_spy)
        monkeypatch.setattr(T, "_merge_heads", context_spy)
        with _gc_off():
            logits = model.forward(images, traces=[] if traced else None)
            depth = model.config.depth
            assert sorted(name for name, _ in made) == \
                ["context"] * depth + ["layer_norm"] * (2 * depth + 1)
            assert [name for name, ref in made if ref() is not None] == []
            T.backward(T.cross_entropy(logits, np.array([1, 0])))
        assert all(p.grad is not None for _, p in model.named_parameters())

    def test_backward_twice_on_compressed_loss_accumulates(self):
        model, images = _tiny_compressed_model()
        loss = T.cross_entropy(model.forward(images), np.array([2, 0]))
        T.backward(loss)
        params = dict(model.named_parameters())
        first = {k: p.grad.copy() for k, p in params.items()}
        assert any(first[k].any() for k, _ in model.matrix_parameters())
        T.backward(loss)
        for k, p in params.items():
            np.testing.assert_array_equal(p.grad, 2.0 * first[k])


# Functions of ``prunemerge.tensor`` that no program path calls, and why
# each stays; every other function and method it defines must run below.
UNCALLED_BY_DESIGN = {
    "softmax_rows": "perfbench/spans.py wraps it by name",
    "gelu": "perfbench/spans.py wraps it by name",
    "Tensor.__repr__": "introspection",
}


def test_program_paths_call_every_function_of_the_engine():
    # What the commands run, in-process at a tiny size: recorded forward
    # and backward of the base and of a learnable compressed model, with
    # a class-row last layer and with traces under the distillation loss;
    # a traced scoring batch; a no_grad evaluation.  One product of
    # 2**20 multiply-adds, the least the second lane takes, runs its
    # backward there; the lane starts in the run, as on two CPUs.
    model, images = _tiny_model()
    compressed, _ = _tiny_compressed_model()
    labels = np.array([1, 0])
    dataset = Dataset(images, labels, num_classes=3)
    rng = np.random.default_rng(31)
    a, b = (T.Tensor(rng.normal(size=s), requires_grad=True)
            for s in [(128, 128), (128, 64)])

    def paths():
        T.backward(T.cross_entropy(model.forward(images), labels))
        T.backward(T.cross_entropy(compressed.forward(images), labels))
        T.backward(self_distill_loss(compressed.forward(images, traces=[]),
                                     model.forward(images), labels,
                                     alpha=0.4)[0])
        collect_scores(model, dataset, iterations=1, batch_size=2)
        evaluate_accuracy(compressed, dataset, batch_size=2)
        T.backward(tensor_sum(T.matmul(a, b)))

    with fresh_lane(2):
        never = uncalled(T, paths)
    allowed = set(UNCALLED_BY_DESIGN)
    assert never == allowed, (
        f"never called: {sorted(never - allowed)}; "
        f"called though allowed or not defined: {sorted(allowed - never)}")


# Every op name the recorded program paths below put on a graph.
PROGRAM_OP_NAMES = {"add", "attention", "cross_entropy", "embed",
                    "kl_divergence", "layer_norm", "matmul", "merge_tokens",
                    "mlp", "mul", "reconstruct_tokens", "take"}


def test_program_paths_record_a_fixed_set_of_ops():
    # The stem is one node, and the recorded base, learnable-compressed
    # and distillation paths of the engine guard above record exactly
    # the listed names: a new op, or one the model stopped running, shows.
    model, images = _tiny_model()
    compressed, _ = _tiny_compressed_model()
    labels = np.array([1, 0])

    def names(root):
        return [node.name for node in T.Tape.trace(root).nodes]

    assert names(vit.patchify(images, model.config,
                              model.params.embed)) == ["embed"]
    losses = [T.cross_entropy(model.forward(images), labels),
              T.cross_entropy(compressed.forward(images), labels),
              self_distill_loss(compressed.forward(images, traces=[]),
                                model.forward(images), labels,
                                alpha=0.4)[0]]
    assert set().union(*map(names, losses)) == PROGRAM_OP_NAMES

"""Unit tests for the vision-transformer core."""

import ctypes
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from prunemerge import tensor as T
from prunemerge import vit
from prunemerge.errors import ContractError
from prunemerge.tensor import Tensor

from helpers import (assert_grads_close, composed_attention, composed_mlp,
                     numeric_grad, tensor_sum)


def tiny_config(**kw):
    base = dict(image_size=8, patch_size=4, channels=1, embed_dim=8,
                depth=2, heads=2, mlp_ratio=4, num_classes=3)
    base.update(kw)
    return vit.ModelConfig(**base)


class TestModelConfig:
    def test_token_count(self):
        cfg = vit.ModelConfig(image_size=28, patch_size=7, embed_dim=32,
                              depth=2, heads=2)
        assert cfg.num_tokens == 17
        cfg = vit.ModelConfig(image_size=224, patch_size=16, channels=3,
                              embed_dim=192, depth=12, heads=3,
                              num_classes=1000)
        assert cfg.num_tokens == 197

    def test_divisibility_enforced(self):
        with pytest.raises(ContractError):
            vit.ModelConfig(image_size=28, patch_size=5)
        with pytest.raises(ContractError):
            vit.ModelConfig(embed_dim=30, heads=4)


class TestInit:
    def test_deterministic(self):
        a = vit.init_params(tiny_config(), seed=5)
        b = vit.init_params(tiny_config(), seed=5)
        for (na, ta), (nb, tb) in zip(a.named_parameters(),
                                      b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    @pytest.mark.parametrize("config", [
        tiny_config(), tiny_config(depth=0),
        tiny_config(image_size=12, channels=3, mlp_ratio=2, num_classes=5)])
    def test_param_shapes_match_init(self, config):
        made = {name: t.shape for name, t in
                vit.init_params(config, seed=0).named_parameters()}
        assert list(vit.param_shapes(config).items()) == list(made.items())

    @pytest.mark.parametrize("config", [
        tiny_config(), tiny_config(depth=0),
        tiny_config(image_size=12, channels=3, mlp_ratio=2, num_classes=5)])
    def test_draw_order(self, config):
        # One generator, drawn in param_shapes order: a truncated normal
        # per matrix; gains are ones and offsets zeros, drawing nothing.
        rng = np.random.default_rng(11)
        gains = {"ln_f.g"} | {f"block{i}.ln{k}_g"
                              for i in range(config.depth) for k in (1, 2)}
        want = {name: vit._trunc_normal(rng, shape) if len(shape) == 2
                else np.ones(shape) if name in gains else np.zeros(shape)
                for name, shape in vit.param_shapes(config).items()}
        got = dict(vit.init_params(config, seed=11).named_parameters())
        assert list(got) == list(want)
        for name, t in got.items():
            np.testing.assert_array_equal(t.data, want[name], err_msg=name)
            assert t.requires_grad

    @pytest.mark.parametrize("field", ["patch_size", "heads"])
    def test_zero_divisor_is_a_contract_error(self, field):
        with pytest.raises(ContractError, match=f"{field} must be positive"):
            tiny_config(**{field: 0})

    def test_truncation_and_zero_biases(self):
        p = vit.init_params(tiny_config(), seed=0)
        assert np.abs(p.embed.w.data).max() <= 2 * vit.INIT_STD
        assert np.abs(p.blocks[0].w_q.data).max() <= 2 * vit.INIT_STD
        np.testing.assert_array_equal(p.embed.b.data, 0.0)
        np.testing.assert_array_equal(p.head_b.data, 0.0)
        np.testing.assert_array_equal(p.blocks[0].ln1_g.data, 1.0)


    def test_params_from_named_adopts_the_arrays(self):
        config = tiny_config()
        arrays = {name: t.data.copy() for name, t in
                  vit.init_params(config, seed=3).named_parameters()}
        params = vit.params_from_named(config, arrays, requires_grad=False)
        for name, t in params.named_parameters():
            assert t.data is arrays[name], name
            assert not t.requires_grad
        arrays["head.b"] = arrays["head.b"].astype(np.int64)
        with pytest.raises(ContractError, match="head.b"):
            vit.params_from_named(config, arrays)


class TestPatchify:
    def test_token_count_small(self):
        cfg = tiny_config(image_size=4, patch_size=2, embed_dim=4, heads=1)
        p = vit.init_params(cfg, seed=0)
        z = vit.patchify(np.zeros((1, 1, 4, 4)), cfg, p.embed)
        assert z.shape == (1, 5, 4)

    def test_zero_image_tokens_equal_bias(self):
        cfg = tiny_config(image_size=4, patch_size=2, embed_dim=4, heads=1)
        p = vit.init_params(cfg, seed=0)
        p.embed.pos.data[:] = 0.0
        p.embed.b.data[:] = np.array([1.0, -2.0, 0.5, 0.0])
        z = vit.patchify(np.zeros((2, 1, 4, 4)), cfg, p.embed)
        np.testing.assert_allclose(z.data[:, 1:, :],
                                   np.broadcast_to(p.embed.b.data, (2, 4, 4)))

    def test_raster_patch_order(self):
        cfg = tiny_config(image_size=4, patch_size=2, embed_dim=4, heads=1)
        img = np.zeros((1, 1, 4, 4))
        img[0, 0, :2, :2] = 1.0   # patch 0
        img[0, 0, :2, 2:] = 2.0   # patch 1
        img[0, 0, 2:, :2] = 3.0   # patch 2
        img[0, 0, 2:, 2:] = 4.0   # patch 3
        patches = vit.extract_patches(img, cfg)
        np.testing.assert_array_equal(patches[0],
                                      np.repeat([[1.0], [2.0], [3.0], [4.0]], 4,
                                                axis=1))

    def test_shape_mismatch(self):
        cfg = tiny_config()
        p = vit.init_params(cfg, seed=0)
        with pytest.raises(ContractError):
            vit.patchify(np.zeros((1, 1, 6, 6)), cfg, p.embed)


class TestBlockForward:
    def test_residual_passthrough_with_zero_weights(self):
        cfg = tiny_config()
        p = vit.init_params(cfg, seed=0).blocks[0]
        for name in ("w_q", "w_k", "w_v", "w_o", "w_fc1", "w_fc2"):
            getattr(p, name).data[:] = 0.0
        z = np.random.default_rng(0).normal(size=(2, 5, 8))
        out = vit.block_forward(Tensor(z), p, heads=2)
        np.testing.assert_array_equal(out.data, z)

    def test_matches_hand_attention_oracle(self):
        # Single head, two tokens: replicate the block arithmetic with a
        # direct numpy computation and compare.
        rng = np.random.default_rng(42)
        d = 4
        p = vit.init_params(tiny_config(embed_dim=d, heads=1), seed=1).blocks[0]
        for name in ("w_q", "w_k", "w_v", "w_o"):
            getattr(p, name).data[:] = rng.normal(size=(d, d))
        p.w_fc1.data[:] = rng.normal(size=(d, 4 * d))
        p.w_fc2.data[:] = rng.normal(size=(4 * d, d))
        z = rng.normal(size=(1, 2, d))

        out = vit.block_forward(Tensor(z), p, heads=1)

        def ln(x):
            mu = x.mean(-1, keepdims=True)
            var = x.var(-1, keepdims=True)
            return (x - mu) / np.sqrt(var + 1e-6)

        h = ln(z)
        q, k, v = h @ p.w_q.data, h @ p.w_k.data, h @ p.w_v.data
        s = q @ k.transpose(0, 2, 1) / np.sqrt(d)
        e = np.exp(s - s.max(-1, keepdims=True))
        a = e / e.sum(-1, keepdims=True)
        z1 = z + (a @ v) @ p.w_o.data
        h2 = ln(z1)
        u = np.sqrt(2 / np.pi) * (h2 @ p.w_fc1.data
                                  + 0.044715 * (h2 @ p.w_fc1.data) ** 3)
        expected = z1 + (0.5 * (h2 @ p.w_fc1.data) * (1 + np.tanh(u))) \
            @ p.w_fc2.data
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_attention_rows_stochastic(self):
        rng = np.random.default_rng(42)
        cfg = tiny_config()
        model = vit.VisionTransformer.build(cfg, seed=3)
        for _ in range(5):
            imgs = rng.uniform(size=(2, 1, 8, 8))
            traces = []
            model.forward(imgs, traces=traces)
            for tr in traces:
                maps = tr.maps
                assert maps.shape == (2, cfg.heads, 5, 5)
                assert (maps >= 0).all()
                np.testing.assert_allclose(maps.sum(axis=-1), 1.0, atol=1e-10)


def _block_run(p, z, w, **kwargs):
    """Output and every gradient (input and parameters) of one block under
    a weighted-sum loss."""
    for _, t in p.named():
        t.grad = None
    zt = Tensor(z, requires_grad=True)
    out = vit.block_forward(zt, p, heads=2, **kwargs)
    T.backward(tensor_sum(out * Tensor(w)))
    return out.data, zt.grad, {n: t.grad for n, t in p.named()}


class TestFusedBlock:
    """Every block runs the fused attention and MLP ops, which match the
    composed ops bit for bit."""

    def _setup(self, seed):
        p = vit.init_params(tiny_config(embed_dim=12), seed=seed).blocks[0]
        rng = np.random.default_rng(seed)
        for _, t in p.named():
            t.data += rng.normal(scale=0.3, size=t.shape)
        return p, rng.normal(size=(3, 6, 12))

    def test_untraced_block_equals_traced_block(self):
        p, z = self._setup(41)
        w = np.random.default_rng(41).normal(size=z.shape)
        fused = _block_run(p, z, w)
        traced = _block_run(p, z, w, trace=vit.AttentionTrace(0))
        np.testing.assert_array_equal(fused[0], traced[0])
        np.testing.assert_array_equal(fused[1], traced[1])
        for name, g in traced[2].items():
            np.testing.assert_array_equal(fused[2][name], g, err_msg=name)

    def test_class_row_block_equals_composed_ops(self, monkeypatch):
        p, z = self._setup(42)
        w = np.random.default_rng(42).normal(size=(3, 1, 12))
        fused = _block_run(p, z, w, class_row=True)
        monkeypatch.setattr(T, "attention", composed_attention)
        monkeypatch.setattr(T, "mlp", composed_mlp)
        composed = _block_run(p, z, w, class_row=True)
        np.testing.assert_array_equal(fused[0], composed[0])
        np.testing.assert_array_equal(fused[1], composed[1])
        for name, g in composed[2].items():
            np.testing.assert_array_equal(fused[2][name], g, err_msg=name)

    def test_only_traced_or_bumped_blocks_record_the_maps(self):
        p, z = self._setup(43)

        def op_names(**kwargs):
            out = vit.block_forward(Tensor(z), p, heads=2, **kwargs)
            return [node.name for node in T.Tape.trace(out).nodes]

        # Every block runs the one fused attention op, which splits and
        # merges the heads itself; a trace is its sink, not a graph
        # tensor, and only a traced block fills one.
        trace = vit.AttentionTrace(0)
        for kwargs in ({}, {"class_row": True}, {"trace": trace},
                       {"attn_bump": np.zeros((3, 2, 6, 6))}):
            names = op_names(**kwargs)
            assert names.count("attention") == 1
            assert names.count("mlp") == 1
            assert not set(names) & {"softmax_rows", "gelu", "gelu_matmul",
                                     "reshape", "transpose"}
        assert trace.maps.shape == (3, 2, 6, 6)

    def test_recorded_block_keeps_neither_maps_nor_gelu_output(self):
        # numpy reports its buffers to tracemalloc, so the traced memory
        # still held after the call is what one recorded block keeps,
        # output included: about 6.3 (B, N, D) arrays.  Keeping the
        # (B, H, N, N) maps, the (B, N, mlp_ratio * D) hidden layer or its
        # GELU, a layer-norm output or the attention context would break
        # the bound.
        b, n, d, heads, ratio = 4, 33, 32, 2, 4
        p = vit.init_params(tiny_config(embed_dim=d, heads=heads,
                                        mlp_ratio=ratio), seed=0).blocks[0]
        z = Tensor(np.random.default_rng(0).normal(size=(b, n, d)),
                   requires_grad=True)
        vit.block_forward(z, p, heads)   # first-call allocations
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = vit.block_forward(z, p, heads)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out._node is not None
        assert kept <= 7 * b * n * d * 8


class TestModelForward:
    def test_depth_zero_degenerate(self):
        cfg = tiny_config(depth=0)
        model = vit.VisionTransformer.build(cfg, seed=0)
        imgs = np.random.default_rng(1).uniform(size=(2, 1, 8, 8))
        logits = model.forward(imgs)

        z = vit.patchify(imgs, cfg, model.params.embed)
        z = T.layer_norm(z, model.params.ln_f_g, model.params.ln_f_b)
        expected = T.matmul(z[:, 0, :], model.params.head_w) \
            + model.params.head_b
        np.testing.assert_array_equal(logits.data, expected.data)

    def test_permutation_equivariance(self):
        cfg = tiny_config(image_size=8, patch_size=2)  # 16 patches
        model = vit.VisionTransformer.build(cfg, seed=7)
        rng = np.random.default_rng(0)
        imgs = rng.uniform(size=(2, 1, 8, 8))
        base = model.forward(imgs).data

        perm = rng.permutation(cfg.num_patches)
        patches = vit.extract_patches(imgs, cfg)[:, perm, :]
        g, p = cfg.grid_size, cfg.patch_size
        scrambled = patches.reshape(2, g, g, 1, p, p) \
            .transpose(0, 3, 1, 4, 2, 5).reshape(2, 1, 8, 8)
        model.params.embed.pos.data[1:] = model.params.embed.pos.data[1:][perm]
        permuted = model.forward(scrambled).data
        np.testing.assert_allclose(permuted, base, atol=1e-12)

    def test_trace_grads_gated_until_backward(self):
        cfg = tiny_config()
        model = vit.VisionTransformer.build(cfg, seed=0)
        imgs = np.random.default_rng(2).uniform(size=(2, 1, 8, 8))
        traces = []
        logits = model.forward(imgs, traces=traces)
        assert all(tr.grads is None for tr in traces)
        T.backward(T.cross_entropy(logits, np.array([0, 1])))
        for tr in traces:
            assert tr.grads.shape == tr.maps.shape
        assert traces[0].tokens is not None
        assert traces[0].tokens.grad is not None

    def test_attention_gradients_match_finite_differences(self):
        # Two tokens (one patch + class), one head: probe dL/dA through the
        # bump hook and compare against the captured gradient maps.
        cfg = tiny_config(image_size=4, patch_size=4, embed_dim=4, heads=1,
                          depth=1)
        model = vit.VisionTransformer.build(cfg, seed=11)
        imgs = np.random.default_rng(3).uniform(size=(1, 1, 4, 4))
        labels = np.array([1])

        traces = []
        loss = T.cross_entropy(model.forward(imgs, traces=traces), labels)
        T.backward(loss)
        analytic = traces[0].grads

        bump = np.zeros((1, 1, 2, 2))

        def f():
            logits = model.forward(imgs, attn_bumps={0: bump})
            return float(T.cross_entropy(logits, labels).data)

        numeric = numeric_grad(f, bump)
        assert_grads_close(analytic, numeric)

    def test_frozen_copy_is_detached(self):
        model = vit.VisionTransformer.build(tiny_config(), seed=0)
        frozen = model.frozen_copy()
        for _, t in frozen.named_parameters():
            assert not t.requires_grad
        frozen.params.head_w.data[:] = 0.0
        assert model.params.head_w.data.any()
        imgs = np.random.default_rng(4).uniform(size=(1, 1, 8, 8))
        logits = frozen.forward(imgs)
        assert logits._node is None  # no graph recorded for frozen params


def assert_same_grads(got: dict, want: dict, rel: float = 1e-9) -> None:
    """Every gradient agrees with its reference within ``rel`` of the
    reference's largest entry."""
    assert got.keys() == want.keys()
    for name, g in want.items():
        scale = max(np.abs(g).max(), 1e-300)
        assert np.abs(got[name] - g).max() <= rel * scale, name


def logits_and_grads(model, images, labels, traced: bool):
    """Logits and every parameter gradient of one cross-entropy step.
    A traced forward runs every block in full."""
    for _, p in model.named_parameters():
        p.grad = None
    logits = model.forward(images, traces=[] if traced else None)
    T.backward(T.cross_entropy(logits, labels))
    return logits.data, {n: p.grad.copy() for n, p in model.named_parameters()
                         if p.grad is not None}


class TestClassRowBlock:
    """The last block computes only the class-token row the head reads."""

    def test_block_returns_row_zero_of_full_block(self):
        p = vit.init_params(tiny_config(), seed=6).blocks[0]
        z = np.random.default_rng(6).normal(size=(3, 5, 8))
        full = vit.block_forward(Tensor(z), p, heads=2)
        row = vit.block_forward(Tensor(z), p, heads=2, class_row=True)
        assert row.shape == (3, 1, 8)
        np.testing.assert_allclose(row.data, full.data[:, :1], atol=1e-14)

    def test_trace_or_bump_refused(self):
        p = vit.init_params(tiny_config(), seed=0).blocks[0]
        z = Tensor(np.zeros((1, 5, 8)))
        with pytest.raises(ContractError):
            vit.block_forward(z, p, heads=2, trace=vit.AttentionTrace(0),
                              class_row=True)
        with pytest.raises(ContractError):
            vit.block_forward(z, p, heads=2,
                              attn_bump=np.zeros((1, 2, 5, 5)),
                              class_row=True)

    def test_logits_and_grads_match_full_path(self):
        model = vit.VisionTransformer.build(tiny_config(depth=3), seed=8)
        rng = np.random.default_rng(8)
        imgs = rng.uniform(size=(4, 1, 8, 8))
        labels = rng.integers(0, 3, size=4)
        full, full_grads = logits_and_grads(model, imgs, labels, traced=True)
        row, row_grads = logits_and_grads(model, imgs, labels, traced=False)
        np.testing.assert_allclose(row, full, rtol=0, atol=1e-12)
        assert_same_grads(row_grads, full_grads)
        with T.no_grad():
            inference = model.forward(imgs)
        assert inference._node is None
        np.testing.assert_array_equal(inference.data, row)

    def test_finite_differences_through_class_row_block(self):
        cfg = tiny_config(depth=2, embed_dim=4, heads=2)
        model = vit.VisionTransformer.build(cfg, seed=12)
        rng = np.random.default_rng(12)
        for _, p in model.named_parameters():
            p.data += rng.normal(scale=0.3, size=p.shape)
        imgs = rng.uniform(size=(2, 1, 8, 8))
        labels = np.array([0, 2])
        last = model.params.blocks[-1]

        def f():
            return float(T.cross_entropy(model.forward(imgs), labels).data)

        T.backward(T.cross_entropy(model.forward(imgs), labels))
        for t in (last.w_q, last.w_k, last.w_v, last.ln1_g, last.w_fc1,
                  model.params.blocks[0].w_o, model.params.embed.pos):
            assert_grads_close(t.grad, numeric_grad(f, t.data))

    def test_trace_and_bump_keep_full_last_block(self, monkeypatch):
        cfg = tiny_config(depth=2)
        model = vit.VisionTransformer.build(cfg, seed=4)
        imgs = np.random.default_rng(4).uniform(size=(2, 1, 8, 8))
        traces = []
        model.forward(imgs, traces=traces)
        assert traces[-1].maps.shape == (2, cfg.heads, 5, 5)

        shapes = []

        def recorded(*args, **kwargs):
            out = block(*args, **kwargs)
            shapes.append(out.shape)
            return out

        block = vit.block_forward
        monkeypatch.setattr(vit, "block_forward", recorded)
        model.forward(imgs)
        assert shapes == [(2, 5, 8), (2, 1, 8)]
        shapes.clear()
        model.forward(imgs, attn_bumps={1: np.zeros((2, cfg.heads, 5, 5))})
        assert shapes == [(2, 5, 8), (2, 5, 8)]
        shapes.clear()
        model.forward(imgs, attn_bumps={0: np.zeros((2, cfg.heads, 5, 5))})
        assert shapes == [(2, 5, 8), (2, 1, 8)]


# Run in a fresh interpreter: whether a 4 MB array is mmapped (glibc's
# ``mallinfo2().hblks`` grows by one while it lives) after the import, and
# after one forward at the acceptance shape; then whether ``mallopt``
# takes both thresholds.
ALLOCATOR_PROBE = """
import ctypes
import numpy as np

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = MallInfo2

kept = []

def mapped():
    # The array stays alive: glibc raises its mmap threshold to the size
    # of an mmapped chunk that is freed.
    before = libc.mallinfo2().hblks
    kept.append(np.empty(1 << 19))
    return libc.mallinfo2().hblks - before

from prunemerge import tensor as T
from prunemerge.vit import ModelConfig, VisionTransformer
print(mapped())
images = np.random.default_rng(0).uniform(size=(32, 1, 28, 28))
config = ModelConfig(image_size=28, patch_size=14, embed_dim=48, heads=4,
                     mlp_ratio=2)
VisionTransformer.build(config, seed=0).forward(images)
print(mapped())
print(T._mallopt(T._M_MMAP_THRESHOLD, 32 << 20),
      T._mallopt(T._M_TRIM_THRESHOLD, 1 << 30))
"""


def _has_mallinfo2() -> bool:
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return False
    return libc.startswith("glibc") \
        and hasattr(ctypes.CDLL(None), "mallinfo2")


@pytest.mark.skipif(not _has_mallinfo2(), reason="needs glibc's mallinfo2")
def test_the_first_forward_keeps_large_arrays_on_the_heap():
    # Importing the package changes no allocator setting; the first
    # forward serves a 4 MB request from the heap from then on.
    proc = subprocess.run([sys.executable, "-c", ALLOCATOR_PROBE],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split("\n") == ["1", "0", "True True", ""]

"""Tiny pre-norm vision transformer with attention-map instrumentation.

Blocks follow the DeiT convention: z' = z + SA(LN(z)); out = z' + MLP(LN(z')).
Attention projections are bias-free; the patch embedding and the head carry
biases.  Every block runs one fused attention op, ``tensor.attention``,
which also applies the output projection.
Given an AttentionTrace as its sink, that op records the block's
post-softmax attention maps and, in the graph's backward, their gradients;
given a bump, it adds a constant to the maps.  The MLP is one fused op
too, ``tensor.mlp``, which saves neither its hidden layer nor that
layer's GELU.

The head reads only the class token (token 0), so the forward pass runs
its last block in class-row mode: keys and values for every token, the rest
for token 0 alone.  A trace or an attention bump on that layer needs its
full maps and brings the full block back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import tensor as T
from .errors import ContractError
from .tensor import Tensor

INIT_STD = 0.02


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 28
    patch_size: int = 7
    channels: int = 1
    embed_dim: int = 32
    depth: int = 2
    heads: int = 2
    mlp_ratio: int = 4
    num_classes: int = 10

    def __post_init__(self):
        for f in fields(self):
            if f.name != "depth" and getattr(self, f.name) < 1:
                raise ContractError(f"{f.name} must be positive")
        if self.depth < 0:
            raise ContractError("depth must be nonnegative")
        if self.image_size % self.patch_size != 0:
            raise ContractError(
                f"image_size {self.image_size} not divisible by "
                f"patch_size {self.patch_size}")
        if self.embed_dim % self.heads != 0:
            raise ContractError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")

    @property
    def grid_size(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid_size ** 2

    @property
    def num_tokens(self) -> int:
        return self.num_patches + 1  # class token at index 0

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_size ** 2


@dataclass
class PatchEmbedParams:
    w: Tensor      # patch_dim x D
    b: Tensor      # D
    cls: Tensor    # 1 x D
    pos: Tensor    # N x D


@dataclass
class BlockParams:
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    w_fc1: Tensor
    w_fc2: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor

    def named(self):
        for f in fields(self):
            yield f.name, getattr(self, f.name)


@dataclass
class VitParams:
    embed: PatchEmbedParams
    blocks: list[BlockParams]
    ln_f_g: Tensor
    ln_f_b: Tensor
    head_w: Tensor
    head_b: Tensor

    def named_parameters(self):
        for f in fields(self.embed):
            yield f"embed.{f.name}", getattr(self.embed, f.name)
        for i, blk in enumerate(self.blocks):
            for name, t in blk.named():
                yield f"block{i}.{name}", t
        yield "ln_f.g", self.ln_f_g
        yield "ln_f.b", self.ln_f_b
        yield "head.w", self.head_w
        yield "head.b", self.head_b


@dataclass
class AttentionTrace:
    """Per-layer sink of ``tensor.attention``.

    ``maps`` holds the post-softmax attention maps A of the forward pass
    and ``grads`` the dL/dA of that forward's one backward; each is None
    until written.  ``tokens`` is the block's input, a graph tensor, so
    after backward its grad serves activation-based scoring.
    """

    layer: int
    maps: np.ndarray | None = None
    grads: np.ndarray | None = None
    tokens: Tensor | None = None


def _trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within 2 std."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2.0 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2.0 * std
    return x


def init_params(config: ModelConfig, seed: int = 0) -> VitParams:
    """Fresh parameters drawn from one ``default_rng(seed)``: in
    ``param_shapes`` order, a truncated normal for each matrix, ones for
    each layer-norm gain and zeros for each offset or bias."""
    rng = np.random.default_rng(seed)
    return params_from_named(config, {
        name: _trunc_normal(rng, shape) if len(shape) == 2
        else (np.ones if name.endswith(("_g", ".g")) else np.zeros)(shape)
        for name, shape in param_shapes(config).items()})


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter ``init_params`` makes, by its
    ``named_parameters`` name."""
    d, h = config.embed_dim, config.mlp_ratio * config.embed_dim
    block = {"w_q": (d, d), "w_k": (d, d), "w_v": (d, d), "w_o": (d, d),
             "w_fc1": (d, h), "w_fc2": (h, d), "ln1_g": (d,), "ln1_b": (d,),
             "ln2_g": (d,), "ln2_b": (d,)}
    return {"embed.w": (config.patch_dim, d), "embed.b": (d,),
            "embed.cls": (1, d), "embed.pos": (config.num_tokens, d),
            **{f"block{i}.{name}": shape for i in range(config.depth)
               for name, shape in block.items()},
            "ln_f.g": (d,), "ln_f.b": (d,),
            "head.w": (d, config.num_classes), "head.b": (config.num_classes,)}


def extract_patches(images: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Cut (B, Ch, H, W) pixels into (B, num_patches, patch_dim) rows.

    Patches are raster ordered (row-major over the grid), so neighbouring
    tokens are horizontal neighbours in the image.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        images = images[None]
    b, ch, h, w = images.shape
    p = config.patch_size
    if (ch, h, w) != (config.channels, config.image_size, config.image_size):
        raise ContractError(
            f"image shape {(ch, h, w)} does not match config "
            f"{(config.channels, config.image_size, config.image_size)}")
    g = config.grid_size
    x = images.reshape(b, ch, g, p, g, p)
    x = x.transpose(0, 2, 4, 1, 3, 5)  # (B, gy, gx, Ch, p, p)
    return x.reshape(b, g * g, ch * p * p)


def patchify(images: np.ndarray, config: ModelConfig,
             embed: PatchEmbedParams) -> Tensor:
    """Embed pixels into the (B, N, D) token sequence.

    Projects flattened patches, prepends the class token at index 0, and
    adds the learned positional embedding (one row per token, class
    position included), as the one engine node ``tensor.embed``.
    """
    return T.embed(extract_patches(images, config), embed.w, embed.b,
                   embed.cls, embed.pos)


def block_forward(z: Tensor, params: BlockParams, heads: int,
                  trace: AttentionTrace | None = None,
                  attn_bump: np.ndarray | None = None,
                  class_row: bool = False) -> Tensor:
    """One pre-norm transformer block on a (B, N, D) token tensor.

    ``attn_bump`` adds a constant to the post-softmax attention maps;
    finite-difference tests use it to probe the dL/dA the trace records.

    With ``class_row`` the block computes keys and values for every token
    but everything else -- queries, the (B, H, 1, N) attention row, the
    output projection, both residuals and the MLP -- for token 0 only, and
    returns (B, 1, D): row 0 of the full result up to GEMV-versus-GEMM
    rounding.  A trace or bump needs every row's maps, so it requires the
    full block.
    """
    if class_row and (trace is not None or attn_bump is not None):
        raise ContractError(
            "a class-row block has no full attention maps to trace or bump")
    if trace is not None:
        trace.tokens = z

    h = T.layer_norm(z, params.ln1_g, params.ln1_b)
    k = T.matmul(h, params.w_k)
    v = T.matmul(h, params.w_v)
    if class_row:
        z, h = z[:, :1], h[:, :1]
    q = T.matmul(h, params.w_q)
    # (B, H, rows, N) maps, rows are queries, scaled by 1/sqrt(head width)
    # inside the softmax; the op splits and merges the heads itself and
    # applies the output projection.
    z = z + T.attention(q, k, v, params.w_o, heads,
                        1.0 / math.sqrt(z.shape[-1] // heads),
                        sink=trace, bump=attn_bump)

    h2 = T.layer_norm(z, params.ln2_g, params.ln2_b)
    return z + T.mlp(h2, params.w_fc1, params.w_fc2)


def model_forward(images: np.ndarray, params: VitParams, config: ModelConfig,
                  traces: list[AttentionTrace] | None = None,
                  attn_bumps: dict[int, np.ndarray] | None = None,
                  layers: dict[int, Callable[..., Tensor]] | None = None
                  ) -> Tensor:
    """Full forward pass to (B, num_classes) logits.

    This is the one layer loop, for the base and the compressed model
    alike.  ``layers`` maps a layer index to the function that runs that
    layer in place of ``block_forward``, called as ``fn(layer, z, block,
    trace=trace, class_row=class_row)``; ``CompressedModel`` passes its
    compressed layers there.  ``attn_bumps`` reaches only the layers
    ``block_forward`` runs.  The head reads only the class token, so the
    last layer runs in class-row mode unless a trace or a bump asks for
    its full maps.  The first call sets the allocator's defaults (see
    ``tensor._allocator_defaults``).
    """
    T._allocator_defaults()
    z = patchify(images, config, params.embed)
    last = len(params.blocks) - 1
    for layer, blk in enumerate(params.blocks):
        trace = None
        if traces is not None:
            trace = AttentionTrace(layer)
            traces.append(trace)
        bump = attn_bumps.get(layer) if attn_bumps else None
        class_row = layer == last and trace is None and bump is None
        run = layers.get(layer) if layers else None
        if run is None:
            z = block_forward(z, blk, config.heads, trace=trace,
                              attn_bump=bump, class_row=class_row)
        else:
            z = run(layer, z, blk, trace=trace, class_row=class_row)
    z = T.layer_norm(z, params.ln_f_g, params.ln_f_b)
    cls = z[:, 0, :]
    return T.matmul(cls, params.head_w) + params.head_b


class VisionTransformer:
    """Config plus parameters, with the forward pass as a method."""

    def __init__(self, config: ModelConfig, params: VitParams):
        if len(params.blocks) != config.depth:
            raise ContractError(
                f"params carry {len(params.blocks)} blocks, config says "
                f"{config.depth}")
        self.config = config
        self.params = params

    @classmethod
    def build(cls, config: ModelConfig, seed: int = 0) -> "VisionTransformer":
        return cls(config, init_params(config, seed))

    def forward(self, images: np.ndarray,
                traces: list[AttentionTrace] | None = None,
                attn_bumps: dict[int, np.ndarray] | None = None) -> Tensor:
        return model_forward(images, self.params, self.config,
                             traces=traces, attn_bumps=attn_bumps)

    def named_parameters(self):
        return self.params.named_parameters()

    def frozen_copy(self) -> "VisionTransformer":
        """A gradient-free deep copy, e.g. for use as a distillation teacher."""
        return VisionTransformer(self.config, clone_params(
            self.config, self.params, requires_grad=False))


def clone_params(config: ModelConfig, params: VitParams,
                 requires_grad: bool = True) -> VitParams:
    """A deep copy of ``params``, a parameter tree of ``config``."""
    return params_from_named(
        config, {name: t.data.copy() for name, t in params.named_parameters()},
        requires_grad=requires_grad)


def params_from_named(config: ModelConfig, arrays: dict[str, np.ndarray],
                      requires_grad: bool = True) -> VitParams:
    """Build a parameter tree that adopts the given arrays, keyed as
    ``params.named_parameters()`` names them.

    Every parameter of ``config`` must be there as a float64 array of the
    shape ``param_shapes`` gives it, and nothing else may be.  Nothing is
    copied: each parameter's ``data`` is the caller's array, so pass
    arrays nothing else holds or writes (a fresh ``load_arrays`` result,
    say)."""
    shapes = param_shapes(config)
    stray = sorted(set(arrays) - set(shapes))
    if stray:
        raise ContractError(f"{stray[0]!r} is no parameter of this config")

    def take(name: str) -> Tensor:
        try:
            value = arrays[name]
        except KeyError:
            raise ContractError(f"missing parameter {name!r}") from None
        data = np.asarray(value)
        if data.dtype != np.float64 or data.shape != shapes[name]:
            raise ContractError(
                f"parameter {name!r}: expected float64 {shapes[name]}, "
                f"got {data.dtype} {data.shape}")
        return Tensor(data, requires_grad=requires_grad)

    return VitParams(
        embed=PatchEmbedParams(w=take("embed.w"), b=take("embed.b"),
                               cls=take("embed.cls"), pos=take("embed.pos")),
        blocks=[BlockParams(**{f.name: take(f"block{i}.{f.name}")
                               for f in fields(BlockParams)})
                for i in range(config.depth)],
        ln_f_g=take("ln_f.g"), ln_f_b=take("ln_f.b"),
        head_w=take("head.w"), head_b=take("head.b"),
    )

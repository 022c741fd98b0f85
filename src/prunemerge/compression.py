"""Merge/reconstruct construction and the compressed forward path.

A compressed layer replaces B(z) with  M+ . B(M.z) + z*(1-mask):  tokens
are folded into per-group weighted sums before the block and scattered
back afterwards, while pruned tokens bypass the block entirely through
the masked shortcut.  The groups partition the tokens and token j has one
entry in each matrix, w[j] = M[gid[j], j] and r[j] = R[j, gid[j]]; plans
store only the groups and those two vectors.  A pruned token's r[j] is
zero, so the two terms never overlap: token j of the output is
r[j] * B(M.z)[gid[j]] when it is live and z[j] when it is pruned, one
gather plus a row copy (``reconstruct_tokens``, the one reconstruct op; a
class-row last layer runs it on token 0 alone).  Both directions run in
O(N*D): every grouped merge (the model's, its gradients' and
``grouped_merge``) is one segmented sum and every grouped reconstruct one
gather.  A ``MergeMatrix`` is its own kernel layout, refused when built
unless its groups partition the tokens, and the kernels read only that
layout.  Dense M and R are derived views.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, ShapeMismatchError, SingularMatrixError
from .scoring import rank_descending, round_half_up
from .tensor import Tensor, from_op
from .vit import (AttentionTrace, BlockParams, ModelConfig, VisionTransformer,
                  block_forward, clone_params, model_forward)

RANK_TOL = 1e-10


def _load_sparsetools():
    """scipy's compiled ``scipy.sparse._sparsetools``, loaded from its file
    under its own name without running ``scipy/sparse/__init__.py``.

    Importing the package costs every process 0.2-0.35 s and about 22 MB
    of RSS to reach this one kernel; loading the extension alone takes
    under 1 ms (measured after ``import numpy``, one core).  A later
    ``import scipy.sparse`` reuses the module registered here, as this
    function reuses one already imported.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # finds, does not import
    spec = None
    if scipy is not None and scipy.submodule_search_locations:
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(p, "sparse")
                   for p in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"cannot find the compiled module {name}",
                          name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


csr_matvecs = _load_sparsetools().csr_matvecs


@dataclass
class MergeMatrix:
    """A merge matrix as its group partition plus one weight per token,
    and the kernel layout built from them, which is all the kernels read.

    ``groups`` lists one half-open [start, stop) range per row; together
    the ranges partition [0, n_tokens), which is what lets the merge run
    as one segmented sum, and other groups are refused when built.
    ``w[j]`` is token j's weight in its own group's row, M[gid[j], j];
    every other entry of M is zero.  A token is live when its weight is
    nonzero; ``pruned`` lists the others and ``bypass``, an (n, 1)
    column, is 1.0 on them.  ``merge_at``/``recon_at`` flat-index each
    token's entry M[gid[j], j] and R[j, gid[j]].  The CSR layout of
    stacked batch copies is kept for the last batch size asked for.  The
    instance is treated as immutable once built.
    """

    groups: list[tuple[int, int]]
    w: np.ndarray

    def __post_init__(self):
        self.live = self.w != 0
        self.pruned = np.flatnonzero(~self.live)
        self.bypass = (~self.live).astype(np.float64)[:, None]
        self.n_tokens = n = self.w.size
        bounds = np.asarray(self.groups, dtype=np.int64).reshape(-1, 2)
        starts, stops = bounds[:, 0], bounds[:, 1]
        covered = np.concatenate([[0], stops])
        if (starts != covered[:-1]).any() or (stops <= starts).any() \
                or covered[-1] != n:
            raise ContractError(f"groups do not partition [0, {n})")
        self.kept = len(bounds)
        self.gid = np.repeat(np.arange(self.kept), stops - starts)
        tokens = np.arange(n)
        self.merge_at = self.gid * n + tokens
        self.recon_at = tokens * self.kept + self.gid
        self._starts, self._batch = starts, 1
        self._layout = (np.append(starts, n), tokens)

    @cached_property
    def head(self) -> "MergeMatrix":
        """Token 0 alone, as the class-row reconstruct reads it: every
        plan's groups start at token 0, so gid[0] = 0."""
        return MergeMatrix([(0, 1)], self.w[:1])

    def layout(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR row pointers and column indices of ``batch`` stacked copies."""
        if batch != self._batch:
            offsets = self.n_tokens * np.arange(batch)[:, None]
            self._layout = (np.append((self._starts + offsets).ravel(),
                                      batch * self.n_tokens),
                            np.arange(batch * self.n_tokens))
            self._batch = batch
        return self._layout

    def merge_matrix(self, w: np.ndarray) -> np.ndarray:
        """Dense (kept, n_tokens) matrix holding w[j] at [gid[j], j]."""
        out = np.zeros((self.kept, self.n_tokens))
        out.put(self.merge_at, w)
        return out

    def recon_matrix(self, r: np.ndarray) -> np.ndarray:
        """Dense (n_tokens, kept) matrix holding r[j] at [j, gid[j]]."""
        out = np.zeros((self.n_tokens, self.kept))
        out.put(self.recon_at, r)
        return out

    @property
    def data(self) -> np.ndarray:
        """The dense (kept, n_tokens) matrix, built afresh on every read."""
        return self.merge_matrix(self.w)

    def validate(self, class_token: bool = False) -> None:
        """Invariants of a generated matrix beyond the partition: rows
        summing to one within 1e-10 and, with ``class_token``, row 0 equal
        to e_0.  The keep-mask is ``live``, read from the weights."""
        totals = np.bincount(self.gid, weights=self.w, minlength=self.kept)
        rows = np.flatnonzero(np.abs(totals - 1.0) > 1e-10)
        if rows.size:
            raise ContractError(
                f"row {rows[0]} sums to {totals[rows[0]]}, expected 1")
        if class_token:
            row0 = self.w[:self.groups[0][1]]
            if row0[0] != 1.0 or row0[1:].any():
                raise ContractError(
                    "class-token row must be the unit vector e_0")


@dataclass
class PlanEntry:
    """One compressed layer: the merge matrix and the reconstruct weights,
    ``r[j]`` = R[j, gid[j]].  The mask and the kept count are read from
    the merge."""

    merge: MergeMatrix
    r: np.ndarray              # (n,)

    @property
    def mask(self) -> np.ndarray:
        """0 for a pruned token: a fresh (n,) uint8 array on every read."""
        return self.merge.live.astype(np.uint8)

    @property
    def kept(self) -> int:
        return self.merge.kept

    @property
    def reconstruct(self) -> np.ndarray:
        """The dense (n, kept) matrix, built afresh on every read."""
        return self.merge.recon_matrix(self.r)


@dataclass
class CompressionPlan:
    """One entry per layer, None for an uncompressed (exempt) layer; the
    plan's depth and exempt layers are read from the entries."""

    entries: list[PlanEntry | None]
    class_token: bool = True

    @property
    def depth(self) -> int:
        return len(self.entries)

    @property
    def uncompressed(self) -> frozenset[int]:
        return frozenset(l for l, e in enumerate(self.entries) if e is None)

    def check_fits(self, config: ModelConfig) -> None:
        """Refuse a model of another depth or token count than the plan's."""
        if self.depth != config.depth:
            raise ContractError(
                f"plan depth {self.depth} != model depth {config.depth}")
        for layer, entry in enumerate(self.entries):
            if entry is not None and entry.merge.n_tokens != config.num_tokens:
                raise ContractError(
                    f"layer {layer}: plan width {entry.merge.n_tokens} != "
                    f"model tokens {config.num_tokens}")

    def kept_per_layer(self) -> dict[int, int]:
        return {l: e.kept for l, e in enumerate(self.entries) if e is not None}

    def total_kept(self) -> int:
        return sum(e.kept for e in self.entries if e is not None)

    def to_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {
            "plan.depth": np.array(self.depth, dtype=np.int64),
            "plan.class_token": np.array(int(self.class_token), dtype=np.uint8),
            "plan.uncompressed": np.array(sorted(self.uncompressed),
                                          dtype=np.int64),
        }
        for layer, entry in enumerate(self.entries):
            if entry is None:
                continue
            p = f"plan.layer{layer}."
            out[p + "mask"] = entry.mask
            out[p + "merge"] = entry.merge.w
            out[p + "reconstruct"] = entry.r
            out[p + "groups"] = np.array(entry.merge.groups, dtype=np.int64)
        return out

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "CompressionPlan":
        try:
            depth = int(arrays["plan.depth"])
            class_token = bool(arrays["plan.class_token"])
            uncompressed = frozenset(int(i) for i in arrays["plan.uncompressed"])
        except KeyError as e:
            raise ContractError(f"plan arrays missing {e}") from None
        except (TypeError, ValueError) as e:
            raise ContractError(f"plan header unreadable: {e}") from None
        if depth < 0:
            raise ContractError(f"plan depth {depth} is negative")
        if not all(0 <= l < depth for l in uncompressed):
            raise ContractError(
                f"uncompressed layers {sorted(uncompressed)} outside "
                f"[0, {depth})")
        entries: list[PlanEntry | None] = []
        read = {"plan.depth", "plan.class_token", "plan.uncompressed"}
        for layer in range(depth):
            if layer in uncompressed:
                entries.append(None)
                continue
            keys = [f"plan.layer{layer}.{k}" for k in
                    ("mask", "merge", "reconstruct", "groups")]
            read.update(keys)
            try:
                parts = [arrays[k] for k in keys]
            except KeyError as e:
                raise ContractError(f"plan arrays missing {e}") from None
            try:
                entries.append(_checked_entry(*parts, class_token))
            except ContractError as e:
                raise ContractError(f"plan layer {layer}: {e}") from None
        stray = sorted(set(arrays) - read)
        if stray:
            raise ContractError(
                f"plan array {stray[0]} belongs to no compressed layer")
        return cls(entries, class_token)


def _checked_entry(mask: np.ndarray, merge: np.ndarray, recon: np.ndarray,
                   groups: np.ndarray, class_token: bool) -> PlanEntry:
    """A plan entry read from a file, checked for what every plan keeps
    through fine-tuning: the container's dtypes (u1 mask, i8 groups, f8
    weights), agreeing shapes, finite values, a 0/1 mask, groups that
    partition the tokens, pruned tokens exactly at the zero weights of M
    and R and, with ``class_token``, token 0 live and the only live token
    of group 0.  Training moves row sums and the class-token weights, so
    those pass."""
    if mask.ndim != 1 or groups.ndim != 2 or groups.shape[1] != 2 \
            or merge.shape != mask.shape or recon.shape != mask.shape \
            or (mask.dtype, groups.dtype, merge.dtype, recon.dtype) \
            != (np.uint8, np.int64, np.float64, np.float64):
        raise ContractError(
            f"shapes disagree: mask {mask.shape} {mask.dtype}, merge "
            f"{merge.shape} {merge.dtype}, reconstruct {recon.shape} "
            f"{recon.dtype}, groups {groups.shape} {groups.dtype}")
    if not (np.isfinite(merge).all() and np.isfinite(recon).all()):
        raise ContractError("merge and reconstruct values must be finite")
    if not np.isin(mask, (0, 1)).all():
        raise ContractError("mask values must be 0 or 1")
    matrix = MergeMatrix([(int(a), int(b)) for a, b in groups], merge)
    live = matrix.live
    if (live != (mask != 0)).any():
        raise ContractError(
            "zero weights of the merge matrix disagree with the mask")
    if recon[mask == 0].any():
        raise ContractError("pruned tokens must have zero reconstruct weights")
    if class_token and (not live[:1].any() or live[1:groups[0, 1]].any()):
        raise ContractError(
            "class_token is set but token 0 is not alone and unpruned in "
            "group 0")
    return PlanEntry(matrix, recon)


# ----------------------------------------------------------------------
# merge-matrix generation
# ----------------------------------------------------------------------

def _assemble(scores: np.ndarray, reserved: np.ndarray, pruned: np.ndarray,
              class_token: bool) -> MergeMatrix:
    """Build the merge matrix from explicit index sets.

    ``reserved`` holds the merge-eligible (non-class) important token
    indices, ascending; ``pruned`` the pruned indices, none below the
    class token.  The class token, when present, occupies row 0 as a pure
    unit vector.
    """
    n = scores.size
    start = 1 if class_token else 0
    pruned_flag = np.zeros(n, dtype=bool)
    pruned_flag[pruned] = True

    weights = np.where(pruned_flag, 0.0, np.asarray(scores, dtype=np.float64))
    w = np.zeros(n)
    groups: list[tuple[int, int]] = []
    reserved = np.asarray(reserved, dtype=np.int64)

    if class_token:
        w[0] = 1.0
        # With no merge groups at all, the class group absorbs the (fully
        # pruned) remainder so the partition invariant holds.
        groups.append((0, 1) if reserved.size else (0, n))

    if reserved.size == 0:
        if (~pruned_flag[start:]).any():
            raise ContractError(
                "no merge rows available but unpruned tokens remain; "
                "increase the keep budget or prune them")
    else:
        prev = start - 1
        last = reserved.size - 1
        for i, r in enumerate(reserved):
            a = prev + 1
            b = n if i == last else int(r) + 1
            seg = weights[a:b]
            alive = ~pruned_flag[a:b]
            total = seg.sum()
            if total > 0.0 and not np.any(alive & (seg == 0.0)):
                w[a:b] = seg / total
            else:
                # Degenerate group: normalized scores would zero out a
                # surviving member (or the whole group scored zero),
                # leaving a kept token with an all-zero column and nothing
                # to reconstruct from.  Uniform weights over survivors
                # keep every kept column nonzero and the row full rank.
                w[a:b][alive] = 1.0 / alive.sum()
            groups.append((a, b))
            prev = int(r)

    return MergeMatrix(groups, w)


def generate_merge_matrix(scores: np.ndarray, keep_count: int,
                          prune_count: int,
                          class_token: bool = False) -> MergeMatrix:
    """Single-layer merge-matrix construction.

    Sorts scores descending, prunes the lowest ``prune_count`` tokens,
    selects the ``keep_count`` highest as important, and partitions the
    sequence into one contiguous group per important token: half-open
    (previous, current], trailing tokens folded into the last group.  Row
    weights are the prune-zeroed scores normalized per group.  A pruned
    token is one with weight 0, so the keep-mask is ``merge.live``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ContractError("scores must be finite")
    n = scores.size
    start = 1 if class_token else 0
    if prune_count < 0:
        raise ContractError(f"prune_count must be nonnegative, got {prune_count}")
    if keep_count < 1:
        raise ContractError(f"keep_count must be positive, got {keep_count}")
    if keep_count + prune_count > n:
        raise ContractError(
            f"keep_count {keep_count} + prune_count {prune_count} exceeds "
            f"{n} tokens")
    order = rank_descending(scores[start:]) + start
    reserved = np.sort(order[:keep_count - start])
    pruned = np.sort(order[order.size - prune_count:])
    return _assemble(scores, reserved, pruned, class_token)


def pseudoinverse(merge: MergeMatrix) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a merge matrix, as the vector r.

    Rows supported on disjoint groups make M.M^T diagonal, so column g of
    M+ is row_g / ||row_g||^2: r[j] = w[j] / ||row gid[j]||^2.
    """
    norms2 = np.bincount(merge.gid, weights=merge.w * merge.w,
                         minlength=merge.kept)
    if (norms2 <= RANK_TOL ** 2).any():
        bad = int(np.argmin(norms2))
        raise SingularMatrixError(f"merge-matrix row {bad} is zero")
    return merge.w / norms2[merge.gid]


# ----------------------------------------------------------------------
# the grouped kernels and their autodiff ops
# ----------------------------------------------------------------------

def _segment_sum(x: np.ndarray, w: np.ndarray,
                 merge: MergeMatrix) -> np.ndarray:
    """The merge kernel: out[..., g, :] = sum of w[j] * x[..., j, :] over
    the tokens j of group g, each group summed left to right.

    Leading axes fold into one flat (B*N, D) row block that scipy's CSR
    kernel sums in one call against a block-diagonal layout: no
    transpose, and no copy of contiguous input.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    *lead, n, d = x.shape
    if n != merge.n_tokens:
        raise ShapeMismatchError(f"tokens axis {x.shape} does not match "
                                 f"merge width {merge.n_tokens}")
    batch = math.prod(lead)
    indptr, cols = merge.layout(batch)
    out = np.zeros((*lead, merge.kept, d))
    csr_matvecs(batch * merge.kept, batch * n, d, indptr, cols,
                w if batch == 1 else np.tile(w, batch), x, out)
    return out


def _gather(y: np.ndarray, merge: MergeMatrix) -> np.ndarray:
    """The reconstruct gather: token j takes row gid[j] of ``y``.

    np.take returns a fresh C-contiguous array, which callers may scale in
    place; fancy indexing would lay the token axis outermost in memory.
    """
    return np.take(y, merge.gid, axis=-2)


def _token_grad(a: np.ndarray, b: np.ndarray,
                merge: MergeMatrix) -> np.ndarray:
    """Per-token matrix gradient: a * b summed over every axis but the
    token axis, zero on pruned tokens so that they stay pruned."""
    per_token = (a * b).sum(axis=-1)
    per_token = per_token.sum(axis=tuple(range(per_token.ndim - 1)))
    return np.where(merge.live, per_token, 0.0)


def grouped_merge(z: np.ndarray, merge: MergeMatrix) -> np.ndarray:
    """Per-group weighted token sums; equal to merge.data @ z.

    Runs the merge kernel of ``merge_tokens`` on 2-D or batched input.
    """
    return _segment_sum(z, merge.w, merge)


def merge_tokens(z: Tensor, merge_t: Tensor, merge: MergeMatrix) -> Tensor:
    """Autodiff grouped merge: out[g] = sum_{j in g} M[g, j] * z[j].

    Gradients to the matrix touch only each live token's entry in its own
    group's row, so structural zeros and pruned columns stay exactly zero
    through any number of training steps.  A frozen matrix gets no
    gradient, so its backward neither keeps ``z`` nor builds one.
    """
    w = merge_t.data.take(merge.merge_at)
    zd = z.data if merge_t.requires_grad else None
    data = _segment_sum(z.data, w, merge)

    def grad_fn(g):
        g_tok = _gather(g, merge)
        dm = None if zd is None else \
            merge.merge_matrix(_token_grad(g_tok, zd, merge))
        g_tok *= w[:, None]
        return g_tok, dm

    return from_op(data, (z, merge_t), grad_fn, "merge_tokens")


def reconstruct_tokens(y: Tensor, recon_t: Tensor, merge: MergeMatrix,
                       z: Tensor) -> Tensor:
    """Autodiff grouped reconstruct with the shortcut for pruned tokens.

    ``y`` is the block's output on the merged tokens and ``z`` the
    layer's input.  A live token j gets R[j, gid[j]] * y[gid[j]] and a
    pruned token its input z[j], bit for bit.  Gradients to the matrix
    touch only each live token's entry in its own group's column; pruned
    rows stay exactly zero.  ``z`` gets the output gradient times the
    (n, 1) ``merge.bypass`` column: the gradient on pruned rows, zeros
    elsewhere, and nothing at all when no token is pruned.  As in
    ``merge_tokens``, a frozen matrix gets no gradient and its backward
    keeps no ``y``.  A class-row layer passes token 0's slices: ``y`` of
    shape (B, 1, D), R[:1, :1], ``merge.head`` and z[:, :1].
    """
    w = recon_t.data.take(merge.recon_at)
    yd = y.data if recon_t.requires_grad else None
    data = _gather(y.data, merge)
    if z.shape != data.shape:
        raise ShapeMismatchError(
            f"layer input {z.shape} does not match the reconstruct "
            f"{data.shape}")
    data *= w[:, None]
    bypass = None
    if merge.pruned.size:
        data[..., merge.pruned, :] = z.data[..., merge.pruned, :]
        bypass = merge.bypass

    def grad_fn(g):
        dr = None if yd is None else \
            merge.recon_matrix(_token_grad(g, _gather(yd, merge), merge))
        return (_segment_sum(g, w, merge), dr,
                None if bypass is None else g * bypass)

    return from_op(data, (y, recon_t, z), grad_fn, "reconstruct_tokens")


def pm_forward(z: Tensor, entry: PlanEntry, block: BlockParams, heads: int,
               trace: AttentionTrace | None = None) -> Tensor:
    """Compressed layer forward with a frozen plan entry."""
    return pm_forward_tensors(z, Tensor(entry.merge.data),
                              Tensor(entry.reconstruct), entry.merge,
                              entry.mask, block, heads, trace=trace)


def pm_forward_tensors(z: Tensor, merge_t: Tensor, recon_t: Tensor,
                       merge: MergeMatrix, mask: np.ndarray,
                       block: BlockParams, heads: int,
                       trace: AttentionTrace | None = None,
                       class_row: bool = False) -> Tensor:
    """Compressed layer forward with explicit (possibly learnable) matrices.

    ``merge`` gives the layout only: the weights come from ``merge_t``
    and ``recon_t``.  ``mask`` is the plan's mask (0 = pruned); it must
    prune exactly the tokens ``merge`` marks as pruned, which the
    reconstruct's shortcut reads.  With ``class_row`` every token is still
    merged, because keys and values need every group, but the block and
    the reconstruct produce token 0 only, as (B, 1, D):
    ``reconstruct_tokens`` runs on token 0's one-token group
    ``merge.head`` with R[:1, :1] and z[:, :1].
    """
    if not np.array_equal(np.asarray(mask) != 0, merge.live):
        raise ContractError("mask disagrees with the merge's pruned tokens")
    y = block_forward(merge_tokens(z, merge_t, merge), block, heads,
                      trace=trace, class_row=class_row)
    if class_row:
        return reconstruct_tokens(y, recon_t[:1, :1], merge.head, z[:, :1])
    return reconstruct_tokens(y, recon_t, merge, z)


# ----------------------------------------------------------------------
# global planning
# ----------------------------------------------------------------------

def global_plan(all_scores: list[np.ndarray], rate: float,
                pm_threshold: float, exempt_layers=(),
                class_token: bool = True) -> CompressionPlan:
    """Budgeted cross-layer plan from concatenated importance scores.

    Exactly round(rate * total) tokens are reserved across the non-exempt
    layers (class tokens are always among them) and at least the
    round(pm_threshold * total) lowest-scoring tokens are pruned, capped
    by the removal budget: a threshold larger than 1 - rate degrades
    gracefully to pruning every removed token rather than failing.  A
    class-token layer that reserves no other token has no group for its
    remaining tokens to join, so they are pruned too and ride the
    shortcut; that layer keeps its class token alone.
    """
    depth = len(all_scores)
    if depth == 0:
        raise ContractError("no layers to plan")
    if not 0.0 < rate <= 1.0:
        raise ContractError(f"keep rate must lie in (0, 1], got {rate}")
    if not 0.0 <= pm_threshold <= 1.0:
        raise ContractError(
            f"pm_threshold must lie in [0, 1], got {pm_threshold}")
    exempt = frozenset(int(l) for l in exempt_layers)
    for l in exempt:
        if not 0 <= l < depth:
            raise ContractError(f"exempt layer {l} outside [0, {depth})")
    active = [l for l in range(depth) if l not in exempt]
    if not active:
        raise ContractError("every layer is exempt; nothing to compress")

    start = 1 if class_token else 0
    sizes = {l: np.asarray(all_scores[l]).size for l in active}
    total = sum(sizes.values())
    n_class = len(active) * start
    keep = round_half_up(rate * total)
    if keep < max(n_class, 1):
        raise ContractError(
            f"keep budget {keep} cannot cover the {n_class} class tokens")
    prune = min(round_half_up(pm_threshold * total), total - keep)

    flat_scores = np.concatenate(
        [np.asarray(all_scores[l], dtype=np.float64)[start:] for l in active])
    if not np.isfinite(flat_scores).all():
        raise ContractError("scores must be finite")
    flat_layer = np.concatenate(
        [np.full(sizes[l] - start, l, dtype=np.int64) for l in active])
    flat_token = np.concatenate(
        [np.arange(start, sizes[l], dtype=np.int64) for l in active])

    order = rank_descending(flat_scores)
    reserved_pos = order[:keep - n_class]
    pruned_pos = order[len(order) - prune:]

    entries: list[PlanEntry | None] = []
    for layer in range(depth):
        if layer in exempt:
            entries.append(None)
            continue
        sel_r = reserved_pos[flat_layer[reserved_pos] == layer]
        sel_p = pruned_pos[flat_layer[pruned_pos] == layer]
        reserved = np.sort(flat_token[sel_r])
        pruned = np.sort(flat_token[sel_p])
        if reserved.size + start == 0:
            raise ContractError(f"layer {layer} keeps no tokens")
        if reserved.size == 0:
            pruned = np.arange(start, sizes[layer])
        scores_l = np.asarray(all_scores[layer], dtype=np.float64)
        merge = _assemble(scores_l, reserved, pruned, class_token)
        merge.validate(class_token=class_token)
        entries.append(PlanEntry(merge, pseudoinverse(merge)))

    plan = CompressionPlan(entries, class_token)
    if plan.total_kept() != keep:
        raise ContractError(
            f"internal budget mismatch: kept {plan.total_kept()}, "
            f"expected {keep}")
    return plan


def identity_plan(depth: int, n_tokens: int,
                  class_token: bool = True) -> CompressionPlan:
    """A no-op plan: every layer keeps every token in its own group."""
    entries = []
    for _ in range(depth):
        merge = MergeMatrix([(j, j + 1) for j in range(n_tokens)],
                            np.ones(n_tokens))
        entries.append(PlanEntry(merge, pseudoinverse(merge)))
    return CompressionPlan(entries, class_token)


# ----------------------------------------------------------------------
# compressed model
# ----------------------------------------------------------------------

class CompressedModel:
    """A vision transformer whose blocks run behind plan entries.

    Owns an independent copy of the base parameters.  Merge and
    reconstruct matrices are first-class parameters, held as the dense
    (kept, N) and (N, kept) views of the plan's vectors, so AdamW decays
    them as matrices; ``export_plan`` reads the vectors back.  When
    ``learnable_matrices`` they receive gradients (structural zeros and
    pruned tokens excluded by the grouped ops) until explicitly frozen.
    """

    def __init__(self, base: VisionTransformer, plan: CompressionPlan,
                 learnable_matrices: bool = False):
        plan.check_fits(base.config)
        self.config = base.config
        self.plan = plan
        self.params = clone_params(base.config, base.params)
        self.merge_t: dict[int, Tensor] = {}
        self.recon_t: dict[int, Tensor] = {}
        for layer, entry in enumerate(plan.entries):
            if entry is None:
                continue
            self.merge_t[layer] = Tensor(entry.merge.data,
                                         requires_grad=learnable_matrices)
            self.recon_t[layer] = Tensor(entry.reconstruct,
                                         requires_grad=learnable_matrices)

    def forward(self, images: np.ndarray,
                traces: list[AttentionTrace] | None = None) -> Tensor:
        """Logits of the compressed model: ``vit.model_forward`` with each
        compressed layer run by ``pm_forward_tensors``."""
        return model_forward(images, self.params, self.config, traces=traces,
                             layers=dict.fromkeys(self.merge_t,
                                                  self._compressed_layer))

    def _compressed_layer(self, layer: int, z: Tensor, block: BlockParams,
                          trace: AttentionTrace | None,
                          class_row: bool) -> Tensor:
        entry = self.plan.entries[layer]
        return pm_forward_tensors(z, self.merge_t[layer], self.recon_t[layer],
                                  entry.merge, entry.mask, block,
                                  self.config.heads, trace=trace,
                                  class_row=class_row)

    def named_parameters(self):
        yield from self.params.named_parameters()
        yield from self.matrix_parameters()

    def matrix_parameters(self):
        for layer in sorted(self.merge_t):
            yield f"pm.layer{layer}.merge", self.merge_t[layer]
            yield f"pm.layer{layer}.reconstruct", self.recon_t[layer]

    def set_matrices_trainable(self, flag: bool) -> None:
        for layer in self.merge_t:
            self.merge_t[layer].requires_grad = flag
            self.recon_t[layer].requires_grad = flag

    def export_plan(self) -> CompressionPlan:
        """Snapshot the current (possibly trained) matrices as a plan."""
        entries: list[PlanEntry | None] = []
        for layer, entry in enumerate(self.plan.entries):
            if entry is None:
                entries.append(None)
                continue
            merge = entry.merge
            entries.append(PlanEntry(
                MergeMatrix(list(merge.groups),
                            self.merge_t[layer].data.take(merge.merge_at)),
                self.recon_t[layer].data.take(merge.recon_at)))
        return CompressionPlan(entries, self.plan.class_token)


def compress_model(model: VisionTransformer, plan: CompressionPlan,
                   learnable_matrices: bool = False) -> CompressedModel:
    return CompressedModel(model, plan, learnable_matrices=learnable_matrices)

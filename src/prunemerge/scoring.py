"""Token importance scoring from attention traces and activations.

Scores are accumulated over many training batches on a frozen model (the
scoring pass computes gradients but never updates weights), then averaged
by the iteration count.  All variants fold the batch dimension inside the
final absolute value, mirroring how a mean-reduced loss distributes 1/B
into the gradient maps.
"""

from __future__ import annotations

import csv
import enum
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import tensor as T
from .errors import ContractError, ShapeMismatchError
from .vit import AttentionTrace, VisionTransformer


class ScorerVariant(enum.Enum):
    GRAD_WEIGHTED_AVG = "grad_weighted_avg"  # default
    TAYLOR_TOKEN = "taylor_token"
    ATTN_ONLY_AVG = "attn_only_avg"
    ATTN_ONLY_CLASS = "attn_only_class"
    GRAD_ONLY = "grad_only"
    GRAD_CLASS_ATTN = "grad_class_attn"
    RANDOM = "random"

    @classmethod
    def from_name(cls, name: str) -> "ScorerVariant":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(v.value for v in cls)
            raise ContractError(
                f"unknown scorer '{name}'; expected one of: {valid}") from None


def rank_descending(scores: np.ndarray) -> np.ndarray:
    """Indices sorted by score descending; ties keep ascending index order.

    One stable ordering serves both selection ends: the head yields
    highest-scoring tokens (lower index wins ties), the tail yields
    lowest-scoring tokens (higher index pruned first).
    """
    return np.argsort(-np.asarray(scores), kind="stable")


def _fold_batch(arr: np.ndarray, core_ndim: int) -> np.ndarray:
    """Sum away any leading batch axes beyond the core shape."""
    extra = arr.ndim - core_ndim
    if extra < 0:
        raise ShapeMismatchError(
            f"expected at least {core_ndim} axes, got shape {arr.shape}")
    if extra:
        arr = arr.sum(axis=tuple(range(extra)))
    return arr


def score_taylor_token(tokens: np.ndarray, grad_tokens: np.ndarray) -> np.ndarray:
    """Per-token first-order saliency: |(1/D) sum_d grad * activation|."""
    tokens = np.asarray(tokens)
    grad_tokens = np.asarray(grad_tokens)
    if tokens.shape != grad_tokens.shape:
        raise ShapeMismatchError(
            f"token/gradient shapes differ: {tokens.shape} vs {grad_tokens.shape}")
    d = tokens.shape[-1]
    per_token = (grad_tokens * tokens).sum(axis=-1) / d
    return np.abs(_fold_batch(per_token, 1))


def score_grad_weighted_attention(maps: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Gradient-weighted attention received by each key token.

    Maps are query-major: entry [..., q, k] is how much query q attends to
    key k.  The score of key i is the head-averaged, query-summed product
    of the attention map with its gradient, absolute value applied after
    all summation.
    """
    maps = np.asarray(maps)
    grads = np.asarray(grads)
    if maps.shape != grads.shape:
        raise ShapeMismatchError(
            f"map/gradient shapes differ: {maps.shape} vs {grads.shape}")
    weighted = (grads * maps).sum(axis=-2)   # sum over queries -> (..., H, N)
    per_key = weighted.mean(axis=-2)         # average heads -> (..., N)
    return np.abs(_fold_batch(per_key, 1))


def score_gradient_only(grads: np.ndarray) -> np.ndarray:
    """Like the gradient-weighted score but ignoring the attention values."""
    grads = np.asarray(grads)
    per_key = grads.sum(axis=-2).mean(axis=-2)
    return np.abs(_fold_batch(per_key, 1))


def score_attention_only(maps: np.ndarray, class_only: bool = False) -> np.ndarray:
    """Mean attention received by each key (no gradient weighting).

    Averages over batch and heads.  With ``class_only`` the sum over
    queries is replaced by the class-token query row.
    """
    maps = np.asarray(maps)
    if class_only:
        per_key = maps[..., 0, :].mean(axis=-2)
    else:
        per_key = maps.sum(axis=-2).mean(axis=-2)
    extra = per_key.ndim - 1
    if extra:
        per_key = per_key.mean(axis=tuple(range(extra)))
    return np.abs(per_key)


def score_grad_class_attention(maps: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Gradient-weighted attention restricted to the class-token query row."""
    maps = np.asarray(maps)
    grads = np.asarray(grads)
    if maps.shape != grads.shape:
        raise ShapeMismatchError(
            f"map/gradient shapes differ: {maps.shape} vs {grads.shape}")
    per_key = (grads[..., 0, :] * maps[..., 0, :]).mean(axis=-2)
    return np.abs(_fold_batch(per_key, 1))


def scores_from_trace(trace: AttentionTrace, variant: ScorerVariant,
                      rng: np.random.Generator | None = None) -> np.ndarray:
    """Dispatch one layer's trace to the selected scoring rule."""
    if variant is ScorerVariant.TAYLOR_TOKEN:
        if trace.tokens is None or trace.tokens.grad is None:
            raise ContractError("taylor_token scoring needs traced token "
                                "activations with gradients")
        return score_taylor_token(trace.tokens.data, trace.tokens.grad)
    if variant is ScorerVariant.RANDOM and rng is None:
        raise ContractError("random scorer needs a generator")
    maps, grads = trace.maps, trace.grads
    if maps is None:
        raise ContractError("trace has no attention recorded yet")
    if variant is ScorerVariant.RANDOM:
        return rng.uniform(size=maps.shape[-1])
    if variant is ScorerVariant.ATTN_ONLY_AVG:
        return score_attention_only(maps)
    if variant is ScorerVariant.ATTN_ONLY_CLASS:
        return score_attention_only(maps, class_only=True)
    if grads is None:
        raise ContractError(
            "attention gradients are present only after a backward pass")
    if variant is ScorerVariant.GRAD_ONLY:
        return score_gradient_only(grads)
    if variant is ScorerVariant.GRAD_CLASS_ATTN:
        return score_grad_class_attention(maps, grads)
    return score_grad_weighted_attention(maps, grads)


def accumulate(scores_sum: np.ndarray, batch_scores: np.ndarray) -> np.ndarray:
    """Elementwise running sum of per-iteration scores."""
    scores_sum = np.asarray(scores_sum, dtype=np.float64)
    batch_scores = np.asarray(batch_scores, dtype=np.float64)
    if scores_sum.shape != batch_scores.shape:
        raise ShapeMismatchError(
            f"score shapes differ: {scores_sum.shape} vs {batch_scores.shape}")
    return scores_sum + batch_scores


def finalize(scores_sum: np.ndarray, iterations: int) -> np.ndarray:
    """Average an accumulated score sum over its iteration count."""
    if iterations < 1:
        raise ContractError(f"iteration count must be >= 1, got {iterations}")
    return np.asarray(scores_sum, dtype=np.float64) / iterations


class ScoreAccumulator:
    """Running per-layer score sums plus the iteration counter."""

    def __init__(self, layer_sizes: list[int]):
        self.sums = [np.zeros(n) for n in layer_sizes]
        self.iterations = 0

    def add(self, per_layer: list[np.ndarray]) -> None:
        if len(per_layer) != len(self.sums):
            raise ShapeMismatchError(
                f"expected {len(self.sums)} layers, got {len(per_layer)}")
        self.sums = [accumulate(s, b) for s, b in zip(self.sums, per_layer)]
        self.iterations += 1

    def finalize(self) -> list[np.ndarray]:
        return [finalize(s, self.iterations) for s in self.sums]


def make_token_mask(scores: np.ndarray, prune_count: int,
                    class_token: bool = True) -> np.ndarray:
    """Binary keep mask: the prune_count lowest-scoring tokens get 0.

    With ``class_token`` the token at index 0 is exempt from pruning.
    Ties are broken by pruning the higher index first.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    start = 1 if class_token else 0
    if not 0 <= prune_count < n:
        raise ContractError(
            f"prune_count must lie in [0, {n}), got {prune_count}")
    if prune_count > n - start:
        raise ContractError(
            f"prune_count {prune_count} exceeds the {n - start} prunable tokens")
    mask = np.ones(n, dtype=np.uint8)
    if prune_count:
        order = rank_descending(scores[start:]) + start
        mask[order[len(order) - prune_count:]] = 0
    return mask


def prune_count_for(pm_threshold: float, n_tokens: int,
                    class_token: bool = True) -> int:
    """Number of tokens pruned outright in one layer: round(tau * (N-1))."""
    if not 0.0 <= pm_threshold <= 1.0:
        raise ContractError(f"pm_threshold must lie in [0, 1], got {pm_threshold}")
    eligible = n_tokens - (1 if class_token else 0)
    return round_half_up(pm_threshold * eligible)


def round_half_up(x: float) -> int:
    """Deterministic budget rounding: .5 always rounds up."""
    return int(np.floor(x + 0.5))


def collect_scores(model: VisionTransformer, dataset: data_mod.Dataset, *,
                   iterations: int, batch_size: int,
                   variant: ScorerVariant = ScorerVariant.GRAD_WEIGHTED_AVG,
                   seed: int = 0) -> list[np.ndarray]:
    """Accumulate per-layer token scores over seeded training batches.

    The model is read-only here: each iteration runs a forward pass with
    trace capture and a cross-entropy backward pass purely to obtain
    gradient maps; no parameters are updated.  Batches cycle through
    epochs deterministically.
    """
    if iterations < 1:
        raise ContractError("iterations must be >= 1")
    n = model.config.num_tokens
    acc = ScoreAccumulator([n] * model.config.depth)
    rng = np.random.default_rng(seed)
    params = [t for _, t in model.named_parameters()]
    done = 0
    epoch = 0
    while done < iterations:
        for images, labels in data_mod.batches(dataset, batch_size,
                                               seed=seed, epoch=epoch):
            if variant is ScorerVariant.RANDOM:
                per_layer = [rng.uniform(size=n)
                             for _ in range(model.config.depth)]
            else:
                traces: list[AttentionTrace] = []
                logits = model.forward(images, traces=traces)
                loss = T.cross_entropy(logits, labels)
                T.backward(loss)
                per_layer = [scores_from_trace(tr, variant, rng)
                             for tr in traces]
                T.zero_grads(params)
            acc.add(per_layer)
            done += 1
            if done >= iterations:
                break
        epoch += 1
    return acc.finalize()


def export_scores_csv(path: str | Path, per_layer: list[np.ndarray]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "token_index", "score"])
        for layer, scores in enumerate(per_layer):
            for idx, s in enumerate(scores):
                writer.writerow([layer, idx, repr(float(s))])


def load_scores_csv(path: str | Path) -> list[np.ndarray]:
    """Inverse of export_scores_csv.  A malformed row raises ContractError
    naming the path and the line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise ContractError(
            f"{path}:{line}: not UTF-8 text ({e.reason})") from None
    reader = csv.reader(text.splitlines())
    rows: dict[int, dict[int, float]] = {}
    try:
        header = next(reader, None)
        if header != ["layer", "token_index", "score"]:
            raise ContractError(f"{path}: expected header "
                                f"layer,token_index,score, got {header}")
        for fields in reader:
            where = f"{path}:{reader.line_num}"
            if not fields:
                continue
            if len(fields) != 3:
                raise ContractError(f"{where}: expected 3 fields "
                                    f"layer,token_index,score, got {fields}")
            try:
                layer, idx = int(fields[0]), int(fields[1])
                score = float(fields[2])
            except ValueError as e:
                raise ContractError(f"{where}: {e}") from None
            entries = rows.setdefault(layer, {})
            if idx in entries:
                raise ContractError(
                    f"{where}: layer {layer} token {idx} appears twice")
            entries[idx] = score
    except csv.Error as e:
        raise ContractError(f"{path}:{reader.line_num}: {e}") from None
    if not rows:
        raise ContractError(f"{path}: no score rows")
    layers = sorted(rows)
    if layers != list(range(len(layers))):
        raise ContractError(f"{path}: layer indices not contiguous: {layers}")
    out = []
    for layer in layers:
        entries = rows[layer]
        idxs = sorted(entries)
        if idxs != list(range(len(idxs))):
            raise ContractError(
                f"{path}: token indices not contiguous in layer {layer}")
        out.append(np.array([entries[i] for i in idxs]))
    return out

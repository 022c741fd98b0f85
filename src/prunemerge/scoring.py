"""Token importance scoring from attention traces and activations.

Scores are accumulated over many training batches on a frozen model (the
scoring pass computes gradients but never updates weights), then averaged
by the iteration count.  The five attention-based variants differ only in
three choices, kept in ``ATTENTION_SCORES``: the operand (A * dL/dA,
dL/dA or A), the query rows read (all of them summed, or the class row)
and the batch reduction (sum or mean).  ``score_attention`` applies them.
Every variant reduces the batch inside the final absolute value.
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


def score_taylor_token(tokens: np.ndarray, grad_tokens: np.ndarray) -> np.ndarray:
    """Per-token first-order saliency: |(1/D) sum_d grad * activation|."""
    tokens = np.asarray(tokens)
    grad_tokens = np.asarray(grad_tokens)
    if tokens.shape != grad_tokens.shape:
        raise ShapeMismatchError(
            f"token/gradient shapes differ: {tokens.shape} vs {grad_tokens.shape}")
    d = tokens.shape[-1]
    per_token = (grad_tokens * tokens).sum(axis=-1) / d
    return np.abs(per_token.sum(axis=tuple(range(per_token.ndim - 1))))


# variant -> (operand, query rows, batch reduction).  Gradient operands
# are summed over the batch, since a mean-reduced loss already puts 1/B
# into dL/dA; attention alone is averaged.
ATTENTION_SCORES = {
    ScorerVariant.GRAD_WEIGHTED_AVG: ("grad*attn", "all", np.sum),
    ScorerVariant.GRAD_ONLY: ("grad", "all", np.sum),
    ScorerVariant.GRAD_CLASS_ATTN: ("grad*attn", "class", np.sum),
    ScorerVariant.ATTN_ONLY_AVG: ("attn", "all", np.mean),
    ScorerVariant.ATTN_ONLY_CLASS: ("attn", "class", np.mean),
}


def score_attention(variant: ScorerVariant, maps: np.ndarray,
                    grads: np.ndarray | None = None) -> np.ndarray:
    """Score of each key token under ``ATTENTION_SCORES[variant]``.

    Maps are query-major: entry [..., h, q, k] is how much query q
    attends to key k in head h.  Each key's operand column is summed
    over all queries or read at the class row (query 0), averaged over
    the heads, reduced over any leading batch axes, and taken absolute.
    """
    operand, rows, reduce_batch = ATTENTION_SCORES[variant]
    maps = np.asarray(maps)
    if operand != "attn":
        if grads is None:
            raise ContractError(
                "attention gradients are present only after a backward pass")
        grads = np.asarray(grads)
        if maps.shape != grads.shape:
            raise ShapeMismatchError(
                f"map/gradient shapes differ: {maps.shape} vs {grads.shape}")
        maps = grads if operand == "grad" else grads * maps
    per_key = maps[..., 0, :] if rows == "class" else maps.sum(axis=-2)
    per_key = per_key.mean(axis=-2)
    return np.abs(reduce_batch(per_key, axis=tuple(range(per_key.ndim - 1))))


def scores_from_trace(trace: AttentionTrace,
                      variant: ScorerVariant) -> np.ndarray:
    """Score one layer's trace with the selected rule.  Random scores
    read no trace: ``collect_scores`` draws them without a forward."""
    if variant is ScorerVariant.TAYLOR_TOKEN:
        if trace.tokens is None or trace.tokens.grad is None:
            raise ContractError("taylor_token scoring needs traced token "
                                "activations with gradients")
        return score_taylor_token(trace.tokens.data, trace.tokens.grad)
    if variant not in ATTENTION_SCORES:
        raise ContractError(f"{variant.value} scores have no trace rule")
    if trace.maps is None:
        raise ContractError("trace has no attention recorded yet")
    return score_attention(variant, trace.maps, trace.grads)


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
    gradient maps; no parameters are updated.  Only ``taylor_token``
    reads the traced block inputs; every other scorer drops them before
    backward, so none is kept or given a gradient.  Batches cycle through
    epochs deterministically.  Each layer keeps a running float64 sum,
    divided by the iteration count once at the end.  The random scorer
    reads no batch: each iteration draws one uniform vector per layer
    from ``default_rng(seed)``, in layer order.
    """
    if iterations < 1:
        raise ContractError("iterations must be >= 1")
    if batch_size < 1:
        raise ContractError("batch_size must be positive")
    n = model.config.num_tokens
    sums = [np.zeros(n) for _ in range(model.config.depth)]
    if variant is ScorerVariant.RANDOM:
        rng = np.random.default_rng(seed)
        for _ in range(iterations):
            for total in sums:
                total += rng.uniform(size=n)
        return [total / iterations for total in sums]
    params = [t for _, t in model.named_parameters()]
    done = 0
    epoch = 0
    while done < iterations:
        for images, labels in data_mod.batches(dataset, batch_size,
                                               seed=seed, epoch=epoch):
            traces: list[AttentionTrace] = []
            logits = model.forward(images, traces=traces)
            if variant is not ScorerVariant.TAYLOR_TOKEN:
                for trace in traces:
                    trace.tokens = None
            loss = T.cross_entropy(logits, labels)
            T.backward(loss)
            per_layer = [scores_from_trace(tr, variant) for tr in traces]
            T.zero_grads(params)
            for total, scores in zip(sums, per_layer):
                total += scores
            done += 1
            if done >= iterations:
                break
        epoch += 1
    return [total / iterations for total in sums]


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

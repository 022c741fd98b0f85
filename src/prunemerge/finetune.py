"""Training: baseline supervised training and compressed-model
fine-tuning with self-distillation against the frozen original model.

Both trainers run one loop, ``run_epochs``.  It owns the cosine rate,
zero_grad before the forward, the non-finite check, backward/step, the
metrics rows and per-epoch validation; a trainer gives it a per-batch
loss closure over batch indices.
``finetune`` adds the freeze epoch and the teacher logit cache around it.

The distillation objective is cross-entropy plus alpha times the KL term;
gradients reach the student only.  Merge/reconstruct matrices train as
independent parameters until ``freeze_epoch`` and are then frozen while
the block weights keep training.  Batch order depends only on (seed,
epoch), so a run replays bit-identically from the same inputs.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Dataset, batch_indices, batches
from .errors import (ConfigError, ContractError, NumericError,
                     ShapeMismatchError)
from .tensor import Tensor
from .vit import ModelConfig, VisionTransformer


@dataclass(frozen=True)
class DistillConfig:
    epochs: int
    freeze_epoch: int
    alpha: float = 0.4
    temperature: float = 1.0
    base_lr: float = 1e-4
    weight_decay: float = 1e-3
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be nonnegative, got {self.epochs}")
        if self.epochs > 0 and not 0 < self.freeze_epoch <= self.epochs:
            raise ConfigError(
                f"freeze_epoch must lie in (0, {self.epochs}], got "
                f"{self.freeze_epoch}")
        if not 0 <= self.alpha < math.inf:
            raise ConfigError(
                f"alpha must be nonnegative and finite, got {self.alpha}")
        if not 0 < self.temperature < math.inf:
            raise ConfigError(
                f"temperature must be positive and finite, got "
                f"{self.temperature}")
        _check_steps(self.base_lr, self.weight_decay, self.batch_size)


def _check_steps(base_lr: float, weight_decay: float,
                 batch_size: int) -> None:
    """The settings both trainers share.  NaN fails every comparison, so
    these refuse it too."""
    if not 0 < base_lr < math.inf:
        raise ConfigError(
            f"base_lr must be positive and finite, got {base_lr}")
    if not 0 <= weight_decay < math.inf:
        raise ConfigError(
            f"weight_decay must be nonnegative and finite, got "
            f"{weight_decay}")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")


def self_distill_loss(student_logits: Tensor, teacher_logits: Tensor,
                      labels: np.ndarray, alpha: float,
                      temperature: float = 1.0):
    """CE against labels plus alpha * KL(teacher || student).

    Returns (loss, ce, kl) so callers can log the parts; the teacher side
    never receives gradient.
    """
    ce = T.cross_entropy(student_logits, labels)
    kl = T.kl_divergence(student_logits, teacher_logits,
                         temperature=temperature)
    return ce + kl * alpha, ce, kl


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Cosine decay from base_lr to zero over total_steps."""
    if total_steps <= 0:
        return base_lr
    t = min(max(step, 0), total_steps) / total_steps
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * t))


# AdamW's moment decay rates and denominator guard.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Adaptive moments with decoupled weight decay, at the fixed rates
    ``BETA1`` and ``BETA2`` and guard ``EPS``.

    Decay applies to matrices only (ndim >= 2); biases and norm
    gains/offsets are exempt.  Parameters whose grad is None this step
    are skipped entirely — neither moments nor decay touch them — which
    is what keeps frozen merge matrices byte-stable.

    The optimizer adopts its parameters' storage: construction copies
    every parameter, values unchanged, into one flat float64 buffer,
    decayed parameters first, and makes each ``p.data`` a view of its
    slice.  An array that held a parameter's old data no longer sees its
    updates; read ``p.data`` again instead.  The moments are two flat
    buffers written at construction; ``m[name]`` and ``v[name]`` are views
    of them, and ``t[name]`` counts each parameter's steps.

    ``step`` updates the moments and the parameters in place, with the
    textbook expression's operations in its order, so the result is bit
    for bit that of ``p -= lr * m_hat / (sqrt(v_hat) + eps)``.  It runs
    one update per maximal run of adjacent parameters that have a grad and
    the same step count, chunk by chunk, so that every pass reads its
    chunk from cache: the grads of consecutive small parameters are
    gathered into one chunk-sized scratch array, and a parameter larger
    than a chunk is updated chunk by chunk from its own grad.  Nothing
    parameter-sized is allocated.  Once a step updates two whole chunks,
    the chunks past its middle element run on the engine's second lane,
    each half through its own scratch arrays; a chunk's arithmetic does
    not depend on the lane.
    """

    def __init__(self, named_params, weight_decay: float = 0.0):
        self.params: list[tuple[str, Tensor]] = list(named_params)
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise ContractError("duplicate parameter names")
        self.weight_decay = weight_decay
        total = sum(t.data.size for _, t in self.params)
        self._flat = np.empty(total)
        self._m, self._v = np.empty(total), np.empty(total)
        self._m.fill(0.0)
        self._v.fill(0.0)
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = {n: 0 for n, _ in self.params}
        # (name, tensor, offset) in buffer order: decayed parameters
        # first, so the decay set is the range [0, _decay_end).
        self._layout: list[tuple[str, Tensor, int]] = []
        self._decay_end = offset = 0
        for name, p in sorted(self.params, key=lambda item: item[1].ndim < 2):
            stop = offset + p.data.size
            view = self._flat[offset:stop].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self.m[name] = self._m[offset:stop].reshape(view.shape)
            self.v[name] = self._v[offset:stop].reshape(view.shape)
            self._layout.append((name, p, offset))
            if view.ndim >= 2:
                self._decay_end = stop
            offset = stop
        n = min(total, T._CHUNK)
        # One set of scratch arrays for each lane a step can use.
        self._scratch = [(np.empty(n), np.empty(n), np.empty(n))
                         for _ in range(1 + (total >= 2 * T._CHUNK))]

    def step(self, lr: float) -> None:
        runs = []              # [t, first offset, flat grads]
        run = None
        for name, p, offset in self._layout:
            g = p.grad
            if g is None:
                run = None
                continue
            if g.shape != p.data.shape:
                raise ShapeMismatchError(
                    f"grad of {name!r} is {g.shape}, parameter "
                    f"{p.data.shape}")
            t = self.t[name] = self.t[name] + 1
            if run is None or run[0] != t:
                run = [t, offset, []]
                runs.append(run)
            run[2].append(g.reshape(-1))
        chunks = [c for t, offset, grads in runs
                  for c in self._run_chunks(t, offset, grads)]
        # The second lane takes the chunks past the middle element, once
        # each half holds a whole chunk.
        ends = list(itertools.accumulate(c[3] for c in chunks))
        halves = bool(ends) and ends[-1] >= 2 * T._CHUNK
        cut = bisect.bisect_left(ends, ends[-1] / 2) + 1 if halves else 0
        # The lane's part, the one whose slice starts past 0, writes
        # through the second set of scratch arrays.
        T._halves(cut, halves, lambda s: self._update_chunks(
            chunks[s], lr, self._scratch[s.start is not None]))

    @staticmethod
    def _run_chunks(t: int, offset: int, grads):
        """The chunks of one run of adjacent parameters from ``offset`` on,
        as ``(t, offset, grads, size)``: runs of whole small grads, to be
        gathered into one chunk, and each chunk of a large grad alone."""
        group, size = [], 0
        for g in grads + [None]:
            if group and (g is None or size + g.size > T._CHUNK):
                yield t, offset, group, size
                offset += size
                group, size = [], 0
            if g is None:
                break
            if g.size > T._CHUNK:
                for start in range(0, g.size, T._CHUNK):
                    part = g[start:start + T._CHUNK]
                    yield t, offset + start, [part], part.size
                offset += g.size
            else:
                group.append(g)
                size += g.size

    def _update_chunks(self, chunks, lr: float, scratch) -> None:
        """Update each of ``chunks`` through one set of scratch arrays."""
        for t, offset, grads, size in chunks:
            g = grads[0] if len(grads) == 1 else np.concatenate(
                grads, out=scratch[2][:size])
            self._update_chunk(t, offset, g, lr, scratch)

    def _update_chunk(self, t: int, offset: int, g: np.ndarray, lr: float,
                      scratch) -> None:
        b1, b2 = BETA1, BETA2
        end = offset + g.size
        p, m, v = self._flat[offset:end], self._m[offset:end], \
            self._v[offset:end]
        a, b = scratch[0][:g.size], scratch[1][:g.size]
        # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
        m *= b1
        m += np.multiply(g, 1 - b1, out=a)
        v *= b2
        np.multiply(g, 1 - b2, out=a)
        a *= g
        v += a
        if self.weight_decay and offset < self._decay_end:
            d = min(end, self._decay_end) - offset
            p[:d] -= np.multiply(p[:d], lr * self.weight_decay, out=a[:d])
        # p -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
        np.divide(m, 1 - b1 ** t, out=a)
        a *= lr
        np.divide(v, 1 - b2 ** t, out=b)
        np.sqrt(b, out=b)
        b += EPS
        a /= b
        p -= a

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None


METRICS_HEADER = "epoch,step,loss,ce,kl,lr,val_acc"


def metrics_to_csv(rows: list[dict]) -> str:
    lines = [METRICS_HEADER]
    for row in rows:
        val = row.get("val_acc")
        lines.append(
            f"{row['epoch']},{row['step']},{row['loss']!r},{row['ce']!r},"
            f"{row['kl']!r},{row['lr']!r},"
            f"{'' if val is None else repr(val)}")
    return "\n".join(lines) + "\n"


def evaluate_accuracy(model, dataset: Dataset, batch_size: int = 64) -> float:
    """Top-1 accuracy of any object with .forward(images) -> logits.

    Runs under ``no_grad``: no graph is recorded and no gradient changes.
    A label the logits have no class for raises ContractError.
    """
    if len(dataset.labels) == 0:
        raise ContractError("cannot evaluate on an empty dataset")
    hits = 0
    for images, labels in batches(dataset, batch_size, seed=0, epoch=0,
                                  shuffle=False):
        with T.no_grad():
            logits = model.forward(images)
        T.check_labels(labels, logits.shape[-1])
        hits += int((np.argmax(logits.data, axis=1) == labels).sum())
    return hits / len(dataset.labels)


def teacher_logits_of(teacher, dataset: Dataset,
                      batch_size: int) -> np.ndarray:
    """The (n, num_classes) logits of ``teacher`` over ``dataset`` in
    stored order, from ``no_grad`` forwards of ``batch_size`` examples."""
    with T.no_grad():
        return np.concatenate([
            teacher.forward(
                dataset.batch(slice(start, start + batch_size))).data
            for start in range(0, len(dataset.labels), batch_size)])


def run_epochs(model, optimizer: AdamW, loss_of, n: int, batch_size: int,
               epochs: int, base_lr: float, seed: int,
               val_data: Dataset | None = None,
               begin_epoch=None) -> list[dict]:
    """The training loop of both trainers; returns the metrics rows.

    Runs ``epochs`` epochs of a cosine schedule over ``batch_indices(n,
    batch_size, seed=seed, epoch=e)``.  ``loss_of(idx)`` returns a batch's
    loss tensor and the floats logged as ce and kl.  A non-finite loss
    raises NumericError before any step is taken on it.  Each step drops
    the previous step's gradients before its forward runs, and its
    backward frees what the graph saved, so a forward never runs beside
    either.  The last step's gradients stay on the parameters.
    ``begin_epoch(epoch)`` runs before each epoch, validation on
    ``val_data`` after it.
    """
    total_steps = epochs * max(1, math.ceil(n / batch_size))
    metrics: list[dict] = []
    step = 0
    for epoch in range(epochs):
        if begin_epoch is not None:
            begin_epoch(epoch)
        for idx in batch_indices(n, batch_size, seed=seed, epoch=epoch):
            lr = cosine_lr(step, total_steps, base_lr)
            optimizer.zero_grad()
            loss, ce, kl = loss_of(idx)
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise NumericError(
                    f"non-finite loss {loss_val} at epoch {epoch} "
                    f"step {step}")
            T.backward(loss)
            optimizer.step(lr)
            step += 1
            metrics.append({"epoch": epoch, "step": step,
                            "loss": loss_val, "ce": ce, "kl": kl, "lr": lr,
                            "val_acc": None})
            # Backward freed what the graph saved; this frees its nodes.
            del loss
        if val_data is not None and metrics:
            metrics[-1]["val_acc"] = evaluate_accuracy(model, val_data)
    return metrics


def finetune(model, teacher: VisionTransformer, train_data: Dataset,
             config: DistillConfig, val_data: Dataset | None = None):
    """Distillation fine-tuning of a compressed model.

    Returns (model, metrics_rows, optimizer); the AdamW optimizer holds
    the moments and step counts the run ended with.  ``model`` is any
    object exposing forward / named_parameters / set_matrices_trainable
    (in practice a CompressedModel).  A non-finite loss raises
    NumericError.

    The teacher is frozen and batches are not augmented, so its logits
    are the same in every epoch: each call that trains computes them once,
    ``teacher_logits_of`` over ``train_data`` in ``config.batch_size``
    chunks, and each step reads its batch's rows.  The cache holds
    n x num_classes float64.  Rows equal per-batch teacher forwards bit for
    bit where BLAS gives a row the same bits in any full batch; where n is
    no multiple of the batch size, rows forwarded in the short chunk or the
    short shuffled batch may differ by a few ulps (3 at most at the
    acceptance shape).
    """
    for _, p in teacher.named_parameters():
        if p.requires_grad:
            raise ContractError("teacher parameters must be frozen")

    optimizer = AdamW(model.named_parameters(),
                      weight_decay=config.weight_decay)
    if config.epochs > 0:
        cached = teacher_logits_of(teacher, train_data, config.batch_size)

    def loss_of(idx):
        loss, ce, kl = self_distill_loss(
            model.forward(train_data.batch(idx)), Tensor(cached[idx]),
            train_data.labels[idx], alpha=config.alpha,
            temperature=config.temperature)
        return loss, float(ce.data), float(kl.data)

    metrics = run_epochs(
        model, optimizer, loss_of, len(train_data.labels),
        config.batch_size, config.epochs, config.base_lr, config.seed,
        val_data=val_data,
        begin_epoch=lambda epoch: model.set_matrices_trainable(
            epoch < config.freeze_epoch))
    return model, metrics, optimizer


def train_baseline(config: ModelConfig, train_data: Dataset, epochs: int,
                   base_lr: float = 1e-3, weight_decay: float = 1e-3,
                   batch_size: int = 32, seed: int = 0,
                   val_data: Dataset | None = None):
    """Plain cross-entropy training of the uncompressed model."""
    if epochs < 0:
        raise ConfigError(f"epochs must be nonnegative, got {epochs}")
    _check_steps(base_lr, weight_decay, batch_size)
    model = VisionTransformer.build(config, seed=seed)
    optimizer = AdamW(model.named_parameters(), weight_decay=weight_decay)

    def loss_of(idx):
        loss = T.cross_entropy(model.forward(train_data.batch(idx)),
                               train_data.labels[idx])
        return loss, float(loss.data), 0.0

    metrics = run_epochs(model, optimizer, loss_of, len(train_data.labels),
                         batch_size, epochs, base_lr, seed, val_data=val_data)
    return model, metrics

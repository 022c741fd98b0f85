"""Training loops: baseline supervised training and compressed-model
fine-tuning with self-distillation against the frozen original model.

The distillation objective is cross-entropy plus alpha times the KL term;
gradients reach the student only.  Merge/reconstruct matrices train as
independent parameters until ``freeze_epoch`` and are then frozen while
the block weights keep training.  Batch order depends only on (seed,
epoch), so a run interrupted at an epoch boundary resumes bit-identically
from a saved TrainState.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import Dataset, batches
from .errors import ConfigError, ContractError, NumericError
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
        if self.alpha < 0:
            raise ConfigError(f"alpha must be nonnegative, got {self.alpha}")
        if self.temperature <= 0:
            raise ConfigError(
                f"temperature must be positive, got {self.temperature}")
        if self.base_lr <= 0 or self.batch_size < 1:
            raise ConfigError("base_lr must be positive and batch_size >= 1")


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


def cosine_lr(step: int, total_steps: int, base_lr: float,
              min_lr: float = 0.0) -> float:
    """Cosine decay from base_lr to min_lr over total_steps."""
    if total_steps <= 0:
        return base_lr
    t = min(max(step, 0), total_steps) / total_steps
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + math.cos(math.pi * t))


class AdamW:
    """Adaptive moments with decoupled weight decay.

    Decay applies to matrices only (ndim >= 2); biases and norm
    gains/offsets are exempt.  Parameters whose grad is None this step
    are skipped entirely — neither moments nor decay touch them — which
    is what keeps frozen merge matrices byte-stable.

    ``step`` updates the moments and the parameters in place, with the
    textbook expression's operations in its order, so the result is bit
    for bit that of ``p -= lr * m_hat / (sqrt(v_hat) + eps)``.  Its
    temporaries are two views of one scratch buffer sized for the largest
    parameter.
    """

    def __init__(self, named_params, weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params: list[tuple[str, Tensor]] = list(named_params)
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise ContractError("duplicate parameter names")
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {n: np.zeros_like(t.data) for n, t in self.params}
        self.v = {n: np.zeros_like(t.data) for n, t in self.params}
        self.t = {n: 0 for n, _ in self.params}
        largest = max((t.data.size for _, t in self.params), default=0)
        self._scratch = np.empty(2 * largest)

    def step(self, lr: float) -> None:
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            self.t[name] += 1
            t = self.t[name]
            m, v = self.m[name], self.v[name]
            a = self._scratch[:g.size].reshape(g.shape)
            b = self._scratch[g.size:2 * g.size].reshape(g.shape)
            # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
            m *= b1
            m += np.multiply(g, 1 - b1, out=a)
            v *= b2
            np.multiply(g, 1 - b2, out=a)
            a *= g
            v += a
            if self.weight_decay and p.data.ndim >= 2:
                p.data -= np.multiply(p.data, lr * self.weight_decay, out=a)
            # p -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
            np.divide(m, 1 - b1 ** t, out=a)
            a *= lr
            np.divide(v, 1 - b2 ** t, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p.data -= a

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name, _ in self.params:
            out[f"opt.m.{name}"] = self.m[name].copy()
            out[f"opt.v.{name}"] = self.v[name].copy()
            out[f"opt.t.{name}"] = np.array(self.t[name], dtype=np.int64)
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, p in self.params:
            try:
                m = arrays[f"opt.m.{name}"]
                v = arrays[f"opt.v.{name}"]
                t = arrays[f"opt.t.{name}"]
            except KeyError as e:
                raise ContractError(f"optimizer state missing {e}") from None
            if m.shape != p.data.shape or v.shape != p.data.shape:
                raise ContractError(
                    f"optimizer state shape mismatch for {name!r}")
            self.m[name] = np.asarray(m, dtype=np.float64).copy()
            self.v[name] = np.asarray(v, dtype=np.float64).copy()
            self.t[name] = int(t)


@dataclass
class TrainState:
    """Epoch-boundary snapshot sufficient for bit-identical resumption."""

    epoch: int                       # next epoch to run
    step: int                        # global steps completed
    seed: int
    loss_sum: float = 0.0
    loss_count: int = 0
    optimizer: dict[str, np.ndarray] = field(default_factory=dict)

    def to_arrays(self) -> dict[str, np.ndarray]:
        out = {
            "state.epoch": np.array(self.epoch, dtype=np.int64),
            "state.step": np.array(self.step, dtype=np.int64),
            "state.seed": np.array(self.seed, dtype=np.int64),
            "state.loss_sum": np.array(self.loss_sum, dtype=np.float64),
            "state.loss_count": np.array(self.loss_count, dtype=np.int64),
        }
        out.update(self.optimizer)
        return out

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "TrainState":
        try:
            state = cls(epoch=int(arrays["state.epoch"]),
                        step=int(arrays["state.step"]),
                        seed=int(arrays["state.seed"]),
                        loss_sum=float(arrays["state.loss_sum"]),
                        loss_count=int(arrays["state.loss_count"]))
        except KeyError as e:
            raise ContractError(f"train state missing {e}") from None
        state.optimizer = {k: v for k, v in arrays.items()
                           if k.startswith("opt.")}
        return state


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
    """
    if len(dataset.labels) == 0:
        raise ContractError("cannot evaluate on an empty dataset")
    hits = 0
    for images, labels in batches(dataset, batch_size, seed=0, epoch=0,
                                  shuffle=False):
        with T.no_grad():
            logits = model.forward(images)
        hits += int((np.argmax(logits.data, axis=1) == labels).sum())
    return hits / len(dataset.labels)


def _dump_state(state: TrainState, path) -> None:
    from .checkpoint import save_arrays
    save_arrays(path, state.to_arrays())


def finetune(model, teacher: VisionTransformer, train_data: Dataset,
             config: DistillConfig, val_data: Dataset | None = None,
             resume: TrainState | None = None,
             state_dump_path=None, stop_after: int | None = None):
    """Distillation fine-tuning of a compressed model.

    Returns (model, metrics_rows, final_state).  ``model`` is any object
    exposing forward / named_parameters / set_matrices_trainable (in
    practice a CompressedModel).  A non-finite loss aborts with
    NumericError after dumping TrainState to ``state_dump_path``.

    ``stop_after`` interrupts the run after that many total epochs while
    the LR schedule keeps the full config.epochs horizon; continuing via
    ``resume`` with the same config reproduces the uninterrupted run
    bit-for-bit.
    """
    for _, p in teacher.named_parameters():
        if p.requires_grad:
            raise ContractError("teacher parameters must be frozen")

    optimizer = AdamW(model.named_parameters(),
                      weight_decay=config.weight_decay)
    state = resume or TrainState(epoch=0, step=0, seed=config.seed)
    if resume is not None:
        if resume.seed != config.seed:
            raise ContractError(
                f"resume seed {resume.seed} != config seed {config.seed}")
        optimizer.load_state_arrays(resume.optimizer)

    steps_per_epoch = max(1, math.ceil(len(train_data.labels)
                                       / config.batch_size))
    total_steps = config.epochs * steps_per_epoch
    metrics: list[dict] = []
    last_epoch = config.epochs if stop_after is None \
        else min(stop_after, config.epochs)

    for epoch in range(state.epoch, last_epoch):
        model.set_matrices_trainable(epoch < config.freeze_epoch)
        for images, labels in batches(train_data, config.batch_size,
                                      seed=config.seed, epoch=epoch):
            lr = cosine_lr(state.step, total_steps, config.base_lr)
            teacher_logits = teacher.forward(images)
            student_logits = model.forward(images)
            loss, ce, kl = self_distill_loss(
                student_logits, teacher_logits, labels,
                alpha=config.alpha, temperature=config.temperature)
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                if state_dump_path is not None:
                    state.optimizer = optimizer.state_arrays()
                    _dump_state(state, state_dump_path)
                raise NumericError(
                    f"non-finite loss {loss_val} at epoch {epoch} "
                    f"step {state.step}")
            optimizer.zero_grad()
            T.backward(loss)
            optimizer.step(lr)
            state.step += 1
            state.loss_sum += loss_val
            state.loss_count += 1
            metrics.append({"epoch": epoch, "step": state.step,
                            "loss": loss_val, "ce": float(ce.data),
                            "kl": float(kl.data), "lr": lr,
                            "val_acc": None})
            # Free this step's graph before the next step's forwards run.
            del teacher_logits, student_logits, loss, ce, kl
        if val_data is not None and metrics:
            metrics[-1]["val_acc"] = evaluate_accuracy(model, val_data)
        state.epoch = epoch + 1

    state.optimizer = optimizer.state_arrays()
    return model, metrics, state


def train_baseline(config: ModelConfig, train_data: Dataset, epochs: int,
                   base_lr: float = 1e-3, weight_decay: float = 1e-3,
                   batch_size: int = 32, seed: int = 0,
                   val_data: Dataset | None = None):
    """Plain cross-entropy training of the uncompressed model."""
    if epochs < 0:
        raise ConfigError(f"epochs must be nonnegative, got {epochs}")
    model = VisionTransformer.build(config, seed=seed)
    optimizer = AdamW(model.named_parameters(), weight_decay=weight_decay)
    steps_per_epoch = max(1, math.ceil(len(train_data.labels) / batch_size))
    total_steps = epochs * steps_per_epoch
    metrics: list[dict] = []
    step = 0
    for epoch in range(epochs):
        for images, labels in batches(train_data, batch_size,
                                      seed=seed, epoch=epoch):
            lr = cosine_lr(step, total_steps, base_lr)
            loss = T.cross_entropy(model.forward(images), labels)
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise NumericError(
                    f"non-finite loss {loss_val} at epoch {epoch} step {step}")
            optimizer.zero_grad()
            T.backward(loss)
            optimizer.step(lr)
            step += 1
            metrics.append({"epoch": epoch, "step": step, "loss": loss_val,
                            "ce": loss_val, "kl": 0.0, "lr": lr,
                            "val_acc": None})
        if val_data is not None and metrics:
            metrics[-1]["val_acc"] = evaluate_accuracy(model, val_data)
    return model, metrics

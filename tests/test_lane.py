"""The engine's second lane: every output is bit for bit the same with the
lane on and off, work below the hand-off threshold stays on one lane,
the caller's context reaches the lane, errors wait for both halves, and
a one-CPU process starts no thread."""

import functools
import os
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from prunemerge import tensor as T
from prunemerge.compression import compress_model, global_plan
from prunemerge.data import Dataset
from prunemerge.errors import NumericError
from prunemerge.finetune import AdamW, self_distill_loss
from prunemerge.scoring import collect_scores
from prunemerge.vit import VisionTransformer

import identity
from helpers import fresh_lane


def _models(tag):
    """The base model, a learnable compressed model, images and labels at
    one of the identity harness's shapes."""
    config, batch = identity.SHAPES[tag]
    rng = np.random.default_rng(41)
    images = rng.uniform(0.0, 1.0, (batch, config.channels,
                                    config.image_size, config.image_size))
    labels = rng.integers(0, config.num_classes, batch)
    base = VisionTransformer.build(config, seed=5)
    scores = [rng.uniform(0.1, 1.0, config.num_tokens)
              for _ in range(config.depth)]
    plan = global_plan(scores, 0.7, 0.1)
    return base, compress_model(base, plan, learnable_matrices=True), \
        images, labels


def _outputs(tag):
    """Every array the lane could touch at ``tag``: recorded logits and
    gradients of both models, a traced scoring batch, a no_grad forward
    and the state after two AdamW steps of a distillation loss."""
    base, student, images, labels = _models(tag)
    out = {}
    for name, model in (("base", base), ("student", student)):
        T.zero_grads(p for _, p in model.named_parameters())
        logits = model.forward(images)
        T.backward(T.cross_entropy(logits, labels))
        out[f"{name}.logits"] = logits.data
        for pname, p in model.named_parameters():
            out[f"{name}.grad.{pname}"] = p.grad.copy()
    scores = collect_scores(base, Dataset(images, labels, base.config
                                          .num_classes),
                            iterations=1, batch_size=len(labels))
    out.update({f"scores.{i}": s for i, s in enumerate(scores)})
    with T.no_grad():
        out["no_grad.logits"] = student.forward(images).data
    teacher = base.frozen_copy()
    optimizer = AdamW(student.named_parameters(), weight_decay=0.05)
    for _ in range(2):
        optimizer.zero_grad()
        T.backward(self_distill_loss(student.forward(images),
                                     teacher.forward(images), labels,
                                     alpha=0.5)[0])
        optimizer.step(1e-2)
    for pname, p in student.named_parameters():
        out[f"adamw.param.{pname}"] = p.data.copy()
        out[f"adamw.m.{pname}"] = optimizer.m[pname].copy()
        out[f"adamw.v.{pname}"] = optimizer.v[pname].copy()
    return out


def _on_and_off(tag):
    """The outputs at ``tag`` with the lane on, how many tasks it ran,
    and the outputs with the lane forced off."""
    with fresh_lane(2):
        before = T._lane_tasks
        on = _outputs(tag)
        tasks = T._lane_tasks - before
    with fresh_lane(1):
        off = _outputs(tag)
    return on, tasks, off


@pytest.mark.parametrize("tag", ["wide", "acc"])
def test_outputs_are_bit_identical_with_the_lane_on_and_off(tag):
    on, tasks, off = _on_and_off(tag)
    assert sorted(on) == sorted(off)
    different = [name for name in on
                 if on[name].tobytes() != off[name].tobytes()]
    assert different == []
    # The wide shape hands work to the lane; every op at the acceptance
    # shape stays below the threshold.
    assert (tasks > 0) == (tag == "wide")


def test_a_non_finite_input_raises_after_both_halves(monkeypatch):
    # Batch 2 of 128 tokens at width 64, one head: each half's maps and
    # context hold 2**21 multiply-adds, above the least the lane takes.
    rng = np.random.default_rng(42)
    q, k, v = (rng.normal(size=(2, 128, 64)) for _ in range(3))
    w_o = T.Tensor(np.eye(64))
    softmax, finished = T._softmax, []

    def slow_softmax(x, scale, out=None):
        try:
            return softmax(x, scale, out=out)
        finally:
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)
            finished.append(threading.current_thread().name)

    monkeypatch.setattr(T, "_softmax", slow_softmax)
    with fresh_lane(2):
        for row in (0, 1):              # the caller's half, the lane's
            bad = q.copy()
            bad[row, 3, 5] = np.nan
            finished.clear()
            with pytest.raises(NumericError, match="non-finite"):
                T.attention(T.Tensor(bad), T.Tensor(k), T.Tensor(v), w_o,
                            1, 0.125)
            assert sorted(finished) == ["MainThread", "prunemerge-lane"]


def test_the_callers_context_reaches_the_lane():
    def on_lane():
        assert threading.current_thread().name == "prunemerge-lane"
        return T._RECORDING.get(), np.sqrt(np.array(-1.0))

    with fresh_lane(2):
        with T.no_grad(), np.errstate(invalid="ignore"):
            _, (recording, root) = T._both(lambda: None, on_lane)
        assert recording is False and np.isnan(root)
        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError):
                T._both(lambda: None, on_lane)


def test_the_lane_keeps_no_array_of_a_finished_task():
    # The lane waits for its next task holding nothing of the last one,
    # so a task's arrays die with the caller's references.
    with fresh_lane(2):
        x = np.ones(8)
        ref = weakref.ref(x)
        T._both(lambda: None, functools.partial(np.sum, x))
        del x
        assert ref() is None


def _lane_threads():
    return {t for t in threading.enumerate() if t.name == "prunemerge-lane"}


def test_one_cpu_starts_no_thread():
    threads = _lane_threads()
    with fresh_lane(1):
        tasks = T._lane_tasks
        assert T._both(lambda: 1, lambda: 2) == (1, 2)
        assert T._LANE == {"inbox": None}
        assert _lane_threads() == threads and T._lane_tasks == tasks
    with fresh_lane(2):
        assert T._both(lambda: 1, lambda: 2) == (1, 2)
        assert len(_lane_threads() - threads) == 1
        assert T._lane_tasks == tasks + 1


def test_a_forked_child_starts_its_own_lane():
    # The child inherits the parent's lane state but not its thread; a
    # hand-off to the inherited queue would wait forever.
    with fresh_lane(2):
        T._both(lambda: None, lambda: None)
        with warnings.catch_warnings():
            # Python 3.12 warns that fork in a threaded process may
            # deadlock; this child runs the engine's code only.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                if T._both(lambda: 1, lambda: 2) == (1, 2) \
                        and T._LANE["inbox"] is not None:
                    code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 10.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0

"""The engine's second lane: every output is bit for bit the same with the
lane on and off, work below the hand-off threshold stays on one lane,
a weight product's row halves and a weight gradient's output-row halves
keep the whole GEMM's bits, each split hands off one task from its
threshold on, work reached while the lane holds a task runs whole, the
caller's context reaches the lane, errors wait for both halves, and a
one-CPU process starts no thread."""

import functools
import os
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from prunemerge import tensor as T
from prunemerge.errors import NumericError
from prunemerge.finetune import AdamW

import identity
from helpers import fresh_lane, lane_models, on_and_off


@pytest.mark.parametrize("tag", ["wide", "acc"])
def test_outputs_are_bit_identical_with_the_lane_on_and_off(tag):
    on, tasks, off = on_and_off(*identity.SHAPES[tag])
    assert sorted(on) == sorted(off)
    different = [name for name in on
                 if on[name].tobytes() != off[name].tobytes()]
    assert different == []
    # The wide shape hands work to the lane; every op at the acceptance
    # shape stays below the threshold.
    assert (tasks > 0) == (tag == "wide")


def _split_table(count, seed=43):
    """``count`` folded products (B, T, K) @ (K, E), B * T odd, with K
    and E drawn from DeiT widths and each row half at least 2**20
    multiply-adds: the least a half must hold, up to half as much
    again, and at least two rows."""
    rng = np.random.default_rng(seed)
    widths = [48, 96, 192, 384, 768]
    table = []
    for _ in range(count):
        k, e = rng.choice(widths, 2)
        least = -(-T._LANE_MACS // (k * e))            # rows per half
        half = least + int(rng.integers(0, least // 2 + 1))
        batch = int(rng.choice([1, 3, 5]))
        tokens = max(3, -(-(2 * half + 1) // batch)) | 1   # odd, > 1
        table.append((rng.normal(size=(batch, tokens, k)),
                      rng.normal(size=(k, e))))
    return table


def test_row_halves_above_the_cut_keep_the_whole_products_bits():
    # A BLAS build whose kernels round a row block of a GEMM above the
    # cut differently from the whole fails here, not in a changed bit
    # somewhere downstream.
    table = _split_table(100)
    on, tasks = [], []
    with fresh_lane(2):
        for a, b in table:
            before = T._lane_tasks
            on.append(T._matmul_data(a, b))
            tasks.append(T._lane_tasks - before)
    with fresh_lane(1):
        off = [T._matmul_data(a, b) for a, b in table]
    assert tasks == [1] * len(table)
    different = [(a.shape, b.shape) for (a, b), x, y in zip(table, on, off)
                 if x.tobytes() != y.tobytes()]
    assert different == []


@pytest.mark.parametrize("rows, k, e, tasks", [
    # At K=64, E=128 a half of 128 rows holds exactly 2**20 multiply-adds.
    (255, 64, 128, 0), (256, 64, 128, 1), (257, 64, 128, 1),
    # A width that is not a multiple of 16 runs whole.
    (1025, 64, 120, 0), (1025, 64, 100, 0),
    # So does a product whose half would be a single row.
    (3, 1024, 1024, 0), (4, 1024, 1024, 1)])
def test_a_product_splits_only_where_its_halves_keep_their_bits(rows, k, e,
                                                                tasks):
    rng = np.random.default_rng(44)
    a, b = rng.normal(size=(1, rows, k)), rng.normal(size=(k, e))
    with fresh_lane(2):
        before = T._lane_tasks
        out = T._matmul_data(a, b)
        assert T._lane_tasks - before == tasks
    assert out.tobytes() == np.matmul(a[0], b).tobytes()


def _gradient_table(count, seed=47):
    """``count`` weight gradients aᵀ @ g of (B, T, K) and (B, T, E)
    operands, B * T odd, with K and E drawn from DeiT widths and each
    half of the K output rows at least 2**20 multiply-adds."""
    rng = np.random.default_rng(seed)
    widths = [48, 96, 192, 384, 768]
    table = []
    for _ in range(count):
        k, e = rng.choice(widths, 2)
        least = -(-T._LANE_MACS // (k // 2 * e))     # contracted rows
        rows = least + int(rng.integers(0, least // 2 + 1))
        batch = int(rng.choice([1, 3, 5]))
        tokens = max(3, -(-rows // batch)) | 1
        table.append((rng.normal(size=(batch, tokens, k)),
                      rng.normal(size=(batch, tokens, e))))
    return table


def test_weight_gradient_halves_keep_the_whole_products_bits():
    # The w1 gradient of ``mlp`` and the weight gradient of ``embed``
    # are this product; its halves cut the output rows.
    table = _gradient_table(60)
    on, tasks = [], []
    with fresh_lane(2):
        for a, g in table:
            before = T._lane_tasks
            on.append(T._matmul_grad_b(a, g, a.shape, (a.shape[-1],
                                                       g.shape[-1])))
            tasks.append(T._lane_tasks - before)
    with fresh_lane(1):
        off = [T._matmul_grad_b(a, g, a.shape, (a.shape[-1], g.shape[-1]))
               for a, g in table]
    assert tasks == [1] * len(table)
    different = [(a.shape, g.shape) for (a, g), x, y in zip(table, on, off)
                 if x.tobytes() != y.tobytes()]
    assert different == []


# Each new split as a function of its size: operands at DeiT widths
# (D=192, 4D=768, 768-pixel patches), seeded, and a thunk that runs only
# the split work and returns its outputs.  ``n`` counts rows: normalised
# rows for layer norm, contracted rows for the weight gradients.

def _layer_norm_operands(n, rng):
    return (T.Tensor(rng.normal(size=(1, n, 192)), requires_grad=True),
            T.Tensor(rng.normal(size=192), requires_grad=True),
            T.Tensor(rng.normal(size=192), requires_grad=True))


def _layer_norm_forward(n, rng):
    x, gamma, beta = _layer_norm_operands(n, rng)

    def run():
        with T.no_grad():
            return [T.layer_norm(x, gamma, beta).data]
    return run


def _layer_norm_backward(n, rng):
    out = T.layer_norm(*_layer_norm_operands(n, rng))
    g = rng.normal(size=out.shape)
    return lambda: list(out._node.grad_fn(g))


def _w1_gradient(n, rng):
    h, ga = rng.normal(size=(1, n, 192)), rng.normal(size=(1, n, 768))
    return lambda: [T._matmul_grad_b(h, ga, h.shape, (192, 768))]


def _embed_gradient(n, rng):
    d = 192
    w, b, cls, pos = (T.Tensor(rng.normal(size=s), requires_grad=True)
                      for s in [(768, d), (d,), (1, d), (n + 1, d)])
    out = T.embed(rng.normal(size=(1, n, 768)), w, b, cls, pos)
    g = rng.normal(size=out.shape)
    return lambda: list(out._node.grad_fn(g))


# (site, least size that splits): a layer-norm half holds a chunk from
# 342 rows of 192 on; a weight-gradient half holds 2**20 multiply-adds
# from 15 contracted rows on (96 * 15 * 768 and 384 * 15 * 192).
NEW_SPLITS = [(_layer_norm_forward, 342), (_layer_norm_backward, 342),
              (_w1_gradient, 15), (_embed_gradient, 15)]


def _tasks_of(run):
    before = T._lane_tasks
    out = run()
    return T._lane_tasks - before, out


@pytest.mark.parametrize("site, least", NEW_SPLITS,
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_each_new_split_keeps_its_bits_and_hands_off_one_task(site, least):
    for n, tasks in ((least - 1, 0), (least, 1), (2 * least + 1, 1)):
        with fresh_lane(2):
            counted, on = _tasks_of(site(n, np.random.default_rng(n)))
            assert counted == tasks, n
            # Reached while the lane holds a task, the work runs whole.
            run = site(n, np.random.default_rng(n))
            busy, _ = _tasks_of(lambda: T._both(run, lambda: None))
            assert busy == 1, n
        with fresh_lane(1):
            off = site(n, np.random.default_rng(n))()
        assert [x.tobytes() for x in on] == [x.tobytes() for x in off], n


def _gelu_site(n, rng):
    x = rng.normal(size=n)
    return lambda: T._gelu_halves(x, y=np.empty(n))


def _attention_site(n, rng):
    # Batch 2 of n tokens at width 64, one head: the halves take maps and
    # context of 2 n**2 (64 + 64) multiply-adds, twice the least; the
    # output product's halves stay below it.
    q, k, v = (T.Tensor(rng.normal(size=(2, n, 64))) for _ in range(3))
    w_o = T.Tensor(rng.normal(size=(64, 64)))
    return lambda: T.attention(q, k, v, w_o, 1, 0.125)


def _adamw_site(n, rng):
    p = T.Tensor(rng.normal(size=n), requires_grad=True)
    optimizer = AdamW([("p", p)])
    p.grad = rng.normal(size=n)
    return lambda: optimizer.step(1e-2)


@pytest.mark.parametrize("site, least", [
    (_gelu_site, 2 * T._CHUNK), (_attention_site, 91),
    (_adamw_site, 2 * T._CHUNK)],
    ids=lambda v: getattr(v, "__name__", str(v)))
def test_the_halved_sites_hand_off_one_task_from_their_threshold(site,
                                                                 least):
    for n, tasks in ((least - 1, 0), (least, 1)):
        with fresh_lane(2):
            counted, _ = _tasks_of(site(n, np.random.default_rng(n)))
            assert counted == tasks, n


def _within(seconds, fn):
    """``fn()`` run on a helper thread; fails, rather than hangs, if it
    does not return within ``seconds``."""
    box = []
    thread = threading.Thread(target=lambda: box.append(fn()), daemon=True)
    thread.start()
    thread.join(seconds)
    assert box, f"no result within {seconds} s"
    return box[0]


def test_a_product_reached_while_the_lane_holds_a_task_runs_whole(
        monkeypatch):
    # Each side of the pair reaches a product whose halves the lane
    # would take: both run whole, so the pair hands off one task, and
    # the lane's product does not hand a half to itself.
    rng = np.random.default_rng(45)
    a, b = rng.normal(size=(3, 171, 96)), rng.normal(size=(96, 96))
    c, d = rng.normal(size=(1, 33, 768)), rng.normal(size=(768, 384))
    serial = T._matmul_data(a, b), T._matmul_data(c, d)
    matmul, calls = np.matmul, []

    def spy(x, y, *args, **kwargs):
        calls.append((threading.current_thread().name, x.shape))
        return matmul(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    with fresh_lane(2):
        before = T._lane_tasks
        pair = _within(10.0, lambda: T._both(lambda: T._matmul_data(a, b),
                                             lambda: T._matmul_data(c, d)))
        assert T._lane_tasks - before == 1
    assert sorted((name == "prunemerge-lane", shape)
                  for name, shape in calls) == [(False, (513, 96)),
                                                (True, (33, 768))]
    assert [x.tobytes() for x in pair] == [x.tobytes() for x in serial]


def test_callers_on_several_threads_share_the_lane(monkeypatch):
    # Four threads reach a lane not yet started and hand off at once,
    # with a short switch interval: one lane starts (fresh_lane stops
    # it, and fails on a second), each pair gets both results, each
    # product keeps its bits, and the task count matches the tasks that
    # ran on the lane.
    rng = np.random.default_rng(46)
    a, b = rng.normal(size=(3, 171, 96)), rng.normal(size=(96, 96))
    serial = T._matmul_data(a, b).tobytes()
    matmul, on_lane, wrong = np.matmul, [], []

    def on(what):
        if threading.current_thread().name == "prunemerge-lane":
            on_lane.append(what)

    def spy(*args, **kwargs):
        on("half")
        return matmul(*args, **kwargs)

    def caller(t):
        for i in range(50):
            if T._both(lambda: t, lambda: on("pair") or i) != (t, i) \
                    or T._matmul_data(a, b).tobytes() != serial:
                wrong.append((t, i))

    monkeypatch.setattr(np, "matmul", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with fresh_lane(2):
            before = T._lane_tasks
            threads = [threading.Thread(target=caller, args=(t,))
                       for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
                assert not thread.is_alive()
            tasks = T._lane_tasks - before
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert tasks == len(on_lane) and "pair" in on_lane


def test_a_no_grad_forward_splits_products_at_the_wide_shape_only(
        monkeypatch):
    free, splits = T._lane_free, []

    def counted():
        splits.append(free())
        return splits[-1]

    monkeypatch.setattr(T, "_lane_free", counted)
    handed = {}
    for tag in ("wide", "acc"):
        base, student, images, _ = lane_models(*identity.SHAPES[tag])
        splits.clear()
        with fresh_lane(2), T.no_grad():
            base.forward(images)
            student.forward(images)
        handed[tag] = sum(splits)
    assert handed["wide"] > 0 and handed["acc"] == 0


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

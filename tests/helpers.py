"""Shared test utilities: finite-difference gradient checking, the dense
pseudoinverse and merge-map render the oracles compare against, the
shape ops and loss reducer no program path runs, composed attention, MLP
and embedding, the list of the functions of one or more modules that a
run never calls, a second lane decided anew for a given CPU count, the
outputs the lane could touch with it on and forced off, a reader for
the pixmaps ``visualize`` writes, and a path made fresh for each example
a fuzz test writes."""

import contextlib
import inspect
import os
import sys
import threading

import numpy as np

from prunemerge import tensor as T
from prunemerge.compression import compress_model, global_plan, pseudoinverse
from prunemerge.data import Dataset
from prunemerge.errors import ContractError
from prunemerge.finetune import AdamW, self_distill_loss
from prunemerge.scoring import collect_scores
from prunemerge.visualize import _patches_to_grid
from prunemerge.vit import VisionTransformer, extract_patches


def dense_pinv(merge) -> np.ndarray:
    """The dense (n, kept) pseudoinverse of a merge matrix, derived from
    the vector ``pseudoinverse`` returns."""
    return merge.recon_matrix(pseudoinverse(merge))


def fresh(path):
    """``path`` with any file there unlinked, for a test that writes the
    same path once per example.  ext4 flushes a file that is truncated and
    rewritten when it is closed (its replace-via-truncate heuristic): on a
    2-core ext4 host such a rewrite took 46-60 ms, a new file 8-16 us."""
    path.unlink(missing_ok=True)
    return path


def read_ppm(path) -> np.ndarray:
    """The (H, W, 3) uint8 pixels of a binary P6 file as
    ``visualize.write_ppm`` writes it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P6" or parts[2] != b"255":
        raise ContractError(f"{path}: not a binary P6 pixmap")
    w, h = (int(v) for v in parts[1].split())
    pixels = np.frombuffer(parts[3][:h * w * 3], dtype=np.uint8)
    if pixels.size != h * w * 3:
        raise ContractError(f"{path}: truncated pixel payload")
    return pixels.reshape(h, w, 3)


def dense_render_merge_map(image, entry, config):
    """``visualize.render_merge_map`` from the dense M and R, one patch at
    a time: the reference its grouped kernels must match byte for byte."""
    patches = extract_patches(image[None], config)[0]
    n = config.num_tokens
    merged = np.empty_like(patches)
    gid = entry.merge.gid
    m = entry.merge.data
    for j in range(1, n):
        if entry.mask[j] == 0:
            merged[j - 1] = 1.0
            continue
        weights = m[gid[j]][1:]
        total = weights.sum()
        if total <= 0:
            merged[j - 1] = patches[j - 1]
            continue
        merged[j - 1] = (weights / total) @ patches
    z = np.vstack([np.zeros((1, patches.shape[1])), patches])
    round_trip = entry.reconstruct @ (m @ z)
    return (_patches_to_grid(merged, config),
            _patches_to_grid(round_trip[1:], config))


def numeric_grad(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar-valued ``f`` w.r.t. array ``x``.

    ``f`` takes no arguments and must recompute its value from ``x``'s
    current contents, which are perturbed in place one element at a time.
    """
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + step
        hi = f()
        flat_x[i] = orig - step
        lo = f()
        flat_x[i] = orig
        flat_g[i] = (hi - lo) / (2.0 * step)
    return grad


def assert_grads_close(analytic: np.ndarray, numeric: np.ndarray,
                       rel: float = 1e-4, abs_floor: float = 1e-8) -> None:
    """Assert elementwise relative agreement between gradient estimates."""
    analytic = np.asarray(analytic)
    assert analytic.shape == numeric.shape, (
        f"gradient shape mismatch: {analytic.shape} vs {numeric.shape}")
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    bad = err > rel * denom + abs_floor
    assert not bad.any(), (
        f"{bad.sum()} of {bad.size} gradient entries disagree; "
        f"worst abs err {err.max():.3e}, worst rel "
        f"{(err / np.maximum(denom, 1e-300)).max():.3e}")


def reshape(x, shape: tuple[int, ...]):
    """``x.data.reshape(shape)`` as a graph node."""
    x_shape = x.shape

    def grad_fn(g):
        return (g.reshape(x_shape),)

    return T.from_op(x.data.reshape(shape), (x,), grad_fn, "reshape")


def transpose(x, axes: tuple[int, ...]):
    """``x.data.transpose(axes)`` as a graph node."""
    inverse = tuple(np.argsort(axes))

    def grad_fn(g):
        return (g.transpose(inverse),)

    return T.from_op(x.data.transpose(axes), (x,), grad_fn, "transpose")


def concat(tensors, axis: int):
    """``np.concatenate`` of the tensors' data along ``axis`` as a graph
    node."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def grad_fn(g):
        slicer = [slice(None)] * g.ndim
        outs = []
        for i in range(len(offsets) - 1):
            slicer[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            outs.append(g[tuple(slicer)])
        return tuple(outs)

    return T.from_op(data, tuple(tensors), grad_fn, "concat")


def broadcast_to(x, shape: tuple[int, ...]):
    """``np.broadcast_to(x.data, shape)``, copied, as a graph node."""
    x_shape = x.shape

    def grad_fn(g):
        return (T._unbroadcast(g, x_shape),)

    return T.from_op(np.broadcast_to(x.data, shape).copy(), (x,), grad_fn,
                     "broadcast_to")


def tensor_sum(x):
    """The sum of every element of ``x`` as a graph node: the tests' loss
    reducer."""
    x_shape = x.shape

    def grad_fn(g):
        return (np.broadcast_to(g, x_shape).copy(),)

    return T.from_op(np.asarray(x.data.sum()), (x,), grad_fn, "sum")


def swap_last2(x):
    axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    return transpose(x, axes)


def _record(attn, sink):
    """Identity on ``attn`` that stores its data in ``sink.maps`` and whose
    backward adds the gradient reaching it to ``sink.grads``."""
    sink.maps, sink.grads = attn.data, None

    def grad_fn(g):
        sink.grads = g.copy() if sink.grads is None else sink.grads + g
        return (g,)

    return T.from_op(attn.data, (attn,), grad_fn, "record")


def _split_heads(x, heads: int):
    """(..., T, D) -> (..., heads, T, D/heads) from reshape and transpose
    nodes."""
    shape = x.shape[:-1] + (heads, x.shape[-1] // heads)
    axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2, x.ndim)
    return transpose(reshape(x, shape), axes)


def _merge_heads(x):
    """Inverse of ``_split_heads``."""
    axes = tuple(range(x.ndim - 3)) + (x.ndim - 2, x.ndim - 3, x.ndim - 1)
    x = transpose(x, axes)
    return reshape(x, x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def composed_attention(q, k, v, w_o, heads: int, scale: float, sink=None,
                       bump=None):
    """The attention and output projection ``tensor.attention`` fuses,
    from its primitive ops: the reference for its output, its gradients
    and what it writes to ``sink``."""
    q, k, v = (_split_heads(t, heads) for t in (q, k, v))
    attn = T.softmax_rows(T.matmul(q, swap_last2(k)), scale)
    if sink is not None:
        attn = _record(attn, sink)
    if bump is not None:
        attn = attn + T.Tensor(bump)
    return T.matmul(_merge_heads(T.matmul(attn, v)), w_o)


def composed_mlp(h, w1, w2):
    """The MLP ``tensor.mlp`` fuses, from its primitive ops: the reference
    for its output and its gradients."""
    return T.matmul(T.gelu(T.matmul(h, w1)), w2)


def composed_embed(patches, w, b, cls, pos):
    """The token embedding ``tensor.embed`` fuses, from its primitive ops:
    the reference for its output and its gradients."""
    tok = T.matmul(T.Tensor(patches), w) + b
    cls = broadcast_to(cls, patches.shape[:-2] + cls.shape)
    return concat([cls, tok], axis=-2) + pos


def uncalled(modules, run) -> set[str]:
    """Qualified names of the functions, methods, property getters and
    cached properties that the source of ``modules`` (one module or a
    list of them) defines and that never ran while ``run()`` did, as
    ``sys.setprofile`` sees calls.  A name from a list of modules starts
    with its module's last dotted part, as in ``finetune.AdamW.step``."""
    several = isinstance(modules, (list, tuple))
    code = {}
    for module in modules if several else [modules]:
        prefix = module.__name__.rpartition(".")[2] + "." if several else ""
        members = list(vars(module).items())
        for cname, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                members += [(f"{cname}.{attr}", m)
                            for attr, m in vars(cls).items()]
        for name, m in members:
            for attr in ("fget", "func", "__func__"):
                m = getattr(m, attr, m)
            fn = inspect.unwrap(m)
            if inspect.isfunction(fn) \
                    and fn.__code__.co_filename == module.__file__:
                code[prefix + name] = fn.__code__
    called = set()

    def hook(frame, event, arg):
        called.add(frame.f_code)

    # ``sys.setprofile`` hooks the calling thread only: the engine's
    # second lane takes the hook as a task if it runs already, and at its
    # start if the run starts it.
    _on_lane(lambda: sys.setprofile(hook))
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        _on_lane(lambda: sys.setprofile(None))
    return {name for name, c in code.items() if c not in called}


def _on_lane(task) -> None:
    """Run ``task`` on the engine's second lane, if its thread runs."""
    if T._LANE.get("inbox") is not None:
        T._both(lambda: None, task)


@contextlib.contextmanager
def fresh_lane(cpus: int):
    """The body runs with the engine's second lane decided anew, as in a
    process whose affinity allows ``cpus`` CPUs; on exit the lane's
    thread, if the body started one, stops, and the former lane returns.
    ``fresh_lane(1)`` forces the lane off."""
    saved_lane, saved_affinity = dict(T._LANE), os.sched_getaffinity
    threads = set(threading.enumerate())
    T._LANE.clear()
    os.sched_getaffinity = lambda pid: set(range(cpus))
    try:
        yield
    finally:
        os.sched_getaffinity = saved_affinity
        inbox = T._LANE.get("inbox")
        T._LANE.clear()
        T._LANE.update(saved_lane)
        if inbox is not None:
            inbox.put(None)
            for thread in set(threading.enumerate()) - threads:
                if thread.name == "prunemerge-lane":
                    thread.join(timeout=10.0)
                    assert not thread.is_alive()


def lane_models(config, batch):
    """The base model, a learnable compressed model, images and labels of
    ``batch`` at ``config``, all seeded."""
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


def lane_outputs(config, batch):
    """Every array the lane could touch: recorded logits and gradients of
    both models, a traced scoring batch, a no_grad forward and the state
    after two AdamW steps of a distillation loss."""
    base, student, images, labels = lane_models(config, batch)
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


def on_and_off(config, batch):
    """``lane_outputs`` with the lane on, how many tasks it ran, and the
    outputs with the lane forced off."""
    with fresh_lane(2):
        before = T._lane_tasks
        on = lane_outputs(config, batch)
        tasks = T._lane_tasks - before
    with fresh_lane(1):
        off = lane_outputs(config, batch)
    return on, tasks, off

"""Float64 tensors with reverse-mode automatic differentiation.

The module holds only the ops the model, the compression kernels and the
losses run.  ``softmax_rows`` and ``gelu``, the unfused forms of two
fused ops, stay because ``perfbench/spans.py`` wraps them by name.
``from_op`` builds any other node.

Every differentiable operation records a node holding one edge per input
and a closure that maps the output gradient to input gradients.
``backward`` topologically sorts the nodes reaching the loss and replays
them once in reverse.  Gradient flow inside a single replay uses fresh
buffers; the results are then *accumulated* into the ``grad`` of every
leaf and of every intermediate tensor the caller still holds, so separate
forward/backward rounds add up until ``zero_grad`` is called.  A leaf
whose ``grad`` is None takes the replay's own array where nothing else
can reach it: the array owns its C-contiguous, writeable data and went
to no other leaf.  Any other first gradient is copied, as is every
held intermediate's (its node's closure still reads the array), so no
two ``grad`` arrays share storage and a parameter's gradient is held
once, not twice.

Graph lifetime: a tensor owns its node, and a node owns its edges (the
input's node, the input itself when it is a leaf that requires grad, or
None for a constant) plus the arrays its closure saved.  A node refers to
its output only weakly and to no intermediate tensor at all, so a graph
keeps exactly what backward reads: an intermediate array nothing saved
dies as soon as the caller drops its tensor.  The graph is a tree of
strong references rooted at its newest tensors, and reference counting
frees it the moment the last tensor that reaches it is dropped -- no
garbage-collector pass is needed.  ``backward`` frees it sooner: the
replay drops each node's closure and recipe once it has run the node,
so a held loss keeps only the nodes' names and edges.  A graph therefore
takes one backward; a second raises ContractError, and the forward must
run again.

Fused ops trade a little backward arithmetic for graph memory: where an
intermediate is a cheap function of arrays the graph keeps anyway, one
node saves only those arrays and backward recomputes the intermediate
with the forward's own kernel, so the result is bit-identical.
``attention`` recomputes the softmax maps from q, k and v, and from the
maps the context its output projection's gradient reads; ``mlp``
recomputes its hidden layer ``h @ w1`` from ``h`` and gelu's output from
the hidden layer.  A layer-norm output is never saved: its node keeps a
recipe (``_Affine``), the ``xhat`` it saves anyway plus the gain and
offset, and a ``matmul`` or ``mlp`` that would save the output, or a row
slice of it, saves the recipe and rebuilds the array in backward.  A
weight product of such an output keeps a recipe too (``_Product``, one
GEMM deep), so ``attention`` saves no q, k or v array: a recorded block
keeps its two ``xhat`` arrays and its output.  A norm recipe builds its
array once per backward and hands it to every reader.  ``embed`` saves
no patch rows either: given a recipe of them (``vit.patchify`` passes
the caller's images and the patch geometry), it saves the recipe and
its backward cuts the rows again.  A rebuilt array reads the current
parameter data and images, as matmul's saved weight already does, so
change neither between a forward and its backward.

Inference mode: inside ``with no_grad():`` operations record no node and
their outputs never require grad, so a forward pass keeps no graph and no
saved activations.  Parameters keep ``requires_grad``; only recording
stops.  The previous mode returns on exit, also after an exception.

Two lanes: a second thread, started on first use where the process may
run on two CPUs, runs one part of some work while the caller runs the
other (``_both``).  The parts are whole, independent products --
``matmul``'s two gradients, ``mlp``'s fc1 recompute and ``g @ w2ᵀ``,
then its ``w2`` and input gradients, ``attention``'s ``W_o`` gradient
and ``g @ W_oᵀ``, its v gradient and score gradient, its q and k
gradients -- or the two halves of one piece of work (``_halves``): the
row halves of a forward weight product (``_matmul_data``, which
attention's backward also runs to rebuild q, k and v), the output row
halves of a weight gradient that runs alone (``_matmul_grad_b``, such
as ``mlp``'s w1 and ``embed``'s weight gradient), layer norm's rows in
both directions, GELU passes split at a chunk boundary, attention
maps, softmax and context per half of the leading batch axis (q, k and
v share their lead axes; ``attention`` refuses any other), and the
halves of an AdamW step's chunks.  A GEMM is split only where each half
holds two rows and at least ``_LANE_MACS`` multiply-adds, above
OpenBLAS's small-matrix cut, and the output width is a multiple of
``_SPLIT_WIDTH``, and it is cut at a multiple of 8 rows: there a row
block keeps the whole product's bits on every OpenBLAS kernel checked
(``_gemm``).  No reduction across rows is split (layer norm's gain
and offset gradients run whole beside a half), so every bit is the
serial code's.  Work goes to the lane only above ``_LANE_MACS``
multiply-adds, or a whole chunk per half, and only while the lane holds
no other task: every op at the acceptance shape stays on one lane, and
the ``wide`` shape of ``tests/identity.py`` uses both.  A task runs in a
copy of the caller's context, so ``no_grad`` and ``np.errstate`` reach
it.

Allocator: the first forward (``vit.model_forward``) keeps large arrays
on glibc's heap and freed memory in the process
(``_allocator_defaults``); importing the package changes nothing.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import threading
import weakref
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeMismatchError

Array = np.ndarray

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
# Added to each row's variance before ``layer_norm`` divides by its root.
_LN_EPS = 1e-6

# Whether ``from_op`` records graph nodes; see ``no_grad``.
_RECORDING = contextvars.ContextVar("prunemerge_recording", default=True)

# ----------------------------------------------------------------------
# the second lane
# ----------------------------------------------------------------------

# The least work a task must hold to be handed to the second lane, in
# multiply-adds.  A round trip through the idle lane (queue, wake-up,
# lock) took about 11 us on a 2-core host, and 2**20 multiply-adds of a
# float64 GEMM about 20-25 us on one of its cores.  Elementwise work goes
# to the lane in whole chunks (``_CHUNK``), far above this cost.
_LANE_MACS = 1 << 20
# A GEMM is cut into halves of its output rows only where its output
# width E is a multiple of this.  On OpenBLAS's SkylakeX dgemm a row cut
# changed the bits of the last E mod 8 output columns in 283 of 500
# random products with E = 4 mod 8, and of none of 1,500 with E a
# multiple of 8; 16, the kernel's unroll along E, keeps a margin.  With
# the 8-row cut and one BLAS thread, of 206 random products with E from
# 4 to 1,000, SkylakeX changed 121 plain products, each at an E that is
# no multiple of 8, and no aᵀ @ g product; Haswell, Sandybridge, Nehalem
# and Katmai (which Zen, Atom, Barcelona, Core2 and Prescott load)
# changed none either way.  So the rule is SkylakeX's own.
_SPLIT_WIDTH = 16

# The lane's state: ``"inbox"``, its queue, once its thread runs, or None
# where the process may use one CPU only, and ``"busy"``, a lock held
# while the lane holds a task.  Empty until first use, and emptied in a
# forked child, which inherits no thread.
_LANE: dict = {}
os.register_at_fork(after_in_child=_LANE.clear)
# Tasks handed to the lane since import.
_lane_tasks = 0

# glibc's ``mallopt`` parameter numbers: the count of malloc arenas, the
# least request served by its own mmap, and the free memory at the heap's
# top above which glibc returns it to the system.
_M_ARENA_MAX, _M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD = -8, -3, -1
# Whether ``_allocator_defaults`` ran in this process (or its parent).
_allocator_set = False


def _mallopt(param: int, value: int) -> bool:
    """glibc's ``mallopt(param, value)`` for this process's allocator;
    returns whether it took effect.  Nothing happens on another libc."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return False
    if not glibc.startswith("glibc"):
        return False
    import ctypes
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), \
        ctypes.c_int
    return mallopt(param, value) == 1


def _allocator_defaults() -> None:
    """Serve requests up to 32 MB from the heap and keep up to 1 GB of
    freed memory there, once per process.  By default glibc unmaps a large
    array when it is freed and trims the heap's free top, so every forward
    faults its buffers in afresh: a steady-state compressed DeiT-tiny
    ``no_grad`` forward at batch 8 took 43 k minor faults and 117-132 ms,
    against none and 87-102 ms with these settings (2 cores, one BLAS
    thread), at a peak within 0.7 % of the default's."""
    global _allocator_set
    if not _allocator_set:
        _allocator_set = True
        _mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        _mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _lane():
    """The second lane's inbox, its thread started on first use; None
    where the process may run on one CPU only.

    The lane allocates from the caller's malloc arena: by default glibc
    gives a new thread an arena of its own, whose freed memory the
    caller cannot reuse."""
    try:
        return _LANE["inbox"]
    except KeyError:
        pass
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    inbox = None
    if cpus >= 2:
        import queue
        _mallopt(_M_ARENA_MAX, 1)
        inbox = queue.SimpleQueue()
        _LANE.setdefault("busy", threading.Lock())
    # Of threads that reach this at once, the one whose inbox is stored
    # first starts the lane, and all use that inbox.
    if _LANE.setdefault("inbox", inbox) is inbox and inbox is not None:
        threading.Thread(target=_serve, args=(inbox,), daemon=True,
                         name="prunemerge-lane").start()
    return _LANE["inbox"]


def _serve(inbox) -> None:
    """The lane's loop: run each task in the context it was handed off
    from, keep its result or exception, and release its lock; a None task
    ends the loop.  The loop drops a task before it waits for the next,
    so no array a task reached outlives it."""
    while (task := inbox.get()) is not None:
        context, g, done, box = task
        try:
            box.append((True, context.run(g)))
        except BaseException as exc:      # re-raised by the caller
            box.append((False, exc))
        del task, context, g, box
        done.release()


def _lane_free() -> bool:
    """Whether a lane can run and holds no task, so that ``_both`` would
    hand its next task to it."""
    return _lane() is not None and not _LANE["busy"].locked()


def _both(f, g, worth: bool = True):
    """``(f(), g())``, with ``g`` run on the second lane while the caller
    runs ``f`` when ``worth`` and the lane is free; else both here, in
    order.

    It waits for both, then raises the caller's exception, or else the
    lane's.  ``g`` runs in a copy of the caller's context, so
    ``np.errstate`` and ``no_grad`` reach it.  The lane moves a kernel to
    another core, never changes one: its tasks are whole products, row
    halves of a GEMM where a half keeps the whole's bits (see ``_gemm``)
    or disjoint slices of row-wise or elementwise work, so every bit is
    the serial code's.  The lane holds one task at a time, and a
    ``_both`` reached while it holds one -- from ``f``, from ``g`` on
    the lane, or from another thread -- runs here: a pair never waits
    behind its own half, and a lane task never hands work to itself."""
    global _lane_tasks
    inbox = _lane() if worth else None
    if inbox is None or not (busy := _LANE["busy"]).acquire(blocking=False):
        return f(), g()
    try:
        _lane_tasks += 1
        done, box = threading.Lock(), []
        done.acquire()
        inbox.put((contextvars.copy_context(), g, done, box))
        try:
            a = f()
        finally:
            done.acquire()
    finally:
        busy.release()
    ok, b = box[0]
    if not ok:
        raise b
    return a, b


def _halves(cut: int, worth: bool, part):
    """``part(slice(None, cut))`` here and ``part(slice(cut, None))`` on
    the lane when ``worth`` and the lane is free, else ``part(slice(None))``
    here; returns the parts' results, the second None for the whole.  The
    caller's part is the one whose slice has no start.  A site cuts only
    where the parts give the whole's bits."""
    if worth and _lane_free():
        return _both(lambda: part(slice(None, cut)),
                     lambda: part(slice(cut, None)))
    return part(slice(None)), None


def _gemm(a: Array, b: Array, out: Array | None = None) -> Array:
    """``np.matmul(a, b, out=out)`` for 2-D operands, as two blocks of
    the output rows, one per lane, where each block holds two rows and
    ``_LANE_MACS`` multiply-adds and the output width is a multiple of
    ``_SPLIT_WIDTH``.  The cut falls at a multiple of 8 rows, half the
    rows rounded down to 8.  Cut so, a block kept the whole product's
    bits, plain and with a transposed left operand, under each kernel
    ``OPENBLAS_CORETYPE`` selected: SkylakeX, Haswell, Zen, Sandybridge,
    Nehalem, Core2, Prescott, Atom and Barcelona.  A cut at half the
    rows changed most products' bits under Haswell and Nehalem."""
    cut = len(a) // 16 * 8
    if cut < 2 or cut * b.size < _LANE_MACS or b.shape[1] % _SPLIT_WIDTH:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((len(a), b.shape[1]))
    _halves(cut, True, lambda s: np.matmul(a[s], b, out=out[s]))
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = np.add.reduce(grad, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = np.add.reduce(grad, axis=axes, keepdims=True)
    return grad


class _OpNode:
    """One recorded operation.  ``inputs`` holds one edge per input: the
    input's node, the input itself when it is a grad-requiring leaf, or
    None for a constant.  ``output`` is a weak reference, so the node does
    not keep its own output (and with it the graph) alive.  ``rebuild``,
    when set, is a recipe that remakes the output's array from arrays the
    graph keeps anyway: an ``_Affine`` for a layer-norm output or a row
    slice of one, a ``_Product`` for a weight product of either.  A
    consumer saves it in place of the array (see ``_saved``).  A replay
    sets ``grad_fn`` and ``rebuild`` to None, which marks the node
    consumed."""

    __slots__ = ("inputs", "output", "grad_fn", "name", "rebuild")

    def __init__(self, inputs, output, grad_fn, name):
        self.inputs = inputs
        self.output = weakref.ref(output)
        self.grad_fn = grad_fn
        self.name = name
        self.rebuild: _Affine | _Product | None = None


class _Affine:
    """``xhat * gamma + beta``, a layer-norm output, kept as its parts:
    ``xhat``, which the layer-norm node saves anyway, and the gain and
    offset, which are parameter data.

    ``array()`` builds the output at most once and hands that one array
    to every consumer, so a norm output read by several backward closures
    (the q, k and v products and attention's rebuilds of them) is built
    once per backward.  No consumer may write into it.  The array dies
    with the recipe, when the replay releases the last node that holds
    it."""

    __slots__ = ("xhat", "gamma", "beta", "built")

    def __init__(self, xhat: Array, gamma: Array, beta: Array):
        self.xhat, self.gamma, self.beta = xhat, gamma, beta
        self.built: Array | None = None

    def array(self, out: Array | None = None) -> Array:
        """The forward's kernel, so a rebuilt array is bit for bit the
        forward's; written into ``out`` when given, else built once and
        shared."""
        if out is None and self.built is not None:
            return self.built
        y = np.multiply(self.xhat, self.gamma, out=out)
        y += self.beta
        if out is None:
            self.built = y
        return y

    def rows(self, key) -> "_Affine":
        """The recipe of ``array()[key]``, from views of the parts: a
        slice rebuilds only its own elements and pins no new array."""
        shape = self.xhat.shape
        return _Affine(self.xhat[key], np.broadcast_to(self.gamma, shape)[key],
                       np.broadcast_to(self.beta, shape)[key])


class _Product:
    """``a @ b``, a weight product whose input has an ``_Affine`` recipe
    ``a``, kept as that recipe and the weight's data: one GEMM away from
    what the graph keeps anyway, so a recipe is never deeper than that."""

    __slots__ = ("a", "b")

    def __init__(self, a: _Affine, b: Array):
        self.a, self.b = a, b

    def array(self) -> Array:
        """A new array from the forward's kernel on the rebuilt input, so
        it is bit for bit the forward's."""
        return _matmul_data(self.a.array(), self.b)


def _saved(t: Tensor) -> Array | _Affine | _Product:
    """What a node saves to read ``t.data`` in backward: the recipe that
    ``t``'s node rebuilds it from, if it has one, else the array."""
    node = t._node
    return t.data if node is None or node.rebuild is None else node.rebuild


def _restored(saved) -> Array:
    """The array ``_saved`` stood for, or that any recipe with an
    ``array()`` method builds.  A norm recipe's array is shared with the
    recipe's other consumers: read it, never write into it."""
    return saved if isinstance(saved, np.ndarray) else saved.array()


class Tensor:
    """A float64 array plus an optional gradient and graph linkage."""

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._node: _OpNode | None = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- gradient bookkeeping -------------------------------------------
    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: Array) -> None:
        """Add ``g`` into ``grad``: a copy of ``g`` when ``grad`` is None,
        else a new sum, so ``g`` stays the caller's.  Only a leaf's fold
        in ``Tape.replay_backward`` hands its array over without a copy."""
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad = self.grad + g

    # -- operator sugar --------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __getitem__(self, key):
        return take(self, key)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _edge(t: Tensor):
    """What a node keeps of input ``t``: see ``_OpNode``."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


def from_op(data: Array, inputs: Sequence[Tensor],
            grad_fn: Callable[[Array], Sequence[Array | None]],
            name: str) -> Tensor:
    """Build an op output, recording a graph node if any input needs grad.

    ``grad_fn`` receives the output gradient and returns one gradient (or
    None) per input, each already shaped like the matching input.  This is
    the extension hook other modules use to define custom operations.
    ``grad_fn`` must close over the arrays (and shapes) it reads, never
    over an input ``Tensor``: the node keeps its closure alive until
    backward has run it, so a captured tensor would keep that tensor's
    data alive as long.  Returning None for an input that needs no grad
    spares computing its gradient (see ``mul``).  A closure may recompute an
    intermediate from the arrays it saved instead of saving the
    intermediate itself (see ``attention``); run the forward's kernel on
    the same arrays and the recomputation is exact.  Return fresh arrays,
    views or the output gradient itself, never an array kept elsewhere: a
    leaf may keep a returned array as its ``grad`` (see
    ``Tape.replay_backward``).  Under ``no_grad`` nothing is recorded and
    the output needs no grad.
    """
    out = Tensor(data)
    if _RECORDING.get():
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                out._node = _OpNode(tuple([_edge(t) for t in inputs]), out,
                                    grad_fn, name)
                break
    return out


@contextlib.contextmanager
def no_grad():
    """Run the body without recording graph nodes (inference mode)."""
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


class Tape:
    """Topologically ordered op nodes reaching one root tensor."""

    def __init__(self, nodes: list[_OpNode]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        # Iterative DFS postorder (so deep graphs cannot hit the recursion
        # limit), emulating recursion exactly: a node is appended only when
        # its child iterator is exhausted.  A "seen" child that is not yet
        # finished would be an ancestor on the current path, impossible in
        # an acyclic graph, so skipping seen children preserves the
        # topological guarantee even with shared subgraphs (residuals).
        nodes: list[_OpNode] = []
        if root._node is None:
            return cls(nodes)
        # Nodes hash by identity; an edge that is no node (a leaf or None)
        # is skipped.
        seen = {root._node}
        stack = [(root._node, iter(root._node.inputs))]
        while stack:
            node, it = stack[-1]
            for child in it:
                if type(child) is _OpNode and child not in seen:
                    seen.add(child)
                    stack.append((child, iter(child.inputs)))
                    break
            else:
                nodes.append(node)
                stack.pop()
        return cls(nodes)

    def replay_backward(self, root: Tensor, seed: Array) -> None:
        """Propagate ``seed`` from ``root`` through the tape exactly once,
        and release every node: its ``grad_fn`` and ``rebuild`` become
        None as soon as the replay has run the node, or when the replay
        ends for a node it never reached, so what the forward saved dies
        with the replay, not with the graph.  A tape holding a released
        node is refused before anything changes.

        ``flow`` is keyed by edge: by node for intermediates, by tensor for
        leaves.  An intermediate output receives ``grad`` only while the
        caller still holds it; a dropped one could never be read.  A leaf
        without a ``grad`` takes its replay array itself where that array
        owns C-contiguous, writeable data no other leaf took; every other
        fold copies or adds.
        """
        if any(node.grad_fn is None for node in self.nodes):
            raise ContractError(
                "the graph was consumed by an earlier backward; run the "
                "forward again")
        if root._node is None:
            return
        flow: dict[object, Array] = {root._node: seed}
        try:
            for node in reversed(self.nodes):
                out_grad = flow.pop(node, None)
                if out_grad is None:
                    continue
                output = node.output()
                if output is not None and output is not root:
                    output.accumulate_grad(out_grad)
                grads = node.grad_fn(out_grad)
                node.grad_fn = node.rebuild = None
                for e, g in zip(node.inputs, grads):
                    if g is None or e is None:
                        continue
                    if e in flow:
                        flow[e] = flow[e] + g
                    else:
                        flow[e] = g
        finally:
            for node in self.nodes:
                node.grad_fn = node.rebuild = None
        # Anything left in ``flow`` belongs to graph leaves (parameters,
        # traced inputs): fold it into their persistent grads.
        taken = set()
        for leaf, g in flow.items():
            if not leaf.requires_grad:
                continue
            flags = g.flags
            if leaf.grad is None and id(g) not in taken and flags.owndata \
                    and flags.writeable and flags.c_contiguous:
                leaf.grad = g
                taken.add(id(g))
            else:
                leaf.accumulate_grad(g)


def backward(loss: Tensor) -> Tape:
    """Populate ``grad`` on every requires_grad tensor reaching ``loss``,
    and free what the graph's nodes saved.

    A graph takes one backward: a second call through it raises
    ContractError and changes no ``grad``; run the forward again.  Rounds
    of forward and backward accumulate; callers zero grads between steps.
    Returns the tape, whose ``nodes`` are the nodes the replay walked,
    each once, still linked to their inputs and named.
    """
    if loss.data.size != 1:
        raise ContractError(
            f"backward requires a scalar loss, got shape {loss.shape}")
    tape = Tape.trace(loss)
    seed = np.ones_like(loss.data)
    tape.replay_backward(loss, seed)
    loss.accumulate_grad(seed)
    return tape


def zero_grads(tensors) -> None:
    for t in tensors:
        t.zero_grad()


# ----------------------------------------------------------------------
# primitive operations
# ----------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    a_shape, b_shape = a.shape, b.shape

    def grad_fn(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return from_op(data, (a, b), grad_fn, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product.  Each operand's array is saved only when the
    other operand requires grad; a constant operand gets no gradient."""
    data = a.data * b.data
    a_shape, b_shape = a.shape, b.shape
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def grad_fn(g):
        return (None if bd is None else _unbroadcast(g * bd, a_shape),
                None if ad is None else _unbroadcast(g * ad, b_shape))

    return from_op(data, (a, b), grad_fn, "mul")


def _check_matmul(a_shape: tuple[int, ...], b_shape: tuple[int, ...]) -> None:
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise ShapeMismatchError(
            f"matmul operands must be at least 2-D, got {a_shape} and {b_shape}")
    if a_shape[-1] != b_shape[-2]:
        raise ShapeMismatchError(
            f"matmul inner dimensions differ: {a_shape} @ {b_shape}")


def _matmul_grad_a(g: Array, bd: Array, a_shape) -> Array:
    """dL/da of ``a @ b`` for output gradient ``g``."""
    return _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), a_shape)


def _matmul_grad_b(ad: Array, g: Array, a_shape, b_shape) -> Array:
    """dL/db of ``a @ b`` for output gradient ``g``."""
    if len(b_shape) == 2 and len(a_shape) > 2:
        # A batch of rows times one weight matrix: fold the batch into the
        # contraction, one GEMM instead of a batched one plus a sum.
        return _gemm(ad.reshape(-1, a_shape[-1]).T,
                     g.reshape(-1, g.shape[-1]))
    return _unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), b_shape)


def _matmul_data(a: Array, b: Array) -> Array:
    """``np.matmul(a, b)``, the forward of every weight product.

    A batch of multi-row operands times one matrix runs as one GEMM over
    all rows, written into an array the result owns.  When the lane is
    free and ``_gemm``'s rule allows a cut, the two row blocks run as two
    GEMMs, one per lane, into the one output; a product run as one side
    of a ``_both`` pair, or on the lane, runs whole.  Such a row block
    gets the bits it gets in the whole.  A block can differ below
    OpenBLAS's small-matrix cut (10**6 multiply-adds, under
    ``_LANE_MACS``), as a single row, which runs as a GEMV, in the last
    columns of a width that is not a multiple of 8, or, on some kernels,
    where the cut is no multiple of 8 rows.  Single-row operands stay
    batched: folding those turns B GEMVs into one GEMM, which changes
    bits.
    """
    if b.ndim == 2 and a.ndim > 2 and a.shape[-2] > 1:
        out = np.empty(a.shape[:-1] + b.shape[-1:])
        _gemm(a.reshape(-1, a.shape[-1]), b, out.reshape(-1, b.shape[-1]))
        return out
    return np.matmul(a, b)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b``.  Where ``a`` is a layer-norm output or a row slice of
    one, the node's ``rebuild`` is a ``_Product`` of ``a``'s recipe and
    ``b``'s data, so a consumer such as ``attention`` saves that recipe
    instead of the output."""
    _check_matmul(a.shape, b.shape)
    data = _matmul_data(a.data, b.data)
    a_shape, b_shape = a.shape, b.shape
    # As in ``mul``: save an operand only for the other operand's gradient.
    ad = _saved(a) if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    pair = ad is not None and bd is not None \
        and data.size * a_shape[-1] >= _LANE_MACS

    def grad_fn(g):
        return _both(
            lambda: None if bd is None else _matmul_grad_a(g, bd, a_shape),
            lambda: None if ad is None else _matmul_grad_b(
                _restored(ad), g, a_shape, b_shape), pair)

    out = from_op(data, (a, b), grad_fn, "matmul")
    if out._node is not None and a._node is not None \
            and type(a._node.rebuild) is _Affine:
        out._node.rebuild = _Product(a._node.rebuild, b.data)
    return out


def _is_basic_key(key) -> bool:
    if isinstance(key, tuple):
        return all(_is_basic_key(k) for k in key)
    return isinstance(key, (int, np.integer, slice)) or key is Ellipsis or key is None


def take(x: Tensor, key) -> Tensor:
    """Basic (non-fancy) indexing; gradient scatters into a zero tensor."""
    if not _is_basic_key(key):
        raise ContractError("take supports basic indexing only (int/slice/ellipsis)")
    data = x.data[key]
    x_shape = x.shape

    def grad_fn(g):
        full = np.zeros(x_shape)
        full[key] = g
        return (full,)

    out = from_op(data, (x,), grad_fn, "take")
    # Only a norm output's slice is a recipe: a row of a product would
    # rebuild as a GEMV, whose bits differ from the GEMM's.
    if out._node is not None and x._node is not None \
            and type(x._node.rebuild) is _Affine:
        out._node.rebuild = x._node.rebuild.rows(key)
    return out


def embed(patches, w: Tensor, b: Tensor, cls: Tensor,
          pos: Tensor) -> Tensor:
    """``concat(cls, patches @ w + b) + pos``, the (..., P + 1, D) tokens
    of (..., P, patch_dim) pixel patches, as one node that runs the
    composed ops' kernels in their order and reduces the same slices of
    the output gradient: bit for bit their results.

    ``patches`` is the array or a recipe whose ``array()`` builds a new
    one each call (``vit.patchify`` passes the images and the patch
    geometry).  The node saves them only for ``w``'s gradient, and saves
    a recipe as it is: backward rebuilds the rows, so no patch-sized
    array outlives the forward.  Do not write what a recipe reads between
    a forward and its backward."""
    rows = _restored(patches)
    _check_matmul(rows.shape, w.shape)
    n, d = rows.shape[-2] + 1, w.shape[-1]
    if (w.ndim, b.shape, cls.shape, pos.shape) != (2, (d,), (1, d), (n, d)):
        raise ShapeMismatchError(
            f"embed operands do not fit: w {w.shape}, b {b.shape}, "
            f"cls {cls.shape}, pos {pos.shape}")
    tok = _matmul_data(rows, w.data)
    tok += b.data
    data = np.empty(tok.shape[:-2] + (n, d))
    data[..., :1, :] = cls.data
    data[..., 1:, :] = tok
    data += pos.data
    pd = patches if w.requires_grad else None
    shape, w_shape = rows.shape, w.shape

    def grad_fn(g):
        gt = g[..., 1:, :]
        gw = None if pd is None else _matmul_grad_b(_restored(pd), gt, shape,
                                                    w_shape)
        return (gw, _unbroadcast(gt, (d,)),
                _unbroadcast(g[..., :1, :], (1, d)), _unbroadcast(g, (n, d)))

    return from_op(data, (w, b, cls, pos), grad_fn, "embed")


def softmax_rows(x: Tensor, scale: float = 1.0) -> Tensor:
    """Softmax of ``scale * x`` along the last axis, numerically stabilised.

    Folding a positive ``scale`` in here (attention's 1/sqrt(d)) spares the
    caller a scaled copy of ``x`` and a graph node.  Non-finite inputs are
    rejected: a NaN or infinity here is always an upstream defect and would
    otherwise surface as silent garbage.
    """
    _check_scale(scale)
    y = _softmax(x.data, scale)

    def grad_fn(g):
        return (_softmax_grad(g, y, scale),)

    return from_op(y, (x,), grad_fn, "softmax_rows")


def _check_scale(scale: float) -> None:
    if not 0.0 < scale < math.inf:
        raise ContractError(f"softmax scale must be positive, got {scale}")


def _softmax(x: Array, scale: float, out: Array | None = None) -> Array:
    """The kernel of ``softmax_rows``: one softmax per row, written into
    ``out`` when given (``out=x`` normalises ``x`` in place) and else into
    a new array.

    The row max propagates NaN and +inf and one ``min`` catches -inf, so
    non-finite input is found without an x-sized boolean temporary.
    """
    top = np.maximum.reduce(x, axis=-1, keepdims=True)
    if not np.isfinite(top).all() \
            or np.minimum.reduce(x, axis=None, initial=math.inf) == -math.inf:
        raise NumericError("softmax input contains non-finite values")
    y = np.subtract(x, top, out=out)
    y *= scale
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)
    return y


def _softmax_grad(g: Array, y: Array, scale: float,
                  out: Array | None = None) -> Array:
    """dL/dx of ``y = softmax(scale * x)`` for output gradient ``g``;
    ``out=g`` computes it in place."""
    dot = np.add.reduce(g * y, axis=-1, keepdims=True)
    gx = np.subtract(g, dot, out=out)
    gx *= y
    gx *= scale
    return gx


def _split_heads(x: Array, heads: int) -> Array:
    """(..., T, D) -> (..., heads, T, D/heads), a view of contiguous x."""
    return x.reshape(x.shape[:-1] + (heads, -1)).swapaxes(-2, -3)


def _merge_heads(x: Array) -> Array:
    """(..., heads, T, d) -> (..., T, heads * d), a new C-contiguous array."""
    x = x.swapaxes(-2, -3)
    return x.reshape(x.shape[:-2] + (-1,))


def _head_major(shape: tuple[int, ...], heads: int) -> tuple[Array, Array]:
    """A new token-major (..., T, D) array and its (..., heads, T,
    D/heads) view: per-head products written into the view land
    token-major, with no ``_merge_heads`` copy."""
    x = np.empty(shape)
    return x, _split_heads(x, heads)


def _head_grad(a: Array, b: Array, shape: tuple[int, ...],
               heads: int) -> Array:
    """The token-major ``shape`` gradient whose per-head view is ``a @
    b``, each head's product written straight into its columns."""
    x, view = _head_major(shape, heads)
    np.matmul(a, b, out=view)
    return x


def attention(q: Tensor, k: Tensor, v: Tensor, w_o: Tensor, heads: int,
              scale: float, sink=None, bump: Array | None = None) -> Tensor:
    """Multi-head ``softmax_rows(q @ kᵀ, scale) @ v`` and the output
    projection ``@ w_o``, as one node.

    ``q`` is token-major (..., rows, D) and ``k`` and ``v`` are
    (..., N, D) (v may have its own width, which is ``w_o``'s row count),
    all three with one lead shape ``...``, as a block passes them: none
    broadcasts, and other shapes raise ShapeMismatchError.  The op
    splits the last axis into ``heads`` heads as views, attends per
    head, writes each head's product into its columns of the token-major
    (..., rows, D_v) context (``_head_major``) and projects it.  Its
    gradients arrive and leave token-major too, each head's q and v
    gradient written into its columns the same way (``_head_grad``), so
    a block records no reshape or transpose around it.

    The node saves ``w_o`` and what ``_saved`` gives for ``q``, ``k``
    and ``v``: in a block, where each is a weight product of the first
    norm's output, its ``_Product`` recipe, so no q, k or v array
    outlives the forward.  It saves neither the (..., heads, rows, N)
    attention maps A nor the context.  Backward rebuilds q, k and v, then
    recomputes A with the forward's kernel and, for ``w_o``'s gradient,
    the context from A, bit for bit.  An operand that needs no gradient
    gets None and costs nothing.

    ``sink`` is any object with ``maps`` and ``grads`` attributes.  The
    forward stores A in ``sink.maps`` and clears ``sink.grads``; the
    graph's one backward, where it reaches q or k, stores dL/dA in
    ``sink.grads``.  ``bump``, an array of A's shape, is a
    constant added to A before the product with v, so dL/dA is what a
    finite-difference probe of the bump measures.  The node copies it.
    """
    _check_scale(scale)
    if min(q.ndim, k.ndim, v.ndim) < 2:
        raise ShapeMismatchError(
            f"attention operands must be at least 2-D, got {q.shape}, "
            f"{k.shape} and {v.shape}")
    if not q.shape[:-2] == k.shape[:-2] == v.shape[:-2] \
            or q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2] \
            or w_o.shape[:1] != v.shape[-1:] or w_o.ndim != 2:
        raise ShapeMismatchError(
            f"attention shapes do not fit: q {q.shape}, k {k.shape}, "
            f"v {v.shape}, w_o {w_o.shape}")
    if not (isinstance(heads, (int, np.integer)) and heads >= 1
            and q.shape[-1] % heads == 0 and v.shape[-1] % heads == 0):
        raise ShapeMismatchError(
            f"{heads!r} heads do not split widths {q.shape[-1]} and "
            f"{v.shape[-1]}")

    def head_views(qa: Array, ka: Array, va: Array):
        """The per-head views of q, of k transposed and of v."""
        return (_split_heads(qa, heads),
                _split_heads(ka, heads).swapaxes(-1, -2),
                _split_heads(va, heads))

    qs, ks, vs = _saved(q), _saved(k), _saved(v)
    qd, kt, vd = head_views(q.data, k.data, v.data)
    wd = w_o.data
    q_shape, kt_shape, v_shape = qd.shape, kt.shape, vd.shape
    q_tok, v_tok = q.shape, v.shape
    y_shape = q_shape[:-1] + kt_shape[-1:]
    ctx_shape = q_tok[:-1] + v_tok[-1:]
    if bump is not None:
        bump = np.array(bump, dtype=np.float64)
        if bump.shape != y_shape:
            raise ShapeMismatchError(
                f"bump of shape {bump.shape} does not fit maps {y_shape}")
    grad_q, grad_k, grad_v = q.requires_grad, k.requires_grad, v.requires_grad
    grad_w = w_o.requires_grad
    # The two lanes take half of the leading batch axis: numpy runs one
    # GEMM per stacked slice, so a half runs the very calls of the whole.
    lead = q.shape[:-2]
    halves = lead != () and lead[0] >= 2 \
        and math.prod(y_shape) * (q_shape[-1] + v_shape[-1]) \
        >= 2 * _LANE_MACS
    cut = (lead[0] + 1) // 2 if lead else 0
    proj_macs = math.prod(ctx_shape) * wd.shape[-1]

    def maps(qd: Array, kt: Array, vd: Array, with_ctx: bool):
        """The maps A, A plus the bump, and the context if asked for,
        written per head straight into its token-major array, from the
        head views of q, kᵀ and v."""
        y = np.empty(y_shape)
        a = y if bump is None else np.empty(y_shape)
        ctx, c = _head_major(ctx_shape, heads) if with_ctx else (None, None)

        def attend(rows):
            s = np.matmul(qd[rows], kt[rows], out=y[rows])
            _softmax(s, scale, out=s)
            if a is not y:
                np.add(s, bump[rows], out=a[rows])
            if c is not None:
                np.matmul(a[rows], vd[rows], out=c[rows])

        _halves(cut, halves, attend)
        return y, a, ctx

    y, a, ctx = maps(qd, kt, vd, True)
    if sink is not None:
        sink.maps, sink.grads = y, None
    del y, a
    data = _matmul_data(ctx, wd)
    del ctx

    def grad_fn(g):
        qd, kt, vd = head_views(_restored(qs), _restored(ks), _restored(vs))
        y, a, ctx = maps(qd, kt, vd, grad_w)
        grad_in = grad_q or grad_k or grad_v
        gw, g = _both(
            lambda: _matmul_grad_b(ctx, g, ctx_shape, wd.shape)
            if grad_w else None,
            lambda: _matmul_grad_a(g, wd, ctx_shape) if grad_in else None,
            grad_w and grad_in and proj_macs >= _LANE_MACS)
        del ctx
        if not grad_in:
            return None, None, None, gw
        g = _split_heads(g, heads)

        def grad_scores():
            gs = _matmul_grad_a(g, vd, y_shape)
            if sink is not None:
                sink.grads = gs.copy()
            return _softmax_grad(gs, y, scale, out=gs)

        gs, gv = _both(
            lambda: grad_scores() if grad_q or grad_k else None,
            lambda: _head_grad(a.swapaxes(-1, -2), g, v_tok, heads)
            if grad_v else None,
            (grad_q or grad_k) and grad_v
            and y.size * v_shape[-1] >= _LANE_MACS)
        gq, gk = _both(
            lambda: _head_grad(gs, kt.swapaxes(-1, -2), q_tok, heads)
            if grad_q else None,
            # Written into k's head view, as gsᵀ @ q or through the view
            # transposed, this product's bits move; it is copied instead.
            lambda: _merge_heads(_matmul_grad_b(
                qd, gs, q_shape, kt_shape).swapaxes(-1, -2))
            if grad_k else None,
            grad_q and grad_k and y.size * q_shape[-1] >= _LANE_MACS)
        return gq, gk, gv, gw

    return from_op(data, (q, k, v, w_o), grad_fn, "attention")


def _mean_last(x: Array) -> Array:
    """``x.mean(axis=-1, keepdims=True)`` without ``ndarray.mean``'s Python
    wrapper: the same reduction and the same division, so the same bits."""
    s = np.add.reduce(x, axis=-1, keepdims=True)
    s /= x.shape[-1]
    return s


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalise the last axis to zero mean, unit variance; scale and shift.

    ``gamma`` and ``beta`` are vectors as long as that axis.  A constant
    row (zero variance) maps to zeros, so ``_LN_EPS`` keeps the division
    finite rather than changing the result.  The forward makes two x-sized
    arrays, ``xhat`` (saved) and the output, which first holds the squares
    for the variance; the backward makes two, one of which becomes dx, and
    a third for the gain's gradient when split.  The node's ``rebuild``
    remakes the output from ``xhat``, so a consumer need not save it.
    Both directions run by row halves, one per lane, once each half holds
    a whole chunk; the gain's and offset's gradients are whole reductions
    across rows, run beside the caller's half.
    """
    gd, bd = gamma.data, beta.data
    if gd.shape != x.shape[-1:] or bd.shape != gd.shape:
        raise ShapeMismatchError(
            f"layer_norm gain {gd.shape} and offset {bd.shape} do not fit "
            f"input {x.shape}")
    xd, d = x.data, gd.size
    xhat, data = np.empty(xd.shape), np.empty(xd.shape)
    inv = np.empty(xd.shape[:-1] + (1,))
    cut = xd.size // d // 2
    worth = cut * d >= _CHUNK           # each half holds a whole chunk
    lead = tuple(range(xd.ndim - 1))
    rows = [a.reshape(-1, a.shape[-1]) for a in (xd, xhat, data, inv)]

    def normalise(s):
        xs, xh, sq, iv = [r[s] for r in rows]
        np.subtract(xs, _mean_last(xs), out=xh)
        np.multiply(xh, xh, out=sq)
        root = _mean_last(sq)
        root += _LN_EPS
        np.divide(1.0, np.sqrt(root, out=root), out=iv)
        xh *= iv
        _Affine(xh, gd, bd).array(out=sq)

    _halves(cut, worth, normalise)

    def grad_fn(g):
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        # with dxhat = g * gamma, in the order the terms are written.
        dx, t = np.empty(g.shape), np.empty(g.shape)
        g_rows = [a.reshape(-1, a.shape[-1]) for a in (g, dx, t, xhat, inv)]

        def part(s):
            gs, dxs, ts, xh, iv = [r[s] for r in g_rows]
            sums = None
            if s.start is None:           # the caller's part
                # Whole, t is free to hold g * xhat until dx needs it.
                gx = np.multiply(g, xhat, out=t if s.stop is None else None)
                sums = (np.add.reduce(gx, axis=lead),
                        np.add.reduce(g, axis=lead))
            np.multiply(gs, gd, out=dxs)
            m1 = _mean_last(dxs)
            np.multiply(dxs, xh, out=ts)
            m2 = _mean_last(ts)
            dxs -= m1
            np.multiply(xh, m2, out=ts)
            dxs -= ts
            dxs *= iv
            return sums

        (dgamma, dbeta), _ = _halves(cut, worth, part)
        return dx, dgamma, dbeta

    out = from_op(data, (x, gamma, beta), grad_fn, "layer_norm")
    if out._node is not None:
        out._node.rebuild = _Affine(xhat, gd, bd)
    return out


# Elements per pass of a chunked elementwise chain: 256 KB of float64, so
# that every pass after the first reads the chunk from cache, not memory.
_CHUNK = 32768


def _chunks(part: slice, *arrays: Array | None):
    """Matching views of at most ``_CHUNK`` of the flat elements ``part``
    of equally shaped C-contiguous arrays (None for a None array), so a
    result written into a view lands in its array."""
    flats = [None if a is None else a.reshape(-1)[part] for a in arrays]
    for start in range(0, flats[0].size, _CHUNK):
        yield [None if f is None else f[start:start + _CHUNK] for f in flats]


def _gelu_tanh(x: Array, t: Array, x2: Array) -> None:
    """t = tanh(c * (x + a * x**3)) and x2 = x * x, written in place.

    Powers are products: ``x ** 3`` calls libm's pow, about 40 times slower.
    """
    np.multiply(x, x, out=x2)
    np.multiply(x2, x, out=t)
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)


def _gelu_passes(x: Array, y: Array | None = None, g: Array | None = None,
                 dx: Array | None = None, part: slice = slice(None)) -> None:
    """Write ``y = gelu(x)`` and ``dx = gelu'(x) * g``, each when given,
    in one chunked pass over the flat elements ``part`` of C-contiguous
    ``x`` (``y`` may be ``x``, ``dx`` may be ``g``).

    Both share one tanh per chunk, held in scratch: the slope reads ``x``
    before ``y`` is written, and ``dx`` reads only the tanh, the slope and
    ``g``, so ``y = x`` computes GELU in place.  Chunking changes no
    arithmetic, only how often each element travels from memory.
    """
    n = min(x.size, _CHUNK)
    t_buf, slope_buf, sech2_buf = np.empty(n), np.empty(n), np.empty(n)
    for xs, ys, gs, ds in _chunks(part, x, y, g, dx):
        slope, t = slope_buf[:xs.size], t_buf[:xs.size]
        _gelu_tanh(xs, t, slope)           # slope holds x^2 until scaled
        if ds is not None:
            # d/dx = 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2)
            sech2 = sech2_buf[:xs.size]
            slope *= 3.0 * _GELU_A
            slope += 1.0
            slope *= _GELU_C
            slope *= xs
            np.multiply(t, t, out=sech2)
            np.subtract(1.0, sech2, out=sech2)
            slope *= sech2
        t += 1.0
        if ys is not None:
            np.multiply(t, xs, out=ys)
            ys *= 0.5
        if ds is not None:
            t += slope
            t *= 0.5
            np.multiply(t, gs, out=ds)


def _gelu_halves(x: Array, y: Array | None = None, g: Array | None = None,
                 dx: Array | None = None) -> None:
    """``_gelu_passes`` split at the chunk boundary nearest the middle,
    the second part on the lane, once each part holds a whole chunk: the
    parts run the serial code's very chunks."""
    _halves(round(x.size / (2 * _CHUNK)) * _CHUNK, x.size >= 2 * _CHUNK,
            lambda s: _gelu_passes(x, y, g, dx, s))


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation.

    Both directions run their chain of in-place passes chunk by chunk (see
    ``_gelu_passes``).  ``x.data`` is never written.  The backward pass
    recomputes tanh, so the graph holds no activation-sized array beyond
    ``x`` itself.
    """
    xd = np.asarray(x.data, order="C")
    data = np.empty(xd.shape)
    _gelu_passes(xd, y=data)

    def grad_fn(g):
        out = np.empty(xd.shape)
        _gelu_passes(xd, g=np.asarray(g, order="C"), dx=out)
        return (out,)

    return from_op(data, (x,), grad_fn, "gelu")


def mlp(h: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """``matmul(gelu(matmul(h, w1)), w2)`` as one node that saves ``h``
    (its layer-norm recipe, if it has one) and the two weights, but
    neither ``h @ w1`` nor its gelu.

    The forward writes gelu over ``h @ w1`` in place, so the hidden
    layer takes one array, not two.  Backward rebuilds ``h``,
    recomputes ``h @ w1`` with the forward's kernel and runs gelu's slope
    and, when ``w2`` needs a gradient, its output in place, in one
    chunked pass, so every gradient is bit for bit the composed ops'.
    The price is one more ``h @ w1`` GEMM per backward.  As in
    ``matmul``, an operand that needs no gradient gets None and costs
    nothing.
    """
    _check_matmul(h.shape, w1.shape)
    _check_matmul(h.shape[:-1] + w1.shape[-1:], w2.shape)
    w1d, w2d = w1.data, w2.data
    a = _matmul_data(h.data, w1d)
    a_shape = a.shape
    _gelu_halves(a, y=a)
    data = _matmul_data(a, w2d)
    h_shape, w1_shape, w2_shape = h.shape, w1.shape, w2.shape
    grad_h, grad_w1, grad_w2 = h.requires_grad, w1.requires_grad, \
        w2.requires_grad
    hs = _saved(h)
    # Each of the node's products has as many multiply-adds as h @ w1.
    pair = math.prod(a_shape) * h_shape[-1] >= _LANE_MACS

    def grad_fn(g):
        hd = _restored(hs)
        grad_a = grad_h or grad_w1
        a, ga = _both(
            lambda: _matmul_data(hd, w1d),
            lambda: np.ascontiguousarray(_matmul_grad_a(g, w2d, a_shape))
            if grad_a else None, pair and grad_a)
        y = a if grad_w2 else None
        _gelu_halves(a, y=y, g=ga, dx=ga)
        del a
        gw2, gh = _both(
            lambda: None if y is None else _matmul_grad_b(y, g, a_shape,
                                                          w2_shape),
            lambda: _matmul_grad_a(ga, w1d, h_shape) if grad_h else None,
            pair and grad_w2 and grad_h)
        del y
        gw1 = _matmul_grad_b(hd, ga, h_shape, w1_shape) if grad_w1 else None
        return gh, gw1, gw2

    return from_op(data, (h, w1, w2), grad_fn, "mlp")


def _log_softmax(z: Array) -> Array:
    shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1,
                                          keepdims=True))


def check_labels(labels: Array, n_classes: int) -> None:
    """Refuse class labels outside [0, n_classes)."""
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= n_classes:
        raise ContractError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]")


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-probability of the true class.

    ``labels`` is an integer array of shape (batch,); each entry must lie
    in [0, num_classes).
    """
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ContractError(f"cross_entropy expects 2-D logits, got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ShapeMismatchError(
            f"labels shape {labels.shape} does not match batch {logits.shape[0]}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError("labels must be integers")
    check_labels(labels, logits.shape[-1])
    batch = logits.shape[0]
    logp = _log_softmax(logits.data)
    picked = logp[np.arange(batch), labels]
    data = np.asarray(-picked.mean())

    def grad_fn(g):
        p = np.exp(logp)
        p[np.arange(batch), labels] -= 1.0
        return (g * p / batch,)

    return from_op(data, (logits,), grad_fn, "cross_entropy")


def kl_divergence(p_logits: Tensor, q_logits: Tensor, temperature: float = 1.0) -> Tensor:
    """Mean KL(q || p) over the batch, computed from logits.

    ``q_logits`` is the reference (teacher) side and is treated as a
    constant: gradients flow only to ``p_logits``.  Both sides are
    tempered by the same ``temperature`` before the softmax.
    """
    if temperature <= 0:
        raise ContractError(f"temperature must be positive, got {temperature}")
    if p_logits.shape != q_logits.shape:
        raise ShapeMismatchError(
            f"logit shapes differ: {p_logits.shape} vs {q_logits.shape}")
    batch = p_logits.shape[0]
    logp = _log_softmax(p_logits.data / temperature)
    logq = _log_softmax(q_logits.data / temperature)
    q = np.exp(logq)
    data = np.asarray((q * (logq - logp)).sum(axis=-1).mean())

    def grad_fn(g):
        p = np.exp(logp)
        return (g * (p - q) / (batch * temperature),)

    # q_logits is no input of the node, which keeps the teacher detached
    # by contract.
    return from_op(data, (p_logits,), grad_fn, "kl_divergence")

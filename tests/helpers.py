"""Shared test utilities: finite-difference gradient checking, the dense
pseudoinverse the oracles compare against, the shape ops and loss
reducer no program path runs, and composed attention."""

import numpy as np

from prunemerge import tensor as T
from prunemerge.compression import pseudoinverse


def dense_pinv(merge) -> np.ndarray:
    """The dense (n, kept) pseudoinverse of a merge matrix, derived from
    the vector ``pseudoinverse`` returns."""
    return merge.segments.recon_matrix(pseudoinverse(merge))


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

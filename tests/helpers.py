"""Shared test utilities: finite-difference gradient checking, the dense
pseudoinverse the oracles compare against, and composed attention."""

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


def composed_attention(q, k, v, scale: float):
    """The attention ``tensor.attention`` fuses, from its primitive ops."""
    return T.matmul(T.softmax_rows(T.matmul(q, T.swap_last2(k)), scale), v)

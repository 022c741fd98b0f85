"""Merge-map rendering: what the compression plan does to an image.

Two binary-P6 pixmaps per requested layer, built directly in patch space
(the plan's groups act on raster-ordered patches) by the model's kernels:

  *_merge.ppm           pruned patches white, every surviving patch
                        replaced by its group's weighted-average patch
  *_reconstruction.ppm  the merge and reconstruct round trip on raw
                        patch pixels — pruned tokens have r[j] = 0, so
                        those patches render black
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .compression import (CompressionPlan, PlanEntry, _gather, _segment_sum,
                          grouped_merge)
from .errors import ContractError
from .vit import ModelConfig, extract_patches


def write_ppm(path, pixels: np.ndarray) -> None:
    """Binary P6 writer; pixels are (H, W, 3) uint8."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ContractError(
            f"need (H, W, 3) uint8 pixels, got {pixels.shape} {pixels.dtype}")
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def _to_uint8(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(values * 255.0), 0, 255).astype(np.uint8)


def _patches_to_grid(patches: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Inverse of extract_patches for one image: (Np, patch_dim) -> (H, W, 3)."""
    g, p, ch = config.grid_size, config.patch_size, config.channels
    grid = patches.reshape(g, g, ch, p, p).transpose(2, 0, 3, 1, 4)
    image = grid.reshape(ch, g * p, g * p)
    rgb = np.repeat(image[:1], 3, axis=0) if ch == 1 else image[:3]
    return _to_uint8(rgb.transpose(1, 2, 0))


def render_merge_map(image: np.ndarray, entry: PlanEntry,
                     config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Return (merge_pixels, reconstruction_pixels) for one layer entry.

    ``image`` is (channels, H, W) float in [0, 1].  Token j is patch j-1;
    the class token carries zero pixels and no merge weight.  A live patch
    whose group's patch weights sum to zero or less keeps its own pixels.
    """
    n, merge = config.num_tokens, entry.merge
    if merge.n_tokens != n:
        raise ContractError(f"plan width {merge.n_tokens} != model tokens {n}")
    z = np.vstack([np.zeros((1, config.patch_dim)),
                   extract_patches(image[None], config)[0]])

    w = merge.w.copy()
    w[0] = 0.0                      # patch tokens only
    totals = np.bincount(merge.gid, weights=w, minlength=merge.kept)[merge.gid]
    positive = totals > 0
    share = np.divide(w, totals, out=np.zeros(n), where=positive)
    merged = np.where(positive[:, None],
                      _gather(_segment_sum(z, share, merge), merge), z)
    merged[merge.pruned] = 1.0      # pruned: white

    round_trip = _gather(grouped_merge(z, merge), merge)
    round_trip *= entry.r[:, None]
    return (_patches_to_grid(merged[1:], config),
            _patches_to_grid(round_trip[1:], config))


def visualize_merge_map(image: np.ndarray, plan: CompressionPlan,
                        layer: int, config: ModelConfig,
                        out_dir) -> list[Path]:
    """Write the two pixmaps for one layer; returns the paths written."""
    if not 0 <= layer < plan.depth:
        raise ContractError(f"layer {layer} outside [0, {plan.depth})")
    entry = plan.entries[layer]
    if entry is None:
        raise ContractError(f"layer {layer} is uncompressed; nothing to draw")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    merge_px, recon_px = render_merge_map(image, entry, config)
    paths = [out_dir / f"layer{layer}_merge.ppm",
             out_dir / f"layer{layer}_reconstruction.ppm"]
    write_ppm(paths[0], merge_px)
    write_ppm(paths[1], recon_px)
    return paths

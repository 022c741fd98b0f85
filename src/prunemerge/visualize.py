"""Merge-map rendering: what the compression plan does to an image.

Two binary-P6 pixmaps per requested layer, built directly in patch space
(the plan's groups act on raster-ordered patches):

  *_merge.ppm           pruned patches white, every surviving patch
                        replaced by its group's weighted-average patch
  *_reconstruction.ppm  the round trip through the reconstruct matrix
                        applied to raw patch pixels — pruned rows are
                        zero, so those patches render black
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .compression import CompressionPlan, PlanEntry
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


def read_ppm(path) -> np.ndarray:
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

    ``image`` is (channels, H, W) float in [0, 1].
    """
    patches = extract_patches(image[None], config)[0]   # (Np, patch_dim)
    n = config.num_tokens
    if entry.merge.n_tokens != n:
        raise ContractError(
            f"plan width {entry.merge.n_tokens} != model tokens {n}")

    # weighted-average patch per group, in patch space; token j in the
    # grid is patch j-1 (token 0 is the class token and has no pixels)
    merged = np.empty_like(patches)
    gid = entry.merge.segments.gid
    m = entry.merge.data   # a derived view: read once
    for j in range(1, n):
        if entry.mask[j] == 0:
            merged[j - 1] = 1.0  # pruned: white
            continue
        row = m[gid[j]]
        weights = row[1:]  # drop the class column; patch tokens only
        total = weights.sum()
        if total <= 0:
            merged[j - 1] = patches[j - 1]
            continue
        merged[j - 1] = (weights / total) @ patches

    # reconstruction round trip on raw patch pixels; class token carries
    # zero pixels so it contributes nothing
    z = np.vstack([np.zeros((1, patches.shape[1])), patches])
    round_trip = entry.reconstruct @ (m @ z)
    return (_patches_to_grid(merged, config),
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

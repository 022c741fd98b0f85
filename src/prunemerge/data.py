"""Dataset handling: IDX file pairs, a synthetic shape corpus, batching.

A ``Dataset`` stores its pixels in one of two dtypes: float64 in [0, 1]
(the synthetic corpus) or the uint8 bytes an IDX file holds, where a
value v reads as v / 255.  ``Dataset.batch`` is the one read path: it
returns float64 pixels either way, so byte images are scaled per batch
and never inflated to float64 as a whole.

Training and scoring batches are shuffled, in an order that is a pure
function of (seed, epoch), so runs are replayed bit-identically without
serializing generator state.  Evaluation and the teacher's logit cache
read the dataset in stored order, in slices (``finetune``).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError

IDX_DTYPES = {
    0x08: np.dtype(">u1"),
    0x09: np.dtype(">i1"),
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}


PIXEL_DTYPES = (np.dtype(np.float64), np.dtype(np.uint8))


@dataclass
class Dataset:
    """Labelled images.

    ``images`` holds the stored pixels, (B, Ch, H, W): float64 in [0, 1],
    or uint8 where a value v reads as v / 255.  Read pixels through
    ``batch``, which returns float64 in [0, 1] for either dtype.
    """

    images: np.ndarray  # (B, Ch, H, W) float64 in [0, 1], or uint8
    labels: np.ndarray  # (B,) int64
    num_classes: int

    def __post_init__(self):
        if self.images.dtype not in PIXEL_DTYPES:
            raise ContractError(
                f"images must be float64 or uint8, got {self.images.dtype}")
        if self.images.ndim != 4:
            raise ContractError(f"images must be 4-D, got {self.images.shape}")
        if self.images.shape[0] == 0:
            raise ContractError("dataset must contain at least one example")
        if self.labels.shape != (self.images.shape[0],):
            raise ContractError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.images.shape[0]} images")
        lo, hi = int(self.labels.min()), int(self.labels.max())
        if lo < 0 or hi >= self.num_classes:
            raise ContractError(
                f"labels outside [0, {self.num_classes}): range [{lo}, {hi}]")

    def __len__(self) -> int:
        return self.images.shape[0]

    def batch(self, key) -> np.ndarray:
        """The float64 pixels of ``images[key]``, for an index array, a
        slice or an int.  Bytes are divided by 255 here, the operation a
        whole-array conversion would run, so every element gets the same
        bits."""
        if self.images.dtype == np.uint8:
            return np.divide(self.images[key], 255.0, dtype=np.float64)
        return self.images[key]

    def subset(self, start: int, stop: int) -> "Dataset":
        return Dataset(self.images[start:stop], self.labels[start:stop],
                       self.num_classes)


def read_idx(path: str | Path) -> np.ndarray:
    """Read one IDX tensor file (big-endian, 4-byte magic header)."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise ContractError(f"{path}: truncated IDX header")
    zero1, zero2, dtype_code, ndim = struct.unpack(">BBBB", raw[:4])
    if zero1 != 0 or zero2 != 0:
        raise ContractError(f"{path}: bad IDX magic {raw[:4]!r}")
    if dtype_code not in IDX_DTYPES:
        raise ContractError(f"{path}: unknown IDX dtype code 0x{dtype_code:02X}")
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise ContractError(f"{path}: truncated IDX dimension block")
    dims = struct.unpack(f">{ndim}I", raw[4:header_end])
    dtype = IDX_DTYPES[dtype_code]
    count = math.prod(dims)
    expected = count * dtype.itemsize
    if len(raw) - header_end != expected:
        raise ContractError(
            f"{path}: payload is {len(raw) - header_end} bytes, header "
            f"implies {expected}")
    return np.frombuffer(raw, dtype, count, offset=header_end).reshape(dims)


def write_idx(path: str | Path, array: np.ndarray) -> None:
    """Write an array as an IDX file (inverse of read_idx)."""
    code = next((c for c, dt in IDX_DTYPES.items()
                 if dt == array.dtype.newbyteorder(">")), None)
    if code is None:
        raise ContractError(f"dtype {array.dtype} has no IDX code")
    # Copies only an array that is not already contiguous big-endian.
    payload = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder(">"))
    with open(path, "wb") as fh:
        fh.write(struct.pack(">BBBB", 0, 0, code, array.ndim))
        fh.write(struct.pack(f">{array.ndim}I", *array.shape))
        fh.write(payload)


def load_idx_pair(image_path: str | Path, label_path: str | Path,
                  num_classes: int | None = None) -> Dataset:
    """Load an images/labels IDX file pair into a byte-pixel dataset.

    Images must be a 3-D unsigned-byte tensor (count, H, W); the dataset
    keeps a read-only view of the file's bytes with a single channel
    axis added, and ``Dataset.batch`` scales each batch to [0, 1].
    Labels must be a 1-D integer vector: a float label would otherwise be
    truncated to a class without notice.
    """
    images = read_idx(image_path)
    labels = read_idx(label_path)
    if images.ndim != 3:
        raise ContractError(
            f"{image_path}: expected 3-D image tensor, got {images.ndim}-D")
    if labels.ndim != 1:
        raise ContractError(
            f"{label_path}: expected 1-D label vector, got {labels.ndim}-D")
    if images.shape[0] != labels.shape[0]:
        raise ContractError(
            f"image count {images.shape[0]} != label count {labels.shape[0]}")
    if images.dtype != np.dtype(">u1"):
        raise ContractError(f"{image_path}: image tensor must be unsigned bytes")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError(
            f"{label_path}: label vector must be integers, got {labels.dtype}")
    labs = labels.astype(np.int64)
    if num_classes is None:
        num_classes = int(labs.max(initial=-1)) + 1
    return Dataset(images[:, None], labs, num_classes)


# ----------------------------------------------------------------------
# synthetic shapes
# ----------------------------------------------------------------------

NUM_SHAPE_CLASSES = 10


def _draw_shape(cls: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Render one shape class onto a size x size canvas in [0, 1]."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    cy = size / 2 + rng.uniform(-4.0, 4.0)
    cx = size / 2 + rng.uniform(-4.0, 4.0)
    r = rng.uniform(5.0, 9.0)
    dy, dx = yy - cy, xx - cx
    dist = np.sqrt(dy ** 2 + dx ** 2)
    cheb = np.maximum(np.abs(dy), np.abs(dx))

    if cls == 0:      # filled square
        m = cheb <= r
    elif cls == 1:    # square outline
        m = (cheb <= r) & (cheb >= r - 2.0)
    elif cls == 2:    # filled disk
        m = dist <= r
    elif cls == 3:    # ring
        m = (dist <= r) & (dist >= r - 2.5)
    elif cls == 4:    # plus
        m = ((np.abs(dy) <= 1.5) | (np.abs(dx) <= 1.5)) & (cheb <= r)
    elif cls == 5:    # diagonal cross
        m = ((np.abs(dy - dx) <= 2.0) | (np.abs(dy + dx) <= 2.0)) & (cheb <= r)
    elif cls == 6:    # horizontal bars
        m = (np.abs(dy) <= r) & (np.abs(dx) <= r) & (np.floor(dy / 3.0) % 2 == 0)
    elif cls == 7:    # vertical bars
        m = (np.abs(dy) <= r) & (np.abs(dx) <= r) & (np.floor(dx / 3.0) % 2 == 0)
    elif cls == 8:    # filled triangle (apex up)
        m = (dy >= -r / 2) & (dy <= r / 2) & (np.abs(dx) <= (dy + r / 2) * 0.8)
    elif cls == 9:    # dot grid
        m = (cheb <= r) & (np.floor(dy / 3.0) % 2 == 0) \
            & (np.floor(dx / 3.0) % 2 == 0)
    else:
        raise ContractError(f"unknown shape class {cls}")

    img = np.zeros((size, size))
    img[m] = rng.uniform(0.7, 1.0)
    img += rng.normal(0.0, 0.05, size=(size, size))
    return np.clip(img, 0.0, 1.0)


def synthetic_shapes(count: int, image_size: int = 28, seed: int = 0) -> Dataset:
    """Seeded corpus of noisy geometric shapes, ten balanced classes."""
    if count < 1:
        raise ContractError("count must be positive")
    rng = np.random.default_rng(seed)
    images = np.empty((count, 1, image_size, image_size))
    labels = np.empty(count, dtype=np.int64)
    for i in range(count):
        cls = i % NUM_SHAPE_CLASSES
        labels[i] = cls
        images[i, 0] = _draw_shape(cls, image_size, rng)
    order = rng.permutation(count)
    return Dataset(images[order], labels[order], NUM_SHAPE_CLASSES)


def batch_indices(n: int, batch_size: int, *, seed: int, epoch: int):
    """Yield the index array of each batch over ``n`` examples, shuffled:
    the order depends only on (seed, epoch), and the last batch may be
    short."""
    if batch_size < 1:
        raise ContractError("batch_size must be positive")
    order = np.random.default_rng([seed, epoch]).permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def batches(dataset: Dataset, batch_size: int, *, seed: int, epoch: int):
    """Yield (images, labels) pairs of the batches ``batch_indices``
    picks."""
    for idx in batch_indices(len(dataset), batch_size, seed=seed,
                             epoch=epoch):
        yield dataset.batch(idx), dataset.labels[idx]

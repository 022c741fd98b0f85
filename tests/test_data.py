"""Datasets: IDX container, synthetic shape corpus, batch ordering."""

import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import prunemerge
from prunemerge.cli import main
from prunemerge.data import (IDX_DTYPES, Dataset, batch_indices, batches,
                             load_idx_pair, read_idx, synthetic_shapes,
                             write_idx, NUM_SHAPE_CLASSES)
from prunemerge.errors import ContractError

from helpers import fresh


# --- Dataset container -----------------------------------------------------

def test_dataset_validates_shapes():
    good = Dataset(np.zeros((3, 1, 4, 4)), np.zeros(3, dtype=np.int64), 2)
    assert len(good) == 3
    with pytest.raises(ContractError):
        Dataset(np.zeros((3, 4, 4)), np.zeros(3, dtype=np.int64), 2)
    with pytest.raises(ContractError):
        Dataset(np.zeros((3, 1, 4, 4)), np.zeros(2, dtype=np.int64), 2)


def test_dataset_rejects_labels_out_of_range():
    with pytest.raises(ContractError, match="labels outside"):
        Dataset(np.zeros((2, 1, 4, 4)), np.array([0, 2]), 2)
    with pytest.raises(ContractError, match="labels outside"):
        Dataset(np.zeros((2, 1, 4, 4)), np.array([-1, 0]), 2)


def test_dataset_rejects_empty():
    with pytest.raises(ContractError, match="at least one"):
        Dataset(np.zeros((0, 1, 4, 4)), np.zeros(0, dtype=np.int64), 2)


def test_subset_slices_both_arrays():
    ds = synthetic_shapes(20, image_size=8, seed=0)
    head = ds.subset(0, 5)
    assert len(head) == 5
    np.testing.assert_array_equal(head.labels, ds.labels[:5])
    with pytest.raises(ContractError):
        ds.subset(5, 5)  # empty slice


# --- IDX files -------------------------------------------------------------

def test_idx_round_trip_all_dtypes(tmp_path):
    rng = np.random.default_rng(0)
    cases = [
        rng.integers(0, 256, size=(4, 5, 6)).astype(np.uint8),
        rng.integers(-100, 100, size=(7,)).astype(np.int8),
        rng.integers(-1000, 1000, size=(3, 2)).astype(">i2"),
        rng.integers(-10**6, 10**6, size=(2, 2, 2, 2)).astype(">i4"),
        rng.standard_normal((5, 3)).astype(">f4"),
        rng.standard_normal((6,)).astype(">f8"),
    ]
    for i, arr in enumerate(cases):
        path = tmp_path / f"case{i}.idx"
        write_idx(path, arr)
        again = read_idx(path)
        assert again.shape == arr.shape
        np.testing.assert_array_equal(again, arr)


def test_read_idx_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"\x01\x00\x08\x01" + struct.pack(">I", 0))
    with pytest.raises(ContractError, match="magic"):
        read_idx(path)


def test_read_idx_rejects_unknown_dtype(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"\x00\x00\x07\x01" + struct.pack(">I", 0))
    with pytest.raises(ContractError, match="dtype"):
        read_idx(path)


def test_read_idx_rejects_truncation(tmp_path):
    path = tmp_path / "short.idx"
    write_idx(path, np.arange(10, dtype=np.uint8))
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(ContractError, match="payload"):
        read_idx(path)
    (tmp_path / "header.idx").write_bytes(blob[:2])
    with pytest.raises(ContractError, match="truncated"):
        read_idx(tmp_path / "header.idx")


def test_load_idx_pair_scales_and_shapes(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(8, 6, 6)).astype(np.uint8)
    labels = rng.integers(0, 3, size=8).astype(np.uint8)
    write_idx(tmp_path / "img.idx", images)
    write_idx(tmp_path / "lab.idx", labels)
    ds = load_idx_pair(tmp_path / "img.idx", tmp_path / "lab.idx")
    assert ds.images.shape == (8, 1, 6, 6)
    pixels = ds.batch(slice(None))
    assert pixels.dtype == np.float64
    assert pixels.min() >= 0.0 and pixels.max() <= 1.0
    np.testing.assert_allclose(pixels[0, 0], images[0] / 255.0)
    assert ds.num_classes == int(labels.max()) + 1


def test_load_idx_pair_keeps_the_file_bytes(tmp_path):
    # The pair is held as the bytes read, not as float64 pixels: the
    # traced peak of a load stays within the image file plus small change.
    rng = np.random.default_rng(2)
    write_idx(tmp_path / "img.idx",
              rng.integers(0, 256, size=(2000, 28, 28)).astype(np.uint8))
    write_idx(tmp_path / "lab.idx",
              rng.integers(0, 10, size=2000).astype(np.uint8))
    file_bytes = (tmp_path / "img.idx").stat().st_size
    tracemalloc.start()
    try:
        ds = load_idx_pair(tmp_path / "img.idx", tmp_path / "lab.idx")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= file_bytes + 64 * 1024
    assert ds.images.dtype == np.uint8 and not ds.images.flags.writeable


def test_batch_scales_byte_pixels_like_a_whole_array_conversion():
    pixels = np.random.default_rng(3).integers(
        0, 256, size=(9, 1, 5, 5)).astype(np.uint8)
    ds = Dataset(pixels, np.zeros(9, dtype=np.int64), 1)
    for key in (np.array([7, 0, 3, 3]), slice(2, 8), 4):
        got = ds.batch(key)
        want = pixels.astype(np.float64)[key] / 255.0
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.int16, np.bool_])
def test_dataset_rejects_other_pixel_dtypes(dtype):
    with pytest.raises(ContractError, match="float64 or uint8"):
        Dataset(np.zeros((2, 1, 4, 4), dtype=dtype),
                np.zeros(2, dtype=np.int64), 2)


@pytest.mark.parametrize("array", [
    np.arange(60, dtype=np.uint8).reshape(3, 4, 5),
    np.arange(-5, 5, dtype=np.int8),
    np.arange(-600, 600, 7, dtype=np.int16).reshape(4, -1),
    np.arange(12, dtype=">i2"),
    np.arange(-10**6, 10**6, 99991, dtype=np.int32),
    np.linspace(-3, 3, 10, dtype=np.float32).reshape(2, 5),
    np.linspace(-3, 3, 10, dtype=np.float64),
    np.arange(24, dtype=np.int32).reshape(4, 6)[:, ::2],
    np.zeros((0, 3), dtype=np.float64),
    np.array(2.5),
], ids=["u1", "i1", "i2", "i2-big", "i4", "f4", "f8", "strided", "empty",
        "0-d"])
def test_write_idx_bytes_match_a_big_endian_copy(tmp_path, array):
    code = {dt: c for c, dt in IDX_DTYPES.items()}[
        array.dtype.newbyteorder(">")]
    header = struct.pack(">BBBB", 0, 0, code, array.ndim) + struct.pack(
        f">{array.ndim}I", *array.shape)
    want = header + array.astype(array.dtype.newbyteorder(">")).tobytes()
    assert _idx_bytes(array, tmp_path) == want


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmRSS and VmHWM from /proc")
def test_train_baseline_peak_stays_below_float_pixels(tmp_path):
    # A fresh interpreter trains one epoch on 8,192 28x28 IDX images at
    # the acceptance shape.  Its resident peak may rise above the
    # post-import level by less than the images would take as float64.
    count, size = 8192, 28
    rng = np.random.default_rng(4)
    write_idx(tmp_path / "img.idx",
              rng.integers(0, 256, size=(count, size, size)).astype(np.uint8))
    write_idx(tmp_path / "lab.idx",
              rng.integers(0, 10, size=count).astype(np.uint8))
    child = (
        "import sys\n"
        "from pathlib import Path\n"
        "import prunemerge.cli\n"
        "def kb(key):\n"
        "    for line in Path('/proc/self/status').read_text().splitlines():\n"
        "        if line.startswith(key + ':'):\n"
        "            return int(line.split()[1])\n"
        "rss = kb('VmRSS')\n"
        "code = prunemerge.cli.main(sys.argv[1:])\n"
        "print(code, rss, kb('VmHWM'))\n")
    overrides = {"dataset": "idx", "idx_images": tmp_path / "img.idx",
                 "idx_labels": tmp_path / "lab.idx", "image_size": size,
                 "patch_size": 14, "embed_dim": 48, "depth": 2, "heads": 4,
                 "mlp_ratio": 2, "num_classes": 10, "epochs": 1,
                 "batch_size": 32}
    args = ["train-baseline", "--out", str(tmp_path / "base.pmvt")]
    for key, value in overrides.items():
        args += ["--set", f"{key}={value}"]
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(prunemerge.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", child, *args], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    code, rss_kb, hwm_kb = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 0
    float_pixels = count * size * size * 8
    assert (hwm_kb - rss_kb) * 1024 < float_pixels


def test_load_idx_pair_rejects_count_mismatch(tmp_path):
    write_idx(tmp_path / "img.idx",
              np.zeros((4, 6, 6), dtype=np.uint8))
    write_idx(tmp_path / "lab.idx", np.zeros(5, dtype=np.uint8))
    with pytest.raises(ContractError, match="count"):
        load_idx_pair(tmp_path / "img.idx", tmp_path / "lab.idx")


def test_load_idx_pair_rejects_wrong_rank(tmp_path):
    write_idx(tmp_path / "img.idx", np.zeros((4, 36), dtype=np.uint8))
    write_idx(tmp_path / "lab.idx", np.zeros(4, dtype=np.uint8))
    with pytest.raises(ContractError, match="3-D"):
        load_idx_pair(tmp_path / "img.idx", tmp_path / "lab.idx")


def test_load_idx_pair_rejects_float_labels(tmp_path):
    write_idx(tmp_path / "img.idx", np.zeros((3, 6, 6), dtype=np.uint8))
    write_idx(tmp_path / "lab.idx", np.array([0.4, 1.9, 2.5], dtype=">f4"))
    with pytest.raises(ContractError, match="integers"):
        load_idx_pair(tmp_path / "img.idx", tmp_path / "lab.idx")


def test_read_idx_rejects_dimension_product_past_int64(tmp_path):
    # 65536**4 = 2**64 wraps to 0 in int64 arithmetic, matching an empty
    # payload; the size check must use exact integers.
    path = tmp_path / "huge.idx"
    path.write_bytes(struct.pack(">BBBB", 0, 0, 0x08, 4)
                     + struct.pack(">4I", *[65536] * 4))
    with pytest.raises(ContractError, match="payload"):
        read_idx(path)


def test_load_idx_pair_rejects_empty_pair(tmp_path):
    write_idx(tmp_path / "img.idx", np.zeros((0, 6, 6), dtype=np.uint8))
    write_idx(tmp_path / "lab.idx", np.zeros(0, dtype=np.uint8))
    with pytest.raises(ContractError, match="at least one"):
        load_idx_pair(tmp_path / "img.idx", tmp_path / "lab.idx")


def _idx_bytes(array: np.ndarray, tmp_path) -> bytes:
    write_idx(fresh(tmp_path / "blob.idx"), array)
    return (tmp_path / "blob.idx").read_bytes()


# A valid pair.  The labels are >i4, whose one same-width IDX type is >f4,
# and the images >u1, whose one same-width type is >i1, so a changed dtype
# code either changes the payload size or reaches a type check.
FUZZ_IMAGES = np.random.default_rng(5).integers(
    0, 256, size=(6, 5, 7)).astype(np.uint8)
FUZZ_LABELS = np.array([3, 0, 9, 1, 1, 4], dtype=">i4")


@st.composite
def one_idx_mutation(draw):
    """(file, position, replacement bytes, bytes to cut or add): exactly
    one change to one file of the valid pair."""
    which = draw(st.sampled_from(["images", "labels"]))
    ndim = 3 if which == "images" else 1
    kind = draw(st.sampled_from(["magic", "dtype", "ndim", "dim", "length"]))
    if kind == "magic":
        return which, draw(st.integers(0, 1)), \
            bytes([draw(st.integers(1, 255))]), 0
    if kind == "dtype":
        code = 0x08 if which == "images" else 0x0C
        new = st.sampled_from(sorted(IDX_DTYPES)) | st.integers(0, 255)
        return which, 2, bytes([draw(new.filter(lambda c: c != code))]), 0
    if kind == "ndim":
        return which, 3, bytes([draw(st.integers(0, 255).filter(
            lambda n: n != ndim))]), 0
    if kind == "dim":
        axis = draw(st.integers(0, ndim - 1))
        old = (FUZZ_IMAGES if which == "images" else FUZZ_LABELS).shape[axis]
        value = draw(st.integers(0, 2 ** 32 - 1).filter(lambda v: v != old))
        return which, 4 + 4 * axis, struct.pack(">I", value), 0
    return which, None, b"", draw(st.integers(-16, 16).filter(bool))


class TestIdxDecoderFuzz:
    """Every single mutation of a valid IDX pair is refused with
    ContractError, and through the CLI with the one-line error exit."""

    @staticmethod
    def write_pair(tmp_path, mutation):
        which, at, patch, resize = mutation
        blobs = {"images": _idx_bytes(FUZZ_IMAGES, tmp_path),
                 "labels": _idx_bytes(FUZZ_LABELS, tmp_path)}
        blob = bytearray(blobs[which])
        if at is not None:
            blob[at:at + len(patch)] = patch
        elif resize > 0:
            blob += bytes(range(resize))
        elif resize < 0:
            del blob[resize:]
        blobs[which] = bytes(blob)
        for name, data in blobs.items():
            fresh(tmp_path / f"{name}.idx").write_bytes(data)
        return tmp_path / "images.idx", tmp_path / "labels.idx"

    def test_unmutated_pair_loads(self, tmp_path):
        ds = load_idx_pair(*self.write_pair(tmp_path, ("images", None, b"", 0)))
        np.testing.assert_array_equal(ds.labels, FUZZ_LABELS)

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutation=one_idx_mutation())
    def test_any_mutation_is_refused(self, tmp_path, mutation):
        images, labels = self.write_pair(tmp_path, mutation)
        with pytest.raises(ContractError):
            load_idx_pair(images, labels)

    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutation=one_idx_mutation())
    def test_cli_reports_one_error_line(self, tmp_path, capsys, mutation):
        images, labels = self.write_pair(tmp_path, mutation)
        capsys.readouterr()
        code = main(["train-baseline", "--set", "dataset=idx",
                     "--set", f"idx_images={images}",
                     "--set", f"idx_labels={labels}",
                     "--out", str(tmp_path / "never.pmvt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ContractError: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "never.pmvt").exists()


# --- synthetic corpus ------------------------------------------------------

def test_synthetic_is_deterministic():
    a = synthetic_shapes(32, image_size=16, seed=7)
    b = synthetic_shapes(32, image_size=16, seed=7)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = synthetic_shapes(32, image_size=16, seed=8)
    assert not np.array_equal(a.images, c.images)


def test_synthetic_classes_balanced():
    ds = synthetic_shapes(50, image_size=16, seed=0)
    assert ds.num_classes == NUM_SHAPE_CLASSES
    counts = np.bincount(ds.labels, minlength=NUM_SHAPE_CLASSES)
    np.testing.assert_array_equal(counts, np.full(NUM_SHAPE_CLASSES, 5))


def test_synthetic_values_in_unit_range():
    ds = synthetic_shapes(20, image_size=12, seed=3)
    assert ds.images.shape == (20, 1, 12, 12)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_synthetic_rejects_nonpositive_count():
    with pytest.raises(ContractError):
        synthetic_shapes(0)


# --- batch ordering --------------------------------------------------------

def test_batches_depend_only_on_seed_and_epoch():
    ds = synthetic_shapes(20, image_size=8, seed=0)

    def order(seed, epoch):
        return np.concatenate([lab for _, lab in
                               batches(ds, 6, seed=seed, epoch=epoch)])

    np.testing.assert_array_equal(order(1, 0), order(1, 0))
    assert not np.array_equal(order(1, 0), order(1, 1))
    assert not np.array_equal(order(1, 0), order(2, 0))


def test_batches_cover_everything_once():
    ds = synthetic_shapes(17, image_size=8, seed=0)
    seen = []
    sizes = []
    for imgs, labs in batches(ds, 5, seed=0, epoch=0):
        assert imgs.shape[0] == labs.shape[0]
        sizes.append(imgs.shape[0])
        seen.append(imgs)
    assert sizes == [5, 5, 5, 2]  # trailing partial batch kept
    stacked = np.concatenate(seen)
    assert stacked.shape[0] == len(ds)
    # every original image appears exactly once
    orig = np.sort(ds.images.reshape(len(ds), -1), axis=0)
    got = np.sort(stacked.reshape(len(ds), -1), axis=0)
    np.testing.assert_array_equal(got, orig)


def test_batches_unshuffled_preserve_order():
    ds = synthetic_shapes(10, image_size=8, seed=0)
    labs = np.concatenate([l for _, l in
                           batches(ds, 4, seed=9, epoch=3, shuffle=False)])
    np.testing.assert_array_equal(labs, ds.labels)


def test_batches_are_the_rows_batch_indices_picks():
    ds = synthetic_shapes(17, image_size=8, seed=0)
    picks = list(batch_indices(17, 5, seed=3, epoch=2))
    # the permutation every earlier run drew, cut into batches
    order = np.random.default_rng([3, 2]).permutation(17)
    np.testing.assert_array_equal(np.concatenate(picks), order)
    for idx, (imgs, labs) in zip(picks, batches(ds, 5, seed=3, epoch=2),
                                 strict=True):
        np.testing.assert_array_equal(imgs, ds.images[idx])
        np.testing.assert_array_equal(labs, ds.labels[idx])


def test_batches_reject_bad_batch_size():
    ds = synthetic_shapes(4, image_size=8, seed=0)
    with pytest.raises(ContractError):
        list(batches(ds, 0, seed=0, epoch=0))

import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prunemerge.checkpoint import (MAGIC, load_arrays, load_model, load_plan,
                                   save_arrays, save_model, save_plan)
from prunemerge.cli import main
from prunemerge.compression import compress_model, global_plan
from prunemerge.errors import (CheckpointError, ContractError,
                               UnsupportedVersionError)
from prunemerge.vit import ModelConfig, VisionTransformer

from helpers import fresh


@pytest.fixture
def sample_arrays():
    rng = np.random.default_rng(17)
    return {
        "weights": rng.standard_normal((3, 4)),
        "counts": np.arange(6, dtype=np.int64).reshape(2, 3),
        "mask": np.array([1, 0, 1], dtype=np.uint8),
        "scalar": np.array(42, dtype=np.int64),
        "empty_axis": np.zeros((0, 5)),
    }


class TestArrayRoundTrip:
    def test_bit_identical(self, tmp_path, sample_arrays):
        path = tmp_path / "arrays.pmvt"
        save_arrays(path, sample_arrays)
        back = load_arrays(path)
        assert set(back) == set(sample_arrays)
        for name, original in sample_arrays.items():
            assert back[name].dtype == original.dtype
            assert back[name].shape == original.shape
            assert back[name].tobytes() == original.tobytes()

    def test_byte_stable_across_saves(self, tmp_path, sample_arrays):
        p1, p2 = tmp_path / "a.pmvt", tmp_path / "b.pmvt"
        save_arrays(p1, sample_arrays)
        save_arrays(p2, sample_arrays)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_arrays_own_writeable_memory(self, tmp_path,
                                                sample_arrays):
        path = tmp_path / "arrays.pmvt"
        save_arrays(path, sample_arrays)
        for name, array in load_arrays(path).items():
            assert array.flags.owndata, name
            assert array.flags.writeable and array.flags.aligned, name

    def test_scalar_stays_zero_dimensional(self, tmp_path):
        path = tmp_path / "s.pmvt"
        save_arrays(path, {"x": np.array(7, dtype=np.int64)})
        assert load_arrays(path)["x"].shape == ()

    def test_noncontiguous_input(self, tmp_path):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        view = base[:, ::2]
        path = tmp_path / "v.pmvt"
        save_arrays(path, {"v": view})
        np.testing.assert_array_equal(load_arrays(path)["v"], view)

    def test_unsupported_dtype_rejected(self, tmp_path):
        for bad in (np.zeros(3, dtype=np.float32),
                    np.zeros(3, dtype=np.int32),
                    np.zeros(3, dtype=bool)):
            with pytest.raises(CheckpointError):
                save_arrays(tmp_path / "bad.pmvt", {"x": bad})

    def test_empty_name_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            save_arrays(tmp_path / "bad.pmvt", {"": np.zeros(1)})


class TestContainerValidation:
    def write_valid(self, path):
        save_arrays(path, {"x": np.arange(4, dtype=np.int64)})
        return bytearray(path.read_bytes())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.pmvt"
        blob = self.write_valid(path)
        blob[:4] = b"NOPE"
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="magic"):
            load_arrays(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "f.pmvt"
        blob = self.write_valid(path)
        blob[4:8] = struct.pack("<I", 99)
        # keep the CRC honest so only the version triggers
        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(UnsupportedVersionError, match="99"):
            load_arrays(path)

    def test_crc_corruption_detected(self, tmp_path):
        path = tmp_path / "f.pmvt"
        blob = self.write_valid(path)
        blob[-6] ^= 0xFF  # flip payload bits, keep stored CRC
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="CRC"):
            load_arrays(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "f.pmvt"
        blob = self.write_valid(path)
        path.write_bytes(bytes(blob[:10]))
        with pytest.raises(CheckpointError, match="short"):
            load_arrays(path)

    def test_magic_constant(self):
        assert MAGIC == b"PMVT"


def small_model():
    config = ModelConfig(image_size=8, patch_size=4, channels=1,
                         embed_dim=8, depth=2, heads=2, num_classes=4)
    return VisionTransformer.build(config, seed=23)


class TestModelCodec:
    def test_base_model_round_trip(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.pmvt"
        save_model(path, model)
        back, extra = load_model(path)
        assert isinstance(back, VisionTransformer)
        assert back.config == model.config
        assert extra == {}
        for (name, a), (_, b) in zip(model.named_parameters(),
                                     back.named_parameters()):
            assert np.array_equal(a.data, b.data), name
        rng = np.random.default_rng(0)
        images = rng.uniform(0, 1, size=(2, 1, 8, 8))
        np.testing.assert_array_equal(model.forward(images).data,
                                      back.forward(images).data)

    def test_compressed_model_round_trip(self, tmp_path):
        model = small_model()
        rng = np.random.default_rng(1)
        scores = [rng.uniform(0.1, 1, size=model.config.num_tokens)
                  for _ in range(2)]
        plan = global_plan(scores, rate=0.6, pm_threshold=0.2)
        comp = compress_model(model, plan, learnable_matrices=True)
        comp.merge_t[0].data[1, :] *= 1.25  # simulate training drift
        path = tmp_path / "comp.pmvt"
        save_model(path, comp)
        back, _ = load_model(path)
        np.testing.assert_array_equal(back.merge_t[0].data,
                                      comp.merge_t[0].data)
        images = rng.uniform(0, 1, size=(2, 1, 8, 8))
        np.testing.assert_array_equal(comp.forward(images).data,
                                      back.forward(images).data)

    def test_extra_arrays_travel_alongside(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.pmvt"
        save_model(path, model, extra={"note": np.array(5, dtype=np.int64)})
        _, extra = load_model(path)
        assert int(extra["note"]) == 5

    def test_extra_name_collision_rejected(self, tmp_path):
        model = small_model()
        with pytest.raises(CheckpointError):
            save_model(tmp_path / "m.pmvt", model,
                       extra={"param.head.w": np.zeros(2)})

    def test_wrong_object_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            save_model(tmp_path / "m.pmvt", object())

    def test_plan_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        scores = [rng.uniform(0.1, 1, size=9) for _ in range(3)]
        plan = global_plan(scores, rate=0.5, pm_threshold=0.2,
                           exempt_layers=(0,))
        path = tmp_path / "plan.pmvt"
        save_plan(path, plan)
        back = load_plan(path)
        assert back.uncompressed == frozenset({0})
        for ea, eb in zip(plan.entries, back.entries):
            if ea is None:
                assert eb is None
                continue
            np.testing.assert_array_equal(ea.merge.data, eb.merge.data)
            np.testing.assert_array_equal(ea.mask, eb.mask)


def _saved_plan_arrays(class_token=True):
    """Arrays of a saved plan with a pruned token in every compressed
    layer and an exempt layer between two compressed ones."""
    rng = np.random.default_rng(91)
    scores = [rng.uniform(0.1, 1.0, size=9) for _ in range(3)]
    plan = global_plan(scores, rate=0.6, pm_threshold=0.2,
                       exempt_layers=(1,), class_token=class_token)
    arrays = plan.to_arrays()
    assert all((arrays[f"plan.layer{l}.mask"] == 0).any() for l in (0, 2))
    return arrays


PLAN_ARRAYS = _saved_plan_arrays()
# A plan built without a class token, its flag flipped: layer 0 prunes
# token 0 and groups live token 1 with it, so the flag cannot hold.
FLIPPED_FLAG_ARRAYS = {**_saved_plan_arrays(class_token=False),
                       "plan.class_token": np.array(1, dtype=np.uint8)}
assert FLIPPED_FLAG_ARRAYS["plan.layer0.mask"][:2].tolist() == [0, 1]
assert FLIPPED_FLAG_ARRAYS["plan.layer0.groups"][0, 1] > 1
ENTRY_KEYS = [f"plan.layer{l}.{k}" for l in (0, 2)
              for k in ("mask", "merge", "reconstruct", "groups")]
CONTAINER_DTYPES = [np.dtype(np.float64), np.dtype(np.int64),
                    np.dtype(np.uint8)]


@st.composite
def one_mutation(draw):
    """A copy of PLAN_ARRAYS with exactly one thing changed."""
    arrays = {k: v.copy() for k, v in PLAN_ARRAYS.items()}
    kind = draw(st.sampled_from(["shape", "dtype", "nonfinite", "bound",
                                 "mask", "pruned", "header", "flag"]))
    layer = draw(st.sampled_from([0, 2]))
    p = f"plan.layer{layer}."
    if kind == "flag":
        arrays = {k: v.copy() for k, v in FLIPPED_FLAG_ARRAYS.items()}
    elif kind == "shape":
        key = draw(st.sampled_from(ENTRY_KEYS))
        a = arrays[key]
        arrays[key] = draw(st.sampled_from([
            a[:-1], np.concatenate([a, a[:1]]), a[None], a.reshape(-1, 1),
            np.stack([a, a], axis=-1)]))
    elif kind == "dtype":
        key = draw(st.sampled_from(ENTRY_KEYS))
        dtype = draw(st.sampled_from(
            [d for d in CONTAINER_DTYPES if d != arrays[key].dtype]))
        arrays[key] = arrays[key].astype(dtype)
    elif kind == "nonfinite":
        a = arrays[p + draw(st.sampled_from(["merge", "reconstruct"]))]
        a[draw(st.integers(0, a.size - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "bound":
        g = arrays[p + "groups"]
        at = (draw(st.integers(0, len(g) - 1)), draw(st.integers(0, 1)))
        g[at] = draw(st.integers(-2 ** 63, 2 ** 63 - 1).filter(
            lambda v: v != g[at]))
    elif kind == "mask":
        m = arrays[p + "mask"]
        j = draw(st.integers(0, m.size - 1))
        m[j] = draw(st.integers(0, 255).filter(lambda v: v != m[j]))
    elif kind == "pruned":
        j = draw(st.sampled_from(
            np.flatnonzero(arrays[p + "mask"] == 0).tolist()))
        arrays[p + draw(st.sampled_from(["merge", "reconstruct"]))][j] = \
            draw(st.floats(allow_nan=False, allow_infinity=False).filter(
                lambda v: v != 0.0))
    else:
        key, value = draw(st.sampled_from([
            ("plan.depth", 2), ("plan.depth", 4),
            ("plan.uncompressed", [1, 2]), ("plan.uncompressed", [])]))
        arrays[key] = np.array(value, dtype=np.int64)
    return arrays


class TestPlanDecoderFuzz:
    """Every single mutation of a saved plan is refused on load with one
    of the documented error types; nothing else escapes."""

    def test_unmutated_plan_loads(self, tmp_path):
        save_arrays(tmp_path / "plan.pmvt", PLAN_ARRAYS)
        load_plan(tmp_path / "plan.pmvt")

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arrays=one_mutation())
    def test_any_mutation_is_refused(self, tmp_path, arrays):
        path = fresh(tmp_path / "plan.pmvt")
        save_arrays(path, arrays)
        with pytest.raises((ContractError, CheckpointError)):
            load_plan(path)


def _container(manifest, payload: bytes) -> bytes:
    """PMVT bytes around a manifest (JSON-able value or raw bytes) and a
    payload, with lengths and CRC made consistent."""
    if not isinstance(manifest, bytes):
        manifest = json.dumps(manifest).encode("utf-8")
    body = MAGIC + struct.pack("<II", 1, len(manifest)) + manifest + payload
    return body + struct.pack("<I", zlib.crc32(body))


def _split(blob: bytes):
    """(manifest, payload) of a well-formed container."""
    manifest_len = struct.unpack("<I", blob[8:12])[0]
    return (json.loads(blob[12:12 + manifest_len]),
            blob[12 + manifest_len:-4])


def _one_array_manifest(name="x", shape=(1, 4)):
    return {"arrays": [{"name": name, "dtype": "i8", "shape": list(shape)}]}


FOUR_I8 = np.arange(4, dtype="<i8").tobytes()
ESCAPED_BEFORE = {
    "negative-dims": _one_array_manifest(shape=(-2, -2)),
    "wrapping-dims": _one_array_manifest(shape=(2 ** 40, 2 ** 40)),
    "manifest-list": [_one_array_manifest()],
    "integer-name": _one_array_manifest(name=3),
    "fractional-dim": _one_array_manifest(shape=(1.5, 4)),
}


class TestContainerStrictness:
    """Manifests that once escaped as ValueError, TypeError or
    AttributeError, or loaded with a coerced shape."""

    @pytest.mark.parametrize("manifest", ESCAPED_BEFORE.values(),
                             ids=ESCAPED_BEFORE.keys())
    def test_refused_with_checkpoint_error(self, tmp_path, manifest):
        path = tmp_path / "x.pmvt"
        path.write_bytes(_container(manifest, FOUR_I8))
        with pytest.raises(CheckpointError):
            load_arrays(path)

    def test_unmutated_manifest_loads(self, tmp_path):
        path = tmp_path / "x.pmvt"
        path.write_bytes(_container(_one_array_manifest(), FOUR_I8))
        assert load_arrays(path)["x"].shape == (1, 4)

    @pytest.mark.parametrize("name,value", [
        ("kind", np.array([0], dtype=np.uint8)),
        ("config.depth", np.array(2.0)),
        ("param.head.b", np.zeros((1, 4))),
        ("param.head.b", np.zeros(4, dtype=np.int64)),
        ("param.block2.w_q", np.zeros((8, 8))),
        ("config.patch_size", np.array(0, dtype=np.int64)),
    ], ids=["kind-1d", "float-config", "param-shape", "param-dtype",
            "stray-param", "zero-patch"])
    def test_model_arrays_are_checked(self, tmp_path, name, value):
        path = tmp_path / "m.pmvt"
        save_model(path, small_model())
        arrays = load_arrays(path)
        arrays[name] = value
        save_arrays(path, arrays)
        with pytest.raises(CheckpointError, match=name.split(".")[-1]):
            load_model(path)


def _traced_peak(fn, *args):
    """(result, peak bytes traced while fn ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingIO:
    """Each direction moves the payload through memory once."""

    def test_load_model_peaks_at_the_parameter_bytes(self, tmp_path):
        config = ModelConfig(image_size=8, patch_size=4, channels=1,
                             embed_dim=160, depth=2, heads=2, num_classes=4)
        model = VisionTransformer.build(config, seed=5)
        param_bytes = sum(p.data.nbytes for _, p in model.named_parameters())
        assert param_bytes >= 4 * 2 ** 20
        path = tmp_path / "m.pmvt"
        save_model(path, model)
        (back, _), peak = _traced_peak(load_model, path)
        assert peak <= param_bytes + 64 * 1024  # no blob, no second copy
        for (name, a), (_, b) in zip(model.named_parameters(),
                                     back.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_save_allocates_well_under_the_payload(self, tmp_path):
        array = np.random.default_rng(6).standard_normal(2 ** 19)  # 4 MB
        _, peak = _traced_peak(save_arrays, tmp_path / "a.pmvt", {"a": array})
        assert peak < array.nbytes // 16
        np.testing.assert_array_equal(load_arrays(tmp_path / "a.pmvt")["a"],
                                      array)

    def test_bytes_equal_the_reference_container(self, tmp_path):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        arrays = {
            "scalar": np.array(-3, dtype=np.int64),
            "empty": np.zeros((0, 5)),
            "strided": base[:, ::2],
            "fortran": np.asfortranarray(base),
            "before": np.linspace(0, 1, 3),
            "flags": np.array([1, 0, 1, 1, 0], dtype=np.uint8),
            "after": np.array([[0.5, -2.0]]),
            "big-endian": np.arange(3, dtype=">i8"),
        }
        manifest = {"arrays": [
            {"name": name, "dtype": {"f": "f8", "i": "i8", "u": "u1"}[
                a.dtype.kind], "shape": list(a.shape)}
            for name, a in arrays.items()]}
        payload = b"".join(a.astype(a.dtype.newbyteorder("<")).tobytes()
                           for a in arrays.values())
        path = tmp_path / "ref.pmvt"
        save_arrays(path, arrays)
        assert path.read_bytes() == _container(manifest, payload)

    def test_oversized_manifest_refused_before_allocating(self, tmp_path):
        path = tmp_path / "x.pmvt"
        path.write_bytes(_container(_one_array_manifest(shape=(2 ** 20,)),
                                    FOUR_I8))  # claims 8 MB, holds 32 bytes

        def refused():
            with pytest.raises(CheckpointError, match="past end"):
                load_arrays(path)

        assert _traced_peak(refused)[1] < 64 * 1024


@pytest.fixture(scope="module")
def base_blob(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("fuzz") / "base.pmvt"
    save_model(path, small_model())
    return path.read_bytes()


WHITESPACE = b" \t\n\r"
ODD_VALUES = st.one_of(
    st.integers(-2 ** 70, -1), st.integers(2 ** 40, 2 ** 70),
    st.floats(allow_nan=False), st.booleans(), st.none(), st.text(max_size=4),
    st.lists(st.integers(0, 4), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 4), max_size=1))


@st.composite
def one_container_mutation(draw, blob):
    """The bytes of a saved base checkpoint with exactly one thing
    changed.  Payload bytes change only with the stored CRC left stale:
    with the CRC rewritten they are just other weights.  For the same
    reason no mutation swaps two same-shaped entries or turns manifest
    whitespace into other whitespace."""
    kind = draw(st.sampled_from(["byte", "resize", "header", "json",
                                 "entry", "manifest"]))
    manifest, payload = _split(blob)
    if kind == "byte":
        at = draw(st.integers(0, len(blob) - 1))
        out = bytearray(blob)
        out[at] ^= draw(st.integers(1, 255))
        return bytes(out)
    if kind == "resize":
        body = blob[:-4]
        k = draw(st.integers(-len(body), 16).filter(bool))
        body = body[:k] if k < 0 else body + bytes(range(k))
        if draw(st.booleans()):
            return body + struct.pack("<I", zlib.crc32(body))
        return body + blob[-4:]
    if kind == "header":
        at = draw(st.sampled_from([0, 4, 8]))
        old = blob[at:at + 4]
        new = draw(st.binary(min_size=4, max_size=4).filter(
            lambda b: b != old))
        body = blob[:at] + new + blob[at + 4:-4]
        return body + struct.pack("<I", zlib.crc32(body))
    raw = json.dumps(manifest).encode("utf-8")
    if kind == "json":
        # any one byte of the manifest text, lengths and CRC kept honest
        at = draw(st.integers(0, len(raw) - 1))
        new = draw(st.integers(0, 255).filter(
            lambda b: b != raw[at]
            and not (b in WHITESPACE and raw[at] in WHITESPACE)))
        return _container(raw[:at] + bytes([new]) + raw[at + 1:], payload)
    entries = manifest["arrays"]
    i = draw(st.integers(0, len(entries) - 1))
    if kind == "entry":
        entry = entries[i]
        field = draw(st.sampled_from(["name", "dtype", "shape", "key"]))
        if field == "name":
            entry["name"] = draw(st.one_of(
                ODD_VALUES, st.just(""),
                st.sampled_from([e["name"] for e in entries]),
                st.text(min_size=1)).filter(lambda v: v != entry["name"]))
        elif field == "dtype":
            entry["dtype"] = draw(st.one_of(
                ODD_VALUES, st.sampled_from(["f8", "i8", "u1", "f4"])).filter(
                lambda v: v != entry["dtype"]))
        elif field == "key":
            key = draw(st.sampled_from(["name", "dtype", "shape", "extra"]))
            if key == "extra":
                entry["extra"] = 0
            else:
                del entry[key]
        else:
            shape = entry["shape"]
            how = draw(st.sampled_from(["dim", "append", "whole"]))
            if how == "dim" and shape:
                j = draw(st.integers(0, len(shape) - 1))
                shape[j] = draw(st.one_of(ODD_VALUES, st.integers(0, 64))
                                .filter(lambda v: v != shape[j]))
            elif how in ("dim", "append"):
                shape.insert(draw(st.integers(0, len(shape))),
                             draw(st.one_of(ODD_VALUES, st.integers(0, 3))))
            else:
                entry["shape"] = draw(ODD_VALUES.filter(
                    lambda v: not isinstance(v, list)))
        return _container(manifest, payload)
    how = draw(st.sampled_from(["drop", "repeat", "wrap", "arrays",
                                "top-key"]))
    if how == "drop":
        del entries[i]
    elif how == "repeat":
        entries.insert(i, dict(entries[i]))
    elif how == "wrap":
        manifest = [manifest]
    elif how == "arrays":
        manifest["arrays"] = draw(ODD_VALUES.filter(
            lambda v: not isinstance(v, list)))
    else:
        manifest["version"] = 1
    return _container(manifest, payload)


class TestContainerDecoderFuzz:
    """Every single mutation of a saved base checkpoint is refused on
    load with CheckpointError (or its UnsupportedVersionError), and
    through the CLI with the one-line error exit."""

    def test_unmutated_checkpoint_loads(self, tmp_path, base_blob):
        path = tmp_path / "m.pmvt"
        path.write_bytes(base_blob)
        assert isinstance(load_model(path)[0], VisionTransformer)
        assert _container(*_split(base_blob)) == base_blob

    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_mutation_is_refused(self, tmp_path, base_blob, data):
        path = fresh(tmp_path / "m.pmvt")
        path.write_bytes(data.draw(one_container_mutation(base_blob)))
        with pytest.raises(CheckpointError):
            load_model(path)

    @settings(max_examples=40, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_cli_reports_one_error_line(self, tmp_path, capsys, base_blob,
                                        data):
        path = fresh(tmp_path / "m.pmvt")
        path.write_bytes(data.draw(one_container_mutation(base_blob)))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(("error: CheckpointError: ",
                               "error: UnsupportedVersionError: "))
        assert err.count("\n") == 1 and "Traceback" not in err

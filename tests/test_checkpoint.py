import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prunemerge.checkpoint import (MAGIC, load_arrays, load_model, load_plan,
                                   save_arrays, save_model, save_plan)
from prunemerge.compression import compress_model, global_plan
from prunemerge.errors import (CheckpointError, ContractError,
                               UnsupportedVersionError)
from prunemerge.vit import ModelConfig, VisionTransformer


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
        path = tmp_path / "plan.pmvt"
        save_arrays(path, arrays)
        with pytest.raises((ContractError, CheckpointError)):
            load_plan(path)

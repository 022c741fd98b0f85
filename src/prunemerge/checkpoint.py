"""PMVT checkpoint container: named arrays in a single self-describing file.

Layout, all integers little-endian:

    bytes 0-3   magic "PMVT"
    bytes 4-7   format version (u32), currently 1
    bytes 8-11  manifest length in bytes (u32)
    ...         manifest: UTF-8 JSON listing (name, dtype code, shape)
                per array, in payload order
    ...         payload: each array's elements, C order, little-endian
    last 4      CRC32 (zlib) of everything before this field

Only three element types exist on purpose — f8 for parameters and
matrices, i8 for indices and counters, u1 for masks and flags — so a
reader never guesses widths.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from .compression import CompressedModel, CompressionPlan
from .errors import CheckpointError, ContractError, UnsupportedVersionError
from .vit import ModelConfig, VisionTransformer, params_from_named

MAGIC = b"PMVT"
VERSION = 1

DTYPE_CODES = {
    "f8": np.dtype("<f8"),
    "i8": np.dtype("<i8"),
    "u1": np.dtype("|u1"),
}
_CODE_FOR_KIND = {"f": "f8", "i": "i8", "u": "u1"}


def _code_for(array: np.ndarray) -> str:
    code = _CODE_FOR_KIND.get(array.dtype.kind)
    if code is None or array.dtype.itemsize != int(code[1]):
        raise CheckpointError(
            f"unsupported dtype {array.dtype}; store f8, i8, or u1")
    return code


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays; round-trips bit-identically through load_arrays."""
    manifest = []
    chunks = []
    for name, array in arrays.items():
        if not isinstance(name, str) or not name:
            raise CheckpointError(f"array name must be a nonempty string, "
                                  f"got {name!r}")
        # note: not ascontiguousarray, which would promote 0-d scalars to
        # 1-d; tobytes() already serializes any layout in C order
        array = np.asarray(array)
        code = _code_for(array)
        manifest.append({"name": name, "dtype": code,
                         "shape": list(array.shape)})
        chunks.append(array.astype(DTYPE_CODES[code], copy=False).tobytes())

    manifest_bytes = json.dumps({"arrays": manifest}).encode("utf-8")
    body = MAGIC + struct.pack("<II", VERSION, len(manifest_bytes)) \
        + manifest_bytes + b"".join(chunks)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", crc))


def _manifest_entry(entry) -> tuple[str, str, tuple[int, ...]]:
    """One manifest entry as (name, dtype code, shape), checked exactly:
    JSON floats, booleans and negative sizes are refused, not coerced."""
    if not (isinstance(entry, dict)
            and set(entry) == {"name", "dtype", "shape"}):
        raise CheckpointError(f"malformed manifest entry {entry!r:.80}")
    name, code, shape = entry["name"], entry["dtype"], entry["shape"]
    if not isinstance(name, str) or not name:
        raise CheckpointError(
            f"array name must be a nonempty string, got {name!r:.80}")
    if not isinstance(code, str) or code not in DTYPE_CODES:
        raise CheckpointError(f"unknown dtype code {code!r:.80}")
    if not (isinstance(shape, list)
            and all(type(s) is int and s >= 0 for s in shape)):
        raise CheckpointError(f"array {name!r}: shape must be a list of "
                              f"nonnegative integers, got {shape!r:.80}")
    return name, code, tuple(shape)


def load_arrays(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 + 4:
        raise CheckpointError(f"file too short ({len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    version, manifest_len = struct.unpack("<II", blob[4:12])
    if version != VERSION:
        raise UnsupportedVersionError(
            f"container version {version} not supported (reader handles "
            f"{VERSION})")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    actual_crc = zlib.crc32(memoryview(blob)[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CheckpointError(
            f"CRC mismatch: stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}")
    if 12 + manifest_len > len(blob) - 4:
        raise CheckpointError("manifest extends past end of file")
    try:
        manifest = json.loads(blob[12:12 + manifest_len].decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise CheckpointError(f"malformed manifest: {e}") from None
    if not (isinstance(manifest, dict) and set(manifest) == {"arrays"}
            and isinstance(manifest["arrays"], list)):
        raise CheckpointError(
            'malformed manifest: expected {"arrays": [...]} at top level')

    arrays: dict[str, np.ndarray] = {}
    offset = 12 + manifest_len
    for entry in manifest["arrays"]:
        name, code, shape = _manifest_entry(entry)
        if name in arrays:
            raise CheckpointError(f"duplicate array name {name!r}")
        dtype = DTYPE_CODES[code]
        count = math.prod(shape)
        end = offset + count * dtype.itemsize
        if end > len(blob) - 4:
            raise CheckpointError(
                f"array {name!r} extends past end of payload")
        try:
            array = np.frombuffer(blob, dtype, count, offset).reshape(shape)
        except ValueError as e:
            raise CheckpointError(f"array {name!r}: {e}") from None
        arrays[name] = array.copy()   # owned, aligned and writeable
        offset = end
    if offset != len(blob) - 4:
        raise CheckpointError(
            f"{len(blob) - 4 - offset} trailing payload bytes not covered "
            f"by the manifest")
    return arrays


# ----------------------------------------------------------------------
# model codec
# ----------------------------------------------------------------------

_CONFIG_FIELDS = ("image_size", "patch_size", "channels", "embed_dim",
                  "depth", "heads", "mlp_ratio", "num_classes")
KIND_BASE = 0
KIND_COMPRESSED = 1


def _config_arrays(config: ModelConfig) -> dict[str, np.ndarray]:
    return {f"config.{name}": np.array(getattr(config, name), dtype=np.int64)
            for name in _CONFIG_FIELDS}


def _int_scalar(arrays: dict[str, np.ndarray], name: str) -> int:
    try:
        value = arrays[name]
    except KeyError:
        raise CheckpointError(f"checkpoint missing {name!r}") from None
    if value.shape != () or value.dtype.kind not in "iu":
        raise CheckpointError(f"{name} must be an integer scalar, got "
                              f"{value.dtype} {value.shape}")
    return int(value)


def _config_from(arrays: dict[str, np.ndarray]) -> ModelConfig:
    kwargs = {name: _int_scalar(arrays, f"config.{name}")
              for name in _CONFIG_FIELDS}
    try:
        return ModelConfig(**kwargs)
    except ContractError as e:
        raise CheckpointError(f"checkpoint config: {e}") from None


def save_model(path, model, extra: dict[str, np.ndarray] | None = None) -> None:
    """Persist a VisionTransformer or CompressedModel.

    Compressed models store their plan (with the current, possibly
    trained, matrices) alongside the block parameters.
    """
    arrays: dict[str, np.ndarray] = {}
    if isinstance(model, CompressedModel):
        arrays["kind"] = np.array(KIND_COMPRESSED, dtype=np.uint8)
        arrays.update(model.export_plan().to_arrays())
    elif isinstance(model, VisionTransformer):
        arrays["kind"] = np.array(KIND_BASE, dtype=np.uint8)
    else:
        raise ContractError(f"cannot checkpoint a {type(model).__name__}")
    arrays.update(_config_arrays(model.config))
    for name, t in model.params.named_parameters():
        arrays[f"param.{name}"] = t.data
    if extra:
        for name, value in extra.items():
            if name in arrays:
                raise CheckpointError(f"extra array {name!r} collides with "
                                      f"a model array")
            arrays[name] = value
    save_arrays(path, arrays)


def load_model(path):
    """Inverse of save_model; returns the model and any extra arrays."""
    arrays = load_arrays(path)
    kind = _int_scalar(arrays, "kind")
    del arrays["kind"]
    config = _config_from(arrays)
    params = {name[len("param."):]: value
              for name, value in arrays.items() if name.startswith("param.")}
    try:
        base = VisionTransformer(config, params_from_named(config, params))
    except ContractError as e:
        raise CheckpointError(f"checkpoint parameters: {e}") from None
    extra = {name: value for name, value in arrays.items()
             if not name.startswith(("param.", "config.", "plan."))}

    if kind == KIND_BASE:
        return base, extra
    if kind == KIND_COMPRESSED:
        plan = CompressionPlan.from_arrays(
            {k: v for k, v in arrays.items() if k.startswith("plan.")})
        model = CompressedModel(base, plan)
        return model, extra
    raise CheckpointError(f"unknown model kind {kind}")


def save_plan(path, plan: CompressionPlan) -> None:
    save_arrays(path, plan.to_arrays())


def load_plan(path) -> CompressionPlan:
    return CompressionPlan.from_arrays(load_arrays(path))

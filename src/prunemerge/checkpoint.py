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

Both directions stream, so the payload passes through memory once.
``save_arrays`` checks every name and dtype and builds the manifest
before it opens the file, then writes each array's bytes straight from
the array (only a non-contiguous or big-endian one is copied first).
``load_arrays`` reads in this order:

1. the 12-byte header and the manifest;
2. every entry, duplicate name, array bound and trailing byte, checked
   against the file size from ``fstat`` before any array is allocated,
   so a manifest that claims more than the file holds costs nothing;
3. one ``readinto`` per array, straight into its own ``np.empty``, so
   each loaded array owns aligned, writeable memory;
4. the CRC, accumulated over header, manifest and arrays as they are
   read, compared with the stored one before any array is returned.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

from .compression import CompressedModel, CompressionPlan
from .errors import CheckpointError, ContractError, UnsupportedVersionError
from .vit import ModelConfig, VisionTransformer, params_from_named

MAGIC = b"PMVT"
VERSION = 1
_HEADER = struct.Struct("<4sII")        # magic, version, manifest length
_CRC = struct.Struct("<I")

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
    payload = []
    for name, array in arrays.items():
        if not isinstance(name, str) or not name:
            raise CheckpointError(f"array name must be a nonempty string, "
                                  f"got {name!r}")
        array = np.asarray(array)
        code = _code_for(array)
        manifest.append({"name": name, "dtype": code,
                         "shape": list(array.shape)})
        payload.append((array, DTYPE_CODES[code]))

    manifest_bytes = json.dumps({"arrays": manifest}).encode("utf-8")
    head = _HEADER.pack(MAGIC, VERSION, len(manifest_bytes)) + manifest_bytes
    crc = zlib.crc32(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for array, dtype in payload:
            data = array.astype(dtype, copy=False)
            if not data.flags.c_contiguous:
                data = data.copy()          # C order; a 0-d array stays 0-d
            fh.write(data)
            crc = zlib.crc32(data, crc)
        fh.write(_CRC.pack(crc))


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


def _layout(manifest_bytes: bytes, payload_len: int
            ) -> list[tuple[str, np.dtype, tuple[int, ...]]]:
    """The arrays a manifest lists, in payload order, once every entry is
    well formed, every name unique and the arrays cover exactly
    ``payload_len`` bytes."""
    try:
        manifest = json.loads(manifest_bytes.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise CheckpointError(f"malformed manifest: {e}") from None
    if not (isinstance(manifest, dict) and set(manifest) == {"arrays"}
            and isinstance(manifest["arrays"], list)):
        raise CheckpointError(
            'malformed manifest: expected {"arrays": [...]} at top level')
    layout, names, offset = [], set(), 0
    for entry in manifest["arrays"]:
        name, code, shape = _manifest_entry(entry)
        if name in names:
            raise CheckpointError(f"duplicate array name {name!r}")
        names.add(name)
        dtype = DTYPE_CODES[code]
        offset += math.prod(shape) * dtype.itemsize
        if offset > payload_len:
            raise CheckpointError(
                f"array {name!r} extends past end of payload")
        layout.append((name, dtype, shape))
    if offset != payload_len:
        raise CheckpointError(
            f"{payload_len - offset} trailing payload bytes not covered "
            f"by the manifest")
    return layout


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read what save_arrays wrote, each array into memory of its own;
    see the module docstring for the order of reads and checks."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size + _CRC.size:
            raise CheckpointError(f"file too short ({size} bytes)")
        header = fh.read(_HEADER.size)
        magic, version, manifest_len = _HEADER.unpack(header)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise UnsupportedVersionError(
                f"container version {version} not supported (reader "
                f"handles {VERSION})")
        payload_len = size - _HEADER.size - manifest_len - _CRC.size
        if payload_len < 0:
            raise CheckpointError("manifest extends past end of file")
        manifest_bytes = fh.read(manifest_len)
        layout = _layout(manifest_bytes, payload_len)

        crc = zlib.crc32(manifest_bytes, zlib.crc32(header))
        arrays: dict[str, np.ndarray] = {}
        for name, dtype, shape in layout:
            try:
                array = np.empty(shape, dtype)
            except ValueError as e:         # a zero-size shape numpy refuses
                raise CheckpointError(f"array {name!r}: {e}") from None
            if fh.readinto(array) != array.nbytes:
                raise CheckpointError(f"array {name!r}: file shrank while "
                                      f"being read")
            crc = zlib.crc32(array, crc)
            arrays[name] = array
        stored = fh.read(_CRC.size)
    if len(stored) != _CRC.size:
        raise CheckpointError("file shrank while being read")
    stored_crc = _CRC.unpack(stored)[0]
    if stored_crc != crc:
        raise CheckpointError(
            f"CRC mismatch: stored {stored_crc:#010x}, computed {crc:#010x}")
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


def int_scalar(value, what: str, error: type[Exception] = ContractError,
               nonnegative: bool = False) -> int:
    """``value`` as an int.  Anything but a 0-d array of a signed or
    unsigned integer dtype (bool is none), or with ``nonnegative`` a
    negative one, raises ``error`` naming ``what``; nothing is coerced."""
    value = np.asarray(value)
    if value.shape != () or value.dtype.kind not in "iu" \
            or (nonnegative and value < 0):
        shown = value.shape if value.ndim else value.item()
        raise error(f"{what} must be a 0-d "
                    f"{'nonnegative ' if nonnegative else ''}integer, got "
                    f"{value.dtype} {shown!r}")
    return int(value)


def _int_scalar(arrays: dict[str, np.ndarray], name: str) -> int:
    try:
        value = arrays[name]
    except KeyError:
        raise CheckpointError(f"checkpoint missing {name!r}") from None
    return int_scalar(value, name, CheckpointError)


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

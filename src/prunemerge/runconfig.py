"""Plain-text run configuration: one `key=value` per line.

Blank lines and `#` comments are ignored.  Every key must exist in the
schema — a misspelled key is an error, never a silent default.  The
CLI's ``--set key=value`` overrides and its dedicated flags (``--rate``
for ``rate`` and so on) pass their raw strings through the same casters.
"""

from __future__ import annotations

import math
from dataclasses import fields
from functools import partial
from pathlib import Path

from .errors import ConfigError, ContractError
from .finetune import DistillConfig
from .scoring import ScorerVariant
from .vit import ModelConfig


def _int(raw: str, low: int | None = None) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}") from None
    if low is not None and value < low:
        raise ConfigError(f"expected an integer >= {low}, got {raw!r}")
    return value


def int_list(raw: str) -> list[int]:
    """Comma-separated integers, each read by ``_int``."""
    return [_int(part.strip()) for part in raw.split(",")]


def _float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _str(raw: str) -> str:
    return raw


def _dataset_kind(raw: str) -> str:
    if raw not in ("synthetic", "idx"):
        raise ConfigError(f"dataset must be 'synthetic' or 'idx', got {raw!r}")
    return raw


def _scorer(raw: str) -> ScorerVariant:
    try:
        return ScorerVariant.from_name(raw)
    except ContractError as e:
        raise ConfigError(str(e)) from None


def _exempt(raw: str) -> str:
    if raw not in ("auto", "none"):
        int_list(raw)
    return raw


# key -> (caster, default).  Defaults are documented values for absent
# keys; they are never applied to unknown or misspelled keys.
SCHEMA: dict[str, tuple] = {
    # model dimensions: ModelConfig's fields and defaults
    **{f.name: (_int, f.default) for f in fields(ModelConfig)},
    # data source
    "dataset": (_dataset_kind, "synthetic"),
    "data_count": (_int, 512),
    "val_count": (partial(_int, low=0), 128),     # 0: no validation
    "data_seed": (_int, 0),
    "idx_images": (_str, ""),
    "idx_labels": (_str, ""),
    # compression
    "rate": (_float, 0.7),
    "pm_threshold": (_float, 0.1),
    "exempt_layers": (_exempt, "auto"),
    # scoring
    "scorer": (_scorer, ScorerVariant.GRAD_WEIGHTED_AVG),
    "iterations": (_int, 8),
    # training
    "epochs": (_int, 5),
    # -1: two thirds of epochs, rounded up
    "freeze_epoch": (partial(_int, low=-1), -1),
    "alpha": (_float, 0.4),
    "temperature": (_float, 1.0),
    "base_lr": (_float, 1e-4),
    "baseline_lr": (_float, 1e-3),
    "weight_decay": (_float, 1e-3),
    "batch_size": (partial(_int, low=1), 32),
    "seed": (_int, 0),
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse and validate key=value lines; returns only the keys present."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{source}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        caster, _ = SCHEMA[key]
        try:
            values[key] = caster(raw)
        except ConfigError as e:
            raise ConfigError(f"{source}:{lineno}: {key}: {e}") from None
    return values


def load_config(path=None, overrides: dict[str, str] | None = None) -> dict:
    """Full configuration: file values (if any), then overrides, then
    schema defaults for everything still absent."""
    values: dict[str, object] = {}
    if path is not None:
        blob = Path(path).read_bytes()
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError as e:
            line = blob.count(b"\n", 0, e.start) + 1
            raise ConfigError(
                f"{path}:{line}: not UTF-8 text ({e.reason})") from None
        values.update(parse_config_text(text, source=str(path)))
    for key, raw in (overrides or {}).items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        caster, _ = SCHEMA[key]
        values[key] = caster(raw)
    for key, (_, default) in SCHEMA.items():
        values.setdefault(key, default)
    return values


def model_config_from(cfg: dict) -> ModelConfig:
    return ModelConfig(**{f.name: cfg[f.name] for f in fields(ModelConfig)})


def distill_config_from(cfg: dict) -> DistillConfig:
    """The keys named like DistillConfig's fields, freeze epoch resolved."""
    values = {f.name: cfg[f.name] for f in fields(DistillConfig)}
    values["freeze_epoch"] = resolve_freeze_epoch(cfg)
    return DistillConfig(**values)


def resolve_exempt(value: str, depth: int) -> tuple[int, ...]:
    """Exempt-layer resolution.

    'auto' mirrors the usual practice of sparing the first and last two
    layers, shrinking on shallow models so at least one layer stays
    compressible: first+last two -> first+last -> nothing.
    """
    if value == "none":
        return ()
    if value == "auto":
        for candidate in ({0, 1, depth - 2, depth - 1}, {0, depth - 1}):
            layers = sorted(c for c in candidate if 0 <= c < depth)
            if len(layers) < depth:
                return tuple(layers)
        return ()
    layers = tuple(sorted(set(int_list(value))))
    for layer in layers:
        if not 0 <= layer < depth:
            raise ConfigError(
                f"exempt layer {layer} outside [0, {depth})")
    return layers


def resolve_freeze_epoch(cfg: dict) -> int:
    """-1 means the conventional two-thirds split (40 of 60 epochs)."""
    if cfg["freeze_epoch"] >= 0:
        return cfg["freeze_epoch"]
    return max(1, -(-2 * cfg["epochs"] // 3))

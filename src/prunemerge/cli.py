"""Command-line front end.

Every subcommand reads its settings from an optional ``--config`` file
(one key=value per line) plus repeatable ``--set key=value`` overrides.
A handful of frequently-swept keys also have dedicated flags
(``FLAG_KEYS``): another spelling of ``--set`` that wins over it, read
by the key's own caster.  Commands read only the resulting config.
Expected failures print a single ``error: <Type>: <detail>``
line to stderr and exit 1 so shell pipelines can parse them.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

import numpy as np

from . import checkpoint
from .compression import compress_model, global_plan
from .data import load_idx_pair, synthetic_shapes
from .errors import CheckpointError, ConfigError, ContractError, NumericError
from .finetune import (evaluate_accuracy, finetune, metrics_to_csv,
                       train_baseline)
from .flops import (_single_blas_worker, benchmark_json, micro_benchmark,
                    model_flops)
from .runconfig import (distill_config_from, int_list, load_config,
                        model_config_from, resolve_exempt)
from .scoring import ScorerVariant, collect_scores, export_scores_csv, \
    load_scores_csv
from .visualize import visualize_merge_map
from .vit import VisionTransformer


# Dedicated flag (argparse dest) -> the config key it spells.
FLAG_KEYS = {"iters": "iterations", "scorer": "scorer", "rate": "rate",
             "pm_threshold": "pm_threshold", "exempt": "exempt_layers",
             "epochs": "epochs", "freeze_at": "freeze_epoch",
             "alpha": "alpha"}


def _config_from_args(args) -> dict:
    """The run configuration: the ``--config`` file, then ``--set``
    overrides, then the dedicated flags, each cast by its key's caster."""
    overrides = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        if key in overrides:
            raise ConfigError(f"--set repeats key {key!r}")
        overrides[key] = value
    for dest, key in FLAG_KEYS.items():
        if getattr(args, dest, None) is not None:
            overrides[key] = getattr(args, dest)
    return load_config(getattr(args, "config", None), overrides)


def _load_datasets(cfg: dict):
    """(train, val) pair; val is None when no validation data exists."""
    if cfg["dataset"] == "idx":
        if not cfg["idx_images"] or not cfg["idx_labels"]:
            raise ConfigError(
                "dataset=idx requires idx_images and idx_labels paths")
        full = load_idx_pair(cfg["idx_images"], cfg["idx_labels"],
                             num_classes=cfg["num_classes"])
        held_out = cfg["val_count"]
        if held_out >= len(full):
            raise ConfigError(
                f"val_count {held_out} leaves no training images of the "
                f"{len(full)} in {cfg['idx_images']}")
        if held_out:
            return (full.subset(0, len(full) - held_out),
                    full.subset(len(full) - held_out, len(full)))
        return full, None
    train = synthetic_shapes(cfg["data_count"], image_size=cfg["image_size"],
                             seed=cfg["data_seed"])
    val = None
    if cfg["val_count"] > 0:
        val = synthetic_shapes(cfg["val_count"],
                               image_size=cfg["image_size"],
                               seed=cfg["data_seed"] + 1)
    return train, val


def _split(cfg: dict, name: str):
    """The 'train' or 'val' dataset; no validation split is an error."""
    train, val = _load_datasets(cfg)
    if name == "train":
        return train
    if val is None:
        raise ContractError("no validation split configured")
    return val


def _load_base_model(path) -> VisionTransformer:
    model, _ = checkpoint.load_model(path)
    if not isinstance(model, VisionTransformer):
        raise ContractError(
            f"{path}: expected an uncompressed base checkpoint")
    return model


def _write_metrics(path, rows) -> None:
    if path:
        Path(path).write_text(metrics_to_csv(rows), encoding="utf-8")


def _final_accuracy(model, metrics, train, val) -> float:
    """Top-1 accuracy after training: the last epoch's validation, which
    the loop already ran on this model, or else a fresh evaluation."""
    if val is not None and metrics:
        return metrics[-1]["val_acc"]
    return evaluate_accuracy(model, val if val is not None else train)


def cmd_train_baseline(args) -> int:
    cfg = _config_from_args(args)
    train, val = _load_datasets(cfg)
    model, metrics = train_baseline(
        model_config_from(cfg), train, epochs=cfg["epochs"],
        base_lr=cfg["baseline_lr"], weight_decay=cfg["weight_decay"],
        batch_size=cfg["batch_size"], seed=cfg["seed"], val_data=val)
    checkpoint.save_model(args.out, model)
    _write_metrics(args.metrics, metrics)
    acc = _final_accuracy(model, metrics, train, val)
    print(f"baseline checkpoint written to {args.out}")
    print(f"top1_accuracy={acc!r}")
    return 0


def cmd_score(args) -> int:
    cfg = _config_from_args(args)
    model = _load_base_model(args.ckpt)
    train, _ = _load_datasets(cfg)
    scores = collect_scores(model, train, iterations=cfg["iterations"],
                            batch_size=cfg["batch_size"],
                            variant=cfg["scorer"], seed=cfg["seed"])
    export_scores_csv(args.out, scores)
    print(f"token scores for {len(scores)} layers written to {args.out}")
    return 0


def cmd_compress(args) -> int:
    cfg = _config_from_args(args)
    model = _load_base_model(args.ckpt)
    scores = load_scores_csv(args.scores)
    exempt = resolve_exempt(cfg["exempt_layers"], len(scores))
    plan = global_plan(scores, cfg["rate"], cfg["pm_threshold"],
                       exempt_layers=exempt)
    plan.check_fits(model.config)
    checkpoint.save_plan(args.out, plan)
    active_total = sum(e.merge.n_tokens for e in plan.entries
                       if e is not None)
    print(f"plan written to {args.out}")
    print(f"kept {plan.total_kept()}/{active_total} tokens across "
          f"{plan.depth - len(plan.uncompressed)} compressed layers "
          f"(exempt: {sorted(plan.uncompressed) or 'none'})")
    print(_plan_table(plan, scores))
    return 0


def _plan_table(plan, scores) -> str:
    """One row per layer: tokens in, kept (groups), merged (live tokens
    folded into another token's group) and pruned; an exempt layer runs
    all its tokens uncompressed."""
    header = (f"{'layer':>6} {'tokens':>7} {'kept':>7} {'merged':>7} "
              f"{'pruned':>7}")
    rows = [header, "-" * len(header)]
    for layer, entry in enumerate(plan.entries):
        if entry is None:
            rows.append(f"{layer:>6} {len(scores[layer]):>7} {'exempt':>7}")
            continue
        tokens, live = entry.merge.n_tokens, int(entry.mask.sum())
        rows.append(f"{layer:>6} {tokens:>7} {entry.kept:>7} "
                    f"{live - entry.kept:>7} {tokens - live:>7}")
    return "\n".join(rows)


def cmd_finetune(args) -> int:
    cfg = _config_from_args(args)
    base = _load_base_model(args.ckpt)
    teacher = (_load_base_model(args.teacher) if args.teacher
               else base).frozen_copy()
    plan = checkpoint.load_plan(args.plan)
    model = compress_model(base, plan, learnable_matrices=True)
    train, val = _load_datasets(cfg)
    model, metrics, _ = finetune(model, teacher, train,
                                 distill_config_from(cfg), val_data=val)
    checkpoint.save_model(args.out, model)
    _write_metrics(args.metrics, metrics)
    acc = _final_accuracy(model, metrics, train, val)
    print(f"fine-tuned checkpoint written to {args.out}")
    print(f"top1_accuracy={acc!r}")
    return 0


def cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    model, _ = checkpoint.load_model(args.ckpt)
    if args.plan:
        if not isinstance(model, VisionTransformer):
            raise ContractError(
                "cannot apply a plan to an already-compressed checkpoint")
        model = compress_model(model, checkpoint.load_plan(args.plan))
    acc = evaluate_accuracy(model, _split(cfg, args.split),
                            batch_size=cfg["batch_size"])
    print(f"top1_accuracy={acc!r}")
    return 0


def cmd_flops(args) -> int:
    cfg = _config_from_args(args)
    plan = checkpoint.load_plan(args.plan) if args.plan else None
    report = model_flops(model_config_from(cfg), plan)
    if args.json:
        import json
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    elif args.csv:
        sys.stdout.write(report.to_csv())
    else:
        print(report.to_table())
    return 0


def cmd_bench(args) -> int:
    sizes = []
    for chunk in args.sizes.split(","):
        n, sep, d = chunk.strip().partition("x")
        if not sep:
            raise ConfigError(f"--sizes expects NxD entries, got {chunk!r}")
        try:
            sizes.append((int(n), int(d)))
        except ValueError:
            raise ConfigError(
                f"--sizes expects integer NxD entries, got {chunk!r}") \
                from None
    reports = [micro_benchmark(n_tokens, dim, repetitions=args.reps,
                               seed=args.seed)
               for n_tokens, dim in sizes]
    if args.json:
        sys.stdout.write(benchmark_json(
            reports[0] if len(reports) == 1 else reports))
        return 0
    for report in reports:
        for name, stats in report["variants"].items():
            print(f"n={report['n_tokens']} d={report['dim']} "
                  f"variant={name} "
                  f"median_us={stats['median_s'] * 1e6:.2f} "
                  f"iqr_us={stats['iqr_s'] * 1e6:.2f} "
                  f"blas_pinned={report['blas_pinned']}")
    return 0


def cmd_visualize(args) -> int:
    cfg = _config_from_args(args)
    plan = checkpoint.load_plan(args.plan)
    config = model_config_from(cfg)
    plan.check_fits(config)
    data = _split(cfg, args.split)
    if not 0 <= args.image < len(data):
        raise ContractError(
            f"image index {args.image} outside [0, {len(data)})")
    image = data.batch(args.image)
    if args.layers == "all":
        layers = list(plan.kept_per_layer())
        if not layers:
            raise ContractError("plan compresses no layers; nothing to draw")
    else:
        layers = int_list(args.layers)
    for layer in layers:
        for path in visualize_merge_map(image, plan, layer, config,
                                        args.out_dir):
            print(f"wrote {path}")
    return 0


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", default=None,
                     help="key=value settings file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one setting (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunemerge",
        description="Token prune-and-merge compression for small vision "
                    "transformers")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser(
        "train-baseline", help="train the uncompressed model")
    _add_config_flags(sub)
    sub.add_argument("--out", required=True, help="checkpoint to write")
    sub.add_argument("--metrics", default=None, help="metrics CSV to write")
    sub.set_defaults(func=cmd_train_baseline)

    sub = commands.add_parser(
        "score", help="accumulate per-layer token importance scores")
    _add_config_flags(sub)
    sub.add_argument("--ckpt", required=True, help="base checkpoint")
    sub.add_argument("--out", required=True, help="scores CSV to write")
    sub.add_argument("--iters", help="scoring batches to accumulate")
    sub.add_argument("--scorer", help="importance-score variant: " +
                     ", ".join(v.value for v in ScorerVariant))
    sub.set_defaults(func=cmd_score)

    sub = commands.add_parser(
        "compress", help="build a budgeted compression plan from scores")
    _add_config_flags(sub)
    sub.add_argument("--ckpt", required=True, help="base checkpoint")
    sub.add_argument("--scores", required=True, help="scores CSV")
    sub.add_argument("--out", required=True, help="plan file to write")
    sub.add_argument("--rate", help="fraction of tokens to keep")
    sub.add_argument("--pm-threshold",
                     help="fraction of tokens to prune outright")
    sub.add_argument("--exempt",
                     help="comma-separated exempt layers, 'auto' or 'none'")
    sub.set_defaults(func=cmd_compress)

    sub = commands.add_parser(
        "finetune", help="distill a compressed model from its teacher")
    _add_config_flags(sub)
    sub.add_argument("--ckpt", required=True, help="base checkpoint")
    sub.add_argument("--plan", required=True, help="compression plan")
    sub.add_argument("--teacher", default=None,
                     help="teacher checkpoint (defaults to --ckpt)")
    sub.add_argument("--out", required=True, help="checkpoint to write")
    sub.add_argument("--metrics", default=None, help="metrics CSV to write")
    sub.add_argument("--epochs")
    sub.add_argument("--freeze-at",
                     help="epoch after which merge matrices freeze "
                          "(-1: two thirds of the epochs)")
    sub.add_argument("--alpha", help="distillation loss weight")
    sub.set_defaults(func=cmd_finetune)

    sub = commands.add_parser("eval", help="top-1 accuracy of a checkpoint")
    _add_config_flags(sub)
    sub.add_argument("--ckpt", required=True)
    sub.add_argument("--plan", default=None,
                     help="apply this plan to a base checkpoint first")
    sub.add_argument("--split", choices=("train", "val"), default="val")
    sub.set_defaults(func=cmd_eval)

    sub = commands.add_parser(
        "flops", help="analytic operation counts, with or without a plan")
    _add_config_flags(sub)
    sub.add_argument("--plan", default=None)
    output = sub.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true")
    output.add_argument("--csv", action="store_true")
    sub.set_defaults(func=cmd_flops)

    sub = commands.add_parser(
        "bench", help="time the grouped merge kernel against the dense matmul")
    sub.add_argument("--sizes", default="197x192",
                     help="comma-separated NxD problem sizes")
    sub.add_argument("--reps", type=int, default=25)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_bench)

    sub = commands.add_parser(
        "visualize", help="render merge maps and reconstructions as PPM")
    _add_config_flags(sub)
    sub.add_argument("--plan", required=True)
    sub.add_argument("--out-dir", required=True)
    sub.add_argument("--image", type=int, default=0,
                     help="dataset index of the image to render")
    sub.add_argument("--split", choices=("train", "val"), default="train")
    sub.add_argument("--layers", default="all",
                     help="comma-separated layer indices or 'all'")
    sub.set_defaults(func=cmd_visualize)

    return parser


EXPECTED_ERRORS = (ContractError, ConfigError, CheckpointError,
                   NumericError, OSError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EXPECTED_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


# Thread-count variables of the pools ``_single_blas_worker`` may pin:
# OpenBLAS reads the first three, threadpoolctl also pins MKL's and BLIS's.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "BLIS_NUM_THREADS")


def entry(argv=None) -> int:
    """The process entry, ``python -m prunemerge.cli`` and the
    ``prunemerge`` script: ``main`` with numpy's floating-point warnings
    off, so that a run driven non-finite ends in the one error line
    alone, and with BLAS pinned to one worker unless one of
    ``BLAS_THREAD_VARIABLES`` is set.  The engine's second lane is the
    parallelism; on a 2-core host two OpenBLAS threads beside it were
    slower and changed the outputs' bits, which then depended on the
    core count.  ``main`` keeps its caller's numpy error state and BLAS
    threads, and so does ``entry`` once it returns."""
    chosen = any(name in os.environ for name in BLAS_THREAD_VARIABLES)
    pin = contextlib.nullcontext() if chosen else _single_blas_worker()
    with np.errstate(all="ignore"), pin:
        return main(argv)


if __name__ == "__main__":
    sys.exit(entry())

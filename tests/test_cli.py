"""End-to-end command-line pipeline on a desk-scale model.

The expensive steps (baseline training, scoring) run once per module;
everything else reuses those artifacts.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from prunemerge import checkpoint, cli, flops
from prunemerge.cli import entry, main
from prunemerge.compression import (CompressedModel, CompressionPlan,
                                    compress_model, identity_plan)

from helpers import read_ppm, uncalled

CONFIG_TEXT = """\
image_size=8
patch_size=4
channels=1
embed_dim=16
depth=2
heads=2
mlp_ratio=2
num_classes=10
data_count=64
val_count=32
epochs=2
batch_size=16
iterations=2
exempt_layers=none
"""

DEIT_TINY_FLAGS = ["--set", "image_size=224", "--set", "patch_size=16",
                   "--set", "channels=3", "--set", "embed_dim=192",
                   "--set", "depth=12", "--set", "heads=3",
                   "--set", "num_classes=1000"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "run.cfg").write_text(CONFIG_TEXT)
    return d


@pytest.fixture(scope="module")
def cfg(workdir):
    return str(workdir / "run.cfg")


@pytest.fixture(scope="module")
def base_ckpt(workdir, cfg):
    out = str(workdir / "base.pmvt")
    assert main(["train-baseline", "--config", cfg, "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def scores_csv(workdir, cfg, base_ckpt):
    out = str(workdir / "scores.csv")
    assert main(["score", "--config", cfg, "--ckpt", base_ckpt,
                 "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def plan_file(workdir, cfg, base_ckpt, scores_csv):
    out = str(workdir / "plan.pmvt")
    assert main(["compress", "--config", cfg, "--ckpt", base_ckpt,
                 "--scores", scores_csv, "--out", out,
                 "--rate", "0.7", "--pm-threshold", "0.2"]) == 0
    return out


def _eval_line(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].startswith("top1_accuracy=")
    return out[-1]


# --- analytic commands -----------------------------------------------------

def test_flops_table_shows_published_baseline(capsys):
    assert main(["flops"] + DEIT_TINY_FLAGS) == 0
    out = capsys.readouterr().out
    assert "1224589824" in out          # encoder total, 1.225 GFLOPs
    assert "102049152" in out           # single block


def test_flops_json_schema(capsys):
    assert main(["flops", "--json"] + DEIT_TINY_FLAGS) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["encoder_total"] == 1224589824
    assert len(doc["layers"]) == 12


def test_flops_with_plan_reports_reduction(workdir, cfg, plan_file, capsys):
    assert main(["flops", "--config", cfg, "--plan", plan_file]) == 0
    out = capsys.readouterr().out
    assert "reduction" in out
    # compression must report a strictly positive saving
    pct = float(out.split("reduction:")[1].strip().rstrip("%"))
    assert pct > 0.0


def test_flops_json_and_csv_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["flops", "--json", "--csv"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --csv: not allowed with argument --json" in err


def test_flops_refuses_plan_of_another_width(cfg, plan_file, capsys):
    # image_size 16 at patch 4: 17 tokens against the plan's 5
    assert main(["flops", "--config", cfg, "--plan", plan_file,
                 "--set", "image_size=16"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: ContractError: layer 0: plan width 5 != model "
                   "tokens 17\n")


def test_bench_json_schema(capsys):
    assert main(["bench", "--sizes", "24x8", "--reps", "10",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_tokens"] == 24 and doc["dim"] == 8
    assert set(doc["variants"]) == {"grouped", "dense"}
    assert isinstance(doc["blas_pinned"], bool)
    for stats in doc["variants"].values():
        assert stats["median_s"] > 0.0


def test_bench_rejects_malformed_sizes(capsys):
    assert main(["bench", "--sizes", "24by8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:") and err.count("\n") == 1


@pytest.mark.parametrize("sizes", ["-5x3", "4x-2", "4x0"])
def test_bench_rejects_non_positive_sizes(capsys, sizes):
    assert main(["bench", f"--sizes={sizes}", "--reps", "10"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ContractError: need positive sizes") \
        and err.count("\n") == 1


# --- pipeline --------------------------------------------------------------

def test_train_baseline_is_deterministic(workdir, cfg, base_ckpt):
    again = workdir / "base2.pmvt"
    assert main(["train-baseline", "--config", cfg,
                 "--out", str(again)]) == 0
    assert again.read_bytes() == (workdir / "base.pmvt").read_bytes()


def test_scores_csv_has_expected_shape(scores_csv):
    lines = Path(scores_csv).read_text().strip().splitlines()
    assert lines[0] == "layer,token_index,score"
    assert len(lines) == 1 + 2 * 5      # depth 2, 4 patches + class token


def test_more_scoring_iterations_change_scores(workdir, cfg, base_ckpt,
                                               scores_csv):
    other = workdir / "scores_more.csv"
    assert main(["score", "--config", cfg, "--ckpt", base_ckpt,
                 "--out", str(other), "--iters", "4"]) == 0
    assert other.read_text() != Path(scores_csv).read_text()


def test_identity_compression_evaluates_identically(workdir, cfg, base_ckpt,
                                                    scores_csv, capsys):
    plan = workdir / "identity.pmvt"
    assert main(["compress", "--config", cfg, "--ckpt", base_ckpt,
                 "--scores", scores_csv, "--out", str(plan),
                 "--rate", "1.0", "--pm-threshold", "0.0"]) == 0
    baseline = _eval_line(capsys, ["eval", "--config", cfg,
                                   "--ckpt", base_ckpt])
    compressed = _eval_line(capsys, ["eval", "--config", cfg,
                                     "--ckpt", base_ckpt,
                                     "--plan", str(plan)])
    assert baseline == compressed


def test_compress_refuses_scores_of_another_width(workdir, cfg, base_ckpt,
                                                  capsys):
    from prunemerge.scoring import export_scores_csv
    narrow = workdir / "narrow_scores.csv"
    rng = np.random.default_rng(5)
    export_scores_csv(narrow, [rng.uniform(0.1, 1.0, size=4)
                               for _ in range(2)])
    out = workdir / "never_narrow.pmvt"
    assert main(["compress", "--config", cfg, "--ckpt", base_ckpt,
                 "--scores", str(narrow), "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == ("error: ContractError: layer 0: plan width 4 != model "
                   "tokens 5\n")
    assert not out.exists()


def test_compress_refuses_scores_of_another_depth(workdir, cfg, base_ckpt,
                                                  capsys):
    from prunemerge.scoring import export_scores_csv
    shallow = workdir / "shallow_scores.csv"
    export_scores_csv(shallow, [np.linspace(0.1, 1.0, 5)])
    out = workdir / "never_shallow.pmvt"
    assert main(["compress", "--config", cfg, "--ckpt", base_ckpt,
                 "--scores", str(shallow), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: ContractError: plan depth 1 != model depth 2\n")
    assert not out.exists()


def test_compress_reports_budget(workdir, cfg, base_ckpt, scores_csv,
                                 plan_file, capsys):
    # rerun to capture the summary for an existing plan configuration
    assert main(["compress", "--config", cfg, "--ckpt", base_ckpt,
                 "--scores", scores_csv, "--out", plan_file,
                 "--rate", "0.7", "--pm-threshold", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "kept 7/10 tokens" in out    # round(0.7 * 2 layers * 5 tokens)


@pytest.mark.parametrize("exempt", ["none", "1"])
def test_compress_prints_per_layer_table(workdir, cfg, base_ckpt, scores_csv,
                                         capsys, exempt):
    out = workdir / f"table-{exempt}.pmvt"
    assert main(["compress", "--config", cfg, "--ckpt", base_ckpt,
                 "--scores", scores_csv, "--out", str(out), "--exempt",
                 exempt, "--rate", "0.7", "--pm-threshold", "0.2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index(next(l for l in lines
                          if l.split()[:2] == ["layer", "tokens"]))
    rows = [line.split() for line in lines[at + 2:]]
    plan = checkpoint.load_plan(out)
    assert [int(row[0]) for row in rows] == list(range(plan.depth))
    kept = 0
    for row, entry in zip(rows, plan.entries):
        if entry is None:
            assert row[1:] == ["5", "exempt"]
            continue
        tokens, k, merged, pruned = map(int, row[1:])
        live = int(entry.mask.sum())
        assert tokens == entry.mask.size == k + merged + pruned
        assert (k + merged, pruned) == (live, tokens - live)
        kept += k
    assert kept == plan.total_kept()
    assert (exempt == "1") == (1 in plan.uncompressed)


def test_finetune_writes_checkpoint_and_metrics(workdir, cfg, base_ckpt,
                                                plan_file, capsys):
    out = workdir / "tuned.pmvt"
    metrics = workdir / "ft.csv"
    assert main(["finetune", "--config", cfg, "--ckpt", base_ckpt,
                 "--plan", plan_file, "--out", str(out),
                 "--metrics", str(metrics), "--epochs", "1",
                 "--freeze-at", "1"]) == 0
    capsys.readouterr()
    model, _ = checkpoint.load_model(out)
    assert isinstance(model, CompressedModel)
    rows = metrics.read_text().strip().splitlines()
    assert rows[0] == "epoch,step,loss,ce,kl,lr,val_acc"
    assert len(rows) == 1 + 4           # 64 examples / batch 16, 1 epoch


def test_finetune_reads_its_checkpoint_once(workdir, cfg, base_ckpt,
                                            plan_file, monkeypatch, capsys):
    loads = []
    load_model = checkpoint.load_model

    def counting(path):
        loads.append(str(path))
        return load_model(path)

    monkeypatch.setattr(checkpoint, "load_model", counting)
    outputs = {}
    for teacher in ([], ["--teacher", base_ckpt]):
        loads.clear()
        out, metrics = workdir / "once.pmvt", workdir / "once.csv"
        assert main(["finetune", "--config", cfg, "--ckpt", base_ckpt,
                     "--plan", plan_file, "--out", str(out),
                     "--metrics", str(metrics), "--epochs", "1"]
                    + teacher) == 0
        assert loads == [base_ckpt] * (2 if teacher else 1)
        outputs[bool(teacher)] = (out.read_bytes(), metrics.read_bytes())
    capsys.readouterr()
    # the teacher copied from the loaded base is the teacher read again
    assert outputs[False] == outputs[True]


def test_finetune_freeze_at_minus_one_is_auto(workdir, cfg, base_ckpt,
                                              plan_file, capsys):
    # -1 resolves to two thirds of 3 epochs, rounded up: epoch 2.
    outputs = []
    for freeze in (["--freeze-at", "-1"], ["--freeze-at", "2"],
                   ["--set", "freeze_epoch=-1"]):
        out, metrics = workdir / "auto.pmvt", workdir / "auto.csv"
        assert main(["finetune", "--config", cfg, "--ckpt", base_ckpt,
                     "--plan", plan_file, "--out", str(out),
                     "--metrics", str(metrics), "--epochs", "3"]
                    + freeze) == 0
        outputs.append((out.read_bytes(), metrics.read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1] == outputs[2]


def test_non_finite_loss_is_one_line_error(workdir, cfg, base_ckpt,
                                           plan_file, capsys):
    # A learning rate of 1e300 throws the student's weights far out after
    # its first step, so a later loss goes non-finite.
    out = workdir / "never_tuned.pmvt"
    with np.errstate(invalid="ignore"):
        code = main(["finetune", "--config", cfg, "--ckpt", base_ckpt,
                     "--plan", plan_file, "--out", str(out),
                     "--set", "base_lr=1e300"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: NumericError: ") and err.count("\n") == 1
    assert not out.exists()


def test_non_finite_run_prints_one_line_in_a_process(workdir, cfg, base_ckpt,
                                                     plan_file):
    # The same run as above in a process of its own, as a shell runs it:
    # numpy warns on stderr before the error line unless the process
    # entry turns its floating-point warnings off.
    out = workdir / "never_tuned_in_a_process.pmvt"
    proc = subprocess.run(
        [sys.executable, "-m", "prunemerge.cli", "finetune", "--config", cfg,
         "--ckpt", base_ckpt, "--plan", plan_file, "--out", str(out),
         "--set", "base_lr=1e300"], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: NumericError: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert not out.exists()


def test_eval_refuses_a_checkpoint_with_a_non_finite_parameter(
        workdir, cfg, base_ckpt, capsys):
    arrays = checkpoint.load_arrays(base_ckpt)
    arrays["param.head.w"][3, 1] = np.inf
    poisoned = workdir / "poisoned.pmvt"
    checkpoint.save_arrays(poisoned, arrays)
    assert main(["eval", "--config", cfg, "--ckpt", str(poisoned)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: CheckpointError: parameter 'head.w' "
                            "is not finite\n")


def test_eval_refuses_labels_the_model_cannot_output(workdir, cfg, capsys):
    from prunemerge.runconfig import load_config, model_config_from
    from prunemerge.vit import VisionTransformer
    four = model_config_from(load_config(cfg, {"num_classes": "4"}))
    ckpt = workdir / "four_classes.pmvt"
    checkpoint.save_model(ckpt, VisionTransformer.build(four, seed=0))
    # One batch holds all 32 validation images, labels 0 to 9.
    assert main(["eval", "--config", cfg, "--ckpt", str(ckpt),
                 "--set", "batch_size=32"]) == 1
    assert capsys.readouterr().err == (
        "error: ContractError: labels must lie in [0, 4), got range "
        "[0, 9]\n")


def test_eval_train_split(workdir, cfg, base_ckpt, capsys):
    line = _eval_line(capsys, ["eval", "--config", cfg, "--ckpt", base_ckpt,
                               "--split", "train"])
    acc = float(line.split("=")[1])
    assert 0.0 <= acc <= 1.0


def test_visualize_writes_valid_pixmaps(workdir, cfg, plan_file, capsys):
    out_dir = workdir / "viz"
    assert main(["visualize", "--config", cfg, "--plan", plan_file,
                 "--out-dir", str(out_dir), "--image", "3"]) == 0
    capsys.readouterr()
    for layer in (0, 1):
        for kind in ("merge", "reconstruction"):
            pixels = read_ppm(out_dir / f"layer{layer}_{kind}.ppm")
            assert pixels.shape == (8, 8, 3)


def test_visualize_draws_the_named_split(workdir, cfg, plan_file, capsys):
    from prunemerge.cli import _load_datasets
    from prunemerge.runconfig import load_config, model_config_from
    from prunemerge.visualize import render_merge_map
    config = load_config(cfg)
    _, val = _load_datasets(config)
    out_dir = workdir / "viz_val"
    assert main(["visualize", "--config", cfg, "--plan", plan_file,
                 "--out-dir", str(out_dir), "--image", "3",
                 "--split", "val", "--layers", "0"]) == 0
    capsys.readouterr()
    want, _ = render_merge_map(val.batch(3),
                               checkpoint.load_plan(plan_file).entries[0],
                               model_config_from(config))
    np.testing.assert_array_equal(read_ppm(out_dir / "layer0_merge.ppm"),
                                  want)


@pytest.mark.parametrize("command", ["eval", "visualize"])
def test_val_split_without_validation_is_one_line_error(workdir, cfg,
                                                        base_ckpt, plan_file,
                                                        capsys, command):
    out_dir = workdir / "never_val_viz"
    argv = [command, "--config", cfg, "--set", "val_count=0",
            "--split", "val"]
    if command == "eval":
        argv += ["--ckpt", base_ckpt]
    else:
        argv += ["--plan", plan_file, "--out-dir", str(out_dir),
                 "--image", "3"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: ContractError: no validation split configured\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["flops", "visualize"])
def test_plan_of_another_depth_is_one_line_error(tmp_path, cfg, capsys,
                                                 command):
    # The config's model has depth 2 and 5 tokens; the plan has 3 layers.
    plan = tmp_path / "deep.pmvt"
    checkpoint.save_plan(plan, identity_plan(3, 5))
    out_dir = tmp_path / "never_viz"
    argv = [command, "--config", cfg, "--plan", str(plan)]
    if command == "visualize":
        argv += ["--out-dir", str(out_dir)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: ContractError: plan depth 3 != model depth 2\n"
    assert not out_dir.exists()


def test_visualize_rejects_bad_image_index(workdir, cfg, plan_file, capsys):
    assert main(["visualize", "--config", cfg, "--plan", plan_file,
                 "--out-dir", str(workdir / "viz2"),
                 "--image", "9999"]) == 1
    assert "error: ContractError:" in capsys.readouterr().err


# --- error contract --------------------------------------------------------

def test_unknown_config_key_is_one_line_error(workdir, capsys):
    bad = workdir / "bad.cfg"
    bad.write_text("lerning_rate=3\n")
    assert main(["eval", "--config", str(bad), "--ckpt", "x.pmvt"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ")
    assert "lerning_rate" in err and err.count("\n") == 1


def test_missing_checkpoint_is_one_line_error(capsys):
    assert main(["eval", "--ckpt", "/nonexistent/base.pmvt"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError:")
    assert err.count("\n") == 1


def test_score_rejects_compressed_checkpoint(workdir, cfg, base_ckpt,
                                             plan_file, capsys):
    model, _ = checkpoint.load_model(base_ckpt)
    plan = checkpoint.load_plan(plan_file)
    comp_path = workdir / "comp.pmvt"
    checkpoint.save_model(comp_path, compress_model(model, plan))
    assert main(["score", "--config", cfg, "--ckpt", str(comp_path),
                 "--out", str(workdir / "nope.csv")]) == 1
    assert "uncompressed base checkpoint" in capsys.readouterr().err


def test_eval_rejects_plan_on_compressed_checkpoint(workdir, cfg, plan_file,
                                                    capsys):
    assert main(["eval", "--config", cfg,
                 "--ckpt", str(workdir / "comp.pmvt"),
                 "--plan", plan_file]) == 1
    assert "already-compressed" in capsys.readouterr().err


def _open_a_gap(arrays):
    arrays["plan.layer0.groups"][1, 0] += 1


def _dense_era_merge(arrays):
    # plans once stored M densely, (kept, N); only per-token vectors load
    entry = CompressionPlan.from_arrays(arrays).entries[0]
    arrays["plan.layer0.merge"] = entry.merge.data


@pytest.mark.parametrize("corrupt", [_open_a_gap, _dense_era_merge],
                         ids=["gap", "dense-era-merge"])
def test_plan_with_gap_is_one_line_error(workdir, cfg, base_ckpt, plan_file,
                                        capsys, corrupt):
    arrays = checkpoint.load_arrays(plan_file)
    corrupt(arrays)
    bad = str(workdir / "bad.pmvt")
    checkpoint.save_arrays(bad, arrays)
    assert main(["eval", "--config", cfg, "--ckpt", base_ckpt,
                 "--plan", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ContractError: plan layer 0:")
    assert err.count("\n") == 1


SCORE_ROW_DEFECTS = {
    "non-numeric-score": b"0,1,abc",
    "short-row": b"0,1",
    "long-row": b"0,1,0.5,9",
    "non-integer-index": b"0,x,0.5",
    "repeated-token": b"0,0,0.5",
    "invalid-utf8": b"0,1,0.5\xff",
    "oversized-field": b"0,1," + b"9" * 200_000,
}


@pytest.mark.parametrize("row", SCORE_ROW_DEFECTS.values(),
                         ids=SCORE_ROW_DEFECTS.keys())
def test_malformed_scores_row_is_one_line_error(tmp_path, cfg, base_ckpt,
                                               scores_csv, capsys, row):
    lines = Path(scores_csv).read_bytes().splitlines()
    lines[2] = row                      # line 3: layer 0, token 1
    bad = tmp_path / "bad_scores.csv"
    bad.write_bytes(b"\n".join(lines) + b"\n")
    out = tmp_path / "never.pmvt"
    assert main(["compress", "--config", cfg, "--ckpt", base_ckpt,
                 "--scores", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ContractError: {bad}:3: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_config_with_invalid_utf8_is_one_line_error(workdir, capsys):
    bad = workdir / "latin1.cfg"
    bad.write_bytes("epochs=2\n# caf\u00e9\n".encode("latin-1"))
    assert main(["flops", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ConfigError: {bad}:2: not UTF-8")
    assert err.count("\n") == 1


def test_zero_patch_size_is_one_line_error(capsys):
    assert main(["flops", "--set", "patch_size=0"]) == 1
    err = capsys.readouterr().err
    assert err == "error: ContractError: patch_size must be positive\n"


INTEGER_LIST_DEFECTS = {
    "exempt-word": ("compress", "x", "'x'"),
    "exempt-empty-item": ("compress", "0,,1", "''"),
    "exempt-empty": ("compress", "", "''"),
    "layers-word": ("visualize", "x", "'x'"),
}


@pytest.mark.parametrize("command, value, shown",
                         INTEGER_LIST_DEFECTS.values(),
                         ids=INTEGER_LIST_DEFECTS.keys())
def test_bad_integer_list_is_one_line_error(tmp_path, cfg, base_ckpt,
                                            scores_csv, plan_file, capsys,
                                            command, value, shown):
    if command == "compress":
        out = tmp_path / "never.pmvt"
        argv = ["compress", "--config", cfg, "--ckpt", base_ckpt,
                "--scores", scores_csv, "--out", str(out), "--exempt", value]
    else:
        out = tmp_path / "never_viz"
        argv = ["visualize", "--config", cfg, "--plan", plan_file,
                "--out-dir", str(out), "--layers", value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: ConfigError: expected an integer, got {shown}\n"
    assert not out.exists()


HYPERPARAMETER_DEFECTS = {
    "alpha-nan": ("finetune", ["--set", "alpha=nan"],
                  "expected a finite number, got 'nan'"),
    "alpha-flag-inf": ("finetune", ["--alpha", "inf"],
                       "expected a finite number, got 'inf'"),
    "decay-negative": ("finetune", ["--set", "weight_decay=-5"],
                       "weight_decay must be nonnegative and finite, got "
                       "-5.0"),
    "baseline-lr-inf": ("train-baseline", ["--set", "baseline_lr=inf"],
                        "expected a finite number, got 'inf'"),
    "baseline-decay-negative": ("train-baseline",
                                ["--set", "weight_decay=-1e-3"],
                                "weight_decay must be nonnegative and "
                                "finite, got -0.001"),
}


@pytest.mark.parametrize("command, extra, detail",
                         HYPERPARAMETER_DEFECTS.values(),
                         ids=HYPERPARAMETER_DEFECTS.keys())
def test_bad_hyperparameter_is_one_line_error(workdir, cfg, base_ckpt,
                                              plan_file, capsys, command,
                                              extra, detail):
    out = workdir / "never_trained.pmvt"
    argv = [command, "--config", cfg, "--out", str(out)] + extra
    if command == "finetune":
        argv += ["--ckpt", base_ckpt, "--plan", plan_file]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: ConfigError: {detail}\n"
    assert not out.exists()


@pytest.mark.parametrize("scorer", ["random", "grad_weighted_avg"])
def test_score_refuses_idx_dataset_without_paths(workdir, cfg, base_ckpt,
                                                 capsys, scorer):
    # Every scorer loads the datasets, so all refuse the same configs,
    # although the random scorer reads no image.
    out = workdir / "never_scored.csv"
    assert main(["score", "--config", cfg, "--ckpt", base_ckpt,
                 "--out", str(out), "--scorer", scorer,
                 "--set", "dataset=idx"]) == 1
    assert capsys.readouterr().err == (
        "error: ConfigError: dataset=idx requires idx_images and "
        "idx_labels paths\n")
    assert not out.exists()


FLAG_COMMANDS = {"iters": "score", "scorer": "score", "rate": "compress",
                 "pm_threshold": "compress", "exempt": "compress",
                 "epochs": "finetune", "freeze_at": "finetune",
                 "alpha": "finetune"}


@pytest.mark.parametrize("dest", sorted(FLAG_COMMANDS))
def test_dedicated_flag_is_its_config_key(workdir, cfg, base_ckpt,
                                          scores_csv, plan_file, capsys,
                                          dest):
    from prunemerge.cli import FLAG_KEYS
    assert set(FLAG_KEYS) == set(FLAG_COMMANDS)
    command, key = FLAG_COMMANDS[dest], FLAG_KEYS[dest]
    out = workdir / "never_flagged.pmvt"
    argv = [command, "--config", cfg, "--out", str(out),
            "--ckpt", base_ckpt]
    if command == "compress":
        argv += ["--scores", scores_csv]
    if command == "finetune":
        argv += ["--plan", plan_file]
    errors = []
    for spelling in (["--" + dest.replace("_", "-"), "x"],
                     ["--set", f"{key}=x"]):
        assert main(argv + spelling) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: ConfigError: ")
    assert "'x'" in errors[0]
    assert not out.exists()


def test_dedicated_flag_wins_over_set(workdir, cfg, base_ckpt, scores_csv,
                                      plan_file, capsys):
    out = workdir / "flag_wins.pmvt"
    assert main(["compress", "--config", cfg, "--ckpt", base_ckpt,
                 "--scores", scores_csv, "--out", str(out),
                 "--set", "rate=x", "--set", "pm_threshold=0.9",
                 "--rate", "0.7", "--pm-threshold", "0.2"]) == 0
    capsys.readouterr()
    assert out.read_bytes() == Path(plan_file).read_bytes()


CONFIG_RANGE_DEFECTS = {
    "val-count-negative": ("train-baseline", "val_count=-1",
                           "expected an integer >= 0, got '-1'"),
    "freeze-epoch-below-auto": ("finetune", "freeze_epoch=-5",
                                "expected an integer >= -1, got '-5'"),
    "batch-size-zero": ("train-baseline", "batch_size=0",
                        "expected an integer >= 1, got '0'"),
}


@pytest.mark.parametrize("command, setting, detail",
                         CONFIG_RANGE_DEFECTS.values(),
                         ids=CONFIG_RANGE_DEFECTS.keys())
def test_config_value_out_of_range_is_one_line_error(workdir, cfg, base_ckpt,
                                                     plan_file, capsys,
                                                     command, setting,
                                                     detail):
    out = workdir / "never_ranged.pmvt"
    argv = [command, "--config", cfg, "--out", str(out), "--set", setting]
    if command == "finetune":
        argv += ["--ckpt", base_ckpt, "--plan", plan_file]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {detail}\n"
    assert not out.exists()


@pytest.mark.parametrize("held_out", [6, 7])
def test_idx_val_count_leaving_no_training_images_is_refused(tmp_path,
                                                             capsys,
                                                             held_out):
    from prunemerge.data import write_idx
    write_idx(tmp_path / "img.idx", np.zeros((6, 8, 8), dtype=np.uint8))
    write_idx(tmp_path / "lab.idx", np.arange(6, dtype=np.uint8))
    out = tmp_path / "never.pmvt"
    argv = ["train-baseline", "--out", str(out)]
    for setting in (f"idx_images={tmp_path / 'img.idx'}",
                    f"idx_labels={tmp_path / 'lab.idx'}", "dataset=idx",
                    "image_size=8", "patch_size=4", f"val_count={held_out}"):
        argv += ["--set", setting]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: ConfigError: val_count {held_out} leaves no training "
        f"images of the 6 in {tmp_path / 'img.idx'}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-baseline", "finetune"])
def test_final_accuracy_is_the_last_validation(workdir, cfg, base_ckpt,
                                               plan_file, capsys,
                                               monkeypatch, command):
    # The last epoch already validated the final model; the command
    # prints that accuracy instead of evaluating once more.
    from prunemerge import cli
    finetune = importlib.import_module("prunemerge.finetune")
    calls = []

    def spy(model, dataset, batch_size=64):
        calls.append(batch_size)
        return evaluate(model, dataset, batch_size)

    evaluate = finetune.evaluate_accuracy
    monkeypatch.setattr(finetune, "evaluate_accuracy", spy)
    monkeypatch.setattr(cli, "evaluate_accuracy", spy)
    metrics = workdir / f"{command}.csv"
    argv = [command, "--config", cfg, "--out",
            str(workdir / f"{command}.pmvt"), "--metrics", str(metrics)]
    if command == "finetune":
        argv += ["--ckpt", base_ckpt, "--plan", plan_file]
    assert main(argv) == 0
    assert calls == [64, 64]                  # epochs=2, once per epoch
    last = metrics.read_text().strip().split("\n")[-1].split(",")[-1]
    assert f"top1_accuracy={float(last)!r}\n" in capsys.readouterr().out


def test_entry_pins_blas_to_one_worker_unless_a_thread_variable_is_set(
        monkeypatch):
    controls = flops._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread controls in this process")
    get, set_ = controls[0]
    former = get()
    seen = []
    monkeypatch.setattr(cli, "main", lambda argv: seen.append(get()) or 0)
    for name in cli.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    set_(2)
    try:
        threads = get()
        assert entry([]) == 0 and get() == threads
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.setenv(name, str(threads))
            assert entry([]) == 0 and get() == threads
            monkeypatch.delenv(name)
    finally:
        set_(former)
    assert seen == [1, threads, threads]


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["flops", "--not-a-flag"])
    assert exc.value.code != 0


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "prunemerge.cli", "flops"] + DEIT_TINY_FLAGS,
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "1224589824" in proc.stdout


# Functions of the modules below that no command calls, and why each
# stays; every other function and method they define must run in the
# chain of the test that follows.
UNCALLED_BY_DESIGN = {
    "data.write_idx": "perfbench and the tests write IDX inputs",
    "scoring.prune_count_for": "the pm_threshold path of "
                               "generate_merge_matrix",
}


def test_program_paths_call_every_function_of_the_commands(tmp_path):
    # Every command in-process at the default model shape: each scorer,
    # eval with and without a plan and on an IDX pair, flops in all three
    # formats, bench as text and JSON, and visualize of named layers,
    # all under a config file that sets a float key.
    from prunemerge.data import write_idx
    from prunemerge.scoring import ScorerVariant
    modules = [importlib.import_module(f"prunemerge.{name}") for name in (
        "vit", "scoring", "finetune", "flops", "data", "checkpoint",
        "runconfig", "cli", "visualize")]
    write_idx(tmp_path / "img.idx", np.zeros((24, 28, 28), dtype=np.uint8))
    write_idx(tmp_path / "lab.idx", np.arange(24, dtype=np.uint8) % 10)
    (tmp_path / "run.cfg").write_text(
        "data_count=32\nval_count=16\nepochs=2\nbatch_size=16\n"
        "iterations=1\nrate=0.7\nexempt_layers=none\n")
    cfg = ["--config", str(tmp_path / "run.cfg")]
    idx = ["--set", "dataset=idx", "--set", "val_count=8",
           "--set", f"idx_images={tmp_path / 'img.idx'}",
           "--set", f"idx_labels={tmp_path / 'lab.idx'}"]
    base, scores, plan, student = (str(tmp_path / name) for name in (
        "base.pmvt", "scores.csv", "plan.pmvt", "student.pmvt"))
    bench = ["bench", "--sizes", "8x4", "--reps", "10"]
    chain = [["train-baseline", *cfg, "--out", base,
              "--metrics", base + ".csv"]]
    chain += [["score", *cfg, "--ckpt", base, "--out", scores,
               "--scorer", variant.value] for variant in ScorerVariant]
    chain += [
        ["compress", *cfg, "--ckpt", base, "--scores", scores, "--out", plan],
        ["finetune", *cfg, "--ckpt", base, "--plan", plan, "--out", student,
         "--metrics", student + ".csv"],
        ["eval", *cfg, "--ckpt", student],
        ["eval", *cfg, "--ckpt", base, "--plan", plan],
        ["eval", *cfg, *idx, "--ckpt", base],
        ["flops", *cfg, "--plan", plan],
        ["flops", *cfg, "--json"],
        ["flops", *cfg, "--csv"],
        bench, bench + ["--json"],
        ["visualize", *cfg, "--plan", plan,
         "--out-dir", str(tmp_path / "maps"), "--layers", "0,1"],
    ]

    def paths():
        for argv in chain[:-1]:
            assert main(argv) == 0, argv
        # The last command through the process entry, as the script runs.
        assert entry(chain[-1]) == 0, chain[-1]

    never = uncalled(modules, paths)
    allowed = set(UNCALLED_BY_DESIGN)
    assert never == allowed, (
        f"never called: {sorted(never - allowed)}; "
        f"called though allowed or not defined: {sorted(allowed - never)}")

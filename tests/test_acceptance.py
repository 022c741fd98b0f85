"""End-to-end acceptance checks.

Each test is one acceptance criterion and prints exactly one
[PASS]/[FAIL] line, visible with ``pytest tests/test_acceptance.py -v -s``
(without ``-s`` the lines appear in the captured output of failures).
Criteria with a stated wall-clock budget enforce it; the shared training
pipeline is built once, inside the first criterion that needs it, so its
cost is charged against that criterion's budget.
"""

import functools
import math
import time

import numpy as np

from prunemerge import data, flops, vit
from prunemerge import tensor as T
from prunemerge.compression import (PlanEntry, compress_model,
                                    generate_merge_matrix, global_plan,
                                    grouped_merge, identity_plan, pm_forward,
                                    pseudoinverse)
from prunemerge.finetune import (DistillConfig, evaluate_accuracy, finetune,
                                 train_baseline)
from prunemerge.scoring import ScorerVariant, collect_scores, scores_from_trace
from prunemerge.tensor import Tensor
from prunemerge.vit import ModelConfig, VisionTransformer

from helpers import assert_grads_close, dense_pinv, numeric_grad


def criterion(num: int, summary: str, budget_s: float | None = None):
    """Wrap a test so it reports one pass/fail line for its criterion."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - t0
                if budget_s is not None and elapsed >= budget_s:
                    raise AssertionError(
                        f"ran {elapsed:.1f}s, budget {budget_s:.0f}s")
            except BaseException:
                print(f"\n[FAIL] criterion {num}: {summary}")
                raise
            print(f"\n[PASS] criterion {num}: {summary} ({elapsed:.1f}s)")
        return wrapper
    return deco


DEIT_TINY = ModelConfig(image_size=224, patch_size=16, channels=3,
                        embed_dim=192, depth=12, heads=3, num_classes=1000)

# Small enough to train on CPU in seconds, large enough that compression
# has something to remove: 2x2 grid of 14px patches plus the class token.
ACC_CFG = ModelConfig(image_size=28, patch_size=14, channels=1, embed_dim=48,
                      depth=2, heads=4, mlp_ratio=2, num_classes=10)

_PIPELINE: dict = {}


def pipeline() -> dict:
    """Baseline model + scores, trained once and shared across criteria."""
    if not _PIPELINE:
        train = data.synthetic_shapes(2048, image_size=28, seed=0)
        val = data.synthetic_shapes(512, image_size=28, seed=1)
        model, _ = train_baseline(ACC_CFG, train, epochs=30, base_lr=1e-3,
                                  batch_size=32, seed=0)
        scores = collect_scores(model, train, iterations=8, batch_size=32,
                                seed=0)
        _PIPELINE.update(train=train, val=val, model=model, scores=scores)
    return _PIPELINE


@criterion(1, "per-block multiply-adds equal 12*N*D^2 + 2*N^2*D", budget_s=1.0)
def test_criterion_1_block_count_closed_form():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(1, 1024))
        d = int(rng.integers(1, 1024))
        total = sum(flops.block_flops(n, d).values())
        assert total == 12 * n * d * d + 2 * n * n * d
    per_block = sum(flops.block_flops(197, 192).values())
    assert per_block == 102_049_152
    encoder = 12 * per_block
    assert encoder == 1_224_589_824
    assert abs(encoder - 1.3e9) <= 0.10 * 1.3e9


@criterion(2, "pseudoinverse: Moore-Penrose identities and SVD agreement",
           budget_s=10.0)
def test_criterion_2_pseudoinverse():
    rng = np.random.default_rng(202)
    # Three boundary shapes, then random draws up to 200 total.
    cases = [(6, 1, 5, True), (8, 8, 0, False), (5, 1, 0, False)]
    while len(cases) < 200:
        n = int(rng.integers(2, 40))
        class_token = bool(rng.integers(0, 2))
        keep = int(rng.integers(2 if class_token else 1, n + 1))
        prune = int(rng.integers(0, n - keep + 1))
        cases.append((n, keep, prune, class_token))
    for n, keep, prune, class_token in cases:
        scores = rng.uniform(0.05, 1.0, size=n)
        merge = generate_merge_matrix(scores, keep, prune,
                                      class_token=class_token)
        m = merge.data
        p = dense_pinv(merge)
        assert np.abs(m @ p @ m - m).max() < 1e-6
        assert np.abs(p @ m @ p - p).max() < 1e-6
        mp, pm = m @ p, p @ m
        assert np.abs(mp - mp.T).max() < 1e-6
        assert np.abs(pm - pm.T).max() < 1e-6
        assert np.abs(p - np.linalg.pinv(m)).max() < 1e-8


@criterion(3, "compressed forward: exact passthrough, identity equivalence, "
              "grouped kernel equals dense", budget_s=10.0)
def test_criterion_3_compressed_forward():
    rng = np.random.default_rng(303)
    cfg = ModelConfig(image_size=12, patch_size=4, channels=1, embed_dim=16,
                      depth=1, heads=2, mlp_ratio=2, num_classes=4)
    model = VisionTransformer.build(cfg, seed=3)
    blk = model.params.blocks[0]
    n = cfg.num_tokens

    # Pruned positions ride the shortcut: bit-identical to the input.
    scores = rng.uniform(0.05, 1.0, size=n)
    merge = generate_merge_matrix(scores, 4, 3, class_token=True)
    mask = merge.live.astype(np.uint8)
    entry = PlanEntry(merge, pseudoinverse(merge))
    z = Tensor(rng.standard_normal((2, n, cfg.embed_dim)))
    out = pm_forward(z, entry, blk, cfg.heads)
    pruned = np.flatnonzero(mask == 0)
    assert pruned.size == 3
    assert np.array_equal(out.data[:, pruned, :], z.data[:, pruned, :])

    # An identity plan reproduces the uncompressed block.
    ident = identity_plan(cfg.depth, n)
    out_i = pm_forward(z, ident.entries[0], blk, cfg.heads)
    ref = vit.block_forward(z, blk, cfg.heads)
    assert np.abs(out_i.data - ref.data).max() < 1e-12

    # Grouped kernel against the dense matmul, both input layouts.
    for _ in range(100):
        nt = int(rng.integers(2, 48))
        d = int(rng.integers(1, 40))
        class_token = bool(rng.integers(0, 2))
        keep = int(rng.integers(2 if class_token else 1, nt + 1))
        prune = int(rng.integers(0, nt - keep + 1))
        s = rng.uniform(0.05, 1.0, size=nt)
        mg = generate_merge_matrix(s, keep, prune, class_token=class_token)
        zz = rng.standard_normal((nt, d))
        assert np.abs(grouped_merge(zz, mg) - mg.data @ zz).max() < 1e-12
        zb = rng.standard_normal((3, nt, d))
        assert np.abs(grouped_merge(zb, mg) - mg.data @ zb).max() < 1e-12


@criterion(4, "analytic gradients match central finite differences",
           budget_s=60.0)
def test_criterion_4_finite_differences():
    cfg = ModelConfig(image_size=8, patch_size=4, channels=1, embed_dim=8,
                      depth=2, heads=2, mlp_ratio=2, num_classes=3)
    assert (cfg.depth, cfg.heads, cfg.num_tokens) == (2, 2, 5)
    model = VisionTransformer.build(cfg, seed=44)
    rng = np.random.default_rng(404)
    images = rng.uniform(size=(2, 1, 8, 8))
    labels = np.array([0, 2])

    traces: list[vit.AttentionTrace] = []
    loss = T.cross_entropy(model.forward(images, traces=traces), labels)
    T.backward(loss)
    analytic = {name: p.grad.copy() for name, p in model.named_parameters()}
    attn_analytic = [tr.grads.copy() for tr in traces]

    def loss_value():
        return float(T.cross_entropy(model.forward(images), labels).data)

    checked = 0
    for name, p in model.named_parameters():
        fd = numeric_grad(loss_value, p.data)
        assert_grads_close(analytic[name], fd)
        checked += p.data.size
    assert checked > 1000  # every parameter of the model, not a sample

    # dL/dA probed through the additive hook on the post-softmax maps.
    for layer in range(cfg.depth):
        bump = np.zeros((2, cfg.heads, 5, 5))

        def bumped_loss(layer=layer, bump=bump):
            logits = model.forward(images, attn_bumps={layer: bump})
            return float(T.cross_entropy(logits, labels).data)

        fd = numeric_grad(bumped_loss, bump)
        assert_grads_close(attn_analytic[layer], fd)


# ----------------------------------------------------------------------
# criterion 5: an independent, deliberately naive planner implementation
# ----------------------------------------------------------------------

def _oracle_rows(scores, reserved, pruned, class_token):
    """Reference mask/rows/groups from explicit index sets, plain Python."""
    n = len(scores)
    start = 1 if class_token else 0
    pruned = set(int(j) for j in pruned)
    reserved = sorted(int(j) for j in reserved)
    rows, groups = [], []
    if class_token:
        row = [0.0] * n
        row[0] = 1.0
        rows.append(row)
        groups.append((0, 1) if reserved else (0, n))
    prev = start - 1
    for i, r in enumerate(reserved):
        a = prev + 1
        b = n if i == len(reserved) - 1 else r + 1
        seg = [0.0 if j in pruned else float(scores[j]) for j in range(a, b)]
        total = sum(seg)
        row = [0.0] * n
        for off, w in enumerate(seg):
            row[a + off] = w / total
        rows.append(row)
        groups.append((a, b))
        prev = r
    mask = [0 if j in pruned else 1 for j in range(n)]
    return mask, np.array(rows), groups


def _oracle_single(scores, keep, prune, class_token):
    n = len(scores)
    start = 1 if class_token else 0
    body = sorted(range(start, n), key=lambda j: (-scores[j], j))
    reserved = body[:keep - start]
    pruned = body[len(body) - prune:] if prune else []
    return _oracle_rows(scores, reserved, pruned, class_token)


def _oracle_plan(all_scores, rate, tau, exempt):
    depth = len(all_scores)
    active = [l for l in range(depth) if l not in exempt]
    flat = [(float(all_scores[l][t]), l, t)
            for l in active for t in range(1, len(all_scores[l]))]
    total = sum(len(all_scores[l]) for l in active)
    keep = math.floor(rate * total + 0.5)
    prune = min(math.floor(tau * total + 0.5), total - keep)
    order = sorted(range(len(flat)), key=lambda i: (-flat[i][0], i))
    chosen = set(order[:keep - len(active)])
    dropped = set(order[len(order) - prune:] if prune else [])
    out = {}
    for l in active:
        reserved = [flat[i][2] for i in chosen if flat[i][1] == l]
        pruned = [flat[i][2] for i in dropped if flat[i][1] == l]
        out[l] = _oracle_rows(all_scores[l], reserved, pruned, True)
    return out


def _compare_entry(mask, merge, oracle_triple):
    emask, erows, egroups = oracle_triple
    assert np.array_equal(np.asarray(mask), np.array(emask))
    assert [tuple(map(int, g)) for g in merge.groups] == egroups
    assert merge.data.shape == erows.shape
    assert np.array_equal(merge.data != 0, erows != 0)  # exact index sets
    assert np.abs(merge.data - erows).max() < 1e-12


@criterion(5, "planner matches a brute-force sort-and-threshold oracle; "
              "budgets are exact", budget_s=30.0)
def test_criterion_5_planner_oracle():
    rng = np.random.default_rng(505)

    # Single layer: 100 random score vectors plus the degenerate corners.
    singles = [(6, 1, 5, True), (7, 7, 0, False), (9, 1, 0, False)]
    for _ in range(100):
        n = int(rng.integers(4, 64))
        class_token = bool(rng.integers(0, 2))
        keep = int(rng.integers(2 if class_token else 1, n + 1))
        prune = int(rng.integers(0, n - keep + 1))
        singles.append((n, keep, prune, class_token))
    for n, keep, prune, class_token in singles:
        scores = rng.uniform(0.01, 1.0, size=n)
        merge = generate_merge_matrix(scores, keep, prune,
                                      class_token=class_token)
        mask = merge.live.astype(np.uint8)
        _compare_entry(mask, merge,
                       _oracle_single(list(scores), keep, prune, class_token))

    # Cross-layer plans: 25 draws x 4 layers of fresh score vectors.
    for _ in range(25):
        depth = int(rng.integers(2, 5))
        n = int(rng.integers(6, 40))
        all_scores = [rng.uniform(0.01, 1.0, size=n) for _ in range(depth)]
        n_exempt = int(rng.integers(0, depth))
        exempt = set(int(l) for l in
                     rng.choice(depth, size=n_exempt, replace=False))
        rate = float(rng.uniform(0.45, 0.95))
        tau = float(rng.uniform(0.0, 0.6))
        plan = global_plan(all_scores, rate, tau,
                           exempt_layers=sorted(exempt))
        oracle = _oracle_plan(all_scores, rate, tau, exempt)
        for l in range(depth):
            if l in exempt:
                assert plan.entries[l] is None
            else:
                _compare_entry(plan.entries[l].mask, plan.entries[l].merge,
                               oracle[l])

    # Keep budgets land exactly on the rounded target.
    n, depth = 20, 6
    all_scores = [rng.uniform(0.01, 1.0, size=n) for _ in range(depth)]
    for rate in (0.5, 0.6, 0.7, 0.8):
        plan = global_plan(all_scores, rate, 0.1, exempt_layers=())
        assert plan.total_kept() == math.floor(rate * n * depth + 0.5)


@criterion(6, "compression holds accuracy under distillation; heavier "
              "pruning costs more", budget_s=1800.0)
def test_criterion_6_end_to_end_accuracy():
    pipe = pipeline()
    base = evaluate_accuracy(pipe["model"], pipe["val"])
    assert base >= 0.90

    teacher = pipe["model"].frozen_copy()
    dc = DistillConfig(epochs=12, freeze_epoch=8, alpha=0.4, temperature=1.0,
                       base_lr=1e-4, weight_decay=1e-3, batch_size=32, seed=0)
    acc = {}
    for tau in (0.1, 0.5):
        plan = global_plan(pipe["scores"], 0.7, tau, exempt_layers=())
        student = compress_model(pipe["model"], plan, learnable_matrices=True)
        student, _, _ = finetune(student, teacher, pipe["train"], dc)
        acc[tau] = evaluate_accuracy(student, pipe["val"])

    print(f"\n  baseline {base:.4f}   tau=0.1 {acc[0.1]:.4f}   "
          f"tau=0.5 {acc[0.5]:.4f}")
    assert base - acc[0.1] <= 0.02 + 1e-9   # within two points
    assert acc[0.5] < acc[0.1]              # all-prune strictly worse


@criterion(7, "scores: positive gradient rescaling is plan-invariant; "
              "attention averages normalize; iterations matter",
           budget_s=300.0)
def test_criterion_7_score_properties():
    pipe = pipeline()
    model, train = pipe["model"], pipe["train"]
    n = ACC_CFG.num_tokens
    params = [p for _, p in model.named_parameters()]
    images, labels = next(iter(data.batches(train, 32, seed=9, epoch=0)))

    def scores_with_loss_scale(c):
        traces: list[vit.AttentionTrace] = []
        loss = T.cross_entropy(model.forward(images, traces=traces), labels)
        T.backward(loss * c)
        per_layer = [scores_from_trace(tr, ScorerVariant.GRAD_WEIGHTED_AVG)
                     for tr in traces]
        T.zero_grads(params)
        return per_layer

    plain = scores_with_loss_scale(1.0)
    scaled = scores_with_loss_scale(37.0)
    for rate in (0.5, 0.7):
        for tau in (0.1, 0.3):
            pa = global_plan(plain, rate, tau, exempt_layers=())
            pb = global_plan(scaled, rate, tau, exempt_layers=())
            for ea, eb in zip(pa.entries, pb.entries):
                assert np.array_equal(ea.mask, eb.mask)
                assert ea.merge.groups == eb.merge.groups

    attn_scores = collect_scores(model, train, iterations=2, batch_size=32,
                                 variant=ScorerVariant.ATTN_ONLY_AVG, seed=0)
    for s in attn_scores:
        assert abs(s.sum() - n) < 1e-8  # each query row is a distribution

    one = collect_scores(model, train, iterations=1, batch_size=32, seed=0)
    many = collect_scores(model, train, iterations=500, batch_size=32, seed=0)
    assert any(np.abs(a - b).max() > 1e-6 for a, b in zip(one, many))


@criterion(8, "identity-plan overhead is exactly 6*N*D per layer; grouped "
              "kernel beats the dense matmul")
def test_criterion_8_overhead_and_walltime():
    for cfg in (DEIT_TINY, ACC_CFG):
        base_rep = flops.model_flops(cfg)
        ident = identity_plan(cfg.depth, cfg.num_tokens)
        comp_rep = flops.model_flops(cfg, ident)
        extra = comp_rep.encoder_total - base_rep.encoder_total
        assert extra == cfg.depth * 6 * cfg.num_tokens * cfg.embed_dim

    lines = []
    for n_tok, dim in ((64, 64), (128, 128), (197, 192)):
        rep = flops.micro_benchmark(n_tok, dim, repetitions=300, seed=0)
        g = rep["variants"]["grouped"]["median_s"]
        d = rep["variants"]["dense"]["median_s"]
        lines.append(f"  N={n_tok:>3} D={dim:>3}:  grouped {g * 1e6:7.2f} us"
                     f"   dense {d * 1e6:7.2f} us")
        assert g <= d, f"grouped slower at N={n_tok}, D={dim}"
    print("\n" + "\n".join(lines))

import numpy as np
import pytest

from prunemerge import flops
from prunemerge.compression import (CompressionPlan, PlanEntry,
                                    generate_merge_matrix, global_plan,
                                    identity_plan, pseudoinverse)
from prunemerge.errors import ContractError
from prunemerge.flops import (FlopsReport, block_flops, micro_benchmark,
                              model_flops, overhead_flops)
from prunemerge.vit import ModelConfig

DEIT_TINY = ModelConfig(image_size=224, patch_size=16, channels=3,
                        embed_dim=192, depth=12, heads=3, num_classes=1000)


def plan_keeping(kept: dict[int, int]) -> CompressionPlan:
    """A DeiT-tiny plan whose layer l keeps ``kept[l]`` tokens, its class
    token among them, each entry built with ``generate_merge_matrix``; the
    other layers are exempt.  A layer that keeps its class token alone
    prunes every other token."""
    rng = np.random.default_rng(0)
    n = DEIT_TINY.num_tokens
    entries: list[PlanEntry | None] = [None] * DEIT_TINY.depth
    for layer, m in kept.items():
        scores = rng.uniform(0.1, 1, n)
        merge = generate_merge_matrix(scores, m, 0 if m > 1 else n - 1,
                                      class_token=True)
        entries[layer] = PlanEntry(merge, pseudoinverse(merge))
    return CompressionPlan(entries)


class TestBlockFlops:
    def test_deit_tiny_block_total(self):
        counts = block_flops(197, 192)
        assert sum(counts.values()) == 102_049_152

    def test_closed_form_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 10_000))
            d = int(rng.integers(1, 10_000))
            assert sum(block_flops(n, d).values()) \
                == 12 * n * d * d + 2 * n * n * d

    def test_single_token_boundary(self):
        d = 64
        assert sum(block_flops(1, d).values()) == 12 * d * d + 2 * d

    def test_attention_terms_scale_quadratically(self):
        a = block_flops(256, 16)
        b = block_flops(512, 16)
        assert b["qk_t"] == 4 * a["qk_t"]
        assert b["av"] == 4 * a["av"]

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ContractError):
            block_flops(0, 192)
        with pytest.raises(ContractError):
            block_flops(197, 0)

    def test_overhead_totals_six_nd(self):
        counts = overhead_flops(197, 192)
        assert sum(counts.values()) == 6 * 197 * 192
        assert counts["merge"] == counts["reconstruct"] == 2 * 197 * 192


class TestModelFlops:
    def test_deit_tiny_encoder_total(self):
        report = model_flops(DEIT_TINY)
        assert report.encoder_total == 12 * 102_049_152 == 1_224_589_824
        # the published rounded figure includes stem and head; the exact
        # encoder number sits within 10% of 1.3 G
        assert abs(report.encoder_total - 1.3e9) / 1.3e9 < 0.10

    def test_uniform_keep_rate_reduction(self):
        m = round(0.7 * 197)
        plan = plan_keeping(dict.fromkeys(range(12), m))
        report = model_flops(DEIT_TINY, plan)
        per_block = sum(block_flops(m, 192).values()) + 6 * 197 * 192
        assert report.encoder_total == 12 * per_block
        expected = 1.0 - (12 * per_block) / 1_224_589_824
        assert report.reduction == pytest.approx(expected, abs=1e-12)
        assert 0.30 < report.reduction < 0.35

    def test_identity_plan_costs_exactly_the_overhead(self):
        report = model_flops(DEIT_TINY, identity_plan(12, 197))
        baseline = model_flops(DEIT_TINY)
        assert report.encoder_total - baseline.encoder_total \
            == 12 * 6 * 197 * 192
        assert report.reduction < 0

    def test_monotone_in_kept_tokens(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            kept = {layer: int(rng.integers(2, 198)) for layer in range(12)}
            total = model_flops(DEIT_TINY, plan_keeping(kept)).encoder_total
            layer = int(rng.integers(0, 12))
            kept2 = dict(kept)
            kept2[layer] = max(1, kept[layer] - int(rng.integers(1, 50)))
            assert model_flops(DEIT_TINY,
                               plan_keeping(kept2)).encoder_total <= total

    def test_accepts_compression_plan(self):
        config = ModelConfig(image_size=8, patch_size=4, channels=1,
                             embed_dim=8, depth=2, heads=2)
        rng = np.random.default_rng(10)
        scores = [rng.uniform(0.1, 1, size=config.num_tokens)
                  for _ in range(2)]
        plan = global_plan(scores, rate=0.6, pm_threshold=0.2)
        report = model_flops(config, plan)
        kept = plan.kept_per_layer()
        manual = sum(sum(block_flops(kept[l], 8).values())
                     + 6 * config.num_tokens * 8 for l in range(2))
        assert report.encoder_total == manual

    def test_plan_depth_mismatch(self):
        with pytest.raises(ContractError,
                           match=r"^plan depth 13 != model depth 12$"):
            model_flops(DEIT_TINY, identity_plan(13, 197))

    def test_plan_width_mismatch(self):
        config = ModelConfig(image_size=8, patch_size=4, channels=1,
                             embed_dim=8, depth=2, heads=2)
        wider = ModelConfig(image_size=16, patch_size=4, channels=1,
                            embed_dim=8, depth=2, heads=2)
        rng = np.random.default_rng(11)
        plan = global_plan([rng.uniform(0.1, 1, size=config.num_tokens)
                            for _ in range(2)], rate=0.6, pm_threshold=0.2)
        with pytest.raises(ContractError,
                           match=r"^layer 0: plan width 5 != model tokens "
                                 r"17$"):
            model_flops(wider, plan)

    def test_stem_and_head_line_items(self):
        report = model_flops(DEIT_TINY)
        assert report.patch_embed == 196 * (16 * 16 * 3) * 192
        assert report.head == 192 * 1000
        assert report.total == report.encoder_total \
            + report.patch_embed + report.head

    def test_informational_items_outside_totals(self):
        report = model_flops(DEIT_TINY)
        assert "softmax_elements" in report.informational
        untouched = FlopsReport(layers=report.layers,
                                patch_embed=report.patch_embed,
                                head=report.head,
                                baseline_encoder_total=1)
        assert untouched.total == report.total

    def test_csv_and_json_round_numbers(self):
        report = model_flops(DEIT_TINY)
        csv = report.to_csv()
        assert "0,qkv,21786624\n" in csv  # 3*197*192^2
        assert f"total,encoder,{report.encoder_total}\n" in csv
        blob = report.to_json()
        assert blob["encoder_total"] == report.encoder_total
        assert blob["reduction"] == report.reduction
        table = report.to_table()
        assert "reduction" in table


class TestMicroBenchmark:
    def test_schema_and_correctness_gate(self):
        report = micro_benchmark(n_tokens=64, dim=32, repetitions=10)
        assert set(report) == {"n_tokens", "dim", "repetitions",
                               "blas_pinned", "variants"}
        assert isinstance(report["blas_pinned"], bool)
        assert set(report["variants"]) == {"grouped", "dense"}
        for stats in report["variants"].values():
            assert set(stats) == {"median_s", "iqr_s"}
            assert stats["median_s"] > 0

    def test_blas_pinned_then_thread_count_restored(self, monkeypatch):
        monkeypatch.setattr(flops, "threadpool_limits", None)
        controls = flops._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread-count functions in this process")
        previous = [get() for get, _ in controls]
        seen = []
        original = flops.grouped_merge

        def spy(*args):
            seen.append([get() for get, _ in controls])
            return original(*args)

        monkeypatch.setattr(flops, "grouped_merge", spy)
        try:
            for _, set_ in controls:
                set_(2)
            report = micro_benchmark(n_tokens=32, dim=16, repetitions=10)
            assert report["blas_pinned"] is True
            assert seen and all(counts == [1] * len(controls)
                                for counts in seen)
            assert [get() for get, _ in controls] == [2] * len(controls)
        finally:
            for (_, set_), count in zip(controls, previous):
                set_(count)

    def test_repetition_floor(self):
        with pytest.raises(ContractError):
            micro_benchmark(repetitions=9)

    def test_relative_ordering_reported_at_scale(self):
        # wall-clock ordering is machine-specific and deliberately not
        # asserted; this exercises the harness at a realistic size and
        # surfaces the comparison in the test log
        report = micro_benchmark(n_tokens=256, dim=256, repetitions=15)
        grouped = report["variants"]["grouped"]["median_s"]
        dense = report["variants"]["dense"]["median_s"]
        assert np.isfinite(grouped) and np.isfinite(dense)
        print(f"grouped={grouped:.3e}s dense={dense:.3e}s "
              f"ratio={grouped / dense:.2f}")

import math

import numpy as np
import pytest

from prunemerge import tensor as T
from prunemerge.compression import (CompressionPlan, compress_model,
                                    global_plan, pm_forward_tensors)
from prunemerge.data import synthetic_shapes
from prunemerge.errors import ConfigError, ContractError, NumericError
from prunemerge.finetune import (METRICS_HEADER, AdamW, DistillConfig,
                                 TrainState, cosine_lr, evaluate_accuracy,
                                 finetune, metrics_to_csv, self_distill_loss,
                                 train_baseline)
from prunemerge.tensor import Tensor
from prunemerge.vit import ModelConfig, VisionTransformer


def tiny_config():
    return ModelConfig(image_size=8, patch_size=4, channels=1,
                       embed_dim=8, depth=2, heads=2, num_classes=4)


def tiny_dataset(count=32, seed=3):
    data = synthetic_shapes(count, image_size=8, seed=seed)
    # fold the ten shape classes onto the tiny model's four logits
    return data.__class__(data.images, data.labels % 4, num_classes=4)


@pytest.fixture(scope="module")
def compressed_pair():
    config = tiny_config()
    base = VisionTransformer.build(config, seed=5)
    rng = np.random.default_rng(6)
    scores = [rng.uniform(0.1, 1.0, size=config.num_tokens)
              for _ in range(config.depth)]
    plan = global_plan(scores, rate=0.7, pm_threshold=0.1)
    return base, plan


class TestDistillConfig:
    def test_freeze_epoch_bounds(self):
        DistillConfig(epochs=6, freeze_epoch=4)
        with pytest.raises(ConfigError):
            DistillConfig(epochs=6, freeze_epoch=0)
        with pytest.raises(ConfigError):
            DistillConfig(epochs=6, freeze_epoch=7)

    def test_zero_epochs_allowed(self):
        DistillConfig(epochs=0, freeze_epoch=0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError):
            DistillConfig(epochs=2, freeze_epoch=1, alpha=-0.1)

    def test_temperature_positive(self):
        with pytest.raises(ConfigError):
            DistillConfig(epochs=2, freeze_epoch=1, temperature=0.0)


class TestSelfDistillLoss:
    def test_alpha_zero_is_plain_cross_entropy(self):
        rng = np.random.default_rng(11)
        student = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        teacher = Tensor(rng.standard_normal((4, 5)))
        labels = np.array([0, 1, 2, 3])
        loss, ce, _ = self_distill_loss(student, teacher, labels, alpha=0.0)
        ref = T.cross_entropy(Tensor(student.data), labels)
        assert float(loss.data) == float(ce.data) == float(ref.data)

    def test_matching_logits_zero_kl(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((3, 4))
        student = Tensor(logits.copy(), requires_grad=True)
        teacher = Tensor(logits.copy())
        labels = np.array([0, 1, 2])
        loss, ce, kl = self_distill_loss(student, teacher, labels, alpha=0.7)
        assert float(kl.data) == pytest.approx(0.0, abs=1e-15)
        assert float(loss.data) == pytest.approx(float(ce.data), abs=1e-15)

    def test_hand_oracle(self):
        student = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        teacher = Tensor(np.array([[2.0, 1.0]]))
        labels = np.array([0])
        loss, ce, kl = self_distill_loss(student, teacher, labels,
                                         alpha=1.0, temperature=1.0)
        assert float(ce.data) == pytest.approx(math.log(1 + math.e),
                                               abs=1e-12)
        assert float(kl.data) == pytest.approx(0.4621171572600098, abs=1e-12)
        assert float(loss.data) == pytest.approx(1.7753788447782326,
                                                 abs=1e-12)

    def test_gradient_reaches_student_only(self):
        rng = np.random.default_rng(13)
        student = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        teacher = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        loss, _, _ = self_distill_loss(student, teacher, np.array([0, 1]),
                                       alpha=0.5)
        T.backward(loss)
        assert student.grad is not None
        assert teacher.grad is None


class TestCosineLr:
    def test_endpoints(self):
        assert cosine_lr(0, 100, 1e-3) == pytest.approx(1e-3)
        assert cosine_lr(100, 100, 1e-3) == pytest.approx(0.0, abs=1e-18)
        assert cosine_lr(50, 100, 1e-3) == pytest.approx(5e-4)

    def test_monotone_decreasing(self):
        values = [cosine_lr(s, 60, 1e-4) for s in range(61)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_min_lr_floor(self):
        assert cosine_lr(100, 100, 1e-3, min_lr=1e-5) == pytest.approx(1e-5)


class TestAdamW:
    def test_single_step_matches_hand_formula(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.array([0.5, -1.0])
        opt = AdamW([("p", p)], weight_decay=0.0)
        opt.step(lr=0.01)
        # bias-corrected first step: update = lr * g / (|g| + eps)
        expected = np.array([1.0, -2.0]) - 0.01 * np.array([0.5, -1.0]) / (
            np.abs([0.5, -1.0]) + 1e-8)
        np.testing.assert_allclose(p.data, expected, rtol=1e-7)

    def test_decay_skips_vectors(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        w.grad = np.zeros((2, 2))
        b.grad = np.zeros(2)
        opt = AdamW([("w", w), ("b", b)], weight_decay=0.1)
        opt.step(lr=1.0)
        np.testing.assert_allclose(w.data, 0.9 * np.ones((2, 2)))
        np.testing.assert_allclose(b.data, np.ones(2))

    def test_none_grad_leaves_param_untouched(self):
        w = Tensor(np.full((2, 2), 3.0), requires_grad=True)
        opt = AdamW([("w", w)], weight_decay=0.5)
        before = w.data.copy()
        opt.step(lr=1.0)
        np.testing.assert_array_equal(w.data, before)
        assert opt.t["w"] == 0

    def test_state_round_trip(self):
        rng = np.random.default_rng(14)
        w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        opt = AdamW([("w", w)], weight_decay=0.01)
        for _ in range(3):
            w.grad = rng.standard_normal((3, 3))
            opt.step(lr=1e-3)
        saved = {k: v.copy() for k, v in opt.state_arrays().items()}
        opt2 = AdamW([("w", w)], weight_decay=0.01)
        opt2.load_state_arrays(saved)
        np.testing.assert_array_equal(opt2.m["w"], opt.m["w"])
        np.testing.assert_array_equal(opt2.v["w"], opt.v["w"])
        assert opt2.t["w"] == opt.t["w"] == 3


class TestTrainBaseline:
    def test_loss_decreases_on_tiny_run(self):
        data = tiny_dataset(count=24)
        model, metrics = train_baseline(tiny_config(), data, epochs=3,
                                        batch_size=8, seed=1)
        first = np.mean([m["loss"] for m in metrics[:3]])
        last = np.mean([m["loss"] for m in metrics[-3:]])
        assert last < first
        assert all(np.isfinite(m["loss"]) for m in metrics)

    def test_deterministic(self):
        data = tiny_dataset(count=16)
        m1, _ = train_baseline(tiny_config(), data, epochs=2,
                               batch_size=8, seed=2)
        m2, _ = train_baseline(tiny_config(), data, epochs=2,
                               batch_size=8, seed=2)
        for (_, a), (_, b) in zip(m1.named_parameters(),
                                  m2.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)


class TestFinetune:
    def test_zero_epochs_leaves_model_unchanged(self, compressed_pair):
        base, plan = compressed_pair
        comp = compress_model(base, plan, learnable_matrices=True)
        before = {name: t.data.copy() for name, t in comp.named_parameters()}
        _, metrics, state = finetune(comp, base.frozen_copy(),
                                     tiny_dataset(8),
                                     DistillConfig(epochs=0, freeze_epoch=0))
        assert metrics == []
        assert state.step == 0
        for name, t in comp.named_parameters():
            np.testing.assert_array_equal(t.data, before[name])

    def test_teacher_must_be_frozen(self, compressed_pair):
        base, plan = compressed_pair
        comp = compress_model(base, plan)
        with pytest.raises(ContractError):
            finetune(comp, base, tiny_dataset(8),
                     DistillConfig(epochs=1, freeze_epoch=1))

    def test_teacher_logits_bit_identical_across_epochs(self, compressed_pair):
        base, _ = compressed_pair
        teacher = base.frozen_copy()
        data = tiny_dataset(8)
        a = teacher.forward(data.images).data
        b = teacher.forward(data.images).data
        np.testing.assert_array_equal(a, b)

    def test_matrices_train_then_freeze(self, compressed_pair):
        base, plan = compressed_pair
        data = tiny_dataset(16)
        comp = compress_model(base, plan, learnable_matrices=True)
        cfg = DistillConfig(epochs=4, freeze_epoch=2, batch_size=8, seed=7)
        _, _, _ = finetune(comp, base.frozen_copy(), data, cfg,
                           stop_after=2)
        frozen_at_2 = {l: t.data.copy() for l, t in comp.merge_t.items()}
        changed = any(
            not np.array_equal(frozen_at_2[l], plan.entries[l].merge.data)
            for l in comp.merge_t)
        assert changed  # learnable phase actually moved the matrices
        state = TrainState(epoch=2, step=0, seed=7)
        # continue without resume bookkeeping: fresh run over epochs 2..4
        comp2 = compress_model(base, plan, learnable_matrices=True)
        cfg_never = DistillConfig(epochs=4, freeze_epoch=4, batch_size=8,
                                  seed=7)
        finetune(comp2, base.frozen_copy(), data, cfg_never)
        cfg_early = DistillConfig(epochs=4, freeze_epoch=1, batch_size=8,
                                  seed=7)
        comp3 = compress_model(base, plan, learnable_matrices=True)
        finetune(comp3, base.frozen_copy(), data, cfg_early)
        different = any(
            not np.array_equal(comp2.merge_t[l].data, comp3.merge_t[l].data)
            for l in comp2.merge_t)
        assert different  # freeze schedule affects the final matrices

    def test_pruned_tokens_stay_pruned(self, compressed_pair):
        base, plan = compressed_pair
        data = tiny_dataset(16)
        comp = compress_model(base, plan, learnable_matrices=True)
        cfg = DistillConfig(epochs=2, freeze_epoch=2, batch_size=8, seed=9)
        finetune(comp, base.frozen_copy(), data, cfg)
        rng = np.random.default_rng(10)
        seen = 0
        for layer, m_t in comp.merge_t.items():
            mask = plan.entries[layer].mask
            pruned = np.flatnonzero(mask == 0)
            seen += pruned.size
            assert not np.array_equal(m_t.data, plan.entries[layer].merge.data)
            assert np.all(m_t.data[:, pruned] == 0.0)
            assert np.all(comp.recon_t[layer].data[pruned] == 0.0)
            z = Tensor(rng.standard_normal((3, mask.size, 8)))
            out = pm_forward_tensors(z, m_t, comp.recon_t[layer],
                                     comp._segments[layer], mask,
                                     comp.params.blocks[layer], heads=2)
            assert np.array_equal(out.data[:, pruned], z.data[:, pruned])
        assert seen > 0
        # the trained plan passes the checks every loaded plan must pass
        CompressionPlan.from_arrays(comp.export_plan().to_arrays())

    def test_matrices_byte_stable_after_freeze(self, compressed_pair):
        base, plan = compressed_pair
        data = tiny_dataset(16)
        comp = compress_model(base, plan, learnable_matrices=True)
        cfg = DistillConfig(epochs=3, freeze_epoch=1, batch_size=8, seed=8)
        _, _, state = finetune(comp, base.frozen_copy(), data, cfg,
                               stop_after=1)
        snapshot = {l: (comp.merge_t[l].data.tobytes(),
                        comp.recon_t[l].data.tobytes())
                    for l in comp.merge_t}
        finetune(comp, base.frozen_copy(), data, cfg, resume=state)
        for l, (m_bytes, r_bytes) in snapshot.items():
            assert comp.merge_t[l].data.tobytes() == m_bytes
            assert comp.recon_t[l].data.tobytes() == r_bytes

    def test_resume_is_bit_identical(self, compressed_pair):
        base, plan = compressed_pair
        data = tiny_dataset(16)
        cfg = DistillConfig(epochs=4, freeze_epoch=2, batch_size=8, seed=9)

        ref = compress_model(base, plan, learnable_matrices=True)
        _, ref_metrics, _ = finetune(ref, base.frozen_copy(), data, cfg)

        split = compress_model(base, plan, learnable_matrices=True)
        _, m1, st = finetune(split, base.frozen_copy(), data, cfg,
                             stop_after=2)
        st2 = TrainState.from_arrays(st.to_arrays())
        _, m2, _ = finetune(split, base.frozen_copy(), data, cfg, resume=st2)

        for (name, a), (_, b) in zip(ref.named_parameters(),
                                     split.named_parameters()):
            assert np.array_equal(a.data, b.data), name
        ref_losses = [m["loss"] for m in ref_metrics]
        split_losses = [m["loss"] for m in m1 + m2]
        assert ref_losses == split_losses

    def test_resume_seed_mismatch_rejected(self, compressed_pair):
        base, plan = compressed_pair
        comp = compress_model(base, plan)
        state = TrainState(epoch=1, step=2, seed=999)
        with pytest.raises(ContractError):
            finetune(comp, base.frozen_copy(), tiny_dataset(8),
                     DistillConfig(epochs=2, freeze_epoch=1, seed=0),
                     resume=state)

    def test_nan_loss_aborts_with_state_dump(self, compressed_pair, tmp_path):
        base, plan = compressed_pair
        comp = compress_model(base, plan, learnable_matrices=True)
        comp.params.head_w.data[:] = np.inf
        dump = tmp_path / "abort.pmvt"
        with pytest.raises(NumericError), np.errstate(invalid="ignore"):
            finetune(comp, base.frozen_copy(), tiny_dataset(8),
                     DistillConfig(epochs=1, freeze_epoch=1, batch_size=8),
                     state_dump_path=dump)
        from prunemerge.checkpoint import load_arrays
        saved = load_arrays(dump)
        assert int(saved["state.epoch"]) == 0

    def test_metrics_rows_and_csv_schema(self, compressed_pair):
        base, plan = compressed_pair
        data = tiny_dataset(16)
        comp = compress_model(base, plan, learnable_matrices=True)
        cfg = DistillConfig(epochs=2, freeze_epoch=1, batch_size=8, seed=10)
        _, metrics, _ = finetune(comp, base.frozen_copy(), data, cfg,
                                 val_data=data)
        assert len(metrics) == 4  # 2 epochs x 2 batches
        per_epoch_val = [m for m in metrics if m["val_acc"] is not None]
        assert len(per_epoch_val) == 2
        csv = metrics_to_csv(metrics)
        lines = csv.strip().split("\n")
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0" and first[6] == ""
        # loss column parses back to the exact float
        assert float(first[2]) == metrics[0]["loss"]

    def test_loss_finite_everywhere(self, compressed_pair):
        base, plan = compressed_pair
        data = tiny_dataset(16)
        comp = compress_model(base, plan, learnable_matrices=True)
        cfg = DistillConfig(epochs=3, freeze_epoch=2, batch_size=8, seed=11)
        _, metrics, _ = finetune(comp, base.frozen_copy(), data, cfg)
        assert all(np.isfinite(m["loss"]) for m in metrics)


class TestEvaluateAccuracy:
    def test_range_and_determinism(self, compressed_pair):
        base, _ = compressed_pair
        data = tiny_dataset(20)
        a = evaluate_accuracy(base, data, batch_size=7)
        b = evaluate_accuracy(base, data, batch_size=7)
        assert a == b
        assert 0.0 <= a <= 1.0

    def test_batch_size_does_not_change_result(self, compressed_pair):
        base, _ = compressed_pair
        data = tiny_dataset(20)
        assert evaluate_accuracy(base, data, batch_size=3) \
            == evaluate_accuracy(base, data, batch_size=20)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError):
            tiny_dataset(8).subset(0, 0)

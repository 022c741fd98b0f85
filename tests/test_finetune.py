import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from prunemerge import tensor as T
from prunemerge.compression import (CompressionPlan, compress_model,
                                    global_plan, pm_forward_tensors)
from prunemerge.checkpoint import save_model
from prunemerge.data import (Dataset, batch_indices, load_idx_pair,
                             synthetic_shapes, write_idx)
from prunemerge.errors import ConfigError, ContractError, NumericError
from prunemerge.finetune import (METRICS_HEADER, AdamW, DistillConfig,
                                 cosine_lr, evaluate_accuracy, finetune,
                                 metrics_to_csv, self_distill_loss,
                                 teacher_logits_of, train_baseline)
from prunemerge.tensor import Tensor
from prunemerge.vit import ModelConfig, VisionTransformer, params_from_named


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

    @pytest.mark.parametrize("key, value", [
        ("alpha", math.nan), ("alpha", math.inf), ("temperature", math.nan),
        ("temperature", math.inf), ("base_lr", math.nan),
        ("base_lr", math.inf), ("weight_decay", math.nan),
        ("weight_decay", math.inf), ("weight_decay", -5.0)])
    def test_non_finite_or_negative_rates_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            DistillConfig(epochs=2, freeze_epoch=1, **{key: value})
        if key in ("base_lr", "weight_decay"):
            with pytest.raises(ConfigError, match=key):
                train_baseline(tiny_config(), tiny_dataset(8), epochs=1,
                               **{key: value})

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_nonpositive_batch_size_rejected(self, batch_size):
        message = f"batch_size must be positive, got {batch_size}"
        with pytest.raises(ConfigError, match=message):
            DistillConfig(epochs=2, freeze_epoch=1, batch_size=batch_size)
        with pytest.raises(ConfigError, match=message):
            train_baseline(tiny_config(), tiny_dataset(8), epochs=1,
                           batch_size=batch_size)


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

    def test_in_place_step_matches_textbook_loop(self):
        # The expression form AdamW.step used before it worked in place.
        def reference(state, params, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
            for name, p in params:
                if p.grad is None:
                    continue
                g = p.grad
                state["t"][name] += 1
                t = state["t"][name]
                m = state["m"][name] = b1 * state["m"][name] + (1 - b1) * g
                v = state["v"][name] = (b2 * state["v"][name]
                                        + (1 - b2) * g * g)
                m_hat = m / (1 - b1 ** t)
                v_hat = v / (1 - b2 ** t)
                if wd and p.data.ndim >= 2:
                    p.data -= lr * wd * p.data
                p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)

        rng = np.random.default_rng(15)
        # Decayed and exempt parameters interleave; "sometimes" skips every
        # third step, so its step count falls behind its neighbours'; "wide"
        # and "long" each span more than one update chunk.
        shapes = {"w": (4, 3), "b": (3,), "frozen": (2, 2), "big": (5, 6),
                  "sometimes": (3, 3), "gain": (5,),
                  "wide": (2, T._CHUNK // 2 + 7), "long": (T._CHUNK + 9,),
                  "last": (2, 3)}
        mine = [(n, Tensor(rng.standard_normal(s), requires_grad=True))
                for n, s in shapes.items()]
        ref = [(n, Tensor(t.data.copy(), requires_grad=True))
               for n, t in mine]
        state = {k: {n: (0 if k == "t" else np.zeros(shapes[n]))
                     for n in shapes} for k in "mvt"}
        opt = AdamW(mine, weight_decay=0.05)
        for step in range(25):
            for (name, a), (_, b) in zip(mine, ref):
                skip = name == "frozen" or (name == "sometimes"
                                            and step % 3 == 0)
                g = None if skip else rng.standard_normal(a.shape)
                a.grad, b.grad = g, None if g is None else g.copy()
            lr = cosine_lr(step, 25, 1e-2)
            opt.step(lr)
            reference(state, ref, lr, 0.05)
        for (name, a), (_, b) in zip(mine, ref):
            np.testing.assert_array_equal(a.data, b.data)
            np.testing.assert_array_equal(opt.m[name], state["m"][name])
            np.testing.assert_array_equal(opt.v[name], state["v"][name])
        assert opt.t["frozen"] == 0
        assert opt.t["sometimes"] == 16 and opt.t["w"] == 25

    def test_construction_leaves_values_unchanged(self):
        rng = np.random.default_rng(16)
        params = [(n, Tensor(rng.standard_normal(s), requires_grad=True))
                  for n, s in [("b", (3,)), ("w", (4, 3)), ("c", (2, 1, 2))]]
        before = {n: (p.data, p.data.copy()) for n, p in params}
        opt = AdamW(params, weight_decay=0.1)
        for name, p in params:
            old, values = before[name]
            assert p.data is not old          # adopted into the buffer
            np.testing.assert_array_equal(p.data, values)
            assert p.data.flags.c_contiguous and p.data.flags.writeable
            assert not opt.m[name].any() and not opt.v[name].any()
            assert opt.t[name] == 0

    def test_model_forward_sees_updated_values(self):
        config = tiny_config()
        model = VisionTransformer.build(config, seed=17)
        images = tiny_dataset(8).images
        before = model.forward(images).data
        opt = AdamW(model.named_parameters(), weight_decay=0.1)
        T.backward(T.cross_entropy(model.forward(images),
                                   tiny_dataset(8).labels))
        opt.step(1e-2)
        updated = {n: p.data.copy() for n, p in model.named_parameters()}
        fresh = VisionTransformer(config, params_from_named(config, updated))
        after = model.forward(images).data
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, fresh.forward(images).data)

    def test_step_scratch_is_chunk_sized(self):
        rng = np.random.default_rng(18)
        size = 4 * T._CHUNK                 # each parameter spans 4 chunks
        params = [(f"p{i}", Tensor(rng.standard_normal((2, size // 2)),
                                   requires_grad=True)) for i in range(3)]
        params.append(("bias", Tensor(rng.standard_normal(size),
                                      requires_grad=True)))
        opt = AdamW(params, weight_decay=0.1)
        for _, p in params:
            p.grad = rng.standard_normal(p.shape)
        opt.step(1e-3)                       # first-call allocations
        tracemalloc.start()
        try:
            opt.step(1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A parameter-sized temporary would be 8 * size bytes; the step
        # allocates less than one chunk of float64.
        assert peak < T._CHUNK * 8


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

    def test_byte_pixels_train_like_float_pixels(self, tmp_path):
        # An IDX-loaded dataset keeps bytes and scales each batch; the
        # float64 dataset of the same bytes must train to the same file.
        rng = np.random.default_rng(7)
        pixels = rng.integers(0, 256, size=(20, 8, 8)).astype(np.uint8)
        labels = rng.integers(0, 4, size=20).astype(np.uint8)
        write_idx(tmp_path / "img.idx", pixels)
        write_idx(tmp_path / "lab.idx", labels)
        as_bytes = load_idx_pair(tmp_path / "img.idx", tmp_path / "lab.idx",
                                 num_classes=4)
        as_floats = Dataset(pixels.astype(np.float64)[:, None] / 255.0,
                            labels.astype(np.int64), 4)
        outputs = []
        for name, data in (("bytes", as_bytes), ("floats", as_floats)):
            model, metrics = train_baseline(
                tiny_config(), data.subset(0, 16), epochs=1, batch_size=6,
                seed=1, val_data=data.subset(16, 20))
            save_model(tmp_path / f"{name}.pmvt", model)
            outputs.append(((tmp_path / f"{name}.pmvt").read_bytes(),
                            metrics_to_csv(metrics)))
        assert as_bytes.images.dtype == np.uint8
        assert outputs[0] == outputs[1]

    def test_step_graph_freed_before_next_forward(self, monkeypatch):
        # As in TestFinetune, with the cyclic collector off: neither an
        # earlier step's logits nor its loss, the root of its graph, may
        # be alive when the next step's forward starts.
        forward, cross_entropy = VisionTransformer.forward, T.cross_entropy
        refs, alive = [], []

        def spy_forward(self, images, **kwargs):
            alive.append([r() is not None for r in refs])
            out = forward(self, images, **kwargs)
            refs.append(weakref.ref(out))
            return out

        def spy_loss(logits, labels):
            loss = cross_entropy(logits, labels)
            refs.append(weakref.ref(loss))
            return loss

        monkeypatch.setattr(VisionTransformer, "forward", spy_forward)
        monkeypatch.setattr(T, "cross_entropy", spy_loss)
        gc.disable()
        try:
            train_baseline(tiny_config(), tiny_dataset(16), epochs=1,
                           batch_size=4, seed=1)
        finally:
            gc.enable()
        assert len(refs) == 8
        assert alive == [[False] * k for k in range(0, 8, 2)]


def freeze_snapshots(comp) -> list[dict]:
    """Spy on ``comp.set_matrices_trainable``: the returned list gets
    the bytes of every layer's (merge, reconstruct) matrices the first
    time the call freezes them, taken before it runs."""
    set_trainable, snapshots = comp.set_matrices_trainable, []

    def spy(flag):
        if not flag and not snapshots:
            snapshots.append({l: (comp.merge_t[l].data.tobytes(),
                                  comp.recon_t[l].data.tobytes())
                              for l in comp.merge_t})
        set_trainable(flag)

    comp.set_matrices_trainable = spy
    return snapshots


class TestFinetune:
    def test_zero_epochs_leaves_model_unchanged(self, compressed_pair):
        base, plan = compressed_pair
        comp = compress_model(base, plan, learnable_matrices=True)
        before = {name: t.data.copy() for name, t in comp.named_parameters()}
        _, metrics, optimizer = finetune(
            comp, base.frozen_copy(), tiny_dataset(8),
            DistillConfig(epochs=0, freeze_epoch=0))
        assert metrics == []
        assert set(optimizer.t.values()) == {0}
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
        frozen = freeze_snapshots(comp)
        finetune(comp, base.frozen_copy(), data, cfg)
        assert len(frozen) == 1                # at the start of epoch 2
        changed = any(m_bytes != plan.entries[l].merge.data.tobytes()
                      for l, (m_bytes, _) in frozen[0].items())
        assert changed  # learnable phase actually moved the matrices
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
                                     plan.entries[layer].merge, mask,
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
        frozen = freeze_snapshots(comp)
        finetune(comp, base.frozen_copy(), data, cfg)
        assert len(frozen) == 1                # at the start of epoch 1
        for l, (m_bytes, r_bytes) in frozen[0].items():
            assert comp.merge_t[l].data.tobytes() == m_bytes
            assert comp.recon_t[l].data.tobytes() == r_bytes

    def test_step_graph_freed_before_next_forward(self, compressed_pair):
        # With the cyclic collector off, only reference counting frees a
        # step's logits and the graph behind them; none may be alive when
        # the next step's student forward starts.
        base, plan = compressed_pair
        comp = compress_model(base, plan, learnable_matrices=True)
        forward, refs, alive = comp.forward, [], []

        def spy(images):
            alive.append([r() is not None for r in refs])
            out = forward(images)
            refs.append(weakref.ref(out))
            return out

        comp.forward = spy
        gc.disable()
        try:
            finetune(comp, base.frozen_copy(), tiny_dataset(16),
                     DistillConfig(epochs=1, freeze_epoch=1, batch_size=4))
        finally:
            gc.enable()
        assert len(refs) == 4
        assert alive == [[False] * k for k in range(4)]

    def test_grads_dropped_before_each_forward(self, compressed_pair):
        # The previous step's grads are gone before the next graph is
        # built; the last step's stay after the loop.
        base, plan = compressed_pair
        comp = compress_model(base, plan, learnable_matrices=True)
        params = [p for _, p in comp.named_parameters()]
        forward, held = comp.forward, []

        def spy(images):
            held.append(sum(p.grad is not None for p in params))
            return forward(images)

        comp.forward = spy
        finetune(comp, base.frozen_copy(), tiny_dataset(16),
                 DistillConfig(epochs=1, freeze_epoch=1, batch_size=4))
        assert held == [0] * 4
        assert all(p.grad is not None for p in params)

    def test_teacher_runs_once_per_batch_of_stored_order(self,
                                                         compressed_pair):
        base, plan = compressed_pair
        teacher = base.frozen_copy()
        forward, calls = teacher.forward, []

        def spy(images):
            calls.append((len(images), T._RECORDING.get()))
            return forward(images)

        teacher.forward = spy
        data = tiny_dataset(20)
        comp = compress_model(base, plan, learnable_matrices=True)
        finetune(comp, teacher, data,
                 DistillConfig(epochs=3, freeze_epoch=2, batch_size=8))
        # ceil(20 / 8) = 3 forwards in all, none of them recorded
        assert calls == [(8, False), (8, False), (4, False)]
        calls.clear()
        finetune(comp, teacher, data, DistillConfig(epochs=0, freeze_epoch=0))
        assert calls == []

    def test_cached_rows_equal_per_batch_forwards_at_acceptance_shape(self):
        config = ModelConfig(image_size=28, patch_size=14, channels=1,
                             embed_dim=48, depth=2, heads=4, mlp_ratio=2,
                             num_classes=10)
        teacher = VisionTransformer.build(config, seed=19).frozen_copy()
        data = synthetic_shapes(256, image_size=28, seed=19)
        cached = teacher_logits_of(teacher, data, 32)
        assert cached.shape == (256, 10) and cached.dtype == np.float64
        for epoch in range(2):
            for idx in batch_indices(256, 32, seed=4, epoch=epoch):
                np.testing.assert_array_equal(
                    cached[idx], teacher.forward(data.images[idx]).data)

    def test_nan_loss_raises_numeric_error(self, compressed_pair):
        # The student's third forward, the first of epoch 1 at two
        # batches an epoch, reads an infinite head.
        base, plan = compressed_pair
        comp = compress_model(base, plan, learnable_matrices=True)
        forward, calls = comp.forward, []

        def spy(images):
            calls.append(len(images))
            if len(calls) == 3:
                comp.params.head_w.data[:] = np.inf
            return forward(images)

        comp.forward = spy
        with pytest.raises(NumericError, match=r"^non-finite loss nan at "
                           r"epoch 1 step 2$"), np.errstate(invalid="ignore"):
            finetune(comp, base.frozen_copy(), tiny_dataset(16),
                     DistillConfig(epochs=2, freeze_epoch=1, batch_size=8))
        assert calls == [8, 8, 8]

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

    def test_records_no_graph(self, compressed_pair):
        base, plan = compressed_pair
        model = compress_model(base, plan, learnable_matrices=True)
        outputs = []

        class Spy:
            def forward(self, images):
                outputs.append(model.forward(images))
                return outputs[-1]

        evaluate_accuracy(Spy(), tiny_dataset(20), batch_size=8)
        assert len(outputs) == 3
        assert all(o._node is None and not o.requires_grad for o in outputs)
        assert all(p.grad is None for _, p in model.named_parameters())
        with_graph = model.forward(tiny_dataset(20).images[:8])
        np.testing.assert_array_equal(outputs[0].data, with_graph.data)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError):
            tiny_dataset(8).subset(0, 0)

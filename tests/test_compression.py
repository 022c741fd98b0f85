import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import prunemerge
from prunemerge import tensor as T
from prunemerge.compression import (CompressionPlan, MergeMatrix,
                                    compress_model, generate_merge_matrix,
                                    global_plan, grouped_merge,
                                    identity_plan, merge_tokens,
                                    pm_forward, pm_forward_tensors,
                                    pseudoinverse, reconstruct_tokens)
from prunemerge.errors import (ContractError, ShapeMismatchError,
                               SingularMatrixError)
from prunemerge.scoring import round_half_up
from prunemerge.tensor import Tensor
from prunemerge.vit import (ModelConfig, VisionTransformer, block_forward,
                            init_params, patchify)

from helpers import (assert_grads_close, dense_pinv, numeric_grad, tensor_sum,
                     uncalled)

WORKED_SCORES = np.array([0.2, 0.8, 0.0, 0.3, 0.9])


def random_merge(n, kept, rng, class_token=False):
    scores = rng.uniform(0.05, 1.0, size=n)
    prune = rng.integers(0, n - kept + 1)
    merge = generate_merge_matrix(scores, kept, int(prune),
                                  class_token=class_token)
    mask = merge.live.astype(np.uint8)
    return scores, mask, merge


class TestGenerateMergeMatrix:
    def test_worked_example_rows(self):
        merge = generate_merge_matrix(WORKED_SCORES, 2, 1)
        mask = merge.live.astype(np.uint8)
        np.testing.assert_array_equal(mask, [1, 1, 0, 1, 1])
        np.testing.assert_allclose(merge.data[0], [0.2, 0.8, 0, 0, 0],
                                   atol=1e-12)
        np.testing.assert_allclose(merge.data[1], [0, 0, 0, 0.25, 0.75],
                                   atol=1e-12)
        assert merge.groups == [(0, 2), (2, 5)]

    def test_rows_sum_to_one_and_partition(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 24))
            kept = int(rng.integers(1, n))
            _, _, merge = random_merge(n, kept, rng)
            merge.validate()
            assert merge.kept == kept

    def test_class_token_row_is_unit_vector(self):
        rng = np.random.default_rng(8)
        scores = rng.uniform(0.0, 1.0, size=9)
        merge = generate_merge_matrix(scores, 4, 2, class_token=True)
        mask = merge.live.astype(np.uint8)
        merge.validate(class_token=True)
        np.testing.assert_array_equal(merge.data[0],
                                      np.eye(9)[0])
        assert mask[0] == 1
        # merge groups for the remaining rows never include token 0
        for a, b in merge.groups[1:]:
            assert a >= 1

    def test_ties_prefer_lower_index_for_reservation(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        merge = generate_merge_matrix(scores, 2, 0)
        # rows anchored at tokens 0 and 1; trailing tokens fold into row 1
        assert merge.groups == [(0, 1), (1, 4)]
        np.testing.assert_allclose(merge.data[1],
                                   [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_ties_prune_higher_index_first(self):
        scores = np.array([0.9, 0.1, 0.1, 0.8])
        mask = generate_merge_matrix(scores, 2, 1).live.astype(np.uint8)
        np.testing.assert_array_equal(mask, [1, 1, 0, 1])

    def test_degenerate_group_gets_uniform_weights(self):
        # token 1's singleton group scores zero -> uniform fallback; the
        # last group holds an unpruned zero-score token (index 2) whose
        # normalized weight would vanish, so it degenerates to uniform
        # over survivors too, keeping every kept column nonzero.
        scores = np.array([1.0, 0.0, 0.0, 0.0, 0.9])
        merge = generate_merge_matrix(scores, 3, 1)
        mask = merge.live.astype(np.uint8)
        merge.validate()
        np.testing.assert_array_equal(mask, [1, 1, 1, 0, 1])
        np.testing.assert_allclose(merge.data[1], [0, 1, 0, 0, 0],
                                   atol=1e-12)
        np.testing.assert_allclose(merge.data[2], [0, 0, 0.5, 0, 0.5],
                                   atol=1e-12)

    def test_over_budget_rejected(self):
        with pytest.raises(ContractError):
            generate_merge_matrix(WORKED_SCORES, 3, 3)

    def test_zero_keep_rejected(self):
        with pytest.raises(ContractError):
            generate_merge_matrix(WORKED_SCORES, 0, 1)

    def test_nonfinite_scores_rejected(self):
        bad = np.array([0.1, np.nan, 0.3])
        with pytest.raises(ContractError):
            generate_merge_matrix(bad, 1, 0)

    def test_unprunable_remainder_rejected(self):
        # class token is the only kept token, yet unpruned tokens remain:
        # the unit-vector class row cannot host them.
        scores = np.array([0.0, 0.5, 0.6, 0.7])
        with pytest.raises(ContractError):
            generate_merge_matrix(scores, 1, 1, class_token=True)

    def test_class_only_with_everything_pruned(self):
        scores = np.array([0.0, 0.5, 0.6, 0.7])
        merge = generate_merge_matrix(scores, 1, 3, class_token=True)
        mask = merge.live.astype(np.uint8)
        np.testing.assert_array_equal(mask, [1, 0, 0, 0])
        assert merge.groups == [(0, 4)]
        merge.validate(class_token=True)


class TestMergeMatrixValidate:
    # nine tokens: the width of the plan TestPlanLoading builds
    @pytest.mark.parametrize("groups", [
        [(0, 2), (3, 9)],
        [(0, 3), (2, 9)],
        [(0, 2), (2, 2), (2, 9)],
        [(1, 4), (4, 9)],
        [(0, 2), (2, 8)],
        [(0, 2), (2, 10)],
    ], ids=["gap", "overlap", "empty-group", "start-not-0", "cover-short",
            "cover-long"])
    def test_bad_partition_refused_when_built(self, groups, tmp_path):
        from prunemerge.checkpoint import load_plan, save_arrays
        with pytest.raises(ContractError,
                           match=r"^groups do not partition \[0, 9\)$"):
            MergeMatrix(groups, np.full(9, 0.5))
        arrays = TestPlanLoading.arrays()
        arrays["plan.layer1.groups"] = np.array(groups, dtype=np.int64)
        save_arrays(tmp_path / "plan.pmvt", arrays)
        with pytest.raises(ContractError, match=r"^plan layer 1: groups do "
                           r"not partition \[0, 9\)$"):
            load_plan(tmp_path / "plan.pmvt")

    def test_row_sum_enforced(self):
        m = MergeMatrix([(0, 2), (2, 3)], np.array([0.5, 0.4, 1.0]))
        with pytest.raises(ContractError):
            m.validate()

    def test_class_row_enforced(self):
        m = MergeMatrix([(0, 2), (2, 3)], np.array([0.5, 0.5, 1.0]))
        with pytest.raises(ContractError):
            m.validate(class_token=True)


class TestPseudoinverse:
    def test_two_row_example(self):
        m = MergeMatrix([(0, 2), (2, 3)], np.array([0.5, 0.5, 1.0]))
        plus = dense_pinv(m)
        np.testing.assert_allclose(plus, [[1, 0], [1, 0], [0, 1]],
                                   atol=1e-12)

    def test_worked_example_columns(self):
        merge = generate_merge_matrix(WORKED_SCORES, 2, 1)
        plus = dense_pinv(merge)
        np.testing.assert_allclose(plus[:, 0],
                                   np.array([0.2, 0.8, 0, 0, 0]) / 0.68,
                                   atol=1e-12)
        np.testing.assert_allclose(plus[:, 1],
                                   np.array([0, 0, 0, 0.25, 0.75]) / 0.625,
                                   atol=1e-12)

    def test_matches_svd_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            kept = int(rng.integers(1, n))
            _, _, merge = random_merge(n, kept, rng)
            np.testing.assert_allclose(dense_pinv(merge),
                                       np.linalg.pinv(merge.data,
                                                      rcond=1e-10),
                                       atol=1e-8)

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(2, 16))
            kept = int(rng.integers(1, n))
            _, _, merge = random_merge(n, kept, rng)
            m = merge.data
            plus = dense_pinv(merge)
            np.testing.assert_allclose(m @ plus @ m, m, atol=1e-6)
            np.testing.assert_allclose(plus @ m @ plus, plus, atol=1e-6)

    def test_zero_row_raises(self):
        merge = MergeMatrix([(0, 1), (1, 2)], np.array([0.0, 1.0]))
        with pytest.raises(SingularMatrixError):
            pseudoinverse(merge)


class TestGroupedOps:
    def test_grouped_merge_matches_dense(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            kept = int(rng.integers(1, n))
            _, _, merge = random_merge(n, kept, rng)
            z = rng.standard_normal((3, n, 5))
            dense = np.einsum("kn,bnd->bkd", merge.data, z)
            np.testing.assert_allclose(grouped_merge(z, merge), dense,
                                       atol=1e-12)

    def test_grouped_merge_unbatched_matches_dense(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            kept = int(rng.integers(1, n))
            _, _, merge = random_merge(n, kept, rng)
            z = rng.standard_normal((n, 6))
            np.testing.assert_allclose(grouped_merge(z, merge),
                                       merge.data @ z, atol=1e-12)

    def test_merge_tokens_matches_dense(self):
        # one kernel for every layout: unbatched, batched, non-contiguous
        rng = np.random.default_rng(45)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            kept = int(rng.integers(1, n))
            _, _, merge = random_merge(n, kept, rng)
            m_t = Tensor(merge.data)
            for z in (rng.standard_normal((n, 7)),
                      rng.standard_normal((2, 3, n, 7)),
                      rng.standard_normal((7, n)).T,
                      rng.standard_normal((2, n, 14))[..., ::2]):
                out = merge_tokens(Tensor(z), m_t, merge).data
                np.testing.assert_allclose(out, merge.data @ z, atol=1e-12)
                assert np.array_equal(out, grouped_merge(z, merge))

    def test_grouped_reconstruct_matches_dense(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            kept = int(rng.integers(1, n))
            _, mask, merge = random_merge(n, kept, rng)
            plus = dense_pinv(merge)
            for y in (rng.standard_normal((kept, 4)),
                      rng.standard_normal((2, kept, 4)),
                      rng.standard_normal((2, 4, kept)).swapaxes(1, 2)):
                z = rng.standard_normal(y.shape[:-2] + (n, 4))
                out = reconstruct_tokens(Tensor(y), Tensor(plus),
                                         merge, Tensor(z)).data
                np.testing.assert_allclose(
                    out, plus @ y + z * (1.0 - mask)[:, None], atol=1e-12)

    def test_merge_tokens_gradients(self):
        rng = np.random.default_rng(36)
        merge = generate_merge_matrix(rng.uniform(0.05, 1.0, size=7), 3, 2)
        mask = merge.live.astype(np.uint8)
        z = Tensor(rng.standard_normal((2, 7, 4)), requires_grad=True)
        m_t = Tensor(merge.data.copy(), requires_grad=True)
        coef = rng.standard_normal((2, 3, 4))

        def loss_fn():
            out = merge_tokens(z, m_t, merge)
            return tensor_sum(out * Tensor(coef))

        loss = loss_fn()
        T.backward(loss)
        num_z = numeric_grad(lambda: float(loss_fn().data), z.data)
        assert_grads_close(z.grad, num_z)
        num_m = numeric_grad(lambda: float(loss_fn().data), m_t.data)
        # structural zeros and pruned columns never receive gradient
        support = np.zeros_like(merge.data, dtype=bool)
        for row, (a, b) in enumerate(merge.groups):
            support[row, a:b] = True
        support[:, mask == 0] = False
        assert np.all(m_t.grad[~support] == 0.0)
        assert_grads_close(m_t.grad[support], num_m[support])

    def test_reconstruct_tokens_gradients(self):
        rng = np.random.default_rng(37)
        merge = generate_merge_matrix(rng.uniform(0.05, 1.0, size=6), 2, 2)
        mask = merge.live.astype(np.uint8)
        plus = dense_pinv(merge)
        y = Tensor(rng.standard_normal((2, 2, 3)), requires_grad=True)
        r_t = Tensor(plus.copy(), requires_grad=True)
        z = Tensor(rng.standard_normal((2, 6, 3)), requires_grad=True)
        coef = rng.standard_normal((2, 6, 3))

        def loss_fn():
            out = reconstruct_tokens(y, r_t, merge, z)
            return tensor_sum(out * Tensor(coef))

        loss = loss_fn()
        T.backward(loss)
        assert_grads_close(y.grad,
                           numeric_grad(lambda: float(loss_fn().data), y.data))
        # the shortcut: z's gradient is the output's on pruned rows only
        assert_grads_close(z.grad,
                           numeric_grad(lambda: float(loss_fn().data), z.data))
        np.testing.assert_array_equal(z.grad[:, mask == 0],
                                      coef[:, mask == 0])
        assert not z.grad[:, mask != 0].any()
        num_r = numeric_grad(lambda: float(loss_fn().data), r_t.data)
        gid = np.zeros(6, dtype=int)
        for row, (a, b) in enumerate(merge.groups):
            gid[a:b] = row
        support = np.zeros_like(plus, dtype=bool)
        support[np.arange(6), gid] = True
        support[mask == 0] = False  # pruned rows never receive gradient
        assert np.all(r_t.grad[~support] == 0.0)
        assert_grads_close(r_t.grad[support], num_r[support])


class TestFusedReconstruct:
    """``reconstruct_tokens`` runs the paper's shortcut for pruned tokens
    itself, over every token or, in a class-row layer, over token 0's
    one-token segment."""

    def _setup(self, seed, class_token=False):
        rng = np.random.default_rng(seed)
        merge = generate_merge_matrix(rng.uniform(0.05, 1.0, size=7), 3, 3,
                                      class_token=class_token)
        mask = merge.live.astype(np.uint8)
        r = pseudoinverse(merge) * rng.uniform(0.5, 1.5, size=7)
        y = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        r_t = Tensor(merge.recon_matrix(r), requires_grad=True)
        z = Tensor(rng.standard_normal((2, 7, 4)), requires_grad=True)
        return rng, mask, merge, r, y, r_t, z

    def test_pruned_rows_are_the_input_and_live_rows_the_gather(self):
        _, mask, merge, r, y, r_t, z = self._setup(81)
        out = reconstruct_tokens(y, r_t, merge, z).data
        pruned, live = mask == 0, mask != 0
        assert pruned.any() and live.any()
        assert out[:, pruned].tobytes() == z.data[:, pruned].tobytes()
        want = y.data[:, merge.gid[live]] * r[live][:, None]
        assert out[:, live].tobytes() == want.tobytes()

    def test_gradients_match_finite_differences(self):
        rng, mask, merge, _, y, r_t, z = self._setup(82)
        coef = rng.standard_normal((2, 7, 4))

        def loss_fn():
            out = reconstruct_tokens(y, r_t, merge, z)
            return tensor_sum(out * Tensor(coef))

        T.backward(loss_fn())
        support = np.zeros(r_t.shape, dtype=bool)
        support.flat[merge.recon_at[mask != 0]] = True
        for t in (y, r_t, z):
            num = numeric_grad(lambda: float(loss_fn().data), t.data)
            keep = support if t is r_t else slice(None)
            assert_grads_close(t.grad[keep], num[keep])
        assert not r_t.grad[~support].any()
        assert not z.grad[:, mask != 0].any()

    @pytest.mark.parametrize("token0_pruned", [False, True])
    def test_class_row_gradients_match_finite_differences(self,
                                                          token0_pruned):
        rng, mask, merge, r, y, r_t, z = self._setup(
            83, class_token=not token0_pruned)
        if token0_pruned:
            scores = rng.uniform(0.05, 1.0, size=7)
            scores[0] = 0.0
            merge = generate_merge_matrix(scores, 3, 3)
            mask = merge.live.astype(np.uint8)
            r_t = Tensor(dense_pinv(merge), requires_grad=True)
        assert (mask[0] == 0) == token0_pruned
        y0 = Tensor(y.data[:, :1].copy(), requires_grad=True)
        coef = rng.standard_normal((2, 1, 4))

        def class_row():
            return reconstruct_tokens(y0, r_t[:1, :1], merge.head,
                                      z[:, :1])

        def loss_fn():
            return tensor_sum(class_row() * Tensor(coef))

        out = class_row()
        want = z.data[:, :1] if token0_pruned else y0.data * r_t.data[0, 0]
        assert out.data.tobytes() == want.tobytes()
        T.backward(loss_fn())
        for t in (y0, r_t, z):
            num = numeric_grad(lambda: float(loss_fn().data), t.data)
            if t.grad is None:   # z, while token 0 is live
                assert t is z and not token0_pruned and not num.any()
            else:
                assert_grads_close(t.grad, num)

    @pytest.mark.parametrize("class_row", [False, True])
    def test_layer_records_the_block_merge_and_reconstruct_only(
            self, class_row):
        # The shortcut records no node of its own: a compressed layer is
        # its block's nodes plus a merge and a reconstruct, two fewer than
        # a reconstruct followed by a masked multiply and an add.  A
        # class-row layer adds the two slices of token 0 that its
        # reconstruct reads, R[:1, :1] and z[:, :1].
        rng, block, z_np = small_block_setup(seed=84, n=7, dim=4, heads=2)
        merge = generate_merge_matrix(rng.uniform(0.05, 1.0, size=7), 3, 2,
                                      class_token=True)
        mask = merge.live.astype(np.uint8)
        z = Tensor(z_np, requires_grad=True)
        m_t = Tensor(merge.data, requires_grad=True)
        r_t = Tensor(dense_pinv(merge), requires_grad=True)
        out = pm_forward_tensors(z, m_t, r_t, merge, mask, block,
                                 heads=2, class_row=class_row)
        names = [node.name for node in T.Tape.trace(out).nodes]
        merged = Tensor(grouped_merge(z_np, merge), requires_grad=True)
        block_names = [node.name for node in T.Tape.trace(
            block_forward(merged, block, 2, class_row=class_row)).nodes]
        token0 = ["take", "take"] if class_row else []
        assert sorted(names) == sorted(block_names + token0
                                       + ["merge_tokens", "reconstruct_tokens"])

    def test_mask_must_match_the_merge(self):
        rng, block, z_np = small_block_setup(seed=85, n=5, dim=4, heads=2)
        merge = generate_merge_matrix(rng.uniform(0.05, 1.0, size=5), 2, 1)
        mask = merge.live.astype(np.uint8)
        wrong = mask.copy()
        wrong[np.flatnonzero(mask)[0]] = 0
        with pytest.raises(ContractError, match="mask"):
            pm_forward_tensors(Tensor(z_np), Tensor(merge.data),
                               Tensor(dense_pinv(merge)), merge,
                               wrong, block, heads=2)

    def test_layer_input_shape_checked(self):
        _, _, merge, _, y, r_t, _ = self._setup(86)
        with pytest.raises(ShapeMismatchError, match="layer input"):
            reconstruct_tokens(y, r_t, merge,
                               Tensor(np.zeros((2, 6, 4))))


def small_block_setup(seed=0, n=5, dim=4, heads=2):
    rng = np.random.default_rng(seed)
    config = ModelConfig(image_size=8, patch_size=4, channels=1,
                         embed_dim=dim, depth=1, heads=heads)
    params = init_params(config, seed=seed)
    block = params.blocks[0]
    z = rng.standard_normal((2, n, dim))
    return rng, block, z


class TestPmForward:
    def test_identity_plan_is_bit_exact(self):
        rng, block, z = small_block_setup(seed=1)
        plan = identity_plan(1, 5, class_token=False)
        out = pm_forward(Tensor(z), plan.entries[0], block, heads=2)
        ref = block_forward(Tensor(z.copy()), block, heads=2)
        assert np.array_equal(out.data, ref.data)

    def test_pruned_tokens_pass_through_unchanged(self):
        rng, block, z = small_block_setup(seed=2)
        scores = np.array([0.9, 0.1, 0.8, 0.05, 0.7])
        merge = generate_merge_matrix(scores, 2, 2)
        mask = merge.live.astype(np.uint8)
        entry_recon = pseudoinverse(merge)
        from prunemerge.compression import PlanEntry
        entry = PlanEntry(merge, entry_recon)
        out = pm_forward(Tensor(z), entry, block, heads=2)
        pruned = np.flatnonzero(mask == 0)
        assert np.array_equal(out.data[:, pruned, :], z[:, pruned, :])

    def test_matches_dense_oracle(self):
        rng, block, z = small_block_setup(seed=3)
        scores = rng.uniform(0.1, 1.0, size=5)
        merge = generate_merge_matrix(scores, 3, 1)
        mask = merge.live.astype(np.uint8)
        from prunemerge.compression import PlanEntry
        entry = PlanEntry(merge, pseudoinverse(merge))
        plus = entry.reconstruct
        out = pm_forward(Tensor(z), entry, block, heads=2)

        z_c = np.einsum("kn,bnd->bkd", merge.data, z)
        y = block_forward(Tensor(z_c), block, heads=2).data
        dense = np.einsum("nk,bkd->bnd", plus, y) \
            + z * (1.0 - mask)[:, None]
        np.testing.assert_allclose(out.data, dense, atol=1e-12)

    def test_gradients_flow_through_compressed_layer(self):
        rng, block, z_np = small_block_setup(seed=4, n=4, dim=4, heads=1)
        scores = np.array([0.6, 0.9, 0.2, 0.8])
        merge = generate_merge_matrix(scores, 2, 1)
        mask = merge.live.astype(np.uint8)
        plus = dense_pinv(merge)
        z = Tensor(z_np, requires_grad=True)
        m_t = Tensor(merge.data.copy(), requires_grad=True)
        r_t = Tensor(plus.copy(), requires_grad=True)
        coef = rng.standard_normal(z_np.shape)

        from prunemerge.compression import pm_forward_tensors

        def loss_fn():
            out = pm_forward_tensors(z, m_t, r_t, merge, mask,
                                     block, heads=1)
            return tensor_sum(out * Tensor(coef))

        loss = loss_fn()
        T.backward(loss)
        # pruned tokens' entries are held at zero: no gradient reaches them
        live = np.ones_like(z.data, dtype=bool)
        m_live = np.broadcast_to(mask != 0, m_t.data.shape)
        r_live = np.broadcast_to((mask != 0)[:, None], r_t.data.shape)
        for target, grad, keep in ((z.data, z.grad, live),
                                   (m_t.data, m_t.grad, m_live),
                                   (r_t.data, r_t.grad, r_live)):
            num = numeric_grad(lambda: float(loss_fn().data), target)
            assert_grads_close(grad[keep], num[keep], rel=2e-4)
            assert np.all(grad[~keep] == 0.0)


class TestGlobalPlan:
    def test_two_layer_worked_example(self):
        scores = [np.array([9.0, 8.0, 1.0, 2.0]),
                  np.array([7.0, 3.0, 4.0, 6.0])]
        plan = global_plan(scores, rate=0.5, pm_threshold=0.25,
                           class_token=False)
        assert plan.kept_per_layer() == {0: 2, 1: 2}
        np.testing.assert_array_equal(plan.entries[0].mask, [1, 1, 0, 0])
        np.testing.assert_array_equal(plan.entries[1].mask, [1, 1, 1, 1])
        # layer 1 reserves tokens 0 and 1; tokens 2 and 3 are pruned so the
        # second group carries token 1 alone
        assert plan.entries[0].merge.groups == [(0, 1), (1, 4)]
        np.testing.assert_allclose(plan.entries[0].merge.data[1],
                                   [0, 1, 0, 0], atol=1e-12)
        # layer 2 reserves tokens 0 and 3 with nothing pruned
        assert plan.entries[1].merge.groups == [(0, 1), (1, 4)]
        np.testing.assert_allclose(plan.entries[1].merge.data[1],
                                   np.array([0, 3, 4, 6.0]) / 13.0,
                                   atol=1e-12)

    def test_budget_exactness(self):
        rng = np.random.default_rng(55)
        for rate in (0.5, 0.6, 0.7, 0.8):
            for trial in range(5):
                depth = int(rng.integers(2, 5))
                n = int(rng.integers(6, 30))
                scores = [rng.uniform(0, 1, size=n) for _ in range(depth)]
                plan = global_plan(scores, rate=rate, pm_threshold=0.1)
                expected = round_half_up(rate * (depth * n))
                assert plan.total_kept() == expected

    def test_class_tokens_always_reserved(self):
        rng = np.random.default_rng(56)
        scores = [rng.uniform(0, 1, size=12) for _ in range(3)]
        # class scores forced to the global minimum
        for s in scores:
            s[0] = -1.0
        plan = global_plan(scores, rate=0.4, pm_threshold=0.3)
        for entry in plan.entries:
            assert entry.mask[0] == 1
            np.testing.assert_array_equal(entry.merge.data[0],
                                          np.eye(12)[0])

    def test_prune_budget_and_masks(self):
        rng = np.random.default_rng(57)
        scores = [rng.uniform(0, 1, size=10) for _ in range(4)]
        plan = global_plan(scores, rate=0.6, pm_threshold=0.2)
        total = 40
        pruned = sum(int((e.mask == 0).sum()) for e in plan.entries)
        assert pruned == round(0.2 * total)

    def test_threshold_above_removal_budget_degrades_gracefully(self):
        rng = np.random.default_rng(58)
        scores = [rng.uniform(0, 1, size=10) for _ in range(2)]
        plan = global_plan(scores, rate=0.5, pm_threshold=0.9)
        assert plan.total_kept() == 10
        pruned = sum(int((e.mask == 0).sum()) for e in plan.entries)
        assert pruned == 10  # every removed token pruned, none merged away

    def test_rescaling_leaves_structure_identical(self):
        rng = np.random.default_rng(59)
        scores = [rng.uniform(0, 1, size=14) for _ in range(3)]
        scaled = [s * 37.5 for s in scores]
        a = global_plan(scores, rate=0.6, pm_threshold=0.15)
        b = global_plan(scaled, rate=0.6, pm_threshold=0.15)
        for ea, eb in zip(a.entries, b.entries):
            np.testing.assert_array_equal(ea.mask, eb.mask)
            assert ea.merge.groups == eb.merge.groups
            np.testing.assert_allclose(ea.merge.data, eb.merge.data,
                                       atol=1e-12)

    def test_exempt_layers_left_untouched(self):
        rng = np.random.default_rng(60)
        scores = [rng.uniform(0, 1, size=8) for _ in range(3)]
        plan = global_plan(scores, rate=0.5, pm_threshold=0.1,
                           exempt_layers=(1,))
        assert plan.entries[1] is None
        assert plan.uncompressed == frozenset({1})
        assert plan.total_kept() == round(0.5 * 16)

    def test_layer_starved_of_tokens_raises(self):
        scores = [np.array([10.0, 10.0]), np.array([0.1, 0.1])]
        with pytest.raises(ContractError):
            global_plan(scores, rate=0.5, pm_threshold=0.0,
                        class_token=False)

    def test_layer_with_only_its_class_token_reserved_prunes_the_rest(self):
        # 15 tokens, keep round(10.5) = 11: the three class tokens and the
        # eight best patch tokens, none of which is in layer 1, while the
        # threshold prunes only two of layer 1's four.
        scores = [np.array([0.0, 0.9, 0.8, 0.7, 0.6]),
                  np.array([0.0, 0.1, 0.2, 0.3, 0.4]),
                  np.array([0.0, 0.95, 0.85, 0.75, 0.65])]
        plan = global_plan(scores, rate=0.7, pm_threshold=0.1,
                           exempt_layers=())
        assert plan.total_kept() == round_half_up(0.7 * 15)
        assert plan.kept_per_layer() == {0: 5, 1: 1, 2: 5}
        entry = plan.entries[1]
        np.testing.assert_array_equal(entry.mask, [1, 0, 0, 0, 0])
        assert entry.merge.groups == [(0, 5)]
        np.testing.assert_array_equal(entry.r, [1.0, 0, 0, 0, 0])
        pruned = sum(int((e.mask == 0).sum()) for e in plan.entries)
        assert pruned == 4 > round_half_up(0.1 * 15)

    def test_random_depth_four_plans_keep_the_budget(self):
        rng = np.random.default_rng(62)
        for _ in range(1000):
            scores = [rng.uniform(0, 1, size=5) for _ in range(4)]
            plan = global_plan(scores, rate=0.7, pm_threshold=0.1,
                               exempt_layers=())
            assert plan.total_kept() == round_half_up(0.7 * 20)
            pruned = sum(int((e.mask == 0).sum()) for e in plan.entries)
            assert pruned >= round_half_up(0.1 * 20)

    def test_full_rate_yields_identity(self):
        rng = np.random.default_rng(61)
        scores = [rng.uniform(0, 1, size=6) for _ in range(2)]
        plan = global_plan(scores, rate=1.0, pm_threshold=0.0)
        for entry in plan.entries:
            np.testing.assert_array_equal(entry.merge.data, np.eye(6))
            np.testing.assert_array_equal(entry.mask, np.ones(6))

    def test_invalid_rate_rejected(self):
        scores = [np.ones(4)]
        with pytest.raises(ContractError):
            global_plan(scores, rate=0.0, pm_threshold=0.1)
        with pytest.raises(ContractError):
            global_plan(scores, rate=1.2, pm_threshold=0.1)
        with pytest.raises(ContractError):
            global_plan(scores, rate=0.5, pm_threshold=-0.1)

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(62)
        scores = [rng.uniform(0, 1, size=9) for _ in range(3)]
        plan = global_plan(scores, rate=0.6, pm_threshold=0.2,
                           exempt_layers=(2,))
        back = CompressionPlan.from_arrays(plan.to_arrays())
        assert back.depth == plan.depth
        assert back.uncompressed == plan.uncompressed
        assert back.class_token == plan.class_token
        for ea, eb in zip(plan.entries, back.entries):
            if ea is None:
                assert eb is None
                continue
            np.testing.assert_array_equal(ea.mask, eb.mask)
            np.testing.assert_array_equal(ea.merge.data, eb.merge.data)
            np.testing.assert_array_equal(ea.reconstruct, eb.reconstruct)
            assert ea.merge.groups == eb.merge.groups


    def test_plan_arrays_are_per_token_vectors(self):
        # a plan stores groups plus three length-N vectors per layer; dense
        # M and R are derived, never written
        rng = np.random.default_rng(64)
        scores = [rng.uniform(0, 1, size=11) for _ in range(3)]
        plan = global_plan(scores, rate=0.6, pm_threshold=0.2,
                           exempt_layers=(1,))
        arrays = plan.to_arrays()
        back = CompressionPlan.from_arrays(arrays).to_arrays()
        assert back.keys() == arrays.keys()
        for key, value in arrays.items():
            assert back[key].dtype == value.dtype
            np.testing.assert_array_equal(back[key], value)
        for layer in (0, 2):
            kept = plan.entries[layer].kept
            for key, value in arrays.items():
                if key.startswith(f"plan.layer{layer}."):
                    expected = (kept, 2) if key.endswith(".groups") else (11,)
                    assert value.shape == expected, key


class TestPlanLoading:
    """A plan read from a file is checked before any kernel sees it."""

    @staticmethod
    def arrays():
        rng = np.random.default_rng(63)
        scores = [rng.uniform(0.1, 1.0, size=9) for _ in range(2)]
        arrays = global_plan(scores, rate=0.6, pm_threshold=0.2).to_arrays()
        assert (arrays["plan.layer0.mask"] == 0).any()
        return arrays

    def test_valid_plan_loads(self):
        CompressionPlan.from_arrays(self.arrays())

    @pytest.mark.parametrize("key, corrupt", [
        ("groups", lambda g: g.__setitem__((1, 0), g[1, 0] + 1)),    # gap
        ("groups", lambda g: g.__setitem__((1, 0), g[1, 0] - 1)),    # overlap
        ("groups", lambda g: g.__setitem__((-1, 1), 12)),    # out of range
        ("merge", lambda m: m.__setitem__(0, np.nan)),
        ("reconstruct", lambda r: r.__setitem__(1, np.inf)),
        ("mask", lambda m: m.__setitem__(0, 2)),
    ], ids=["gap", "overlap", "out-of-range", "nan", "inf", "mask-value"])
    def test_corruption_rejected(self, key, corrupt):
        arrays = self.arrays()
        corrupt(arrays[f"plan.layer1.{key}"])
        with pytest.raises(ContractError, match="plan layer 1"):
            CompressionPlan.from_arrays(arrays)

    def test_class_token_flag_checked(self):
        rng = np.random.default_rng(68)
        scores = [rng.uniform(0.1, 1.0, size=9) for _ in range(2)]
        plan = global_plan(scores, rate=0.6, pm_threshold=0.2,
                           class_token=False)
        arrays = plan.to_arrays()
        # Group 0 holds live tokens 0 and 1.
        assert arrays["plan.layer0.groups"][0, 1] == 2
        assert arrays["plan.layer0.mask"][:2].tolist() == [1, 1]
        arrays["plan.class_token"] = np.array(1, dtype=np.uint8)
        with pytest.raises(ContractError, match="plan layer 0: class_token"):
            CompressionPlan.from_arrays(arrays)
        # Token 0 alone in an identity plan satisfies the flag either way.
        arrays = identity_plan(2, 9, class_token=False).to_arrays()
        arrays["plan.class_token"] = np.array(1, dtype=np.uint8)
        assert CompressionPlan.from_arrays(arrays).class_token

    @pytest.mark.parametrize("key", ["mask", "merge", "reconstruct",
                                     "groups"])
    def test_wrong_shape_rejected(self, key):
        # no other array's shape depends on the group count, so a lost
        # group shows up as a hole in the partition
        arrays = self.arrays()
        arrays[f"plan.layer0.{key}"] = arrays[f"plan.layer0.{key}"][:-1]
        match = "do not partition" if key == "groups" else "shapes disagree"
        with pytest.raises(ContractError, match=match):
            CompressionPlan.from_arrays(arrays)

    @pytest.mark.parametrize("key", ["plan.depth", "plan.uncompressed",
                                     "plan.layer0.groups"])
    def test_wrong_rank_rejected(self, key):
        arrays = self.arrays()
        arrays[key] = np.zeros((2, 2)) if key == "plan.depth" else \
            np.array(1, dtype=np.int64)
        with pytest.raises(ContractError):
            CompressionPlan.from_arrays(arrays)

    def test_uncompressed_layer_out_of_range_rejected(self):
        arrays = self.arrays()
        arrays["plan.uncompressed"] = np.array([7], dtype=np.int64)
        with pytest.raises(ContractError, match="outside"):
            CompressionPlan.from_arrays(arrays)

    def test_pruned_token_with_weight_rejected(self):
        arrays = self.arrays()
        mask = arrays["plan.layer0.mask"]
        mask[np.flatnonzero(mask == 0)[0]] = 1
        with pytest.raises(ContractError, match="mask"):
            CompressionPlan.from_arrays(arrays)

    def test_trained_row_sums_accepted(self):
        arrays = self.arrays()
        arrays["plan.layer0.merge"] *= 1.1
        arrays["plan.layer0.reconstruct"] *= 0.9
        CompressionPlan.from_arrays(arrays)

    def test_negative_depth_rejected(self):
        arrays = self.arrays()
        arrays["plan.depth"] = np.array(-1, dtype=np.int64)
        arrays["plan.uncompressed"] = np.array([], dtype=np.int64)
        with pytest.raises(ContractError, match="plan depth -1 is negative"):
            CompressionPlan.from_arrays(arrays)


@pytest.fixture(scope="module")
def base_model():
    config = ModelConfig(image_size=8, patch_size=4, channels=1,
                         embed_dim=8, depth=2, heads=2, num_classes=4)
    return VisionTransformer.build(config, seed=11)


class TestPlanShape:
    """A plan stores its entries and class-token flag alone: its depth and
    exempt layers are read from the entries, and ``check_fits`` holds the
    one rule for which model it applies to."""

    def test_only_entries_and_class_token_are_stored(self):
        assert [f.name for f in dataclasses.fields(CompressionPlan)] \
            == ["entries", "class_token"]
        assert not hasattr(CompressionPlan, "__post_init__")

    @staticmethod
    def plans(base_model):
        rng = np.random.default_rng(64)
        n = base_model.config.num_tokens
        four = global_plan([rng.uniform(0.1, 1.0, size=n) for _ in range(4)],
                           rate=0.6, pm_threshold=0.2, exempt_layers=(1, 3))
        two = global_plan([rng.uniform(0.1, 1.0, size=n) for _ in range(2)],
                          rate=0.6, pm_threshold=0.2, exempt_layers=(1,))
        exported = compress_model(base_model, two,
                                  learnable_matrices=True).export_plan()
        return {"global_plan": (four, 4, {1, 3}),
                "identity_plan": (identity_plan(3, n), 3, set()),
                "export_plan": (exported, 2, {1}),
                "from_arrays": (CompressionPlan.from_arrays(
                    four.to_arrays()), 4, {1, 3})}

    @pytest.mark.parametrize("source", ["global_plan", "identity_plan",
                                        "export_plan", "from_arrays"])
    def test_depth_and_exempt_layers_come_from_the_entries(self, base_model,
                                                           source):
        plan, depth, exempt = self.plans(base_model)[source]
        assert plan.depth == depth
        assert plan.uncompressed == frozenset(exempt)
        arrays = plan.to_arrays()
        assert arrays["plan.depth"] == depth
        assert arrays["plan.uncompressed"].tolist() == sorted(exempt)

    def test_fit_rule_names_depth_then_width(self, base_model):
        config = base_model.config
        n = config.num_tokens
        with pytest.raises(ContractError,
                           match=r"^plan depth 3 != model depth 2$"):
            identity_plan(3, n + 1).check_fits(config)
        with pytest.raises(ContractError, match=rf"^layer 0: plan width "
                                                rf"{n + 1} != model tokens "
                                                rf"{n}$"):
            identity_plan(2, n + 1).check_fits(config)
        identity_plan(2, n).check_fits(config)

    def test_exempt_layers_have_no_width(self, base_model):
        rng = np.random.default_rng(65)
        n = base_model.config.num_tokens
        plan = global_plan([rng.uniform(0.1, 1.0, size=n + 2),
                            rng.uniform(0.1, 1.0, size=n)],
                           rate=0.6, pm_threshold=0.2, exempt_layers=(0,))
        plan.check_fits(base_model.config)
        compress_model(base_model, plan)


class TestCompressedModel:
    def test_identity_plan_matches_base_exactly(self, base_model):
        rng = np.random.default_rng(70)
        images = rng.uniform(0, 1, size=(3, 1, 8, 8))
        plan = identity_plan(2, base_model.config.num_tokens)
        comp = compress_model(base_model, plan)
        np.testing.assert_array_equal(comp.forward(images).data,
                                      base_model.forward(images).data)

    def test_forward_matches_per_layer_composition(self, base_model):
        rng = np.random.default_rng(71)
        images = rng.uniform(0, 1, size=(2, 1, 8, 8))
        n = base_model.config.num_tokens
        scores = [rng.uniform(0.1, 1.0, size=n) for _ in range(2)]
        plan = global_plan(scores, rate=0.6, pm_threshold=0.2)
        comp = compress_model(base_model, plan)

        from prunemerge.vit import patchify
        z = patchify(images, comp.config, comp.params.embed)
        for layer, blk in enumerate(comp.params.blocks):
            z = pm_forward(z, plan.entries[layer], blk, comp.config.heads)
        z = T.layer_norm(z, comp.params.ln_f_g, comp.params.ln_f_b)
        ref = T.matmul(z[:, 0, :], comp.params.head_w) + comp.params.head_b
        np.testing.assert_allclose(comp.forward(images).data, ref.data,
                                   atol=1e-12)

    def test_layers_are_looked_up_by_module_name(self, base_model,
                                                 monkeypatch):
        # A wrapper installed on the module names, as perfbench's tracer
        # installs one, sees every layer of the compressed forward.
        from prunemerge import compression, vit
        rng = np.random.default_rng(74)
        n = base_model.config.num_tokens
        plan = global_plan([rng.uniform(0.1, 1.0, size=n) for _ in range(2)],
                           rate=0.7, pm_threshold=0.1, exempt_layers=(0,))
        comp = compress_model(base_model, plan)
        calls = []

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        block = spy("block", vit.block_forward)
        for module in (vit, compression):
            monkeypatch.setattr(module, "block_forward", block)
        monkeypatch.setattr(compression, "pm_forward_tensors",
                            spy("pm", compression.pm_forward_tensors))
        comp.forward(rng.uniform(0, 1, size=(2, 1, 8, 8)))
        # layer 0 is exempt; layer 1's merged tokens run a block too
        assert calls == ["block", "pm", "block"]

    def test_learnable_matrices_receive_masked_gradients(self, base_model):
        rng = np.random.default_rng(72)
        images = rng.uniform(0, 1, size=(2, 1, 8, 8))
        labels = np.array([0, 1])
        n = base_model.config.num_tokens
        scores = [rng.uniform(0.1, 1.0, size=n) for _ in range(2)]
        plan = global_plan(scores, rate=0.6, pm_threshold=0.2)
        comp = compress_model(base_model, plan, learnable_matrices=True)
        loss = T.cross_entropy(comp.forward(images), labels)
        T.backward(loss)
        for layer, m_t in comp.merge_t.items():
            entry = plan.entries[layer]
            support = np.zeros_like(m_t.data, dtype=bool)
            for row, (a, b) in enumerate(entry.merge.groups):
                support[row, a:b] = True
            assert m_t.grad is not None
            assert np.all(m_t.grad[~support] == 0.0)
        assert comp.params.embed.w.grad is not None
        assert any(np.any(m.grad != 0) for m in comp.merge_t.values())

    def test_frozen_matrices_get_no_gradient(self, base_model):
        rng = np.random.default_rng(73)
        images = rng.uniform(0, 1, size=(2, 1, 8, 8))
        n = base_model.config.num_tokens
        scores = [rng.uniform(0.1, 1.0, size=n) for _ in range(2)]
        plan = global_plan(scores, rate=0.6, pm_threshold=0.2)
        comp = compress_model(base_model, plan, learnable_matrices=True)
        comp.set_matrices_trainable(False)
        loss = T.cross_entropy(comp.forward(images), np.array([0, 1]))
        T.backward(loss)
        for m_t in comp.merge_t.values():
            assert m_t.grad is None
        assert comp.params.embed.w.grad is not None

    def test_frozen_matrices_build_no_dense_gradient(self, base_model,
                                                     monkeypatch):
        rng = np.random.default_rng(75)
        images = rng.uniform(0, 1, size=(2, 1, 8, 8))
        n = base_model.config.num_tokens
        scores = [rng.uniform(0.1, 1.0, size=n) for _ in range(2)]
        plan = global_plan(scores, rate=0.6, pm_threshold=0.2)
        calls = []
        for name in ("merge_matrix", "recon_matrix"):
            def counted(self, w, _original=getattr(MergeMatrix, name)):
                calls.append(w)
                return _original(self, w)
            monkeypatch.setattr(MergeMatrix, name, counted)
        for learnable, expected in ((True, 2 * len(plan.entries)),
                                    (False, 0)):
            comp = compress_model(base_model, plan,
                                  learnable_matrices=learnable)
            loss = T.cross_entropy(comp.forward(images), np.array([0, 1]))
            calls.clear()
            T.backward(loss)
            assert len(calls) == expected
            assert comp.params.embed.w.grad is not None

    def test_export_plan_reflects_trained_matrices(self, base_model):
        rng = np.random.default_rng(74)
        n = base_model.config.num_tokens
        scores = [rng.uniform(0.1, 1.0, size=n) for _ in range(2)]
        plan = global_plan(scores, rate=0.6, pm_threshold=0.2)
        comp = compress_model(base_model, plan, learnable_matrices=True)
        comp.merge_t[0].data[0, 0] = 0.123
        snap = comp.export_plan()
        assert snap.entries[0].merge.data[0, 0] == 0.123
        np.testing.assert_array_equal(snap.entries[0].mask,
                                      plan.entries[0].mask)
        assert snap.entries[0].merge.groups == plan.entries[0].merge.groups
        # the original plan object is untouched
        assert plan.entries[0].merge.data[0, 0] != 0.123

    def test_base_model_parameters_left_untouched(self, base_model):
        before = {k: v.data.copy()
                  for k, v in base_model.named_parameters()}
        rng = np.random.default_rng(75)
        n = base_model.config.num_tokens
        scores = [rng.uniform(0.1, 1.0, size=n) for _ in range(2)]
        plan = global_plan(scores, rate=0.6, pm_threshold=0.2)
        comp = compress_model(base_model, plan)
        for _, t in comp.named_parameters():
            t.data += 1.0
        for k, v in base_model.named_parameters():
            np.testing.assert_array_equal(v.data, before[k])

    def test_depth_mismatch_rejected(self, base_model):
        plan = identity_plan(3, base_model.config.num_tokens)
        with pytest.raises(ContractError):
            compress_model(base_model, plan)

    def test_width_mismatch_rejected(self, base_model):
        plan = identity_plan(2, base_model.config.num_tokens + 1)
        with pytest.raises(ContractError):
            compress_model(base_model, plan)


def class_free_plan(n, rng):
    """Two layers planned without a class token; the last layer scores
    token 0 lowest, so it is pruned there."""
    scores = [rng.uniform(0.1, 1.0, size=n) for _ in range(2)]
    scores[1][0] = 0.0
    plan = global_plan(scores, rate=0.6, pm_threshold=0.2, class_token=False)
    assert plan.entries[1].mask[0] == 0
    return plan


class TestClassRowPath:
    """A compressed last layer merges every token but runs its block and
    reconstruct for token 0 only; a traced forward runs it in full."""

    @staticmethod
    def step(comp, images, labels, traced):
        for _, p in comp.named_parameters():
            p.grad = None
        logits = comp.forward(images, traces=[] if traced else None)
        T.backward(T.cross_entropy(logits, labels))
        return logits.data, {n: p.grad.copy()
                             for n, p in comp.named_parameters()
                             if p.grad is not None}

    @pytest.mark.parametrize("class_token", [True, False])
    @pytest.mark.parametrize("learnable", [True, False])
    def test_logits_and_grads_match_full_path(self, base_model, class_token,
                                              learnable):
        rng = np.random.default_rng(76)
        images = rng.uniform(0, 1, size=(3, 1, 8, 8))
        labels = np.array([0, 3, 1])
        n = base_model.config.num_tokens
        if class_token:
            scores = [rng.uniform(0.1, 1.0, size=n) for _ in range(2)]
            plan = global_plan(scores, rate=0.6, pm_threshold=0.2)
        else:
            plan = class_free_plan(n, rng)
        comp = compress_model(base_model, plan, learnable_matrices=learnable)
        full, full_grads = self.step(comp, images, labels, traced=True)
        row, row_grads = self.step(comp, images, labels, traced=False)
        np.testing.assert_allclose(row, full, rtol=0, atol=1e-12)
        assert full_grads.keys() == row_grads.keys()
        assert ("pm.layer1.reconstruct" in row_grads) == learnable
        for name, g in full_grads.items():
            scale = max(np.abs(g).max(), 1e-300)
            assert np.abs(row_grads[name] - g).max() <= 1e-9 * scale, name
        if learnable:
            # entries outside the groups and of pruned tokens stay exact 0
            r_grad = row_grads["pm.layer1.reconstruct"]
            merge = plan.entries[1].merge
            outside = np.ones(r_grad.shape, dtype=bool)
            outside.flat[merge.recon_at[merge.live]] = False
            assert not r_grad[outside].any()
        with T.no_grad():
            inference = comp.forward(images)
        assert inference._node is None
        np.testing.assert_array_equal(inference.data, row)

    def test_pruned_token_zero_reads_the_shortcut(self, base_model):
        rng = np.random.default_rng(77)
        images = rng.uniform(0, 1, size=(2, 1, 8, 8))
        plan = class_free_plan(base_model.config.num_tokens, rng)
        comp = compress_model(base_model, plan, learnable_matrices=True)
        z = patchify(images, comp.config, comp.params.embed)
        z = pm_forward(z, plan.entries[0], comp.params.blocks[0],
                       comp.config.heads)
        entry, layer = plan.entries[1], 1
        out = pm_forward_tensors(z, comp.merge_t[layer], comp.recon_t[layer],
                                 entry.merge, entry.mask,
                                 comp.params.blocks[layer],
                                 comp.config.heads, class_row=True)
        assert out.shape == (2, 1, comp.config.embed_dim)
        np.testing.assert_array_equal(out.data, z.data[:, :1])

    def test_every_layer_reconstructs_through_the_module_name(
            self, base_model, monkeypatch):
        # A wrapper on compression.reconstruct_tokens, as perfbench's
        # tracer installs one, sees each compressed layer's reconstruct,
        # the class-row last layer's (B, 1, D) one included.
        from prunemerge import compression
        rng = np.random.default_rng(80)
        n = base_model.config.num_tokens
        plan = global_plan([rng.uniform(0.1, 1.0, size=n) for _ in range(2)],
                           rate=0.6, pm_threshold=0.2)
        comp = compress_model(base_model, plan, learnable_matrices=True)
        original = compression.reconstruct_tokens
        shapes = []

        def spy(*args, **kwargs):
            out = original(*args, **kwargs)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(compression, "reconstruct_tokens", spy)
        comp.forward(rng.uniform(0, 1, size=(2, 1, 8, 8)))
        d = comp.config.embed_dim
        assert shapes == [(2, n, d), (2, 1, d)]

    def test_finite_differences_through_class_row_layer(self, base_model):
        rng = np.random.default_rng(78)
        images = rng.uniform(0, 1, size=(2, 1, 8, 8))
        labels = np.array([2, 1])
        n = base_model.config.num_tokens
        scores = [rng.uniform(0.1, 1.0, size=n) for _ in range(2)]
        plan = global_plan(scores, rate=0.6, pm_threshold=0.2)
        comp = compress_model(base_model, plan, learnable_matrices=True)
        for _, p in comp.params.named_parameters():
            p.data += rng.normal(scale=0.3, size=p.shape)

        def f():
            return float(T.cross_entropy(comp.forward(images), labels).data)

        T.backward(T.cross_entropy(comp.forward(images), labels))
        merge = plan.entries[1].merge
        last = comp.params.blocks[1]
        for t, at in ((comp.merge_t[1], merge.merge_at[merge.live]),
                      (comp.recon_t[1], merge.recon_at[merge.live]),
                      (last.w_q, slice(None)), (last.w_v, slice(None)),
                      (last.ln1_b, slice(None))):
            numeric = numeric_grad(f, t.data)
            assert_grads_close(t.grad.ravel()[at], numeric.ravel()[at])

    def test_traced_forward_records_full_last_maps(self, base_model):
        rng = np.random.default_rng(79)
        n = base_model.config.num_tokens
        scores = [rng.uniform(0.1, 1.0, size=n) for _ in range(2)]
        plan = global_plan(scores, rate=0.6, pm_threshold=0.2)
        comp = compress_model(base_model, plan)
        traces = []
        comp.forward(rng.uniform(0, 1, size=(2, 1, 8, 8)), traces=traces)
        kept = plan.entries[1].kept
        assert traces[-1].maps.shape == (2, comp.config.heads, kept, kept)


class TestSparsetoolsLoader:
    """The merge kernel comes from scipy's compiled extension alone; the
    scipy.sparse package is neither needed nor disturbed."""

    @staticmethod
    def run(code: str) -> str:
        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(prunemerge.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        return proc.stdout

    def test_cli_import_loads_only_the_extension(self):
        out = self.run(
            "import sys, prunemerge.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))")
        assert out.split() == ["['scipy.sparse._sparsetools']"]

    def test_kernel_matches_the_package_import(self):
        # one seeded random CSR product, computed once with each import
        product = (
            "import numpy as np\n"
            "rng = np.random.default_rng(5)\n"
            "dense = rng.standard_normal((13, 17))\n"
            "dense[rng.uniform(size=dense.shape) < 0.6] = 0.0\n"
            "rows, cols = np.nonzero(dense)\n"
            "indptr = np.searchsorted(rows, np.arange(14)).astype(np.int32)\n"
            "x = rng.standard_normal((17, 6))\n"
            "out = np.zeros((13, 6))\n"
            "csr_matvecs(13, 17, 6, indptr, cols.astype(np.int32),\n"
            "            dense[rows, cols], x, out)\n"
            "assert np.allclose(out, dense @ x)\n"
            "print(out.tobytes().hex())\n")
        loaded = self.run("from prunemerge.compression import csr_matvecs\n"
                          + product)
        package = self.run("from scipy.sparse._sparsetools import "
                           "csr_matvecs\n" + product)
        a, b = (np.frombuffer(bytes.fromhex(s.strip())) for s in
                (loaded, package))
        assert a.size == 13 * 6
        assert np.array_equal(a, b)

    def test_later_package_import_still_works(self):
        out = self.run(
            "import sys\n"
            "import numpy as np\n"
            "from prunemerge.compression import csr_matvecs\n"
            "import scipy.sparse\n"
            "rng = np.random.default_rng(6)\n"
            "a = scipy.sparse.random(20, 30, density=0.2, format='csr',\n"
            "                        random_state=7)\n"
            "x = rng.standard_normal((30, 4))\n"
            "np.testing.assert_allclose(a @ x, a.toarray() @ x, rtol=1e-12)\n"
            "np.testing.assert_allclose(a.tocsc() @ x, a.toarray() @ x,\n"
            "                           rtol=1e-12)\n"
            "module = sys.modules['scipy.sparse._sparsetools']\n"
            "print(module.csr_matvecs is csr_matvecs)")
        assert out.split() == ["True"]


# Functions of ``prunemerge.compression`` that no program path below
# calls, and why each stays; every other function and method it defines
# must run there.
UNCALLED_BY_DESIGN = {
    "_load_sparsetools": "runs once, when the module is imported",
    "pm_forward": "criterion 3 composes a compressed forward from it",
    "identity_plan": "criteria 3 and 8 and perfbench's deit-infer gate "
                     "build the no-op plan",
}


def test_program_paths_call_every_function_of_compression(base_model,
                                                          tmp_path):
    # What the commands run, in-process at a tiny size: compress (plan,
    # save, load, flops), finetune (one learnable distill step with a
    # class-row last layer, then the student saved), eval (a frozen
    # no_grad forward) and bench.
    from prunemerge import compression
    from prunemerge.checkpoint import load_plan, save_model, save_plan
    from prunemerge.data import Dataset
    from prunemerge.finetune import (DistillConfig, evaluate_accuracy,
                                     finetune)
    from prunemerge.flops import micro_benchmark, model_flops
    rng = np.random.default_rng(90)
    config = base_model.config
    images = rng.uniform(0, 1, size=(2, 1, 8, 8))
    dataset = Dataset(images, np.array([0, 3]), num_classes=4)
    scores = [rng.uniform(0.1, 1.0, size=config.num_tokens)
              for _ in range(config.depth)]

    def paths():
        save_plan(tmp_path / "plan.pmvt",
                  global_plan(scores, rate=0.6, pm_threshold=0.2))
        plan = load_plan(tmp_path / "plan.pmvt")
        model_flops(config, plan)
        student = compress_model(base_model, plan, learnable_matrices=True)
        finetune(student, base_model.frozen_copy(), dataset,
                 DistillConfig(epochs=1, freeze_epoch=1, batch_size=2))
        save_model(tmp_path / "student.pmvt", student)
        evaluate_accuracy(compress_model(base_model, plan), dataset)
        micro_benchmark(n_tokens=8, dim=4, repetitions=10)

    never = uncalled(compression, paths)
    allowed = set(UNCALLED_BY_DESIGN)
    assert never == allowed, (
        f"never called: {sorted(never - allowed)}; "
        f"called though allowed or not defined: {sorted(allowed - never)}")

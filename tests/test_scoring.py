"""Unit tests for token importance scoring."""

import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prunemerge import scoring
from prunemerge import tensor as T
from prunemerge import vit
from prunemerge.compression import generate_merge_matrix
from prunemerge.data import Dataset, batches, synthetic_shapes
from prunemerge.errors import ContractError, ShapeMismatchError
from prunemerge.scoring import ScorerVariant

from helpers import fresh


class TestTaylorToken:
    def test_zero_gradient(self):
        z = np.random.default_rng(0).normal(size=(4, 8))
        np.testing.assert_array_equal(
            scoring.score_taylor_token(z, np.zeros_like(z)), np.zeros(4))

    def test_signed_cancellation(self):
        z = np.array([[1.0, 2.0]])
        g = np.array([[0.5, -0.25]])
        np.testing.assert_allclose(scoring.score_taylor_token(z, g), [0.0])

    def test_unit_case(self):
        np.testing.assert_allclose(
            scoring.score_taylor_token(np.array([[1.0, 1.0]]),
                                       np.array([[1.0, 1.0]])), [1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            scoring.score_taylor_token(np.zeros((3, 2)), np.zeros((2, 2)))


def weighted(maps, grads):
    return scoring.score_attention(ScorerVariant.GRAD_WEIGHTED_AVG, maps,
                                   grads)


class TestGradWeightedAttention:
    def test_hand_column_sums(self):
        a = np.array([[[0.9, 0.1], [0.6, 0.4]]])  # one head, query-major
        g = np.ones_like(a)
        np.testing.assert_allclose(weighted(a, g), [1.5, 0.5])

    def test_zero_gradient(self):
        a = np.full((2, 3, 3), 1 / 3)
        np.testing.assert_array_equal(weighted(a, np.zeros_like(a)),
                                      np.zeros(3))

    def test_duplicate_heads_match_single_head(self):
        rng = np.random.default_rng(42)
        a1 = rng.uniform(size=(1, 4, 4))
        a1 /= a1.sum(-1, keepdims=True)
        g1 = rng.normal(size=(1, 4, 4))
        single = weighted(a1, g1)
        a2 = np.concatenate([a1, a1], axis=0)
        g2 = np.concatenate([g1, g1], axis=0)
        np.testing.assert_allclose(weighted(a2, g2), single, atol=1e-12)

    def test_head_permutation_symmetry(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(size=(3, 5, 5))
        g = rng.normal(size=(3, 5, 5))
        base = weighted(a, g)
        perm = [2, 0, 1]
        np.testing.assert_allclose(weighted(a[perm], g[perm]), base,
                                   atol=1e-12)

    def test_batch_folds_inside_absolute_value(self):
        # Two samples with opposite-sign gradients must cancel, not add.
        a = np.full((2, 1, 2, 2), 0.5)
        g = np.stack([np.ones((1, 2, 2)), -np.ones((1, 2, 2))])
        np.testing.assert_allclose(weighted(a, g), [0.0, 0.0])


class TestOtherVariants:
    def test_attn_only_sums_to_token_count(self):
        rng = np.random.default_rng(42)
        for n in (3, 7, 17):
            a = rng.uniform(size=(4, 2, n, n))
            a /= a.sum(-1, keepdims=True)
            s = scoring.score_attention(ScorerVariant.ATTN_ONLY_AVG, a)
            np.testing.assert_allclose(s.sum(), n, atol=1e-8)

    def test_attn_class_row(self):
        a = np.zeros((1, 2, 2))
        a[0, 0] = [0.3, 0.7]
        a[0, 1] = [0.9, 0.1]
        np.testing.assert_allclose(
            scoring.score_attention(ScorerVariant.ATTN_ONLY_CLASS, a),
            [0.3, 0.7])

    def test_grad_only_ignores_attention(self):
        g = np.array([[[1.0, -2.0], [3.0, 1.0]]])
        np.testing.assert_allclose(
            scoring.score_attention(ScorerVariant.GRAD_ONLY,
                                    np.full_like(g, 0.25), g), [4.0, 1.0])

    def test_random_variant_needs_rng(self):
        trace = vit.AttentionTrace(layer=0)
        trace.maps = np.full((1, 3, 3), 1 / 3)
        # Only collect_scores holds the generator random scores need.
        with pytest.raises(ContractError, match="random scores have no "
                                                "trace rule"):
            scoring.scores_from_trace(trace, ScorerVariant.RANDOM)

    def test_unknown_variant_name(self):
        with pytest.raises(ContractError, match="unknown scorer"):
            ScorerVariant.from_name("best_guess")


def _fold(arr: np.ndarray) -> np.ndarray:
    """Sum away any leading batch axes beyond one key axis."""
    return arr.sum(axis=tuple(range(arr.ndim - 1))) if arr.ndim > 1 else arr


def _mean_batch(arr: np.ndarray) -> np.ndarray:
    """Average away any leading batch axes beyond one key axis."""
    return arr.mean(axis=tuple(range(arr.ndim - 1))) if arr.ndim > 1 else arr


# The five attention scores as separate expressions, one per variant.
REFERENCE_SCORES = {
    ScorerVariant.GRAD_WEIGHTED_AVG:
        lambda a, g: np.abs(_fold((g * a).sum(axis=-2).mean(axis=-2))),
    ScorerVariant.GRAD_ONLY:
        lambda a, g: np.abs(_fold(g.sum(axis=-2).mean(axis=-2))),
    ScorerVariant.GRAD_CLASS_ATTN:
        lambda a, g: np.abs(_fold((g[..., 0, :] * a[..., 0, :])
                                  .mean(axis=-2))),
    ScorerVariant.ATTN_ONLY_AVG:
        lambda a, g: np.abs(_mean_batch(a.sum(axis=-2).mean(axis=-2))),
    ScorerVariant.ATTN_ONLY_CLASS:
        lambda a, g: np.abs(_mean_batch(a[..., 0, :].mean(axis=-2))),
}


class TestOneReduction:
    """``score_attention`` serves all five attention variants from one
    table of (operand, query rows, batch reduction)."""

    def test_table_covers_every_attention_variant(self):
        others = {ScorerVariant.TAYLOR_TOKEN, ScorerVariant.RANDOM}
        assert set(scoring.ATTENTION_SCORES) == set(ScorerVariant) - others

    def test_bytes_equal_the_per_variant_expressions(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            batch = tuple(int(b) for b in
                          rng.integers(1, 4, size=rng.integers(0, 4)))
            n = int(rng.integers(1, 21))
            shape = batch + (int(rng.integers(1, 5)), n, n)
            maps = rng.uniform(size=shape)
            maps /= maps.sum(axis=-1, keepdims=True)
            grads = rng.normal(size=shape) * rng.choice([1e-6, 1.0, 1e3])
            for variant, reference in REFERENCE_SCORES.items():
                got = scoring.score_attention(variant, maps, grads)
                want = reference(maps, grads)
                assert got.shape == want.shape == (n,)
                assert got.tobytes() == want.tobytes(), (variant, shape)

    @pytest.mark.parametrize("variant", list(scoring.ATTENTION_SCORES),
                             ids=lambda v: v.value)
    def test_trace_without_gradients(self, variant):
        trace = vit.AttentionTrace(layer=0)
        trace.maps = np.full((2, 1, 3, 3), 1 / 3)
        if scoring.ATTENTION_SCORES[variant][0] == "attn":
            np.testing.assert_allclose(
                scoring.scores_from_trace(trace, variant),
                np.full(3, 1.0 if variant is ScorerVariant.ATTN_ONLY_AVG
                        else 1 / 3))
        else:
            with pytest.raises(ContractError, match="backward pass"):
                scoring.scores_from_trace(trace, variant)

    def test_gradient_shape_must_match_maps(self):
        with pytest.raises(ShapeMismatchError, match="shapes differ"):
            weighted(np.ones((1, 2, 2)), np.ones((1, 3, 3)))


class TestAccumulate:
    """``collect_scores`` keeps one running float64 sum per layer and
    divides it by the iteration count once at the end."""

    def test_single_iteration_identity(self, model_and_data):
        model, ds = model_and_data
        got = scoring.collect_scores(model, ds, iterations=1, batch_size=8,
                                     seed=4, variant=ScorerVariant.RANDOM)
        want = np.random.default_rng(4).uniform(size=(2, 5))
        np.testing.assert_array_equal(np.stack(got), want)

    def test_two_identical_iterations(self, model_and_data):
        # A one-image dataset feeds every iteration the same batch.
        model, ds = model_and_data
        one = ds.subset(0, 1)
        once = scoring.collect_scores(model, one, iterations=1, batch_size=1)
        twice = scoring.collect_scores(model, one, iterations=2,
                                       batch_size=1)
        np.testing.assert_array_equal(np.stack(twice), np.stack(once))

    def test_zero_iterations_rejected(self, model_and_data):
        model, ds = model_and_data
        with pytest.raises(ContractError, match="iterations must be >= 1"):
            scoring.collect_scores(model, ds, iterations=0, batch_size=8)

    def test_accumulator_counts(self, model_and_data):
        # The random scorer draws one vector per layer per iteration.
        model, ds = model_and_data
        got = scoring.collect_scores(model, ds, iterations=3, batch_size=8,
                                     seed=4, variant=ScorerVariant.RANDOM)
        draws = np.random.default_rng(4).uniform(size=(3, 2, 5))
        total = np.zeros((2, 5))
        for step in draws:
            total = total + step
        np.testing.assert_array_equal(np.stack(got), total / 3)

    def test_random_scores_build_no_batch(self, model_and_data,
                                          monkeypatch):
        # Random scores read only the generator: no batch is built, and
        # the bytes are those of ``iterations`` rounds of one draw per
        # layer, summed in order, as when a batch loop ran around them.
        model, ds = model_and_data
        calls = []
        build = Dataset.batch
        monkeypatch.setattr(Dataset, "batch", lambda self, key: calls.append(
            key) or build(self, key))
        got = scoring.collect_scores(model, ds, iterations=7, batch_size=8,
                                     seed=9, variant=ScorerVariant.RANDOM)
        assert calls == []
        rng = np.random.default_rng(9)
        sums = [np.zeros(5) for _ in range(2)]
        for _ in range(7):
            per_layer = [rng.uniform(size=5) for _ in range(2)]
            for total, scores in zip(sums, per_layer):
                total += scores
        assert [s.tobytes() for s in got] == \
            [(total / 7).tobytes() for total in sums]
        # The spy sees the batches every other scorer builds.
        scoring.collect_scores(model, ds, iterations=2, batch_size=8)
        assert len(calls) == 2
        # A non-positive batch size is refused by every scorer.
        with pytest.raises(ContractError, match="batch_size must be positive"):
            scoring.collect_scores(model, ds, iterations=1, batch_size=0,
                                   variant=ScorerVariant.RANDOM)


def _prune_mask(scores, prune_count: int):
    """The keep mask of a plan entry that prunes ``prune_count`` tokens and
    keeps every other token."""
    scores = np.asarray(scores)
    merge = generate_merge_matrix(scores, scores.size - prune_count,
                                  prune_count, class_token=True)
    return merge.live.astype(np.uint8)


class TestTokenMask:
    """The pruning rule ``generate_merge_matrix`` applies: the
    ``prune_count`` lowest-scoring tokens go, the class token never."""

    def test_no_pruning(self):
        np.testing.assert_array_equal(
            _prune_mask(np.array([0.1, 0.2, 0.3]), 0), [1, 1, 1])

    def test_min_selection(self):
        mask = _prune_mask(np.array([0.9, 0.1, 0.5, 0.2]), 1)
        np.testing.assert_array_equal(mask, [1, 0, 1, 1])

    def test_all_but_class(self):
        mask = _prune_mask(np.array([0.0, 0.9, 0.9, 0.9]), 3)
        np.testing.assert_array_equal(mask, [1, 0, 0, 0])

    def test_ties_prune_higher_index_first(self):
        mask = _prune_mask(np.array([0.5, 0.2, 0.2, 0.2, 0.2]), 2)
        np.testing.assert_array_equal(mask, [1, 1, 1, 0, 0])

    def test_zero_count_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            p = int(rng.integers(0, n - 1))
            mask = _prune_mask(rng.uniform(size=n), p)
            assert int((mask == 0).sum()) == p
            assert mask[0] == 1  # class exempt

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            _prune_mask(np.ones(4), 4)
        with pytest.raises(ContractError):
            _prune_mask(np.ones(4), -1)


class TestPruneCount:
    def test_rounding_half_up(self):
        assert scoring.round_half_up(2.5) == 3
        assert scoring.round_half_up(2.4999) == 2


@pytest.fixture(scope="module")
def model_and_data():
    cfg = vit.ModelConfig(image_size=8, patch_size=4, channels=1,
                          embed_dim=8, depth=2, heads=2, num_classes=10)
    model = vit.VisionTransformer.build(cfg, seed=0)
    ds = synthetic_shapes(24, image_size=8, seed=1)
    return model, ds


class TestCollectScores:
    def test_deterministic_and_nonnegative(self, model_and_data):
        model, ds = model_and_data
        a = scoring.collect_scores(model, ds, iterations=3, batch_size=8,
                                   seed=5)
        b = scoring.collect_scores(model, ds, iterations=3, batch_size=8,
                                   seed=5)
        assert len(a) == 2
        for sa, sb in zip(a, b):
            assert sa.shape == (5,)
            assert (sa >= 0).all()
            np.testing.assert_array_equal(sa, sb)

    def test_scoring_leaves_model_untouched(self, model_and_data):
        model, ds = model_and_data
        before = {n: t.data.copy() for n, t in model.named_parameters()}
        scoring.collect_scores(model, ds, iterations=2, batch_size=8, seed=0)
        for n, t in model.named_parameters():
            np.testing.assert_array_equal(t.data, before[n])
            assert t.grad is None  # grads zeroed after the pass

    def test_variants_produce_distinct_scores(self, model_and_data):
        model, ds = model_and_data
        results = {}
        for variant in ScorerVariant:
            results[variant] = scoring.collect_scores(
                model, ds, iterations=2, batch_size=8, seed=3,
                variant=variant)
        default = results[ScorerVariant.GRAD_WEIGHTED_AVG]
        assert not np.allclose(results[ScorerVariant.ATTN_ONLY_AVG][0],
                               default[0])
        assert not np.allclose(results[ScorerVariant.RANDOM][0], default[0])

    @pytest.mark.parametrize(
        "variant", [v for v in ScorerVariant if v is not ScorerVariant.RANDOM],
        ids=lambda v: v.value)
    def test_only_taylor_scoring_keeps_the_block_inputs(
            self, model_and_data, monkeypatch, variant):
        # The scores are bit for bit those of traces that keep every
        # block input.  Only taylor_token, which reads the inputs, keeps
        # them through backward; every other scorer lets them die before
        # it, so none takes a gradient.
        model, ds = model_and_data
        params = [p for _, p in model.named_parameters()]
        total = np.zeros((2, 5))
        for images, labels in itertools.islice(
                batches(ds, 8, seed=6, epoch=0), 2):
            traces = []
            T.backward(T.cross_entropy(model.forward(images, traces=traces),
                                       labels))
            total += [scoring.scores_from_trace(t, variant) for t in traces]
            T.zero_grads(params)
        block_forward, score, inputs, kept = \
            vit.block_forward, scoring.scores_from_trace, [], []

        def recording(z, *args, **kwargs):
            inputs.append(weakref.ref(z))
            return block_forward(z, *args, **kwargs)

        def scored(trace, v):
            # Called after backward: the block inputs still alive then.
            kept.extend(z for ref in inputs if (z := ref()) is not None)
            inputs.clear()
            return score(trace, v)

        monkeypatch.setattr(vit, "block_forward", recording)
        monkeypatch.setattr(scoring, "scores_from_trace", scored)
        got = scoring.collect_scores(model, ds, iterations=2, batch_size=8,
                                     seed=6, variant=variant)
        assert np.stack(got).tobytes() == (total / 2).tobytes()
        if variant is ScorerVariant.TAYLOR_TOKEN:
            assert len(kept) == 4 and all(z.grad is not None for z in kept)
        else:
            assert kept == []

    def test_iterations_hold_one_graph_at_a_time(self):
        # Each backward frees its graph, so the next iteration's forward
        # does not build beside it: three iterations peak about where one
        # does, not at two graphs.
        cfg = vit.ModelConfig(image_size=16, patch_size=4, channels=1,
                              embed_dim=32, depth=4, heads=2,
                              num_classes=10)
        model = vit.VisionTransformer.build(cfg, seed=1)
        ds = synthetic_shapes(32, image_size=16, seed=2)
        peaks = []
        for iterations in (1, 1, 3):
            tracemalloc.start()
            try:
                scoring.collect_scores(model, ds, iterations=iterations,
                                       batch_size=16)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] < 1.15 * peaks[1]

    def test_csv_round_trip(self, model_and_data, tmp_path):
        model, ds = model_and_data
        scores = scoring.collect_scores(model, ds, iterations=1, batch_size=8,
                                        seed=2)
        path = tmp_path / "scores.csv"
        scoring.export_scores_csv(path, scores)
        loaded = scoring.load_scores_csv(path)
        assert len(loaded) == len(scores)
        for a, b in zip(scores, loaded):
            np.testing.assert_array_equal(a, b)

    def test_malformed_csv_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("layer,token,score\n0,0,1.0\n")
        with pytest.raises(ContractError):
            scoring.load_scores_csv(p)


@st.composite
def one_csv_mutation(draw, blob: bytes) -> bytes:
    """``blob`` with one byte replaced, inserted or deleted."""
    at = draw(st.integers(0, len(blob) - 1))
    how = draw(st.sampled_from(["replace", "insert", "delete"]))
    if how == "delete":
        return blob[:at] + blob[at + 1:]
    new = bytes([draw(st.integers(0, 255))])
    return blob[:at] + new + blob[at + (how == "replace"):]


SCORES_BLOB = (b"layer,token_index,score\n0,0,0.25\n0,1,1.5e-3\n"
               b"1,0,0.75\n1,1,2.0\n")


class TestScoresCsvFuzz:
    """A scores CSV with one byte changed either loads or is refused with
    ContractError naming the file; nothing else escapes."""

    def test_unmutated_csv_loads(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(SCORES_BLOB)
        loaded = scoring.load_scores_csv(path)
        np.testing.assert_array_equal(loaded[1], [0.75, 2.0])

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=one_csv_mutation(SCORES_BLOB))
    def test_any_mutation_loads_or_is_refused(self, tmp_path, blob):
        path = fresh(tmp_path / "s.csv")
        path.write_bytes(blob)
        try:
            loaded = scoring.load_scores_csv(path)
        except ContractError as e:
            assert str(e).startswith(str(path)) and "\n" not in str(e)
        else:
            assert all(s.dtype == np.float64 for s in loaded)

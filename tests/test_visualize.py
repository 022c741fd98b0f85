"""Merge-map rendering: patch-grid inverses, white/black conventions,
group-average flattening, and a frozen golden checksum."""

import zlib

import numpy as np
import pytest

from prunemerge.compression import (MergeMatrix, PlanEntry,
                                    generate_merge_matrix, global_plan,
                                    pseudoinverse)
from prunemerge.errors import ContractError
from prunemerge.visualize import (_patches_to_grid, _to_uint8,
                                  render_merge_map, visualize_merge_map,
                                  write_ppm)
from prunemerge.vit import ModelConfig, extract_patches

from helpers import dense_render_merge_map, read_ppm

CFG = ModelConfig(image_size=8, patch_size=2, channels=1, embed_dim=8,
                  depth=2, heads=2, mlp_ratio=2, num_classes=4)
N = CFG.num_tokens  # 17: 4x4 patch grid plus the class token


def make_image(seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(1, 8, 8))


def make_plan(rate, threshold, seed=1, depth=2, exempt=()):
    rng = np.random.default_rng(seed)
    scores = [rng.uniform(0.1, 1.0, size=N) for _ in range(depth)]
    return global_plan(scores, rate, threshold, exempt_layers=exempt)


# --- PPM container ---------------------------------------------------------

def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    path = tmp_path / "rt.ppm"
    write_ppm(path, pixels)
    again = read_ppm(path)
    assert again.dtype == np.uint8
    np.testing.assert_array_equal(again, pixels)


def test_ppm_header_is_binary_p6(tmp_path):
    path = tmp_path / "x.ppm"
    write_ppm(path, np.zeros((2, 3, 3), dtype=np.uint8))
    blob = path.read_bytes()
    assert blob.startswith(b"P6\n3 2\n255\n")
    assert len(blob) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3


def test_write_ppm_rejects_wrong_shape_or_dtype(tmp_path):
    with pytest.raises(ContractError):
        write_ppm(tmp_path / "a.ppm", np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(ContractError):
        write_ppm(tmp_path / "b.ppm", np.zeros((2, 3, 3)))  # float64


def test_read_ppm_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P3\n2 2\n255\n0 0 0")
    with pytest.raises(ContractError):
        read_ppm(path)


def test_read_ppm_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
    with pytest.raises(ContractError):
        read_ppm(path)


# --- patch-grid inverse ----------------------------------------------------

def test_patches_to_grid_inverts_extract_patches():
    image = make_image(7)
    patches = extract_patches(image[None], CFG)[0]
    grid = _patches_to_grid(patches, CFG)
    expected = _to_uint8(np.repeat(image[:1], 3, axis=0).transpose(1, 2, 0))
    np.testing.assert_array_equal(grid, expected)


def test_to_uint8_clips_out_of_range():
    out = _to_uint8(np.array([[-0.5, 0.0, 0.5, 1.0, 2.0]]))
    np.testing.assert_array_equal(out, [[0, 0, 128, 255, 255]])


# --- merge-map semantics ---------------------------------------------------

def test_identity_plan_renders_the_input_exactly():
    image = make_image(11)
    plan = make_plan(rate=1.0, threshold=0.0)
    merge_px, recon_px = render_merge_map(image, plan.entries[0], CFG)
    expected = _patches_to_grid(extract_patches(image[None], CFG)[0], CFG)
    np.testing.assert_array_equal(merge_px, expected)
    np.testing.assert_array_equal(recon_px, expected)


def test_all_pruned_but_class_is_white_and_black():
    # keep only the class token, prune every patch token
    rng = np.random.default_rng(2)
    scores = rng.uniform(0.1, 1.0, size=N)
    merge = generate_merge_matrix(scores, 1, N - 1, class_token=True)
    entry = PlanEntry(merge=merge, r=pseudoinverse(merge))
    image = make_image(4)
    merge_px, recon_px = render_merge_map(image, entry, CFG)
    assert np.all(merge_px == 255)   # every patch pruned: all white
    assert np.all(recon_px == 0)     # nothing survives the round trip


def test_pruned_patches_render_white():
    image = make_image(5)
    plan = make_plan(rate=0.6, threshold=0.2, seed=9)
    entry = plan.entries[0]
    merge_px, _ = render_merge_map(image, entry, CFG)
    patch_view = merge_px.reshape(4, 2, 4, 2, 3).transpose(0, 2, 1, 3, 4)
    for token in range(1, N):
        patch = patch_view[(token - 1) // 4, (token - 1) % 4]
        if entry.mask[token] == 0:
            assert np.all(patch == 255), f"token {token} should be white"


def test_alive_group_members_share_one_average_patch():
    image = make_image(6)
    plan = make_plan(rate=0.5, threshold=0.1, seed=13)
    entry = plan.entries[1]
    merge_px, _ = render_merge_map(image, entry, CFG)
    patch_view = merge_px.reshape(4, 2, 4, 2, 3).transpose(0, 2, 1, 3, 4)
    gid = entry.merge.gid
    by_group = {}
    for token in range(1, N):
        if entry.mask[token] == 0:
            continue
        patch = patch_view[(token - 1) // 4, (token - 1) % 4]
        seen = by_group.setdefault(gid[token], patch)
        np.testing.assert_array_equal(patch, seen)
    assert any(np.sum((gid == g) & (entry.mask == 1)) > 1
               for g in set(gid.tolist())), "plan produced no real merge"


def test_reconstruction_black_exactly_at_pruned_patches():
    image = make_image(8)
    # bias scores so some pruned patches have bright pixels behind them
    plan = make_plan(rate=0.5, threshold=0.3, seed=21)
    entry = plan.entries[0]
    _, recon_px = render_merge_map(image, entry, CFG)
    patch_view = recon_px.reshape(4, 2, 4, 2, 3).transpose(0, 2, 1, 3, 4)
    for token in range(1, N):
        patch = patch_view[(token - 1) // 4, (token - 1) % 4]
        if entry.mask[token] == 0:
            assert np.all(patch == 0), f"token {token} should be black"


def random_entry(rng):
    """An image, a plan entry and a config drawn at random: 1 or 3
    channels, class-token or class-free plans, merge and reconstruct
    weights drifted as training moves them, and groups of zero weight."""
    channels, grid, patch = (int(rng.choice([1, 3])),
                             int(rng.integers(1, 6)), int(rng.integers(1, 4)))
    config = ModelConfig(image_size=grid * patch, patch_size=patch,
                         channels=channels, embed_dim=8, depth=2, heads=2)
    n = config.num_tokens
    class_token = bool(rng.integers(2))
    while True:
        try:
            plan = global_plan([rng.uniform(0, 1, n) for _ in range(2)],
                               float(rng.uniform(0.2, 1.0)),
                               float(rng.uniform(0.0, 0.5)),
                               class_token=class_token)
            break
        except ContractError:   # a class-free layer left with no tokens
            continue
    entry = plan.entries[int(rng.integers(2))]
    w, r = entry.merge.w.copy(), entry.r.copy()
    live = w != 0
    if rng.integers(2):
        w[live] += rng.normal(0.0, 0.3, live.sum())
        r[live] += rng.normal(0.0, 0.3, live.sum())
    if rng.integers(3) == 0:
        w[entry.merge.gid == rng.integers(entry.kept)] = 0.0
    entry = PlanEntry(MergeMatrix(list(entry.merge.groups), w), r)
    image = rng.uniform(0.0, 1.0, size=(channels,) + (grid * patch,) * 2)
    return image, entry, config


def test_grouped_kernels_render_like_the_dense_loop():
    rng = np.random.default_rng(31)
    for _ in range(200):
        image, entry, config = random_entry(rng)
        got = render_merge_map(image, entry, config)
        want = dense_render_merge_map(image, entry, config)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.uint8
            np.testing.assert_array_equal(a, b)


def test_render_reads_no_dense_matrix(monkeypatch):
    def refuse(*_):
        raise AssertionError("render built a dense matrix")

    monkeypatch.setattr(MergeMatrix, "merge_matrix", refuse)
    monkeypatch.setattr(MergeMatrix, "recon_matrix", refuse)
    plan = make_plan(rate=0.6, threshold=0.2, seed=3)
    render_merge_map(make_image(3), plan.entries[0], CFG)


def test_render_rejects_width_mismatch():
    big = ModelConfig(image_size=12, patch_size=2, channels=1, embed_dim=8,
                      depth=2, heads=2, mlp_ratio=2, num_classes=4)
    plan = make_plan(rate=0.7, threshold=0.1)
    with pytest.raises(ContractError):
        render_merge_map(np.zeros((1, 12, 12)), plan.entries[0], big)


# --- file-level wrapper ----------------------------------------------------

def test_visualize_writes_both_pixmaps(tmp_path):
    plan = make_plan(rate=0.7, threshold=0.1)
    paths = visualize_merge_map(make_image(), plan, 0, CFG, tmp_path)
    assert [p.name for p in paths] == ["layer0_merge.ppm",
                                       "layer0_reconstruction.ppm"]
    for p in paths:
        assert read_ppm(p).shape == (8, 8, 3)


def test_visualize_rejects_layer_out_of_range(tmp_path):
    plan = make_plan(rate=0.7, threshold=0.1)
    with pytest.raises(ContractError):
        visualize_merge_map(make_image(), plan, 2, CFG, tmp_path)
    with pytest.raises(ContractError):
        visualize_merge_map(make_image(), plan, -1, CFG, tmp_path)


def test_visualize_rejects_uncompressed_layer(tmp_path):
    plan = make_plan(rate=0.7, threshold=0.1, exempt=(0,))
    with pytest.raises(ContractError):
        visualize_merge_map(make_image(), plan, 0, CFG, tmp_path)


def test_output_checksum_is_stable(tmp_path):
    """Golden output for a fixed (image, plan) pair, frozen from the first
    verified run; any change to rendering or plan construction must be
    deliberate."""
    plan = make_plan(rate=0.7, threshold=0.2, seed=42)
    image = make_image(42)
    merge_px, recon_px = render_merge_map(image, plan.entries[0], CFG)
    checksum = zlib.crc32(merge_px.tobytes() + recon_px.tobytes())
    assert checksum == GOLDEN_CHECKSUM, (
        f"rendered output changed: crc32 {checksum:#010x}")


# Frozen from the first run after hand-verifying the render: 3 pruned
# tokens white/black, four real merge groups, 47 distinct pixel values.
GOLDEN_CHECKSUM = 0x1458CA2E

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import inline_shuffle, mask_grid, per_image_masks
from featmim.errors import ConfigError
from featmim.masking import MaskSpec, SplitMix64, generate_mask

PAPER_GEOMETRY = MaskSpec(image_side=224, patch_side=16, block_side=32, mask_ratio=0.6, seed=0)


def test_reference_geometry_counts():
    # 224/16/32 at ratio 0.6: 49 blocks, round-half-up(29.4) = 29 masked blocks,
    # 29 * 4 = 116 masked patches of 196 -> actual ratio 116/196
    masked, visible = generate_mask(PAPER_GEOMETRY, [0])
    assert PAPER_GEOMETRY.n_blocks == 49
    assert masked.shape == (1, 116) and visible.shape == (1, 80)
    assert masked.dtype == visible.dtype == np.int64
    assert abs(masked.shape[1] / mask_grid(masked[0], PAPER_GEOMETRY).size - 116 / 196) < 1e-15


def test_same_seed_reproduces_bitwise():
    # across calls, and within a batch: a repeated seed repeats its mask,
    # offset by one image's patch count
    a = generate_mask(PAPER_GEOMETRY, [0, 0])
    b = generate_mask(PAPER_GEOMETRY, [0, 0])
    for x, y in zip(a, b):
        assert x.tobytes() == y.tobytes()
    assert mask_grid(a[0][0], PAPER_GEOMETRY).tobytes() == mask_grid(a[0][1], PAPER_GEOMETRY).tobytes()
    for rows in a:
        np.testing.assert_array_equal(rows[1], rows[0] + 196)


def test_different_seed_differs():
    masked = generate_mask(PAPER_GEOMETRY, [0, 1])[0]
    assert mask_grid(masked[0], PAPER_GEOMETRY).tobytes() != mask_grid(masked[1], PAPER_GEOMETRY).tobytes()


def test_all_masked_is_degenerate_error():
    with pytest.raises(ConfigError, match="all 49 blocks masked; the encoder needs a visible one"):
        MaskSpec(224, 16, 32, mask_ratio=0.99, seed=0).validate()


@pytest.mark.parametrize("ratio, message", [(0.01, "zero masked blocks of 49"),
                                            (0.99, "all 49 blocks masked")], ids=["zero", "all"])
def test_spec_needs_a_masked_and_a_visible_block(ratio, message):
    with pytest.raises(ConfigError, match=message):
        MaskSpec(224, 16, 32, mask_ratio=ratio, seed=0).validate()


def test_divisibility_violations_rejected():
    with pytest.raises(ConfigError):
        MaskSpec(224, 16, 24, 0.6, 0).validate()  # block not multiple of patch
    with pytest.raises(ConfigError):
        MaskSpec(200, 16, 32, 0.6, 0).validate()  # image not multiple of block


def test_ratio_bounds_rejected():
    for r in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ConfigError):
            MaskSpec(64, 16, 32, r, 0).validate()


def test_index_sets_partition_patch_range():
    # mask b's rows partition b * 196 .. b * 196 + 195, each set sorted
    masked, visible = generate_mask(PAPER_GEOMETRY, [0, 1, 2])
    merged = np.sort(np.concatenate([masked, visible], axis=1), axis=1)
    np.testing.assert_array_equal(merged, np.arange(3 * 196).reshape(3, 196))
    for rows in (masked, visible):
        assert (np.diff(rows, axis=1) > 0).all()


@st.composite
def legal_specs(draw):
    patch = draw(st.sampled_from([4, 8, 16]))
    blocks_per_patch = draw(st.integers(1, 4))
    block = patch * blocks_per_patch
    blocks_per_side = draw(st.integers(2, 7))
    image = block * blocks_per_side
    ratio = draw(st.floats(0.05, 0.9))
    seed = draw(st.integers(0, 2**63 - 1))
    return MaskSpec(image, patch, block, ratio, seed)


def degenerate(spec):
    """Whether spec's ratio rounds to no masked or no visible block, which
    MaskSpec.validate rejects; any other rule it breaks fails the test."""
    try:
        spec.validate()
    except ConfigError as e:
        assert re.search(r"rounds to (zero masked blocks|all \d+ blocks masked)", str(e)), e
        return True
    return False


@given(legal_specs())
@settings(max_examples=100, deadline=None)
def test_block_completeness_property(spec):
    if degenerate(spec):
        return
    masked, _ = generate_mask(spec, [spec.seed])
    bpp = spec.block_side // spec.patch_side
    g = mask_grid(masked[0], spec)
    for br in range(spec.blocks_per_side):
        for bc in range(spec.blocks_per_side):
            block = g[br * bpp:(br + 1) * bpp, bc * bpp:(bc + 1) * bpp]
            assert block.all() or not block.any()


@given(legal_specs())
@settings(max_examples=100, deadline=None)
def test_actual_ratio_within_one_block(spec):
    if degenerate(spec):
        return
    masked, _ = generate_mask(spec, [spec.seed])
    patches_per_block = (spec.block_side // spec.patch_side)**2
    tol = patches_per_block / spec.grid_side**2
    assert abs(masked.shape[1] / mask_grid(masked[0], spec).size - spec.mask_ratio) <= tol


def test_block_marginal_frequency_binomial():
    # over many seeds each block is masked ~29/49 of the time (3 sigma)
    n_seeds = 10_000
    masked, _ = generate_mask(PAPER_GEOMETRY, range(n_seeds))
    hit = np.zeros(n_seeds * 196, dtype=bool)
    hit[masked.reshape(-1)] = True
    counts = hit.reshape(n_seeds, 14, 14)[:, ::2, ::2].sum(axis=0).reshape(-1)  # one patch per block marks the block
    p = 29 / 49
    sigma = np.sqrt(n_seeds * p * (1 - p))
    assert np.all(np.abs(counts - n_seeds * p) < 3 * sigma)


def test_splitmix64_known_stream():
    # reference values for seed 1234567, from the published SplitMix64 algorithm
    rng = SplitMix64(1234567)
    first = [rng.next_u64() for _ in range(3)]
    assert all(0 <= v < 2**64 for v in first)
    rng2 = SplitMix64(1234567)
    assert [rng2.next_u64() for _ in range(3)] == first


@given(n=st.integers(1, 64), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_permutation_matches_inline_shuffle(n, seed):
    assert SplitMix64(seed).permutation(n) == inline_shuffle(range(n), SplitMix64(seed))


@given(blocks_per_side=st.integers(2, 8), ratio=st.floats(0.05, 0.9),
       seed=st.integers(0, 2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_masked_blocks_match_inline_shuffle(blocks_per_side, ratio, seed):
    # one patch per block, so the patch grid is the block grid (4..64 blocks)
    spec = MaskSpec(8 * blocks_per_side, 8, 8, ratio, seed)
    assume(1 <= spec.n_masked_blocks < spec.n_blocks)
    expected = np.zeros(spec.n_blocks, dtype=bool)
    expected[inline_shuffle(range(spec.n_blocks), SplitMix64(seed))[:spec.n_masked_blocks]] = True
    masked, _ = generate_mask(spec, [seed])
    np.testing.assert_array_equal(mask_grid(masked[0], spec).reshape(-1), expected)


@pytest.mark.parametrize("batch", [1, 8, 64])
@pytest.mark.parametrize("spec", [
    MaskSpec(32, 8, 8, 0.5, 0),  # block_side == patch_side: 16 one-patch blocks
    MaskSpec(32, 8, 16, 0.5, 0),  # the default geometry: 4 blocks of 2x2 patches
    MaskSpec(64, 4, 8, 0.6, 0),  # 64 blocks of 2x2 patches
])
def test_batch_draw_matches_the_per_image_oracle(spec, batch):
    seeds = [int(s) for s in np.random.default_rng(batch).integers(0, 2**63, size=batch)]
    got, want = generate_mask(spec, seeds), per_image_masks(spec, seeds)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

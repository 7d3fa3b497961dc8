"""Block-wise random patch masks.

Whole blocks of patches are masked together. The number of masked blocks is
round-half-up(mask_ratio * total_blocks); blocks are drawn uniformly without
replacement from a SplitMix64 stream, so a (spec, seed) pair reproduces the
same mask on every platform.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateMaskError, ShapeError

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 PRNG: 64-bit counter state, fixed multiplicative mixing."""

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, n):
        """Uniform integer in [0, n) by modulo reduction (documented rule)."""
        return self.next_u64() % n

    def permutation(self, n):
        """range(n) shuffled by Fisher-Yates from the top: one next_below
        draw per position n-1 .. 1, so n-1 draws in all."""
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.next_below(i + 1)
            order[i], order[j] = order[j], order[i]
        return order


class MaskSpec(NamedTuple):
    image_side: int
    patch_side: int
    block_side: int
    mask_ratio: float
    seed: int

    def validate(self):
        if self.patch_side < 1 or self.block_side < 1 or self.image_side < 1:
            raise ConfigError("mask geometry extents must be positive")
        if self.block_side % self.patch_side != 0:
            raise ConfigError(
                f"block_side {self.block_side} must be a multiple of patch_side {self.patch_side}")
        if self.image_side % self.block_side != 0:
            raise ConfigError(
                f"image_side {self.image_side} must be a multiple of block_side {self.block_side}")
        if not 0.0 < self.mask_ratio < 1.0:
            raise ConfigError(f"mask_ratio must lie in (0, 1), got {self.mask_ratio}")

    @property
    def grid_side(self):
        return self.image_side // self.patch_side

    @property
    def blocks_per_side(self):
        return self.image_side // self.block_side

    @property
    def n_blocks(self):
        return self.blocks_per_side * self.blocks_per_side

    @property
    def patches_per_block_side(self):
        return self.block_side // self.patch_side

    @property
    def n_masked_blocks(self):
        """round-half-up(mask_ratio * n_blocks)."""
        return math.floor(self.mask_ratio * self.n_blocks + 0.5)


class PatchMask(NamedTuple):
    masked_idx: np.ndarray  # sorted int64
    visible_idx: np.ndarray  # sorted int64


def generate_mask(spec: MaskSpec, seed=None) -> PatchMask:
    """Sample a block-wise mask; deterministic for a given spec and seed (spec.seed by default)."""
    spec.validate()
    n_blocks = spec.n_blocks
    n_masked_blocks = spec.n_masked_blocks
    if n_masked_blocks >= n_blocks:
        raise DegenerateMaskError(
            f"mask_ratio {spec.mask_ratio} rounds to all {n_blocks} blocks masked; "
            "the encoder needs at least one visible token")

    # the first n_masked_blocks of a full shuffle of the block indices
    stream = SplitMix64(spec.seed if seed is None else seed)
    chosen = stream.permutation(n_blocks)[:n_masked_blocks]

    g = spec.grid_side
    bpp = spec.patches_per_block_side
    grid = np.zeros((g, g), dtype=bool)
    for b in chosen:
        br, bc = divmod(b, spec.blocks_per_side)
        grid[br * bpp:(br + 1) * bpp, bc * bpp:(bc + 1) * bpp] = True

    flat = grid.reshape(-1)
    masked = np.flatnonzero(flat).astype(np.int64)
    visible = np.flatnonzero(~flat).astype(np.int64)
    if len(visible) == 0:
        raise DegenerateMaskError("mask left no visible patches")
    return PatchMask(masked_idx=masked, visible_idx=visible)


def batch_rows(masks, field, n_patches):
    """One mask index field ("visible_idx" or "masked_idx") per image,
    stacked to [B, count] and offset to b * n_patches + idx: rows of the
    batch's patch tokens stacked image by image. A batch runs as one graph
    only if every mask has the same count, as all masks of one MaskSpec do."""
    arrays = [getattr(mask, field) for mask in masks]
    count = len(arrays[0])
    for a in arrays[1:]:
        if len(a) != count:
            raise ShapeError(f"masks in one batch disagree on the "
                             f"{field.removesuffix('_idx')} count: {count} and {len(a)}")
    offsets = n_patches * np.arange(len(arrays), dtype=np.int64)[:, None]
    return np.array(arrays, dtype=np.int64).reshape(len(arrays), count) + offsets

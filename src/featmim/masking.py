"""Block-wise random patch masks.

Whole blocks of patches are masked together. The number of masked blocks is
round-half-up(mask_ratio * total_blocks), at least one and fewer than all;
blocks are drawn uniformly without replacement from a SplitMix64 stream, so
a (spec, seed) pair reproduces the same mask on every platform. One call
draws a batch's masks, one seed each, and returns their rows in the batch's
stacked patch tokens.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

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
        if self.n_masked_blocks < 1:
            raise ConfigError(f"mask_ratio {self.mask_ratio} rounds to zero masked blocks "
                              f"of {self.n_blocks}; the patch loss needs at least one")
        if self.n_masked_blocks >= self.n_blocks:
            raise ConfigError(f"mask_ratio {self.mask_ratio} rounds to all {self.n_blocks} "
                              "blocks masked; the encoder needs a visible one")
        if not 0 <= self.seed < 2**64:  # SplitMix64 would reduce it to 64 bits
            raise ConfigError(f"mask.seed must lie in [0, 2**64), got {self.seed}")

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
    def n_masked_blocks(self):
        """round-half-up(mask_ratio * n_blocks)."""
        return math.floor(self.mask_ratio * self.n_blocks + 0.5)


def generate_mask(spec: MaskSpec, seeds):
    """One block-wise mask per seed, as the batch's rows: (masked, visible),
    sorted int64 [B, M] and [B, V], with row b * N + i for patch i of mask b
    (N = grid_side**2), the rows of the batch's patch tokens stacked image
    by image. Deterministic for a given spec and seeds; MaskSpec.validate vets the spec."""
    n_blocks, n_masked_blocks = spec.n_blocks, spec.n_masked_blocks
    # each mask takes the first n_masked_blocks of a full shuffle of the blocks
    chosen = np.zeros((len(seeds), n_blocks), dtype=bool)
    for b, seed in enumerate(seeds):
        chosen[b, SplitMix64(seed).permutation(n_blocks)[:n_masked_blocks]] = True
    # patch (r, c) lies in block (r // k, c // k), k patches to a block side
    block = np.arange(spec.grid_side) // (spec.block_side // spec.patch_side)
    flat = chosen[:, (block[:, None] * spec.blocks_per_side + block).reshape(-1)].reshape(-1)
    return (np.flatnonzero(flat).reshape(len(seeds), -1),
            np.flatnonzero(~flat).reshape(len(seeds), -1))

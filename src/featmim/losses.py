"""Masked-patch regression loss, global semantic loss, and their weighted sum.

Both losses are smooth-L1 regressions against frozen teacher tokens. The
patch loss covers masked positions only; the global loss compares the mean
projected visible token with the mean of all teacher tokens, so it is
invariant to shifting both sides by the same constant.

Each loss is one tape node over a batch of images at once; it returns the
taped batch mean together with the per-image losses it averages.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as tn
from .errors import ConfigError, DegenerateMaskError, ShapeError
from .masking import batch_rows
from .tensor import Tensor


@dataclass(frozen=True)
class LossConfig:
    beta: float = 2.0  # smooth-L1 transition point
    lam: float = 0.5  # global loss weight
    channel_reduce: str = "mean"  # "mean" | "sum" over feature channels

    def validate(self):
        if self.beta <= 0:
            raise ConfigError("smooth-L1 beta must be positive")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"loss.lam must be finite and non-negative, got {self.lam!r}")
        if self.channel_reduce not in ("mean", "sum"):
            raise ConfigError(f"unknown channel_reduce {self.channel_reduce!r}")


class BatchLoss(NamedTuple):
    loss: Tensor  # taped scalar, the mean of the per-image losses
    per_image: np.ndarray  # [B] untaped, in the loss dtype


def _batch_mean(node, target, batch, channel_reduce):
    # mean over each image's rows, channels reduced per config. Images have
    # equal row counts, so the loss node takes the batch mean as one sum
    # times 1 / (batch * count); per-image losses repeat a one-image batch.
    rows, dim = target.shape
    count = rows // batch * (dim if channel_reduce == "mean" else 1)
    loss, elem = node(1.0 / (batch * count))
    per_image = elem.reshape(batch, -1).sum(axis=1) * elem.dtype.type(1.0 / count)
    return BatchLoss(loss, per_image)


def _token_shape(records):
    shapes = {r.tokens.shape for r in records}
    if len(shapes) != 1:
        raise ShapeError(f"teacher token grids differ within one batch: {sorted(shapes)}")
    return shapes.pop()


def patch_loss(z, records, masks, beta, channel_reduce="mean"):
    """Smooth-L1 between teacher tokens and predictions, masked slots only.

    z is [B*N, D], the predictions of B images stacked image by image;
    records (trainer.ImageRecord) and masks hold one entry per image.
    """
    n, dim = _token_shape(records)
    rows = batch_rows(masks, "masked_idx", n).reshape(-1)
    if len(rows) == 0:
        raise DegenerateMaskError("patch loss needs at least one masked patch")
    if z.shape != (len(masks) * n, dim):
        raise ShapeError(
            f"predictions {z.shape} do not match {len(masks)} x teacher tokens {(n, dim)}")
    y_m = np.concatenate([r.tokens for r in records])[rows]
    return _batch_mean(lambda scale: tn.masked_smooth_l1(z, rows, y_m, beta, scale),
                       y_m, len(masks), channel_reduce)


def global_loss(p_h, records, masks, beta, channel_reduce="mean"):
    """Smooth-L1 between each image's mean projected visible token and its
    mean teacher token (the records' `mean`, over all K tokens).

    p_h is [B*V, D], the projected visible tokens of B images stacked
    image by image; the masks must agree on V, as forward requires.
    """
    n, dim = _token_shape(records)
    b, n_vis = len(masks), len(masks[0].visible_idx)
    if n_vis == 0:
        raise DegenerateMaskError("global loss needs at least one visible patch")
    if p_h.shape[0] != b * n_vis:
        raise ShapeError(
            f"projected tokens {p_h.shape} do not match {b} x {n_vis} visible patches")
    if p_h.shape[1] != dim:
        raise ShapeError(f"projection dim {p_h.shape[1]} != teacher dim {dim}")
    teacher_mean = np.stack([r.mean for r in records])
    return _batch_mean(lambda scale: tn.pooled_smooth_l1(p_h, b, teacher_mean, beta, scale),
                       teacher_mean, b, channel_reduce)


def total_loss(l_patch, l_global, lam):
    return tn.add(l_patch, tn.mul(l_global, lam))

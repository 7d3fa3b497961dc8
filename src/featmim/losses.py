"""Masked-patch regression loss and global semantic loss.

Both losses are smooth-L1 regressions against frozen teacher tokens. The
patch loss covers masked positions only; the global loss compares the mean
projected visible token with the mean of all teacher tokens, so it is
invariant to shifting both sides by the same constant.

Each loss is one tape node over a batch of images at once; it takes the
batch as stacked arrays (trainer.step_losses stacks them and weights their
sum) and returns the pair (loss, per_image): the taped batch mean, a scalar
tensor, and the [B] untaped per-image losses it averages, in the loss dtype.
"""

import math
from typing import NamedTuple

from . import tensor as tn
from .errors import ConfigError


class LossConfig(NamedTuple):
    beta: float = 2.0  # smooth-L1 transition point
    lam: float = 0.5  # global loss weight

    def validate(self):
        if self.beta <= 0:
            raise ConfigError("smooth-L1 beta must be positive")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"loss.lam must be finite and non-negative, got {self.lam!r}")


def _per_image(loss, elem, batch):
    # images have equal element counts, so the node's mean is the mean of theirs
    return loss, elem.reshape(batch, -1).sum(axis=1) * elem.dtype.type(batch / elem.size)


def patch_loss(z, rows, tokens, beta):
    """Smooth-L1 between teacher tokens and predictions, masked slots only.

    rows is [B, M], the batch's masked rows; z is [B*M, D], the predictions
    at those rows, and tokens [B*N, D], the teacher tokens of the B images
    stacked image by image.
    """
    return _per_image(*tn.smooth_l1(z, tokens[rows.reshape(-1)], beta), len(rows))


def global_loss(p_h, means, beta):
    """Smooth-L1 between each image's mean projected visible token and its
    mean teacher token.

    p_h is [B*V, D], the projected visible tokens of B images stacked
    image by image; means is [B, D], each image's mean over all its tokens.
    """
    return _per_image(*tn.pooled_smooth_l1(p_h, means, beta), len(means))

"""Masked-patch regression loss, global semantic loss, and their weighted sum.

Both losses are smooth-L1 regressions against frozen teacher tokens. The
patch loss covers masked positions only; the global loss compares the mean
projected visible token with the mean of all teacher tokens, so it is
invariant to shifting both sides by the same constant.
"""

from dataclasses import dataclass

from . import tensor as tn
from .errors import ConfigError, DegenerateMaskError, ShapeError
from .tensor import Tensor


@dataclass(frozen=True)
class LossConfig:
    beta: float = 2.0  # smooth-L1 transition point
    lam: float = 0.5  # global loss weight
    channel_reduce: str = "mean"  # "mean" | "sum" over feature channels

    def validate(self):
        if self.beta <= 0:
            raise ConfigError("smooth-L1 beta must be positive")
        if self.lam < 0:
            raise ConfigError("global loss weight must be non-negative")
        if self.channel_reduce not in ("mean", "sum"):
            raise ConfigError(f"unknown channel_reduce {self.channel_reduce!r}")


def _reduce_rows(elem, n_rows, channel_reduce):
    # mean over rows always; channels reduced per config
    if channel_reduce == "mean":
        return elem.mean()
    return tn.mul(elem.sum(), 1.0 / n_rows)


def patch_loss(z, teacher, mask, beta, channel_reduce="mean"):
    """Smooth-L1 between teacher tokens and predictions, masked slots only."""
    if len(mask.masked_idx) == 0:
        raise DegenerateMaskError("patch loss needs at least one masked patch")
    if z.shape != (teacher.n_tokens, teacher.dim):
        raise ShapeError(
            f"predictions {z.shape} do not match teacher tokens "
            f"{(teacher.n_tokens, teacher.dim)}")
    z_m = tn.gather_rows(z, mask.masked_idx)
    y_m = Tensor(teacher.tokens[mask.masked_idx])
    elem = tn.smooth_l1(tn.sub(y_m, z_m), beta)
    return _reduce_rows(elem, len(mask.masked_idx), channel_reduce)


def global_loss(p_h, teacher, mask, beta, channel_reduce="mean"):
    """Smooth-L1 between the mean projected visible token and the mean
    teacher token (the teacher mean runs over all K tokens)."""
    if len(mask.visible_idx) == 0:
        raise DegenerateMaskError("global loss needs at least one visible patch")
    if p_h.shape[0] != len(mask.visible_idx):
        raise ShapeError(
            f"projected tokens {p_h.shape} do not match {len(mask.visible_idx)} visible patches")
    if p_h.shape[1] != teacher.dim:
        raise ShapeError(f"projection dim {p_h.shape[1]} != teacher dim {teacher.dim}")
    student_mean = p_h.mean(axis=0)
    teacher_mean = Tensor(teacher.tokens.mean(axis=0))
    elem = tn.smooth_l1(tn.sub(teacher_mean, student_mean), beta)
    return elem.mean() if channel_reduce == "mean" else elem.sum()


def total_loss(l_patch, l_global, lam):
    return tn.add(l_patch, tn.mul(l_global, lam))

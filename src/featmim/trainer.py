"""Optimizer, learning-rate schedule, and the pretraining loop.

AdamW with decoupled weight decay, linear-warmup + cosine-decay schedule
under the linear scaling rule lr = base_lr * batch_size / 256. Every image's
patch rows, teacher tokens and mean are stacked once; a step indexes them.
Everything is deterministic for a fixed seed: masks come from a SplitMix64
stream, the epoch shuffle from another. AdamW updates the flat weight buffer
in place; a non-finite loss, gradient or update stops the run before that
update lands.

One step function serves every configuration. The global head and loss run
only when the global loss weight is nonzero, so with lam=0 and multi-block
aggregation off the step records exactly the plain feature-regression
graph: last encoder block into the decoder, patch loss only.
"""

import math
import os
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .losses import global_loss, patch_loss
from .masking import SplitMix64, generate_mask
from .model import forward, init_params, patchify, project_global, save_checkpoint
from .teacher import align_input, make_teacher
from .tensor import Tape, add, backward, make_dirs, mul

METRICS_COLUMNS = ("step", "epoch", "lr", "L_patch", "L_global", "L_total")

_MASK_STREAM_TAG = 0x6D61736B  # distinct tags keep the seed streams apart
_SHUFFLE_STREAM_TAG = 0x73687566


class TrainConfig(NamedTuple):
    base_lr: float = 1.5e-4
    batch_size: int = 8
    warmup_epochs: float = 40.0
    total_epochs: float = 100.0
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.95
    seed: int = 0
    checkpoint_interval: int = 0  # 0 = final checkpoint only

    def validate(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if not 0 <= self.warmup_epochs < self.total_epochs:
            raise ConfigError(
                f"need 0 <= warmup_epochs < total_epochs, got "
                f"{self.warmup_epochs} / {self.total_epochs}")
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("optimizer momenta must lie in [0, 1)")
        if self.checkpoint_interval < 0:
            raise ConfigError("checkpoint_interval must be non-negative")
        if self.seed < 0:
            raise ConfigError(f"train.seed must be non-negative, got {self.seed}")


def scaled_lr(base_lr, batch_size):
    """Linear scaling rule: lr = base_lr * batch_size / 256."""
    return base_lr * batch_size / 256.0


def lr_at(t, cfg: TrainConfig):
    """Learning rate at fractional epoch t: linear ramp to the scaled peak
    over the warmup, then cosine decay to exactly zero at total_epochs."""
    peak = scaled_lr(cfg.base_lr, cfg.batch_size)
    if t < cfg.warmup_epochs:
        return peak * t / cfg.warmup_epochs
    frac = (t - cfg.warmup_epochs) / (cfg.total_epochs - cfg.warmup_epochs)
    return max(0.0, peak * 0.5 * (1.0 + math.cos(math.pi * frac)))


class OptimizerState:
    """Flat first/second moments and two scratch buffers, each shaped like
    the flat weights and allocated by the first adamw_step; a step counter."""

    def __init__(self):
        self.m = self.v = self.scratch = None
        self.step = 0


def adamw_step(params, grads, state: OptimizerState, lr, *,
               beta1=0.9, beta2=0.95, weight_decay=0.05, name_at=str):
    """Decoupled-weight-decay Adam on flat weights and gradient, in place,
    elementwise as p -= lr * (m_hat / (sqrt(v_hat) + 1e-8) + wd * p). An
    update with a non-finite element leaves the weights as they were and
    raises a NumericError naming name_at(its first such offset)."""
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
        state.scratch = (np.empty_like(params), np.empty_like(params))
    state.step += 1
    m, v, (a, b) = state.m, state.v, state.scratch
    m *= beta1
    m += np.multiply(1.0 - beta1, grads, out=a)
    v *= beta2
    v += np.multiply(np.multiply(1.0 - beta2, grads, out=a), grads, out=a)
    np.divide(m, 1.0 - beta1**state.step, out=a)  # m_hat
    np.sqrt(np.divide(v, 1.0 - beta2**state.step, out=b), out=b)
    b += 1e-8
    a /= b
    a += np.multiply(weight_decay, params, out=b)
    np.multiply(lr, a, out=a)
    if not np.isfinite(a).all():
        raise NumericError(f"non-finite update in {name_at(np.argmin(np.isfinite(a)))}")
    params -= a


def step_losses(params, cache, idx, masks, loss_cfg):
    """Batch-mean losses as one taped graph: patch + lam * global,
    multi-block aggregation per config, on the images at positions idx.

    Model and losses take masks, the pair (masked, visible) of the batch's
    rows that masking.generate_mask draws (mask b is image idx[b]'s), and
    rows idx of the cache's three arrays, tokens [B*N, D].
    The global head and loss are recorded only when lam != 0; at lam == 0
    they could move no parameter, and L_global logs 0.0.

    Returns (loss tensor, logged L_patch, L_global, L_total); the logged
    values are float64 fsum means of the per-image losses, computed in the
    training dtype as one-image batches would, so the three CSV columns
    share one reduction.
    """
    z, last_visible = forward(cache.patches[idx], masks, params)
    loss, lp = patch_loss(z, masks[0], cache.tokens[idx].reshape(-1, cache.tokens.shape[2]),
                          loss_cfg.beta)
    lg = np.zeros_like(lp)
    if loss_cfg.lam != 0.0:
        l_global, lg = global_loss(project_global(last_visible, params), cache.means[idx],
                                   loss_cfg.beta)
        loss = add(loss, mul(l_global, loss_cfg.lam))
    lt = lp + lg * lp.dtype.type(loss_cfg.lam)
    n = len(idx)
    return loss, math.fsum(lp) / n, math.fsum(lg) / n, math.fsum(lt) / n


class TrainResult(NamedTuple):
    final_checkpoint: str
    metrics_csv: str
    total_steps: int
    final_l_patch: float
    final_l_total: float


class FeatureCache:
    """The corpus as read-only arrays, one get per image, stacked once in the
    order given: patch rows [I, N, C * patch**2], teacher tokens [I, N, D]
    and mean tokens [I, D], the tokens from the config's teacher. A ConfigError
    when the teacher's width is not model.target_dim; a DataError names an
    image whose teacher tokens do not pair one to one with its student patches."""

    def __init__(self, cfg, images):
        self.teacher = make_teacher(cfg.teacher, in_channels=images[0][1].shape[0])
        if self.teacher.target_dim != cfg.model.target_dim:
            raise ConfigError(f"teacher target_dim {self.teacher.target_dim} != model target_dim "
                              f"{cfg.model.target_dim}")
        self.patch_side = cfg.model.patch_side
        rows = [self.get(image_id, image) for image_id, image in images]
        self.patches, self.tokens, self.means = arrays = [np.stack(a) for a in zip(*rows)]
        for a in arrays:
            a.setflags(write=False)

    def get(self, image_id, image):
        aligned = align_input(image, self.patch_side, self.teacher.downsample_rate)
        tokens = self.teacher.features(aligned, image_id)
        patches = patchify(np.asarray(image), self.patch_side)
        if len(tokens) != len(patches):
            raise DataError(f"teacher gives {len(tokens)} tokens for image {image_id!r}, "
                            f"which has {len(patches)} student patches")
        return patches, tokens, tokens.mean(axis=0)


def _format_row(step, epoch, lr, lp, lg, lt):
    return f"{step},{epoch!r},{lr!r},{lp!r},{lg!r},{lt!r}\n"


def train(cfg, images, out_dir):
    """Pretrain on a list of (image_id, [C, H, W]) arrays.

    Writes config.json, metrics.csv and ckpt_<step>.bin files under
    out_dir, which is made only after every check has passed.
    """
    cfg.validate()
    if not images:
        raise ConfigError("training needs at least one image")
    if len({image_id for image_id, _ in images}) != len(images):
        raise ConfigError("image ids must be unique")
    tc = cfg.train
    mask_spec = cfg.mask

    channels = {img.shape[0] for _, img in images}
    if len(channels) != 1:
        raise ConfigError(f"images disagree on channel count: {sorted(channels)}")
    in_channels = channels.pop()
    for image_id, img in images:
        if img.shape[1:] != (mask_spec.image_side, mask_spec.image_side):
            raise ConfigError(
                f"image {image_id!r} is {img.shape[1:]}, mask spec wants "
                f"{mask_spec.image_side}x{mask_spec.image_side}")

    steps_per_epoch = math.ceil(len(images) / tc.batch_size)
    total_steps = int(round(tc.total_epochs * steps_per_epoch))
    if total_steps < 1:
        raise ConfigError(
            f"total_epochs {tc.total_epochs} yields zero optimizer steps")

    cache = FeatureCache(cfg, images)  # a misfit writes nothing

    make_dirs(out_dir)
    cfg.save(os.path.join(out_dir, "config.json"))
    params = init_params(cfg.model, mask_spec.image_side, in_channels, tc.seed)
    opt = OptimizerState()
    # per-step masks are resampled from the mask spec's own seed stream, so
    # --mask-seed varies masking without touching init or data order
    mask_stream = SplitMix64(mask_spec.seed ^ _MASK_STREAM_TAG)
    shuffle_stream = SplitMix64(tc.seed ^ _SHUFFLE_STREAM_TAG)

    metrics_path = os.path.join(out_dir, "metrics.csv")
    final_ckpt = os.path.join(out_dir, f"ckpt_{total_steps}.bin")
    with open(metrics_path, "w") as metrics:
        metrics.write(",".join(METRICS_COLUMNS) + "\n")
        for step in range(total_steps):
            if step % steps_per_epoch == 0:
                order = shuffle_stream.permutation(len(images))
            lo = (step % steps_per_epoch) * tc.batch_size
            idx = order[lo:lo + tc.batch_size]
            masks = generate_mask(mask_spec, [mask_stream.next_u64() for _ in idx])

            t_epoch = step / steps_per_epoch
            lr = lr_at(t_epoch, tc)
            tape = Tape(params)
            try:
                # the finiteness checks stand in for numpy's overflow warnings
                with np.errstate(all="ignore"):
                    loss, lp, lg, lt = step_losses(params, cache, idx, masks, cfg.loss)
                    if not np.isfinite(loss.data):
                        raise NumericError("non-finite loss")
                    flat_grad = backward(tape, loss)
                    if not np.isfinite(flat_grad).all():  # name the first bad offset's parameter
                        bad = params.name_at(np.argmin(np.isfinite(flat_grad)))
                        raise NumericError(f"non-finite gradient in {bad}")
                    adamw_step(params.flat, flat_grad, opt, lr, beta1=tc.beta1, beta2=tc.beta2,
                               weight_decay=tc.weight_decay, name_at=params.name_at)
            except NumericError as e:
                raise NumericError(f"step {step}: {e}") from None

            metrics.write(_format_row(step, t_epoch, lr, lp, lg, lt))
            last = step + 1 == total_steps  # the final checkpoint, written once
            if last or (tc.checkpoint_interval and (step + 1) % tc.checkpoint_interval == 0):
                save_checkpoint(os.path.join(out_dir, f"ckpt_{step + 1}.bin"), params)

    return TrainResult(final_checkpoint=final_ckpt, metrics_csv=metrics_path,
                       total_steps=total_steps, final_l_patch=lp, final_l_total=lt)

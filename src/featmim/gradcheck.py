"""End-to-end gradient verification of the full training loss.

Runs the model in float64 on a deterministic synthetic image and compares
the tape's analytic gradients for every parameter against central finite
differences. Relative error uses max(|analytic|, |numeric|, 1e-6) in the
denominator so near-zero gradients do not blow up the ratio.
"""

import numpy as np

from .config import RunConfig
from .errors import ConfigError
from .losses import LossConfig
from .masking import MaskSpec, generate_mask
from .model import ModelConfig, init_params
from .synth import synthetic_image
from .teacher import TeacherSpec
from .tensor import Tape, backward
from .trainer import FeatureCache, step_losses


def tiny_run_config():
    """The default gradient-check configuration: small enough that full
    elementwise finite differences finish in seconds."""
    return RunConfig(
        mask=MaskSpec(image_side=16, patch_side=8, block_side=8, mask_ratio=0.5, seed=11),
        model=ModelConfig(patch_side=8, embed_dim=8, enc_depth=2, enc_heads=2,
                          dec_depth=1, dec_width=8, dec_heads=2, target_dim=16,
                          use_cls=True, multi_block=True, aggregate="mean"),
        loss=LossConfig(beta=2.0, lam=0.5),
        teacher=TeacherSpec(kind="procedural-conv", downsample_rate=8,
                            target_dim=16, seed=5),
    )


def grad_check(cfg, h=1e-5, in_channels=3, batch_size=1):
    """Compare analytic and numeric gradients of the total loss, parameter
    by parameter, element by element. Everything runs in float64.

    The loss is the trainer's own step on a batch of `batch_size` synthetic
    images, so the check covers exactly the batched composition that
    training differentiates. Image and mask seeds count up from the
    config's; a file teacher serves the ids "gradcheck", "gradcheck1", ...
    Returns {"max_rel_err": the largest relative error, "worst_param": its
    parameter, "n_parameters": the weight count, "per_param": each
    parameter's largest relative error}, the `grad-check --out` JSON.
    """
    cfg.validate()
    if cfg.model.embed_dim > 16:
        raise ConfigError("grad_check expects a tiny model (embed_dim <= 16)")

    idx = list(range(batch_size))
    images = [(f"gradcheck{b}" if b else "gradcheck", synthetic_image(
        cfg.mask.image_side, in_channels, seed=cfg.train.seed + b, dtype=np.float64)) for b in idx]
    cache = FeatureCache(cfg, images)
    masks = generate_mask(cfg.mask, [cfg.mask.seed + b for b in idx])

    params = init_params(cfg.model, cfg.mask.image_side, in_channels,
                         seed=cfg.train.seed, dtype=np.float64)
    backward(Tape(params), step_losses(params, cache, idx, masks, cfg.loss)[0])

    def loss_value():  # backward handed the parameters back: they are constants
        return float(step_losses(params, cache, idx, masks, cfg.loss)[0].data)

    flat, ana = params.flat, params.grad
    num = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = loss_value()
        flat[i] = orig - h
        fm = loss_value()
        flat[i] = orig
        num[i] = (fp - fm) / (2.0 * h)
    rel = np.abs(ana - num) / np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-6)
    per_param = {name: float(np.max(rel[end - t.data.size:end]))
                 for (name, t), end in zip(params.items(), params.ends)}

    worst = max(per_param, key=per_param.get)
    return {"max_rel_err": per_param[worst], "worst_param": worst,
            "n_parameters": flat.size, "per_param": per_param}

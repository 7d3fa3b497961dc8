"""Shared oracles for the test suite.

The finite-difference oracle is the independent reference for every
analytic gradient; it never calls the tape. The step oracles are the two
loss compositions the trainer's single step must reproduce: plain feature
regression, and patch + lam * global with the global branch always taped.
"""

import math

import numpy as np

from featmim.losses import global_loss, patch_loss, total_loss
from featmim.model import (decode, encode_visible, forward, patch_embed,
                           project_global)


def fd_grad(f, x, h=1e-5):
    """Central finite differences of scalar f at array x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, n, floor=1e-6):
    """Max elementwise relative error with an absolute floor on the scale."""
    a = np.asarray(a, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def inline_shuffle(items, stream):
    """Fisher-Yates over a copy of items, swapping in place from the top
    with one stream.next_below draw per position."""
    order = list(items)
    for i in range(len(order) - 1, 0, -1):
        j = stream.next_below(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def plain_regression_step(bp, batch, loss_cfg):
    """The plain feature-regression step: last encoder block straight into
    the decoder, patch loss only. No global head, no block aggregation.
    Same signature and return value as featmim.trainer.step_losses."""
    images, masks, feats = zip(*batch)
    out = encode_visible(patch_embed(images, bp), masks, bp)
    z = decode(out.layers[-1], masks, bp)
    lp, per_image = patch_loss(z, feats, masks, loss_cfg.beta, loss_cfg.channel_reduce)
    mean_lp = math.fsum(per_image) / len(batch)
    return lp, mean_lp, 0.0, mean_lp


def full_composition_step(bp, batch, loss_cfg):
    """patch + lam * global with the global head and loss taped at every
    lam, zero included; L_global logs the unweighted global loss."""
    images, masks, feats = zip(*batch)
    out = forward(images, masks, bp)
    lp, lp_vals = patch_loss(out.z, feats, masks, loss_cfg.beta, loss_cfg.channel_reduce)
    lg, lg_vals = global_loss(project_global(out.last_visible, bp), feats, masks,
                              loss_cfg.beta, loss_cfg.channel_reduce)
    lt_vals = lp_vals + lg_vals * lp_vals.dtype.type(loss_cfg.lam)
    n = len(batch)
    return (total_loss(lp, lg, loss_cfg.lam), math.fsum(lp_vals) / n,
            math.fsum(lg_vals) / n, math.fsum(lt_vals) / n)

"""Shared oracles for the test suite.

The finite-difference oracle is the independent reference for every
analytic gradient; it never calls the tape. The step oracles are the two
loss compositions the trainer's single step must reproduce: plain feature
regression, and patch + lam * global with the global branch always taped.
The resize, convolution and similarity oracles are the direct forms of
the teacher and diversity code, which must match them bit for bit, and the
per-parameter AdamW loop is the form the flat in-place update must match.
The concat-and-gather oracle is how the model placed its CLS and mask
tokens before gather_rows took the row itself, which must match it bitwise.
The full-grid decoder is how the model predicted every row before only the
masked rows reached its last block; its masked rows are what decode returns.
The two smooth-L1 chain oracles are how the losses were built op by op
before each became one tape node, which must match them bitwise too.
tape_sum reduces a tensor to the scalar that backward needs, mask_grid
rebuilds a mask's patch grid from its masked rows, and distinct_gathers
checks gather_rows' precondition on every call a test makes. The scatter
oracle is the np.add.at / np.subtract.at into zeros that the gather and
masked-loss backward passes must match bitwise, and the per-name backward,
packed in sorted name order, is what the flat gradient buffer must equal;
params_of packs a dict of arrays into the flat buffer Parameters adopts.
The per-image mask oracle is how masks were drawn one image at a time
before one call drew a batch's rows, which must match it bitwise.
"""

import math
import time

import numpy as np
import pytest

from featmim import tensor as tn
from featmim.cli import main
from featmim.losses import global_loss, patch_loss
from featmim.masking import SplitMix64
from featmim.model import (_transformer_block, decode, encode_visible, forward,
                           patch_embed, project_global)


# json.loads raises RecursionError, not ValueError, past about a thousand levels
DEEP_JSON = b"[" * 200_000


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


@pytest.fixture(scope="session")
def default_grad_check(tmp_path_factory):
    """One default `featmim grad-check --out` run per session, shared by the
    CLI test and the gradient fidelity acceptance test: (exit code, report
    bytes, wall seconds). h and the tolerance are pinned to their defaults."""
    path = tmp_path_factory.mktemp("grad_check") / "report.json"
    t0 = time.monotonic()
    code = main(["grad-check", "--h", "1e-5", "--tolerance", "1e-4", "--out", str(path)])
    elapsed = time.monotonic() - t0
    return code, path.read_bytes(), elapsed


@pytest.fixture()
def distinct_gathers(monkeypatch):
    """tensor.gather_rows wrapped to fail when a call reads a row of `a`
    twice, the case its backward does not sum. Returns the list of calls,
    each entry the number of rows of `a` that call read."""
    gather, calls = tn.gather_rows, []

    def checked(a, idx, row=None):
        own = np.asarray(idx).reshape(-1)
        own = own[own < len(a.data)]
        assert len(np.unique(own)) == len(own), "gather_rows read a row of a twice"
        calls.append(len(own))
        return gather(a, idx, row)

    monkeypatch.setattr(tn, "gather_rows", checked)
    return calls


def concat_gather_rows(a, idx, row):
    """Rows idx of the stacked array [a; row], and a function from the
    output gradient g to the gradients of a and row: np.add.at into the
    stacked shape, then split. Returns (out, grads_fn)."""
    stacked = np.concatenate([a, row[None]])

    def grads(g):
        z = np.zeros_like(stacked)
        np.add.at(z, idx, g)
        return z[:-1], z[-1]

    return stacked[idx], grads


def tape_sum(t):
    """The taped sum of all elements of t: a scalar whose gradient is ones."""
    x = t.data
    return tn._emit(x.sum(), (t,),
                    lambda g: (np.broadcast_to(g, x.shape).astype(x.dtype, copy=True),))


def mask_grid(masked_rows, spec):
    """The bool [grid_side, grid_side] patch grid of one mask of `spec`,
    True = masked, rebuilt from its row of masked rows (b * N offset and all)."""
    n = spec.grid_side**2
    flat = np.zeros(n, dtype=bool)
    flat[masked_rows % n] = True
    return flat.reshape(spec.grid_side, spec.grid_side)


def _smooth_l1_sum_chain(d, beta, scale):
    """smooth_l1 -> sum -> x scale over the residual d, op by op; returns
    (loss, elem, grad_d), grad_d(g) the gradient of d from the loss's g."""
    inside = np.abs(d) < beta
    c = 0.5 / beta
    elem = np.where(inside, d * d * c, np.abs(d) - 0.5 * beta)
    s = np.asarray(elem.sum())
    scale = np.asarray(scale, dtype=s.dtype)  # mul's constant operand

    def grad_d(g):
        gs = g * scale  # mul
        ge = np.broadcast_to(gs, elem.shape).astype(elem.dtype, copy=True)  # sum
        return np.where(inside, 2.0 * d * (ge * c), np.sign(d) * ge)  # smooth_l1

    return s * scale, elem, grad_d


def masked_smooth_l1_chain(z, rows, target, beta, scale):
    """gather -> sub -> smooth_l1 -> sum -> x scale, op by op in numpy.
    Returns (loss, elem, grads), grads(g) the gradient of z."""
    d = target - z[rows]  # gather, sub
    loss, elem, grad_d = _smooth_l1_sum_chain(d, beta, scale)

    def grads(g):
        gz = np.zeros_like(z)
        np.add.at(gz, rows, -grad_d(g))  # sub, then gather's scatter-add
        return gz

    return loss, elem, grads


def pooled_smooth_l1_chain(p, target_means, beta, scale):
    """reshape -> sum -> x ratio (the mean) -> sub -> smooth_l1 -> sum ->
    x scale, op by op in numpy, over len(target_means) images. Returns
    (loss, elem, grads), grads(g) the gradient of p."""
    x = p.reshape(len(target_means), -1, p.shape[1])  # reshape
    s = x.sum(axis=1)  # sum
    ratio = np.asarray(s.size / x.size, dtype=s.dtype)
    d = target_means - s * ratio  # mul, sub
    loss, elem, grad_d = _smooth_l1_sum_chain(d, beta, scale)

    def grads(g):
        gs = -grad_d(g) * ratio  # sub, mul
        gx = np.broadcast_to(np.expand_dims(gs, 1), x.shape).astype(x.dtype, copy=True)  # sum
        return gx.reshape(p.shape)  # reshape

    return loss, elem, grads


def scatter_rows(shape, idx, g, ufunc=np.add):
    """ufunc.at into zeros of `shape` at rows idx: the scatter-add (or, with
    np.subtract, the scatter-subtract) that a gather's backward reduces to,
    one row at a time in idx order."""
    out = np.zeros(shape, dtype=g.dtype)
    ufunc.at(out, idx, g)
    return out


def per_name_backward(tape, loss):
    """backward as it returned gradients before it wrote one flat buffer: a
    {name: array} dict over the tape's parameters, zeros_like for those the
    loss does not reach. Replays the same records; consumes the tape."""
    grads = [None] * tape._n_nodes
    grads[loss.idx] = np.ones((), dtype=loss.data.dtype)
    ops, tape._ops = tape._ops, None
    for out_idx, in_idxs, grad_fn in reversed(ops):
        g = grads[out_idx]
        if g is None:
            continue
        for in_idx, contrib in zip(in_idxs, grad_fn(g)):
            if in_idx is not None:
                grads[in_idx] = contrib if grads[in_idx] is None else grads[in_idx] + contrib
    return {name: np.zeros_like(t.data) if grads[t.idx] is None else grads[t.idx]
            for name, t in tape.params.items()}


def params_of(arrays):
    """tensor.Parameters over one flat copy of a {name: array} dict, laid
    out in the dict's order."""
    arrays = {name: np.asarray(a) for name, a in arrays.items()}
    return tn.Parameters(np.concatenate([a.reshape(-1) for a in arrays.values()]),
                         {name: a.shape for name, a in arrays.items()})


def pack_sorted(arrays):
    """A {name: array} dict flattened and concatenated in sorted name
    order: the layout of ModelParams.flat and of backward's buffer."""
    return np.concatenate([arrays[k].reshape(-1) for k in sorted(arrays)])


def inline_shuffle(items, stream):
    """Fisher-Yates over a copy of items, swapping in place from the top
    with one stream.next_below draw per position."""
    order = list(items)
    for i in range(len(order) - 1, 0, -1):
        j = stream.next_below(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def per_image_masks(spec, seeds):
    """(masked, visible) rows drawn one image at a time: each seed's inline
    Fisher-Yates shuffle of the blocks, its first n_masked_blocks painted
    block by block onto a bool patch grid, np.flatnonzero of the grid, and
    each image's indices offset by b * N and stacked."""
    g, k = spec.grid_side, spec.block_side // spec.patch_side
    masked, visible = [], []
    for b, seed in enumerate(seeds):
        grid = np.zeros((g, g), dtype=bool)
        chosen = inline_shuffle(range(spec.n_blocks), SplitMix64(seed))[:spec.n_masked_blocks]
        for block in chosen:
            br, bc = divmod(block, spec.blocks_per_side)
            grid[br * k:(br + 1) * k, bc * k:(bc + 1) * k] = True
        flat = grid.reshape(-1)
        masked.append(np.flatnonzero(flat) + b * g * g)
        visible.append(np.flatnonzero(~flat) + b * g * g)
    return np.array(masked, dtype=np.int64), np.array(visible, dtype=np.int64)


def full_grid_decode(h_visible, vis_rows, params):
    """The decoder as it ran before only masked rows reached its last block:
    every block, and the prediction head, over each image's full grid.
    [B*V, d] visible tokens -> [B*N, target_dim] predictions, grid order."""
    cfg = params.config
    b, n = len(vis_rows), params.n_patches
    h = tn.linear(h_visible, params["enc2dec_w"], params["enc2dec_b"])
    restore_idx = np.full(b * n, vis_rows.size, dtype=np.int64)
    restore_idx[vis_rows.reshape(-1)] = np.arange(vis_rows.size)
    x = tn.gather_rows(h, restore_idx, params["mask_token"])
    x = tn.add(x, tn.Tensor(np.tile(params.dec_pos, (b, 1))))
    for layer in range(cfg.dec_depth):
        x = _transformer_block(x, params, f"dec{layer}", cfg.dec_heads, b)
    return tn.linear(x, params["dec_pred_w"], params["dec_pred_b"])


def _stacked(cache, idx, masks):
    """The batch as step_losses reads it: rows idx of the FeatureCache's
    patch rows, visible and masked rows, teacher tokens [B*N, D] and means."""
    masked, visible = masks
    return (cache.patches[idx], visible, masked,
            cache.tokens[idx].reshape(-1, cache.tokens.shape[2]), cache.means[idx])


def plain_regression_step(params, cache, idx, masks, loss_cfg):
    """The plain feature-regression step: last encoder block straight into
    the decoder, patch loss only. No global head, no block aggregation.
    Same signature and return value as featmim.trainer.step_losses."""
    patches, visible, masked, tokens, _ = _stacked(cache, idx, masks)
    layers = encode_visible(patch_embed(patches, visible, params), visible, params)
    z = decode(layers[-1], masks, params)
    lp, per_image = patch_loss(z, masked, tokens, loss_cfg.beta)
    mean_lp = math.fsum(per_image) / len(idx)
    return lp, mean_lp, 0.0, mean_lp


def full_composition_step(params, cache, idx, masks, loss_cfg):
    """patch + lam * global with the global head and loss taped at every
    lam, zero included; L_global logs the unweighted global loss."""
    patches, visible, masked, tokens, means = _stacked(cache, idx, masks)
    z, last_visible = forward(patches, masks, params)
    lp, lp_vals = patch_loss(z, masked, tokens, loss_cfg.beta)
    lg, lg_vals = global_loss(project_global(last_visible, params), means, loss_cfg.beta)
    lt_vals = lp_vals + lg_vals * lp_vals.dtype.type(loss_cfg.lam)
    n = len(idx)
    return (tn.add(lp, tn.mul(lg, loss_cfg.lam)), math.fsum(lp_vals) / n,
            math.fsum(lg_vals) / n, math.fsum(lt_vals) / n)


def per_parameter_adamw(params, grads, state, lr, *, beta1=0.9, beta2=0.95,
                        weight_decay=0.05, eps=1e-8):
    """AdamW as a loop over a {name: array} dict in sorted name order, one
    expression per moment and update; state is a dict that keeps the step
    count and the per-parameter moments between calls."""
    t = state["step"] = state.get("step", 0) + 1
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name in sorted(params):
        p, g = params[name], grads[name]
        m = state.setdefault("m", {}).setdefault(name, np.zeros_like(p))
        v = state.setdefault("v", {}).setdefault(name, np.zeros_like(p))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p)


def four_corner_resize(image, out_h, out_w):
    """Bilinear resampling (align-corners=false) that gathers the four
    corners of every output pixel at output size and blends them: columns
    within the top and bottom rows first, then the two rows."""
    c, h, w = image.shape

    def coords(n_in, n_out):
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1)
        i0 = np.floor(src).astype(np.int64)
        i1 = np.minimum(i0 + 1, n_in - 1)
        return i0, i1, (src - i0).astype(image.dtype)

    r0, r1, wr = coords(h, out_h)
    c0, c1, wc = coords(w, out_w)
    wr = wr[None, :, None]
    wc = wc[None, None, :]
    tl = image[:, r0[:, None], c0[None, :]]
    tr = image[:, r0[:, None], c1[None, :]]
    bl = image[:, r1[:, None], c0[None, :]]
    br = image[:, r1[:, None], c1[None, :]]
    top = tl * (1 - wc) + tr * wc
    bot = bl * (1 - wc) + br * wc
    return top * (1 - wr) + bot * wr


def window_conv2d_stride2(x, weight, bias):
    """3x3 stride-2 pad-1 convolution through sliding_window_view: the
    windows copied to a C-contiguous [C * 9, H/2 * W/2] in (c, i, j) order,
    one channel-major GEMM."""
    c, h, w = x.shape
    out_c = weight.shape[0]
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    win = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))
    win = win[:, ::2, ::2]  # [C, H/2, W/2, 3, 3]
    oh, ow = win.shape[1], win.shape[2]
    cols = np.ascontiguousarray(win.transpose(0, 3, 4, 1, 2)).reshape(c * 9, oh * ow)
    out = weight.reshape(out_c, c * 9) @ cols + bias[:, None]
    return out.reshape(out_c, oh, ow)


def ordered_pair_similarity(y):
    """Mean min-max-normalized cosine over all K(K-1) ordered token pairs,
    summed exactly; the degenerate rule as in featmim.diversity."""
    u = np.asarray(y, dtype=np.float64)
    u = u / np.linalg.norm(u, axis=1)[:, None]
    c = u @ u.T
    off = c[~np.eye(len(c), dtype=bool)]
    lo, hi = off.min(), off.max()
    if hi == lo:
        return min(max(float(lo), 0.0), 1.0)
    normed = (off - lo) / (hi - lo)
    return math.fsum(normed) / len(normed)

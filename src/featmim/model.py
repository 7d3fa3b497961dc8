"""The student network.

Asymmetric design: only visible patch rows are embedded and encoded (plus
an optional CLS token). The decoder rebuilds the full patch grid and
predicts teacher features for the masked rows only, the rows the patch loss
reads: its keys and values read every grid row, but the last block's queries,
and all that follows them, take the masked rows. One tensor.gather_rows by a
restore index puts visible tokens in grid order and the learnable mask token
in every masked slot (MAE's ids_restore unshuffle); CLS goes in the same way.
Each dense layer, x @ W + b, is one tensor.linear tape node; attention is
the single fused tape op tensor.attention between the q/k/v and output
projections. Encoder block outputs can be aggregated (mean or literal sum)
before decoding; a 2-layer MLP head projects last-layer visible tokens to
the teacher dimension for the global loss.

Positional embeddings are fixed 2-D sine-cosine tables, not learned. One
table, _weights, states every weight's name, shape and init in draw order:
all linear weights are Xavier-uniform, CLS and mask tokens draw from
N(0, 0.02), biases and LayerNorm gains are constants.
"""

import json
import math
import os
import struct
from typing import NamedTuple

import numpy as np

from . import tensor as tn
from .errors import ConfigError, DataError, check_field_types
from .tensor import Tensor, open_input, read_tvec_record, tvec_bytes, write_atomic

CHECKPOINT_MAGIC = b"FMCK"
CHECKPOINT_VERSION = 2
MAX_INIT_ELEMENTS = 2**26  # 1,380x the default model's 48,544; 256 MiB of float32


class ModelConfig(NamedTuple):
    patch_side: int = 8
    embed_dim: int = 32
    enc_depth: int = 2
    enc_heads: int = 2
    dec_depth: int = 1
    dec_width: int = 32
    dec_heads: int = 2
    target_dim: int = 16
    use_cls: bool = True
    multi_block: bool = True
    aggregate: str = "mean"  # "mean" | "sum" over encoder blocks

    def validate(self):
        if self.enc_depth < 1 or self.dec_depth < 1:
            raise ConfigError("encoder and decoder need at least one block")
        if self.enc_heads < 1 or self.dec_heads < 1:
            raise ConfigError("encoder and decoder attention need at least one head")
        if self.embed_dim % self.enc_heads:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by {self.enc_heads} heads")
        if self.dec_width % self.dec_heads:
            raise ConfigError(f"dec_width {self.dec_width} not divisible by {self.dec_heads} heads")
        if self.embed_dim % 4 or self.dec_width % 4:
            raise ConfigError("embed_dim and dec_width must be multiples of 4 "
                              "(2-D sine-cosine position table)")
        if self.aggregate not in ("mean", "sum"):
            raise ConfigError(f"unknown aggregate mode {self.aggregate!r}")
        if min(self.patch_side, self.embed_dim, self.dec_width, self.target_dim) < 1:
            raise ConfigError("patch_side, embed_dim, dec_width and target_dim must be positive")


def _sincos_1d(dim, positions):
    omega = 1.0 / 10000.0 ** (np.arange(dim // 2, dtype=np.float64) / (dim // 2))
    angles = np.asarray(positions, dtype=np.float64)[:, None] * omega[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def sincos_pos_embed(dim, grid_side):
    """Fixed 2-D sine-cosine position table, [grid_side**2, dim]."""
    rows = np.repeat(np.arange(grid_side), grid_side)
    cols = np.tile(np.arange(grid_side), grid_side)
    return np.concatenate([_sincos_1d(dim // 2, rows), _sincos_1d(dim // 2, cols)], axis=1)


class ModelParams(tn.Parameters):
    """The student's weights: tensor.Parameters over the flat buffer given,
    in sorted name order (the checkpoint's), so AdamW updates them all
    through `flat`; plus the patch geometry and the fixed position tables,
    constants in the weights' dtype."""

    def __init__(self, flat, config: ModelConfig, n_patches, in_channels):
        super().__init__(flat, dict(sorted((name, shape)
                                           for name, shape, _ in _weights(config, in_channels))))
        self.config, self.n_patches, self.in_channels = config, n_patches, in_channels
        grid, dtype = math.isqrt(n_patches), self.flat.dtype
        self.enc_pos = sincos_pos_embed(config.embed_dim, grid).astype(dtype)  # [N, embed_dim]
        self.dec_pos = sincos_pos_embed(config.dec_width, grid).astype(dtype)  # [N, dec_width]


def _linear(prefix, n_in, n_out):  # the weights of one tn.linear, x @ W + b
    return [(f"{prefix}_w", (n_in, n_out), "xavier"), (f"{prefix}_b", (n_out,), 0.0)]


def _block(prefix, dim):
    """One pre-norm transformer block's weights, MAE's layout."""
    return [(f"{prefix}_ln1_g", (dim,), 1.0), (f"{prefix}_ln1_b", (dim,), 0.0),
            *_linear(f"{prefix}_q", dim, dim), *_linear(f"{prefix}_k", dim, dim),
            *_linear(f"{prefix}_v", dim, dim), *_linear(f"{prefix}_attn_out", dim, dim),
            (f"{prefix}_ln2_g", (dim,), 1.0), (f"{prefix}_ln2_b", (dim,), 0.0),
            *_linear(f"{prefix}_mlp_fc1", dim, 4 * dim),
            *_linear(f"{prefix}_mlp_fc2", 4 * dim, dim)]


def _weights(config: ModelConfig, in_channels):
    """The student's weights, (name, shape, init) in draw order: init is
    "xavier" (Xavier-uniform), "token" (N(0, 0.02)) or a constant fill. The
    one statement of the model's parameters: init_params draws it,
    init_elements counts it and load_checkpoint cuts a file's weights by it."""
    d, w, t = config.embed_dim, config.dec_width, config.target_dim
    table = [("cls_token", (d,), "token")] if config.use_cls else []
    table += _linear("patch_proj", in_channels * config.patch_side**2, d)
    for layer in range(config.enc_depth):
        table += _block(f"enc{layer}", d)
    table += [*_linear("enc2dec", d, w), ("mask_token", (w,), "token")]
    for layer in range(config.dec_depth):
        table += _block(f"dec{layer}", w)
    table += _linear("dec_pred", w, t)
    return table + _linear("proj_fc1", d, d) + _linear("proj_fc2", d, t)


def _size(table):
    return sum(math.prod(shape) for _, shape, _ in table)


def init_elements(config: ModelConfig, n_patches, in_channels):
    """The elements init_params allocates, weights and both position tables:
    the table without blocks plus depth x one block of each width, so the
    count costs the same at any depth. A ConfigError past MAX_INIT_ELEMENTS,
    so before any allocation."""
    d, w = config.embed_dim, config.dec_width
    n = (_size(_weights(config._replace(enc_depth=0, dec_depth=0), in_channels))
         + config.enc_depth * _size(_block("enc", d)) + config.dec_depth * _size(_block("dec", w))
         + n_patches * (d + w))
    if n > MAX_INIT_ELEMENTS:
        raise ConfigError(f"the model needs {n:,} weight and position elements, "
                          f"more than the bound of {MAX_INIT_ELEMENTS:,}")
    return n


def init_params(config: ModelConfig, image_side, in_channels, seed, dtype=np.float32):
    """Fresh parameters, drawn from one generator in the table's order, each
    into its view of the flat buffer."""
    rng = np.random.default_rng(seed)
    table = _weights(config, in_channels)
    params = ModelParams(np.empty(_size(table), dtype=dtype), config,
                         (image_side // config.patch_side)**2, in_channels)
    for name, shape, init in table:
        if init == "xavier":
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            params[name].data[...] = rng.uniform(-limit, limit, size=shape)
        elif init == "token":
            params[name].data[...] = rng.normal(0.0, 0.02, size=shape)
        else:
            params[name].data[...] = init
    return params


def patchify(image, patch_side):
    """Row-major non-overlapping patches: [C, H, W] -> [N, C * patch**2]."""
    c, h, w = image.shape
    gh, gw = h // patch_side, w // patch_side
    x = image.reshape(c, gh, patch_side, gw, patch_side)
    return x.transpose(1, 3, 0, 2, 4).reshape(gh * gw, c * patch_side**2)


def patch_embed(patches, vis_rows, params: ModelParams):
    """Linear projection of the patch rows of B images, [B, N, C * patch**2]
    (each image's from patchify), at the batch's visible rows vis_rows [B, V]
    (as masking.generate_mask returns them) to [B*V, d], plus positions."""
    want = (len(patches), params.n_patches, params.in_channels * params.config.patch_side**2)
    if patches.shape != want:
        raise ConfigError(f"patch rows {patches.shape} do not match the model's {want}")
    vis = vis_rows.reshape(-1)
    rows = patches.reshape(-1, want[2])[vis].astype(params.flat.dtype, copy=False)
    tokens = tn.linear(Tensor(rows), params["patch_proj_w"], params["patch_proj_b"])
    return tn.add(tokens, Tensor(params.enc_pos[vis % want[1]]))


def _attention(x, params, prefix, heads, batch, rows):
    # queries only from the given rows of x, keys and values from all of them
    q = tn.linear(x if rows is None else tn.gather_rows(x, rows), params[f"{prefix}_q_w"],
                  params[f"{prefix}_q_b"])
    k = tn.linear(x, params[f"{prefix}_k_w"], params[f"{prefix}_k_b"])
    v = tn.linear(x, params[f"{prefix}_v_w"], params[f"{prefix}_v_b"])
    y = tn.attention(q, k, v, heads, batch)
    return tn.linear(y, params[f"{prefix}_attn_out_w"], params[f"{prefix}_attn_out_b"])


def _mlp(x, params, prefix):
    h = tn.linear(x, params[f"{prefix}_mlp_fc1_w"], params[f"{prefix}_mlp_fc1_b"])
    h = tn.gelu(h)
    return tn.linear(h, params[f"{prefix}_mlp_fc2_w"], params[f"{prefix}_mlp_fc2_b"])


def _transformer_block(x, params, prefix, heads, batch, rows=None):
    # pre-norm: x + Attn(LN(x)), then x + MLP(LN(x)); attention stays
    # within each of the batch's sequences, everything else is row-wise.
    # With rows, only those rows of x come out: the keys still read all.
    a = _attention(tn.layer_norm(x, params[f"{prefix}_ln1_g"], params[f"{prefix}_ln1_b"]),
                   params, prefix, heads, batch, rows)
    x = tn.add(x if rows is None else tn.gather_rows(x, rows), a)
    m = _mlp(tn.layer_norm(x, params[f"{prefix}_ln2_g"], params[f"{prefix}_ln2_b"]), params, prefix)
    return tn.add(x, m)


def encode_visible(tokens, vis_rows, params: ModelParams):
    """Run only the visible tokens of each image (and its CLS) through the
    encoder blocks; returns every block's output, visible patch tokens
    only, each [B*V, d].

    tokens is [B*V, d] from patch_embed; vis_rows is [B, V], as patch_embed
    takes it.
    """
    cfg = params.config
    b, v = vis_rows.shape
    x, seq = tokens, v
    if cfg.use_cls:  # row b*v of the gather reads CLS: it goes ahead of each image's tokens
        rows = np.concatenate([np.full((b, 1), b * v), np.arange(b * v).reshape(b, v)], axis=1)
        x, seq = tn.gather_rows(tokens, rows.reshape(-1), params["cls_token"]), v + 1
    patch_rows = (seq * np.arange(b)[:, None] + np.arange(1, seq)).reshape(-1)
    layers = []
    for layer in range(cfg.enc_depth):
        x = _transformer_block(x, params, f"enc{layer}", cfg.enc_heads, b)
        layers.append(tn.gather_rows(x, patch_rows) if cfg.use_cls else x)
    return layers


def aggregate_multi_block(layers, config: ModelConfig):
    """Combine per-block visible tokens: mean (default), literal sum, or
    just the last block when multi-block learning is off."""
    if not config.multi_block:
        return layers[-1]
    acc = layers[0]
    for layer in layers[1:]:
        acc = tn.add(acc, layer)
    if config.aggregate == "mean":
        acc = tn.mul(acc, 1.0 / len(layers))
    return acc


def decode(h_visible, masks, params: ModelParams):
    """Rebuild each image's full grid with mask tokens and predict teacher
    features at its masked rows: [B*V, d] visible tokens -> [B*M, target_dim].
    masks is the pair (masked [B, M], visible [B, V]) generate_mask returns."""
    cfg = params.config
    masked, vis_rows = masks
    b, n = len(vis_rows), params.n_patches
    h = tn.linear(h_visible, params["enc2dec_w"], params["enc2dec_b"])
    # grid row -> row of h, or len(h) for the mask token
    restore_idx = np.full(b * n, vis_rows.size, dtype=np.int64)
    restore_idx[vis_rows.reshape(-1)] = np.arange(vis_rows.size)
    x = tn.gather_rows(h, restore_idx, params["mask_token"])
    x = tn.add(x, Tensor(np.tile(params.dec_pos, (b, 1))))
    for layer in range(cfg.dec_depth):
        last = masked.reshape(-1) if layer == cfg.dec_depth - 1 else None
        x = _transformer_block(x, params, f"dec{layer}", cfg.dec_heads, b, last)
    return tn.linear(x, params["dec_pred_w"], params["dec_pred_b"])


def project_global(h_visible, params: ModelParams):
    """2-layer MLP head mapping each visible token to the teacher dimension.

    CLS never reaches this head; callers pass patch tokens only.
    """
    h = tn.linear(h_visible, params["proj_fc1_w"], params["proj_fc1_b"])
    h = tn.relu(h)
    return tn.linear(h, params["proj_fc2_w"], params["proj_fc2_b"])


def forward(patches, masks, params: ModelParams):
    """Student pass over a batch up to the patch predictions: embed,
    encode visible, aggregate, decode. patches is [B, N, C * patch**2], each
    image's patchify rows; masks is the pair (masked, visible), as decode
    takes it.

    Returns (z, last_visible): the decoder's predictions at the masked rows
    [B*M, target_dim] from the aggregated tokens, and the last encoder
    block's visible tokens [B*V, d]. The global head is not run here:
    callers that weight the global loss pass last_visible to project_global
    themselves.
    """
    vis_rows = masks[1]
    layers = encode_visible(patch_embed(patches, vis_rows, params), vis_rows, params)
    return decode(aggregate_multi_block(layers, params.config), masks, params), layers[-1]


# --- checkpoints ---
#
# magic "FMCK" | u32 LE header length | header JSON
# {version: 2, config, n_patches, in_channels} | one rank-1 tvec record
# holding ModelParams.flat: every weight, names sorted lexicographically.


def save_checkpoint(path, params: ModelParams):
    """Encoded in memory, then written atomically (tensor.write_atomic)."""
    header = json.dumps({
        "version": CHECKPOINT_VERSION,
        "config": params.config._asdict(),
        "n_patches": params.n_patches,
        "in_channels": params.in_channels,
    }, sort_keys=True).encode()
    write_atomic(path, b"".join([CHECKPOINT_MAGIC, struct.pack("<I", len(header)), header,
                                 tvec_bytes(params.flat)]))


def load_checkpoint(path):
    """The checkpoint's weights in ModelParams, read straight into the flat
    buffer that ModelParams adopts and cut by the header config's weight
    table; no model is drawn and no gradient buffer made, so the weights are
    held once. A DataError names the file and what is wrong with it."""
    with open_input(path, "checkpoint") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(8)
        if head[:4] != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a featmim checkpoint")
        if len(head) < 8:
            raise DataError(f"{path}: truncated before the header length")
        (hlen,) = struct.unpack_from("<I", head, 4)
        if 8 + hlen > size:
            raise DataError(f"{path}: header length {hlen} runs past the end of the file")
        try:
            header = json.loads(f.read(hlen))
            config = ModelConfig(**header["config"])
            n_patches, in_channels = header["n_patches"], header["in_channels"]
            version = header.get("version", 1)  # version 1 wrote none
        except (ValueError, KeyError, TypeError, RecursionError) as e:
            raise DataError(f"{path}: malformed checkpoint header: {e}") from None
        if version != CHECKPOINT_VERSION:
            raise DataError(f"{path}: checkpoint version {version!r}, "
                            f"this reader reads version {CHECKPOINT_VERSION}")
        for key, value in (("n_patches", n_patches), ("in_channels", in_channels)):
            if type(value) is not int or value < 1:
                raise DataError(f"{path}: header {key} {value!r} is not a positive integer")
        grid = math.isqrt(n_patches)
        if grid * grid != n_patches:
            raise DataError(f"{path}: header n_patches {n_patches} is not a square grid")
        try:
            check_field_types(config, "config")
            config.validate()
            # the weights: all init_params allocates but the two position tables
            n_weights = (init_elements(config, n_patches, in_channels)
                         - n_patches * (config.embed_dim + config.dec_width))
        except ConfigError as e:
            raise DataError(f"{path}: checkpoint config is invalid: {e}") from None
        flat = read_tvec_record(f, size, f"{path}: weights")
        if flat.shape != (n_weights,):
            raise DataError(f"{path}: the weights record has shape {flat.shape}, "
                            f"the header's config needs ({n_weights},)")
        if f.tell() != size:
            raise DataError(f"{path}: {size - f.tell()} trailing bytes after the weights")
    return ModelParams(flat, config, n_patches, in_channels)

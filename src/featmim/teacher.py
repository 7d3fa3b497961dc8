"""Frozen feature teachers and the teacher/student grid-alignment rule.

A teacher turns a full (unmasked) image into a [K, D] array, one target token
per student patch. Teachers live entirely outside the gradient tape: their
outputs are constants for the student. Two kinds ship: a procedural stack of
stride-2 convolutions (deterministic from a seed, used everywhere in tests)
and a file-backed teacher that replays features dumped by `dump_features`.
"""

import json
import math
import os
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .model import MAX_INIT_ELEMENTS
from .tensor import make_dirs, read_bytes, read_tvec, write_atomic, write_tvec


def _stage_widths(downsample_rate, target_dim):
    """Output channels of the log2(downsample_rate) conv stages: 8, 16, ..., target_dim."""
    return [8 * 2**i for i in range(downsample_rate.bit_length() - 2)] + [target_dim]


# the fields each teacher kind reads; any other must keep its default
KIND_FIELDS = {"procedural-conv": ("downsample_rate", "target_dim", "seed", "l2_normalize"),
               "file": ("features_dir",)}


class TeacherSpec(NamedTuple):
    kind: str = "procedural-conv"  # "procedural-conv" | "file"
    downsample_rate: int = 8
    target_dim: int = 16
    seed: int = 0
    l2_normalize: bool = False
    features_dir: Optional[str] = None

    def validate(self, rate_name="procedural teacher downsample_rate", dim_name="target_dim"):
        if self.kind not in KIND_FIELDS:
            raise ConfigError(f"unknown teacher kind {self.kind!r}")
        if self.kind == "file" and not self.features_dir:
            raise ConfigError("file teacher needs features_dir")
        ignored = [f"teacher.{f}" for f in self._fields[1:] if f not in KIND_FIELDS[self.kind]
                   and getattr(self, f) != self._field_defaults[f]]
        if ignored:
            raise ConfigError(f"a {self.kind} teacher reads no {', '.join(ignored)}")
        if self.kind == "procedural-conv":
            if self.seed < 0:
                raise ConfigError(f"teacher.seed must be non-negative, got {self.seed}")
            if self.downsample_rate < 2 or self.downsample_rate & (self.downsample_rate - 1):
                raise ConfigError(f"{rate_name} must be a power of two >= 2")
            if self.target_dim < 1:
                raise ConfigError(f"{dim_name} must be positive")
            # ProceduralConvTeacher's weights on 3 channels, the most a PPM has
            widths = _stage_widths(self.downsample_rate, self.target_dim)
            n = sum(9 * a * b + b for a, b in zip([3] + widths, widths))
            if n > MAX_INIT_ELEMENTS:
                raise ConfigError(f"{rate_name} {self.downsample_rate} and {dim_name} {self.target_dim} "
                                  f"give the teacher {n:,} weights, more than {MAX_INIT_ELEMENTS:,}")


def bilinear_resize(image, out_h, out_w):
    """Separable bilinear resampling, align-corners=false convention.

    Output pixel j samples the input at (j + 0.5) * in/out - 0.5, clamped
    to the valid range. Columns are blended first, on the input rows, and
    the blended rows second: every output pixel gets the same multiplies and
    adds, in the same order, as a blend of its four corners.
    """
    c, h, w = image.shape

    def coords(n_in, n_out):
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1)
        i0 = np.floor(src).astype(np.int64)
        i1 = np.minimum(i0 + 1, n_in - 1)
        return i0, i1, (src - i0).astype(image.dtype)

    r0, r1, wr = coords(h, out_h)
    c0, c1, wc = coords(w, out_w)
    # np.take gathers into C order; image[:, :, idx] puts the indexed axis
    # outermost in memory and makes every later pass strided
    rows = np.take(image, c0, axis=2) * (1 - wc) + np.take(image, c1, axis=2) * wc
    wr = wr[:, None]
    return np.take(rows, r0, axis=1) * (1 - wr) + np.take(rows, r1, axis=1) * wr


def check_alignment(downsample_rate, patch_side, rate_name="teacher downsample",
                    side_name="student patch side"):
    """The grid-alignment rule, patch_side >= 1 dividing downsample_rate; a
    ConfigError names the two values by rate_name and side_name."""
    if patch_side < 1:
        raise ConfigError(f"{side_name} must be at least 1, got {patch_side}")
    if downsample_rate % patch_side:
        raise ConfigError(f"{rate_name} {downsample_rate} is not divisible by "
                          f"{side_name} {patch_side}: grids cannot align")


def align_input(image, student_patch_side, teacher_downsample):
    """Resize so the teacher's token grid matches the student's patch grid.

    The factor teacher_downsample / student_patch_side must be a positive
    integer (check_alignment); factor 1 returns the image untouched, and so
    does a teacher without a downsample rate (a file teacher replays tokens).
    """
    if teacher_downsample is None:
        return image
    factor = teacher_downsample // student_patch_side
    if factor == 1:
        return image
    _, h, w = image.shape
    return bilinear_resize(image, h * factor, w * factor)


def _conv2d_stride2(x, weight, bias):
    """3x3 convolution, stride 2, padding 1. x: [C, H, W] with even H, W.

    im2col: nine strided slices of x fill a channel-major [C, 3, 3, H/2, W/2]
    buffer (taps that fall on the padding keep its zeros), and one transpose
    copy makes it the C-contiguous [H/2 * W/2, C * 9] GEMM operand, K in the
    (c, i, j) order of the weights. The GEMM must not read the transposed
    view: that goes to another BLAS kernel, whose sums round differently on
    small grids.
    """
    c, h, w = x.shape
    out_c = weight.shape[0]
    oh, ow = h // 2, w // 2
    cols = np.zeros((c, 3, 3, oh, ow), dtype=x.dtype)
    for i in range(3):
        for j in range(3):
            # tap (i, j) of output (r, s) reads x[2r + i - 1, 2s + j - 1]
            r, s = int(i == 0), int(j == 0)  # the first row / column reads padding
            cols[:, i, j, r:, s:] = x[:, 2 * r + i - 1:2 * oh + i - 1:2,
                                      2 * s + j - 1:2 * ow + j - 1:2]
    cols = np.ascontiguousarray(cols.reshape(c * 9, oh * ow).T)
    out = cols @ weight.reshape(out_c, c * 9).T + bias
    return out.T.reshape(out_c, oh, ow)


class ProceduralConvTeacher:
    """Stack of stride-2 3x3 convolutions with tanh, fixed random weights.

    log2(downsample_rate) stages halve the resolution each; the last stage
    outputs target_dim channels. Locality is bounded: a token only reacts to
    pixels inside its receptive field.
    """

    kind = "procedural-conv"

    def __init__(self, target_dim, downsample_rate=8, seed=0, l2_normalize=False,
                 in_channels=3):
        self.target_dim = target_dim
        self.downsample_rate = downsample_rate
        self.l2_normalize = l2_normalize
        self.in_channels = in_channels
        rng = np.random.default_rng(seed)
        self._stages = []
        c_in = in_channels
        for c_out in _stage_widths(downsample_rate, target_dim):
            w = rng.normal(0.0, 1.0 / np.sqrt(9 * c_in), size=(c_out, c_in, 3, 3))
            b = rng.normal(0.0, 0.1, size=c_out)
            self._stages.append((w, b))
            c_in = c_out

    def features(self, image, source_id=""):
        """Tokens [K, target_dim] for an aligned image, row-major over the
        K = (H / downsample_rate)**2 grid. image: [C, H, W], square, sides
        divisible by downsample_rate; source_id only names it in errors."""
        c, h, w = image.shape
        if h != w:
            raise DataError(f"image {source_id!r} is {h}x{w}: teacher tokens need a square image")
        if c != self.in_channels:
            raise ConfigError(f"teacher built for {self.in_channels} channels, image has {c}")
        if h % self.downsample_rate:
            raise DataError(f"image {source_id!r} is {h}x{w}: sides not divisible by "
                            f"downsample rate {self.downsample_rate}")
        x = np.asarray(image)
        for wgt, bias in self._stages:
            x = np.tanh(_conv2d_stride2(x, wgt.astype(x.dtype), bias.astype(x.dtype)))
        grid = x.shape[1]
        tokens = x.reshape(self.target_dim, grid * grid).T.copy()
        if self.l2_normalize:
            norms = np.linalg.norm(tokens, axis=1, keepdims=True)
            if np.any(norms == 0):
                raise NumericError("cannot L2-normalize a zero-norm token")
            tokens = tokens / norms
        return tokens


class FileTeacher:
    """Replays features previously written by dump_features."""

    kind = "file"
    downsample_rate = None

    def __init__(self, features_dir):
        self.features_dir = features_dir
        manifest_path = os.path.join(features_dir, "manifest.json")
        blob = read_bytes(manifest_path, "feature manifest")
        try:
            manifest = json.loads(blob.decode())
        except (ValueError, RecursionError) as e:  # also non-UTF-8 bytes, deep nesting
            raise DataError(f"{manifest_path}: not JSON: {e}") from None
        try:
            self.target_dim = manifest["target_dim"]
            entries = [(e["id"], e["grid_side"]) for e in manifest["entries"]]
        except (KeyError, TypeError) as e:
            raise DataError(f"{manifest_path}: malformed manifest: {e!r}") from None
        if type(self.target_dim) is not int or self.target_dim < 1:
            raise DataError(f"{manifest_path}: target_dim {self.target_dim!r} "
                            "is not a positive integer")
        self._grid_by_id = {}
        for image_id, grid in entries:
            # ids name files inside features_dir and nothing outside it
            if (not isinstance(image_id, str) or image_id in ("", ".", "..")
                    or os.path.basename(image_id) != image_id):
                raise DataError(f"{manifest_path}: feature id {image_id!r} is not a plain file name")
            if not isinstance(grid, int) or grid < 1:
                raise DataError(f"{manifest_path}: grid_side {grid!r} of {image_id!r} "
                                "is not a positive integer")
            if image_id in self._grid_by_id:
                raise DataError(f"{manifest_path}: feature id {image_id!r} is listed twice")
            self._grid_by_id[image_id] = grid
        self.ids = list(self._grid_by_id)

    def features(self, image, source_id, out=None):
        """The tokens [grid_side**2, target_dim] dumped for source_id, read
        into `out` when that is a float32 array of the file's shape (see
        tensor.read_tvec); image is not read."""
        if source_id not in self._grid_by_id:
            raise DataError(f"no dumped features for image id {source_id!r}")
        tokens = read_tvec(os.path.join(self.features_dir, f"{source_id}.tvec"), out)
        grid = self._grid_by_id[source_id]
        if tokens.ndim != 2 or tokens.shape != (grid * grid, self.target_dim):
            raise DataError(
                f"feature file for {source_id!r} has shape {tokens.shape}, "
                f"expected {(grid * grid, self.target_dim)}")
        if not np.isfinite(tokens).all():
            raise DataError(f"feature file for {source_id!r} contains non-finite values")
        return tokens


def make_teacher(spec: TeacherSpec, in_channels=3):
    spec.validate()
    if spec.kind == "file":
        return FileTeacher(spec.features_dir)
    return ProceduralConvTeacher(
        target_dim=spec.target_dim, downsample_rate=spec.downsample_rate,
        seed=spec.seed, l2_normalize=spec.l2_normalize, in_channels=in_channels)


def dump_features(teacher, images, out_dir, student_patch_side):
    """Extract and write one tvec per image plus a manifest.

    images: an iterable of (id, [C, H, W] array), consumed one image at a
    time: each is grid-aligned (a no-op for file teachers, which replay
    as-is) and extracted, and only its tokens are kept. Every image is
    extracted before out_dir is made, so a rejected image writes nothing.
    Returns the manifest dict.
    """
    feats = [(image_id, teacher.features(
        align_input(image, student_patch_side, teacher.downsample_rate), image_id))
        for image_id, image in images]
    make_dirs(out_dir)
    for image_id, tokens in feats:
        write_tvec(os.path.join(out_dir, f"{image_id}.tvec"), tokens)
    manifest = {"source_id": teacher.kind,
                "target_dim": teacher.target_dim,
                "entries": [{"id": image_id, "grid_side": math.isqrt(len(tokens))}
                            for image_id, tokens in feats]}
    write_atomic(os.path.join(out_dir, "manifest.json"),
                 json.dumps(manifest, indent=1, sort_keys=True))
    return manifest


def load_feature_dir(features_dir, dtype=np.float32):
    """A dump's tokens as one C-contiguous [sum K, D] matrix of `dtype`,
    sized from the manifest and filled one checked file at a time in its
    order, and the row offsets [n + 1] of its samples. The corpus is held
    once: a float32 matrix is read straight into its slices, and any other
    dtype is filled from one file's float32 tokens at a time, so `pca` can
    hold its float64 matrix alone. No entries is a DataError."""
    teacher = FileTeacher(features_dir)
    if not teacher.ids:
        raise DataError(f"no feature samples in {features_dir}")
    offsets = list(accumulate((teacher._grid_by_id[i] ** 2 for i in teacher.ids), initial=0))
    paths = [os.path.join(features_dir, f"{i}.tvec") for i in teacher.ids]
    if 4 * offsets[-1] * teacher.target_dim > sum(map(os.path.getsize, filter(os.path.isfile, paths))):
        for image_id in teacher.ids:  # more tokens than the files hold: the first
            teacher.features(None, image_id)  # bad file raises, before any allocation
    corpus = np.empty((offsets[-1], teacher.target_dim), dtype=dtype)
    for image_id, lo, hi in zip(teacher.ids, offsets, offsets[1:]):
        rows = corpus[lo:hi]
        tokens = teacher.features(None, image_id, rows)
        if tokens is not rows:  # another dtype: upcast from the file's float32
            rows[...] = tokens
    return corpus, offsets

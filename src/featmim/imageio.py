"""Binary PPM (P6) / PGM (P5) reading and writing.

The only supported image formats: dependency-free and bit-exact. Pixels are
scaled to [0, 1] on read; training normalization (x - mean) / std is applied
per channel on top.
"""

import os

import numpy as np

from .errors import ConfigError, DataError
from .tensor import open_input, read_bytes, write_atomic


def _tokens(blob, count):
    """First `count` ASCII header tokens, honouring '#' comments.

    Returns (tokens, payload_offset); the payload starts one whitespace
    byte after the last token.
    """
    toks = []
    i = 0
    n = len(blob)
    while len(toks) < count:
        while i < n and blob[i:i + 1].isspace():
            i += 1
        if i < n and blob[i:i + 1] == b"#":
            while i < n and blob[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < n and not blob[i:i + 1].isspace():
            i += 1
        if start == i:
            raise DataError("truncated image header")
        toks.append(blob[start:i])
    if i >= n or not blob[i:i + 1].isspace():
        raise DataError("missing whitespace after image header")
    return toks, i + 1


MAGIC_CHANNELS = {b"P5": 1, b"P6": 3}


def read_pnm(path):
    """Read a binary PGM/PPM file as float32 [C, H, W] in [0, 1]."""
    blob = read_bytes(path, "image")
    channels = MAGIC_CHANNELS.get(blob[:2])
    if channels is None:
        raise DataError(f"{path}: not a binary PGM (P5) or PPM (P6) file")
    toks, off = _tokens(blob, 4)
    try:
        width, height, maxval = int(toks[1]), int(toks[2]), int(toks[3])
    except ValueError as e:
        raise DataError(f"{path}: malformed header: {e}") from None
    if width < 1 or height < 1:
        raise DataError(f"{path}: bad dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise DataError(f"{path}: unsupported maxval {maxval} (single-byte samples only)")
    payload = blob[off:]
    need = width * height * channels
    if len(payload) < need:
        raise DataError(f"{path}: payload holds {len(payload)} bytes, expected {need}")
    raw = np.frombuffer(payload[:need], dtype=np.uint8)
    if maxval < 255 and raw.max() > maxval:
        raise DataError(f"{path}: sample {raw.max()} exceeds maxval {maxval}")
    img = raw.reshape(height, width, channels).transpose(2, 0, 1)
    return img.astype(np.float32) / np.float32(maxval)


def _quantize(arr):
    x = np.clip(np.asarray(arr, dtype=np.float64), 0.0, 1.0)
    return np.floor(x * 255.0 + 0.5).astype(np.uint8)


def write_pgm(path, array):
    """Write [H, W] values in [0, 1] as a binary PGM, atomically."""
    h, w = np.shape(array)
    write_atomic(path, f"P5\n{w} {h}\n255\n".encode() + _quantize(array).tobytes())


def write_ppm(path, array):
    """Write [3, H, W] values in [0, 1] as a binary PPM, atomically."""
    arr = np.asarray(array)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise DataError("PPM needs shape [3, H, W]")
    h, w = arr.shape[1:]
    write_atomic(path, f"P6\n{w} {h}\n255\n".encode()
                 + _quantize(arr).transpose(1, 2, 0).tobytes())


def normalize(image, mean=0.5, std=0.5):
    """Per-channel (x - mean) / std in float32. mean and std, the run config's
    data.norm_mean and data.norm_std, hold one value or one per channel."""
    mean = np.asarray(mean, dtype=np.float32).reshape(-1, 1, 1)
    std = np.asarray(std, dtype=np.float32).reshape(-1, 1, 1)
    c = image.shape[0]
    for name, v in (("norm_mean", mean), ("norm_std", std)):
        if len(v) not in (1, c):
            needs = "1" if c == 1 else f"1 or {c}"
            raise ConfigError(f"data.{name} holds {len(v)} values for {c}-channel images; "
                              f"it needs {needs}")
    return (image - mean) / std


def scan_images(directory):
    """Every .pgm/.ppm file in a directory, sorted by filename, checked from
    its first two bytes alone: returns (channels, [(image_id, path)]), the
    id being the file name without extension. No image, two files with one
    id (a.ppm and a.PPM), a file that is neither P5 nor P6, and images with
    different channel counts are each a DataError, raised before any pixel
    is read."""
    try:
        names = sorted(n for n in os.listdir(directory)
                       if n.lower().endswith((".pgm", ".ppm")))
    except OSError as e:
        raise DataError(f"cannot list image directory {directory}: {e}") from None
    if not names:
        raise DataError(f"no .pgm/.ppm images found in {directory}")
    paths = {}  # image id -> file, all checked before any is read
    for image_id, path in ((os.path.splitext(n)[0], os.path.join(directory, n)) for n in names):
        if paths.setdefault(image_id, path) != path:
            raise DataError(f"images {paths[image_id]} and {path} both map to image id {image_id!r}")
    channels = set()
    for path in paths.values():
        with open_input(path, "image") as f:
            magic = f.read(2)
        if magic not in MAGIC_CHANNELS:
            raise DataError(f"{path}: not a binary PGM (P5) or PPM (P6) file")
        channels.add(MAGIC_CHANNELS[magic])
    if len(channels) > 1:  # before normalize, whose per-channel check would blame the config
        raise DataError(f"images in {directory} disagree on channel count: {sorted(channels)}")
    return channels.pop(), list(paths.items())


def read_images(files, mean=0.5, std=0.5):
    """Lazily, (image_id, float32 [C, H, W]) normalized, one file of
    scan_images' list at a time."""
    for image_id, path in files:
        yield image_id, normalize(read_pnm(path), mean, std)


def load_images(directory, mean=0.5, std=0.5):
    """Every image of a directory, as scan_images finds and checks them,
    read and normalized: [(image_id, float32 [C, H, W])]."""
    return list(read_images(scan_images(directory)[1], mean, std))

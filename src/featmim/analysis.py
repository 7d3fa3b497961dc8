"""Feature-space analysis: query-patch similarity heat-maps and PCA.

Heat-maps show, for one query token, its cosine to every token of a [K, D]
array, drawn on the square isqrt(K) patch grid. PCA is one symmetric
eigendecomposition of the token covariance, used to compress wide teacher
tokens before further embedding.
"""

import json
import math

import numpy as np

from .diversity import _unit_rows
from .errors import ConfigError
from .imageio import write_pgm
from .tensor import write_atomic


def heatmap(tokens, query):
    """Cosine [K], in [-1, 1], of every row of tokens [K, D] against row `query`."""
    if not 0 <= query < len(tokens):
        raise ConfigError(f"query index {query} out of range [0, {len(tokens)})")
    u = _unit_rows(tokens)
    return u @ u[query]


def render_pgm(values, query, path):
    """8-bit grayscale rendering of a heat map's K values on its square
    isqrt(K) grid: [min, max] maps linearly onto [0, 255]; brighter means
    more similar. A constant map renders mid-gray (128). The query cell goes
    to a `<path>.json` sidecar.
    """
    g = math.isqrt(len(values))
    v = np.asarray(values, dtype=np.float64).reshape(g, g)
    lo, hi = v.min(), v.max()
    write_pgm(path, np.full(v.shape, 0.5) if hi == lo else (v - lo) / (hi - lo))
    write_atomic(f"{path}.json", json.dumps(
        {"query_index": int(query), "grid_side": g,
         "value_min": float(lo), "value_max": float(hi)}, sort_keys=True))


def pca_reduce(x, n_components):
    """PCA from one symmetric eigendecomposition of the covariance.

    Returns (projected [M, n], components [n, D] row-orthonormal,
    explained_variance [n] non-increasing, clamped at 0). Each component is
    signed so that its largest-magnitude entry (the first, on a tie) is
    positive, so the output does not depend on the solver's sign choice.
    A writeable C-contiguous float64 x is centered in place and so holds the
    corpus once: the caller gets it back centered. Any other x is left
    unchanged, and its float64 copy is centered instead; both give the same
    bytes.
    """
    xc = np.require(x, np.float64, "CW")
    m, d = xc.shape
    if not 1 <= n_components <= min(m, d):
        raise ConfigError(
            f"n_components must lie in [1, {min(m, d)}], got {n_components}")
    xc -= xc.mean(axis=0)
    values, vectors = np.linalg.eigh(xc.T @ xc / max(m - 1, 1))
    components = vectors[:, ::-1][:, :n_components].T
    peak = np.abs(components).argmax(axis=1)
    components = components * np.sign(components[np.arange(n_components), peak])[:, None]
    explained = np.maximum(values[::-1][:n_components], 0.0)
    return xc @ components.T, components, explained

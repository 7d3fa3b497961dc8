"""Feature-space analysis: query-patch similarity heat-maps and PCA.

Heat-maps show, for one query token, its cosine to every token on the patch
grid. PCA is power iteration with deflation, used to compress wide teacher
tokens before further embedding.
"""

import json
from dataclasses import dataclass

import numpy as np

from .diversity import _unit_rows
from .errors import ConfigError
from .imageio import write_pgm


@dataclass(frozen=True)
class HeatMap:
    grid_side: int
    query_index: int
    values: np.ndarray  # cosine to the query, in [-1, 1], length grid_side**2


def heatmap(feats, query):
    """Cosine of every token against token `query`."""
    if not 0 <= query < feats.n_tokens:
        raise ConfigError(f"query index {query} out of range [0, {feats.n_tokens})")
    u = _unit_rows(feats.tokens)
    return HeatMap(grid_side=feats.grid_side, query_index=int(query),
                   values=u @ u[query])


def render_pgm(hmap: HeatMap, path):
    """8-bit grayscale rendering: [min, max] maps linearly onto [0, 255];
    brighter means more similar. A constant map renders mid-gray (128).
    The query cell goes to a `<path>.json` sidecar.
    """
    g = hmap.grid_side
    v = np.asarray(hmap.values, dtype=np.float64).reshape(g, g)
    lo, hi = v.min(), v.max()
    write_pgm(path, np.full(v.shape, 0.5) if hi == lo else (v - lo) / (hi - lo))
    with open(f"{path}.json", "w") as f:
        json.dump({"query_index": hmap.query_index, "grid_side": g,
                   "value_min": float(lo), "value_max": float(hi)},
                  f, sort_keys=True)


def pca_reduce(x, n_components, max_iter=1000, tol=1e-10, seed=0):
    """PCA by power iteration with deflation.

    Returns (projected [M, n], components [n, D] row-orthonormal,
    explained_variance [n] non-increasing). Iteration stops after max_iter
    rounds or when the eigenvalue's relative change drops below tol.
    """
    x = np.asarray(x, dtype=np.float64)
    m, d = x.shape
    if not 1 <= n_components <= min(m, d):
        raise ConfigError(
            f"n_components must lie in [1, {min(m, d)}], got {n_components}")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / max(m - 1, 1)

    rng = np.random.default_rng(seed)
    a = cov.copy()
    comps = []
    variances = []
    for _ in range(n_components):
        v = rng.normal(size=d)
        for c in comps:
            v -= (v @ c) * c
        norm = np.linalg.norm(v)
        v = v / norm if norm > 0 else np.eye(d)[len(comps) % d]
        prev = np.inf
        for _ in range(max_iter):
            w = a @ v
            for c in comps:  # re-orthogonalize to keep components orthonormal
                w -= (w @ c) * c
            norm = np.linalg.norm(w)
            if norm < 1e-300:
                break  # deflated matrix is numerically zero in this subspace
            v = w / norm
            ev = float(v @ a @ v)
            if abs(ev - prev) <= tol * max(abs(ev), 1e-300):
                break
            prev = ev
        ev = max(float(v @ a @ v), 0.0)
        comps.append(v)
        variances.append(ev)
        a = a - ev * np.outer(v, v)

    order = sorted(range(n_components), key=lambda i: -variances[i])
    components = np.array([comps[i] for i in order])
    explained = np.array([variances[i] for i in order])
    return xc @ components.T, components, explained

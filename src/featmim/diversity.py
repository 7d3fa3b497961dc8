"""Token-diversity metric for ranking feature teachers.

Per sample, a [K, D] token array: take the pairwise cosines between its K
tokens, min-max normalize them into [0, 1] within the sample, and average.
Each unordered pair is counted once; the cosine matrix is exactly symmetric
and the sum is exact (correctly rounded), so the mean equals the mean over
all K(K-1) ordered pairs bit for bit. The corpus diversity is one minus the
mean of those per-sample similarities; higher means the teacher separates
image regions more strongly.

Degenerate rule: when every off-diagonal cosine is equal (min = max), the
normalization is undefined and the shared raw cosine, clamped to [0, 1], is
used instead - so identical tokens score similarity 1 and mutually
orthogonal tokens score 0.
"""

import math

import numpy as np

from .errors import DataError, NumericError


def _unit_rows(y):
    y = np.asarray(y, dtype=np.float64)
    norms = np.linalg.norm(y, axis=1)
    if not norms.all():  # norms are >= 0: argmin is the first zero-norm row
        raise NumericError("cosine similarity undefined for a zero-norm token "
                           f"(row {np.argmin(norms)})")
    return y / norms[:, None]


def pairwise_cosine(y):
    """Full K x K cosine matrix, unit diagonal. Exactly symmetric: numpy
    computes u @ u.T as one SYRK and mirrors the triangle."""
    u = _unit_rows(y)
    return u @ u.T


def _pair_offsets(k):  # flat offsets of a k x k matrix's pairs i < j, row-major
    return np.flatnonzero(np.triu(np.ones((k, k), dtype=bool), 1))


def sample_similarity(y, pairs):
    """Mean min-max-normalized off-diagonal cosine for one sample; `pairs` is
    _pair_offsets of its token count, which a corpus builds once."""
    off = np.take(pairwise_cosine(y), pairs)
    lo, hi = off.min(), off.max()
    if hi == lo:
        return min(max(float(lo), 0.0), 1.0)
    normed = (off - lo) / (hi - lo)
    # exact, so inside [0, 1]; a memoryview iterates faster than the array
    return math.fsum(memoryview(normed)) / len(normed)


def corpus_diversity(samples):
    """Diversity report over a corpus of token arrays [K, D], one per sample:
    {"n": samples, "k": tokens per sample, "diver": corpus diversity,
    "per_sample": each sample's similarity in [0, 1]}. A zero-norm token is
    a NumericError naming its sample's position."""
    if not samples:
        raise DataError("diversity needs a non-empty corpus")
    ks = {len(s) for s in samples}
    if len(ks) != 1:
        raise DataError(f"samples disagree on token count: {sorted(ks)}")
    k = ks.pop()
    if k < 2:
        raise DataError("diversity needs at least two tokens per sample")
    pairs = _pair_offsets(k)  # built once for the whole corpus
    sims = []
    for i, s in enumerate(samples):
        try:
            sims.append(sample_similarity(s, pairs))
        except NumericError as e:
            raise NumericError(f"sample {i}: {e}") from None
    return {"n": len(sims), "k": k, "diver": 1.0 - math.fsum(sims) / len(sims),
            "per_sample": sims}

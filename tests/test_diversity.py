import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import ordered_pair_similarity
from featmim.diversity import _exact_sum, _pair_offsets, corpus_diversity, pairwise_cosine
from featmim.diversity import sample_similarity as _sample_similarity
from featmim.errors import DataError, NumericError


def feats(tokens):
    return np.asarray(tokens, dtype=np.float64)


def sample_similarity(y):  # one sample with its own pair table
    return _sample_similarity(y, _pair_offsets(len(y)))


def oracle_similarity(y):
    """Naive double-loop reference: cosines via plain Python sums."""
    k = len(y)
    cos = []
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            dot = sum(a * b for a, b in zip(y[i], y[j]))
            ni = math.sqrt(sum(a * a for a in y[i]))
            nj = math.sqrt(sum(b * b for b in y[j]))
            cos.append(dot / (ni * nj))
    lo, hi = min(cos), max(cos)
    if hi == lo:
        return min(max(lo, 0.0), 1.0)
    return sum((c - lo) / (hi - lo) for c in cos) / len(cos)


def oracle_diversity(samples):
    sims = [oracle_similarity(s) for s in samples]
    return 1.0 - sum(sims) / len(sims)


HAND_SAMPLE = np.array([[1.0, 0.0], [0.0, 1.0], [1 / np.sqrt(2), 1 / np.sqrt(2)]])


def test_pairwise_identical_tokens():
    c = pairwise_cosine(np.array([[2.0, 0.0], [2.0, 0.0]]))
    np.testing.assert_array_equal(c, np.ones((2, 2)))


def test_pairwise_orthogonal():
    c = pairwise_cosine(np.array([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(c, np.eye(2), atol=1e-15)


def test_pairwise_hand_case():
    c = pairwise_cosine(HAND_SAMPLE)
    r = 1 / np.sqrt(2)
    np.testing.assert_allclose(np.sort(c[~np.eye(3, dtype=bool)]),
                               [0.0, 0.0, r, r, r, r], atol=1e-12)


def test_pairwise_symmetric_unit_diagonal():
    rng = np.random.default_rng(0)
    y = rng.normal(size=(6, 4))
    c = pairwise_cosine(y)
    assert np.array_equal(c, c.T)
    np.testing.assert_allclose(np.diag(c), 1.0, atol=1e-6)


def test_pairwise_rejects_zero_norm():
    with pytest.raises(NumericError, match=r"zero-norm token \(row 1\)"):
        pairwise_cosine(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))


def test_pairwise_rejects_single_token():
    # the corpus checks the token count before any sample's cosines
    with pytest.raises(DataError, match="at least two tokens per sample"):
        corpus_diversity([feats([[1.0, 0.0]])])


def test_similarity_identical_is_one():
    assert sample_similarity(np.array([[2.0, 0.0]] * 4)) == 1.0


def test_similarity_orthogonal_is_zero():
    assert sample_similarity(np.eye(4)) == 0.0


def test_similarity_hand_case():
    # normalized off-diagonals {0,0,1,1,1,1} -> mean 2/3
    assert abs(sample_similarity(HAND_SAMPLE) - 2 / 3) < 1e-12


def test_corpus_identical_divergence_zero_exact():
    samples = [feats([[2.0, 0.0]] * 3) for _ in range(5)]
    assert corpus_diversity(samples)["diver"] == 0.0


def test_corpus_orthogonal_divergence_one_exact():
    samples = [feats(np.eye(3)) for _ in range(5)]
    assert corpus_diversity(samples)["diver"] == 1.0


def test_corpus_hand_case_third():
    report = corpus_diversity([feats(HAND_SAMPLE)])
    assert abs(report["diver"] - 1 / 3) < 1e-12


def test_report_fields():
    report = corpus_diversity([feats(HAND_SAMPLE), feats(HAND_SAMPLE)])
    # the keys and their order are the `featmim diversity` JSON's
    assert list(report) == ["n", "k", "diver", "per_sample"]
    assert report["n"] == 2
    assert report["k"] == 3
    assert len(report["per_sample"]) == 2


def test_mixed_token_counts_rejected():
    with pytest.raises(DataError):
        corpus_diversity([feats(HAND_SAMPLE), feats(np.eye(2))])


def test_corpus_empty_rejected():
    with pytest.raises(DataError):
        corpus_diversity([])


def test_single_token_samples_rejected():
    with pytest.raises(DataError):
        corpus_diversity([feats([[1.0, 0.0]]), feats([[0.0, 1.0]])])


def test_oracle_equivalence_100_instances():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(2, 17))
        d = int(rng.integers(1, 9))
        samples = [rng.normal(size=(k, d)) for _ in range(n)]
        mine = corpus_diversity([feats(s) for s in samples])["diver"]
        ref = oracle_diversity([s.tolist() for s in samples])
        worst = max(worst, abs(mine - ref))
    assert worst < 1e-12, f"max deviation from oracle {worst}"


@pytest.mark.parametrize("k", [2, 3, 17, 64])
def test_corpus_pair_index_gives_each_sample_its_own_similarity(k):
    # corpus_diversity builds the pair index once; every sample's entry is
    # bitwise its one-sample similarity and the ordered-pair oracle's value
    rng = np.random.default_rng(k)
    samples = [rng.normal(size=(k, 6)) for _ in range(5)]
    samples.append(np.tile(samples[0][:1], (k, 1)))  # the degenerate rule
    report = corpus_diversity([feats(s) for s in samples])
    assert report["per_sample"] == [sample_similarity(s) for s in samples]
    assert report["per_sample"] == [ordered_pair_similarity(s) for s in samples]


def test_diver_report_invariant():
    rng = np.random.default_rng(2)
    samples = [feats(rng.normal(size=(5, 3))) for _ in range(4)]
    report = corpus_diversity(samples)
    assert report["diver"] == 1.0 - math.fsum(report["per_sample"]) / report["n"]


def _tokens(shape_strategy):
    return arrays(np.float64, shape_strategy,
                  elements=st.floats(-10, 10, allow_nan=False)).filter(
                      lambda y: np.all(np.linalg.norm(y, axis=1) > 1e-6))


tokens_any = _tokens(st.tuples(st.integers(2, 8), st.integers(1, 5)))


def _well_spread(y):
    # min-max normalization amplifies float noise when the cosine spread is
    # tiny, so the numerical-invariance properties use separated cosines
    c = pairwise_cosine(y)
    off = c[~np.eye(c.shape[0], dtype=bool)]
    return off.max() - off.min() > 1e-2


tokens_spread = _tokens(st.tuples(st.integers(2, 8), st.integers(2, 5))).filter(_well_spread)


@given(tokens_spread, st.floats(0.1, 100.0))
@settings(max_examples=50, deadline=None)
def test_scale_invariance(y, c):
    base = sample_similarity(y)
    scaled = y.copy()
    scaled[0] *= c  # positive per-token scaling
    assert abs(sample_similarity(scaled) - base) < 1e-9


@given(tokens_spread, st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_rotation_invariance(y, seed):
    rng = np.random.default_rng(seed)
    d = y.shape[1]
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    assert abs(sample_similarity(y @ q) - sample_similarity(y)) < 1e-9


@given(tokens_any, st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_permutation_invariance(y, seed):
    # exact: the off-diagonal multiset is unchanged and the exact sum is order-free
    rng = np.random.default_rng(seed)
    perm = rng.permutation(y.shape[0])
    assert sample_similarity(y[perm]) == sample_similarity(y)


@given(_tokens(st.tuples(st.integers(2, 40), st.integers(1, 9))))
@settings(max_examples=100, deadline=None)
def test_unordered_mean_equals_ordered_mean_exactly(y):
    assert sample_similarity(y) == ordered_pair_similarity(y)


# float64 arrays in [0, 1] that stress the sum's bit slicing, from (rng, n)
UNIT_ARRAYS = {
    "zeros": lambda rng, n: np.zeros(n),
    "zeros and ones": lambda rng, n: rng.integers(0, 2, n).astype(np.float64),
    "subnormals": lambda rng, n: rng.integers(0, 2**52, n) * 2.0**-1074,
    "2**-1000 to 1": lambda rng, n: np.ldexp(1.0 + rng.random(n), -rng.integers(1, 1001, n)),
    "uniform": lambda rng, n: rng.random(n),
}


@given(st.sampled_from(sorted(UNIT_ARRAYS)), st.integers(1, 40_000), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_exact_sum_is_fsum_bit_for_bit(kind, n, seed):
    x = UNIT_ARRAYS[kind](np.random.default_rng(seed), n)
    assert _exact_sum(x).hex() == math.fsum(x).hex()


@given(arrays(np.float64, st.integers(1, 60), elements=st.floats(0.0, 1.0)))
@settings(max_examples=200, deadline=None)
def test_exact_sum_is_fsum_on_any_unit_floats(x):
    assert _exact_sum(x).hex() == math.fsum(x).hex()


def test_exact_sum_refuses_the_count_bound():
    # a broadcast view holds one float, so the bound is reached without 1 GB
    assert _exact_sum(np.broadcast_to(1.0, 2**20)) == 2**20
    with pytest.raises(DataError, match=r"134,217,728 cosines .* 2\*\*27 - 1"):
        _exact_sum(np.broadcast_to(1.0, 2**27))


@given(tokens_any)
@settings(max_examples=60, deadline=None)
def test_similarity_range(y):
    s = sample_similarity(y)
    assert 0.0 <= s <= 1.0


@given(st.lists(_tokens(st.just((4, 3))), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_diver_range(sample_list):
    report = corpus_diversity([feats(s) for s in sample_list])
    assert 0.0 <= report["diver"] <= 1.0
    assert all(0.0 <= s <= 1.0 for s in report["per_sample"])

import json

import numpy as np
import pytest

from featmim.analysis import heatmap, pca_reduce, render_pgm
from featmim.errors import ConfigError, NumericError
from featmim.imageio import read_pnm


def feats(tokens):
    return np.asarray(tokens, dtype=np.float64)


def test_query_self_similarity_is_one():
    rng = np.random.default_rng(0)
    h = heatmap(feats(rng.normal(size=(9, 4))), query=3)
    assert abs(h[3] - 1.0) < 1e-6
    assert len(h) == 9


def test_identical_tokens_uniform_map():
    h = heatmap(feats([[2.0, 0.0]] * 4), query=0)
    np.testing.assert_allclose(h, 1.0, atol=1e-12)


def test_heatmap_symmetry():
    rng = np.random.default_rng(1)
    f = feats(rng.normal(size=(9, 5)))
    for q in range(9):
        hq = heatmap(f, q)
        for j in range(9):
            assert abs(hq[j] - heatmap(f, j)[q]) < 1e-12


def test_heatmap_scale_invariance():
    rng = np.random.default_rng(2)
    y = rng.normal(size=(4, 3))
    scaled = y * rng.uniform(0.1, 10.0, size=(4, 1))
    a = heatmap(feats(y), 1)
    b = heatmap(feats(scaled), 1)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_heatmap_query_out_of_range():
    with pytest.raises(ConfigError):
        heatmap(feats(np.eye(4)), query=4)


def test_heatmap_zero_norm_token():
    with pytest.raises(NumericError, match=r"zero-norm token \(row 1\)"):
        heatmap(feats([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]), 0)


def test_render_uniform_map_mid_gray(tmp_path):
    p = tmp_path / "m.pgm"
    render_pgm(np.full(4, 0.7), 0, p)
    img = read_pnm(p)
    np.testing.assert_array_equal(np.round(img[0] * 255), np.full((2, 2), 128.0))


def test_render_linear_map(tmp_path):
    p = tmp_path / "m.pgm"
    render_pgm(np.array([0.0, 1.0, 1.0, 1.0]), 1, p)
    raw = p.read_bytes()
    assert raw.endswith(bytes([0, 255, 255, 255]))
    sidecar = json.loads((tmp_path / "m.pgm.json").read_text())
    assert sidecar["query_index"] == 1
    assert sidecar["grid_side"] == 2


def test_render_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.uniform(-1, 1, 9)
    pa, pb = tmp_path / "a.pgm", tmp_path / "b.pgm"
    render_pgm(values, 4, pa)
    render_pgm(values, 4, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_render_round_trip_quantized(tmp_path):
    rng = np.random.default_rng(4)
    vals = rng.uniform(-1, 1, 16)
    p = tmp_path / "m.pgm"
    render_pgm(vals, 0, p)
    img = (read_pnm(p)[0].reshape(-1) * 255).round().astype(int)
    lo, hi = vals.min(), vals.max()
    expected = np.floor((vals - lo) / (hi - lo) * 255.0 + 0.5).astype(int)
    np.testing.assert_array_equal(img, expected)


# --- PCA ---


def test_pca_line_in_2d():
    rng = np.random.default_rng(5)
    t = rng.normal(size=100)
    x = np.stack([2 * t, -t], axis=1)  # all points on one line
    _, _, explained = pca_reduce(x, 2)
    assert explained[0] > 0
    assert explained[1] < 1e-20 * explained[0] + 1e-20
    assert explained[0] / explained.sum() > 1 - 1e-12


def test_pca_isotropic_variances_close():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(10_000, 4))
    _, _, explained = pca_reduce(x, 4)
    assert explained.max() / explained.min() < 1.1  # within 10% at M=10,000


def test_pca_components_orthonormal():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(50, 8)) @ np.diag([5, 4, 3, 2, 1, 0.5, 0.1, 0.01])
    _, comps, _ = pca_reduce(x, 8)
    gram = comps @ comps.T
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-8)


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(20, 6))
    projected, comps, _ = pca_reduce(x, 6)
    recon = projected @ comps + x.mean(axis=0)
    np.testing.assert_allclose(recon, x, atol=1e-6)


def test_pca_variances_non_increasing():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40, 5)) * np.array([3.0, 3.0, 1.0, 1.0, 0.2])
    _, _, explained = pca_reduce(x, 5)
    assert all(a >= b for a, b in zip(explained, explained[1:]))


def test_pca_rejects_bad_component_count():
    x = np.zeros((5, 3))
    with pytest.raises(ConfigError):
        pca_reduce(x, 4)
    with pytest.raises(ConfigError):
        pca_reduce(x, 0)


def test_pca_matches_eigendecomposition():
    # oracle: the SVD of the centered data, which never forms the covariance
    rng = np.random.default_rng(10)
    x = rng.normal(size=(60, 5)) * np.array([4.0, 2.5, 1.5, 0.7, 0.3])
    _, comps, explained = pca_reduce(x, 5)
    _, s, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
    np.testing.assert_allclose(explained, s**2 / (len(x) - 1), rtol=1e-10)
    for i in range(5):
        sign = np.sign(comps[i] @ vt[i])
        np.testing.assert_allclose(comps[i], sign * vt[i], atol=1e-10)


def test_pca_sign_rule():
    # each component's largest-magnitude entry is positive, the first on a tie
    rng = np.random.default_rng(11)
    x = rng.normal(size=(80, 8)) * np.arange(8, 0, -1)
    _, comps, _ = pca_reduce(x, 8)
    peak = np.abs(comps).argmax(axis=1)
    assert (comps[np.arange(8), peak] > 0).all()
    t = rng.normal(size=50)
    _, line, _ = pca_reduce(np.stack([-t, t, np.zeros(50)], axis=1), 1)
    assert line[0, 0] == -line[0, 1] > 0


def test_pca_negated_input():
    # -x has the same covariance bit for bit, so the same components, and
    # exactly negated projections
    rng = np.random.default_rng(12)
    x = rng.normal(size=(40, 6)) * np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.1])
    projected, comps, explained = pca_reduce(x.copy(), 4)  # a float64 argument is centered
    neg_projected, neg_comps, neg_explained = pca_reduce(-x, 4)
    assert neg_comps.tobytes() == comps.tobytes()
    assert neg_explained.tobytes() == explained.tobytes()
    assert (neg_projected == -projected).all()


def test_pca_leaves_its_input_unchanged_and_reads_float32_as_its_upcast():
    # a writeable C-contiguous float64 argument is centered in place and
    # comes back centered; a float32, read-only or strided argument is left
    # unchanged and its float64 copy is centered instead. Every form gives
    # the bytes of the float32 matrix's float64 upcast
    rng = np.random.default_rng(13)
    x32 = (rng.normal(size=(64, 6)) * np.arange(6, 0, -1) + 3.0).astype(np.float32)
    x64 = x32.astype(np.float64)
    frozen = x32.astype(np.float64)
    frozen.setflags(write=False)
    strided = np.repeat(x64, 2, axis=1)[:, ::2]
    before = [a.tobytes() for a in (x32, frozen, strided)]
    want = pca_reduce(x64.copy(), 3)
    for x in (x32, frozen, strided):
        for a, b in zip(pca_reduce(x, 3), want):
            assert a.dtype == b.dtype == np.float64
            assert a.tobytes() == b.tobytes()
    assert [a.tobytes() for a in (x32, frozen, strided)] == before
    centered = x64 - x64.mean(axis=0)
    got = pca_reduce(x64, 3)
    assert x64.tobytes() == centered.tobytes()
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()

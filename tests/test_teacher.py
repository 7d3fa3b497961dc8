import numpy as np
import pytest

import featmim.teacher
from conftest import four_corner_resize, window_conv2d_stride2
from featmim.config import RunConfig
from featmim.errors import ConfigError, DataError
from featmim.synth import synthetic_image
from featmim.teacher import (FileTeacher, ProceduralConvTeacher, TeacherSpec,
                             _conv2d_stride2, align_input, bilinear_resize, check_alignment,
                             dump_features, load_feature_dir, make_teacher)
from featmim.tensor import read_tvec


def test_align_reference_geometry():
    # 224 image, patch 16, downsample 32 -> 448 image giving a 14x14 grid
    img = synthetic_image(224, 3, seed=0)
    out = align_input(img, 16, 32)
    assert out.shape == (3, 448, 448)
    assert 448 // 32 == 224 // 16 == 14


def test_align_identity_factor():
    img = synthetic_image(32, 3, seed=1)
    out = align_input(img, 16, 16)
    assert out is img


def test_align_small_case():
    img = synthetic_image(32, 3, seed=2)
    out = align_input(img, 16, 32)
    assert out.shape == (3, 64, 64)
    teacher = ProceduralConvTeacher(target_dim=8, downsample_rate=32, seed=0)
    feats = teacher.features(out)
    assert isinstance(feats, np.ndarray)
    assert feats.shape == (4, 8)  # 2x2 grid = the student's 4 patches


def test_align_non_integer_factor_rejected():
    # align_input trusts the rule; the run config and dump-features check it
    with pytest.raises(ConfigError, match="grids cannot align"):
        check_alignment(24, 16)
    with pytest.raises(ConfigError, match="grids cannot align"):
        check_alignment(8, 16)  # downsample below patch side
    cfg = RunConfig()
    with pytest.raises(ConfigError, match="teacher.downsample_rate 8 is not divisible by "
                                          "model.patch_side 16"):
        cfg._replace(model=cfg.model._replace(patch_side=16),
                     mask=cfg.mask._replace(patch_side=16)).validate()


def test_alignment_invariant_token_count():
    # teacher K equals student N for every legal (patch, downsample) pair
    for patch, ds in [(4, 4), (4, 8), (8, 8), (8, 16), (16, 32)]:
        side = patch * 4
        img = synthetic_image(side, 3, seed=3)
        aligned = align_input(img, patch, ds)
        teacher = ProceduralConvTeacher(target_dim=4, downsample_rate=ds, seed=0)
        feats = teacher.features(aligned)
        assert len(feats) == (side // patch) ** 2


def test_procedural_determinism_bitwise():
    img = synthetic_image(32, 3, seed=4)
    a = ProceduralConvTeacher(target_dim=16, downsample_rate=8, seed=9).features(img)
    b = ProceduralConvTeacher(target_dim=16, downsample_rate=8, seed=9).features(img)
    assert a.tobytes() == b.tobytes()


def test_frozen_teacher_repeat_extraction():
    teacher = ProceduralConvTeacher(target_dim=16, downsample_rate=8, seed=9)
    img = synthetic_image(32, 3, seed=4)
    first = teacher.features(img).tobytes()
    second = teacher.features(img).tobytes()
    assert first == second


def test_procedural_tokens_finite():
    img = synthetic_image(64, 3, seed=5)
    feats = ProceduralConvTeacher(target_dim=16, downsample_rate=8, seed=0).features(img)
    assert np.isfinite(feats).all()


def test_procedural_seed_changes_features():
    img = synthetic_image(32, 3, seed=4)
    a = ProceduralConvTeacher(target_dim=16, downsample_rate=8, seed=0).features(img)
    b = ProceduralConvTeacher(target_dim=16, downsample_rate=8, seed=1).features(img)
    assert not np.array_equal(a, b)


def _stride2_influence(lo, hi):
    # pixel interval [lo, hi] -> output positions of a 3x3 stride-2 pad-1 conv
    # output o reads inputs 2o-1 .. 2o+1
    out_lo = max(0, -(-(lo - 1) // 2))  # ceil((lo-1)/2)
    out_hi = (hi + 1) // 2
    return out_lo, out_hi


def test_procedural_locality_impulse():
    # an impulse changes only tokens whose receptive field covers it;
    # the oracle composes the stride-2 interval map per stage
    teacher = ProceduralConvTeacher(target_dim=8, downsample_rate=8, seed=2)
    side = 64
    base = synthetic_image(side, 3, seed=6).astype(np.float64)
    bumped = base.copy()
    r, c = 37, 18
    bumped[:, r, c] += 0.5

    fa = teacher.features(base)
    fb = teacher.features(bumped)
    changed = np.flatnonzero(np.any(fa != fb, axis=1))

    row_lo = row_hi = None
    lo, hi = r, r
    for _ in range(3):
        lo, hi = _stride2_influence(lo, hi)
    row_lo, row_hi = lo, hi
    lo, hi = c, c
    for _ in range(3):
        lo, hi = _stride2_influence(lo, hi)
    col_lo, col_hi = lo, hi

    grid = side // 8
    for idx in changed:
        gr, gc = divmod(idx, grid)
        assert row_lo <= gr <= row_hi
        assert col_lo <= gc <= col_hi
    assert len(changed) > 0  # the impulse is visible somewhere


def test_dump_features_counts_and_manifest(tmp_path):
    images = [(f"img{i}", synthetic_image(32, 3, seed=i)) for i in range(8)]
    teacher = ProceduralConvTeacher(target_dim=16, downsample_rate=16, seed=0)
    manifest = dump_features(teacher, images, tmp_path, student_patch_side=16)
    assert len(manifest["entries"]) == 8
    assert all(e["grid_side"] == 2 for e in manifest["entries"])
    files = sorted(p.name for p in tmp_path.glob("*.tvec"))
    assert len(files) == 8
    corpus, offsets = load_feature_dir(tmp_path)
    assert corpus.shape == (32, 16) and corpus.dtype == np.float32
    assert corpus.flags.c_contiguous
    assert offsets == [0, 4, 8, 12, 16, 20, 24, 28, 32]
    for (image_id, _), lo, hi in zip(images, offsets, offsets[1:]):
        assert np.array_equal(corpus[lo:hi], read_tvec(tmp_path / f"{image_id}.tvec"))


def test_dump_empty_set(tmp_path):
    teacher = ProceduralConvTeacher(target_dim=16, downsample_rate=8, seed=0)
    manifest = dump_features(teacher, [], tmp_path, student_patch_side=8)
    assert manifest["entries"] == []
    assert list(tmp_path.glob("*.tvec")) == []


def test_redump_identical_bytes(tmp_path):
    images = [("a", synthetic_image(32, 3, seed=0))]
    da, db = tmp_path / "one", tmp_path / "two"
    for d in (da, db):
        teacher = ProceduralConvTeacher(target_dim=16, downsample_rate=8, seed=3)
        dump_features(teacher, images, d, student_patch_side=8)
    assert (da / "a.tvec").read_bytes() == (db / "a.tvec").read_bytes()
    assert (da / "manifest.json").read_bytes() == (db / "manifest.json").read_bytes()


def test_file_teacher_round_trip(tmp_path):
    images = [("x", synthetic_image(32, 3, seed=7))]
    teacher = ProceduralConvTeacher(target_dim=16, downsample_rate=8, seed=1)
    dump_features(teacher, images, tmp_path, student_patch_side=8)
    aligned = align_input(images[0][1], 8, 8)
    direct = teacher.features(aligned, "x")
    replayed = FileTeacher(tmp_path).features(None, "x")
    assert isinstance(replayed, np.ndarray)
    np.testing.assert_array_equal(replayed, direct.astype(np.float32))
    assert replayed.shape == direct.shape


def test_file_teacher_missing_id(tmp_path):
    teacher = ProceduralConvTeacher(target_dim=8, downsample_rate=8, seed=0)
    dump_features(teacher, [("a", synthetic_image(32, 3, seed=0))], tmp_path, 8)
    ft = FileTeacher(tmp_path)
    with pytest.raises(DataError):
        ft.features(None, "missing")


def test_file_teacher_shape_mismatch(tmp_path):
    from featmim.tensor import write_tvec
    teacher = ProceduralConvTeacher(target_dim=8, downsample_rate=8, seed=0)
    dump_features(teacher, [("a", synthetic_image(32, 3, seed=0))], tmp_path, 8)
    write_tvec(tmp_path / "a.tvec", np.zeros((3, 8), dtype=np.float32))
    with pytest.raises(DataError):
        FileTeacher(tmp_path).features(None, "a")


def test_l2_normalize_flag():
    img = synthetic_image(32, 3, seed=8)
    feats = ProceduralConvTeacher(target_dim=16, downsample_rate=8, seed=0,
                                  l2_normalize=True).features(img)
    np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-6)


@pytest.mark.parametrize("rate,dim", [(2, 1), (4, 16), (8, 16), (16, 128), (64, 6)])
def test_spec_counts_the_weights_the_teacher_draws(monkeypatch, rate, dim):
    # with the bound at the built teacher's own weight count the spec passes,
    # one below it fails: the closed form counts exactly what __init__ draws
    n = sum(w.size + b.size for w, b in ProceduralConvTeacher(dim, rate)._stages)
    spec = TeacherSpec(downsample_rate=rate, target_dim=dim)
    monkeypatch.setattr(featmim.teacher, "MAX_INIT_ELEMENTS", n)
    spec.validate()
    monkeypatch.setattr(featmim.teacher, "MAX_INIT_ELEMENTS", n - 1)
    with pytest.raises(ConfigError, match=f"give the teacher {n:,} weights"):
        spec.validate()


def test_teacher_size_bound():
    # the default teacher and the bench corpus's (rate 16, dim 128: 43,024
    # weights) pass; 2**26 is the bound, shared with the student
    TeacherSpec().validate()
    TeacherSpec(downsample_rate=16, target_dim=128).validate()
    assert sum(w.size + b.size for w, b in ProceduralConvTeacher(128, 16)._stages) == 43_024
    TeacherSpec(downsample_rate=8, target_dim=462_810).validate()  # 67,108,842 weights
    with pytest.raises(ConfigError, match="67,108,987 weights, more than 67,108,864"):
        TeacherSpec(downsample_rate=8, target_dim=462_811).validate()
    for spec in (TeacherSpec(downsample_rate=2**40), TeacherSpec(target_dim=2**40)):
        with pytest.raises(ConfigError, match="more than 67,108,864"):
            make_teacher(spec)


def test_make_teacher_validates_spec():
    with pytest.raises(ConfigError):
        make_teacher(TeacherSpec(kind="procedural-conv", downsample_rate=12))
    with pytest.raises(ConfigError):
        make_teacher(TeacherSpec(kind="file", features_dir=None))
    with pytest.raises(ConfigError):
        make_teacher(TeacherSpec(kind="nonsense"))


def test_bilinear_identity_same_size():
    img = synthetic_image(16, 3, seed=9).astype(np.float64)
    out = bilinear_resize(img, 16, 16)
    np.testing.assert_allclose(out, img, atol=1e-12)


def test_bilinear_preserves_linear_ramp_interior():
    # bilinear interpolation reproduces affine functions away from the
    # clamped border
    h = w = 8
    ramp = (np.arange(w, dtype=np.float64)[None, :] * np.ones((h, 1)))[None]
    out = bilinear_resize(ramp, h * 2, w * 2)
    cols = (np.arange(2 * w) + 0.5) * 0.5 - 0.5
    interior = slice(2, 2 * w - 2)
    np.testing.assert_allclose(out[0, 4, interior], cols[interior], atol=1e-12)


@pytest.mark.parametrize("factor", [2, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels", [1, 3, 8])
def test_bilinear_matches_four_corner_oracle_bitwise(factor, dtype, channels):
    # non-square on purpose: rows and columns get different weights
    img = np.random.default_rng(channels).uniform(size=(channels, 12, 20)).astype(dtype)
    out = bilinear_resize(img, 12 * factor, 20 * factor)
    want = four_corner_resize(img, 12 * factor, 20 * factor)
    assert out.dtype == want.dtype and out.shape == want.shape
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("target_dim,rate,side", [
    (128, 16, 256),  # the 128x128 corpus aligned 2x for 8-pixel patches
    (128, 16, 32),
    (16, 8, 32),  # the default teacher on the default training images
    (16, 8, 64),
    (16, 8, 8),  # down to a 1x1 grid, where every tap but the centre reads padding
])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_stages_match_window_oracle_bitwise(target_dim, rate, side, dtype):
    teacher = ProceduralConvTeacher(target_dim=target_dim, downsample_rate=rate, seed=4)
    x = synthetic_image(side, 3, seed=side).astype(dtype)
    for weight, bias in teacher._stages:
        weight, bias = weight.astype(dtype), bias.astype(dtype)
        want = window_conv2d_stride2(x, weight, bias)
        got = _conv2d_stride2(x, weight, bias)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        x = np.tanh(want)

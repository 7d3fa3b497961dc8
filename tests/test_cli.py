import argparse
import hashlib
import json
import math
import os
import re
import resource
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import DEEP_JSON

import featmim
import featmim.cli
from featmim.cli import build_parser, main
from featmim.config import run_config_from_dict
from featmim.gradcheck import grad_check
from featmim.imageio import read_pnm, write_pgm, write_ppm
from featmim.model import CHECKPOINT_MAGIC, ModelConfig
from featmim.synth import synthetic_image
from featmim.tensor import read_tvec, write_tvec

# the smallest legal geometry: a grad-check on it takes about two seconds
NANO_GRAD_CHECK = {
    "mask": {"image_side": 8, "patch_side": 4, "block_side": 4, "mask_ratio": 0.5, "seed": 1},
    "model": {"patch_side": 4, "embed_dim": 4, "enc_depth": 1, "enc_heads": 2,
              "dec_depth": 1, "dec_width": 4, "dec_heads": 2, "target_dim": 4},
    "teacher": {"downsample_rate": 4, "target_dim": 4, "seed": 2},
}


@pytest.fixture()
def image_dir(tmp_path):
    d = tmp_path / "images"
    d.mkdir()
    for i in range(4):
        write_ppm(d / f"img{i}.ppm", synthetic_image(32, 3, seed=i))
    return d


def write_config(tmp_path, **overrides):
    doc = {
        "train": {"total_epochs": 2.0, "warmup_epochs": 1.0, "base_lr": 0.02,
                  "batch_size": 4, "seed": 0},
    }
    doc.update(overrides)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    return p


def test_pretrain_end_to_end(tmp_path, image_dir):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    code = main(["pretrain", "--config", str(cfg), "--images", str(image_dir),
                 "--out", str(out)])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "ckpt_2.bin").exists()
    assert (out / "config.json").exists()


def test_pretrain_determinism(tmp_path, image_dir):
    cfg = write_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["pretrain", "--config", str(cfg), "--images", str(image_dir),
                     "--out", str(out)]) == 0
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_pretrain_mask_seed_changes_run(tmp_path, image_dir):
    cfg = write_config(tmp_path)
    csvs = []
    for name, seed in (("a", "0"), ("b", "1")):
        out = tmp_path / name
        assert main(["pretrain", "--config", str(cfg), "--images", str(image_dir),
                     "--out", str(out), "--mask-seed", seed]) == 0
        csvs.append((out / "metrics.csv").read_bytes())
    assert csvs[0] != csvs[1]


def test_diverging_run_exits_4_naming_the_step(tmp_path, image_dir, capsys):
    cfg = write_config(tmp_path, train={"base_lr": 1e9, "total_epochs": 3, "warmup_epochs": 0})
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["pretrain", "--config", str(cfg), "--images", str(image_dir),
                     "--out", str(out)])
    assert code == 4
    assert "step 1: non-finite loss" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    rows = (out / "metrics.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["0"]
    assert not list(out.glob("ckpt_*"))


@pytest.mark.parametrize("overflow", [{"base_lr": 1e308}, {"weight_decay": 1e308}],
                         ids=["base_lr", "weight_decay"])
def test_overflowing_update_exits_4_before_it_lands(tmp_path, image_dir, capsys, overflow):
    # the loss and gradient are finite; lr * update, or wd * weight, overflows float32
    cfg = write_config(tmp_path, train={**overflow, "total_epochs": 3, "warmup_epochs": 0,
                                        "checkpoint_interval": 1})
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["pretrain", "--config", str(cfg), "--images", str(image_dir),
                     "--out", str(out)])
    assert code == 4
    assert "step 0: non-finite update in cls_token" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert (out / "metrics.csv").read_text() == "step,epoch,lr,L_patch,L_global,L_total\n"
    assert not list(out.glob("ckpt_*"))


def test_invalid_config_exits_2_without_side_effects(tmp_path, image_dir):
    cfg = write_config(tmp_path, mask={"mask_ratio": 0.99})
    out = tmp_path / "run"
    code = main(["pretrain", "--config", str(cfg), "--images", str(image_dir),
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("model,message", [
    ({"embed_dim": 2**40}, "more than the bound"),
    ({"embed_dim": 0}, "embed_dim, dec_width and target_dim must be positive"),
    ({"dec_width": -4}, "embed_dim, dec_width and target_dim must be positive"),
])
def test_unbuildable_model_exits_2_before_allocating(tmp_path, image_dir, capsys, model,
                                                     message):
    cfg = write_config(tmp_path, model=model)
    out = tmp_path / "run"
    code = main(["pretrain", "--config", str(cfg), "--images", str(image_dir),
                 "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("teacher.downsample_rate", 8.0),
    ("train.batch_size", "8"),
    ("mask.mask_ratio", None),
    ("model.embed_dim", 32.0),
    ("model.use_cls", 1),
    ("train.seed", True),
    ("teacher.features_dir", 5),
    # non-finite floats would train into a NaN checkpoint
    ("train.base_lr", math.inf),
    ("data.norm_std", math.nan),
])
def test_wrongly_typed_config_field_exits_2(tmp_path, image_dir, capsys, field, value):
    section, name = field.split(".")
    cfg = write_config(tmp_path)
    doc = json.loads(cfg.read_text())
    doc.setdefault(section, {})[name] = value
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    code = main(["pretrain", "--config", str(cfg), "--images", str(image_dir),
                 "--out", str(out)])
    assert code == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["norm_mean", "norm_std"])
@pytest.mark.parametrize("length", [0, 2, 4])
def test_norm_list_of_wrong_length_exits_2(tmp_path, image_dir, capsys, field, length):
    # a per-channel list holds one value or one per image channel (3 here)
    cfg = write_config(tmp_path, data={field: [0.5] * length})
    for command in ("pretrain", "dump-features"):
        out = tmp_path / command
        code = main([command, "--config", str(cfg), "--images", str(image_dir),
                     "--out", str(out)])
        assert code == 2, command
        err = capsys.readouterr().err
        assert f"data.{field}" in err and "3-channel" in err
        assert not out.exists()


@pytest.mark.parametrize("data,field", [
    ({"norm_std": 1e-320}, "norm_std"),  # zero in float32
    ({"norm_std": [0.5, 1e-320, 0.5]}, "norm_std"),
    ({"norm_std": 1e-40}, "norm_std"),  # nonzero in float32, but 0.5 / std overflows
    ({"norm_std": 1e300}, "norm_std"),  # inf in float32: all-zero images
    ({"norm_mean": 1e300}, "norm_mean"),  # inf in float32: all-NaN features
], ids=["std_zero", "std_list_zero", "std_tiny", "std_huge", "mean_huge"])
def test_norm_constants_are_checked_in_float32(tmp_path, image_dir, capsys, data, field):
    # normalize computes in float32, so the config is checked in float32
    cfg = write_config(tmp_path, data=data)
    for command in ("pretrain", "dump-features"):
        out = tmp_path / command
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(cfg), "--images", str(image_dir),
                         "--out", str(out)])
        assert code == 2, command
        assert f"config error: data.{field} must be" in capsys.readouterr().err
        assert not caught and not out.exists()


def test_missing_images_exits_3(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["pretrain", "--images", str(empty), "--out", str(tmp_path / "run")])
    assert code == 3


def test_nonexistent_images_dir_exits_3(tmp_path):
    code = main(["pretrain", "--images", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "run")])
    assert code == 3


def test_missing_feature_file_exits_3(tmp_path):
    code = main(["heatmap", "--features", str(tmp_path / "nope.tvec"),
                 "--query", "0", "--out", str(tmp_path / "m.pgm")])
    assert code == 3


def test_dump_features_and_diversity(tmp_path, image_dir):
    feats = tmp_path / "feats"
    code = main(["dump-features", "--images", str(image_dir), "--out", str(feats),
                 "--seed", "7"])
    assert code == 0
    manifest = json.loads((feats / "manifest.json").read_text())
    assert len(manifest["entries"]) == 4

    report_path = tmp_path / "report.json"
    code = main(["diversity", "--features", str(feats), "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["n"] == 4
    assert report["k"] == 16
    assert 0.0 <= report["diver"] <= 1.0
    assert len(report["per_sample"]) == 4


@pytest.mark.parametrize("command", ["diversity", "pretrain"])
def test_a_write_that_fails_with_os_error_exits_3(tmp_path, image_dir, capsys, command):
    # a missing parent directory, and an --out below a plain file; the
    # message names the path asked for, not the temporary file beside it
    if command == "diversity":
        feats = tmp_path / "feats"
        assert main(["dump-features", "--images", str(image_dir), "--out", str(feats)]) == 0
        out = tmp_path / "missing" / "r.json"
        argv = ["diversity", "--features", str(feats), "--out", str(out)]
    else:
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "run"
        argv = ["pretrain", "--images", str(image_dir), "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(out) in err and ".tmp" not in err


def test_dump_features_deterministic(tmp_path, image_dir):
    blobs = []
    for name in ("a", "b"):
        feats = tmp_path / name
        assert main(["dump-features", "--images", str(image_dir), "--out", str(feats),
                     "--seed", "3"]) == 0
        blobs.append((feats / "img0.tvec").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--teacher", "procedural"],
                                  ["--downsample", "32"], ["--target-dim", "8"],
                                  ["--patch-side", "4"], ["--l2-normalize"]],
                         ids=lambda f: f[0])
def test_dump_features_teacher_flag_with_config_exits_2(tmp_path, image_dir, capsys, flag):
    cfg = write_config(tmp_path)
    feats = tmp_path / "feats"
    code = main(["dump-features", "--config", str(cfg), "--images", str(image_dir),
                 "--out", str(feats)] + flag)
    assert code == 2
    assert flag[0] in capsys.readouterr().err
    assert not feats.exists()


def test_dump_features_config_alone(tmp_path, image_dir):
    feats = tmp_path / "feats"
    assert main(["dump-features", "--config", str(write_config(tmp_path)),
                 "--images", str(image_dir), "--out", str(feats)]) == 0
    assert len(json.loads((feats / "manifest.json").read_text())["entries"]) == 4


@pytest.mark.parametrize("side", ["0", "-8", "3"])
def test_dump_features_bad_patch_side_exits_2(tmp_path, image_dir, capsys, side):
    # below 1, or not dividing --downsample: refused before --out is made
    feats = tmp_path / "feats"
    assert main(["dump-features", "--images", str(image_dir), "--out", str(feats),
                 "--patch-side", side]) == 2
    assert "--patch-side" in capsys.readouterr().err
    assert not feats.exists()


def test_dump_features_non_square_image_exits_3(tmp_path, image_dir, capsys):
    # the square images come first: none of them is written either
    write_ppm(image_dir / "wide.ppm", synthetic_image(32, 3, seed=9)[:, :, :16])
    feats = tmp_path / "feats"
    assert main(["dump-features", "--images", str(image_dir), "--out", str(feats)]) == 3
    assert "'wide'" in capsys.readouterr().err
    assert not feats.exists()


def test_dump_features_side_not_divisible_by_downsample_exits_3(tmp_path, image_dir, capsys):
    # 36 is not a multiple of the default --downsample 8: the image is named,
    # and the images that do fit are not written either
    write_ppm(image_dir / "odd.ppm", synthetic_image(36, 3, seed=9))
    feats = tmp_path / "feats"
    assert main(["dump-features", "--images", str(image_dir), "--out", str(feats)]) == 3
    assert "'odd' is 36x36" in capsys.readouterr().err
    assert not feats.exists()


@pytest.mark.parametrize("flags,config,name", [
    (["--downsample", "3"], None, "--downsample"),
    (["--downsample", "0"], None, "--downsample"),
    (["--target-dim", "0"], None, "--target-dim"),
    ([], {"downsample_rate": 3}, "procedural teacher downsample_rate"),
    ([], {"target_dim": 0}, "target_dim"),
], ids=["downsample_3", "downsample_0", "target_dim_0", "config_downsample_rate",
        "config_target_dim"])
def test_dump_features_bad_teacher_value_names_its_source(tmp_path, image_dir, capsys,
                                                          flags, config, name):
    # a bad flag is named as the flag; with --config, as the config field
    argv = ["dump-features", "--images", str(image_dir), "--out", str(tmp_path / "feats")]
    if config is not None:
        argv += ["--config", str(write_config(tmp_path, teacher=config))]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert f"config error: {name} must be" in err
    assert ("--" in err) == (config is None)
    assert not (tmp_path / "feats").exists()


def _file_teacher_config(tmp_path, feats):
    """A one-epoch pretrain config whose teacher replays the dump feats."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"teacher": {"kind": "file", "features_dir": str(feats)},
                               "train": {"total_epochs": 1.0, "warmup_epochs": 0.5}}))
    return cfg


def test_feature_manifest_target_dim_string_exits_3(tmp_path, image_dir, capsys):
    feats = tmp_path / "feats"
    assert main(["dump-features", "--images", str(image_dir), "--out", str(feats)]) == 0
    manifest = json.loads((feats / "manifest.json").read_text())
    (feats / "manifest.json").write_text(json.dumps({**manifest, "target_dim": "16"}))
    want = f"{feats / 'manifest.json'}: target_dim '16' is not a positive integer"
    assert main(["diversity", "--features", str(feats), "--out", str(tmp_path / "r.json")]) == 3
    assert want in capsys.readouterr().err
    assert main(["pretrain", "--config", str(_file_teacher_config(tmp_path, feats)),
                 "--images", str(image_dir), "--out", str(tmp_path / "run")]) == 3
    assert want in capsys.readouterr().err
    assert not (tmp_path / "run").exists()  # not even config.json is written


def test_deeply_nested_config_exits_2(tmp_path, image_dir, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "run"
    cfg.write_bytes(DEEP_JSON)
    assert main(["pretrain", "--config", str(cfg), "--images", str(image_dir),
                 "--out", str(out)]) == 2
    assert f"config {cfg} is not valid JSON: maximum recursion depth" in capsys.readouterr().err
    assert not out.exists()


def test_deeply_nested_feature_manifest_exits_3(tmp_path, image_dir, capsys):
    # read by diversity and by a file teacher alike
    feats = tmp_path / "feats"
    feats.mkdir()
    (feats / "manifest.json").write_bytes(DEEP_JSON)
    want = f"{feats / 'manifest.json'}: not JSON: maximum recursion depth"
    assert main(["diversity", "--features", str(feats), "--out", str(tmp_path / "r.json")]) == 3
    assert want in capsys.readouterr().err
    assert main(["pretrain", "--config", str(_file_teacher_config(tmp_path, feats)),
                 "--images", str(image_dir), "--out", str(tmp_path / "run")]) == 3
    assert want in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


GOOD_ENTRY = {"id": "a", "grid_side": 2}


@pytest.mark.parametrize("manifest", [
    "{not json",
    "[]",
    json.dumps({"entries": [GOOD_ENTRY]}),
    json.dumps({"target_dim": 4}),
    json.dumps({"target_dim": 4, "entries": [{"grid_side": 2}]}),
    json.dumps({"target_dim": 4, "entries": [{"id": "a"}]}),
    json.dumps({"target_dim": 4, "entries": [{"id": "../c", "grid_side": 2}]}),
    json.dumps({"target_dim": 4, "entries": [{"id": "a/b", "grid_side": 2}]}),
    json.dumps({"target_dim": 4, "entries": [{"id": "TMP/c", "grid_side": 2}]}),
    json.dumps({"target_dim": 4, "entries": [{"id": "a", "grid_side": "2"}]}),
], ids=["not_json", "not_object", "no_target_dim", "no_entries", "entry_no_id",
        "entry_no_grid_side", "id_parent", "id_subdir", "id_absolute", "grid_side_string"])
def test_malformed_feature_manifest_exits_3(tmp_path, manifest):
    # every file a bad id could name exists, so only the id check can refuse it
    feats = tmp_path / "feats"
    (feats / "a").mkdir(parents=True)
    (feats / "manifest.json").write_text(manifest.replace("TMP", str(tmp_path)))
    for path in (feats / "a.tvec", feats / "a" / "b.tvec", tmp_path / "c.tvec"):
        write_tvec(path, np.ones((4, 4), dtype=np.float32))
    assert main(["diversity", "--features", str(feats), "--out", str(tmp_path / "r.json")]) == 3
    assert main(["pca", "--features", str(feats), "--components", "2",
                 "--out", str(tmp_path / "p.tvec")]) == 3


def test_empty_feature_dump_exits_3(tmp_path, capsys):
    # a dump with no entries is a data error for diversity and pca alike
    feats = tmp_path / "feats"
    feats.mkdir()
    (feats / "manifest.json").write_text(json.dumps({"target_dim": 4, "entries": []}))
    assert main(["diversity", "--features", str(feats), "--out", str(tmp_path / "r.json")]) == 3
    assert str(feats) in capsys.readouterr().err
    assert main(["pca", "--features", str(feats), "--components", "2",
                 "--out", str(tmp_path / "p.tvec")]) == 3
    assert str(feats) in capsys.readouterr().err


@pytest.mark.parametrize("token_counts", [(4, 9), (1, 1)],
                         ids=["mixed_token_counts", "single_token"])
def test_diversity_bad_corpus_exits_3(tmp_path, capsys, token_counts):
    feats = tmp_path / "feats"
    feats.mkdir()
    entries = []
    for i, k in enumerate(token_counts):
        write_tvec(feats / f"s{i}.tvec", np.eye(k, 4, dtype=np.float32) + 1.0)
        entries.append({"id": f"s{i}", "grid_side": math.isqrt(k)})
    (feats / "manifest.json").write_text(json.dumps({"target_dim": 4, "entries": entries}))
    out = tmp_path / "r.json"
    assert main(["diversity", "--features", str(feats), "--out", str(out)]) == 3
    assert str(feats) in capsys.readouterr().err
    assert not out.exists()


def _feature_dir(feats, samples, grids=None):
    """A dump of the [K, D] float32 samples s0, s1, ... with its manifest."""
    feats.mkdir()
    for i, tokens in enumerate(samples):
        write_tvec(feats / f"s{i}.tvec", tokens)
    grids = grids or [math.isqrt(len(t)) for t in samples]
    entries = [{"id": f"s{i}", "grid_side": g} for i, g in enumerate(grids)]
    (feats / "manifest.json").write_text(json.dumps(
        {"target_dim": samples[0].shape[1], "entries": entries}))


GOOD = np.arange(16, dtype=np.float32).reshape(4, 4) + 1.0
NAN = np.where(GOOD == 5.0, np.nan, GOOD).astype(np.float32)


@pytest.mark.parametrize("samples,grids,damage,want", [
    ([GOOD, np.ones((9, 4), np.float32)], [2, 2], None,
     "feature file for 's1' has shape (9, 4), expected (4, 4)"),
    ([GOOD, np.ones((1, 4), np.float32)], [2, 2], None,
     "feature file for 's1' has shape (1, 4), expected (4, 4)"),
    ([GOOD, GOOD], [2, 2**40], None,
     f"feature file for 's1' has shape (4, 4), expected ({2**80}, 4)"),
    ([GOOD, NAN], None, None, "feature file for 's1' contains non-finite values"),
    ([NAN, GOOD], [2, 2**40], None, "feature file for 's0' contains non-finite values"),
    ([GOOD, GOOD], None, "delete", "cannot read tensor file FEATS/s1.tvec: "),
    ([GOOD, GOOD], None, "truncate", "FEATS/s1.tvec: payload holds 60 bytes, expected 64"),
], ids=["more_tokens", "fewer_tokens", "huge_grid_side", "non_finite",
        "first_bad_file_first", "missing_file", "truncated_file"])
def test_bad_feature_file_exits_3_with_its_message(tmp_path, capsys, samples, grids, damage,
                                                   want):
    # the corpus matrix is sized from the manifest, yet each file's own
    # check still speaks first, in manifest order, for diversity and pca alike
    feats = tmp_path / "feats"
    _feature_dir(feats, samples, grids)
    s1 = feats / "s1.tvec"
    if damage == "delete":
        s1.unlink()
    elif damage == "truncate":
        s1.write_bytes(s1.read_bytes()[:-4])
    want = want.replace("FEATS", str(feats))
    for argv in (["diversity", "--out", str(tmp_path / "r.json")],
                 ["pca", "--components", "2", "--out", str(tmp_path / "p.tvec")]):
        assert main(argv + ["--features", str(feats)]) == 3, argv[0]
        assert want in capsys.readouterr().err, argv[0]
    assert list(tmp_path.iterdir()) == [feats]


def test_mixed_channel_images_exit_3(tmp_path, capsys):
    # one PPM and one PGM: a data error before anything is written
    images = tmp_path / "images"
    images.mkdir()
    write_ppm(images / "a.ppm", synthetic_image(32, 3, seed=0))
    write_pgm(images / "b.pgm", synthetic_image(32, 1, seed=1)[0])
    run, feats = tmp_path / "run", tmp_path / "feats"
    assert main(["pretrain", "--images", str(images), "--out", str(run)]) == 3
    assert "channel count" in capsys.readouterr().err
    assert not run.exists()
    assert main(["dump-features", "--images", str(images), "--out", str(feats)]) == 3
    assert not feats.exists()
    # a per-channel norm list fits only the PPM, yet the mix is still the error
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"data": {"norm_mean": [0.5, 0.5, 0.5]}}))
    assert main(["pretrain", "--config", str(config), "--images", str(images),
                 "--out", str(run)]) == 3
    assert "channel count" in capsys.readouterr().err


def test_two_image_files_with_one_id_exit_3(tmp_path, image_dir, capsys):
    # a.ppm and a.PPM would both be image id "a": a data error naming both
    # files, before dump-features or pretrain creates --out
    write_ppm(image_dir / "img1.PPM", synthetic_image(32, 3, seed=9))
    want = (f"images {image_dir / 'img1.PPM'} and {image_dir / 'img1.ppm'} "
            "both map to image id 'img1'")
    for argv in (["dump-features"], ["pretrain"]):
        out = tmp_path / "out"
        assert main(argv + ["--images", str(image_dir), "--out", str(out)]) == 3
        assert want in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["dump-features", "pretrain"])
def test_out_that_is_a_file_exits_3_naming_it(tmp_path, image_dir, capsys, command):
    # worded like write_atomic's failures, not os.makedirs' "[Errno 17] ..."
    out = tmp_path / "out"
    out.write_text("a file")
    assert main([command, "--images", str(image_dir), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"data error: cannot create output directory {out}: File exists\n")
    assert out.read_text() == "a file"


@pytest.mark.parametrize("blob,want", [
    (b"P3\n1 1\n255\n0", "{path}: not a binary PGM (P5) or PPM (P6) file"),
    (b"P6\n2 2\n255\n" + bytes(5), "{path}: payload holds 5 bytes, expected 12"),
], ids=["bad_magic", "short_payload"])
def test_dump_features_bad_last_image_exits_3_and_writes_nothing(tmp_path, image_dir, capsys,
                                                                 blob, want):
    # the magic is checked for every file before any pixel is read; a short
    # payload is found only when the stream reaches the last image, after
    # the others were extracted, and still nothing is written
    path = image_dir / "zz.ppm"
    path.write_bytes(blob)
    feats = tmp_path / "feats"
    assert main(["dump-features", "--images", str(image_dir), "--out", str(feats)]) == 3
    assert capsys.readouterr().err == f"data error: {want.format(path=path)}\n"
    assert not feats.exists()


def test_feature_manifest_listing_an_id_twice_exits_3(tmp_path, image_dir, capsys):
    # diversity would count the sample twice, and pretrain would map one
    # image id to either entry
    feats = tmp_path / "feats"
    assert main(["dump-features", "--images", str(image_dir), "--out", str(feats)]) == 0
    manifest = json.loads((feats / "manifest.json").read_text())
    manifest["entries"].append(manifest["entries"][2])
    (feats / "manifest.json").write_text(json.dumps(manifest))
    want = f"{feats / 'manifest.json'}: feature id 'img2' is listed twice"
    out = tmp_path / "r.json"
    assert main(["diversity", "--features", str(feats), "--out", str(out)]) == 3
    assert want in capsys.readouterr().err
    assert not out.exists()
    assert main(["pretrain", "--config", str(_file_teacher_config(tmp_path, feats)),
                 "--images", str(image_dir), "--out", str(tmp_path / "run")]) == 3
    assert want in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("mixed", [False, True], ids=["every_image", "one_image"])
def test_teacher_grid_that_misses_the_patch_grid_exits_3(tmp_path, image_dir, capsys, mixed):
    # --patch-side 4 gives 64 tokens per 32x32 image, whose default student
    # grid has 16 patches: a data error naming the image, before --out exists
    fine, coarse = tmp_path / "fine", tmp_path / "coarse"
    assert main(["dump-features", "--images", str(image_dir), "--out", str(fine),
                 "--patch-side", "4"]) == 0
    feats, bad = fine, "img0"
    if mixed:  # the default 16-token dump with img1's 64 tokens swapped in
        assert main(["dump-features", "--images", str(image_dir), "--out", str(coarse)]) == 0
        os.replace(fine / "img1.tvec", coarse / "img1.tvec")
        manifest = json.loads((coarse / "manifest.json").read_text())
        manifest["entries"][1]["grid_side"] = 8
        (coarse / "manifest.json").write_text(json.dumps(manifest))
        feats, bad = coarse, "img1"
    capsys.readouterr()
    run = tmp_path / "run"
    assert main(["pretrain", "--config", str(_file_teacher_config(tmp_path, feats)),
                 "--images", str(image_dir), "--out", str(run)]) == 3
    assert (f"teacher gives 64 tokens for image {bad!r}, which has 16 student patches"
            in capsys.readouterr().err)
    assert not run.exists()


def test_zero_step_run_exits_2_writing_nothing(tmp_path, capsys):
    images = tmp_path / "images"
    images.mkdir()
    write_ppm(images / "img0.ppm", synthetic_image(32, 3, seed=0))
    cfg = write_config(tmp_path, train={"total_epochs": 0.2, "warmup_epochs": 0.1})
    out = tmp_path / "run"
    assert main(["pretrain", "--config", str(cfg), "--images", str(images),
                 "--out", str(out)]) == 2
    assert "yields zero optimizer steps" in capsys.readouterr().err
    assert not out.exists()


def test_zero_step_run_exits_2_before_reading_features(tmp_path, image_dir, capsys):
    # the step count is checked before the teacher is built: a file teacher
    # with no dump at all does not turn a zero-step run into a data error
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "train": {"total_epochs": 0.1, "warmup_epochs": 0.05, "batch_size": 8},
        "teacher": {"kind": "file", "features_dir": str(tmp_path / "no_dump")}}))
    out = tmp_path / "run"
    assert main(["pretrain", "--config", str(cfg), "--images", str(image_dir),
                 "--out", str(out)]) == 2
    assert "yields zero optimizer steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, field, value", [
    ("file", "downsample_rate", 32), ("file", "target_dim", 99), ("file", "seed", 7),
    ("file", "l2_normalize", True), ("procedural-conv", "features_dir", "feats"),
])
def test_teacher_field_its_kind_ignores_exits_2(tmp_path, image_dir, capsys, kind, field, value):
    # a file teacher reads no procedural field and a procedural teacher no
    # features_dir: setting one would change nothing, so it is refused
    cfg = write_config(tmp_path, teacher={"kind": kind, "features_dir": "feats", field: value})
    out = tmp_path / "run"
    assert main(["pretrain", "--config", str(cfg), "--images", str(image_dir),
                 "--out", str(out)]) == 2
    assert f"a {kind} teacher reads no teacher.{field}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,names", [
    (["dump-features", "--downsample", str(2**40)], ("--downsample", "--target-dim")),
    (["dump-features", "--target-dim", str(2**40)], ("--downsample", "--target-dim")),
    (["pretrain", "--config", {"teacher": {"downsample_rate": 2**40}}],
     ("procedural teacher downsample_rate", "target_dim")),
    (["dump-features", "--config", {"teacher": {"target_dim": 2**40}}],
     ("procedural teacher downsample_rate", "target_dim")),
], ids=["downsample_flag", "target_dim_flag", "pretrain_config", "dump_features_config"])
def test_oversized_teacher_exits_2_before_allocating(tmp_path, image_dir, capsys, argv, names):
    # the teacher's conv weights are counted before any is drawn; past
    # model.MAX_INIT_ELEMENTS the run ends with exit 2, naming its source
    argv = [str(write_config(tmp_path, **a)) if isinstance(a, dict) else a for a in argv]
    out = tmp_path / "out"
    assert main(argv + ["--images", str(image_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "weights, more than 67,108,864" in err
    assert err.startswith(f"config error: {names[0]} ") and f" and {names[1]} " in err
    assert not out.exists()


def test_grad_check_file_teacher_grid_mismatch_exits_3(tmp_path, capsys):
    # NANO_GRAD_CHECK's 8x8 image has 4 patches; a dump at --patch-side 2
    # holds 16 tokens for it
    images, feats = tmp_path / "images", tmp_path / "feats"
    images.mkdir()
    write_ppm(images / "gradcheck.ppm", synthetic_image(8, 3, seed=0))
    assert main(["dump-features", "--images", str(images), "--out", str(feats),
                 "--downsample", "4", "--patch-side", "2", "--target-dim", "4"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(NANO_GRAD_CHECK,
                                   teacher={"kind": "file", "features_dir": str(feats)})))
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert main(["grad-check", "--config", str(cfg), "--out", str(report)]) == 3
    assert ("teacher gives 16 tokens for image 'gradcheck', which has 4 student patches"
            in capsys.readouterr().err)
    assert not report.exists()


def test_heatmap_command(tmp_path, image_dir):
    feats = tmp_path / "feats"
    assert main(["dump-features", "--images", str(image_dir), "--out", str(feats)]) == 0
    out = tmp_path / "map.pgm"
    code = main(["heatmap", "--features", str(feats / "img0.tvec"),
                 "--query", "5", "--out", str(out)])
    assert code == 0
    img = read_pnm(out)
    assert img.shape == (1, 4, 4)
    sidecar = json.loads((tmp_path / "map.pgm.json").read_text())
    assert sidecar["query_index"] == 5


def test_heatmap_zero_norm_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.tvec"
    tokens = np.ones((4, 3), dtype=np.float32)
    tokens[2] = 0.0
    write_tvec(bad, tokens)
    code = main(["heatmap", "--features", str(bad), "--query", "0",
                 "--out", str(tmp_path / "m.pgm")])
    assert code == 4
    assert (f"numeric error: {bad}: cosine similarity undefined for a zero-norm token (row 2)"
            in capsys.readouterr().err)
    assert not (tmp_path / "m.pgm").exists()


def test_diversity_zero_norm_exits_4_naming_the_sample_and_row(tmp_path, capsys):
    feats, out = tmp_path / "feats", tmp_path / "r.json"
    feats.mkdir()
    for i in range(3):
        tokens = np.ones((4, 3), dtype=np.float32)
        tokens[3, :] = 0.0 if i == 1 else 2.0
        write_tvec(feats / f"s{i}.tvec", tokens)
    entries = [{"id": f"s{i}", "grid_side": 2} for i in range(3)]
    (feats / "manifest.json").write_text(json.dumps({"target_dim": 3, "entries": entries}))
    assert main(["diversity", "--features", str(feats), "--out", str(out)]) == 4
    assert (f"numeric error: {feats}: sample 1: cosine similarity undefined for a zero-norm "
            "token (row 3)" in capsys.readouterr().err)
    assert not out.exists()


def test_heatmap_non_square_exits_3(tmp_path):
    bad = tmp_path / "bad.tvec"
    write_tvec(bad, np.ones((3, 2), dtype=np.float32))
    code = main(["heatmap", "--features", str(bad), "--query", "0",
                 "--out", str(tmp_path / "m.pgm")])
    assert code == 3


def test_heatmap_empty_token_file_exits_3(tmp_path, capsys):
    empty = tmp_path / "empty.tvec"
    write_tvec(empty, np.zeros((0, 8), dtype=np.float32))
    out = tmp_path / "m.pgm"
    code = main(["heatmap", "--features", str(empty), "--query", "0", "--out", str(out)])
    assert code == 3
    assert str(empty) in capsys.readouterr().err
    assert not out.exists()


def test_heatmap_overflowing_extents_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.tvec"
    bad.write_bytes(b"TVEC" + struct.pack("<BBBQQ", 1, 0, 2, 2**62, 4))
    out = tmp_path / "m.pgm"
    code = main(["heatmap", "--features", str(bad), "--query", "0", "--out", str(out)])
    assert code == 3
    assert str(bad) in capsys.readouterr().err
    assert not out.exists()


def test_heatmap_non_finite_tokens_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.tvec"
    tokens = np.ones((16, 8), dtype=np.float32)
    tokens[3, 2] = np.nan
    write_tvec(bad, tokens)
    out = tmp_path / "m.pgm"
    code = main(["heatmap", "--features", str(bad), "--query", "0", "--out", str(out)])
    assert code == 3
    assert str(bad) in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "m.pgm.json").exists()


def test_pca_command(tmp_path, image_dir):
    feats = tmp_path / "feats"
    assert main(["dump-features", "--images", str(image_dir), "--out", str(feats)]) == 0
    out = tmp_path / "emb.tvec"
    code = main(["pca", "--features", str(feats), "--components", "4",
                 "--out", str(out)])
    assert code == 0
    emb = read_tvec(out)
    assert emb.shape == (4 * 16, 4)
    meta = json.loads((tmp_path / "emb.tvec.json").read_text())
    assert len(meta["explained_variance"]) == 4


def test_pca_outputs_byte_identical_across_runs(tmp_path, image_dir):
    feats = tmp_path / "feats"
    assert main(["dump-features", "--images", str(image_dir), "--out", str(feats)]) == 0
    for name in ("a", "b"):
        assert main(["pca", "--features", str(feats), "--components", "4",
                     "--out", str(tmp_path / f"{name}.tvec")]) == 0
    for suffix in (".tvec", ".tvec.json"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_pca_holds_the_corpus_once_as_float32_and_once_as_float64(tmp_path):
    # tracemalloc sees numpy's buffers: the float32 corpus plus pca_reduce's
    # one float64 copy is 12 bytes per element; a stacked copy or a second
    # float64 array (20 bytes per element) overruns 14 plus the allowance,
    # which covers the projection, the covariance and the files being read
    rng = np.random.default_rng(0)
    feats = tmp_path / "feats"
    _feature_dir(feats, [rng.normal(size=(256, 64)).astype(np.float32) for _ in range(8)])
    argv = ["pca", "--features", str(feats), "--components", "4",
            "--out", str(tmp_path / "p.tvec")]
    assert main(argv) == 0  # first-call imports and caches stay out of the trace
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elements = 8 * 256 * 64
    assert peak < 14 * elements + 256 * 1024, f"{peak / elements:.2f} bytes per element"


def _traced_peak(argv):
    """tracemalloc's peak over a second main(argv); the first call's imports
    and caches stay out of the trace."""
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pca_holds_one_float64_corpus(tmp_path):
    # the float64 matrix is filled straight from the files and centered in
    # place: 8 bytes per element plus the projection, one file's float32
    # tokens and a 128 KiB allowance (the covariance, the finiteness masks);
    # a float32 corpus beside it (12 bytes per element) overruns this
    rng = np.random.default_rng(0)
    feats = tmp_path / "feats"
    _feature_dir(feats, [rng.normal(size=(256, 64)).astype(np.float32) for _ in range(8)])
    peak = _traced_peak(["pca", "--features", str(feats), "--components", "4",
                         "--out", str(tmp_path / "p.tvec")])
    elements = 8 * 256 * 64
    projection, one_file = 8 * 256 * 4 * 8, 256 * 64 * 4
    assert peak < 8 * elements + projection + one_file + 128 * 1024, \
        f"{peak / elements:.2f} bytes per element"


def test_dump_features_holds_its_tokens_and_one_image(tmp_path):
    # images are read, extracted and dropped one at a time: the peak is the
    # tokens plus one image's working set (its file, float32 copies and the
    # teacher's im2col buffers), within 12 image sizes; the 48 images held
    # at once would be 48
    images = tmp_path / "images"
    images.mkdir()
    for i in range(48):
        write_ppm(images / f"img{i:02d}.ppm", synthetic_image(64, 3, seed=i))
    peak = _traced_peak(["dump-features", "--images", str(images), "--out", str(tmp_path / "f")])
    tokens, image = 48 * 8 * 8 * 16 * 4, 3 * 64 * 64 * 4
    assert peak < tokens + 12 * image, f"{(peak - tokens) / image:.1f} images beyond the tokens"


# sha256 of every file that dump-features, diversity, pca and heatmap write
# for the test below: six 64-px synthetic images, a 16x downsampling teacher of
# width 32 aligned to 8-px patches (an 8x8 token grid), 4 components, query 5
ANALYSIS_PINS = {
    "feats/manifest.json": "ecfd0b7a3d42408a8b9c074c0dcf25c9b715498d2eb4c05f5cc4185102f0f03e",
    "feats/img0.tvec": "6c223fdb329d0f7ae46c38252bf9900ff1e34f74b498730dda23039a46e14d03",
    "feats/img1.tvec": "c1a376979dbeb469d2b2a72c2d6e6bc24b21d5f3a8d40ab68ca9b1a674d4011e",
    "feats/img2.tvec": "d6584c6031ef8ed9e3bd0cf69d02219b050d0061e43d8c410c28ddb127ded952",
    "feats/img3.tvec": "a13e146da49d66eddf511762ea0d449a394e54531f0849c4be6e743c31dcdebe",
    "feats/img4.tvec": "29cc94b7b10b938c8a7c0d20f16a76f3789a05dcda8457e1b606677b969b05ed",
    "feats/img5.tvec": "86848afa967f9887eff13a5e17525bd65940578bd594c8c559fb6164408867a4",
    "diversity.json": "3a5e6731875371279f8ec6e3737efe00aa778f1a57d545537f2dd775526ed424",
    "pca.tvec": "aaaa4800b0b1cfe4361c4ce69c4bc2bf1ddb7866e079d9bc910ee331f42e3c2d",
    "pca.tvec.json": "e27de5205c4872d8995627f431ec6eaae7d801b2ad5d8e280d38b9a7e30e611e",
    "heatmap.pgm": "79c14f68f063bca1c8c1ff8183948cf6ce0582d313edf1168eb3b0dd9c2199ad",
    "heatmap.pgm.json": "16ad0418520ef943db56fa207e6758cca315a34ca452c624e27b693c7489b5f0",
}


def test_analysis_commands_write_the_pinned_bytes(tmp_path):
    images = tmp_path / "images"
    images.mkdir()
    for i in range(6):
        write_ppm(images / f"img{i}.ppm", synthetic_image(64, 3, seed=i))
    feats = tmp_path / "feats"
    for argv in (
            ["dump-features", "--images", str(images), "--out", str(feats),
             "--downsample", "16", "--target-dim", "32", "--patch-side", "8"],
            ["diversity", "--features", str(feats), "--out", str(tmp_path / "diversity.json")],
            ["pca", "--features", str(feats), "--components", "4",
             "--out", str(tmp_path / "pca.tvec")],
            ["heatmap", "--features", str(feats / "img0.tvec"), "--query", "5",
             "--out", str(tmp_path / "heatmap.pgm")]):
        assert main(argv) == 0, argv[0]
    written = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
               if p.is_file() and p.parent != images}
    assert written == set(ANALYSIS_PINS)
    for name, want in ANALYSIS_PINS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


def test_pca_bad_components_exits_2(tmp_path, image_dir):
    feats = tmp_path / "feats"
    assert main(["dump-features", "--images", str(image_dir), "--out", str(feats)]) == 0
    code = main(["pca", "--features", str(feats), "--components", "999",
                 "--out", str(tmp_path / "emb.tvec")])
    assert code == 2


def test_grad_check_command(default_grad_check):
    code, blob, _ = default_grad_check
    assert code == 0
    report = json.loads(blob)
    assert report["max_rel_err"] < 1e-4
    assert report["n_parameters"] > 0
    assert (hashlib.sha256(blob).hexdigest()
            == "d5c5434e473d89126308336195621aed07c448c55122161c30d138a7d7cf6a11")


def test_grad_check_seed_flag(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(NANO_GRAD_CHECK))
    report_path = tmp_path / "report.json"
    assert main(["grad-check", "--config", str(cfg_path), "--seed", "3",
                 "--out", str(report_path)]) == 0
    cfg = run_config_from_dict(NANO_GRAD_CHECK)
    direct = grad_check(cfg._replace(train=cfg.train._replace(seed=3)))
    assert json.loads(report_path.read_text()) == direct


def test_grad_check_fails_with_exit_4_on_a_corrupted_backward(tmp_path, monkeypatch, capsys):
    # a 5% error planted in one analytic derivative is far above the default tolerance
    true_grad = featmim.tensor.gelu_grad
    monkeypatch.setattr(featmim.tensor, "gelu_grad", lambda x, t: 1.05 * true_grad(x, t))
    cfg_path, report_path = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg_path.write_text(json.dumps(NANO_GRAD_CHECK))
    assert main(["grad-check", "--config", str(cfg_path), "--out", str(report_path)]) == 4
    assert capsys.readouterr().out.startswith("grad-check: FAIL max rel err ")
    assert json.loads(report_path.read_text())["max_rel_err"] > 1e-4


def test_grad_check_file_teacher_width_mismatch_exits_2(tmp_path, capsys):
    # a dump 8 wide for NANO_GRAD_CHECK's model of target_dim 4: grad-check
    # names both widths, as pretrain does, before any loss runs
    images, feats = tmp_path / "images", tmp_path / "feats"
    images.mkdir()
    write_ppm(images / "gradcheck.ppm", synthetic_image(8, 3, seed=0))
    assert main(["dump-features", "--images", str(images), "--out", str(feats),
                 "--downsample", "4", "--patch-side", "4", "--target-dim", "8"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(NANO_GRAD_CHECK,
                                   teacher={"kind": "file", "features_dir": str(feats)})))
    capsys.readouterr()
    report, run = tmp_path / "report.json", tmp_path / "run"
    for argv in (["grad-check", "--out", str(report)],
                 ["pretrain", "--images", str(images), "--out", str(run)]):
        assert main(argv + ["--config", str(cfg)]) == 2
        assert "config error: teacher target_dim 8 != model target_dim 4" in capsys.readouterr().err
    assert not report.exists() and not run.exists()


def test_grad_check_with_file_teacher(tmp_path):
    # the check replays the dumped tokens stored under the id "gradcheck"
    doc = dict(NANO_GRAD_CHECK, teacher={"kind": "file", "features_dir": str(tmp_path / "feats")})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    for name, code in (("other", 3), ("gradcheck", 0)):
        images = tmp_path / name
        images.mkdir()
        write_ppm(images / f"{name}.ppm", synthetic_image(8, 3, seed=0))
        assert main(["dump-features", "--images", str(images), "--out", str(tmp_path / "feats"),
                     "--downsample", "4", "--patch-side", "4", "--target-dim", "4"]) == 0
        assert main(["grad-check", "--config", str(cfg_path)]) == code


def test_config_flags_only_where_read(tmp_path):
    for argv in (["diversity", "--features", "f", "--out", "o"],
                 ["heatmap", "--features", "f.tvec", "--query", "0", "--out", "o"],
                 ["pca", "--features", "f", "--components", "2", "--out", "o"]):
        for flag in (["--config", str(tmp_path / "nope.json")], ["--seed", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + flag)
            assert exc.value.code == 2


@pytest.mark.parametrize("command,flags,config,field", [
    ("pretrain", ["--seed", "-3"], None, "train.seed"),
    ("pretrain", [], {"train": {"seed": -1}}, "train.seed"),
    ("pretrain", [], {"teacher": {"seed": -1}}, "teacher.seed"),
    ("grad-check", ["--seed", "-2"], None, "train.seed"),
    ("dump-features", ["--seed", "-1"], None, "teacher.seed"),
    ("pretrain", ["--mask-seed", "-1"], None, "mask.seed"),
])
def test_negative_seed_exits_2_writing_nothing(tmp_path, image_dir, capsys, command, flags,
                                               config, field):
    out = tmp_path / "out"
    argv = [command, *flags, "--out", str(out)]
    if command != "grad-check":
        argv += ["--images", str(image_dir)]
    if config is not None:
        argv += ["--config", str(write_config(tmp_path, **config))]
    assert main(argv) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--h", "--tolerance"])
@pytest.mark.parametrize("value", ["0", "-1e-5", "nan", "inf"])
def test_grad_check_step_and_tolerance_must_be_finite_and_positive(tmp_path, capsys,
                                                                   flag, value):
    out = tmp_path / "report.json"
    assert main(["grad-check", f"{flag}={value}", "--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def _commands_and_options():
    """build_parser()'s subcommands, in order, each with its option actions."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: p._option_string_actions for name, p in sub.choices.items()}


def test_docs_name_exactly_the_parsers_commands():
    commands = _commands_and_options()
    doc = re.search(r"Subcommands: ([^.]*)\.", featmim.cli.__doc__).group(1)
    assert re.split(r",\s+", doc) == list(commands)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    cli = readme.split("## CLI", 1)[1]
    block = cli.split("```sh", 1)[1].split("```", 1)[0]
    assert set(re.findall(r"^featmim ([a-z-]+)", block, re.M)) == set(commands)
    takes_config, takes_seed = re.search(
        r"`--config` \(a run configuration JSON\)\s+is taken by (.*?),\s+and\s+`--seed`"
        r"\s+\(overrides `train.seed`\)\s+by (.*?)\.", cli, re.S).groups()
    assert re.findall(r"`([a-z-]+)`", takes_config) == [
        name for name, options in commands.items() if "--config" in options]
    assert re.findall(r"`([a-z-]+)`", takes_seed) == [
        name for name, options in commands.items()
        if "train.seed" in getattr(options.get("--seed"), "help", "")]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


MEMORY_CAP_PROBE = """
import sys
from featmim.cli import main
from featmim.errors import DataError
from featmim.model import load_checkpoint
if sys.argv[1] != "load_checkpoint":
    sys.exit(main(sys.argv[1:]))
try:
    load_checkpoint(sys.argv[2])
except DataError as e:
    sys.exit(f"DataError: {e}")
"""


def test_oversized_inputs_are_refused_under_a_2_gib_address_space(tmp_path, image_dir):
    # each case runs in a child whose address space alone is capped: an
    # allocation before the size check would die of MemoryError, not exit 2
    cfg = write_config(tmp_path, model={"embed_dim": 2**20, "dec_width": 2**20})
    header = json.dumps({"version": 2, "config": ModelConfig()._asdict(), "n_patches": 2**40,
                         "in_channels": 3}).encode()
    ckpt = tmp_path / "big.bin"
    ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(featmim.__file__).resolve().parent.parent)}
    for argv, code, message in [
            (["pretrain", "--config", str(cfg), "--images", str(image_dir),
              "--out", str(tmp_path / "run")], 2, "config error:"),
            (["dump-features", "--downsample", str(2**40), "--images", str(image_dir),
              "--out", str(tmp_path / "feats")], 2, "config error:"),
            (["load_checkpoint", str(ckpt)], 1, "DataError:")]:
        proc = subprocess.run([sys.executable, "-c", MEMORY_CAP_PROBE, *argv], env=env,
                              capture_output=True, text=True, timeout=60,
                              preexec_fn=_cap_address_space)
        assert proc.returncode == code and proc.stderr.startswith(message), proc.stderr
        assert "more than" in proc.stderr
    assert not (tmp_path / "run").exists() and not (tmp_path / "feats").exists()


IMPORT_PROBE = """
import sys
import numpy
print("dataclasses" in sys.modules)
import featmim.cli
print("dataclasses" in sys.modules)
"""


def test_cli_import_does_not_load_dataclasses():
    # every command pays featmim's import first; @dataclass compiles and runs
    # several generated functions per class, so the records are NamedTuples
    src = str(Path(featmim.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    after_numpy, after_cli = proc.stdout.split()
    if after_numpy == "True":
        pytest.skip("numpy alone imports dataclasses")
    assert after_cli == "False"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("inherited", [None, "2"])
def test_featmim_import_pins_one_blas_thread(inherited):
    # as `python -m featmim` and the console script do, featmim is imported
    # before numpy: whatever the caller set, BLAS then runs one thread
    src = str(Path(featmim.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(dict.fromkeys(BLAS_VARS, inherited) if inherited else {}, PYTHONPATH=src)
    probe = f"import os, featmim, numpy; print(*(os.environ.get(v) for v in {BLAS_VARS!r}))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1", "1"]


def test_pretrain_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 58 images at batch 58 feed 522 encoder rows (8 visible and a CLS each)
    # to every weight-gradient GEMM, [32 x 522] @ [522 x 128] for enc fc1:
    # a shape that 2-thread OpenBLAS sums in another order than one thread.
    # featmim's import pins one thread, so each child writes the same bytes.
    images = tmp_path / "images"
    images.mkdir()
    for i in range(58):
        write_ppm(images / f"img{i:02d}.ppm", synthetic_image(32, 3, seed=i))
    cfg = write_config(tmp_path, train={"total_epochs": 2.0, "warmup_epochs": 1.0,
                                        "base_lr": 0.02, "batch_size": 58, "seed": 0})
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(Path(featmim.__file__).resolve().parent.parent)
    outputs = set()
    for i, threads in enumerate(({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"})):
        out = tmp_path / f"run{i}"
        proc = subprocess.run([sys.executable, "-m", "featmim", "pretrain", "--config", str(cfg),
                               "--images", str(images), "--out", str(out)], capture_output=True,
                              text=True, timeout=60, env={**env, **threads})
        assert proc.returncode == 0, proc.stderr
        outputs.add(tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                          for name in ("metrics.csv", "ckpt_2.bin")))
    assert len(outputs) == 1, outputs

import hashlib
import json
import math
from pathlib import Path

import pytest

from featmim.config import RunConfig, load_run_config, run_config_from_dict
from featmim.errors import ConfigError
from featmim.losses import LossConfig


def test_defaults_validate():
    RunConfig().validate()


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        run_config_from_dict({"optimizer": {}})


def test_unknown_field_rejected():
    # loss.channel_reduce is a removed field: AdamW cancels a constant loss scale
    for payload in ({"train": {"lr": 0.1}}, {"loss": {"channel_reduce": "mean"}}):
        with pytest.raises(ConfigError, match="unknown field"):
            run_config_from_dict(payload)


def test_partial_section_merges_defaults():
    cfg = run_config_from_dict({"train": {"base_lr": 0.25}})
    assert cfg.train.base_lr == 0.25
    assert cfg.train.weight_decay == RunConfig().train.weight_decay


def test_patch_side_cross_check():
    cfg = run_config_from_dict({"model": {"patch_side": 4}})
    with pytest.raises(ConfigError, match="patch_side"):
        cfg.validate()


def test_teacher_dim_cross_check():
    cfg = run_config_from_dict({"teacher": {"target_dim": 99}})
    with pytest.raises(ConfigError, match="target_dim"):
        cfg.validate()


def test_teacher_alignment_cross_check():
    cfg = run_config_from_dict({"teacher": {"downsample_rate": 4}})
    with pytest.raises(ConfigError, match="divisible"):
        cfg.validate()


def test_zero_masked_blocks_rejected():
    cfg = run_config_from_dict({"mask": {"mask_ratio": 0.05}})
    with pytest.raises(ConfigError, match="zero masked blocks"):
        cfg.validate()


def test_all_masked_blocks_rejected():
    cfg = run_config_from_dict({"mask": {"mask_ratio": 0.95}})
    with pytest.raises(ConfigError, match="all"):
        cfg.validate()


def test_norm_std_zero_rejected():
    cfg = run_config_from_dict({"data": {"norm_std": 0}})
    with pytest.raises(ConfigError, match="norm_std"):
        cfg.validate()


@pytest.mark.parametrize("section", ["train", "teacher"])
def test_negative_seed_rejected(section):
    # numpy's generators take no negative seed
    cfg = run_config_from_dict({section: {"seed": -1}})
    with pytest.raises(ConfigError, match=f"{section}.seed"):
        cfg.validate()


def test_mask_seed_must_fit_64_bits():
    # SplitMix64 would reduce it to 64 bits: -1 would replay 2**64 - 1's masks
    for seed in (0, 2**64 - 1):
        run_config_from_dict({"mask": {"seed": seed}}).validate()
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="mask.seed"):
            run_config_from_dict({"mask": {"seed": seed}}).validate()


@pytest.mark.parametrize("lam", [math.nan, math.inf, -0.5])
def test_loss_lam_must_be_finite_and_non_negative(lam):
    with pytest.raises(ConfigError, match="loss.lam"):
        LossConfig(lam=lam).validate()


def test_readme_configuration_block_matches_defaults():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```json", 1)[1].split("```", 1)[0]
    assert json.loads(block) == RunConfig().to_dict()


def test_json_round_trip(tmp_path):
    cfg = RunConfig()._replace(loss=RunConfig().loss._replace(lam=0.25))
    p = tmp_path / "cfg.json"
    cfg.save(p)
    back = load_run_config(p)
    assert back == cfg


# RunConfig.save's bytes for the defaults, and for a document with a list
# norm_mean, a file teacher and a changed train seed: config.json is an
# output contract, whatever record type holds the sections
@pytest.mark.parametrize("doc, want", [
    ({}, "7c28b5f47a141f44c396ab871940fa845c5d9cb6c7616e10e662442ce333a026"),
    ({"data": {"norm_mean": [0.4, 0.5, 0.6]},
      "teacher": {"kind": "file", "features_dir": "feats"},
      "train": {"seed": 7}},
     "1e076bfbd9f39d462303aeb853a165f6680490dd7e1b7d7ea5d52b6d9cfb0762"),
], ids=["defaults", "edited"])
def test_saved_config_bytes_are_pinned(tmp_path, doc, want):
    p = tmp_path / "cfg.json"
    run_config_from_dict(doc).save(p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == want


def test_unknown_field_error_names_section_and_field():
    with pytest.raises(ConfigError, match=r"section 'teacher'.*'rate'"):
        run_config_from_dict({"teacher": {"rate": 4}})


@pytest.mark.parametrize("section, field, value", [
    ("train", "seed", True), ("train", "base_lr", "0.1"), ("mask", "mask_ratio", None),
    ("model", "use_cls", 1), ("teacher", "features_dir", 3), ("loss", "lam", "0.5"),
])
def test_wrong_typed_field_error_names_section_and_field(section, field, value):
    with pytest.raises(ConfigError, match=rf"^{section}\.{field} must be"):
        run_config_from_dict({section: {field: value}})


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_run_config(p)


@pytest.mark.parametrize("raw", [
    b'{"train": {"seed": ' + b"1" * 5000 + b"}}",  # past the int-parsing digit limit
    b'{"train": {"seed": "\xff"}}',
], ids=["long_int", "not_utf8"])
def test_undecodable_json_rejected(tmp_path, raw):
    p = tmp_path / "cfg.json"
    p.write_bytes(raw)
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_run_config(p)


def test_non_object_document_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ConfigError):
        load_run_config(p)

"""The run configuration: one JSON document with defaults for every module.

Sections: train, mask, model, loss, teacher, data. Omitted fields take the
defaults below; every field is validated (including cross-section
consistency) before any command does work.
"""

import json
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, check_field_types, finite_number
from .losses import LossConfig
from .masking import MaskSpec
from .model import ModelConfig, init_elements
from .teacher import TeacherSpec, check_alignment
from .tensor import read_bytes, write_atomic
from .trainer import TrainConfig


class DataConfig(NamedTuple):
    norm_mean: object = 0.5  # scalar or per-channel list
    norm_std: object = 0.5

    def validate(self):
        for name, v in (("norm_mean", self.norm_mean), ("norm_std", self.norm_std)):
            vals = v if isinstance(v, (list, tuple)) else [v]
            if not all(finite_number(x) for x in vals):
                raise ConfigError(f"data.{name} must be a finite number or list of them")
        with np.errstate(all="ignore"):  # normalize: (pixel in [0, 1] - mean) / std, float32
            mean, std = (np.float32(v).reshape(-1) for v in (self.norm_mean, self.norm_std))
            extremes = (np.float32([0, 1])[:, None, None] - mean[:, None]) / std  # every pair
        rules = (("norm_mean", mean, "finite"), ("norm_std", std, "finite"),
                 ("norm_std", extremes, "nonzero and large enough for finite normalized pixels"))
        for name, v, rule in rules:
            if not np.isfinite(v).all():
                raise ConfigError(f"data.{name} must be {rule} in float32")


class RunConfig(NamedTuple):  # sections are immutable, so one default instance serves all
    train: TrainConfig = TrainConfig()
    mask: MaskSpec = MaskSpec(image_side=32, patch_side=8, block_side=16, mask_ratio=0.6, seed=0)
    model: ModelConfig = ModelConfig()
    loss: LossConfig = LossConfig()
    teacher: TeacherSpec = TeacherSpec()
    data: DataConfig = DataConfig()

    def validate(self):
        self.train.validate()
        self.mask.validate()
        self.model.validate()
        self.loss.validate()
        self.teacher.validate()
        self.data.validate()
        if self.model.patch_side != self.mask.patch_side:
            raise ConfigError(
                f"model.patch_side {self.model.patch_side} != mask.patch_side "
                f"{self.mask.patch_side}")
        init_elements(self.model, self.mask.grid_side**2, in_channels=3)  # the most a PPM has
        if self.teacher.kind == "procedural-conv":
            if self.teacher.target_dim != self.model.target_dim:
                raise ConfigError(
                    f"teacher.target_dim {self.teacher.target_dim} != "
                    f"model.target_dim {self.model.target_dim}")
            check_alignment(self.teacher.downsample_rate, self.model.patch_side,
                            "teacher.downsample_rate", "model.patch_side")
        return self

    def to_dict(self):
        return {name: section._asdict() for name, section in self._asdict().items()}

    def save(self, path):  # config.json, an output contract: its bytes are pinned
        write_atomic(path, json.dumps(self.to_dict(), indent=1, sort_keys=True))


def _build_section(name, default, payload):
    if not isinstance(payload, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(payload) - set(default._fields)
    if unknown:
        raise ConfigError(f"unknown field(s) in section {name!r}: {sorted(unknown)}")
    section = default._replace(**payload)
    check_field_types(section, name)
    return section


def run_config_from_dict(doc):
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    sections = RunConfig()._asdict()
    unknown = set(doc) - set(sections)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    kwargs = {name: _build_section(name, default, doc[name])
              for name, default in sections.items() if name in doc}
    return RunConfig(**kwargs)


def load_run_config(path):
    blob = read_bytes(path, "config")
    try:
        doc = json.loads(blob.decode())
    except (ValueError, RecursionError) as e:  # also non-UTF-8, long integers, deep nesting
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    return run_config_from_dict(doc)

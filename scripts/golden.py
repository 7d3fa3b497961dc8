#!/usr/bin/env python3
"""The golden grid: every step configuration, trained briefly and hashed.

The grid crosses use_cls, multi-block learning (off, mean or sum), the
global loss weight (0 or 0.5) and the batch size (1, 3 or 8): 36 runs on
7 synthetic 32-px images for 2 epochs, so batch 3 ends each epoch on a
short batch. Three more runs cover a 3-block encoder, a 1-channel corpus
and a file teacher: 39 runs in all. Each run's outputs are hashed: the
sha256 of its metrics.csv and of its final checkpoint.

Prints the table as the Python literal tests/test_golden.py holds. A change
that moves any entry lists it, and why, in CHANGES.md.

    python3 scripts/golden.py
"""

import hashlib
import itertools
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from featmim.config import RunConfig
from featmim.synth import synthetic_image
from featmim.teacher import ProceduralConvTeacher, TeacherSpec, dump_features
from featmim.trainer import TrainConfig, train

N_IMAGES = 7
BASE = RunConfig()._replace(train=TrainConfig(base_lr=0.05, batch_size=3, warmup_epochs=1.0,
                                              total_epochs=2.0))


def _edit(**sections):
    """BASE with fields of its sections replaced, e.g. model={"use_cls": False}."""
    return BASE._replace(**{name: getattr(BASE, name)._replace(**fields)
                            for name, fields in sections.items()})


def runs(work):
    """(label, config, images) for every entry, the grid first; `work` is a
    directory for the file teacher's feature dump."""
    images = [(f"img{i}", synthetic_image(32, 3, seed=i)) for i in range(N_IMAGES)]
    blocks = {"off": {"multi_block": False}, "mean": {"aggregate": "mean"},
              "sum": {"aggregate": "sum"}}
    for use_cls, multi, lam, batch in itertools.product(
            (True, False), blocks, (0.0, 0.5), (1, 3, 8)):
        label = f"use_cls={use_cls} multi_block={multi} lam={lam} batch_size={batch}"
        yield label, _edit(train={"batch_size": batch},
                           model={"use_cls": use_cls, **blocks[multi]},
                           loss={"lam": lam}), images
    yield "enc_depth=3", _edit(model={"enc_depth": 3}), images
    gray = [(f"img{i}", synthetic_image(32, 1, seed=i)) for i in range(N_IMAGES)]
    yield "in_channels=1", BASE, gray
    features = os.path.join(work, "features")
    dump_features(ProceduralConvTeacher(target_dim=16, seed=1, l2_normalize=True), images,
                  features, student_patch_side=8)
    yield "teacher=file", BASE._replace(teacher=TeacherSpec(kind="file",
                                                            features_dir=features)), images


def digests(work):
    """label -> (sha256 of metrics.csv, sha256 of the final checkpoint)."""
    table = {}
    for i, (label, cfg, images) in enumerate(runs(work)):
        result = train(cfg, images, os.path.join(work, f"run{i}"))
        table[label] = tuple(hashlib.sha256(open(path, "rb").read()).hexdigest()
                             for path in (result.metrics_csv, result.final_checkpoint))
    return table


def main():
    with tempfile.TemporaryDirectory() as work:
        table = digests(work)
    print("GOLDEN = {")
    for label, (metrics, checkpoint) in table.items():
        print(f'    "{label}": (\n        "{metrics}",\n        "{checkpoint}"),')
    print("}")


if __name__ == "__main__":
    main()

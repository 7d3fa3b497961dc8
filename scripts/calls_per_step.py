#!/usr/bin/env python3
"""Interpreter calls per training step, counted by cProfile.

Runs `train` on the two benchmark recipes over 8 synthetic 32x32 images:
overfit-b8 (RunConfig() defaults at batch 8) and plain-b1 (batch 1, lam=0,
multi-block aggregation off). Each recipe trains for n and for 2n steps at
base_lr 0.03 without warmup, so every step takes the same branch of the
schedule, and prints (calls at 2n - calls at n) / n: the per-run setup and
the final checkpoint cancel. The count repeats exactly from run to run.

    python3 scripts/calls_per_step.py --steps 20
"""

import argparse
import cProfile
import os
import pstats
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from featmim.config import RunConfig
from featmim.synth import synthetic_image
from featmim.trainer import TrainConfig, train

BASE = RunConfig()
RECIPES = {
    "overfit-b8": (8, BASE),
    "plain-b1": (1, BASE._replace(loss=BASE.loss._replace(lam=0.0),
                                  model=BASE.model._replace(multi_block=False))),
}


def calls(cfg, batch_size, steps, images, out):
    epochs = steps * batch_size / len(images)
    cfg = cfg._replace(train=TrainConfig(base_lr=0.03, batch_size=batch_size,
                                         warmup_epochs=0.0, total_epochs=epochs))
    prof = cProfile.Profile()
    prof.runcall(train, cfg, images, out)
    return pstats.Stats(prof).total_calls


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=20, help="n: the shorter run's steps")
    args = ap.parse_args()

    images = [(f"img{i}", synthetic_image(32, 3, seed=i)) for i in range(8)]
    print(f"{'recipe':<12} {'calls/step':>10}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, (batch_size, cfg) in RECIPES.items():
            calls(cfg, batch_size, 1, images, os.path.join(tmp, "warm"))  # lazy imports
            n, n2 = (calls(cfg, batch_size, s, images, os.path.join(tmp, f"{name}_{s}"))
                     for s in (args.steps, 2 * args.steps))
            print(f"{name:<12} {(n2 - n) / args.steps:>10.1f}")


if __name__ == "__main__":
    main()

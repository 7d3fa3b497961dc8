#!/usr/bin/env python3
"""Interpreter calls and tape ops per training step.

Runs `train` on the two benchmark recipes over 8 synthetic 32x32 images:
overfit-b8 (RunConfig() defaults at batch 8) and plain-b1 (batch 1, lam=0,
multi-block aggregation off). Each recipe trains for n and for 2n steps at
base_lr 0.03 without warmup, so every step takes the same branch of the
schedule, and prints (calls at 2n - calls at n) / n as counted by cProfile:
the per-run setup and the final checkpoint cancel. A third, unprofiled run
of n steps reads the tape's length at each backward call and prints its
mean over the steps. Both counts repeat exactly from run to run.

    python3 scripts/calls_per_step.py --steps 20
"""

import argparse
import cProfile
import os
import pstats
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import featmim.trainer
from featmim.config import RunConfig
from featmim.synth import synthetic_image
from featmim.trainer import TrainConfig, train

BASE = RunConfig()
RECIPES = {
    "overfit-b8": (8, BASE),
    "plain-b1": (1, BASE._replace(loss=BASE.loss._replace(lam=0.0),
                                  model=BASE.model._replace(multi_block=False))),
}


def _for_steps(cfg, batch_size, steps, images):
    epochs = steps * batch_size / len(images)
    return cfg._replace(train=TrainConfig(base_lr=0.03, batch_size=batch_size,
                                          warmup_epochs=0.0, total_epochs=epochs))


def calls(cfg, batch_size, steps, images, out):
    prof = cProfile.Profile()
    prof.runcall(train, _for_steps(cfg, batch_size, steps, images), images, out)
    return pstats.Stats(prof).total_calls


def tape_ops(cfg, batch_size, steps, images, out):
    """The tape's length when backward is called, the mean over the steps."""
    lengths, real_backward = [], featmim.trainer.backward

    def recording_backward(tape, loss):
        lengths.append(len(tape._ops))
        return real_backward(tape, loss)

    featmim.trainer.backward = recording_backward
    try:
        train(_for_steps(cfg, batch_size, steps, images), images, out)
    finally:
        featmim.trainer.backward = real_backward
    return sum(lengths) / len(lengths)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=20, help="n: the shorter run's steps")
    args = ap.parse_args()

    images = [(f"img{i}", synthetic_image(32, 3, seed=i)) for i in range(8)]
    print(f"{'recipe':<12} {'calls/step':>10} {'tape ops/step':>13}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, (batch_size, cfg) in RECIPES.items():
            calls(cfg, batch_size, 1, images, os.path.join(tmp, "warm"))  # lazy imports
            n, n2 = (calls(cfg, batch_size, s, images, os.path.join(tmp, f"{name}_{s}"))
                     for s in (args.steps, 2 * args.steps))
            ops = tape_ops(cfg, batch_size, args.steps, images, os.path.join(tmp, f"{name}_ops"))
            print(f"{name:<12} {(n2 - n) / args.steps:>10.1f} {ops:>13.1f}")


if __name__ == "__main__":
    main()

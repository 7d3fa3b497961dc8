#!/usr/bin/env python3
"""Overfit a tiny student on 8 synthetic images.

The sanity experiment behind the release gate: 500 AdamW steps at the
scaled learning rate should push the patch loss well below 10% of its
starting value. Prints the trajectory and the final ratio.
"""

import argparse
import csv
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from featmim.config import RunConfig
from featmim.synth import synthetic_image
from featmim.trainer import TrainConfig, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="run directory")
    ap.add_argument("--steps", type=int, default=500)
    ap.add_argument("--base-lr", type=float, default=0.03)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = RunConfig()._replace(train=TrainConfig(
        base_lr=args.base_lr, batch_size=8, warmup_epochs=args.steps / 20,
        total_epochs=float(args.steps), seed=args.seed)).validate()
    images = [(f"img{i}", synthetic_image(32, 3, seed=i)) for i in range(8)]

    t0 = time.time()
    result = train(cfg, images, args.out)
    elapsed = time.time() - t0

    with open(result.metrics_csv) as f:
        rows = list(csv.DictReader(f))
    first = float(rows[0]["L_patch"])
    for row in rows[:: max(len(rows) // 10, 1)]:
        print(f"  step {row['step']:>4}  lr {float(row['lr']):.2e}  "
              f"L_patch {float(row['L_patch']):.5f}")
    last = float(rows[-1]["L_patch"])
    print(f"L_patch {first:.4f} -> {last:.5f} "
          f"({100 * last / first:.2f}% of step 0) in {elapsed:.0f}s")
    print(f"checkpoint: {result.final_checkpoint}")


if __name__ == "__main__":
    main()

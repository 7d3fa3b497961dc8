#!/usr/bin/env python3
"""Desk-scale teacher study: token diversity vs student progress.

Builds several procedural teachers, measures each one's token diversity on
the same image set, then trains a short student run against each and
reports final patch losses side by side. Also dumps feature files and a
query heat-map per teacher for visual inspection.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from featmim.analysis import heatmap, render_pgm
from featmim.config import RunConfig
from featmim.diversity import corpus_diversity
from featmim.synth import synthetic_image
from featmim.teacher import TeacherSpec, align_input, dump_features, make_teacher
from featmim.trainer import TrainConfig, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--teacher-seeds", default="0,1,2")
    ap.add_argument("--steps", type=int, default=100)
    ap.add_argument("--n-images", type=int, default=8)
    args = ap.parse_args()

    images = [(f"img{i}", synthetic_image(32, 3, seed=i)) for i in range(args.n_images)]
    seeds = [int(s) for s in args.teacher_seeds.split(",")]

    print(f"{'teacher':>12} {'diversity':>10} {'final L_patch':>14}")
    for seed in seeds:
        spec = TeacherSpec(kind="procedural-conv", downsample_rate=8,
                           target_dim=16, seed=seed)
        teacher = make_teacher(spec, in_channels=3)
        samples = [teacher.features(align_input(img, 8, 8), image_id)
                   for image_id, img in images]
        report = corpus_diversity(samples)

        tdir = os.path.join(args.out, f"teacher_{seed}")
        dump_features(teacher, images, os.path.join(tdir, "features"), 8)
        render_pgm(heatmap(samples[0], 5), 5, os.path.join(tdir, "heatmap_q5.pgm"))

        cfg = RunConfig()._replace(
            train=TrainConfig(base_lr=0.03, batch_size=8, warmup_epochs=args.steps / 20,
                              total_epochs=float(args.steps), seed=0),
            teacher=spec).validate()
        result = train(cfg, images, os.path.join(tdir, "run"))
        print(f"{f'conv(seed={seed})':>12} {report['diver']:>10.4f} "
              f"{result.final_l_patch:>14.5f}")


if __name__ == "__main__":
    main()

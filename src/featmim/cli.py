"""Command-line surface.

Subcommands: pretrain, dump-features, diversity, heatmap, pca, grad-check.
Configuration is one JSON document (see config.py); every command validates
it fully before touching the filesystem, and all outputs land under the path
given by --out. A sweep of the global loss weight is one pretrain per value,
each with its own loss.lam in its config.

Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric error.
"""

import argparse
import json
import math
import sys

import numpy as np

from .analysis import heatmap, pca_reduce, render_pgm
from .config import RunConfig, load_run_config
from .diversity import corpus_diversity
from .errors import ConfigError, DataError, NumericError
from .gradcheck import grad_check, tiny_run_config
from .imageio import load_images, read_images, scan_images
from .teacher import TeacherSpec, check_alignment, dump_features, load_feature_dir, make_teacher
from .tensor import read_tvec, write_atomic, write_tvec
from .trainer import train


def _config_flags(p):
    p.add_argument("--config", help="run configuration JSON")
    p.add_argument("--seed", type=int, default=None, help="override train.seed")


def _resolved_config(args, default=RunConfig):
    """The --config document, or default() without one, with the --seed
    and --mask-seed overrides applied; validated."""
    cfg = load_run_config(args.config) if args.config else default()
    if args.seed is not None:
        cfg = cfg._replace(train=cfg.train._replace(seed=args.seed))
    if getattr(args, "mask_seed", None) is not None:
        cfg = cfg._replace(mask=cfg.mask._replace(seed=args.mask_seed))
    cfg.validate()
    return cfg


def cmd_pretrain(args):
    cfg = _resolved_config(args)
    images = load_images(args.images, cfg.data.norm_mean, cfg.data.norm_std)
    result = train(cfg, images, args.out)
    print(f"pretrain: {result.total_steps} steps, final L_total "
          f"{result.final_l_total:.6g} -> {result.final_checkpoint}")
    return 0


# dump-features teacher flags and their values when not given. With
# --config the config's teacher section decides, and giving one is an error.
TEACHER_FLAG_DEFAULTS = {"teacher": "procedural", "seed": 0, "downsample": 8,
                         "target_dim": 16, "patch_side": 8, "l2_normalize": False}


def cmd_dump_features(args):
    given = {k: getattr(args, k) for k in TEACHER_FLAG_DEFAULTS if getattr(args, k) is not None}
    if args.config:
        if given:
            flags = ", ".join("--" + k.replace("_", "-") for k in given)
            raise ConfigError(f"{flags} cannot be combined with --config, "
                              "whose teacher section sets the teacher")
        cfg = _resolved_config(args)
        spec, patch_side = cfg.teacher, cfg.model.patch_side
        norm = (cfg.data.norm_mean, cfg.data.norm_std)
    else:
        f = {**TEACHER_FLAG_DEFAULTS, **given}
        kind = "procedural-conv" if f["teacher"] == "procedural" else f["teacher"]
        spec = TeacherSpec(kind=kind, downsample_rate=f["downsample"],
                           target_dim=f["target_dim"], seed=f["seed"],
                           l2_normalize=f["l2_normalize"])
        spec.validate("--downsample", "--target-dim")
        check_alignment(spec.downsample_rate, f["patch_side"], "--downsample", "--patch-side")
        patch_side, norm = f["patch_side"], (0.5, 0.5)
    channels, files = scan_images(args.images)  # every file's magic before any pixel
    teacher = make_teacher(spec, in_channels=channels)
    manifest = dump_features(teacher, read_images(files, *norm), args.out, patch_side)
    print(f"dump-features: wrote {len(manifest['entries'])} feature files to {args.out}")
    return 0


def cmd_diversity(args):
    corpus, offsets = load_feature_dir(args.features)
    try:
        report = corpus_diversity(np.split(corpus, offsets[1:-1]))
    except (DataError, NumericError) as e:
        raise type(e)(f"{args.features}: {e}") from None
    write_atomic(args.out, json.dumps(report, indent=1))
    print(f"diversity: {report['diver']:.6f} over {report['n']} samples "
          f"({report['k']} tokens each)")
    return 0


def cmd_heatmap(args):
    tokens = read_tvec(args.features)
    if tokens.ndim != 2:
        raise DataError(f"{args.features}: expected a 2-d token file, got rank {tokens.ndim}")
    if not np.isfinite(tokens).all():
        raise DataError(f"{args.features}: token file contains non-finite values")
    grid = math.isqrt(tokens.shape[0])
    if grid == 0 or grid * grid != tokens.shape[0]:
        raise DataError(f"{args.features}: {tokens.shape[0]} tokens is not a square grid")
    try:
        render_pgm(heatmap(tokens, args.query), args.query, args.out)
    except NumericError as e:
        raise NumericError(f"{args.features}: {e}") from None
    print(f"heatmap: query {args.query} on a {grid}x{grid} grid -> {args.out}")
    return 0


def cmd_pca(args):
    x, _ = load_feature_dir(args.features, np.float64)
    shape = x.shape
    projected, _, explained = pca_reduce(x, args.components)
    del x  # centered in place by pca_reduce: the corpus is not held while writing
    write_tvec(args.out, projected)
    write_atomic(f"{args.out}.json", json.dumps(
        {"n_components": args.components,
         "explained_variance": explained.tolist()}, indent=1))
    print(f"pca: {shape} -> {projected.shape} written to {args.out}")
    return 0


def cmd_grad_check(args):
    for flag, value in (("--h", args.h), ("--tolerance", args.tolerance)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{flag} must be finite and positive, got {value!r}")
    report = grad_check(_resolved_config(args, default=tiny_run_config), h=args.h)
    if args.out:
        write_atomic(args.out, json.dumps(report, indent=1))
    passed = report["max_rel_err"] < args.tolerance
    print(f"grad-check: {'PASS' if passed else 'FAIL'} max rel err {report['max_rel_err']:.3e} "
          f"({report['worst_param']}) over {report['n_parameters']} parameters")
    return 0 if passed else 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="featmim",
        description="masked image modeling with deep-feature targets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="run the pretraining loop")
    _config_flags(p)
    p.add_argument("--images", required=True, help="directory of .pgm/.ppm images")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--mask-seed", type=int, default=None, help="override mask.seed")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("dump-features", help="extract teacher features to files")
    p.add_argument("--config", help="run configuration JSON; replaces the teacher flags below")
    p.add_argument("--images", required=True)
    p.add_argument("--out", required=True, help="feature directory")
    p.add_argument("--teacher", choices=["procedural", "procedural-conv"],
                   help="default procedural")
    p.add_argument("--seed", type=int, help="teacher seed, default 0")
    p.add_argument("--target-dim", type=int, help="default 16")
    p.add_argument("--downsample", type=int, help="default 8")
    p.add_argument("--patch-side", type=int, help="default 8")
    p.add_argument("--l2-normalize", action="store_true", default=None)
    p.set_defaults(func=cmd_dump_features)

    p = sub.add_parser("diversity", help="token-diversity report for a feature dump")
    p.add_argument("--features", required=True, help="feature directory with manifest.json")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_diversity)

    p = sub.add_parser("heatmap", help="query-patch similarity heat-map")
    p.add_argument("--features", required=True, help="single .tvec token file")
    p.add_argument("--query", type=int, required=True, help="query patch index")
    p.add_argument("--out", required=True, help="output PGM path")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("pca", help="reduce token dimensionality")
    p.add_argument("--features", required=True, help="feature directory with manifest.json")
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--out", required=True, help="output .tvec path")
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("grad-check", help="verify analytic gradients end to end")
    _config_flags(p)
    p.add_argument("--out", help="optional report JSON path")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--h", type=float, default=1e-5, help="finite-difference step")
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per release criterion, each printing a
[PASS] line with the measured value. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import csv
import io
import json
import math
import pathlib
import time

import numpy as np

from featmim import tensor as tn
from featmim.analysis import pca_reduce
from featmim.cli import main
from featmim.config import RunConfig
from featmim.diversity import corpus_diversity
from featmim.imageio import write_ppm
from featmim.losses import global_loss, patch_loss
from featmim.masking import MaskSpec, generate_mask
from featmim.model import forward, init_params, load_checkpoint, patchify
from featmim.synth import synthetic_image
from featmim.teacher import (FileTeacher, ProceduralConvTeacher, dump_features,
                             load_feature_dir)
from featmim.tensor import Tensor
from featmim.trainer import TrainConfig, lr_at, scaled_lr, train

from conftest import mask_grid, plain_regression_step
from test_diversity import oracle_diversity


def _passed(name, detail):
    print(f"[PASS] {name}: {detail}")


def feats(tokens):
    return np.asarray(tokens, dtype=np.float64)


def test_gradient_fidelity(default_grad_check):
    # tiny config (embed 8, L=2, dec_depth 1, heads 2, D_t 16), float64,
    # central differences h=1e-5, max rel err < 1e-4, under 60 s
    code, blob, elapsed = default_grad_check
    report = json.loads(blob)
    assert code == 0
    assert report["max_rel_err"] < 1e-4
    assert elapsed < 60.0
    _passed("gradient fidelity",
            f"max rel err {report['max_rel_err']:.2e} over {report['n_parameters']} "
            f"parameters in {elapsed:.1f}s")


def test_diversity_oracle_equivalence():
    # 100 random instances, K <= 16, D <= 8, float64, agreement to 1e-12,
    # under 10 s
    rng = np.random.default_rng(123)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 17))
        d = int(rng.integers(1, 9))
        samples = [rng.normal(size=(k, d)) for _ in range(n)]
        mine = corpus_diversity([feats(s) for s in samples])["diver"]
        ref = oracle_diversity([s.tolist() for s in samples])
        worst = max(worst, abs(mine - ref))
    elapsed = time.monotonic() - t0
    assert worst < 1e-12
    assert elapsed < 10.0
    _passed("diversity oracle equivalence",
            f"max |metric - oracle| {worst:.2e} over 100 instances in {elapsed:.1f}s")


def test_diversity_extremes():
    identical = corpus_diversity([feats([[2.0, 0.0]] * 4)] * 3)
    assert identical["diver"] == 0.0
    orthogonal = corpus_diversity([feats(np.eye(4))] * 3)
    assert orthogonal["diver"] == 1.0
    hand = corpus_diversity([feats([[1.0, 0.0], [0.0, 1.0],
                                    [1 / np.sqrt(2), 1 / np.sqrt(2)]])])
    assert abs(hand["diver"] - 1 / 3) <= 1e-12
    _passed("diversity extremes",
            f"identical -> 0 exactly, orthogonal -> 1 exactly, "
            f"hand case {hand['diver']:.15f}")


def test_mask_geometry():
    # reference geometry: 224/16/32 at 0.6 -> 29 of 49 blocks, 116 patches
    reference = MaskSpec(224, 16, 32, 0.6, seed=0)
    masked, _ = generate_mask(reference, [0])
    masked_blocks = int(mask_grid(masked[0], reference)[::2, ::2].sum())
    assert masked_blocks == 29
    assert masked.shape == (1, 116)

    rng = np.random.default_rng(7)
    for i in range(1000):
        patch = int(rng.choice([4, 8, 16]))
        block = patch * int(rng.integers(1, 4))
        image = block * int(rng.integers(2, 7))
        ratio = float(rng.uniform(0.1, 0.85))
        spec = MaskSpec(image, patch, block, ratio, seed=i)
        n_blocks = spec.n_blocks
        if not 1 <= math.floor(ratio * n_blocks + 0.5) < n_blocks:
            continue
        masked, _ = generate_mask(spec, [i])
        g = mask_grid(masked[0], spec)
        bpp = spec.block_side // spec.patch_side
        assert abs(masked.shape[1] / g.size - ratio) <= bpp**2 / spec.grid_side**2
        for br in range(spec.blocks_per_side):
            for bc in range(spec.blocks_per_side):
                blk = g[br * bpp:(br + 1) * bpp, bc * bpp:(bc + 1) * bpp]
                assert blk.all() or not blk.any()
    _passed("mask geometry",
            "29 blocks / 116 patches on the reference spec; ratio within one "
            "block and block-completeness on 1000 random specs")


def test_loss_contracts():
    rng = np.random.default_rng(11)
    y = rng.normal(size=(16, 4))
    rows, visible = generate_mask(MaskSpec(32, 8, 8, 0.5, seed=1), [1])  # one image, [1, M]

    z = Tensor(rng.normal(size=(rows.shape[1], 4)))  # predictions at the masked rows only
    y1 = y.copy()
    y1[visible[0]] += rng.normal(size=(visible.shape[1], 4)) * 1e6
    a = float(patch_loss(z, rows, y, 2.0)[0].data)
    b = float(patch_loss(z, rows, y1, 2.0)[0].data)
    assert a == b

    p0 = rng.normal(size=(visible.shape[1], 4))
    shift = rng.normal(size=4)
    ga = float(global_loss(Tensor(p0), y.mean(axis=0)[None], 2.0)[0].data)
    gb = float(global_loss(Tensor(p0 + shift), (y + shift).mean(axis=0)[None], 2.0)[0].data)
    assert abs(ga - gb) <= 1e-12

    for beta in (0.5, 1.0, 2.0):
        for sign in (1.0, -1.0):
            _, at_joint = tn.smooth_l1(Tensor(np.zeros((1, 1))), np.full((1, 1), sign * beta),
                                       beta)
            assert abs(float(at_joint[0, 0]) - 0.5 * beta) <= 1e-12
    _passed("loss contracts",
            "patch loss blind to visible slots, global loss shift-invariant, "
            "smooth-L1 continuous at beta in {0.5, 1, 2}")


OVERFIT_CONFIG = RunConfig()._replace(
    train=TrainConfig(base_lr=0.03, batch_size=8, warmup_epochs=25.0,
                      total_epochs=500.0, seed=0))


def test_overfit_convergence():
    # frozen recipe: default tiny model (embed 32, L=2, dec_depth 1,
    # dec_width 32), 8 synthetic 32x32 images, 500 AdamW steps at the scaled
    # lr; final patch loss under 10% of step 0, in under 2 minutes
    cfg = OVERFIT_CONFIG.validate()
    images = [(f"img{i}", synthetic_image(32, 3, seed=i)) for i in range(8)]
    t0 = time.monotonic()
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        result = train(cfg, images, d)
        rows = list(csv.DictReader(io.StringIO(
            pathlib.Path(result.metrics_csv).read_text())))
    elapsed = time.monotonic() - t0
    assert result.total_steps == 500
    first = float(rows[0]["L_patch"])
    last = float(rows[-1]["L_patch"])
    assert last < 0.10 * first
    assert elapsed < 120.0
    _passed("overfit convergence",
            f"L_patch {first:.4f} -> {last:.5f} "
            f"({100 * last / first:.2f}% of step 0) in {elapsed:.0f}s / 500 steps")


def test_config_reduction_is_bitwise(monkeypatch):
    # lam=0 + multi_block=off must reproduce, byte for byte and tape op for
    # tape op, the plain feature-regression step, which contains no
    # global-loss or aggregation code (conftest.plain_regression_step)
    import tempfile
    import featmim.trainer
    cfg = RunConfig()._replace(
        train=TrainConfig(base_lr=0.02, batch_size=4, warmup_epochs=2.0,
                          total_epochs=10.0, seed=3),
        loss=RunConfig().loss._replace(lam=0.0),
        model=RunConfig().model._replace(multi_block=False)).validate()
    images = [(f"img{i}", synthetic_image(32, 3, seed=i)) for i in range(4)]
    real_backward = featmim.trainer.backward

    def run():
        ops_per_step = []

        def counting_backward(tape, loss):
            ops_per_step.append(len(tape._ops))
            return real_backward(tape, loss)

        monkeypatch.setattr(featmim.trainer, "backward", counting_backward)
        with tempfile.TemporaryDirectory() as d:
            r = train(cfg, images, d)
            return (pathlib.Path(r.metrics_csv).read_bytes(),
                    pathlib.Path(r.final_checkpoint).read_bytes(), ops_per_step)

    csv_step, ckpt_step, ops_step = run()
    monkeypatch.setattr(featmim.trainer, "step_losses", plain_regression_step)
    csv_plain, ckpt_plain, ops_plain = run()
    assert csv_step == csv_plain
    assert ckpt_step == ckpt_plain
    assert ops_step == ops_plain and len(ops_step) == 10
    _passed("config reduction",
            f"lam=0 + multi_block=off matches the plain-regression step: "
            f"metrics.csv, final checkpoint and {ops_step[0]} tape ops per step")


def test_schedule_criteria():
    cfg = TrainConfig(base_lr=1.5e-4, batch_size=4096,
                      warmup_epochs=40, total_epochs=1600)
    peak = scaled_lr(1.5e-4, 4096)
    assert peak == 2.4e-3
    assert lr_at(1600.0, cfg) == 0.0
    jump = abs(lr_at(40.0, cfg) - lr_at(40.0 - 1e-9, cfg))
    assert lr_at(40.0, cfg) == peak
    assert jump < 1e-12
    _passed("schedule",
            f"scaled_lr(1.5e-4, 4096) = {peak}, warmup-boundary jump "
            f"{jump:.1e}, lr(total) = 0")


def test_pca_criteria():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(64, 8)) * np.array([6, 4, 3, 2, 1.5, 1, 0.5, 0.2])
    projected, comps, explained = pca_reduce(x, 8)
    gram = comps @ comps.T
    ortho_err = float(np.abs(gram - np.eye(8)).max())
    assert ortho_err < 1e-8
    recon = projected @ comps + x.mean(axis=0)
    recon_err = float(np.abs(recon - x).max())
    assert recon_err < 1e-6

    t = rng.normal(size=200)
    line = np.stack([3 * t, -2 * t], axis=1)
    _, _, ev = pca_reduce(line, 2)
    assert ev[0] / ev.sum() > 1 - 1e-12
    _passed("pca",
            f"orthonormality {ortho_err:.1e}, reconstruction {recon_err:.1e}, "
            f"line case first component {100 * ev[0] / ev.sum():.4f}% of variance")


def test_persistence_round_trips(tmp_path):
    # checkpoint: save -> load -> forward must be bitwise identical
    cfg = RunConfig()
    params = init_params(cfg.model, 32, 3, seed=5)
    masks = generate_mask(cfg.mask, [9])
    patches = patchify(synthetic_image(32, 3, seed=4), 8)[None]
    before = forward(patches, masks, params)[0].data.tobytes()
    from featmim.model import save_checkpoint
    save_checkpoint(tmp_path / "c.bin", params)
    after = forward(patches, masks,
                    load_checkpoint(tmp_path / "c.bin"))[0].data.tobytes()
    assert before == after

    # feature dump: write -> read -> rewrite must be byte identical
    teacher = ProceduralConvTeacher(target_dim=16, downsample_rate=8, seed=6)
    images = [(f"i{k}", synthetic_image(32, 3, seed=k)) for k in range(3)]
    dump_features(teacher, images, tmp_path / "f1", student_patch_side=8)
    replayed, offsets = load_feature_dir(tmp_path / "f1")
    assert replayed.shape == (48, 16) and offsets == [0, 16, 32, 48]
    dump_features(FileTeacher(tmp_path / "f1"), images, tmp_path / "f2", student_patch_side=8)
    for k in range(3):
        a = (tmp_path / "f1" / f"i{k}.tvec").read_bytes()
        b = (tmp_path / "f2" / f"i{k}.tvec").read_bytes()
        assert a == b
    _passed("persistence",
            "checkpoint forward bitwise-stable; feature dump/read/redump "
            "byte-identical")


def test_pretrain_determinism(tmp_path):
    # the full CLI path twice with one config and seed: identical metrics
    img_dir = tmp_path / "images"
    img_dir.mkdir()
    for i in range(4):
        write_ppm(img_dir / f"img{i}.ppm", synthetic_image(32, 3, seed=i))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"train": {"total_epochs": 3.0, "warmup_epochs": 1.0, '
                        '"base_lr": 0.02, "batch_size": 4, "seed": 12}}')
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["pretrain", "--config", str(cfg_path), "--images",
                     str(img_dir), "--out", str(out)]) == 0
        blobs.append((out / "metrics.csv").read_bytes())
    assert blobs[0] == blobs[1]
    _passed("determinism", "two pretrain runs produced identical metrics CSVs")

"""The desk-scale scripts run end to end at their smallest sizes."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from featmim.config import RunConfig
from featmim.synth import synthetic_image
from featmim.trainer import TrainConfig, train

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# The byte-identity contract: the 100-step overfit recipe writes exactly
# these bytes, with 1, 2 or unset OpenBLAS threads. A change that moves
# float32 summation order (batching, fusing GEMMs such as one q/k/v
# projection) updates both hashes and says so in CHANGES.md.
OVERFIT_100_SHA256 = {
    "metrics.csv": "50c525228542280796d47cf380dce987cefcf9351013e40d4b4a77120ed42b21",
    "ckpt_100.bin": "8d8a90f7518cf99f17ac3ed51c79dd3c47f102930d3ea8cf389f2e5a49350099",
}

# The same contract for the plain path (lam=0, multi-block off, batch 1),
# which the overfit recipe never runs: 40 steps, a checkpoint every 10.
PLAIN_40_SHA256 = {
    "metrics.csv": "031cb5a8f1435baf6e517b6b5baec7a1a11d3742b744ed558fb5990fe487b6b7",
    "ckpt_10.bin": "cdc1697d98c514b794c6047b77dc51c5dd6c38de52a801bc9e17a42e0e097560",
    "ckpt_20.bin": "ff40c4a1438e5caac243cbada2708fe63f82eb9ff9bac5eba7a4ab4530b5283f",
    "ckpt_30.bin": "c6c4569c6f08062376912aa7f335e76416619afa9ab52b303fe5e8ba00df9173",
    "ckpt_40.bin": "b3657155ddbe2d7e11d0b7f5eefed278d39e98684c17a8fcf60e43a8981e41a3",
}


def run_script(name, *args, cwd):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_make_toy_images(tmp_path):
    out = run_script("make_toy_images.py", "--out", "toy", "--count", "3", "--side", "16",
                     cwd=tmp_path)
    assert "wrote 3 16x16 images" in out
    assert sorted(p.name for p in (tmp_path / "toy").iterdir()) == [
        "img000.ppm", "img001.ppm", "img002.ppm"]


def test_compare_teachers(tmp_path):
    out = run_script("compare_teachers.py", "--out", "study", "--steps", "3",
                     "--n-images", "2", cwd=tmp_path)
    rows = out.splitlines()[1:]
    assert [r.split()[0] for r in rows] == [f"conv(seed={s})" for s in (0, 1, 2)]
    for seed in (0, 1, 2):
        tdir = tmp_path / "study" / f"teacher_{seed}"
        assert (tdir / "features" / "manifest.json").exists()
        assert (tdir / "heatmap_q5.pgm").exists()
        sidecar = json.loads((tdir / "heatmap_q5.pgm.json").read_text())
        assert (sidecar["grid_side"], sidecar["query_index"]) == (4, 5)
        assert (tdir / "run" / "ckpt_3.bin").exists()


def test_calls_per_step_repeats_exactly(tmp_path):
    # two readings of one tree agree to the call, on both recipes; a step
    # records 54 tape ops on the default recipe and 46 on the plain path
    first, second = (run_script("calls_per_step.py", "--steps", "2", cwd=tmp_path)
                     for _ in range(2))
    rows = [r.split() for r in first.splitlines()[1:]]
    assert [(r[0], r[2]) for r in rows] == [("overfit-b8", "54.0"), ("plain-b1", "46.0")]
    assert first == second


def test_run_overfit_writes_the_pinned_bytes(tmp_path):
    run_script("run_overfit.py", "--steps", "100", "--out", "run", cwd=tmp_path)
    for name, want in OVERFIT_100_SHA256.items():
        assert hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest() == want, name


def test_plain_path_writes_the_pinned_bytes(tmp_path):
    base = RunConfig()
    cfg = base._replace(train=TrainConfig(base_lr=0.03, batch_size=1, warmup_epochs=2.0,
                                          total_epochs=5.0, checkpoint_interval=10),
                        loss=base.loss._replace(lam=0.0),
                        model=base.model._replace(multi_block=False))
    images = [(f"img{i}", synthetic_image(32, 3, seed=i)) for i in range(8)]
    assert train(cfg, images, str(tmp_path / "run")).total_steps == 40
    for name, want in PLAIN_40_SHA256.items():
        assert hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest() == want, name

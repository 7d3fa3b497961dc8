"""The desk-scale scripts run end to end at their smallest sizes."""

import hashlib
import importlib.util
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
    "ckpt_100.bin": "07f84f92341a2cf60369d37e801b5b011c6bf8e449a51b377cae8cc48b5ba305",
}

# The same contract for the plain path (lam=0, multi-block off, batch 1),
# which the overfit recipe never runs: 40 steps, a checkpoint every 10.
PLAIN_40_SHA256 = {
    "metrics.csv": "2aee61742b101825c9785fbba1ff51cac9395109e41e0222631f3d7aae080138",
    "ckpt_10.bin": "77b1a2178f56314d0615e2450c6dc5eeef9c6bcee23e07c423ed586c97d1d7a9",
    "ckpt_20.bin": "dd093a6d3f66fd4c2f1877c34364ace07f7a0b95f43f6e2f73f4c1e03d2f3c29",
    "ckpt_30.bin": "4bc528c6cea824106e6737a48480a4ea870b9eec70bbb096376f75a7e6273fc1",
    "ckpt_40.bin": "8205a46b39e419068df0c91f990a24e961ee31ef97ea6177e9185f7b106546fd",
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
    # records 56 tape ops on the default recipe and 48 on the plain path
    first, second = (run_script("calls_per_step.py", "--steps", "2", cwd=tmp_path)
                     for _ in range(2))
    rows = [r.split() for r in first.splitlines()[1:]]
    assert [(r[0], r[2]) for r in rows] == [("overfit-b8", "56.0"), ("plain-b1", "48.0")]
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


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_line(img_per_s, setup_s, peak_rss_mb):
    """The last stdout line of a passing bench run, with these metrics."""
    metrics = {"img_per_s": (img_per_s, "img/s"), "setup_s": (setup_s, "s"),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    return json.dumps({"correct": True, "attempted": 3, "failed": 0,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def test_ab_summary_of_canned_pairs():
    # no bench run: eight canned pairs of result lines. The change is 10%
    # faster in every pair, sets up faster in six, slower in one and equally
    # fast in one, and holds memory equal in all
    ab = _load_script("ab.py")
    end_to_end = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["end_to_end"]
    setup = [(0.5, 0.4)] * 6 + [(0.5, 0.6), (0.5, 0.5)]
    pairs = [(json.loads(_result_line(100.0 + i, base_s, 40.0)),
              json.loads(_result_line((100.0 + i) * 1.1, change_s, 40.0)))
             for i, (base_s, change_s) in enumerate(setup)]
    rows = {r["metric"]: r for r in ab.summarize(pairs, end_to_end)}
    img = rows["img_per_s"]
    assert (img["wins"], img["untied"]) == (8, 8) and round(img["p"], 4) == 0.0078
    assert img["base_median"] == 103.5 and abs(img["change_median"] - 113.85) < 1e-9
    assert abs(img["ratio_median"] - 1.1) < 1e-12 and abs(img["base_iqr"] - 3.5) < 1e-12
    assert 1.1 - 1e-12 < img["ratio_q1"] <= img["ratio_q3"] < 1.1 + 1e-12
    # lower is better for set-up: 6 wins of 7 untied pairs, p = 2 * 8 / 128
    assert (rows["setup_s"]["wins"], rows["setup_s"]["untied"]) == (6, 7)
    assert rows["setup_s"]["p"] == 0.125
    assert (rows["peak_rss_mb"]["wins"], rows["peak_rss_mb"]["untied"]) == (0, 0)
    assert rows["peak_rss_mb"]["p"] == 1.0 and rows["peak_rss_mb"]["ratio_median"] == 1.0
    assert ab.sign_test_p(5, 10) == 1.0 and ab.sign_test_p(10, 10) == 2 / 1024
    assert "img_per_s" in ab.format_rows(list(rows.values()), len(pairs))


def test_ab_warms_each_tree_up_before_the_first_pair(tmp_path, monkeypatch, capsys):
    # one unrecorded run per tree first, then the pairs in ABBA order; the
    # warm-up runs read 1.0 on every metric, so a summary holding one
    # would not have the recorded runs' medians
    ab = _load_script("ab.py")
    base, change = tmp_path, SCRIPTS.parent
    calls = []

    def bench_run(tree, workload, seed, seconds):
        calls.append((tree, seed))
        if len(calls) <= 2:
            return json.loads(_result_line(1.0, 1.0, 1.0))
        return json.loads(_result_line(100.0 if tree == base else 110.0, 0.5, 40.0))

    monkeypatch.setattr(ab, "bench_run", bench_run)
    monkeypatch.setattr(sys, "argv", ["ab.py", "--base", str(base), "--change", str(change),
                                      "--workload", "overfit-b8", "--pairs", "3",
                                      "--seconds", "1", "--first-seed", "7"])
    ab.main()
    assert calls == [(base, 7), (change, 7), (base, 7), (change, 7), (change, 8), (base, 8),
                     (base, 9), (change, 9)]
    rows = capsys.readouterr().out.splitlines()
    assert [r for r in rows if r.startswith("pair")][0] == (
        "pair 0 seed 7 base   img_per_s=100 setup_s=0.5 peak_rss_mb=40")
    summary = {r.split()[0]: r.split()[1:3] for r in rows if not r.startswith("pair")}
    assert summary["img_per_s"] == ["100", "110"]
    assert summary["setup_s"] == ["0.5", "0.5"] and summary["peak_rss_mb"] == ["40", "40"]


def _bench_stdout(env, result_line):
    """A bench run's stdout: a human-readable line, the env line, the result."""
    return f"     overfit-b8  img_per_s  1 img/s\nenv {json.dumps(env)}\n{result_line}\n"


def test_bench_record_of_canned_runs(tmp_path, monkeypatch):
    # no bench run: canned stdout for every run the script makes. The stale
    # per-op metrics read 0 in the traced run and are recorded as absent
    rec = _load_script("bench_record.py")
    base, change, out = tmp_path / "base", SCRIPTS.parent, tmp_path / "BENCH_1.json"
    traced_metrics = {name: {"value": 0.0, "unit": "ms"} for name in rec.STALE_PER_LAYER}
    traced_metrics.update({name: {"value": float(i + 1), "unit": "ms"}
                           for i, name in enumerate(rec.LIVE_PER_LAYER)})
    traced_metrics["analysis.pca_ms"] = {"value": 0.0, "unit": "ms"}
    traced = json.dumps({"correct": True, "attempted": 3, "failed": 0,
                         "metrics": traced_metrics})
    calls = ("recipe       calls/step tape ops/step\n"
             "overfit-b8       1219.0          56.0\nplain-b1          975.6          48.0\n")
    argvs = []

    def run(tree, argv):
        argvs.append((tree, argv))
        if argv[0] == "scripts/calls_per_step.py":
            return calls
        if argv[-1] == "1":
            return _bench_stdout({"tree": "change"}, traced)
        rss = 60.0 if tree == base else 54.0
        return _bench_stdout({"tree": "base" if tree == base else "change"},
                             _result_line(100.0, 0.5, rss))

    monkeypatch.setattr(rec, "run", run)
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--base", str(base), "--change",
                                      str(change), "--out", str(out), "--seconds", "3",
                                      "--seed", "5"])
    rec.main()
    doc = json.loads(out.read_text())
    workloads = [w["name"] for w in json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
                 ["workloads"]]
    assert [a[:2] for _, a in argvs] == [["bench/run.py", "--workload"]] * 7 + [
        ["scripts/calls_per_step.py", "--steps"]]
    assert [(t, a[2], a[-1]) for t, a in argvs[:7]] == [
        (tree, w, "0") for w in workloads for tree in (base, change)] + [
        (change, "overfit-b8", "1")]
    assert doc["seed"] == 5 and doc["seconds"] == 3 and doc["env"] == {"tree": "change"}
    assert list(doc["end_to_end"]) == workloads
    for sides in doc["end_to_end"].values():
        assert sides["base"]["peak_rss_mb"] == {"value": 60.0, "unit": "MB"}
        assert sides["change"]["peak_rss_mb"] == {"value": 54.0, "unit": "MB"}
    per_layer = doc["per_layer"]["overfit-b8"]
    assert list(per_layer) == list(rec.LIVE_PER_LAYER)
    assert per_layer["trainer.step_ms_p50"]["value"] > 0
    assert set(doc["absent"]) == set(rec.STALE_PER_LAYER) and not set(per_layer) & set(doc["absent"])
    assert doc["calls_per_step"] == {"overfit-b8": {"calls": 1219.0, "tape_ops": 56.0},
                                     "plain-b1": {"calls": 975.6, "tape_ops": 48.0}}

"""The benchmark workloads: inputs from a seed, units of work through
featmim's CLI (`featmim.cli.main`, in process), and correctness gates.

A unit is one `pretrain` run for the training workloads and one pass of
dump-features, diversity, pca and heatmap for the corpus. Every unit
imports featmim afresh, so a traced unit starts from unwrapped modules.

A unit returns `first`, the time its first item of work started, and
`busy`, the time from then to its end: for training every step, CSV row and
checkpoint after set-up; for the corpus the four CLI calls. Throughput is
`images` / `busy`.
"""

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import operator
import struct
import sys
import time
from pathlib import Path

import numpy as np


@contextlib.contextmanager
def patched(obj, attr, value):
    old = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, old)


def stamping_first(fn, stamps):
    """fn, appending a timestamp to stamps before its first call."""
    def probe(*args, **kwargs):
        if not stamps:
            stamps.append(time.perf_counter())
        return fn(*args, **kwargs)
    return probe


def featmim_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "featmim" or name.startswith("featmim.")}


def fresh_featmim():
    """Import featmim from scratch, dropping any modules already loaded."""
    for name in featmim_modules():
        del sys.modules[name]
    return importlib.import_module("featmim.cli")


def run_cli(cli, argv):
    """One CLI call; returns (exit code, start, end, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, t0, time.perf_counter(), err.getvalue()


def unit_record(code, t0, t1, err, first, images):
    first = t1 if first is None else first
    return {"wall": t1 - t0, "codes": [code], "errors": [err] if code else [],
            "first": first, "busy": t1 - first, "images": images}


# --- inputs ---


def smooth_field(rng, side, coarse, channels=3):
    """Coarse uniform noise upsampled bilinearly to side x side, in [0, 1]."""
    pos = np.clip((np.arange(side) + 0.5) * coarse / side - 0.5, 0, coarse - 1)
    i0 = pos.astype(np.int64)
    i1 = np.minimum(i0 + 1, coarse - 1)
    w = pos - i0
    c = rng.random((channels, coarse, coarse))
    c = c[:, i0] * (1 - w)[:, None] + c[:, i1] * w[:, None]
    return c[:, :, i0] * (1 - w) + c[:, :, i1] * w


def write_images(directory, rng, count, side, coarse):
    """count binary PPMs of smooth random fields."""
    directory.mkdir(parents=True)
    for i in range(count):
        pix = np.floor(smooth_field(rng, side, coarse) * 255.0 + 0.5).astype(np.uint8)
        (directory / f"img{i:03d}.ppm").write_bytes(
            b"P6\n%d %d\n255\n" % (side, side) + pix.transpose(1, 2, 0).tobytes())


def read_tvec(path):
    """Independent reader for the tvec format, used by the gates."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"TVEC":
        raise ValueError(f"{path}: not a tvec file")
    rank = blob[6]
    shape = struct.unpack(f"<{rank}Q", blob[7:7 + 8 * rank])
    return np.frombuffer(blob[7 + 8 * rank:], dtype="<f4").reshape(shape)


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    name = ""
    min_units = 1

    def __init__(self, work, seed, smoke):
        self.work = work
        self.rng = np.random.default_rng(seed)

    def unit(self, cli, k):
        """Run unit k through the CLI module `cli`; see unit_record. `first`
        is the time the first item of work started."""
        raise NotImplementedError

    def gates(self, units):
        """[(gate name, passed, detail)] over the units of one run."""
        raise NotImplementedError

    def final_loss_ratio(self, units):
        return 0.0

    def report(self, units):
        """Workload-specific figures for the human-readable report."""
        return {}


# --- training workloads ---


class _Training(Workload):
    min_units = 2  # the determinism gate compares units
    batch_size = 8
    steps = 0
    overrides = {}

    def __init__(self, work, seed, smoke):
        super().__init__(work, seed, smoke)
        # the seed draws the images; the config is the fixed recipe, with
        # RunConfig()'s warmup share (40 of 100 epochs) of a shorter run
        write_images(work / "images", self.rng, count=8, side=32, coarse=8)
        epochs = self.steps * self.batch_size / 8
        config = {"train": {"base_lr": 0.03, "batch_size": self.batch_size,
                            "warmup_epochs": 0.4 * epochs, "total_epochs": epochs}}
        for section, fields in self.overrides.items():
            config.setdefault(section, {}).update(fields)
        self.config = work / "config.json"
        self.config.write_text(json.dumps(config, indent=1))

    def _argv(self, out):
        return ["pretrain", "--config", str(self.config),
                "--images", str(self.work / "images"), "--out", str(out)]

    def unit(self, cli, k):
        trainer = sys.modules["featmim.trainer"]
        stamps = []  # lr_at runs once per step, so its first call starts step 0
        out = self.work / f"run{k}"
        with patched(trainer, "lr_at", stamping_first(trainer.lr_at, stamps)):
            rec = unit_record(*run_cli(cli, self._argv(out)), stamps[0] if stamps else None,
                              self.steps * self.batch_size)
        if rec["codes"] == [0]:
            rows = list(csv.DictReader(io.StringIO((out / "metrics.csv").read_text())))
            rec.update(l_patch=(float(rows[0]["L_patch"]), float(rows[-1]["L_patch"])),
                       csv_sha=_sha(out / "metrics.csv"),
                       ckpt_sha=_sha(out / f"ckpt_{len(rows)}.bin"))
        return rec

    def gates(self, units):
        ref = (units[0]["csv_sha"], units[0]["ckpt_sha"])
        same = all((u["csv_sha"], u["ckpt_sha"]) == ref for u in units)
        return [("identical metrics.csv and final checkpoint in every unit", same,
                 f"{len(units)} units")]

    def final_loss_ratio(self, units):
        first, last = units[0]["l_patch"]
        return last / first

    def report(self, units):
        return {"final_loss_ratio": self.final_loss_ratio(units)}


class OverfitB8(_Training):
    name = "overfit-b8"
    steps = 60

    def gates(self, units):
        ratio = self.final_loss_ratio(units)
        return super().gates(units) + [
            ("final L_patch below 10% of step 0", ratio < 0.1, f"ratio {ratio:.4f}")]


class PlainB1(_Training):
    name = "plain-b1"
    batch_size = 1
    steps = 400
    overrides = {"train": {"checkpoint_interval": 50},
                 "loss": {"lam": 0.0}, "model": {"multi_block": False}}


# --- teacher corpus ---


def oracle_similarity(tokens):
    """Naive double-loop reference for diversity.sample_similarity: plain
    Python cosines over unordered pairs (each stands for both orders)."""
    rows = [list(map(float, r)) for r in tokens]
    norms = [math.sqrt(math.fsum(a * a for a in r)) for r in rows]
    cos = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            cos.append(math.fsum(map(operator.mul, rows[i], rows[j])) / (norms[i] * norms[j]))
    lo, hi = min(cos), max(cos)
    if hi == lo:
        return min(max(lo, 0.0), 1.0)
    return math.fsum((c - lo) / (hi - lo) for c in cos) / len(cos)


class TeacherCorpus(Workload):
    name = "teacher-corpus"
    components = 16

    def __init__(self, work, seed, smoke):
        super().__init__(work, seed, smoke)
        self.n_images = 8 if smoke else 48
        self.teacher_seed = int(self.rng.integers(0, 2**31))
        self.query = int(self.rng.integers(0, 256))  # 16x16 tokens per image
        write_images(work / "images", self.rng, count=self.n_images, side=128, coarse=16)
        self.components_seen = None

    def unit(self, cli, k):
        w, feats = self.work, self.work / "feats"
        calls = [
            ["dump-features", "--teacher", "procedural", "--seed", str(self.teacher_seed),
             "--downsample", "16", "--target-dim", "128", "--patch-side", "8",
             "--images", str(w / "images"), "--out", str(feats)],
            ["diversity", "--features", str(feats), "--out", str(w / "diversity.json")],
            ["pca", "--features", str(feats), "--components", str(self.components),
             "--out", str(w / "pca.tvec")],
            ["heatmap", "--features", str(feats / "img000.tvec"), "--query", str(self.query),
             "--out", str(w / "heatmap.pgm")],
        ]
        real_pca = cli.pca_reduce

        def pca_reduce(*args, **kwargs):  # keep the components for the gate
            out = real_pca(*args, **kwargs)
            self.components_seen = out[1]
            return out

        wall, codes, errors, first = 0.0, [], [], None
        with patched(cli, "pca_reduce", pca_reduce):
            for argv in calls:
                code, t0, t1, err = run_cli(cli, argv)
                first = t0 if first is None else first
                wall += t1 - t0
                codes.append(code)
                if code:
                    errors.append(err)
                    break
        # busy: the whole pass, without the gaps between the calls
        return {"wall": wall, "codes": codes, "errors": errors, "first": first,
                "busy": wall, "images": self.n_images}

    def gates(self, units):
        w = self.work
        report = json.loads((w / "diversity.json").read_text())
        subset = (0, self.n_images - 1)
        worst = max(abs(report["per_sample"][i]
                        - oracle_similarity(read_tvec(w / "feats" / f"img{i:03d}.tvec")))
                    for i in subset)
        comps = self.components_seen
        ortho = float(np.abs(comps @ comps.T - np.eye(len(comps))).max())
        return [("diversity matches the double-loop oracle to 1e-12",
                 report["n"] == self.n_images and worst <= 1e-12,
                 f"max |diff| {worst:.2e} on samples {subset}"),
                ("PCA components orthonormal", ortho < 1e-9, f"max |C C^T - I| {ortho:.2e}")]


WORKLOADS = {w.name: w for w in (OverfitB8, PlainB1, TeacherCorpus)}

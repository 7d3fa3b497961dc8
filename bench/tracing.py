"""Span tracer installed on featmim from outside the program.

`Tracer.install` wraps every public function of each layer module (and the
few methods the per-layer metrics need) by patching module and class
attributes. A function that another featmim module imported by name, such
as `from .model import forward` in trainer.py, is rebound there as well, so
those calls are timed too. Each span records name, start, end and parent;
spans stay in compact arrays until `save` writes them out.

`Tracer.per_layer` turns the spans into the per-layer metrics listed in
BENCHMARK.json. A metric whose layer the workload never calls reads 0.
"""

import functools
import inspect
import os
import time
from array import array

import numpy as np

LAYERS = ("tensor", "model", "losses", "masking", "teacher", "trainer",
          "diversity", "analysis", "imageio")

# Methods wrapped besides module-level functions: (module, class, method).
METHODS = (("teacher", "ProceduralConvTeacher", "features"),
           ("trainer", "FeatureCache", "get"))

# Tensor functions that record one tape node per call (tmean records two,
# through its own calls to tsum and mul).
TAPE_OPS = ("add", "sub", "mul", "neg", "square", "absolute", "where", "relu",
            "gelu", "matmul", "transpose", "reshape", "concat", "gather_rows",
            "scatter_rows", "tsum", "softmax", "layer_norm")

# Ops whose forward self time per step is reported one by one.
REPORTED_OPS = ("matmul", "add", "softmax", "layer_norm", "gelu", "transpose",
                "reshape", "gather_rows", "scatter_rows", "where")

UNIT = "bench.unit"  # root span of one unit of work; not a layer


def unit_of(metric):
    """Unit of a per-layer metric, read off its name."""
    if "_ms" in metric:
        return "ms"
    if metric.endswith("_us"):
        return "us"
    if "bytes" in metric:
        return "B"
    if metric.endswith(("ratio", "share", "coverage")):
        return "ratio"
    return "count"


def _encoded_bytes(tracer, args, kwargs, out):
    tracer.io_bytes += len(out)


def _decoded_bytes(tracer, args, kwargs, out):
    offset = args[2] if len(args) > 2 else kwargs.get("offset", 0)
    tracer.io_bytes += out[1] - offset


def _checkpoint_bytes(tracer, args, kwargs, out):
    tracer.checkpoint_bytes += os.path.getsize(args[0])


# Byte counters, run after a span closes so their cost stays outside it.
AFTER = {"tensor.tvec_bytes": _encoded_bytes,
         "tensor.tvec_from_bytes": _decoded_bytes,
         "model.save_checkpoint": _checkpoint_bytes}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.io_bytes = 0
        self.checkpoint_bytes = 0

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name):
        nid = self._intern(name)
        after = AFTER.get(name)
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends, clock, tracer = self.start, self.end, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return traced

    def call_unit(self, fn):
        """Run fn() as one unit of work under a root span."""
        return self.wrap(fn, UNIT)()

    def install(self, modules):
        """Wrap the layers of a freshly imported featmim.

        modules maps module name to module for every loaded featmim module.
        """
        wrapped = {}
        for layer in LAYERS:
            mod = modules[f"featmim.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.wrap(obj, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[f"featmim.{layer}"], cls_name)
            setattr(cls, method,
                    self.wrap(getattr(cls, method), f"{layer}.{cls_name}.{method}"))

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.array(self.name),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end))

    def per_layer(self):
        """Per-layer metrics from the recorded spans (see BENCHMARK.json)."""
        s = _Spans(self)
        steps = s.count("trainer.adamw_step")
        units = s.count(UNIT)
        unit_wall = s.inclusive(UNIT)

        def per_step(x):
            return x / steps if steps else 0.0

        m = {
            "tensor.ops_per_step": per_step(s.count(*[f"tensor.{op}" for op in TAPE_OPS])),
            "tensor.backward_ms_per_step": per_step(1e3 * s.inclusive("tensor.backward")),
            "tensor.ops_per_forward": s.ops_per_forward(),
        }
        for op in REPORTED_OPS:
            m[f"tensor.op.{op}.self_ms_per_step"] = per_step(1e3 * s.self_time(f"tensor.{op}"))
        m.update({
            "tensor.io.write_ms_per_file": s.mean_ms("tensor.write_tvec"),
            "tensor.io.read_ms_per_file": s.mean_ms("tensor.read_tvec"),
            "tensor.io.bytes": self.io_bytes / units,
            "model.forward_ms_per_img": s.mean_ms("model.forward"),
            "model.patch_embed_ms": s.mean_ms("model.patch_embed"),
            "model.encode_ms": s.mean_ms("model.encode_visible"),
            "model.decode_ms": s.mean_ms("model.decode"),
            "model.project_ms": s.mean_ms("model.project_global"),
            "model.checkpoint_ms": s.mean_ms("model.save_checkpoint"),
            "model.checkpoints": s.count("model.save_checkpoint") / units,
            "model.checkpoint_bytes": (self.checkpoint_bytes / s.count("model.save_checkpoint")
                                       if s.count("model.save_checkpoint") else 0.0),
            "losses.patch_ms_per_img": s.mean_ms("losses.patch_loss"),
            "losses.global_ms_per_img": s.mean_ms("losses.global_loss"),
        })
        step_ms = s.step_intervals_ms()
        m.update({
            "trainer.step_ms_p50": float(np.percentile(step_ms, 50)) if len(step_ms) else 0.0,
            "trainer.step_ms_p90": float(np.percentile(step_ms, 90)) if len(step_ms) else 0.0,
            "trainer.step_samples": float(len(step_ms)),
            "trainer.adamw_ms_per_step": per_step(1e3 * s.inclusive("trainer.adamw_step")),
            "trainer.self_ms_per_step": per_step(1e3 * s.layer_self("trainer")),
            "masking.mask_us": 1e3 * s.mean_ms("masking.generate_mask"),
            "masking.masks_per_step": per_step(s.count("masking.generate_mask")),
            "teacher.features_ms_per_img": s.mean_ms("teacher.ProceduralConvTeacher.features"),
            "teacher.align_ms_per_img": s.mean_ms("teacher.align_input"),
            "teacher.cache_hit_ratio": s.cache_hit_ratio(),
            "imageio.load_ms_per_img": (1e3 * s.inclusive("imageio.load_images")
                                        / s.count("imageio.read_pnm")
                                        if s.count("imageio.read_pnm") else 0.0),
            "diversity.sample_ms": s.mean_ms("diversity.sample_similarity"),
            "analysis.pca_ms": s.mean_ms("analysis.pca_reduce"),
            "analysis.heatmap_ms": s.mean_ms("analysis.heatmap"),
        })
        layer_self = {layer: s.layer_self(layer) for layer in LAYERS}
        for layer in LAYERS:
            m[f"{layer}.self_share"] = layer_self[layer] / unit_wall
        m["trace.coverage"] = sum(layer_self.values()) / unit_wall
        return m


class _Spans:
    """Array view of a tracer's spans with the queries per_layer needs."""

    def __init__(self, tracer):
        self.ids = dict(tracer._ids)
        self.names = list(tracer.names)
        self.name = np.array(tracer.name, dtype=np.int64)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.start = np.array(tracer.start)
        self.end = np.array(tracer.end)
        self.dur = self.end - self.start
        nested = self.parent >= 0
        child = np.bincount(self.parent[nested], weights=self.dur[nested],
                            minlength=len(self.dur))
        self.self_dur = self.dur - child

    def mask(self, *names):
        ids = [self.ids[n] for n in names if n in self.ids]
        return np.isin(self.name, ids)

    def count(self, *names):
        return int(self.mask(*names).sum())

    def inclusive(self, name):
        return float(self.dur[self.mask(name)].sum())

    def self_time(self, name):
        return float(self.self_dur[self.mask(name)].sum())

    def mean_ms(self, name):
        sel = self.mask(name)
        return 1e3 * float(self.dur[sel].mean()) if sel.any() else 0.0

    def layer_self(self, layer):
        names = [n for n in self.names if n.split(".", 1)[0] == layer]
        return float(self.self_dur[self.mask(*names)].sum())

    def _inside(self, inner, outer):
        """For each span selected by `inner`, the index (into the spans selected
        by `outer`) of the outer span it lies in, or -1. Outer spans must not
        overlap one another."""
        o_start, o_end = self.start[outer], self.end[outer]
        pos = np.searchsorted(o_start, self.start[inner], side="right") - 1
        ok = pos >= 0
        ok[ok] = self.start[inner][ok] <= o_end[pos[ok]]
        return np.where(ok, pos, -1)

    def ops_per_forward(self):
        fwd = self.mask("model.forward")
        if not fwd.any():
            return 0.0
        ops = self.mask(*[f"tensor.{op}" for op in TAPE_OPS])
        return float((self._inside(ops, fwd) >= 0).sum() / fwd.sum())

    def step_intervals_ms(self):
        """Time between the ends of consecutive AdamW updates within one
        training run: a whole loop iteration, CSV row and checkpoint included."""
        adamw = self.mask("trainer.adamw_step")
        runs = self.mask("trainer.train")
        if not adamw.any():
            return np.zeros(0)
        run_of = self._inside(adamw, runs)
        ends = self.end[adamw]
        same_run = run_of[1:] == run_of[:-1]
        return 1e3 * np.diff(ends)[same_run]

    def cache_hit_ratio(self):
        gets = self.mask("trainer.FeatureCache.get")
        if not gets.any():
            return 0.0
        feats = self.mask("teacher.ProceduralConvTeacher.features")
        misses = np.isin(self.parent[feats], np.flatnonzero(gets)).sum()
        return float(1.0 - misses / gets.sum())

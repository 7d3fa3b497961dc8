"""The benchmark under bench/ wraps and patches featmim from outside by
name. A renamed or deleted name would make it fail or read zeros, so every
name it binds must keep resolving."""

import importlib

import pytest

BENCH_BOUND_NAMES = (
    "trainer.lr_at", "trainer.train", "trainer.adamw_step", "trainer.FeatureCache.get",
    "teacher.ProceduralConvTeacher.features", "teacher.align_input",
    "model.forward", "model.decode", "model.project_global", "model.save_checkpoint",
    "losses.global_loss", "masking.generate_mask", "tensor.backward", "cli.pca_reduce",
    "model.patch_embed", "model.encode_visible", "losses.patch_loss",
    "imageio.load_images", "imageio.read_pnm",
    "diversity.sample_similarity", "analysis.pca_reduce", "analysis.heatmap",
    "tensor.read_tvec", "tensor.write_tvec", "tensor.tvec_bytes", "tensor.tvec_from_bytes",
    "cli.main",
)


@pytest.mark.parametrize("dotted", BENCH_BOUND_NAMES)
def test_bench_bound_name_resolves(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"featmim.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)

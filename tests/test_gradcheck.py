import numpy as np
import pytest

import featmim.tensor
from featmim.config import RunConfig
from featmim.errors import ConfigError
from featmim.gradcheck import grad_check, tiny_run_config
from featmim.losses import LossConfig
from featmim.masking import MaskSpec
from featmim.model import ModelConfig
from featmim.teacher import TeacherSpec


def micro_config(lam=0.5):
    # smallest legal geometry, for fast unit runs; the acceptance suite uses
    # the larger tiny_run_config
    return RunConfig(
        mask=MaskSpec(image_side=16, patch_side=8, block_side=8, mask_ratio=0.5, seed=1),
        model=ModelConfig(patch_side=8, embed_dim=4, enc_depth=1, enc_heads=2,
                          dec_depth=1, dec_width=4, dec_heads=2, target_dim=4,
                          use_cls=True, multi_block=True),
        loss=LossConfig(beta=2.0, lam=lam),
        teacher=TeacherSpec(kind="procedural-conv", downsample_rate=8,
                            target_dim=4, seed=2),
    )


@pytest.fixture(scope="module")
def micro_report():
    """One grad_check(micro_config(), in_channels=1) report, shared by the
    tests that read the unpatched check's result."""
    return grad_check(micro_config(), in_channels=1)


def test_micro_model_gradients_pass(micro_report):
    report = micro_report
    assert report["max_rel_err"] < 1e-4
    assert report["n_parameters"] > 100


def test_batched_gradients_pass(distinct_gathers):
    # two images in one graph: stacked rows, per-sequence attention and the
    # per-image loss reductions all differentiate correctly, and no gather
    # reads a row of a twice
    report = grad_check(micro_config(), in_channels=1, batch_size=2)
    assert report["max_rel_err"] < 1e-4
    assert distinct_gathers


def test_lambda_zero_isolates_patch_path():
    report = grad_check(micro_config(lam=0.0), in_channels=1)
    assert report["max_rel_err"] < 1e-4
    # the projector head cannot influence the loss, so both gradient
    # estimates are exactly zero there
    for name, err in report["per_param"].items():
        if name.startswith("proj_"):
            assert err == 0.0


def test_corrupted_backward_is_detected(monkeypatch):
    # sanity check on the checker itself: a 5% error planted in one
    # analytic derivative must surface as a large reported error
    true_grad = featmim.tensor.gelu_grad
    monkeypatch.setattr(featmim.tensor, "gelu_grad", lambda x, t: 1.05 * true_grad(x, t))
    report = grad_check(micro_config(), in_channels=1)
    assert report["max_rel_err"] > 1e-2


def test_rejects_non_tiny_model():
    cfg = micro_config()
    cfg = cfg._replace(model=cfg.model._replace(embed_dim=64, enc_heads=4),
                       teacher=cfg.teacher._replace(target_dim=4))
    cfg = cfg._replace(model=cfg.model._replace(target_dim=4))
    with pytest.raises(ConfigError):
        grad_check(cfg)


def test_report_structure(micro_report):
    report = micro_report
    assert report["worst_param"] in report["per_param"]
    assert report["per_param"][report["worst_param"]] == report["max_rel_err"]
    assert report["max_rel_err"] < 1e-4
    # the keys and their order are the `featmim grad-check --out` JSON's
    assert list(report) == ["max_rel_err", "worst_param", "n_parameters", "per_param"]


def test_default_config_is_the_documented_tiny_one():
    cfg = tiny_run_config()
    cfg.validate()
    assert cfg.model.embed_dim == 8
    assert cfg.model.enc_depth == 2
    assert cfg.model.dec_depth == 1
    assert cfg.model.enc_heads == 2
    assert cfg.model.target_dim == 16

import numpy as np
import pytest
from conftest import fd_grad, params_of, rel_err
from hypothesis import given, settings
from hypothesis import strategies as st

from featmim import tensor as tn
from featmim.config import RunConfig
from featmim.errors import ConfigError
from featmim.losses import LossConfig, global_loss, patch_loss
from featmim.masking import generate_mask
from featmim.model import init_params
from featmim.synth import synthetic_image
from featmim.tensor import Tape, Tensor, backward
from featmim.trainer import FeatureCache, step_losses


def smooth_l1(x, beta):
    """smooth-L1 of each residual in x, as the patch-loss node computes it
    with prediction 0 and target x."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    return tn.smooth_l1(Tensor(np.zeros_like(x)), x, beta)[1]


def test_smooth_l1_hand_values():
    assert smooth_l1([0.0, 1.0, 2.0], 2.0).tolist() == [[0.0], [0.25], [1.0]]


def test_smooth_l1_continuity_at_beta():
    # both branch formulas agree at |x| = beta
    for beta in (0.5, 1.0, 2.0):
        quad = 0.5 * beta**2 / beta
        lin = beta - 0.5 * beta
        assert abs(quad - lin) < 1e-12
        assert np.abs(smooth_l1([beta, -beta], beta) - lin).max() < 1e-12


def test_smooth_l1_rejects_bad_beta():
    # the loss config is the one home of the rule; the loss nodes trust it
    for beta in (0.0, -1.0):
        with pytest.raises(ConfigError, match="beta must be positive"):
            RunConfig(loss=LossConfig(beta=beta)).validate()


@given(st.floats(-50, 50), st.sampled_from([0.5, 1.0, 2.0]))
def test_smooth_l1_even(x, beta):
    (a,), (b,) = smooth_l1([x, -x], beta)
    assert a == b
    assert a >= 0.0


def test_smooth_l1_gradient():
    # the summed smooth-L1 of the residual -x, through the patch-loss node
    rng = np.random.default_rng(0)
    for beta in (0.5, 2.0):
        x0 = rng.normal(size=8) * 3
        x0 = x0[np.abs(np.abs(x0) - beta) > 1e-3].reshape(-1, 1)  # FD away from the joint
        target = np.zeros_like(x0)

        def f(x):
            return float(tn.smooth_l1(Tensor(x), target, beta)[0].data)

        params = params_of({"x": x0.copy()})
        tape = Tape(params)
        backward(tape, tn.smooth_l1(params["x"], target, beta)[0])
        assert rel_err(params.grads["x"], fd_grad(f, x0)) < 1e-4


def test_patch_loss_zero_when_exact():
    y = np.arange(8.0).reshape(4, 2) + 1.0
    z = Tensor(y[[0, 2]])  # the predictions at the masked rows
    assert float(patch_loss(z, np.array([[0, 2]]), y, beta=2.0)[0].data) == 0.0


def test_patch_loss_single_token_hand_value():
    y = np.array([[1.0], [0.0], [0.0], [0.0]])
    z = Tensor(np.zeros((1, 1)))
    # one masked token, D_t = 1, residual 1, beta 2 -> 0.25
    assert float(patch_loss(z, np.array([[0]]), y, beta=2.0)[0].data) == 0.25


def test_patch_loss_ignores_visible_slots():
    # predictions exist for the masked rows only; the teacher tokens of the
    # visible rows are never read
    rng = np.random.default_rng(1)
    y0 = rng.normal(size=(9, 3))
    rows = np.array([[1, 4, 7]])
    z = Tensor(rng.normal(size=(3, 3)))
    y1 = y0.copy()
    y1[[0, 2, 3, 5, 6, 8]] += rng.normal(size=(6, 3)) * 100
    a = float(patch_loss(z, rows, y0, 2.0)[0].data)
    b = float(patch_loss(z, rows, y1, 2.0)[0].data)
    assert a == b


def test_patch_loss_empty_mask_rejected():
    # 0.1 of 4 blocks rounds to none masked: the mask spec is rejected first
    with pytest.raises(ConfigError, match="zero masked blocks"):
        RunConfig(mask=RunConfig().mask._replace(mask_ratio=0.1)).validate()


def test_patch_loss_shape_mismatch():
    # predictions are model.target_dim wide: a teacher of another width is
    # rejected where the corpus is built, before any loss runs
    cfg = RunConfig()
    cfg = cfg._replace(teacher=cfg.teacher._replace(target_dim=32))
    with pytest.raises(ConfigError, match="teacher target_dim 32 != model target_dim 16"):
        FeatureCache(cfg, [("img", synthetic_image(32, 3, seed=0))])


def test_patch_loss_permutation_invariant_over_masked():
    rng = np.random.default_rng(2)
    y = rng.normal(size=(9, 4))
    z = rng.normal(size=(9, 4))  # a prediction for every row, read at the masked ones
    a = float(patch_loss(Tensor(z[[0, 3, 5]]), np.array([[0, 3, 5]]), y, 2.0)[0].data)
    b = float(patch_loss(Tensor(z[[5, 0, 3]]), np.array([[5, 0, 3]]), y, 2.0)[0].data)
    assert a == b


def test_patch_loss_monotone_in_residual_scale():
    rng = np.random.default_rng(3)
    y = rng.normal(size=(9, 4))
    rows = np.array([[2, 6]])
    base = rng.normal(size=(9, 4))
    losses = []
    for c in (1.0, 1.5, 2.0, 4.0):
        z = (y - c * base)[rows[0]]  # residual y - z = c * base at the masked rows
        losses.append(float(patch_loss(Tensor(z), rows, y, 2.0)[0].data))
    assert all(b >= a for a, b in zip(losses, losses[1:]))


def test_global_loss_zero_when_means_match():
    rng = np.random.default_rng(4)
    means = rng.normal(size=(4, 3)).mean(axis=0)[None]
    p_h = Tensor(np.tile(means, (3, 1)))
    assert abs(float(global_loss(p_h, means, 2.0)[0].data)) < 1e-12


def test_global_loss_linear_branch_hand_value():
    # D_t = 1, means differ by 3, beta 2 -> |3| - 1 = 2
    p_h = Tensor(np.zeros((2, 1)))
    assert float(global_loss(p_h, np.array([[3.0]]), 2.0)[0].data) == 2.0


def test_global_loss_constant_shift_invariant():
    rng = np.random.default_rng(5)
    y = rng.normal(size=(4, 3))
    p0 = rng.normal(size=(3, 3))
    shift = rng.normal(size=3)
    a = float(global_loss(Tensor(p0), y.mean(axis=0)[None], 2.0)[0].data)
    b = float(global_loss(Tensor(p0 + shift), (y + shift).mean(axis=0)[None], 2.0)[0].data)
    assert abs(a - b) < 1e-12


def test_global_loss_permutation_invariant():
    rng = np.random.default_rng(6)
    y = rng.normal(size=(4, 3))
    p0 = rng.normal(size=(3, 3))
    a = float(global_loss(Tensor(p0), y.mean(axis=0)[None], 2.0)[0].data)
    b = float(global_loss(Tensor(p0[::-1].copy()), y[::-1].mean(axis=0)[None], 2.0)[0].data)
    assert abs(a - b) < 1e-12


def test_global_loss_empty_visible_rejected():
    # 0.9 of 4 blocks rounds to all masked: the mask spec is rejected first
    with pytest.raises(ConfigError, match="all 4 blocks masked"):
        RunConfig(mask=RunConfig().mask._replace(mask_ratio=0.9)).validate()


def test_total_loss_arithmetic():
    # the trainer's step tapes patch + lam * global and logs the global loss
    # unweighted; at lam=0 it tapes the patch loss alone and logs 0.0
    cfg = RunConfig()
    images = [(f"img{i}", synthetic_image(32, 3, seed=i, dtype=np.float64)) for i in range(2)]
    cache, masks = FeatureCache(cfg, images), generate_mask(cfg.mask, [0, 1])
    params = init_params(cfg.model, 32, 3, seed=0, dtype=np.float64)
    runs = {lam: step_losses(params, cache, [0, 1], masks, cfg.loss._replace(lam=lam))
            for lam in (0.0, 0.5, 1.0)}
    l_patch, l_global = runs[0.0][1], runs[1.0][2]
    assert runs[0.0][2] == 0.0 and runs[0.5][2] == l_global > 0.0
    for lam, (loss, lp, _, lt) in runs.items():
        assert lp == l_patch
        assert abs(float(loss.data) - (l_patch + lam * l_global)) < 1e-15
        assert abs(lt - (l_patch + lam * l_global)) < 1e-15


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    y = rng.normal(size=(9, 4))
    rows, means = np.array([[1, 4]]), y.mean(axis=0)[None]
    z0 = rng.normal(size=(2, 4))
    p0 = rng.normal(size=(7, 4))

    def f_patch(z):
        return float(patch_loss(Tensor(z), rows, y, 2.0)[0].data)

    def f_global(p):
        return float(global_loss(Tensor(p), means, 2.0)[0].data)

    params = params_of({"z": z0.copy(), "p": p0.copy()})
    tape = Tape(params)
    loss = tn.add(patch_loss(params["z"], rows, y, 2.0)[0],
                  tn.mul(global_loss(params["p"], means, 2.0)[0], 0.5))
    backward(tape, loss)
    grads = params.grads
    assert rel_err(grads["z"], fd_grad(f_patch, z0)) < 1e-4
    assert rel_err(grads["p"], 0.5 * fd_grad(f_global, p0)) < 1e-4


def test_loss_config_validation():
    LossConfig().validate()
    with pytest.raises(ConfigError):
        LossConfig(beta=0.0).validate()
    with pytest.raises(ConfigError):
        LossConfig(lam=-1.0).validate()

import csv
import gc
import io
import itertools
import math
import pathlib
import weakref

import numpy as np
import pytest

import featmim.trainer
from conftest import (full_composition_step, inline_shuffle, pack_sorted,
                      per_name_backward, per_parameter_adamw)
from featmim.config import RunConfig
from featmim.errors import ConfigError, NumericError
from featmim.losses import patch_loss
from featmim.masking import SplitMix64, generate_mask
import featmim.model
from featmim.model import forward, init_params, load_checkpoint, patchify
from featmim.synth import synthetic_image
from featmim.teacher import ProceduralConvTeacher
from featmim.tensor import Tape, Tensor, backward
from featmim.trainer import (FeatureCache, OptimizerState, TrainConfig, adamw_step,
                             lr_at, scaled_lr, step_losses, train)

CFG10 = TrainConfig(base_lr=1.5e-4, batch_size=4096, warmup_epochs=40, total_epochs=1600)


def small_cfg(**train_over):
    cfg = RunConfig()
    train_fields = dict(total_epochs=3.0, warmup_epochs=1.0, base_lr=0.02,
                        batch_size=4, seed=0)
    train_fields.update(train_over)
    return cfg._replace(train=cfg.train._replace(**train_fields)).validate()


def small_images(n=4):
    return [(f"img{i}", synthetic_image(32, 3, seed=i)) for i in range(n)]


def test_scaled_lr_reference_values():
    assert scaled_lr(1.5e-4, 4096) == 2.4e-3
    assert scaled_lr(1.5e-4, 256) == 1.5e-4
    assert scaled_lr(1.5e-4, 1) == 1.5e-4 / 256


def test_lr_at_boundaries():
    peak = scaled_lr(CFG10.base_lr, CFG10.batch_size)
    assert lr_at(40.0, CFG10) == peak
    assert lr_at(1600.0, CFG10) == 0.0
    mid = (40.0 + 1600.0) / 2
    assert abs(lr_at(mid, CFG10) - peak / 2) < 1e-15
    assert lr_at(0.0, CFG10) == 0.0


def test_lr_at_continuity_at_warmup():
    assert abs(lr_at(40.0, CFG10) - lr_at(40.0 - 1e-9, CFG10)) < 1e-12


def test_lr_at_monotone_rampup_and_nonnegative():
    for t in np.linspace(0, 1600, 200):
        assert lr_at(float(t), CFG10) >= 0.0
    ramp = [lr_at(t, CFG10) for t in np.linspace(0, 40, 50)]
    assert all(b >= a for a, b in zip(ramp, ramp[1:]))


def test_train_asks_lr_at_only_inside_the_schedule(tmp_path, monkeypatch):
    # lr_at trusts its caller: train's epochs run from 0 in steps of
    # 1 / steps_per_epoch (3 here) and stay below total_epochs, however the
    # step count rounds
    epochs, real_lr_at = [], featmim.trainer.lr_at

    def recording_lr_at(t, cfg):
        epochs.append(t)
        return real_lr_at(t, cfg)

    monkeypatch.setattr(featmim.trainer, "lr_at", recording_lr_at)
    for total_epochs in (1.0, 2.6, 3.4):
        epochs.clear()
        cfg = small_cfg(total_epochs=total_epochs, warmup_epochs=0.5, batch_size=2)
        result = train(cfg, small_images(5), tmp_path / str(total_epochs))
        assert epochs == [step / 3 for step in range(result.total_steps)]
        assert max(epochs) < total_epochs


def test_lr_at_no_warmup():
    cfg = TrainConfig(base_lr=0.01, batch_size=256, warmup_epochs=0, total_epochs=10)
    assert lr_at(0.0, cfg) == 0.01
    assert lr_at(10.0, cfg) == 0.0


def test_adamw_zero_grad_no_decay_is_identity():
    p = np.array([1.0, -2.0])
    state = OptimizerState()
    adamw_step(p, np.zeros(2), state, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(p, [1.0, -2.0])


def test_adamw_first_step_hand_value():
    # theta=0, g=1, wd=0, lr=0.1: bias-corrected m_hat/sqrt(v_hat) = 1
    p = np.array([0.0])
    state = OptimizerState()
    adamw_step(p, np.array([1.0]), state, lr=0.1,
               beta1=0.9, beta2=0.95, weight_decay=0.0)
    assert abs(p[0] + 0.1) < 1e-8
    assert state.step == 1


def test_adamw_decoupled_decay_pure_shrink():
    p = np.array([2.0])
    state = OptimizerState()
    adamw_step(p, np.zeros(1), state, lr=0.1, weight_decay=0.5)
    np.testing.assert_allclose(p, 2.0 * (1 - 0.1 * 0.5), rtol=1e-15)


def test_adamw_non_finite_update_leaves_the_weights():
    p = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite update in 0$"):
        adamw_step(p, np.ones_like(p), OptimizerState(), lr=1e308)
    assert p.tolist() == [1.0, 2.0, 3.0]


def test_adamw_state_shapes_track_parameters():
    rng = np.random.default_rng(0)
    p = rng.normal(size=11)
    g = rng.normal(size=11)
    state = OptimizerState()
    adamw_step(p, g, state, lr=0.01)
    assert state.m.shape == (11,)
    assert state.v.shape == (11,)
    adamw_step(p, g, state, lr=0.01)
    assert state.step == 2


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_adamw_matches_per_parameter_oracle_bitwise(dtype):
    params = init_params(RunConfig().model, 32, 3, seed=0, dtype=dtype)
    names = sorted(params)
    ref = {k: t.data.copy() for k, t in params.items()}
    state, ref_state = OptimizerState(), {}
    rng = np.random.default_rng(7)
    for step in range(5):
        grads = {k: rng.normal(size=v.shape).astype(dtype) for k, v in ref.items()}
        flat_grad = pack_sorted(grads)
        lr = 0.01 / (step + 1)
        adamw_step(params.flat, flat_grad, state, lr)
        per_parameter_adamw(ref, grads, ref_state, lr)
        for k in names:
            assert params[k].data.tobytes() == ref[k].tobytes(), (step, k)
        np.testing.assert_array_equal(state.m, pack_sorted(ref_state["m"]))
        np.testing.assert_array_equal(state.v, pack_sorted(ref_state["v"]))


def test_loss_finite_at_init_across_seeds():
    cfg = small_cfg()
    image = synthetic_image(32, 3, seed=1)
    masked, visible = generate_mask(cfg.mask, [cfg.mask.seed])
    cache = FeatureCache(cfg, [("img", image)])
    for seed in range(100):
        params = init_params(cfg.model, 32, 3, seed=seed)
        z, _ = forward(cache.patches, (masked, visible), params)
        assert np.isfinite(float(patch_loss(z, masked, cache.tokens[0], 2.0)[0].data))


def test_train_determinism_bitwise(tmp_path):
    cfg = small_cfg()
    images = small_images()
    ra = train(cfg, images, tmp_path / "a")
    rb = train(cfg, images, tmp_path / "b")
    assert pathlib.Path(ra.metrics_csv).read_bytes() == pathlib.Path(rb.metrics_csv).read_bytes()
    assert (pathlib.Path(ra.final_checkpoint).read_bytes()
            == pathlib.Path(rb.final_checkpoint).read_bytes())


def test_train_seed_changes_trajectory(tmp_path):
    images = small_images()
    ra = train(small_cfg(seed=0), images, tmp_path / "a")
    rb = train(small_cfg(seed=1), images, tmp_path / "b")
    assert pathlib.Path(ra.metrics_csv).read_bytes() != pathlib.Path(rb.metrics_csv).read_bytes()


def test_metrics_csv_shape(tmp_path):
    cfg = small_cfg()
    result = train(cfg, small_images(), tmp_path)
    rows = list(csv.DictReader(io.StringIO(pathlib.Path(result.metrics_csv).read_text())))
    assert len(rows) == result.total_steps == 3
    assert list(rows[0]) == ["step", "epoch", "lr", "L_patch", "L_global", "L_total"]
    for row in rows:
        assert np.isfinite(float(row["L_total"]))
    assert float(rows[0]["lr"]) == 0.0  # warmup starts at zero


def test_checkpoint_interval_and_final(tmp_path, monkeypatch):
    # total steps a multiple of the interval: the last interval checkpoint is
    # the final one, written once
    saved = []
    save = featmim.trainer.save_checkpoint
    monkeypatch.setattr(featmim.trainer, "save_checkpoint",
                        lambda path, params: saved.append(path) or save(path, params))
    cfg = small_cfg(total_epochs=4.0, warmup_epochs=1.0)
    cfg = cfg._replace(train=cfg.train._replace(checkpoint_interval=2))
    result = train(cfg, small_images(), tmp_path)
    names = sorted(p.name for p in tmp_path.glob("ckpt_*.bin"))
    assert names == ["ckpt_2.bin", "ckpt_4.bin"]
    assert len(saved) == len(set(saved)) == len(names)
    assert result.final_checkpoint.endswith("ckpt_4.bin")


def test_final_checkpoint_matches_live_params(tmp_path):
    cfg = small_cfg()
    images = small_images()
    result = train(cfg, images, tmp_path)
    loaded = load_checkpoint(result.final_checkpoint)
    masks = generate_mask(cfg.mask, [cfg.mask.seed])
    z, _ = forward(patchify(images[0][1], 8)[None], masks, loaded)
    assert np.isfinite(z.data).all()


def test_feature_cache_is_stable():
    # row k of each stacked array is, bitwise, what get makes for the k-th
    # image given, and a second get makes the same bytes again
    cfg = RunConfig()
    images = [(f"x{i}", synthetic_image(32, 3, seed=i)) for i in (2, 0, 1)]
    cache = FeatureCache(cfg._replace(teacher=cfg.teacher._replace(seed=3)), images)
    assert (cache.patches.shape, cache.tokens.shape, cache.means.shape) == (
        (3, 16, 192), (3, 16, 16), (3, 16))
    for k, (image_id, img) in enumerate(images):
        patches, tokens, mean = cache.get(image_id, img)
        assert patches.tobytes() == patchify(img, 8).tobytes()
        assert mean.tobytes() == tokens.mean(axis=0).tobytes()
        for row, got in zip((cache.patches, cache.tokens, cache.means), (patches, tokens, mean)):
            assert row[k].dtype == got.dtype and row[k].tobytes() == got.tobytes()
        assert cache.get(image_id, img)[1].tobytes() == tokens.tobytes()


def test_the_corpus_is_read_only(tmp_path, monkeypatch):
    # the teacher is frozen, so the stacked arrays refuse writes; a full run
    # only reads them
    caches = []
    real_init = FeatureCache.__init__

    def recording_init(self, *args):
        real_init(self, *args)
        caches.append(self)

    monkeypatch.setattr(FeatureCache, "__init__", recording_init)
    result = train(small_cfg(), small_images(), tmp_path)
    assert result.total_steps == 3 and np.isfinite(result.final_l_total)
    (cache,) = caches
    for a in (cache.patches, cache.tokens, cache.means):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_multi_epoch_run_extracts_each_image_once(tmp_path, monkeypatch):
    # the teacher and patchify run once per image, in image order, before the
    # first step, however many epochs and steps follow
    features, patchified = [], []
    real_features, real_patchify = ProceduralConvTeacher.features, featmim.trainer.patchify

    def counting_features(self, image, source_id=""):
        features.append(source_id)
        return real_features(self, image, source_id)

    def counting_patchify(image, patch_side):
        patchified.append(len(features))
        return real_patchify(image, patch_side)

    monkeypatch.setattr(ProceduralConvTeacher, "features", counting_features)
    monkeypatch.setattr(featmim.trainer, "patchify", counting_patchify)
    images = small_images(5)
    result = train(small_cfg(batch_size=2, total_epochs=4.0), images, tmp_path)
    assert result.total_steps == 12
    assert features == [image_id for image_id, _ in images]
    assert patchified == [1, 2, 3, 4, 5]


def test_train_validates_inputs(tmp_path):
    cfg = small_cfg()
    with pytest.raises(ConfigError):
        train(cfg, [], tmp_path)
    wrong_size = [("a", synthetic_image(64, 3, seed=0))]
    with pytest.raises(ConfigError):
        train(cfg, wrong_size, tmp_path)
    mixed = [("a", synthetic_image(32, 3, seed=0)), ("b", synthetic_image(32, 1, seed=1))]
    with pytest.raises(ConfigError):
        train(cfg, mixed, tmp_path)


def test_train_rejects_teacher_dim_mismatch(tmp_path):
    cfg = small_cfg()
    cfg = cfg._replace(teacher=cfg.teacher._replace(target_dim=8))
    with pytest.raises(ConfigError):
        cfg.validate()


def test_full_step_at_lambda_zero_matches_baseline_losses(tmp_path, monkeypatch):
    # at lam=0 the step leaves the global branch off the tape; the full
    # composition lp + 0 * lg follows the same parameter trajectory because
    # zero-weighted global gradients are exact zeros. Multi-block stays on,
    # as in the lam=0 row of a lambda sweep: only L_global differs.
    cfg = small_cfg(total_epochs=5.0)
    cfg = cfg._replace(loss=cfg.loss._replace(lam=0.0))
    images = small_images()
    step = train(cfg, images, tmp_path / "step")
    monkeypatch.setattr(featmim.trainer, "step_losses", full_composition_step)
    full = train(cfg, images, tmp_path / "full")

    def cols(path, *names):
        rows = list(csv.DictReader(io.StringIO(pathlib.Path(path).read_text())))
        return [[r[n] for r in rows] for n in names]

    assert (cols(step.metrics_csv, "L_patch", "L_total")
            == cols(full.metrics_csv, "L_patch", "L_total"))
    (step_lg,), (full_lg,) = cols(step.metrics_csv, "L_global"), cols(full.metrics_csv, "L_global")
    assert set(step_lg) == {"0.0"}
    assert all(float(v) > 0.0 for v in full_lg)
    assert (pathlib.Path(step.final_checkpoint).read_bytes()
            == pathlib.Path(full.final_checkpoint).read_bytes())


def test_default_step_op_budget(tmp_path, monkeypatch):
    # one default-recipe step records 56 tape ops at batch 1 and at batch 8:
    # the minibatch is one graph; each dense layer and attention is one op,
    # each loss one op from prediction to weighted scalar, one gather each
    # places the CLS and the mask tokens, and two pick the last decoder
    # block's masked rows, so a per-image loop or an unfused path coming
    # back raises the count. The parameter tensors are bound once per run:
    # from its first lr_at call to its backward, the step creates its 56 op
    # tensors on the tape and no tensor over a weight
    real_backward, real_lr_at = featmim.trainer.backward, featmim.trainer.lr_at
    real_init = Tensor.__init__
    created = []

    def recording_init(self, data):
        real_init(self, data)
        created.append(self)

    def step_start(t, cfg):
        created.clear()
        return real_lr_at(t, cfg)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    monkeypatch.setattr(featmim.trainer, "lr_at", step_start)
    for batch_size in (1, 8):
        cfg = RunConfig()
        cfg = cfg._replace(train=cfg.train._replace(batch_size=batch_size, total_epochs=1.0,
                                                    warmup_epochs=0.5)).validate()
        ops_per_step, tensors_per_step = [], []

        def counting_backward(tape, loss):
            ops_per_step.append(len(tape._ops))
            weights = {id(t.data) for t in tape.params.values()}
            on_tape = sorted(t.idx for t in created if t.tape is tape)
            n_params = len(weights)
            tensors_per_step.append((on_tape == list(range(n_params, n_params + 56)),
                                     sum(id(t.data) in weights for t in created)))
            return real_backward(tape, loss)

        monkeypatch.setattr(featmim.trainer, "backward", counting_backward)
        train(cfg, small_images(batch_size), tmp_path / f"b{batch_size}")
        assert ops_per_step == [56], batch_size
        assert tensors_per_step == [(True, 0)], batch_size


@pytest.mark.parametrize("batch_size", [1, 8])
def test_backward_writes_the_flat_gradient_of_the_per_name_oracle(batch_size):
    # the buffer, filled with NaN first, comes back bitwise equal to the
    # per-name gradients packed in sorted name order; at lam=0 the global
    # head's parameters are not reached and read exact +0.0
    cfg = RunConfig()
    loss_cfg = cfg.loss._replace(lam=0.0)
    params = init_params(cfg.model, 32, 3, seed=0)
    batch = _step_batch(cfg, batch_size, np.float32)

    def taped_loss():
        tape = Tape(params)
        return tape, step_losses(params, *batch, loss_cfg)[0]

    tape, loss = taped_loss()
    params.grad[...] = np.nan
    flat = backward(tape, loss)
    want = per_name_backward(*taped_loss())
    assert flat is params.grad and flat.tobytes() == pack_sorted(want).tobytes()
    head = [k for k in want if k.startswith("proj_")]
    assert len(head) == 4
    for k in head:
        assert params.grads[k].tobytes() == np.zeros_like(want[k]).tobytes(), k
    assert all(np.any(g != 0) for k, g in params.grads.items() if k not in head)


def _step_batch(cfg, n, dtype):
    """step_losses' cache, idx and masks for n synthetic images, in order."""
    images = [(f"img{i}", synthetic_image(32, 3, seed=i, dtype=dtype)) for i in range(n)]
    cache = FeatureCache(cfg, images)  # the default teacher: width 16, rate 8, seed 0
    return cache, list(range(n)), generate_mask(cfg.mask, range(n))


def test_every_step_gather_reads_each_row_of_a_once(distinct_gathers):
    # the precondition gather_rows' backward rests on, over the step's
    # configurations: CLS on and off, multi-block on and off, lam 0 and 0.5
    for use_cls, multi_block, lam, batch in itertools.product(
            (True, False), (True, False), (0.0, 0.5), (1, 3, 8)):
        cfg = RunConfig()
        cfg = cfg._replace(model=cfg.model._replace(use_cls=use_cls, multi_block=multi_block))
        params = init_params(cfg.model, 32, 3, seed=0)
        tape = Tape(params)
        backward(tape, step_losses(params, *_step_batch(cfg, batch, np.float32),
                                   cfg.loss._replace(lam=lam))[0])
    # each step gathers its restore index and the last decoder block's query
    # and residual rows; with CLS also its encoder input and the patch rows
    # after each of the two encoder blocks
    assert len(distinct_gathers) == 24 * 3 + 12 * 3


def test_batched_step_is_the_mean_of_one_image_steps():
    # float64 oracle: one taped graph over four images gives the mean loss,
    # logged values and gradient of four one-image steps, to 1e-12
    cfg = RunConfig()
    params = init_params(cfg.model, 32, 3, seed=0, dtype=np.float64)
    cache, idx, masks = _step_batch(cfg, 4, np.float64)

    def step(idx, masks):  # the gradients copied: the next step overwrites params.grad
        tape = Tape(params)
        loss, *logged = step_losses(params, cache, idx, masks, cfg.loss)
        backward(tape, loss)
        return float(loss.data), logged, {k: g.copy() for k, g in params.grads.items()}

    loss, logged, grads = step(idx, masks)
    singles = [step([k], generate_mask(cfg.mask, [k])) for k in idx]
    assert abs(loss - np.mean([s[0] for s in singles])) <= 1e-12
    # the logged L_total is the loss that was differentiated
    for step_loss, (_, _, logged_total), _ in [(loss, logged, grads), *singles]:
        assert abs(logged_total - step_loss) <= 1e-12
    np.testing.assert_allclose(logged, np.mean([s[1] for s in singles], axis=0),
                               rtol=0, atol=1e-12)
    for name, g in grads.items():
        np.testing.assert_allclose(g, np.mean([s[2][name] for s in singles], axis=0),
                                   rtol=0, atol=1e-12, err_msg=name)


def test_non_finite_gradient_stops_the_run_before_its_update(tmp_path, monkeypatch):
    real_backward, real_adamw = featmim.trainer.backward, featmim.trainer.adamw_step
    steps, updates = [], []

    def backward_nan_at_step_2(tape, loss):
        flat = real_backward(tape, loss)
        steps.append(1)
        if len(steps) == 3:  # a later parameter too: the first in sorted order is named
            tape.params.grads["proj_fc2_w"][0, 0] = np.inf
            tape.params.grads["enc1_mlp_fc1_w"][1, 2] = np.nan
        return flat

    def counting_adamw(params, *args, **kwargs):
        updates.append(1)
        return real_adamw(params, *args, **kwargs)

    monkeypatch.setattr(featmim.trainer, "backward", backward_nan_at_step_2)
    monkeypatch.setattr(featmim.trainer, "adamw_step", counting_adamw)
    with pytest.raises(NumericError, match=r"^step 2: non-finite gradient in enc1_mlp_fc1_w$"):
        train(small_cfg(batch_size=2), small_images(2), tmp_path)
    assert len(updates) == 2
    rows = (tmp_path / "metrics.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["0", "1"]


def test_numeric_error_inside_a_step_names_the_step(tmp_path, monkeypatch):
    real_step = featmim.trainer.step_losses
    calls = []

    def failing_second_step(*args):
        calls.append(1)
        if len(calls) == 2:
            raise NumericError("attention scores contain non-finite values")
        return real_step(*args)

    monkeypatch.setattr(featmim.trainer, "step_losses", failing_second_step)
    with pytest.raises(NumericError,
                       match=r"^step 1: attention scores contain non-finite values$"):
        train(small_cfg(batch_size=2), small_images(2), tmp_path)


def test_step_activations_are_freed_by_backward(monkeypatch):
    # backward releases the tape's records, so the step's activations go
    # by reference counting alone, without waiting for the cyclic GC
    cfg = RunConfig()
    params = init_params(cfg.model, 32, 3, seed=0)
    batch = _step_batch(cfg, 2, np.float32)
    refs = []

    def recording(fn):  # every encoder block's output, the aggregate and z
        def wrapped(*args):
            out = fn(*args)
            refs.extend(weakref.ref(t.data) for t in (out if isinstance(out, list) else [out]))
            return out
        return wrapped

    for name in ("encode_visible", "aggregate_multi_block", "decode"):
        monkeypatch.setattr(featmim.model, name, recording(getattr(featmim.model, name)))
    gc.collect()
    gc.disable()
    try:
        tape = Tape(params)
        loss = step_losses(params, *batch, cfg.loss)[0]
        # some activations are already gone: add keeps no operand for its backward
        assert len(refs) == cfg.model.enc_depth + 2 and any(r() is not None for r in refs)
        backward(tape, loss)
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def test_epoch_order_matches_inline_shuffle(tmp_path, monkeypatch):
    # every epoch visits the images in the order of a fresh Fisher-Yates
    # shuffle drawn from the train-seed stream; a step reads its slice of the
    # epoch's image positions, the last one short
    seen = []
    real_step = featmim.trainer.step_losses

    def recording_step(params, cache, idx, masks, loss_cfg):
        seen.append(list(idx))
        return real_step(params, cache, idx, masks, loss_cfg)

    monkeypatch.setattr(featmim.trainer, "step_losses", recording_step)
    train(small_cfg(batch_size=2, total_epochs=3.0, seed=7), small_images(5), tmp_path)
    stream = SplitMix64(7 ^ featmim.trainer._SHUFFLE_STREAM_TAG)
    assert [len(idx) for idx in seen] == [2, 2, 1] * 3
    assert sum(seen, []) == [k for _ in range(3) for k in inline_shuffle(range(5), stream)]


def test_train_with_file_teacher(tmp_path):
    # dump procedural features, then train against the dump: the trajectory
    # must match the procedural run exactly (same targets, same everything)
    from featmim.teacher import ProceduralConvTeacher, TeacherSpec, dump_features

    images = small_images()
    dumper = ProceduralConvTeacher(target_dim=16, downsample_rate=8, seed=0)
    dump_features(dumper, images, tmp_path / "feats", student_patch_side=8)

    cfg_proc = small_cfg()
    cfg_file = cfg_proc._replace(teacher=TeacherSpec(
        kind="file", features_dir=str(tmp_path / "feats"))).validate()

    ra = train(cfg_proc, images, tmp_path / "proc")
    rb = train(cfg_file, images, tmp_path / "file")
    assert pathlib.Path(ra.metrics_csv).read_bytes() == pathlib.Path(rb.metrics_csv).read_bytes()


def test_train_file_teacher_missing_image_features(tmp_path):
    from featmim.errors import DataError
    from featmim.teacher import ProceduralConvTeacher, TeacherSpec, dump_features

    dumper = ProceduralConvTeacher(target_dim=16, downsample_rate=8, seed=0)
    dump_features(dumper, small_images(2), tmp_path / "feats", student_patch_side=8)
    cfg = small_cfg()._replace(teacher=TeacherSpec(
        kind="file", features_dir=str(tmp_path / "feats"))).validate()
    with pytest.raises(DataError):
        train(cfg, small_images(4), tmp_path / "run")


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(warmup_epochs=10, total_epochs=10).validate()
    with pytest.raises(ConfigError):
        TrainConfig(base_lr=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(beta1=1.0).validate()
    TrainConfig().validate()

import hashlib
import itertools
import json
import os
import re
import struct
import time
import tracemalloc

import numpy as np
import pytest
from conftest import DEEP_JSON, full_grid_decode

from featmim.config import RunConfig
from featmim.errors import ConfigError, DataError
from featmim.masking import MaskSpec, generate_mask
import featmim.model
from featmim.model import (CHECKPOINT_MAGIC, ModelConfig, aggregate_multi_block,
                           decode, encode_visible, forward, init_elements, init_params,
                           load_checkpoint, patch_embed, patchify,
                           project_global, save_checkpoint, sincos_pos_embed)
from featmim.synth import synthetic_image
from featmim.tensor import Tape, Tensor, tvec_bytes, write_tvec

TINY = ModelConfig(patch_side=8, embed_dim=8, enc_depth=2, enc_heads=2,
                   dec_depth=1, dec_width=8, dec_heads=2, target_dim=6,
                   use_cls=True, multi_block=True)


def tiny_params(seed=0, image_side=32, in_channels=3, config=TINY):
    return init_params(config, image_side, in_channels, seed=seed)


def tiny_masks(*seeds):
    """(masked, visible) rows of one 32x32 mask per seed, 8 of 16 patches each."""
    return generate_mask(MaskSpec(32, 8, 8, 0.5, 0), seeds)


def patches_of(*images):
    """The images' patch rows stacked to [B, N, C * 64], as forward takes them."""
    return np.stack([patchify(image, 8) for image in images])


def aggregated(images, visible, params):
    """The aggregated visible tokens h that forward decodes."""
    tokens = patch_embed(patches_of(*images), visible, params)
    return aggregate_multi_block(encode_visible(tokens, visible, params), params.config)


def test_patchify_counting():
    img = np.zeros((3, 32, 32))
    assert patchify(img, 16).shape == (4, 3 * 256)


def test_patchify_permutation_equivariance():
    # swapping two input patches swaps the corresponding rows (pre-position)
    rng = np.random.default_rng(0)
    img = rng.normal(size=(3, 32, 32))
    swapped = img.copy()
    swapped[:, 0:8, 0:8], swapped[:, 0:8, 8:16] = (
        img[:, 0:8, 8:16].copy(), img[:, 0:8, 0:8].copy())
    a = patchify(img, 8)
    b = patchify(swapped, 8)
    np.testing.assert_array_equal(b[0], a[1])
    np.testing.assert_array_equal(b[1], a[0])
    np.testing.assert_array_equal(b[2:], a[2:])


def test_patch_embed_zero_image_gives_pos_embed():
    # only the visible rows are embedded, each with its own grid position
    params = tiny_params()
    zeros = np.zeros((3, 32, 32), dtype=np.float32)
    tokens = patch_embed(patches_of(zeros), np.arange(16)[None], params)
    np.testing.assert_array_equal(tokens.data, params.enc_pos)
    visible = tiny_masks(3, 4)[1]
    tokens = patch_embed(patches_of(zeros, zeros), visible, params)
    np.testing.assert_array_equal(tokens.data, params.enc_pos[visible.reshape(-1) % 16])


def test_patch_embed_geometry_mismatch():
    params = tiny_params()
    visible = np.arange(16)[None]
    with pytest.raises(ConfigError):
        patch_embed(patches_of(np.zeros((3, 64, 64), dtype=np.float32)), visible, params)
    with pytest.raises(ConfigError):
        patch_embed(patches_of(np.zeros((1, 32, 32), dtype=np.float32)), visible, params)


def test_encode_single_visible_token():
    params = tiny_params()
    tokens = patch_embed(patches_of(synthetic_image(32, 3, seed=1)), np.array([[0]]), params)
    layers = encode_visible(tokens, np.array([[0]]), params)
    assert all(layer.data.shape == (1, 8) for layer in layers)


def test_encode_full_visible():
    params = tiny_params()
    n = params.n_patches
    tokens = patch_embed(patches_of(synthetic_image(32, 3, seed=1)), np.arange(n)[None], params)
    layers = encode_visible(tokens, np.arange(n)[None], params)
    assert layers[-1].data.shape == (n, 8)


def test_encode_rejects_no_visible():
    # a mask spec that leaves no block visible never reaches the encoder
    mask = MaskSpec(32, 8, 16, mask_ratio=0.9, seed=0)
    with pytest.raises(ConfigError, match="the encoder needs a visible one"):
        RunConfig(mask=mask).validate()


def test_masked_content_never_reaches_the_model():
    # perturbing masked pixels leaves every output bitwise unchanged
    params = tiny_params()
    masks = masked, visible = tiny_masks(5)
    img = synthetic_image(32, 3, seed=2)
    perturbed = img.copy()
    for idx in masked[0]:
        r, c = divmod(int(idx), 4)
        perturbed[:, r * 8:(r + 1) * 8, c * 8:(c + 1) * 8] += 7.25

    def outputs(image):  # h, z and the global head's output
        z, last_visible = forward(patches_of(image), masks, params)
        return aggregated([image], visible, params), z, project_global(last_visible, params)

    for a, b in zip(outputs(img), outputs(perturbed)):
        assert a.data.tobytes() == b.data.tobytes()


def test_aggregate_mean_and_sum():
    layers = [Tensor(np.array([[1.0, 2.0]])), Tensor(np.array([[3.0, 4.0]]))]
    mean_cfg = ModelConfig(multi_block=True, aggregate="mean")
    sum_cfg = ModelConfig(multi_block=True, aggregate="sum")
    off_cfg = ModelConfig(multi_block=False)
    np.testing.assert_array_equal(aggregate_multi_block(layers, mean_cfg).data, [[2.0, 3.0]])
    np.testing.assert_array_equal(aggregate_multi_block(layers, sum_cfg).data, [[4.0, 6.0]])
    np.testing.assert_array_equal(aggregate_multi_block(layers, off_cfg).data, [[3.0, 4.0]])


def test_aggregate_single_layer_identity():
    cfg = ModelConfig(multi_block=True, aggregate="mean")
    layers = [Tensor(np.array([[5.0, 6.0]]))]
    np.testing.assert_array_equal(aggregate_multi_block(layers, cfg).data, [[5.0, 6.0]])


def test_decode_all_visible_shape_contract():
    # predictions exist for the masked rows only: with every row visible
    # there are none
    params = tiny_params()
    n = params.n_patches
    visible = np.arange(n)[None]
    tokens = patch_embed(patches_of(synthetic_image(32, 3, seed=3)), visible, params)
    layers = encode_visible(tokens, visible, params)
    masks = np.zeros((1, 0), dtype=np.int64), visible
    z = decode(aggregate_multi_block(layers, TINY), masks, params)
    assert z.data.shape == (0, TINY.target_dim)


@pytest.mark.parametrize("dec_depth", [1, 2])
def test_decode_predicts_the_masked_rows_of_the_full_grid(dec_depth):
    # the last decoder block's queries, and all after them, read masked rows
    # only; its keys and values still read the full grid, so the result is
    # the masked rows of a full-grid decode, to float32 rounding
    config = TINY._replace(dec_depth=dec_depth)
    params = init_params(config, 32, 3, seed=2)
    images = [synthetic_image(32, 3, seed=i) for i in range(3)]
    masks = masked, visible = tiny_masks(11, 12, 13)
    h = aggregated(images, visible, params)
    z = decode(h, masks, params).data
    want = full_grid_decode(h, visible, params).data[masked.reshape(-1)]
    assert z.shape == want.shape == (masked.size, config.target_dim)
    np.testing.assert_allclose(z, want, rtol=0, atol=1e-6)


def test_decode_positional_swap_equivariance():
    # swapping the decoder position rows of two masked slots swaps their
    # predictions; float64 because permuting attention inputs reorders the
    # float reductions, so equality is mathematical, not bitwise
    params = init_params(TINY, 32, 3, seed=0, dtype=np.float64)
    masks = masked, _ = tiny_masks(6)
    i, j = int(masked[0, 0]), int(masked[0, 1])  # predictions 0 and 1
    img = synthetic_image(32, 3, seed=4).astype(np.float64)

    z_a = forward(patches_of(img), masks, params)[0].data

    swapped = init_params(TINY, 32, 3, seed=0, dtype=np.float64)
    swapped.dec_pos[[i, j]] = swapped.dec_pos[[j, i]]
    z_b = forward(patches_of(img), masks, swapped)[0].data

    np.testing.assert_allclose(z_b[0], z_a[1], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(z_b[1], z_a[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(z_b[2:], z_a[2:], rtol=1e-12, atol=1e-12)


def test_project_global_zero_weights_zero_output():
    params = tiny_params()
    params["proj_fc1_w"].data[:] = 0
    params["proj_fc2_w"].data[:] = 0
    p = project_global(Tensor(np.ones((5, 8), dtype=np.float32)), params)
    np.testing.assert_array_equal(p.data, np.zeros((5, TINY.target_dim)))


def test_project_global_per_token_and_dim():
    params = tiny_params()
    rng = np.random.default_rng(5)
    h = rng.normal(size=(6, 8)).astype(np.float32)
    p = project_global(Tensor(h), params)
    assert p.data.shape == (6, TINY.target_dim)
    perm = [3, 1, 5, 0, 2, 4]
    p_perm = project_global(Tensor(h[perm]), params)
    np.testing.assert_array_equal(p_perm.data, p.data[perm])


def test_forward_shapes():
    params = tiny_params()
    masks = masked, visible = tiny_masks(7)
    image = synthetic_image(32, 3, seed=6)
    z, last_visible = forward(patches_of(image), masks, params)
    layers = encode_visible(patch_embed(patches_of(image), visible, params), visible, params)
    v = visible.shape[1]
    assert aggregated([image], visible, params).data.shape == (v, 8)
    assert z.data.shape == (masked.shape[1], TINY.target_dim)
    assert project_global(last_visible, params).data.shape == (v, TINY.target_dim)
    assert len(layers) == TINY.enc_depth
    assert last_visible.data.tobytes() == layers[-1].data.tobytes()


def test_init_params_deterministic():
    a = tiny_params(seed=42)
    b = tiny_params(seed=42)
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)
    c = tiny_params(seed=43)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


def test_sincos_table_is_deterministic_and_bounded():
    t = sincos_pos_embed(8, 4)
    assert t.shape == (16, 8)
    assert np.all(np.abs(t) <= 1.0)
    np.testing.assert_array_equal(t, sincos_pos_embed(8, 4))


def test_model_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(embed_dim=10, enc_heads=4).validate()
    with pytest.raises(ConfigError):
        ModelConfig(enc_depth=0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(aggregate="median").validate()
    with pytest.raises(ConfigError):
        ModelConfig(dec_width=30, dec_heads=2).validate()  # not a multiple of 4
    with pytest.raises(ConfigError):
        ModelConfig(enc_heads=0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(dec_heads=-2).validate()


def test_checkpoint_round_trip_bitwise(tmp_path):
    params = tiny_params(seed=9)
    masks = tiny_masks(8)
    img = synthetic_image(32, 3, seed=7)
    z_before = forward(patches_of(img), masks, params)[0].data.tobytes()

    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)

    assert loaded.config == params.config
    assert set(loaded) == set(params)
    for name in params:
        assert loaded[name].data.tobytes() == params[name].data.tobytes()
    z_after = forward(patches_of(img), masks, loaded)[0].data.tobytes()
    assert z_after == z_before


def _offset(view, buf):
    """Where view starts in the 1-d buffer buf, in elements."""
    return (view.__array_interface__["data"][0] - buf.__array_interface__["data"][0]) // buf.itemsize


def _assert_weights_view_flat(params):
    flat = params.flat
    assert flat.flags.c_contiguous and flat.ndim == 1
    assert params.grad is None  # weights only, until a tape holds them
    Tape(params)
    assert params.grad.shape == flat.shape and params.grad.dtype == flat.dtype
    names = sorted(params)
    assert list(params) == names
    for name in names:
        w, g = params[name].data, params.grads[name]
        assert np.shares_memory(w, flat), name
        # the gradient view sits at the same offsets of grad
        assert np.shares_memory(g, params.grad) and g.shape == w.shape, name
        assert _offset(g, params.grad) == _offset(w, flat), name
    np.testing.assert_array_equal(
        flat, np.concatenate([params[k].data.reshape(-1) for k in names]))


def test_weights_are_views_of_the_flat_buffer(tmp_path):
    params = tiny_params(seed=4)
    _assert_weights_view_flat(params)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    _assert_weights_view_flat(loaded)
    np.testing.assert_array_equal(loaded.flat, params.flat)


def test_load_checkpoint_holds_the_weights_once(tmp_path):
    # the weights record is read straight into the flat buffer ModelParams
    # adopts, and no gradient buffer is made before a tape needs one: the
    # peak is at most 1.1x the file, and the result holds 1.0x plus the
    # position tables and the tensors' bookkeeping
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, tiny_params(config=ModelConfig(embed_dim=128, dec_width=128)))
    size = path.stat().st_size  # 2.6 MB
    load_checkpoint(path)  # first-call caches stay out of the trace
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.grad is None
    assert peak <= 1.1 * size, peak / size
    assert held < loaded.flat.nbytes + loaded.enc_pos.nbytes + loaded.dec_pos.nbytes + 32 * 1024, \
        held / size


def test_init_params_draws_do_not_depend_on_the_flat_layout():
    # the draw order is construction order; packing only moves values
    params = tiny_params(seed=5)
    rng = np.random.default_rng(5)
    d = TINY.embed_dim
    cls = rng.normal(0.0, 0.02, size=d).astype(np.float32)
    limit = np.sqrt(6.0 / (3 * 64 + d))
    proj = rng.uniform(-limit, limit, size=(3 * 64, d)).astype(np.float32)
    assert params["cls_token"].data.tobytes() == cls.tobytes()
    assert params["patch_proj_w"].data.tobytes() == proj.tobytes()


def test_fresh_checkpoint_bytes_are_pinned(tmp_path):
    # the header JSON holds the model config; its bytes must not depend on
    # the record type behind it
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, init_params(ModelConfig(), 32, 3, seed=0))
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "f368930d552769b92865aa6637a1eddf9b9402ab895ea88c8b579bf337d5ef6f")


def _write_output(writer, path, seed):
    if writer == "write_tvec":
        write_tvec(path, np.full((2, 3), seed, dtype=np.float32))
    elif writer == "save_run_config":
        cfg = RunConfig()
        cfg._replace(train=cfg.train._replace(seed=seed)).save(path)
    else:
        save_checkpoint(path, tiny_params(seed=seed))


# "encode" and "rename" fail a checkpoint write; the others fail the rename
# of the named writer, which shares tensor.write_atomic with the checkpoint
@pytest.mark.parametrize("fail_in", ["encode", "rename", "write_tvec", "save_run_config"])
def test_checkpoint_write_failing_partway_keeps_the_old_file(tmp_path, monkeypatch, fail_in):
    path = tmp_path / "ckpt.bin"
    _write_output(fail_in, path, seed=1)
    before = path.read_bytes()
    if fail_in == "encode":
        def failing_tvec_bytes(array):  # the save's one record, the flat weights
            raise OSError("disk full")

        monkeypatch.setattr(featmim.model, "tvec_bytes", failing_tvec_bytes)
    else:
        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
    # write_atomic turns a failed write or rename into a DataError naming the path
    with pytest.raises(OSError) if fail_in == "encode" else pytest.raises(
            DataError, match=f"cannot write {path}: rename failed"):
        _write_output(fail_in, path, seed=2)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ckpt.bin"]


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(DataError):
        load_checkpoint(p)


def test_checkpoint_rejects_overflowing_extents(tmp_path):
    # a weights record whose tvec extents multiply past 2**64
    good = tmp_path / "good.bin"
    save_checkpoint(good, tiny_params())
    valid = good.read_bytes()
    (hlen,) = struct.unpack_from("<I", valid, 4)
    huge = b"TVEC" + struct.pack("<BBBQQ", 1, 0, 2, 2**62, 4)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(valid[:8 + hlen] + huge)
    with pytest.raises(DataError, match="bad.bin: weights: payload holds 0 bytes"):
        load_checkpoint(bad)


def test_checkpoint_ends_in_the_flat_weights(tmp_path):
    # the one record after the header is ModelParams.flat, byte for byte
    params = tiny_params(seed=3)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params)
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 4)
    assert json.loads(blob[8:8 + hlen])["version"] == 2
    assert blob[8 + hlen:] == tvec_bytes(params.flat)
    assert blob.endswith(params.flat.tobytes())


def _checkpoint_with(valid, case):
    """Checkpoint bytes corrupted in one way, built from valid bytes."""
    (hlen,) = struct.unpack_from("<I", valid, 4)
    return {
        "shorter_than_8_bytes": valid[:6],
        "header_past_end": valid[:4] + struct.pack("<I", hlen + 10) + valid[8:8 + hlen],
        "trailing_byte": valid + b"\x00",
        "trailing_record": valid + tvec_bytes(np.zeros(3)),
    }[case]


@pytest.mark.parametrize("case,message", [
    ("shorter_than_8_bytes", "truncated before the header length"),
    ("header_past_end", "runs past the end"),
    ("trailing_byte", "bad.bin: 1 trailing bytes after the weights$"),
    ("trailing_record", "bad.bin: 27 trailing bytes after the weights$"),  # a 3-element record
])
def test_checkpoint_rejects_malformed_layout(tmp_path, case, message):
    good = tmp_path / "good.bin"
    save_checkpoint(good, tiny_params())
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_checkpoint_with(good.read_bytes(), case))
    with pytest.raises(DataError, match=message):
        load_checkpoint(bad)


def _v1_checkpoint(params):
    """A version 1 file: a header without a version, then per parameter in
    sorted name order u32 LE name length | name | tvec record."""
    header = json.dumps({"config": params.config._asdict(), "n_patches": params.n_patches,
                         "in_channels": params.in_channels}, sort_keys=True).encode()
    return b"".join([CHECKPOINT_MAGIC, struct.pack("<I", len(header)), header,
                     *(struct.pack("<I", len(name)) + name.encode() + tvec_bytes(params[name].data)
                       for name in sorted(params))])


def test_checkpoint_names_an_old_version(tmp_path):
    bad = tmp_path / "v1.bin"
    bad.write_bytes(_v1_checkpoint(tiny_params()))
    with pytest.raises(DataError, match="v1.bin: checkpoint version 1, this reader reads version 2$"):
        load_checkpoint(bad)


@pytest.mark.parametrize("weights", [
    lambda flat: flat[:-1],
    lambda flat: np.append(flat, 7.0),
    lambda flat: flat.reshape(2, -1),  # the right count at rank 2
    lambda flat: flat[:0],
], ids=["short", "long", "rank2", "empty"])
def test_checkpoint_weights_must_be_one_row_of_the_tables_count(tmp_path, weights):
    params = tiny_params()
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    save_checkpoint(good, params)
    valid = good.read_bytes()
    (hlen,) = struct.unpack_from("<I", valid, 4)
    record = weights(params.flat)
    bad.write_bytes(valid[:8 + hlen] + tvec_bytes(record))
    with pytest.raises(DataError, match=re.escape(
            f"bad.bin: the weights record has shape {record.shape}, "
            f"the header's config needs ({params.flat.size},)")):
        load_checkpoint(bad)


def test_checkpoint_rejects_a_deeply_nested_header(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(DEEP_JSON)) + DEEP_JSON)
    with pytest.raises(DataError, match="bad.bin: malformed checkpoint header: maximum recursion"):
        load_checkpoint(bad)


def _checkpoint_with_header(valid, edit):
    """Checkpoint bytes whose JSON header has been changed by edit(header)."""
    (hlen,) = struct.unpack_from("<I", valid, 4)
    header = json.loads(valid[8:8 + hlen])
    edit(header)
    raw = json.dumps(header, sort_keys=True).encode()
    return valid[:4] + struct.pack("<I", len(raw)) + raw + valid[8 + hlen:]


@pytest.mark.parametrize("key,value,message", [
    ("n_patches", "16", "n_patches '16' is not a positive integer"),
    ("n_patches", 15, "not a square grid"),
    ("in_channels", 0, "in_channels 0 is not a positive integer"),
    ("enc_heads", 0, "at least one head"),
    ("embed_dim", 32.0, "config.embed_dim must be an integer"),
    ("patch_side", 8.0, "config.patch_side must be an integer"),
    ("target_dim", True, "config.target_dim must be an integer"),
    ("use_cls", 1, "config.use_cls must be true or false"),
])
def test_checkpoint_rejects_bad_header_values(tmp_path, key, value, message):
    good = tmp_path / "good.bin"
    save_checkpoint(good, tiny_params())

    def edit(header):
        (header["config"] if key in header["config"] else header)[key] = value

    bad = tmp_path / "bad.bin"
    bad.write_bytes(_checkpoint_with_header(good.read_bytes(), edit))
    with pytest.raises(DataError, match=message):
        load_checkpoint(bad)


@pytest.mark.parametrize("edits", [
    {"n_patches": 2**40},  # 8 TiB of position tables
    {"in_channels": 2**30},  # 16 TiB of patch projection
    {"embed_dim": 2**20, "dec_width": 2**20},
])
def test_checkpoint_rejects_an_oversized_header_before_allocating(tmp_path, monkeypatch, edits):
    good = tmp_path / "good.bin"
    save_checkpoint(good, tiny_params())

    def edit(header):
        for key, value in edits.items():
            (header["config"] if key in header["config"] else header)[key] = value

    bad = tmp_path / "bad.bin"
    bad.write_bytes(_checkpoint_with_header(good.read_bytes(), edit))

    def allocate(*args, **kwargs):
        raise AssertionError("init_params called for an oversized header")

    monkeypatch.setattr(featmim.model, "init_params", allocate)
    with pytest.raises(DataError, match="more than the bound"):
        load_checkpoint(bad)


@pytest.mark.parametrize("payload", [False, True])
def test_checkpoint_payload_must_hold_the_headers_weights(tmp_path, monkeypatch, payload):
    # a valid header for 52.7M elements over no payload, or over the tiny
    # model's, fails on the record before init_params allocates the model
    good = tmp_path / "good.bin"
    save_checkpoint(good, tiny_params())
    valid = good.read_bytes()
    (hlen,) = struct.unpack_from("<I", valid, 4)

    def edit(header):
        header["config"].update(embed_dim=1024, dec_width=1024, enc_depth=2, dec_depth=2)

    crafted = _checkpoint_with_header(valid if payload else valid[:8 + hlen], edit)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(crafted)
    n_tiny = tiny_params().flat.size

    def allocate(*args, **kwargs):
        raise AssertionError("init_params called before the payload was counted")

    monkeypatch.setattr(featmim.model, "init_params", allocate)
    message = (re.escape(f"bad.bin: the weights record has shape ({n_tiny},), "
                         "the header's config needs (52696076,)") if payload
               else "bad.bin: weights: bad magic, not a tvec record")
    with pytest.raises(DataError, match=message + "$"):
        load_checkpoint(bad)


def test_checkpoint_loads_without_drawing_a_model(tmp_path, monkeypatch):
    params = tiny_params(seed=9)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params)

    def draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew a model")

    monkeypatch.setattr(featmim.model, "init_params", draw)
    monkeypatch.setattr(np.random, "default_rng", draw)
    loaded = load_checkpoint(path)
    assert (loaded.config, loaded.n_patches, loaded.in_channels) == (TINY, 16, 3)
    assert list(loaded) == list(params)
    for got, want in ((loaded.flat, params.flat), (loaded.enc_pos, params.enc_pos),
                      (loaded.dec_pos, params.dec_pos)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("field", ["enc_depth", "dec_depth"])
def test_a_deep_model_is_counted_without_walking_its_blocks(tmp_path, field):
    # 2**40 blocks: the count must not grow with depth, or this would not end
    deep = {field: 2**40}
    good = tmp_path / "good.bin"
    save_checkpoint(good, tiny_params())
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_checkpoint_with_header(good.read_bytes(),
                                            lambda header: header["config"].update(deep)))
    t0 = time.perf_counter()
    with pytest.raises(ConfigError, match="more than the bound"):
        init_elements(ModelConfig(**deep), 16, 3)
    with pytest.raises(DataError, match="more than the bound"):
        load_checkpoint(bad)
    assert time.perf_counter() - t0 < 0.5


def test_init_elements_counts_what_init_params_allocates():
    # weights and both position tables, over 48 configs
    for use_cls, (d, w, t), (enc, dec), (patch, side, channels) in itertools.product(
            (True, False), ((4, 8, 1), (8, 4, 5), (12, 12, 3)), ((1, 1), (2, 3)),
            ((2, 8, 1), (4, 16, 3), (8, 8, 2), (4, 24, 3))):
        config = ModelConfig(patch_side=patch, embed_dim=d, enc_depth=enc, enc_heads=2,
                             dec_depth=dec, dec_width=w, dec_heads=2, target_dim=t,
                             use_cls=use_cls)
        params = init_params(config, side, channels, seed=0)
        allocated = params.flat.size + params.enc_pos.size + params.dec_pos.size
        assert init_elements(config, params.n_patches, channels) == allocated, config
    assert init_elements(ModelConfig(), 16, 3) == 48_544  # the default model, as documented


def test_batch_rows_match_one_image_passes():
    # float64: a batch of three gives each image the predictions and tokens
    # it gets alone
    params = init_params(TINY, 32, 3, seed=0, dtype=np.float64)
    images = [synthetic_image(32, 3, seed=i, dtype=np.float64) for i in range(3)]
    seeds = [10 + i for i in range(3)]
    masks = masked, visible = tiny_masks(*seeds)
    z = forward(patches_of(*images), masks, params)[0].data
    h = aggregated(images, visible, params).data
    m, v = masked.shape[1], visible.shape[1]
    for i, (image, seed) in enumerate(zip(images, seeds)):
        one_masks = tiny_masks(seed)
        one_z = forward(patches_of(image), one_masks, params)[0].data
        one_h = aggregated([image], one_masks[1], params).data
        np.testing.assert_allclose(z[i * m:(i + 1) * m], one_z, rtol=0, atol=1e-12)
        np.testing.assert_allclose(h[i * v:(i + 1) * v], one_h, rtol=0, atol=1e-12)


def test_no_cls_config_runs():
    cfg = ModelConfig(patch_side=8, embed_dim=8, enc_depth=1, enc_heads=2,
                      dec_depth=1, dec_width=8, dec_heads=2, target_dim=4,
                      use_cls=False, multi_block=False)
    params = init_params(cfg, 32, 3, seed=0)
    masks = masked, visible = tiny_masks(9)
    z, last_visible = forward(patches_of(synthetic_image(32, 3, seed=8)), masks, params)
    assert last_visible.data.shape == (visible.shape[1], 8)  # no CLS row
    assert z.data.shape == (masked.shape[1], 4)

import numpy as np
import pytest

from featmim.errors import ConfigError, DataError
from featmim.imageio import load_images, normalize, read_pnm, write_pgm, write_ppm


def test_all_white_pgm(tmp_path):
    p = tmp_path / "w.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([255] * 4))
    img = read_pnm(p)
    assert img.shape == (1, 2, 2)
    np.testing.assert_array_equal(img, np.ones((1, 2, 2), dtype=np.float32))


def test_ppm_red_pixel(tmp_path):
    p = tmp_path / "r.ppm"
    p.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    img = read_pnm(p)
    np.testing.assert_array_equal(img[:, 0, 0], [1.0, 0.0, 0.0])


def test_maxval_scaling(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n1 1\n100\n" + bytes([50]))
    img = read_pnm(p)
    np.testing.assert_allclose(img[0, 0, 0], 0.5, rtol=1e-6)


@pytest.mark.parametrize("blob, sample", [
    (b"P5\n2 1\n100\n" + bytes([50, 200]), 200),  # would load as 2.0
    (b"P6\n1 1\n100\n" + bytes([0, 0, 101]), 101),
], ids=["pgm", "ppm"])
def test_sample_above_maxval_rejected(tmp_path, blob, sample):
    p = tmp_path / "m.pnm"
    p.write_bytes(blob)
    with pytest.raises(DataError, match=rf"m\.pnm: sample {sample} exceeds maxval 100"):
        read_pnm(p)


def test_header_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([0, 128]))
    img = read_pnm(p)
    assert img.shape == (1, 1, 2)


def test_round_trip_is_quantization(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.random((3, 4, 4)).astype(np.float32)
    p = tmp_path / "x.ppm"
    write_ppm(p, x)
    back = read_pnm(p)
    quantized = np.floor(np.clip(x, 0, 1) * 255.0 + 0.5) / 255.0
    np.testing.assert_allclose(back, quantized, atol=1e-7)


def test_pgm_round_trip(tmp_path):
    x = np.linspace(0, 1, 16, dtype=np.float32).reshape(1, 4, 4)
    p = tmp_path / "x.pgm"
    write_pgm(p, x[0])
    back = read_pnm(p)
    quantized = np.floor(x * 255.0 + 0.5) / 255.0
    np.testing.assert_allclose(back, quantized, atol=1e-7)


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P3\n1 1\n255\n0")
    with pytest.raises(DataError):
        read_pnm(p)


def test_truncated_payload_rejected(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2]))
    with pytest.raises(DataError):
        read_pnm(p)


def test_wide_maxval_rejected(tmp_path):
    p = tmp_path / "w.pgm"
    p.write_bytes(b"P5\n1 1\n65535\n" + bytes([0, 0]))
    with pytest.raises(DataError):
        read_pnm(p)


def test_normalize_default():
    img = np.full((3, 2, 2), 0.75, dtype=np.float32)
    out = normalize(img)
    np.testing.assert_allclose(out, 0.5, rtol=1e-6)


def test_normalize_per_channel():
    img = np.ones((2, 1, 1), dtype=np.float32)
    out = normalize(img, mean=[1.0, 0.0], std=[1.0, 2.0])
    np.testing.assert_allclose(out[:, 0, 0], [0.0, 0.5], rtol=1e-6)


def test_normalize_rejects_a_list_per_wrong_channel_count():
    img = np.ones((3, 1, 1), dtype=np.float32)
    np.testing.assert_allclose(normalize(img, mean=[1.0], std=[0.5])[:, 0, 0], 0.0)
    for mean, std in (([0.5, 0.5], 0.5), ([], 0.5), (0.5, [1.0] * 4)):
        with pytest.raises(ConfigError, match="3-channel"):
            normalize(img, mean, std)


@pytest.mark.parametrize("channels,needs", [(1, "it needs 1$"), (3, "it needs 1 or 3$")])
def test_normalize_length_error_names_the_lengths_it_takes(channels, needs):
    with pytest.raises(ConfigError, match=needs):
        normalize(np.zeros((channels, 2, 2), dtype=np.float32), [0.5, 0.5])


def test_load_images_sorted_ids(tmp_path):
    for name in ("b.pgm", "a.pgm"):
        write_pgm(tmp_path / name, np.zeros((2, 2)))
    loaded = load_images(tmp_path, mean=0.0, std=1.0)
    assert [image_id for image_id, _ in loaded] == ["a", "b"]
    assert all(img.shape == (1, 2, 2) for _, img in loaded)

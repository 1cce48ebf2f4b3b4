import hashlib
import struct

import numpy as np
import pytest

from mxemu import config, dequantize, quantize
from mxemu.errors import TensorFileError
from mxemu.formats import FORMATS, register_codebook_format
from mxemu.scaling import SCALE_MODES
from mxemu.tensorfile import read_quantized, read_tensor, write_quantized, write_tensor


def test_mxq1_round_trip_of_byte_codes(tmp_path, rng):
    q = quantize(rng.normal(0, 1, (4, 64)), config("fp8_e4m3_asym", "fp8e5m2", 32))
    write_quantized(tmp_path / "x.mxq", q)
    back = read_quantized(tmp_path / "x.mxq")
    np.testing.assert_array_equal(back.codes, q.codes)
    np.testing.assert_array_equal(back.scales, q.scales)


def test_mxq1_rejects_codes_wider_than_a_byte(tmp_path, rng):
    fmt = register_codebook_format("mxq1_wide_codebook", np.arange(1.0, 201.0))
    try:
        assert fmt.total_bits == 9
        q = quantize(rng.normal(0, 1, (4, 64)) * 100, config(fmt.name, "pot_floor", 32))
        assert q.codes.max() > 255
        with pytest.raises(TensorFileError, match="one byte per code"):
            write_quantized(tmp_path / "x.mxq", q)
    finally:
        FORMATS.pop(fmt.name)
    assert not (tmp_path / "x.mxq").exists()


@pytest.mark.parametrize(
    "field, value",
    [("group_size", 24), ("group_size", 0), ("group_size", 16), ("group_count", 7), ("axis", 5),
     ("first_dim", 2**62)],
)
def test_mxq1_header_must_fit_the_shape(tmp_path, rng, field, value):
    cfg = config("fp4_e2m1_asym", "fp8e5m2", 32)
    q = quantize(rng.normal(0, 1, (4, 64)), cfg)
    path = tmp_path / "x.mxq"
    write_quantized(path, q)
    data = bytearray(path.read_bytes())
    gs_at = 4 + 2 + len(cfg.fmt.name) + len(cfg.scale_mode.name)
    dims_at = gs_at + 17 + 9 + 1
    count_at = dims_at + 8 * len(q.shape) + q.codes.size
    at, written = {"group_size": (gs_at, 32), "axis": (gs_at + 8, -1),
                   "first_dim": (dims_at, 4), "group_count": (count_at, 8)}[field]
    assert struct.unpack_from("<q", data, at)[0] == written
    struct.pack_into("<q", data, at, value)
    path.write_bytes(bytes(data))
    with pytest.raises(TensorFileError):
        read_quantized(path)


def test_mxq1_round_trip_with_negative_zero_points(tmp_path, rng):
    q = quantize(np.abs(rng.normal(0, 1, (4, 64))) + 1, config("int4_asym", "pot_floor", 32))
    assert q.scales[..., 1].max() < 0  # all-positive groups put the zero point below 0
    write_quantized(tmp_path / "x.mxq", q)
    back = read_quantized(tmp_path / "x.mxq")
    np.testing.assert_array_equal(back.codes, q.codes)
    np.testing.assert_array_equal(back.scales, q.scales)
    np.testing.assert_array_equal(dequantize(back), dequantize(q))


@pytest.mark.parametrize("mode", sorted(SCALE_MODES))
def test_mxq1_audits_zero_point_scales_as_binary32(tmp_path, rng, mode):
    group_size = 16 if mode == "nvfp4_double" else 32
    q = quantize(rng.normal(0.5, 1, (4, 64)), config("int4_asym", mode, group_size))
    write_quantized(tmp_path / "x.mxq", q)
    back = read_quantized(tmp_path / "x.mxq")
    np.testing.assert_array_equal(back.codes, q.codes)
    np.testing.assert_array_equal(back.scales, q.scales)
    np.testing.assert_array_equal(dequantize(back), dequantize(q))
    rec = np.frombuffer((tmp_path / "x.mxq").read_bytes()[-24 * q.n_groups:],
                        dtype=[("pos", "<f8"), ("neg", "<f8"), ("pbits", "<u4"), ("nbits", "<u4")])
    scale = q.scales[..., 0].ravel()
    np.testing.assert_array_equal(rec["pbits"], scale.astype(np.float32).view(np.uint32))
    np.testing.assert_array_equal(rec["pbits"].view(np.float32).astype(float), scale)
    np.testing.assert_array_equal(rec["nbits"].view(np.int32), q.scales[..., 1].ravel())


def test_mxq1_rejects_zero_points_outside_int32(tmp_path, rng):
    q = quantize(rng.normal(0, 1, (4, 64)), config("int4_asym", "pot_floor", 32))
    q.scales[1, 0, 1] = -2.0**31 - 1
    with pytest.raises(TensorFileError, match="zero point"):
        write_quantized(tmp_path / "x.mxq", q)


# SHA-256 of files written by the per-group struct writer this format started with;
# int4_asym's is of a file whose scale audit words are binary32, the rest unchanged
MXQ1_SHA256 = {
    ("fp4_e2m1", "pot_floor", 32):
        "3dd2f53d27121a8115a1459743ef7a188e1cf24891fa29a21528b8e6b42bd77b",
    ("fp4_e2m1_asym", "fp8e5m2", 32):
        "9a0f0ea14c0526b9d9e63d7c193e7ce7adbcda1aea668e9b0b629410fd0bde30",
    ("fp4_e2m1", "nvfp4_double", 16):
        "f30ccecc079d3a3305c1ef14b977912528f4f66a63afb41b5245b97e4422ab23",
    ("int4_asym", "pot_floor", 32):
        "271376afcff4636db1a51eededf58c64a29bbb25d9a02d7ccf11f983d2ed6b86",
}


@pytest.mark.parametrize("cfg", sorted(MXQ1_SHA256), ids=lambda c: "/".join(map(str, c)))
def test_mxq1_files_keep_their_bytes(tmp_path, rng, cfg):
    q = quantize(rng.normal(0, 1, (4, 64)), config(*cfg))
    write_quantized(tmp_path / "x.mxq", q)
    assert hashlib.sha256((tmp_path / "x.mxq").read_bytes()).hexdigest() == MXQ1_SHA256[cfg]


@pytest.mark.parametrize("byte", [ord("z"), 0xFF])
def test_mxq1_damaged_scale_mode_name(tmp_path, rng, byte):
    cfg = config("fp4_e2m1_asym", "fp8e5m2", 32)
    write_quantized(tmp_path / "x.mxq", quantize(rng.normal(0, 1, (4, 64)), cfg))
    data = bytearray((tmp_path / "x.mxq").read_bytes())
    at = data.index(b"fp8e5m2")
    data[at] = byte
    (tmp_path / "x.mxq").write_bytes(bytes(data))
    with pytest.raises(TensorFileError, match="bad config names"):
        read_quantized(tmp_path / "x.mxq")


def _damaged(tmp_path, q, damage):
    path = tmp_path / "x.mxq"
    write_quantized(path, q)
    data = bytearray(path.read_bytes())
    first = len(data) - 24 * q.n_groups  # the first (pos, neg, pbits, nbits) record
    next_up = np.nextafter(q.scales.flat[0], np.inf)
    {
        "nan_scale": lambda: struct.pack_into("<d", data, first, float("nan")),
        "negative_scale": lambda: struct.pack_into("<d", data, first, -q.scales.flat[0]),
        "audit_byte": lambda: data.__setitem__(first + 16, data[first + 16] ^ 1),
        "fractional_zero_point": lambda: struct.pack_into("<d", data, first + 8, 0.5),
        "pot_off_grid": lambda: struct.pack_into("<d", data, first, 1.5 * q.scales.flat[0]),
        "fp32_nextafter": lambda: struct.pack_into("<d", data, first, next_up),
        "zero_point_scale_nextafter": lambda: struct.pack_into("<d", data, first, next_up),
    }[damage]()
    path.write_bytes(bytes(data))
    return path


# off-grid scales whose audit word still matches, under the configs they damage
_DAMAGE_CONFIGS = {
    "pot_off_grid": ("fp4_e2m1", "pot_floor"),
    "fp32_nextafter": ("fp4_e2m1_asym", "fp32"),
    "zero_point_scale_nextafter": ("int4_asym", "pot_floor"),
}


@pytest.mark.parametrize("damage", ["nan_scale", "negative_scale", "audit_byte",
                                    *_DAMAGE_CONFIGS])
def test_mxq1_damaged_scale_record_raises(tmp_path, rng, damage):
    fmt, mode = _DAMAGE_CONFIGS.get(damage, ("fp4_e2m1_asym", "fp8e5m2"))
    q = quantize(rng.normal(0, 1, (4, 64)), config(fmt, mode, 32))
    assert q.scales.flat[0] > 0
    with pytest.raises(TensorFileError, match="scale"):
        read_quantized(_damaged(tmp_path, q, damage))


def test_mxq1_fractional_zero_point_raises(tmp_path, rng):
    q = quantize(rng.normal(0.5, 1, (4, 64)), config("int4_asym", "pot_floor", 32))
    with pytest.raises(TensorFileError, match="zero point"):
        read_quantized(_damaged(tmp_path, q, "fractional_zero_point"))


def test_mxq1_fp32_audit_words_are_the_scales(tmp_path, rng):
    q = quantize(rng.normal(0.3, 1, (4, 64)), config("fp4_e2m1_asym", "fp32", 32))
    write_quantized(tmp_path / "x.mxq", q)
    back = read_quantized(tmp_path / "x.mxq")
    np.testing.assert_array_equal(back.scales, q.scales)
    rec = np.frombuffer((tmp_path / "x.mxq").read_bytes()[-24 * q.n_groups:],
                        dtype=[("pos", "<f8"), ("neg", "<f8"), ("pbits", "<u4"), ("nbits", "<u4")])
    np.testing.assert_array_equal(rec["pbits"].view(np.float32).astype(float), rec["pos"])
    np.testing.assert_array_equal(rec["nbits"].view(np.float32).astype(float), rec["neg"])


def test_csv_input_reads_its_values(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.5, -2,3e-3\n\n0.25,4,-0\n")
    got = read_tensor(path)
    np.testing.assert_array_equal(got, [[1.5, -2.0, 3e-3], [0.25, 4.0, -0.0]])
    assert got.dtype == np.float64


@pytest.mark.parametrize("text, match", [
    ("\n \n", "empty CSV"),
    ("1,2\n3\n", "ragged CSV rows"),
    ("1,2\n3,x\n", r"x\.csv:2:"),
])
def test_bad_csv_raises(tmp_path, text, match):
    path = tmp_path / "x.csv"
    path.write_text(text)
    with pytest.raises(TensorFileError, match=match):
        read_tensor(path)


@pytest.mark.parametrize("damage, match", [
    (lambda b: b"MXT2" + b[4:], "bad magic"),
    (lambda b: b[:-1], "truncated"),
    (lambda b: b[:5], "truncated"),
    (lambda b: b[:4] + b"\x07" + b[5:], "unsupported dtype byte 7"),
    (lambda b: b[:6] + struct.pack("<Q", 0) + b[14:], "non-positive dimension"),
    (lambda b: b + b"\x00", "trailing bytes"),
])
def test_damaged_mxt1_raises(tmp_path, rng, damage, match):
    path = tmp_path / "x.mxt"
    write_tensor(path, rng.normal(0, 1, (3, 4)))
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(TensorFileError, match=match):
        read_tensor(path)


def test_mxq1_round_trip_of_an_underflowing_nvfp4_tensor_scale(tmp_path):
    x = np.r_[np.full(8, 5e-324), np.full(8, -1e-323)]
    q = quantize(x, config("fp4_e2m1_asym", "nvfp4_double", 16))
    assert q.tensor_scale == 2.0**-1074
    write_quantized(tmp_path / "x.mxq", q)
    back = read_quantized(tmp_path / "x.mxq")
    assert back.tensor_scale == q.tensor_scale
    np.testing.assert_array_equal(dequantize(back), x)


def test_mxq1_rejects_trailing_bytes(tmp_path, rng):
    path = tmp_path / "x.mxq"
    q = quantize(rng.normal(0, 1, (4, 64)), config("fp4_e2m1_asym", "fp8e5m2", 32))
    write_quantized(path, q)
    path.write_bytes(path.read_bytes() + bytes(7))
    with pytest.raises(TensorFileError, match="trailing bytes after the scale records"):
        read_quantized(path)


def test_mxq1_reader_rejects_an_mxt1_file(tmp_path, rng):
    write_tensor(tmp_path / "x.mxt", rng.normal(0, 1, (4, 64)))
    with pytest.raises(TensorFileError, match="not an MXQ1 file"):
        read_quantized(tmp_path / "x.mxt")


@pytest.mark.parametrize("ts", [np.inf, np.nan, 0.0])
def test_mxq1_rejects_a_bad_tensor_scale(tmp_path, rng, ts):
    cfg = config("fp4_e2m1", "nvfp4_double", 16)
    path = tmp_path / "x.mxq"
    write_quantized(path, quantize(rng.normal(0, 1, (4, 64)), cfg))
    data = bytearray(path.read_bytes())
    ts_at = 4 + 2 + len(cfg.fmt.name) + len(cfg.scale_mode.name) + 8 + 8 + 1 + 1
    struct.pack_into("<d", data, ts_at, ts)
    path.write_bytes(bytes(data))
    with pytest.raises(TensorFileError, match="tensor scale is not finite and positive"):
        read_quantized(path)


def test_mxt1_writes_a_0d_array_as_one_element(tmp_path):
    write_tensor(tmp_path / "x.mxt", np.float64(2.5))
    back = read_tensor(tmp_path / "x.mxt")
    assert back.shape == (1,) and back[0] == 2.5


def test_mxq1_round_trip_of_a_huge_codebooks_degenerate_scale(tmp_path):
    fmt = register_codebook_format("mxq1_huge_codebook", [1.0, 1e300])
    try:
        q = quantize(np.zeros((1, 32)), config(fmt.name, "pot_floor", 32))
        np.testing.assert_array_equal(q.scales, 2.0**-1074)
        write_quantized(tmp_path / "x.mxq", q)
        back = read_quantized(tmp_path / "x.mxq")
    finally:
        FORMATS.pop(fmt.name)
    np.testing.assert_array_equal(back.scales, q.scales)
    np.testing.assert_array_equal(dequantize(back), np.zeros((1, 32)))

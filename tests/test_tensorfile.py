import hashlib
import io
import struct
import tracemalloc

import numpy as np
import pytest

from mxemu import config, dequantize, quantize, quantizer
from mxemu.errors import TensorFileError
from mxemu.formats import decode, round_to_codes
from mxemu.scaling import SCALE_MODES
from mxemu.tensorfile import read_quantized, read_tensor, write_quantized, write_tensor

# one MXQ1 scale record: the scale pair and their 32-bit audit words
RECORD = np.dtype([("pos", "<f8"), ("neg", "<f8"), ("pbits", "<u4"), ("nbits", "<u4")])


def test_mxq1_round_trip_of_byte_codes(tmp_path, rng):
    q = quantize(rng.normal(0, 1, (4, 64)), config("fp8_e4m3_asym", "fp8e5m2", 32))
    write_quantized(tmp_path / "x.mxq", q)
    back = read_quantized(tmp_path / "x.mxq")
    np.testing.assert_array_equal(back.codes, q.codes)
    np.testing.assert_array_equal(back.scales, q.scales)


def test_mxq1_reader_rejects_a_file_that_names_fp16(tmp_path):
    names = b"".join(bytes([len(n)]) + n for n in (b"fp16", b"pot_floor"))
    header = struct.pack("<qqBBdB", 32, -1, 0, 0, 0.0, 1) + struct.pack("<Q", 32)
    (tmp_path / "x.mxq").write_bytes(b"MXQ1" + names + header + bytes(2 * 32))
    with pytest.raises(TensorFileError, match="bad config names.*fp16 is a shared-scale"):
        read_quantized(tmp_path / "x.mxq")


@pytest.mark.parametrize(
    "field, value",
    [("group_size", 24), ("group_size", 0), ("group_size", -2), ("group_size", 16),
     ("group_count", 7), ("axis", 5), ("axis", 2**40), ("first_dim", 2**62)],
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
    # a size below 1, other than the whole-row -1, is named as the group-size field
    match = "group size field" if field == "group_size" and value < 1 else None
    with pytest.raises(TensorFileError, match=match):
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
    assert not (tmp_path / "x.mxq").exists()  # the records are audited before the file opens


def test_mxq1_reader_names_the_file_of_a_zero_point_outside_int32(tmp_path, rng):
    q = quantize(rng.normal(0, 1, (4, 64)), config("int4_asym", "pot_floor", 32))
    path = tmp_path / "x.mxq"
    write_quantized(path, q)
    data = bytearray(path.read_bytes())
    struct.pack_into("<d", data, len(data) - 16, 2.0**40)  # the last record's zero point
    path.write_bytes(bytes(data))
    with pytest.raises(TensorFileError) as err:
        read_quantized(path)
    assert str(err.value) == f"{path}: zero point outside the signed 32-bit range"


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


def test_mxq1_writer_streams_its_sections_to_the_file(tmp_path, rng):
    # no copy of the whole file is built in memory: codes and records go out as they are
    q = quantize(rng.normal(0, 1, (256, 2048)), config("fp4_e2m1_asym", "fp8e5m2", 32))
    path = tmp_path / "x.mxq"
    tracemalloc.start()
    try:
        write_quantized(path, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * path.stat().st_size


def test_mxq1_writer_peaks_under_half_the_file_size(tmp_path, rng):
    # the records take 0.43x of this file; their audit words are made a
    # block's groups at a time, into the records
    q = quantize(rng.normal(0, 1, (1024, 4096)), config("fp4_e2m1_asym", "fp8e5m2", 32))
    path = tmp_path / "x.mxq"
    tracemalloc.start()
    try:
        write_quantized(path, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * path.stat().st_size


@pytest.mark.parametrize("cfg", sorted(MXQ1_SHA256), ids=lambda c: "/".join(map(str, c)))
def test_mxq1_audit_of_one_group_at_a_time(monkeypatch, tmp_path, rng, cfg):
    # the same bytes, and a damaged audit word in the last slice is found
    monkeypatch.setattr(quantizer, "BLOCK_ELEMS", 1)
    q = quantize(rng.normal(0, 1, (4, 64)), config(*cfg))
    path = tmp_path / "x.mxq"
    write_quantized(path, q)
    data = bytearray(path.read_bytes())
    assert hashlib.sha256(data).hexdigest() == MXQ1_SHA256[cfg]
    np.testing.assert_array_equal(read_quantized(path).scales, q.scales)
    data[-8] ^= 1  # the last record's pbits
    path.write_bytes(bytes(data))
    with pytest.raises(TensorFileError, match="a stored scale differs from its audit word$"):
        read_quantized(path)


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


def _npy(arr, allow_pickle=False, version=None):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asanyarray(arr), version, allow_pickle)
    return buf.getvalue()


def _npz(arr):
    buf = io.BytesIO()
    np.savez(buf, x=arr)
    return buf.getvalue()


# one case per reader check: the file's new bytes, from those of a valid 3x4 file
_DAMAGED_NPY = {
    "bad magic": (lambda b: b"X" + b[1:], "not a .npy tensor file"),
    "npz archive": (lambda b: _npz(np.ones((3, 4))), "not a .npy tensor file"),
    "empty file": (lambda b: b"", "not a .npy tensor file"),
    "truncated header": (lambda b: b[:20], "not a .npy tensor file"),
    "version 2.0": (lambda b: _npy(np.ones((3, 4)), version=(2, 0)), "version 1.0"),
    "truncated payload": (lambda b: b[:-1], "truncated payload: 95 bytes for 96"),
    "trailing byte": (lambda b: b + b"\x00", "trailing bytes after payload: 97 bytes for 96"),
    "int64 dtype": (lambda b: _npy(np.arange(12).reshape(3, 4)), "dtype int64 is not float"),
    "complex dtype": (lambda b: _npy(np.ones((3, 4), complex)), "dtype complex128 is not float"),
    "object dtype": (lambda b: _npy(np.ones((3, 4), object), True), "dtype object is not float"),
    "longdouble dtype": (lambda b: _npy(np.ones((3, 4), np.longdouble)), "is not float16"),
    "0-d array": (lambda b: _npy(np.float64(2.5)), r"shape \(\) is 0-d"),
    "zero dimension": (lambda b: _npy(np.ones((3, 0))), r"shape \(3, 0\) .* non-positive"),
}


@pytest.mark.parametrize("case", _DAMAGED_NPY)
def test_damaged_npy_raises(tmp_path, rng, case):
    damage, match = _DAMAGED_NPY[case]
    path = tmp_path / "x.npy"
    write_tensor(path, rng.normal(0, 1, (3, 4)))
    assert len(path.read_bytes()) == 128 + 96
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(TensorFileError, match=match):
        read_tensor(path)


def test_npy_header_claiming_more_than_the_file_fails_before_allocating(tmp_path):
    data = _npy(np.ones(4))
    claim = f"({2**40},)".encode()  # 12 bytes longer, taken from the header's padding
    huge = data.replace(b"(4,)", claim).replace(b" " * 12 + b"\n", b"\n")
    assert claim in huge and len(huge) == len(data)
    path = tmp_path / "x.npy"
    path.write_bytes(huge)
    tracemalloc.start()
    try:
        with pytest.raises(TensorFileError, match="truncated payload"):
            read_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("dtype", ["<f2", "<f4", ">f4", "<f8", ">f8"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_npy_float_inputs_read_back_as_c_ordered_float64(tmp_path, rng, dtype, order):
    stored = np.asarray(rng.normal(0, 1, (3, 5, 4)), dtype=dtype, order=order)
    (tmp_path / "x.npy").write_bytes(_npy(stored))
    got = read_tensor(tmp_path / "x.npy")
    assert got.dtype == np.float64 and got.flags.c_contiguous
    np.testing.assert_array_equal(got, stored.astype(np.float64))


def test_npy_round_trip_keeps_every_float64_bit(tmp_path, rng):
    x = np.r_[rng.normal(0, 1, 61), 0.1, -0.0, 5e-324].reshape(8, 8)
    write_tensor(tmp_path / "x.mxt", x)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.mxt"]  # no .npy suffix added
    assert np.load(tmp_path / "x.mxt").dtype == np.float64
    assert read_tensor(tmp_path / "x.mxt").tobytes() == x.tobytes()


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


def test_mxq1_reader_rejects_a_plain_tensor_file(tmp_path, rng):
    write_tensor(tmp_path / "x.npy", rng.normal(0, 1, (4, 64)))
    with pytest.raises(TensorFileError, match="not an MXQ1 file"):
        read_quantized(tmp_path / "x.npy")


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


@pytest.mark.parametrize("ts", [np.nan, 1.0, -0.0])
def test_mxq1_tensor_scale_field_must_be_positive_zero_with_the_flag_0(tmp_path, rng, ts):
    cfg = config("fp4_e2m1_asym", "fp8e5m2", 32)
    path = tmp_path / "x.mxq"
    write_quantized(path, quantize(rng.normal(0, 1, (4, 64)), cfg))
    data = bytearray(path.read_bytes())
    flag_at = 4 + 2 + len(cfg.fmt.name) + len(cfg.scale_mode.name) + 8 + 8 + 1
    assert data[flag_at] == 0 and data[flag_at + 1:flag_at + 9] == bytes(8)
    struct.pack_into("<d", data, flag_at + 1, ts)
    path.write_bytes(bytes(data))
    with pytest.raises(TensorFileError, match=r"field .* is not \+0\.0 with the flag 0"):
        read_quantized(path)


@pytest.mark.parametrize("name, mode, flag", [
    ("fp4_e2m1_asym", "fp8e5m2", 1),  # set where the mode has no tensor scale
    ("fp4_e2m1", "nvfp4_double", 0),  # cleared on an nvfp4_double file
    ("fp4_e2m1", "nvfp4_double", 2),
    ("int4_asym", "nvfp4_double", 1),  # set on a zero-point config
])
def test_mxq1_tensor_scale_flag_must_fit_the_config(tmp_path, rng, name, mode, flag):
    cfg = config(name, mode, 16)
    path = tmp_path / "x.mxq"
    write_quantized(path, quantize(rng.normal(0, 1, (4, 64)), cfg))
    data = bytearray(path.read_bytes())
    flag_at = 4 + 2 + len(cfg.fmt.name) + len(cfg.scale_mode.name) + 8 + 8 + 1
    data[flag_at] = flag
    if struct.unpack_from("<d", data, flag_at + 1)[0] == 0.0:  # no tensor scale was written
        struct.pack_into("<d", data, flag_at + 1, 2.0)
    path.write_bytes(bytes(data))
    with pytest.raises(TensorFileError, match=f"tensor-scale flag {flag} does not fit"):
        read_quantized(path)


def test_mxq1_rejects_a_zero_dimension(tmp_path):
    names = b"".join(bytes([len(n)]) + n for n in (b"fp4_e2m1", b"pot_floor"))
    header = struct.pack("<qqBBdB", 32, -1, 0, 0, 0.0, 2) + struct.pack("<3Q", 0, 64, 0)
    (tmp_path / "x.mxq").write_bytes(b"MXQ1" + names + header)
    with pytest.raises(TensorFileError, match=r"non-positive dimension in \(0, 64\)"):
        read_quantized(tmp_path / "x.mxq")


def test_mxq1_rejects_nvfp4_double_at_group_size_64(tmp_path, rng):
    cfg = config("fp4_e2m1", "nvfp4_double", 16)
    q = quantize(rng.normal(0, 1, (4, 64)), cfg)
    path = tmp_path / "x.mxq"
    write_quantized(path, q)
    data = bytearray(path.read_bytes())
    gs_at = 4 + 2 + len(cfg.fmt.name) + len(cfg.scale_mode.name)
    count_at = gs_at + 27 + 8 * len(q.shape) + q.codes.size
    struct.pack_into("<q", data, gs_at, 64)
    struct.pack_into("<Q", data, count_at, 4)  # the 4 groups of 64, each keeping a valid record
    path.write_bytes(bytes(data[:count_at + 8 + 4 * 24]))
    with pytest.raises(TensorFileError, match=r"requires group size in \(16, 32\)"):
        read_quantized(path)


def test_npy_writes_a_0d_array_as_one_element(tmp_path):
    write_tensor(tmp_path / "x.npy", np.float64(2.5))
    back = read_tensor(tmp_path / "x.npy")
    assert back.shape == (1,) and back[0] == 2.5


@pytest.mark.parametrize("name", ["fp4_e2m1", "fp4_e2m1_asym", "int8"])
def test_mxq1_round_trip_of_a_least_subnormal_groups_scale(tmp_path, name):
    x = np.zeros((1, 32))
    x[0, :2] = 5e-324, -5e-324  # amax 2**-1074 on either side: the floor of the scale rule
    q = quantize(x, config(name, "pot_floor", 32))
    np.testing.assert_array_equal(q.scales, 2.0**-1074)
    write_quantized(tmp_path / "x.mxq", q)
    back = read_quantized(tmp_path / "x.mxq")
    np.testing.assert_array_equal(back.scales, q.scales)
    np.testing.assert_array_equal(dequantize(back), x)


def _header_size(cfg, ndim):
    """Bytes of an MXQ1 file before its codes: magic, names, fixed header, dims."""
    return 4 + 2 + len(cfg.fmt.name) + len(cfg.scale_mode.name) + 27 + 8 * ndim


@pytest.mark.parametrize("name, code", [("fp4_e2m1", 0xF1), ("fp4_e2m1_asym", 0x10),
                                        ("fp8_e4m3", 0x7F), ("fp8_e4m3", 0xFF)])
def test_mxq1_rejects_a_code_that_names_no_value(tmp_path, rng, name, code):
    cfg = config(name, "pot_floor", 32)
    path = tmp_path / "x.mxq"
    write_quantized(path, quantize(rng.normal(0, 1, (4, 64)), cfg))
    data = bytearray(path.read_bytes())
    data[_header_size(cfg, 2) + 77] = code
    path.write_bytes(bytes(data))
    with pytest.raises(TensorFileError, match=f"a stored code names no {cfg.fmt.name} value"):
        read_quantized(path)


@pytest.mark.parametrize("name", ["fp4_e2m1_asym", "fp8_e4m3", "int4"])
def test_mxq1_rejects_the_negative_zero_code(tmp_path, rng, name):
    cfg = config(name, "pot_floor", 32)
    path = tmp_path / "x.mxq"
    write_quantized(path, quantize(rng.normal(0, 1, (4, 64)), cfg))
    data = bytearray(path.read_bytes())
    data[_header_size(cfg, 2)] = 1 << (cfg.fmt.total_bits - 1)
    path.write_bytes(bytes(data))
    with pytest.raises(TensorFileError, match=f"code is the negative zero of {cfg.fmt.name}"):
        read_quantized(path)


def test_mxq1_zero_point_code_of_the_sign_bit_is_a_value(tmp_path, rng):
    cfg = config("int4_asym", "pot_floor", 32)
    path, again = tmp_path / "x.mxq", tmp_path / "again.mxq"
    write_quantized(path, quantize(rng.normal(0, 1, (4, 64)), cfg))
    data = bytearray(path.read_bytes())
    data[_header_size(cfg, 2)] = 0x08  # unsigned: the code 8, not -0
    path.write_bytes(bytes(data))
    q = read_quantized(path)
    assert q.codes[0, 0] == 8
    write_quantized(again, q)
    assert again.read_bytes() == data


@pytest.mark.parametrize("flag", [2, 3, 5, 9])
def test_mxq1_asymmetric_flag_must_be_0_or_1(tmp_path, rng, flag):
    cfg = config("fp4_e2m1_asym", "fp8e5m2", 32)
    path = tmp_path / "x.mxq"
    write_quantized(path, quantize(rng.normal(0, 1, (4, 64)), cfg))
    data = bytearray(path.read_bytes())
    flag_at = 4 + 2 + len(cfg.fmt.name) + len(cfg.scale_mode.name) + 16
    assert data[flag_at] == 1
    data[flag_at] = flag
    path.write_bytes(bytes(data))
    with pytest.raises(TensorFileError, match=f"asymmetric flag {flag} is not 0 or 1"):
        read_quantized(path)


def test_mxq1_format_name_must_not_carry_the_asym_suffix(tmp_path, rng):
    cfg = config("fp4_e2m1_asym", "fp8e5m2", 32)
    path = tmp_path / "x.mxq"
    write_quantized(path, quantize(rng.normal(0, 1, (4, 64)), cfg))
    data = bytearray(path.read_bytes())
    flag_at = 4 + 2 + len(cfg.fmt.name) + len(cfg.scale_mode.name) + 16
    data[flag_at] = 0  # the name, not the flag, now says "_asym"
    data[4:4 + 1 + len(cfg.fmt.name)] = b"\x0dfp4_e2m1_asym"
    path.write_bytes(bytes(data))
    with pytest.raises(TensorFileError, match="'fp4_e2m1_asym' is not an element format name"):
        read_quantized(tmp_path / "x.mxq")


@pytest.mark.parametrize("name, mode", [("fp4_e2m1", "fp8e5m2"), ("fp4_e2m1", "nvfp4_double"),
                                        ("int4", "pot_floor")])
def test_mxq1_rejects_a_symmetric_group_with_two_scales(tmp_path, rng, name, mode):
    cfg = config(name, mode, 16)
    path = tmp_path / "x.mxq"
    write_quantized(path, quantize(rng.normal(0, 1, (4, 64)), cfg))
    data = bytearray(path.read_bytes())
    records_at = _header_size(cfg, 2) + 256 + 8
    rec = np.frombuffer(data, RECORD, offset=records_at)
    assert np.array_equal(rec["pos"], rec["neg"])
    other = np.flatnonzero(rec["pos"] != rec["pos"][5])[0]
    rec["neg"][5], rec["nbits"][5] = rec["pos"][other], rec["pbits"][other]  # a scale on the grid
    path.write_bytes(bytes(data))
    with pytest.raises(TensorFileError, match="a symmetric group's two stored scales differ"):
        read_quantized(path)


FUZZ_CONFIGS = [("fp4_e2m1_asym", "fp8e5m2", 32), ("int4_asym", "pot_floor", 32),
                ("fp4_e2m1", "nvfp4_double", 16)]


@pytest.mark.parametrize("name, mode, gs", FUZZ_CONFIGS)
def test_mxq1_fuzz_truncations_and_header_bit_flips(tmp_path, rng, name, mode, gs):
    """Every truncation and every single-bit flip of the header either raises
    TensorFileError or reads back a tensor that is written back unchanged."""
    cfg = config(name, mode, gs)
    path, again = tmp_path / "x.mxq", tmp_path / "again.mxq"
    write_quantized(path, quantize(rng.normal(0.3, 1, (32, 32)), cfg))
    data = path.read_bytes()
    flips = [bytes(data[:i]) + bytes([data[i] ^ (1 << bit)]) + data[i + 1:]
             for i in range(_header_size(cfg, 2)) for bit in range(8)]
    read_back = 0
    for case in [data[:end] for end in range(len(data))] + flips:
        path.write_bytes(case)
        try:
            q = read_quantized(path)
        except TensorFileError:
            continue
        write_quantized(again, q)
        assert again.read_bytes() == case
        read_back += 1
    assert 0 < read_back < len(flips)  # such as axis -2, another valid file


@pytest.mark.parametrize("name, mode, gs", FUZZ_CONFIGS)
def test_mxq1_fuzz_a_code_byte(tmp_path, rng, name, mode, gs):
    """Each of the 256 values of one code byte either raises TensorFileError
    or reads back a tensor that is written back unchanged and whose every code
    is the one quantize gives its value: no value has two codes."""
    cfg = config(name, mode, gs)
    path, again = tmp_path / "x.mxq", tmp_path / "again.mxq"
    write_quantized(path, quantize(rng.normal(0.3, 1, (32, 32)), cfg))
    data = bytearray(path.read_bytes())
    read_back = 0
    for byte in range(256):
        data[_header_size(cfg, 2)] = byte
        path.write_bytes(bytes(data))
        try:
            q = read_quantized(path)
        except TensorFileError:
            continue
        write_quantized(again, q)
        assert again.read_bytes() == data
        if not cfg.uses_zero_point:  # zero-point codes are unsigned integers, each canonical
            np.testing.assert_array_equal(round_to_codes(decode(q.codes, cfg.fmt), cfg.fmt),
                                          q.codes)
        read_back += 1
    # every code of the 4-bit format, less the negative zero of a signed one
    assert read_back == 16 - (not cfg.uses_zero_point)

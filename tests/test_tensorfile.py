import struct

import numpy as np
import pytest

from mxemu import config, quantize
from mxemu.errors import TensorFileError
from mxemu.formats import register_codebook_format
from mxemu.tensorfile import read_quantized, write_quantized


def test_mxq1_round_trip_of_byte_codes(tmp_path, rng):
    q = quantize(rng.normal(0, 1, (4, 64)), config("fp8_e4m3_asym", "fp8e5m2", 32))
    write_quantized(tmp_path / "x.mxq", q)
    back = read_quantized(tmp_path / "x.mxq")
    np.testing.assert_array_equal(back.codes, q.codes)
    np.testing.assert_array_equal(back.scales, q.scales)


def test_mxq1_rejects_codes_wider_than_a_byte(tmp_path, rng):
    fmt = register_codebook_format("mxq1_wide_codebook", np.arange(1.0, 201.0))
    assert fmt.total_bits == 9
    q = quantize(rng.normal(0, 1, (4, 64)) * 100, config(fmt.name, "pot_floor", 32))
    assert q.codes.max() > 255
    with pytest.raises(TensorFileError, match="one byte per code"):
        write_quantized(tmp_path / "x.mxq", q)
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

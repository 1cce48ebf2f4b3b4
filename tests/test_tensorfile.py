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

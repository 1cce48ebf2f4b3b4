import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mxemu
from mxemu import config, dequantize, quantize, quantize_dequantize
from mxemu.analysis import error_decomposition, group_stats
from mxemu.errors import ConfigError, DataError
from mxemu.formats import ELEMENT_FORMAT_NAMES, ElementFormat, get_format, max_normal
from mxemu.quantizer import QuantConfig, QuantizedTensor
from mxemu.rotation import make_rotation, rotate
from mxemu.scaling import (
    SCALE_MODES,
    fp_scale,
    group_scales,
    nvfp4_scales,
    pot_floor_scale,
    pot_round_scale,
)

from conftest import blocks_in_layout, shifted_gaussian

FP4 = get_format("fp4_e2m1")

MXFP4 = config("fp4_e2m1", "pot_floor", "row")
AMXFP4_POT = config("fp4_e2m1_asym", "pot_floor", "row")
AMXFP4_FP8 = config("fp4_e2m1_asym", "fp8e5m2", "row")

GOLDEN_MXFP4 = [-4.0, -2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0]
GOLDEN_AMXFP4_POT = [-4.0, -3.0, -2.0, -1.5, -1.0, -0.5, 0.0,
                     2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0]
GOLDEN_AMXFP4_FP8 = [-5.25, -3.5, -2.625, -1.75, -1.3125, -0.875, -0.4375,
                     0.0, 2.5, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0]


# ---- golden ramp ----------------------------------------------------------

def test_golden_mxfp4(ramp_1024):
    y = quantize_dequantize(ramp_1024, MXFP4)
    assert sorted(set(y.tolist())) == GOLDEN_MXFP4


def test_golden_amxfp4_pot(ramp_1024):
    y = quantize_dequantize(ramp_1024, AMXFP4_POT)
    assert sorted(set(y.tolist())) == GOLDEN_AMXFP4_POT


def test_golden_amxfp4_fp8(ramp_1024):
    y = quantize_dequantize(ramp_1024, AMXFP4_FP8)
    assert sorted(set(y.tolist())) == GOLDEN_AMXFP4_FP8


# ---- dequantize contracts --------------------------------------------------

def test_all_zero_codes_dequantize_to_zero():
    q = quantize(np.zeros((4, 32)), config("fp4_e2m1", "fp8e5m2", 16))
    assert np.all(q.codes == 0)
    np.testing.assert_array_equal(dequantize(q), np.zeros((4, 32)))


def test_on_grid_row_reproduces_exactly():
    x = np.array([6.0, 3.0, 1.5, 0.0])
    np.testing.assert_array_equal(quantize_dequantize(x, MXFP4), x)


def test_neg_code_six_with_scale_0875(ramp_1024):
    y = quantize_dequantize(ramp_1024, AMXFP4_FP8)
    assert y.min() == -5.25  # (-1)^1 * 6 * 0.875


def test_scalar_group_pot_floor_clamps():
    assert quantize_dequantize(np.array([7.9]), MXFP4)[0] == 6.0


def test_scalar_group_pot_round_avoids_clamp():
    cfg = config("fp4_e2m1", "pot_round", "row")
    assert quantize_dequantize(np.array([7.9]), cfg)[0] == 8.0


# ---- config and error contracts --------------------------------------------

def test_divisibility_error_names_axis_and_extent():
    with pytest.raises(ConfigError, match=r"group size 32 does not divide extent 8 along axis -1"):
        quantize(np.zeros((4, 8)), config("fp4_e2m1", "pot_floor", 32))


def test_nan_error_reports_index():
    x = np.zeros(64)
    x[17] = np.nan
    with pytest.raises(DataError, match="index 17"):
        quantize(x, MXFP4)


def test_inf_rejected():
    with pytest.raises(DataError):
        quantize(np.array([1.0, np.inf]), MXFP4)


def test_double_scale_requires_nvfp4_group_size():
    with pytest.raises(ConfigError, match="16, 32"):
        quantize(np.zeros(64), config("fp4_e2m1", "nvfp4_double", "row"))


def test_double_scale_group_size_is_checked_when_the_config_is_built():
    with pytest.raises(ConfigError, match="requires group size in"):
        config("fp4_e2m1", "nvfp4_double", 64)
    with pytest.raises(ConfigError, match="requires group size in"):
        replace(config("fp4_e2m1", "nvfp4_double", 16), group_size=None)


@pytest.mark.parametrize("gs", [True, False, -3, 0, 4.0, np.float64(4), np.int64(0)], ids=repr)
@pytest.mark.parametrize("build", [lambda gs: config("fp4_e2m1", group_size=gs),
                                   lambda gs: QuantConfig(get_format("fp4_e2m1"), gs)],
                         ids=["config", "QuantConfig"])
def test_a_bad_group_size_is_rejected_when_the_config_is_built(build, gs):
    with pytest.raises(ConfigError, match=re.escape(f"must be a positive integer, got {gs!r}")):
        build(gs)


def test_numpy_integer_group_sizes_build_a_config():
    cfg = config("fp4_e2m1", "nvfp4_double", np.int64(16))
    assert cfg.label() == "fp4_e2m1/nvfp4_double/gs=16"
    assert QuantConfig(get_format("fp4_e2m1"), np.uint8(8)).group_size == 8


@pytest.mark.parametrize("fmt", [get_format("fp16"), ElementFormat("fp5_e2m2", "float", 2, 2, 5)],
                         ids=lambda f: f.name)
def test_quant_config_takes_only_element_formats(fmt):
    with pytest.raises(ConfigError, match=f"{fmt.name} is not an element format"):
        QuantConfig(fmt, 32)


@pytest.mark.parametrize("name", ELEMENT_FORMAT_NAMES)
def test_codes_are_bytes_for_every_element_format(name, rng):
    x = rng.normal(0, 1, (2, 32))
    for mode in SCALE_MODES.values():
        for asym in (False, True):
            q = quantize(x, QuantConfig(get_format(name), 16, mode, asym))
            assert q.codes.dtype == np.uint8


def test_group_size_row_string():
    cfg = config("fp4_e2m1", "pot_floor", "row")
    assert cfg.group_size is None
    cfg = config("fp4_e2m1", "pot_floor", "64")
    assert cfg.group_size == 64


def test_scale_pair_count():
    q = quantize(np.zeros((4, 64)), config("fp4_e2m1", "pot_floor", 16))
    assert q.scales.shape == (4, 4, 2)
    assert q.n_groups == 16


def _side_routine(mode, fmt, tensor_amax):
    return {
        "pot_floor": lambda a: pot_floor_scale(a, fmt),
        "pot_round": lambda a: pot_round_scale(a, fmt),
        "fp": lambda a: fp_scale(a, fmt, mode.scale_fmt),
        "fp32": lambda a: group_scales(a[..., None], mode, fmt)[0],
        "double": lambda a: nvfp4_scales(tensor_amax, a, fmt)[1],
    }[mode.kind]


@pytest.mark.parametrize("asym", [False, True], ids=["sym", "asym"])
@pytest.mark.parametrize("mode_name", sorted(SCALE_MODES))
def test_stored_scales_are_the_side_routine_of_side_amaxes(mode_name, asym):
    # fixed input with an all-zero group, a one-sided group each way and
    # groups of mixed sign, so degenerate sides are covered
    x = np.random.default_rng(11).normal(0.3, 2.0, (6, 64))
    x[0, :32] = 0.0
    x[1, 32:] = np.abs(x[1, 32:])
    x[2, :32] = -np.abs(x[2, :32])
    mode = SCALE_MODES[mode_name]
    q = quantize(x, QuantConfig(FP4, 32, mode, asym))
    xg = x.reshape(6, 2, 32)
    if asym:
        pos_amax, neg_amax = np.maximum(xg.max(-1), 0.0), np.maximum(-xg.min(-1), 0.0)
    else:
        pos_amax = neg_amax = np.abs(xg).max(-1)
    tensor_amax = float(np.abs(x).max())
    routine = _side_routine(mode, FP4, tensor_amax)
    np.testing.assert_array_equal(q.scales[..., 0], routine(pos_amax))
    np.testing.assert_array_equal(q.scales[..., 1], routine(neg_amax))
    if mode.kind == "double":
        assert q.tensor_scale == nvfp4_scales(tensor_amax, pos_amax, FP4)[0]
    else:
        assert q.tensor_scale is None


def test_negative_zero_lands_on_positive_side():
    q = quantize(np.array([-0.0, 1.0]), MXFP4)
    assert q.codes[0] == 0
    assert not np.signbit(dequantize(q)[0])


# ---- invariants ------------------------------------------------------------

SAFE_CONFIGS = [
    ("fp4_e2m1", "pot_floor"), ("fp4_e2m1", "pot_round"),
    ("fp4_e2m1", "fp8e5m2"), ("fp4_e2m1", "fp8e4m3"),
    ("fp4_e2m1", "fp16"), ("fp4_e2m1", "fp32"),
    ("fp6_e3m2", "pot_floor"), ("fp6_e2m3", "pot_round"),
    ("fp8_e4m3", "fp16"), ("fp8_e5m2", "fp32"),
    ("int4", "pot_floor"), ("int8", "fp16"),
]


@pytest.mark.parametrize("fmt,mode", SAFE_CONFIGS)
@pytest.mark.parametrize("asym", [False, True])
def test_idempotence(fmt, mode, asym, rng):
    name = fmt + ("_asym" if asym else "")
    scale_ref = max_normal(get_format(fmt))
    for gs in (16, None):
        cfg = config(name, mode, gs)
        for _ in range(20):
            x = rng.normal(rng.normal(), 1.0, (2, 64)) * scale_ref / 3.0
            y1 = quantize_dequantize(x, cfg)
            y2 = quantize_dequantize(y1, cfg)
            np.testing.assert_array_equal(y1, y2)


def test_idempotence_nvfp4(rng):
    for name in ("fp4_e2m1", "fp4_e2m1_asym"):
        cfg = config(name, "nvfp4_double", 16)
        for _ in range(40):
            x = rng.normal(rng.normal(), 1.0, (4, 32)) * np.exp2(rng.uniform(-4, 4))
            y1 = quantize_dequantize(x, cfg)
            y2 = quantize_dequantize(y1, cfg)
            np.testing.assert_array_equal(y1, y2)


@pytest.mark.parametrize("name, codes", [("fp4_e2m1_asym", [7] * 8 + [15] * 8),
                                         ("fp4_e2m1", [5] * 8 + [15] * 8)])
def test_underflowing_applied_scale_divides_by_each_factor(name, codes):
    x, cfg = np.r_[np.full(8, 5e-324), np.full(8, -1e-323)], config(name, "nvfp4_double", 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = quantize(x, cfg)
        values, clamped = blocks_in_layout(x, cfg)
    assert not (q.scales * q.tensor_scale).any()  # group scale x tensor scale is 0.0
    assert q.codes.tolist() == codes
    assert not clamped.any()
    np.testing.assert_array_equal(dequantize(q), x)
    np.testing.assert_array_equal(values, x)


def test_idempotence_zero_point(rng):
    cfg = config("int4_asym", "pot_floor", 16)
    for _ in range(60):
        x = rng.normal(rng.normal() * 2, 1.0, (4, 32)) * np.exp2(rng.uniform(-4, 4))
        y1 = quantize_dequantize(x, cfg)
        y2 = quantize_dequantize(y1, cfg)
        np.testing.assert_array_equal(y1, y2)


@given(data=st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                     min_size=4, max_size=4))
def test_sign_preservation(data):
    x = np.array(data)
    y = quantize_dequantize(x, AMXFP4_FP8)
    assert np.all((np.sign(y) == np.sign(x)) | (y == 0))


def test_group_locality(rng):
    cfg = config("fp4_e2m1_asym", "fp8e5m2", 16)
    x = rng.normal(0, 1, 128)
    q1 = quantize(x, cfg)
    x2 = x.copy()
    x2[32:48] *= 100.0  # perturb group 2 only
    q2 = quantize(x2, cfg)
    mask = np.ones(8, dtype=bool)
    mask[2] = False
    np.testing.assert_array_equal(
        q1.codes.reshape(8, 16)[mask], q2.codes.reshape(8, 16)[mask]
    )
    np.testing.assert_array_equal(q1.scales[mask], q2.scales[mask])


def test_symmetric_data_makes_asym_equal_mx(rng):
    half = rng.normal(0, 1, (4, 16))
    sym = np.concatenate([half, -half], axis=1)  # each group sign-symmetric
    for mode in ("pot_floor", "fp8e5m2", "fp32"):
        a = quantize_dequantize(sym, config("fp4_e2m1", mode, 32))
        b = quantize_dequantize(sym, config("fp4_e2m1_asym", mode, 32))
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("mode", ["pot_round", "fp8e5m2", "fp8e4m3", "fp16"])
def test_boundedness(mode, rng):
    cfg = config("fp4_e2m1", mode, 32)
    x = rng.normal(0, 2, (8, 32))
    q = quantize(x, cfg)
    y = dequantize(q).reshape(8, 1, 32)
    limit = q.scales[..., 0][..., None] * max_normal(FP4)
    assert np.all(np.abs(y) <= limit)


def test_determinism(rng):
    x = rng.normal(0, 1, (16, 64))
    cfg = config("fp4_e2m1_asym", "fp8e5m2", 16)
    qa, qb = quantize(x, cfg), quantize(x, cfg)
    np.testing.assert_array_equal(qa.codes, qb.codes)
    np.testing.assert_array_equal(qa.scales, qb.scales)


def test_axis_zero_matches_transposed(rng):
    x = rng.normal(0, 1, (64, 5))
    a = quantize_dequantize(x, config("fp4_e2m1", "fp8e5m2", 16, axis=0))
    b = quantize_dequantize(x.T, config("fp4_e2m1", "fp8e5m2", 16, axis=-1)).T
    np.testing.assert_array_equal(a, b)


# ---- zero-point integer path ----------------------------------------------

def test_zero_point_scale_and_zp():
    x = np.array([-1.0, 0.0, 2.0, 5.0])
    q = quantize(x, config("int4_asym", "pot_floor", "row"))
    scale = float(np.float32(6.0 / 15.0))
    assert q.scales[0, 0] == scale
    assert q.scales[0, 1] == np.round(1.0 / scale)
    y = dequantize(q)
    assert np.all(np.abs(y - x) <= scale / 2 + 1e-12)


def test_zero_point_beats_symmetric_on_shifted_data(rng):
    x = shifted_gaussian(rng, 64, 32).ravel()
    err_sym = np.mean((quantize_dequantize(x, config("int4", "fp8e5m2", 32)) - x) ** 2)
    err_zp = np.mean((quantize_dequantize(x, config("int4_asym", "fp8e5m2", 32)) - x) ** 2)
    assert err_zp < err_sym


@pytest.mark.parametrize("group, zp", [([0.0, -0.0, 1.0], 0.0), ([-0.0, 0.0, 1.0], -0.0)])
def test_zero_point_of_a_zero_minimum_keeps_its_sign(group, zp):
    # numpy's min of the group gives the zero minimum's sign, and -min / scale
    # carries it into the stored zero point
    q = quantize(np.tile(group, (300, 1)), config("int4_asym", "pot_floor", "row"))
    assert q.scales[..., 1].tobytes() == np.full((300, 1), zp).tobytes()


def test_zero_point_constant_group():
    x = np.full(16, 3.25)
    y = quantize_dequantize(x, config("int4_asym", "pot_floor", "row"))
    assert np.allclose(y, x, rtol=1e-6)
    np.testing.assert_array_equal(
        quantize_dequantize(y, config("int4_asym", "pot_floor", "row")), y
    )


@pytest.mark.parametrize("row", [[1e-300, 3e-300], [-1e-46, 1e-46], [0.0, 1e-45]])
def test_zero_point_scale_underflow_flushes_to_least_subnormal(row):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = quantize(np.array(row), config("int4_asym", "pot_floor", "row"))
        y = dequantize(q)
    assert q.scales[0, 0] == 2.0**-149
    assert np.isfinite(q.scales).all() and np.isfinite(y).all()
    assert np.all(np.abs(y - row) <= 2.0**-150)


def test_zero_point_scale_at_the_top_of_binary32():
    q = quantize(np.array([0.0, 5e39]), config("int4_asym", "pot_floor", "row"))
    assert q.scales[0, 0] == float(np.float32(5e39 / 15))
    assert np.isfinite(dequantize(q)).all()


@pytest.mark.parametrize("row", [[0.0, 1e300], [-1e308, 1e308], [1e300, 1e300]])
def test_zero_point_scale_overflow_raises(row):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="binary32"):
            quantize(np.array(row), config("int4_asym", "pot_floor", "row"))


# ---- whole-tensor edge cases ------------------------------------------------

@pytest.mark.parametrize("mode", ["pot_floor", "pot_round", "fp8e5m2", "fp32"])
def test_zero_tensor(mode):
    x = np.zeros((2, 32))
    q = quantize(x, config("fp4_e2m1_asym", mode, 16))
    assert np.all(q.codes == 0)
    np.testing.assert_array_equal(dequantize(q), x)


def test_empty_tensor_rejected():
    with pytest.raises(DataError):
        quantize(np.empty((0, 4)), MXFP4)


def test_quantized_tensor_shape_roundtrip(rng):
    x = rng.normal(0, 1, (3, 4, 32))
    for axis in (-1, 0, 1):
        cfg = config("fp4_e2m1", "fp8e5m2",
                     16 if x.shape[axis] % 16 == 0 else "row", axis=axis)
        y = quantize_dequantize(x, cfg)
        assert y.shape == x.shape


@pytest.mark.parametrize("call", [
    lambda x: group_stats(x, 4.0),
    lambda x: group_stats(x, "4"),
    lambda x: quantize(x, config("fp4_e2m1", group_size=True)),
    lambda x: quantize(x, QuantConfig(get_format("fp4_e2m1"), group_size=np.float64(4))),
    lambda x: make_rotation(True, 0),
    lambda x: make_rotation(4.0, 0),
    lambda x: make_rotation(np.bool_(True), 0),
], ids=["float", "str", "true", "numpy_float", "rotation_true", "rotation_float",
        "rotation_numpy_bool"])
def test_a_size_that_is_not_an_integer_is_a_config_error(call):
    with pytest.raises(ConfigError, match="must be (a positive|an) integer"):
        call(np.ones((2, 8)))


def test_numpy_integer_sizes_are_accepted():
    x = np.arange(16.0).reshape(2, 8)
    assert group_stats(x, np.int64(4)).mean.tolist() == group_stats(x, 4).mean.tolist()
    assert make_rotation(np.int64(8), 0).dim == 8


@pytest.mark.parametrize("axis", [2, -3, 2**31, 2**40, -2**40])
def test_an_axis_out_of_range_is_a_config_error_however_large(axis):
    x = np.zeros((4, 64))
    match = rf"axis {axis} out of range for shape \(4, 64\)"
    for call in (lambda: quantize(x, config("fp4_e2m1", "pot_floor", 32, axis)),
                 lambda: group_stats(x, 32, axis),
                 lambda: error_decomposition(x, config("fp4_e2m1", "pot_floor", 32, axis)),
                 lambda: rotate(x, make_rotation(64, 0), axis)):
        with pytest.raises(ConfigError, match=match):
            call()

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mxemu.errors import DataError
from mxemu.formats import (
    FORMATS,
    get_format,
    grid,
    max_normal,
    min_positive,
    register_codebook_format,
)
from mxemu.quantizer import config, quantize
from mxemu.scaling import (
    SCALE_MODES,
    degenerate_scale,
    fp32_scale,
    fp_scale,
    get_scale_mode,
    group_scales,
    nvfp4_scales,
    pot_floor_scale,
    pot_round_scale,
)

FP4 = get_format("fp4_e2m1")
E4M3 = get_format("fp8_e4m3")
E5M2 = get_format("fp8_e5m2")

amaxes = st.floats(min_value=1e-20, max_value=1e20, allow_nan=False)


def test_pot_floor_examples():
    assert pot_floor_scale(31, FP4) == 4.0
    assert pot_floor_scale(4.9, FP4) == 1.0
    assert pot_floor_scale(0.0, FP4) == 2.0 ** (-2 - 126)


def test_pot_round_examples():
    assert pot_round_scale(7.9, FP4) == 2.0   # nearest power of two is 8
    assert pot_round_scale(4.0, FP4) == 1.0   # exact power of two
    assert pot_round_scale(31, FP4) == 8.0


def test_pot_round_tie_keeps_lower_exponent():
    # 6 = 1.5 * 2**2 is equidistant from 4 and 8 in value
    assert pot_round_scale(6.0, FP4) == 1.0
    assert pot_round_scale(6.0000000001, FP4) == 2.0


def test_fp_scale_examples():
    assert fp_scale(31, FP4, E5M2) == 5.0
    assert fp_scale(4.9, FP4, E5M2) == 0.875
    assert fp_scale(6.0, FP4, E4M3) == 1.0


def test_fp_scale_overflow_and_underflow():
    assert fp_scale(6e30, FP4, E5M2) == max_normal(E5M2)
    assert fp_scale(6e-30, FP4, E5M2) == min_positive(E5M2)
    assert fp_scale(6e-30, FP4, E4M3) == min_positive(E4M3)
    assert fp_scale(5e-324, FP4, E5M2) == min_positive(E5M2)


def test_fp_scale_rejects_negative_and_nan():
    for bad in (-1.0, float("nan")):
        with pytest.raises(DataError):
            fp_scale(bad, FP4, E5M2)


def test_scale_rejects_bad_amax():
    for fn in (pot_floor_scale, pot_round_scale):
        with pytest.raises(DataError):
            fn(float("nan"), FP4)
        with pytest.raises(DataError):
            fn(-1.0, FP4)
    with pytest.raises(DataError):
        fp_scale(float("inf"), FP4, E5M2)


@given(amax=amaxes)
def test_pot_ordering(amax):
    lo = pot_floor_scale(amax, FP4)
    hi = pot_round_scale(amax, FP4)
    assert lo <= hi <= 2 * lo


@given(amax=amaxes)
def test_pot_scales_are_powers_of_two(amax):
    for s in (pot_floor_scale(amax, FP4), pot_round_scale(amax, FP4)):
        assert math.frexp(s)[0] == 0.5


@given(amax=st.floats(min_value=1e-3, max_value=1e6))
@pytest.mark.parametrize("scale_fmt", [E4M3, E5M2, get_format("fp16")],
                         ids=lambda f: f.name)
def test_fp_scale_on_its_grid(scale_fmt, amax):
    s = fp_scale(amax, FP4, scale_fmt)
    assert s in grid(scale_fmt)


@given(amax=st.floats(min_value=1e-3, max_value=3e5))
def test_fp_scale_coverage(amax):
    # clamping of the group max is bounded by one scale-grid step, as long
    # as the ideal scale stays inside the scale grid's normal range
    s = fp_scale(amax, FP4, E5M2)
    assert amax / s <= max_normal(FP4) * (1 + 2.0**-E5M2.mantissa_bits)


def test_asym_scales_fixture():
    x = np.linspace(-4.9, 31, 1024)
    pos, neg, _ = group_scales(x, get_scale_mode("pot_floor"), FP4, asymmetric=True)
    assert (pos, neg) == (4.0, 1.0)
    pos, neg, _ = group_scales(x, get_scale_mode("fp8e5m2"), FP4, asymmetric=True)
    assert (pos, neg) == (5.0, 0.875)


def test_asym_scales_one_sided():
    for mode_name in SCALE_MODES:
        mode = get_scale_mode(mode_name)
        pos, neg, _ = group_scales(np.array([1.0, 2.0, 3.0]), mode, FP4, asymmetric=True)
        assert neg == degenerate_scale(mode, FP4)
        assert pos > 0


@given(vals=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                               allow_nan=False), min_size=1, max_size=32))
def test_asym_symmetric_consistency(vals):
    x = np.array(vals)
    sym = np.concatenate([x, -x])
    pos, neg, _ = group_scales(sym, get_scale_mode("fp8e5m2"), FP4, asymmetric=True)
    assert pos == neg


def test_nvfp4_exact_fixtures():
    ts, gs = nvfp4_scales(2688.0, [2688.0])
    assert ts == 1.0 and gs[0] == 448.0
    ts, gs = nvfp4_scales(6.0, [6.0])
    assert gs[0] * ts == 1.0
    ts, gs = nvfp4_scales(6.0, [0.0])
    assert gs[0] == min_positive(E4M3)


def test_nvfp4_requires_dominating_tensor_amax():
    with pytest.raises(DataError):
        nvfp4_scales(1.0, [2.0])


@pytest.mark.parametrize("tensor_amax", [-1.0, float("nan")])
def test_nvfp4_rejects_a_bad_tensor_amax(tensor_amax):
    with pytest.raises(DataError, match="tensor amax must be finite"):
        nvfp4_scales(tensor_amax, [0.0])


def test_nvfp4_zero_tensor_degenerate():
    ts, gs = nvfp4_scales(0.0, [0.0, 0.0])
    assert ts > 0 and np.all(gs > 0)


@pytest.mark.parametrize("x, mode", [
    (np.full(16, 5e-324), "fp8e5m2"),
    (np.r_[np.full(16, 1e10), np.full(16, 1e-320)], "nvfp4_double"),
], ids=["fp8e5m2", "nvfp4_double"])
def test_fp_encoded_scale_flushes_an_underflowed_ideal_scale(x, mode):
    # amax / unit underflows to 0.0; the last group's scale is the grid's least value
    q = quantize(x, config("fp4_e2m1", mode, 16))
    assert q.scales[-1, 0] == min_positive(SCALE_MODES[mode].scale_fmt)


@given(amax=st.floats(min_value=1e-6, max_value=1e6))
def test_fp32_scale_maps_max_to_max(amax):
    s = fp32_scale(amax, FP4)
    assert s == float(np.float32(amax / 6.0))


def test_fp32_scale_flushes_underflow_and_rejects_overflow():
    assert fp32_scale(1e-60, FP4) == 2.0**-149
    np.testing.assert_array_equal(fp32_scale(np.array([0.0, 1e-60]), FP4),
                                  [degenerate_scale(SCALE_MODES["fp32"], FP4), 2.0**-149])
    with pytest.raises(DataError, match="binary32"):
        fp32_scale(1e300, FP4)


def test_group_scale_dispatch_matches_scalar_routines():
    a = np.array([0.0, 0.5, 31.0, 4.9])
    xg = np.stack([a, -a / 2], axis=-1)  # each group's |x| max is a
    pos, neg, _ = group_scales(xg, get_scale_mode("pot_floor"), FP4)
    np.testing.assert_array_equal(pos, [pot_floor_scale(v, FP4) for v in a])
    assert neg is pos
    pos, neg, _ = group_scales(xg, get_scale_mode("fp8e5m2"), FP4)
    np.testing.assert_array_equal(
        pos, [fp_scale(v, FP4, E5M2) if v > 0 else min_positive(E5M2) for v in a]
    )
    assert neg is pos


# SHA-256 of the group_scales and nvfp4_scales outputs over every scale mode,
# sym/asym and the inputs below; a DataError counts as its name.
PINNED_SCALE_BITS = {
    "fp4_e2m1": "e7d3487790b52b6720f969b54bd96b6f47d953ade9f5db7f7dc7b60c36ff7590",
    "pinned_cb_1e30": "c18602e1d263b6a0d283710a4b378261fb5efa63d3fd5a78e25d80f9796c534b",
}


def _scale_digest(fmt):
    rng = np.random.default_rng(21)
    x = rng.normal(0.2, 1.5, (12, 32))
    x[0], x[1, :16] = 0.0, 0.0
    x[2], x[3] = np.abs(x[2]), -np.abs(x[3])
    inputs = [x, x * 1e300, np.zeros((2, 32))]
    if fmt.kind != "codebook":  # its amax / 1e30 would underflow every grid
        inputs.append(x * 1e-310)
    h = hashlib.sha256()
    for mode in SCALE_MODES.values():
        for asym in (False, True):
            for xi in inputs:
                try:
                    pos, neg, ts = group_scales(xi.reshape(12 if xi.size > 64 else 2, 2, 16),
                                                mode, fmt, asym)
                    h.update(np.asarray(pos).tobytes() + np.asarray(neg).tobytes())
                    h.update(repr(ts).encode())
                except DataError:
                    h.update(b"DataError")
    for tensor_amax in (0.0, 6.0, 1e300):
        amaxes = np.array([0.0, tensor_amax / 3, tensor_amax])
        ts, gs = nvfp4_scales(tensor_amax, amaxes, fmt)
        h.update(repr(ts).encode() + gs.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("fmt_name", sorted(PINNED_SCALE_BITS))
def test_scale_bits_pinned(fmt_name):
    if fmt_name == "pinned_cb_1e30":  # fp32 flushes its degenerate 2**-225 to 2**-149
        register_codebook_format(fmt_name, [0.3, 1.0, 1e30])
    try:
        assert _scale_digest(get_format(fmt_name)) == PINNED_SCALE_BITS[fmt_name]
    finally:
        if fmt_name == "pinned_cb_1e30":
            FORMATS.pop(fmt_name)

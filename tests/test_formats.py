import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mxemu import formats
from mxemu.errors import ConfigError, DataError
from mxemu.formats import (
    ELEMENT_FORMAT_NAMES,
    decode,
    emax_elem,
    encode,
    get_format,
    grid,
    max_normal,
    min_positive,
    parse_format,
    register_codebook_format,
    round_to_grid,
)

ALL_FORMATS = [get_format(n) for n in ELEMENT_FORMAT_NAMES]
FP4 = get_format("fp4_e2m1")
E4M3 = get_format("fp8_e4m3")
E5M2 = get_format("fp8_e5m2")
FP16 = get_format("fp16")

finite_reals = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e30, max_value=1e30
)


def mantissa_parity(mag, fmt):
    """Mantissa code parity derived from the format definition itself."""
    if fmt.kind == "int":
        return int(mag) % 2
    if fmt.kind == "codebook":
        return fmt.codebook.index(mag) % 2  # the magnitude code is the table index
    if mag == 0:
        return 0
    e = math.frexp(mag)[1] - 1
    if e < 1 - fmt.bias:  # subnormal
        m = round(mag / 2.0 ** (1 - fmt.bias) * 2**fmt.mantissa_bits)
    else:
        m = round((mag / 2.0**e - 1) * 2**fmt.mantissa_bits)
    return m % 2


@functools.lru_cache(maxsize=None)
def grid_parity(fmt):
    return np.array([mantissa_parity(abs(x), fmt) for x in grid(fmt)])


def brute_force_nearest(v, fmt):
    """Independent oracle: full distance scan, ties to even mantissa code."""
    g = grid(fmt)
    parity = grid_parity(fmt)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    out = np.empty_like(v)
    for start in range(0, len(v), 4096):
        chunk = v[start : start + 4096]
        d = np.abs(chunk[:, None] - g[None, :])
        dmin = d.min(axis=1)
        is_min = d == dmin[:, None]
        pref = is_min & (parity[None, :] == 0)
        idx = np.where(pref.any(axis=1), pref.argmax(axis=1), is_min.argmax(axis=1))
        out[start : start + 4096] = g[idx]
    return out


# ---- grids ---------------------------------------------------------------

def test_fp4_grid_exact():
    assert grid(FP4).tolist() == [
        -6.0, -4.0, -3.0, -2.0, -1.5, -1.0, -0.5, 0.0,
        0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0,
    ]


def test_int4_grid_excludes_negative_full_scale():
    assert grid(get_format("int4")).tolist() == list(range(-7, 8))


def test_e5m2_neighborhood_of_0p8167():
    g = grid(E5M2)
    idx = np.searchsorted(g, 0.8167)
    assert (g[idx - 1], g[idx]) == (0.75, 0.875)


@pytest.mark.parametrize("fmt", ALL_FORMATS + [FP16], ids=lambda f: f.name)
def test_grid_shape_invariants(fmt):
    g = grid(fmt)
    assert len(g) <= 2**fmt.total_bits
    assert np.all(np.diff(g) > 0)
    assert 0.0 in g
    assert g[-1] == max_normal(fmt) and g[0] == -max_normal(fmt)
    np.testing.assert_array_equal(g, -g[::-1])


@pytest.mark.parametrize(
    "name,mn,emax",
    [
        ("fp4_e2m1", 6.0, 2),
        ("fp6_e3m2", 28.0, 4),
        ("fp6_e2m3", 7.5, 2),
        ("fp8_e4m3", 448.0, 8),
        ("fp8_e5m2", 57344.0, 15),
        ("fp16", 65504.0, 15),
        ("int4", 7.0, 2),
        ("int8", 127.0, 6),
    ],
)
def test_max_normal_and_emax(name, mn, emax):
    fmt = get_format(name)
    assert max_normal(fmt) == mn
    assert emax_elem(fmt) == emax


def test_unsupported_format_rejected():
    with pytest.raises(ConfigError, match="unsupported format"):
        get_format("fp5_e2m2")


@pytest.mark.parametrize("kwargs, match", [
    (dict(exponent_bits=3, mantissa_bits=0, total_bits=4), "needs a mantissa bit"),
    (dict(exponent_bits=2, mantissa_bits=1, total_bits=5), "total_bits 5 != 1"),
    (dict(exponent_bits=2, mantissa_bits=1, total_bits=4, reserved="none"), "bad reserved policy"),
])
def test_bad_float_format_rejected(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        formats.ElementFormat("bad_float", "float", **kwargs)


# ---- rounding ------------------------------------------------------------

def test_round_examples():
    assert round_to_grid(1.225, FP4) == 1.0
    assert round_to_grid(7.0, FP4) == 6.0  # clamps
    assert round_to_grid(3.5, FP4) == 4.0  # tie -> even mantissa
    assert round_to_grid(-3.5, FP4) == -4.0
    assert round_to_grid(0.25, FP4) == 0.0  # tie between 0 and 0.5


def test_round_rejects_nan():
    with pytest.raises(DataError):
        round_to_grid(float("nan"), FP4)
    with pytest.raises(DataError):
        round_to_grid(np.array([1.0, np.nan]), FP4)


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
def test_roundtrip_on_grid(fmt):
    g = grid(fmt)
    np.testing.assert_array_equal(round_to_grid(g, fmt), g)


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
def test_brute_force_oracle_equivalence(fmt):
    rng = np.random.default_rng(1234)
    mn = max_normal(fmt)
    mids = (grid(fmt)[1:] + grid(fmt)[:-1]) / 2  # exercises every tie
    v = np.concatenate([rng.uniform(-2 * mn, 2 * mn, 100_000), mids])
    np.testing.assert_array_equal(round_to_grid(v, fmt), brute_force_nearest(v, fmt))


@given(v1=finite_reals, v2=finite_reals)
def test_round_monotone(v1, v2):
    lo, hi = min(v1, v2), max(v1, v2)
    assert round_to_grid(lo, FP4) <= round_to_grid(hi, FP4)


@given(v=finite_reals)
def test_round_bounded_error(v):
    fmt = FP4
    g = grid(fmt)
    if abs(v) > max_normal(fmt):
        return
    r = round_to_grid(v, fmt)
    i = int(np.searchsorted(g, v))
    lo = g[max(i - 1, 0)]
    hi = g[min(i, len(g) - 1)]
    assert abs(r - v) <= (hi - lo) / 2


def test_round_real_to_fp_examples():
    # a real-valued scale amax/max_normal(elem) rounds onto the scale
    # format's grid nearest-even; scaling.fp_scale is this plus the clamps
    assert round_to_grid(31 / 6, E5M2) == 5.0
    assert round_to_grid(4.9 / 6, E5M2) == 0.875
    assert round_to_grid(1.0, E4M3) == 1.0


# ---- codes ---------------------------------------------------------------

@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
def test_encode_decode_roundtrip(fmt):
    g = grid(fmt)
    np.testing.assert_array_equal(decode(encode(g, fmt), fmt), g)


def test_encode_total_after_rounding():
    rng = np.random.default_rng(7)
    v = rng.normal(0, 3, 1000)
    codes = encode(round_to_grid(v, FP4), FP4)
    assert codes.dtype == np.uint8
    assert np.all(codes < 2**FP4.total_bits)


def test_zero_encodes_with_positive_sign():
    codes = encode(np.array([0.0, -0.0]), FP4)
    assert codes[0] == codes[1] == 0


def test_encode_rejects_off_grid():
    with pytest.raises(DataError):
        encode(np.array([1.2]), FP4)


def test_decode_rejects_invalid_code():
    # e4m3 code (e=15, m=7) is not a finite value
    bad = np.array([0b01111111], dtype=np.uint8)
    with pytest.raises(DataError):
        decode(bad, E4M3)


# ---- name parsing and custom codebooks ------------------------------------

def test_parse_format_suffix():
    fmt, asym = parse_format("fp4_e2m1_asym")
    assert fmt.name == "fp4_e2m1" and asym
    fmt, asym = parse_format("int8")
    assert fmt.name == "int8" and not asym


def test_parse_format_unknown_lists_names():
    with pytest.raises(ConfigError, match="fp4_e2m1"):
        parse_format("fp3_e1m1")


def test_fp16_not_an_element_format():
    with pytest.raises(ConfigError, match="shared-scale"):
        parse_format("fp16")


def test_custom_codebook_roundtrip():
    fmt = register_codebook_format("demo_cb", [0.5, 1.0, 2.5])
    try:
        g = grid(fmt)
        assert g.tolist() == [-2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.5]
        assert round_to_grid(2.0, fmt) == 2.5  # 2.0 nearer 2.5 than 1.0
        np.testing.assert_array_equal(decode(encode(g, fmt), fmt), g)
    finally:
        formats.FORMATS.pop("demo_cb", None)


@pytest.mark.parametrize("mags, match", [
    ([0.0, -0.0], "at least one nonzero magnitude"),
    ([1.0, np.inf], "must be finite"),
])
def test_register_codebook_rejects_bad_magnitudes(mags, match):
    with pytest.raises(ConfigError, match=match):
        register_codebook_format("bad_cb", mags)
    assert "bad_cb" not in formats.FORMATS


def test_decode_rejects_codes_wider_than_the_format():
    for codes, fmt in ((np.array([200]), FP4), (np.array([0x88], np.uint8), FP4),
                       (np.array([300]), get_format("int8")), (np.array([-1]), FP4)):
        with pytest.raises(DataError, match="codes must be integers that lie in"):
            decode(codes, fmt)
    np.testing.assert_array_equal(decode(np.array([15, 8, 0], np.uint8), FP4), [-6.0, -0.0, 0.0])


# ---- the rounding kernel's contract ---------------------------------------

def _contract_codebook():
    fmt = register_codebook_format("contract_cb", [0.3, 0.5, 1.0, 1.7, 2.5, 4.0, 9.0])
    formats.FORMATS.pop(fmt.name)  # leave the registry as the other tests expect it
    return fmt


CONTRACT_FORMATS = ALL_FORMATS + [FP16, _contract_codebook()]


@functools.lru_cache(maxsize=None)
def contract_values(fmt):
    """Midpoints and their float64 neighbours, subnormals, +/-max and beyond,
    +/-0.0 and every float64 power of two, with either sign."""
    g = grid(fmt)
    mids = st.sampled_from((g[1:] + g[:-1]) / 2)
    mx = max_normal(fmt)
    below_normal = 2.0 ** (1 - fmt.bias) if fmt.kind == "float" else 2 * min_positive(fmt)
    mag = st.one_of(
        mids,
        mids.map(lambda m: np.nextafter(m, np.inf)),
        mids.map(lambda m: np.nextafter(m, -np.inf)),
        st.floats(0.0, below_normal),
        st.sampled_from([mx, np.nextafter(mx, np.inf), 1.5 * mx, 0.0]),
        st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k)),
    )
    return st.tuples(mag, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@pytest.mark.parametrize("fmt", CONTRACT_FORMATS, ids=lambda f: f.name)
@given(data=st.data())
def test_kernel_matches_the_brute_force_oracle(fmt, data):
    v = np.array(data.draw(st.lists(contract_values(fmt), min_size=1, max_size=16)))
    # every |v| > max_normal rounds to +/-max_normal; past 2 * max_normal the
    # oracle's float64 distances to the grid stop telling its points apart
    mx = max_normal(fmt)
    want = brute_force_nearest(np.clip(v, -2 * mx, 2 * mx), fmt)
    got = round_to_grid(v, fmt)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))  # +0.0, never -0.0
    np.testing.assert_array_equal(formats.round_to_codes(v, fmt), encode(got, fmt))
    back = decode(encode(got, fmt), fmt)
    np.testing.assert_array_equal(back.view(np.uint64), got.view(np.uint64))

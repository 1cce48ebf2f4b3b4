import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mxemu import config, dequantize, quantize
from mxemu.errors import ConfigError
from mxemu import gemm, scaling
from mxemu.formats import ELEMENT_FORMAT_NAMES, FORMATS, grid, min_positive
from mxemu.gemm import AccumSpec, dot, matmul
from mxemu.rotation import make_rotation, rotate
from mxemu.scaling import SCALE_MODES, degenerate_scale


def python_dot_oracle(da, db, gs):
    """Plain-Python sequential fold, independent of numpy internals."""
    acc = 0.0
    for g in range(len(da) // gs):
        part = 0.0
        for i in range(g * gs, (g + 1) * gs):
            part += float(da[i]) * float(db[i])
        acc += part
    return acc


AMX = config("fp4_e2m1_asym", "fp8e5m2", 32)


def test_dot_trivial_on_grid():
    a = quantize(np.array([2.0, -1.0, 0.0, 0.0]), config("fp4_e2m1", "pot_floor", "row"))
    b = quantize(np.array([1.0, 1.0, 0.0, 0.0]), config("fp4_e2m1", "pot_floor", "row"))
    # row amax 2 -> scale 2^(1-2); grid values scale back exactly
    assert dot(a, b) == 1.0


def test_dot_zero_operand(rng):
    a = quantize(rng.normal(0, 1, 32), AMX)
    b = quantize(np.zeros(32), AMX)
    assert dot(a, b) == 0.0


def test_dot_matches_python_oracle(rng):
    for _ in range(25):
        xa = rng.normal(0.3, 1, 64)
        xb = rng.normal(-0.2, 1, 64)
        qa, qb = quantize(xa, AMX), quantize(xb, AMX)
        expect = python_dot_oracle(dequantize(qa), dequantize(qb), 32)
        assert dot(qa, qb) == expect


def test_dot_shape_and_group_checks(rng):
    a = quantize(rng.normal(0, 1, 32), AMX)
    b = quantize(rng.normal(0, 1, 64), AMX)
    with pytest.raises(ConfigError, match="length"):
        dot(a, b)
    c = quantize(rng.normal(0, 1, 32), config("fp4_e2m1", "fp8e5m2", 16))
    with pytest.raises(ConfigError, match="group size"):
        dot(a, c)
    d = quantize(rng.normal(0, 1, (2, 32)), AMX)
    with pytest.raises(ConfigError, match="1-D"):
        dot(d, d)


def test_matmul_shape_and_group_checks():
    with pytest.raises(ConfigError, match="2-D"):
        matmul(np.ones(32), np.ones((32, 2)), AMX, AMX)
    with pytest.raises(ConfigError, match="matmul: group size mismatch 16 vs 32"):
        matmul(np.ones((2, 64)), np.ones((64, 2)), config("fp4_e2m1", "pot_floor", 16), AMX)


def test_dot_rejects_zero_point_int(rng):
    a = quantize(rng.normal(0, 1, 32), config("int4_asym", "fp8e5m2", 32))
    b = quantize(rng.normal(0, 1, 32), AMX)
    with pytest.raises(ConfigError, match="zero-point"):
        dot(a, b)


def test_matmul_rejects_zero_point_before_quantizing(monkeypatch):
    def no_quantize(*args):
        raise AssertionError("a rejected operand was quantized")

    monkeypatch.setattr(gemm, "quantize", no_quantize)
    zp = config("int4_asym", "fp8e5m2", 32)
    for cfg_a, cfg_b, side in ((zp, AMX, "lhs"), (AMX, zp, "rhs")):
        with pytest.raises(ConfigError, match=f"{side}: zero-point"):
            matmul(np.ones((2, 32)), np.ones((32, 2)), cfg_a, cfg_b)


def test_matmul_rejects_unequal_group_sizes_before_quantizing(monkeypatch):
    def no_quantize(*args):
        raise AssertionError("an operand of unequal group size was quantized")

    monkeypatch.setattr(gemm, "quantize", no_quantize)
    for gs_a, gs_b in ((32, 16), (None, 32), (16, None)):
        sizes = f"{gs_a or 64} vs {gs_b or 64}"
        with pytest.raises(ConfigError, match=f"matmul: group size mismatch {sizes}"):
            matmul(np.ones((2, 64)), np.ones((64, 2)), config("fp4_e2m1", "pot_floor", gs_a),
                   config("fp4_e2m1", "pot_floor", gs_b))


def test_a_whole_row_operand_pairs_with_a_group_size_of_k(rng):
    a, b = rng.normal(0.3, 1, (8, 64)), rng.normal(-0.2, 1, (64, 6))
    row, k = (config("fp4_e2m1_asym", "fp8e5m2", gs) for gs in (None, 64))
    want = matmul(a, b, row, row)
    qa, qb = quantize(a[0], row), quantize(b[:, 0], row)
    for cfg_a, cfg_b in ((row, k), (k, row)):
        assert matmul(a, b, cfg_a, cfg_b).tobytes() == want.tobytes()
        got = dot(quantize(a[0], cfg_a), quantize(b[:, 0], cfg_b))
        assert got.hex() == dot(qa, qb).hex() == want[0, 0].hex()


def test_symmetric_int_dot_supported(rng):
    cfg = config("int8", "pot_floor", 16)
    qa = quantize(rng.normal(0, 1, 32), cfg)
    qb = quantize(rng.normal(0, 1, 32), cfg)
    assert dot(qa, qb) == python_dot_oracle(dequantize(qa), dequantize(qb), 16)


def test_scale_selection_flips_with_sign(rng):
    xa = rng.normal(1.0, 0.5, 32)  # mostly positive
    xb = rng.normal(0.0, 1.0, 32)
    qa = quantize(xa, AMX)
    xa2 = xa.copy()
    xa2[7] = -xa2[7]
    qa2 = quantize(xa2, AMX)
    qb = quantize(xb, AMX)
    d1, d2 = dot(qa, qb), dot(qa2, qb)
    e1 = python_dot_oracle(dequantize(qa), dequantize(qb), 32)
    e2 = python_dot_oracle(dequantize(qa2), dequantize(qb), 32)
    assert (d1, d2) == (e1, e2)
    assert d1 != d2  # the flipped element switched scale sides


def test_matmul_identity_reproduces_on_grid_rows():
    a = np.array([[6.0, 3.0, 1.5, 0.0], [0.5, -1.0, 2.0, -6.0]])
    eye = np.eye(4)
    cfg = config("fp4_e2m1", "pot_floor", "row")
    out = matmul(a, eye, cfg, cfg)
    np.testing.assert_array_equal(out, a)


def test_matmul_divisibility_error():
    rng = np.random.default_rng(0)
    a, b = rng.normal(0, 1, (8, 8)), rng.normal(0, 1, (8, 8))
    cfg = config("fp4_e2m1", "pot_floor", 32)
    with pytest.raises(ConfigError, match="group size 32"):
        matmul(a, b, cfg, cfg)


def test_matmul_inner_dim_mismatch():
    cfg = config("fp4_e2m1", "pot_floor", "row")
    with pytest.raises(ConfigError, match="inner"):
        matmul(np.zeros((4, 8)), np.zeros((4, 8)), cfg, cfg)


def test_matmul_matches_reference_64(rng):
    a = rng.normal(0.2, 1, (64, 64))
    b = rng.normal(-0.1, 1, (64, 64))
    cfg = config("fp4_e2m1_asym", "fp8e5m2", 32)
    assert_matmul_matches_oracle(a, b, cfg, cfg, "float64")


def test_matmul_mixed_formats(rng):
    a = rng.normal(0, 1, (16, 32))
    b = rng.normal(0, 1, (32, 8))
    cfg_a = config("fp4_e2m1_asym", "fp8e5m2", 16)
    cfg_b = config("fp8_e4m3", "fp8e5m2", 16)
    assert_matmul_matches_oracle(a, b, cfg_a, cfg_b, "float64")


def test_float32_accumulation_mode(rng):
    xa, xb = rng.normal(0, 1, 64), rng.normal(0, 1, 64)
    qa, qb = quantize(xa, AMX), quantize(xb, AMX)
    d32 = dot(qa, qb, AccumSpec("float32"))
    prod = (dequantize(qa) * dequantize(qb)).astype(np.float32)
    part = np.cumsum(prod.reshape(2, 32), axis=1)[:, -1]
    assert d32 == float(np.cumsum(part)[-1])


def test_accum_spec_validation():
    with pytest.raises(ConfigError):
        AccumSpec("float16")


def test_nvfp4_dot_matches_oracle(rng):
    cfg = config("fp4_e2m1_asym", "nvfp4_double", 16)
    xa, xb = rng.normal(0.5, 1, 64), rng.normal(0, 1, 64)
    qa, qb = quantize(xa, cfg), quantize(xb, cfg)
    assert dot(qa, qb) == python_dot_oracle(dequantize(qa), dequantize(qb), 16)


def python_matmul_oracle(da, db, gs, dtype):
    """Ordered fold of every output entry with each term and partial in dtype."""
    out = np.empty((da.shape[0], db.shape[1]), dtype=dtype)
    for i in range(da.shape[0]):
        for j in range(db.shape[1]):
            acc = None
            for g0 in range(0, da.shape[1], gs):
                part = None
                for t in range(g0, g0 + gs):
                    term = dtype(float(da[i, t]) * float(db[t, j]))
                    part = term if part is None else dtype(part + term)
                acc = part if acc is None else dtype(acc + part)
            out[i, j] = acc
    return out


def test_matmul_float32_matches_ordered_oracle(rng):
    a = rng.normal(0.2, 1, (6, 96))
    b = rng.normal(-0.1, 1, (96, 5))
    cfg_b = config("fp8_e4m3", "pot_floor", 32)
    out = matmul(a, b, AMX, cfg_b, AccumSpec("float32"))
    da = dequantize(quantize(a, AMX))
    db = dequantize(quantize(b, config("fp8_e4m3", "pot_floor", 32, axis=0)))
    expect = python_matmul_oracle(da, db, 32, np.float32)
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out.view(np.uint32), expect.view(np.uint32))


@pytest.mark.parametrize("accum", ["float64", "float32"])
def test_matmul_zero_row_keeps_negative_zero(accum):
    b = -np.ones((64, 3))
    out = matmul(np.zeros((1, 64)), b, AMX, AMX, AccumSpec(accum))
    assert np.all(out == 0.0) and np.all(np.signbit(out))


@pytest.mark.parametrize("accum", ["float64", "float32"])
def test_matmul_memory_stays_below_the_product_tensor(accum):
    m, k, n = 64, 2048, 64
    rng = np.random.default_rng(3)
    a, b = rng.normal(0, 1, (m, k)), rng.normal(0, 1, (k, n))
    tracemalloc.start()
    try:
        matmul(a, b, AMX, AMX, AccumSpec(accum))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * n * k * 8 / 4


# SHA-256 of the full output bytes on a fixed input (32x512 @ 512x16), one
# case for each path of the fold
PINNED_MATMUL = {
    # one product over all of K
    "rotated_amxfp4_f64": "cfb6cb4466d3326b229e2ce0ad46c2ebc8ec4657c3958d0b8a2b17e6c91cfe59",
    # an exact prefix of 256, then groups that pass the group test
    "mxfp8_f64_shifted": "09a67ce2efa49a7f8e07acce359e3147cd3afaf432568e21e7fa977e3affdac2",
    # the entry bound on every group
    "mxfp8_f32": "780747f375fde43793c593d1e3721145706a245ee68b0b243128fbedd5102994",
    # the entry bound fails, then the backoff and the rank-1 loop
    "amxfp8_f32": "515b076ee9039fc4642e48b083ce62ae8146ce24fedb819f937eeabd192a581a",
    "nvfp4_f32": "ba282cf554e103fac75756484637cfa1c3d273f708e5b085095c69e37c7b2d6e",
    "fp6_fp32_f32": "8084641c479b8c57f7bcece922f7ddf060f235f5067ccbe9625985fa3aed219c",
}
PINNED_CONFIGS = {
    "mxfp8_f64_shifted": (("fp8_e4m3", "pot_floor", 32), "float64"),
    "mxfp8_f32": (("fp8_e4m3", "pot_floor", 32), "float32"),
    "amxfp8_f32": (("fp8_e4m3_asym", "fp8e5m2", 32), "float32"),
    "nvfp4_f32": (("fp4_e2m1", "nvfp4_double", 16), "float32"),
    "fp6_fp32_f32": (("fp6_e3m2", "fp32", 32), "float32"),
}


@pytest.mark.parametrize("case", sorted(PINNED_MATMUL))
def test_matmul_output_bits_pinned(case):
    rng = np.random.default_rng(11)
    a = rng.normal(0.1, 1, (32, 512))
    b = rng.normal(-0.05, 0.5, (512, 16))
    if case == "rotated_amxfp4_f64":
        rot = make_rotation(512, 5)
        out = matmul(rotate(a, rot), rotate(b, rot, axis=0), AMX, AMX)
    else:
        if case == "mxfp8_f64_shifted":
            a[:, 256:288] *= 2.0**30  # no sum across group 8 is exact
        names, accum = PINNED_CONFIGS[case]
        out = matmul(a, b, config(*names), config(*names), AccumSpec(accum))
    assert out.shape == (32, 16)
    assert hashlib.sha256(out.tobytes()).hexdigest() == PINNED_MATMUL[case]


# SHA-256 of the float64 bytes of 16 dots of 512 terms on fixed inputs, one
# case for each path a dot takes
PINNED_DOT = {
    # the scales prove all of K: one product
    "amxfp4_f64": "da07d25690f81700273b206677e846ed620e64713818eeefc041731ca31b7922",
    # most dots have no exact prefix; their groups take the entry bound, and
    # one group the rank-1 loop
    "mxfp8_f32": "6a25e4a6d85e25373ee274de8df6728531cbbbe164367a261bd1f78809aeeefe",
}


@pytest.mark.parametrize("case", sorted(PINNED_DOT))
def test_dot_output_bits_pinned(case):
    rng = np.random.default_rng(11)
    a = rng.normal(0.1, 1, (16, 512))
    b = rng.normal(-0.05, 0.5, (16, 512))
    cfg, accum = {"amxfp4_f64": (AMX, "float64"),
                  "mxfp8_f32": (config("fp8_e4m3", "pot_floor", 32), "float32")}[case]
    out = np.array([dot(quantize(x, cfg), quantize(y, cfg), AccumSpec(accum))
                    for x, y in zip(a, b)])
    assert hashlib.sha256(out.tobytes()).hexdigest() == PINNED_DOT[case]


def assert_matmul_matches_oracle(a, b, cfg_a, cfg_b, accum):
    out = matmul(a, b, cfg_a, cfg_b, AccumSpec(accum))
    da = dequantize(quantize(a, replace(cfg_a, axis=-1)))
    db = dequantize(quantize(b, replace(cfg_b, axis=0)))
    expect = python_matmul_oracle(da, db, cfg_a.group_size, np.dtype(accum).type)
    assert out.dtype == expect.dtype
    bits = f"u{out.itemsize}"
    np.testing.assert_array_equal(out.view(bits), expect.view(bits))
    return out


@given(
    seed=st.integers(0, 2**32 - 1),
    wide=st.lists(st.booleans(), min_size=4, max_size=4),
    shift=st.integers(36, 70),
    scale=st.sampled_from(["pot_floor", "fp8e5m2"]),
    accum=st.sampled_from(["float64", "float32"]),
)
def test_matmul_and_dot_mixing_exact_and_inexact_groups(seed, wide, shift, scale, accum):
    # a wide group's positive side is 2**shift times its negative side, which
    # puts its row's sum past the bound that lets a group's sum run in any order
    rng = np.random.default_rng(seed)
    a = rng.normal(0.1, 1, (5, 128))
    b = rng.normal(0, 1, (128, 4))
    for g, w in enumerate(wide):
        block = a[:, 32 * g:32 * (g + 1)]
        block[block > 0] *= 2.0**shift if w else 1.0
    cfg = config("fp4_e2m1_asym", scale, 32)
    out = assert_matmul_matches_oracle(a, b, cfg, cfg, accum)
    qa, qb = quantize(a[1], cfg), quantize(b[:, 2], cfg)
    d = dot(qa, qb, AccumSpec(accum))
    expect = python_matmul_oracle(dequantize(qa)[None], dequantize(qb)[:, None], 32,
                                  np.dtype(accum).type)[0, 0]
    assert np.float64(d).tobytes() == np.float64(expect).tobytes()
    assert d == out[1, 2]


def test_mxfp8_float32_matches_ordered_oracle(rng):
    cfg = config("fp8_e4m3", "pot_floor", 32)
    assert_matmul_matches_oracle(rng.normal(0.1, 1, (8, 128)), rng.normal(0, 0.05, (128, 6)),
                                 cfg, cfg, "float32")


@pytest.mark.parametrize("fmt", ["fp8_e4m3", "fp4_e2m1_asym"])
def test_fp32_scaled_operands_past_binary32_under_float32(rng, fmt):
    cfg = config(fmt, "fp32", 32)
    a, b = rng.normal(0.1, 1, (6, 96)), rng.normal(0, 1, (96, 5))
    da = dequantize(quantize(a, cfg))
    # an element times a 24-bit scale needs more than binary32's 24 bits
    assert not np.array_equal(da.astype(np.float32), da)
    assert_matmul_matches_oracle(a, b, cfg, cfg, "float32")


@pytest.mark.parametrize("accum, exponent", [("float64", -540), ("float32", -78)])
def test_matmul_products_below_the_least_subnormal(rng, accum, exponent):
    # each product rounds on its own in the ordered fold, so no sum may skip that
    cfg = config("fp4_e2m1_asym", "pot_floor", 32)
    a = rng.normal(0.1, 1, (6, 64)) * 2.0**exponent
    b = rng.normal(0, 1, (64, 5)) * 2.0**exponent
    assert_matmul_matches_oracle(a, b, cfg, cfg, accum)


def test_matmul_products_past_binary32_overflow_under_float32(rng):
    cfg = config("fp4_e2m1_asym", "pot_floor", 32)
    a = rng.normal(0.1, 1, (6, 64)) * 2.0**64
    b = rng.normal(0, 1, (64, 5)) * 2.0**64
    with np.errstate(over="ignore", invalid="ignore"):
        out = assert_matmul_matches_oracle(a, b, cfg, cfg, "float32")
    assert not np.isfinite(out).all()


@pytest.mark.parametrize("accum", ["float64", "float32"])
def test_matmul_zero_signs_follow_the_ordered_fold(accum):
    cfg = config("fp4_e2m1", "pot_floor", 32)
    a = np.ones((3, 96))
    a[0, 32:64] = 0.0  # one all-zero group between nonzero groups
    a[1] = 0.0  # every group zero
    a[2, :2] = [1.0, -1.0]  # each group of row 2 cancels exactly ...
    a[2, 2:32] = 0.0
    a[2, 32:] = np.tile(a[2, :32], 2)
    b = -np.ones((96, 3))  # ... although most of its terms are -0.0
    b[:, 1] = 1.0
    b[::2, 2] = 1.0
    out = assert_matmul_matches_oracle(a, b, cfg, cfg, accum)
    assert out[0, 0] == -64.0
    assert np.signbit(out[1, 0]) and not np.signbit(out[1, 1])  # -0.0 only from -0.0 terms
    assert out[2, 0] == 0.0 and not np.signbit(out[2, 0])


def test_matmul_zero_signs_past_one_gather(rng):
    # 80 * 60 zero entries of 64 terms: more than one gather of terms
    b = rng.normal(0, 1, (64, 60))
    b[:, ::3] = -np.abs(b[:, ::3]) - 0.5
    out = assert_matmul_matches_oracle(np.zeros((80, 64)), b, AMX, AMX, "float64")
    assert np.signbit(out[:, ::3]).all() and not np.signbit(out[:, 1::3]).any()


def exact_prefix(a, b, cfg_a, cfg_b, accum):
    """Length of the exact prefix that the fold of matmul(a, b) runs as one product."""
    da = dequantize(quantize(a, replace(cfg_a, axis=-1)))
    db = dequantize(quantize(b, replace(cfg_b, axis=0)))
    return gemm._exact_prefix(da, db, cfg_a.group_size, np.dtype(accum))


MXFP4 = config("fp4_e2m1", "pot_floor", 32)


@pytest.mark.parametrize("accum, shift", [("float64", 52), ("float32", 22)])
def test_matmul_exact_prefix_ending_inside_k(rng, accum, shift):
    # group 2 is 2**shift times the rest: alone its sum is exact, joined to
    # the groups before it the sum is not, and the other groups' partials
    # are about one unit in the last place of its partial, so they round
    a = rng.normal(0.1, 1, (6, 128))
    a[:, 64:96] *= 2.0**shift
    b = rng.normal(0, 1, (128, 5))
    assert exact_prefix(a, b, MXFP4, MXFP4, accum) == 64
    assert_matmul_matches_oracle(a, b, MXFP4, MXFP4, accum)


@pytest.mark.parametrize("accum", ["float64", "float32"])
def test_matmul_exact_prefix_ending_at_the_first_group(rng, accum):
    cfg = config("fp4_e2m1_asym", "pot_floor", 32)
    a = rng.normal(0.1, 1, (6, 128))
    first = a[:, :32]
    first[first > 0] *= 2.0**60  # no sum over the first group is exact
    b = rng.normal(0, 1, (128, 5))
    assert exact_prefix(a, b, cfg, cfg, accum) == 0
    assert_matmul_matches_oracle(a, b, cfg, cfg, accum)


@pytest.mark.parametrize("accum", ["float64", "float32"])
@pytest.mark.parametrize("cfg", [AMX, MXFP4], ids=["amxfp4", "mxfp4"])
def test_matmul_exact_prefix_covering_k(rng, accum, cfg):
    a, b = rng.normal(0.1, 1, (6, 128)), rng.normal(0, 1, (128, 5))
    assert exact_prefix(a, b, cfg, cfg, accum) == 128
    assert_matmul_matches_oracle(a, b, cfg, cfg, accum)


@pytest.mark.parametrize("accum", ["float64", "float32"])
def test_matmul_zero_signs_across_the_groups_of_a_prefix(rng, accum):
    a = rng.normal(0, 1, (4, 128))
    a[0] = 0.0  # every term of row 0 is a signed zero
    a[1] = 0.0
    a[1, 5], a[1, 70] = 1.0, -1.0  # row 1 cancels across groups 0 and 2
    b = rng.normal(0, 1, (128, 4))
    b[:, 0] = -1.0  # row 0's terms are all -0.0 ...
    b[:, 1] = -1.0
    b[100, 1] = 1.0  # ... but for one +0.0 in group 3
    assert exact_prefix(a, b, MXFP4, MXFP4, accum) == 128
    out = assert_matmul_matches_oracle(a, b, MXFP4, MXFP4, accum)
    assert out[0, 0] == 0.0 and np.signbit(out[0, 0])
    assert out[0, 1] == 0.0 and not np.signbit(out[0, 1])
    assert out[1, 0] == 0.0 and not np.signbit(out[1, 0])


@pytest.mark.parametrize("accum", ["float64", "float32"])
def test_dot_whose_exact_prefix_covers_k(monkeypatch, rng, accum):
    # the scales prove all of K too, so the dot scans no group
    xa, xb = rng.normal(0.3, 1, 256), rng.normal(-0.2, 1, 256)
    assert exact_prefix(xa[None], xb[:, None], AMX, AMX, accum) == 256
    qa, qb = quantize(xa, AMX), quantize(xb, AMX)
    assert scales_prove(qa, qb, accum)
    prefixes = spy(monkeypatch, "_exact_prefix")
    d = dot(qa, qb, AccumSpec(accum))
    assert prefixes == []
    expect = python_matmul_oracle(dequantize(qa)[None], dequantize(qb)[:, None], 32,
                                  np.dtype(accum).type)[0, 0]
    assert np.float64(d).tobytes() == np.float64(expect).tobytes()


def test_matmul_prefix_bound_past_binary64_fails_quietly(rng):
    # joined, row 0's groups span 2**1100 between largest and lowest bit: the
    # bound itself is past binary64, which fails the test without a warning
    a = rng.normal(0.1, 1, (3, 64))
    a[0, :32] *= 2.0**600
    a[0, 32:] *= 2.0**-500
    b = rng.normal(0, 1, (64, 4))
    assert exact_prefix(a, b, MXFP4, MXFP4, "float64") == 32
    assert_matmul_matches_oracle(a, b, MXFP4, MXFP4, "float64")


def benchmark_like_activation(rng, rows, cols):
    """Normal activation with a shift per group of 32 and two outlier channels."""
    x = rng.normal(0, 1, (rows, cols))
    x += np.repeat(0.75 * rng.normal(0, 1, (rows, cols // 32)), 32, axis=1)
    x[:, rng.choice(cols, 2, replace=False)] *= 40.0
    return x


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_prefix_lengths_of_the_benchmark_products(seed):
    # pins the path the gemm benchmark's products take: rotated AMXFP4 in
    # float64 is one product over all of K, MXFP8 in float64 one product over
    # a part of it, and MXFP8 in float32 has no exact prefix
    rng = np.random.default_rng(seed)
    k = 1024
    a = benchmark_like_activation(rng, 32, k)
    b = 0.05 * benchmark_like_activation(rng, 32, k).T
    rot = make_rotation(k, 3)
    assert exact_prefix(rotate(a, rot), rotate(b, rot, axis=0), AMX, AMX, "float64") == k
    mxfp8 = config("fp8_e4m3", "pot_floor", 32)
    assert 0 < exact_prefix(a, b, mxfp8, mxfp8, "float64") < k
    assert exact_prefix(a, b, mxfp8, mxfp8, "float32") == 0


def spy(monkeypatch, name):
    """Record the results of the gemm helper called name, which still runs."""
    real, results = getattr(gemm, name), []

    def record(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(gemm, name, record)
    return results


@pytest.mark.parametrize("seed", [0, 1])
def test_entry_paths_of_the_benchmark_products(monkeypatch, seed):
    # past an empty exact prefix, every MXFP8 float32 group of a benchmark-like
    # product folds through the entry bound and leaves a few entries to gather.
    # nvfp4_double's wide significands leave most entries of each group open:
    # the proof is tried on groups 0, 2, 7 and 24 of 64, each failure making
    # the run of groups that go straight to the rank-1 loop four times longer
    rng = np.random.default_rng(seed)
    k = 1024
    a = benchmark_like_activation(rng, 32, k)
    b = 0.05 * benchmark_like_activation(rng, 32, k).T
    proofs = spy(monkeypatch, "_unproven_entries")
    mxfp8 = config("fp8_e4m3", "pot_floor", 32)
    matmul(a, b, mxfp8, mxfp8, AccumSpec("float32"))
    assert len(proofs) == k // 32
    assert all(u is not None and 0 < u.sum() <= u.size / 8 for u in proofs)
    proofs.clear()
    nvfp4 = config("fp4_e2m1", "nvfp4_double", 16)
    matmul(a, b, nvfp4, nvfp4, AccumSpec("float32"))
    assert [u is None for u in proofs] == [True] * 4


def quantized_operands(a, b, cfg):
    """Both operands quantized as matmul quantizes them, and their values."""
    qa, qb = quantize(a, replace(cfg, axis=-1)), quantize(b, replace(cfg, axis=0))
    return qa, qb, dequantize(qa), dequantize(qb)


def scales_prove(qa, qb, accum):
    """Whether both operands' scale bounds prove their whole sum exact."""
    k = qa.codes.shape[-1]
    return gemm._sum_is_exact(k, gemm._scale_stats(qa, 32), gemm._scale_stats(qb, 32),
                              np.dtype(accum))


def operands_with_empty_sides(rng, m, k, n):
    """Normal operands with all-zero groups and groups of one sign."""
    a, b = rng.normal(0.1, 1, (m, k)), rng.normal(0, 0.5, (k, n))
    a[0, :32], b[32:64, 0] = 0.0, 0.0
    a[1, 32:64], b[:32, 1] = np.abs(a[1, 32:64]), np.abs(b[:32, 1])
    a[2, 64:96], b[64:96, 2] = -np.abs(a[2, 64:96]), -np.abs(b[64:96, 2])
    return a, b


def test_scale_bounds_bound_the_line_stats_and_prove_only_exact_sums():
    # every format and scale mode, on plain operands, on large ones (the
    # nvfp4_double tensor scale is then above 1), on operands with empty sides,
    # and with a tiny group in each operand as well
    rng = np.random.default_rng(7)
    held = failed = 0
    names = ELEMENT_FORMAT_NAMES + tuple(f"{n}_asym" for n in ELEMENT_FORMAT_NAMES
                                         if not n.startswith("int"))
    for name in names:
        for mode in SCALE_MODES:
            cfg = config(name, mode, 32)
            plain = rng.normal(0.1, 1, (6, 128)), rng.normal(0, 0.5, (128, 5))
            large = plain[0] * 2.0**30, plain[1]
            empty = operands_with_empty_sides(rng, 6, 128, 5)
            tiny = tuple(x.copy() for x in empty)
            tiny[0][3, 96:] *= 2.0**-120
            tiny[1][96:, 3] *= 2.0**-126
            for a, b in (plain, large, empty, tiny):
                qa, qb, da, db = quantized_operands(a, b, cfg)
                bounds = gemm._scale_stats(qa, 32), gemm._scale_stats(qb, 32)
                stats = (gemm._line_stats(gemm._elem_bits(da), 1),
                         gemm._line_stats(gemm._elem_bits(db), 0))
                for (amax, low), (line_amax, line_low) in zip(bounds, stats):
                    assert (amax >= line_amax).all() and (low <= line_low).all()
                for accum in (np.float64, np.float32):
                    dtype = np.dtype(accum)
                    if gemm._sum_is_exact(128, *bounds, dtype):
                        held += 1
                        assert gemm._exact_prefix(da, db, 32, dtype) == 128
                    else:
                        failed += 1
    assert held > 100 and failed > 100


@pytest.mark.parametrize("name", ["fp4_e2m1", "fp4_e2m1_asym"])
def test_scales_prove_the_sum_past_empty_sides(rng, name):
    cfg = config(name, "pot_floor", 32)
    a, b = operands_with_empty_sides(rng, 6, 128, 5)
    qa, qb, _, _ = quantized_operands(a, b, cfg)
    degenerate = degenerate_scale(cfg.scale_mode, cfg.fmt)
    assert (qa.scales == degenerate).any() and (qb.scales == degenerate).any()
    assert scales_prove(qa, qb, np.float64)
    assert_matmul_matches_oracle(a, b, cfg, cfg, "float64")


def test_a_tiny_side_at_the_degenerate_scale_stays_in_the_bound(rng):
    # amax 2**-126 under fp4/pot_floor gives the scale 2**-128, the degenerate
    # value, but the group's codes are not zero (nor positive)
    a = rng.normal(0.1, 1, (4, 128))
    a[1, 32:64] = -(2.0**-126)
    b = rng.normal(0, 1, (128, 3))
    qa, qb, da, db = quantized_operands(a, b, MXFP4)
    assert qa.scales[1, 1, 0] == degenerate_scale(MXFP4.scale_mode, MXFP4.fmt)
    assert qa.codes[1, 32:64].all()
    assert gemm._scale_stats(qa, 32)[1][1] <= gemm._line_stats(gemm._elem_bits(da), 1)[1][1]
    assert gemm._exact_prefix(da, db, 32, np.dtype(np.float64)) == 32
    assert not scales_prove(qa, qb, np.float64)
    assert_matmul_matches_oracle(a, b, MXFP4, MXFP4, "float64")


@pytest.mark.parametrize("seed", [0, 1])
def test_the_scales_prove_the_rotated_benchmark_product(monkeypatch, seed):
    # the scale bounds are tested first, with k = K: the rotated AMXFP4 float64
    # product passes and scans no group; the MXFP8 float32 one fails, then its
    # walk fails the first group's test
    rng = np.random.default_rng(seed)
    k = 1024
    a = benchmark_like_activation(rng, 32, k)
    b = 0.05 * benchmark_like_activation(rng, 32, k).T
    prefixes, sums = spy(monkeypatch, "_exact_prefix"), []
    real = gemm._sum_is_exact
    monkeypatch.setattr(gemm, "_sum_is_exact", lambda n, *rest: sums.append(n) or real(n, *rest))
    rot = make_rotation(k, 3)
    matmul(rotate(a, rot), rotate(b, rot, axis=0), AMX, AMX)
    assert prefixes == [] and sums == [k]
    prefixes.clear(), sums.clear()
    mxfp8 = config("fp8_e4m3", "pot_floor", 32)
    matmul(a, b, mxfp8, mxfp8, AccumSpec("float32"))
    assert prefixes == [0] and sums[0] == k and set(sums[1:]) == {32}


def fold(da, db, gs, spec):
    """gemm._fold of two value arrays, bounded by their own line stats over all of K."""
    whole = gemm._line_stats(gemm._elem_bits(da), 1), gemm._line_stats(gemm._elem_bits(db), 0)
    return gemm._fold(da, db, gs, spec, whole)


def assert_fold_matches_oracle(da, db, gs, accum):
    out = fold(da, db, gs, AccumSpec(accum))
    expect = python_matmul_oracle(da, db, gs, np.dtype(accum).type)
    bits = f"u{out.itemsize}"
    np.testing.assert_array_equal(out.view(bits), expect.view(bits))
    return out


@pytest.mark.parametrize("accum, shift", [("float32", 0), ("float32", 150), ("float64", 0)])
def test_fold_entry_whose_bound_lies_just_past_the_limit(accum, shift):
    # in units of its lowest bit, entry (0, 0) sums 2**p, 1 and 2, so its bound
    # (2**p + 3) * 1.5 lies between 2**(p - 1) and 2**(p + 1). Its ordered fold
    # rounds 2**p + 1 to 2**p first and ends at 2**p + 2, where the exact sum
    # rounds to 2**p + 4; the other entries are exact, so the group takes the
    # entry bound. A shift puts the lhs past binary32's range, so that the
    # group's product runs in float64 and rounds once to float32
    p = {"float32": 24, "float64": 53}[accum]
    da = np.zeros((1, 32))
    da[0, :3] = [2.0 ** (p // 2 + shift), 2.0**shift, 2.0**shift]
    db = np.ones((32, 9)) * 2.0**-shift
    db[:3, 0] = [2.0 ** (p - p // 2 - shift), 2.0**-shift, 2.0 ** (1 - shift)]
    out = assert_fold_matches_oracle(da, db, 32, accum)
    assert out[0, 0] == 2.0**p + 2 and (out[0, 1:] == 2.0 ** (p // 2) + 2).all()


def test_fold_entry_past_binary32_overflow_under_float32():
    # entry (0, 0) adds 2**128, past binary32, to -2**127: the ordered fold
    # reaches inf, while the float64 sum is 2**127. Its bound R * E is tiny,
    # so only R <= max(float32) leaves it open; the other entries are exact
    da = np.zeros((1, 32))
    da[0, :2] = [-(2.0**200), 2.0**200]
    db = np.zeros((32, 9))
    db[:2] = [[2.0**-200], [2.0**-199]]
    db[:2, 0] = 2.0**-73, 2.0**-72
    with np.errstate(over="ignore"):
        out = assert_fold_matches_oracle(da, db, 32, "float32")
    assert out[0, 0] == np.inf and (out[0, 1:] == 1.0).all()


ENTRY_BOUND_CONFIGS = [("fp8_e4m3", "pot_floor"), ("fp8_e5m2", "pot_floor"),
                       ("fp4_e2m1_asym", "fp8e5m2"), ("int8", "pot_floor"),
                       ("fp8_e4m3_asym", "fp8e5m2"), ("fp6_e3m2", "fp32")]


@given(
    seed=st.integers(0, 2**32 - 1),
    cfg=st.sampled_from(ENTRY_BOUND_CONFIGS),
    accum=st.sampled_from(["float64", "float32"]),
    spread=st.integers(0, 30),
    shift=st.integers(0, 30),
    col=st.integers(0, 15),
    wide_row=st.booleans(),
)
def test_matmul_entry_bound_against_the_ordered_oracle(seed, cfg, accum, spread, shift, col,
                                                       wide_row):
    # a power of two up to 2**-spread on each element of b moves each entry's
    # bound across 2**(p - 1). Column col (and, if wide_row, a row of a) leads
    # each group with its largest term, then spreads its other terms over the
    # format's range, its negative side 2**-shift further down, so that its
    # partials round inside a group while the other columns' sums can be exact
    rng = np.random.default_rng(seed)

    def wide():
        line = rng.normal(0, 1, 64) * 2.0 ** -rng.integers(0, 18, 64)
        line[line < 0] *= 2.0 ** -shift
        line[::32] = 8.0
        return line

    a = rng.normal(0.1, 1, (4, 64))
    b = rng.normal(0, 1, (64, 16)) * 2.0 ** -rng.integers(0, spread + 1, (64, 16))
    b[:, col] = wide()
    if wide_row:
        a[col % 4] = wide()
    cfg = config(*cfg, 32)
    assert_matmul_matches_oracle(a, b, cfg, cfg, accum)


@pytest.mark.parametrize("accum", ["float64", "float32"])
def test_matmul_fold_memory_is_flat_in_k(monkeypatch, accum):
    def fold_peak(k):
        # matmul dequantizes b last, so the peak after that call is the fold's;
        # the quantized operands are kept so that freeing them hides nothing
        real = gemm.dequantize
        base, kept = [], []

        def dequantize_then_mark(q):
            kept.append(q)
            out = real(q)
            base.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(gemm, "dequantize", dequantize_then_mark)
        rng = np.random.default_rng(5)
        a, b = rng.normal(0, 1, (64, k)), rng.normal(0, 1, (k, 64))
        # CPython keeps up to 2000 freed tuples of each length below 20 for reuse;
        # fill those lists, so that tuples the fold frees are released, not kept
        full = [tuple(range(n)) for n in range(1, 20) for _ in range(2000)]
        del full
        tracemalloc.start()
        try:
            matmul(a, b, AMX, AMX, AccumSpec(accum))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
        return peak - base[-1]

    small, large = fold_peak(512), fold_peak(8192)
    assert small < 10 * 64 * 64 * 8  # a few (M, N) float64 buffers
    assert large <= small + 4096


@pytest.mark.parametrize("accum", ["float64", "float32"])
@pytest.mark.parametrize("name, scale", [("fp4_e2m1_asym", "fp8e5m2"), ("fp8_e4m3", "pot_floor"),
                                         ("fp6_e3m2", "fp32")])
def test_fold_and_matmul_bits_do_not_depend_on_the_operand_layout(rng, accum, name, scale):
    a, b = rng.normal(0, 1, (8, 64)), rng.normal(0, 1, (64, 12)) * 2.0 ** rng.integers(-9, 9, 12)
    cfg, spec = config(name, scale, 16), AccumSpec(accum)
    da, db = dequantize(quantize(a, cfg)), dequantize(quantize(b, replace(cfg, axis=0)))
    want_fold = fold(da, db, 16, spec).view(np.uint8)
    want = matmul(a, b, cfg, replace(cfg, axis=0), spec).view(np.uint8)
    for order_a in "CF":
        for order_b in "CF":
            got = fold(np.asarray(da, order=order_a), np.asarray(db, order=order_b), 16, spec)
            np.testing.assert_array_equal(got.view(np.uint8), want_fold)
            got = matmul(np.asarray(a, order=order_a), np.asarray(b, order=order_b), cfg,
                         replace(cfg, axis=0), spec)
            np.testing.assert_array_equal(got.view(np.uint8), want)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_the_least_positive_grid_value_gives_the_least_lowest_bit(name):
    # _scale_stats takes q_grid from the least positive value alone
    fmt = FORMATS[name]
    values = grid(fmt)
    least = gemm._elem_bits(values[values != 0])[1].min()
    assert math.frexp(min_positive(fmt))[1] - 1 == least


@pytest.mark.parametrize("accum", ["float64", "float32"])
@pytest.mark.parametrize("m, n, k, column_fold", [(2, 3, 64, False), (16, 16, 8, True)])
def test_fold_entries_take_both_fold_groups_paths(monkeypatch, rng, accum, m, n, k, column_fold):
    # a chunk of fewer entries than terms folds by cumsum, one of more column by column
    da = rng.normal(0, 1, (m, k)) * 2.0 ** rng.integers(-30, 30, (m, k))
    db = rng.normal(0, 1, (k, n)) * 2.0 ** rng.integers(-30, 30, (k, n))
    da[1] = -0.0  # entries whose terms are all -0.0 or +0.0
    db[:, 1] = 1.0
    shapes, real = [], scaling.fold_groups
    monkeypatch.setattr(scaling, "fold_groups",
                        lambda f, xg: shapes.append(xg.shape) or real(f, xg))
    out = np.empty((m, n))
    dtype = np.dtype(accum)
    gemm._fold_entries(out, np.ones((m, n), bool), da, db, dtype)
    assert shapes and all((rows > cols) == column_fold for rows, cols in shapes)
    expect = python_matmul_oracle(da, db, k, dtype.type)
    np.testing.assert_array_equal(out.astype(dtype).view(f"u{dtype.itemsize}"),
                                  expect.view(f"u{dtype.itemsize}"))
    assert np.signbit(out[1, 1])


@pytest.mark.parametrize("accum", ["float64", "float32"])
@pytest.mark.parametrize("names", [("fp8_e4m3", "pot_floor", 32), ("fp4_e2m1_asym", "fp8e5m2", 32),
                                   ("fp4_e2m1", "nvfp4_double", 16)])
def test_matmul_raises_nothing_under_the_caller_errstate(accum, names):
    # zero rows and columns give u = 2**-_NO_BITS, which underflows to 0
    rng = np.random.default_rng(11)
    a, b = rng.normal(0.1, 1, (32, 512)), rng.normal(-0.05, 0.5, (512, 16))
    a[[0, 7]], b[:, [3, 9]] = 0.0, 0.0
    cfg, spec = config(*names), AccumSpec(accum)
    want = matmul(a, b, cfg, cfg, spec)
    with np.errstate(all="raise"):
        got = matmul(a, b, cfg, cfg, spec)
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))

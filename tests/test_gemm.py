import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mxemu import config, dequantize, quantize
from mxemu.errors import ConfigError
from mxemu import gemm
from mxemu.gemm import AccumSpec, dot, matmul
from mxemu.rotation import make_rotation, rotate


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


# SHA-256 of the full output bytes on a fixed input (32x512 @ 512x16).
PINNED_MATMUL = {
    "rotated_amxfp4_f64": "cfb6cb4466d3326b229e2ce0ad46c2ebc8ec4657c3958d0b8a2b17e6c91cfe59",
    "mxfp8_f32": "780747f375fde43793c593d1e3721145706a245ee68b0b243128fbedd5102994",
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
        cfg = config("fp8_e4m3", "pot_floor", 32)
        out = matmul(a, b, cfg, cfg, AccumSpec("float32"))
    assert out.shape == (32, 16)
    assert hashlib.sha256(out.tobytes()).hexdigest() == PINNED_MATMUL[case]


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

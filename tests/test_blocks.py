"""The block loop of quantizer.row_blocks: any block size gives the same bits,
the same errors, and memory that does not grow with the row count; and the
layout of what is computed block by block: a result of x's shape is the
np.moveaxis view of the grouped layout it is computed in."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mxemu import config, dequantize, quantize
from mxemu import quantizer
from mxemu.analysis import error_decomposition, group_stats
from mxemu.errors import DataError
from mxemu.lloydmax import LloydConfig, reference_quantize
from mxemu.quantizer import quantize_blocks, row_blocks
from mxemu.rotation import make_rotation, rotate

from conftest import blocks_in_layout

# every layout below has 10 rows of 64 along its grouping axis
LAYOUTS = {"last": ((10, 64), -1), "first": ((64, 10), 0), "middle": ((5, 64, 2), 1)}
# less than one group, 3 rows of 64 (a partial last block for every group
# size below) and more than the whole tensor
BLOCK_SIZES = {"below_a_group": 7, "partial_last_block": 3 * 64, "whole": 1 << 30}
CONFIGS = [
    ("fp4_e2m1", "pot_floor", 32),
    ("fp4_e2m1_asym", "fp8e5m2", 16),
    ("int4_asym", "pot_floor", 32),
    ("fp4_e2m1", "nvfp4_double", 16),
    ("fp4_e2m1_asym", "nvfp4_double", 32),
    ("fp6_e3m2_asym", "fp32", "row"),
]


def _input(layout):
    """A tensor of the layout, with its largest |x| in the last row (the last
    block) and a zero group, a one-sided group and a tiny group before it."""
    shape, axis = LAYOUTS[layout]
    rows = np.random.default_rng(5).normal(0.2, 1.0, (10, 64))
    rows[0, :32] = 0.0
    rows[1] = np.abs(rows[1])
    rows[2, 32:] *= 1e-310
    rows[-1, -3] = -50.0
    moved_shape = np.moveaxis(np.empty(shape), axis, -1).shape
    return np.moveaxis(rows.reshape(moved_shape), -1, axis), axis


def _outputs(x, axis, name, scale, gs):
    cfg = config(name, scale, gs, axis)
    q = quantize(x, cfg)
    values, clamped = blocks_in_layout(x, cfg)
    assert values.shape == x.shape and values.tobytes() == dequantize(q).tobytes()
    stats = group_stats(x, gs if gs != "row" else None, axis)
    rep = error_decomposition(x, cfg)
    return [q.codes, q.scales, np.float64(q.tensor_scale or 0.0), values,
            clamped, dequantize(q), rotate(x, make_rotation(64, 3), axis),
            rotate(x, make_rotation(64, 3), axis, transpose=True), stats.mean,
            stats.kurtosis, rep.clamp_sq_per_group, rep.round_sq_per_group,
            np.array([rep.mse, rep.clamp_sq_error, rep.round_sq_error])]


@pytest.mark.parametrize("name,scale,gs", CONFIGS)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_every_block_size_gives_the_same_bits(monkeypatch, layout, name, scale, gs):
    x, axis = _input(layout)
    results = {}
    for label, size in BLOCK_SIZES.items():
        monkeypatch.setattr(quantizer, "BLOCK_ELEMS", size)
        results[label] = _outputs(x, axis, name, scale, gs)
    whole = results.pop("whole")
    for label, outs in results.items():
        for got, want in zip(outs, whole):
            assert got.dtype == want.dtype and got.shape == want.shape, label
            np.testing.assert_array_equal(got, want, err_msg=label)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("size", sorted(BLOCK_SIZES.values()))
def test_row_blocks_cover_every_row_once_in_order(monkeypatch, layout, size):
    monkeypatch.setattr(quantizer, "BLOCK_ELEMS", size)
    x, axis = _input(layout)
    moved = np.moveaxis(x, axis, -1)
    blocks = list(row_blocks(moved))
    assert all(b.flags.c_contiguous for _, b in blocks)
    assert all(len(b) == 1 or b.size <= size for _, b in blocks)
    np.testing.assert_array_equal(np.concatenate([b for _, b in blocks]), moved.reshape(-1, 64))
    starts = [rows.start for rows, _ in blocks] + [blocks[-1][0].stop]
    assert starts == sorted(set(starts)) and starts[0] == 0 and starts[-1] == 10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("flat_index", [0, 317, 639])
@pytest.mark.parametrize("layout", ["last", "first"])
def test_first_bad_value_is_reported_at_its_flat_index(monkeypatch, layout, flat_index, bad):
    monkeypatch.setattr(quantizer, "BLOCK_ELEMS", 64)
    x, axis = _input(layout)
    x = x.copy()
    x.reshape(-1)[flat_index] = bad
    x.reshape(-1)[-1] = np.nan  # a later bad value is not the one reported
    cfg = config("fp4_e2m1_asym", "nvfp4_double", 16, axis)
    match = f"non-finite input value at flat index {flat_index}$"
    for call in (lambda: quantize(x, cfg), lambda: next(quantize_blocks(x, cfg)),
                 lambda: group_stats(x, 16, axis), lambda: error_decomposition(x, cfg)):
        with pytest.raises(DataError, match=match):
            call()


@pytest.mark.parametrize("size", sorted(BLOCK_SIZES.values()))
@pytest.mark.parametrize("name,scale,what", [("fp4_e2m1", "fp32", "fp32 scale"),
                                             ("int4_asym", "pot_floor", "zero-point scale")])
def test_a_scale_overflow_in_a_later_block_raises_the_same_error(monkeypatch, size, name,
                                                                 scale, what):
    monkeypatch.setattr(quantizer, "BLOCK_ELEMS", size)
    x, axis = _input("last")
    x[-1, :2] = [-1.7e308, 1.7e308]  # overflows binary32 in the last row only
    cfg = config(name, scale, 32, axis)
    for call in (quantize, blocks_in_layout, error_decomposition):
        with pytest.raises(DataError, match=f"^{what} overflows binary32$"):
            call(x, cfg)


def _zero_signed_minima():
    """(96, 32) groups that all have a positive span: a +0.0 or -0.0 minimum
    from both zeros in many orders, a zero minimum of one sign only, and a
    negative minimum."""
    rng = np.random.default_rng(9)
    xg = np.abs(rng.normal(size=(96, 32))) + 0.5
    for g in range(64):  # a +0.0 and a -0.0 in either order, and up to 3 more zeros
        i, j = rng.choice(32, 2, replace=False)
        xg[g, i], xg[g, j] = (0.0, -0.0) if g % 2 else (-0.0, 0.0)
        xg[g, rng.choice(32, g % 4)] = rng.choice([0.0, -0.0], g % 4)
    xg[64:72, :3], xg[72:80, -3:] = 0.0, -0.0
    xg[80:] -= 1.0
    return xg


@pytest.mark.parametrize("size", sorted(BLOCK_SIZES.values()))
def test_zero_points_take_the_sign_of_numpys_minimum(monkeypatch, size):
    monkeypatch.setattr(quantizer, "BLOCK_ELEMS", size)
    xg = _zero_signed_minima()
    q = quantize(xg.reshape(-1, 4 * 32), config("int4_asym", "pot_floor", 32))
    lo = xg.min(-1)
    scale = ((xg.max(-1) - lo) / 15).astype(np.float32).astype(np.float64)
    want = np.stack([scale, np.round(-lo / scale)], axis=-1)
    assert np.signbit(want[:64, 1]).any() and not np.signbit(want[:64, 1]).all()
    assert q.scales.reshape(-1, 2).tobytes() == want.tobytes()


def _extra_peak(call, *args):
    """Traced peak of call(*args) beyond the bytes of what it returns."""
    tracemalloc.start()
    try:
        out = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = {
        "QuantizedTensor": lambda q: q.codes.nbytes + q.scales.nbytes,
        "ndarray": lambda a: a.nbytes,
        "GroupStats": lambda s: s.mean.nbytes + s.kurtosis.nbytes,
        "ErrorReport": lambda r: r.clamp_sq_per_group.nbytes + r.round_sq_per_group.nbytes,
    }[type(out).__name__](out)
    return peak - returned


def test_memory_stays_flat_in_the_row_count():
    spec = make_rotation(4096, 1)
    rng = np.random.default_rng(2)
    for axis in (-1, 0):  # along axis 0, x is the transpose of the rows
        amx = config("fp4_e2m1_asym", "fp8e5m2", 32, axis)
        calls = {"quantize": lambda x: (quantize, x, amx),
                 "dequantize": lambda x: (dequantize, quantize(x, amx)),
                 "rotate": lambda x: (rotate, x, spec, axis),
                 "group_stats": lambda x: (group_stats, x, 32, axis),
                 "error_decomposition": lambda x: (error_decomposition, x, amx)}
        small, large = (rng.normal(size=(rows, 4096)) for rows in (256, 1024))
        if axis == 0:
            small, large = np.ascontiguousarray(small.T), np.ascontiguousarray(large.T)
        for name, args in calls.items():
            peak = _extra_peak(*args(large))
            grown = peak - _extra_peak(*args(small))
            # the larger input holds 24 MB more; a block holds 0.5 MB
            assert grown < 2**20, (name, axis, grown)
            if name in ("dequantize", "rotate"):  # blocks are stored in x's layout
                assert peak < 2 * 2**20, (name, axis, peak)


# the configs of the benchmark's quantize sweep
SWEEP_CONFIGS = [
    ("fp4_e2m1", "pot_floor", 32),
    ("fp4_e2m1_asym", "fp8e5m2", 32),
    ("fp4_e2m1", "nvfp4_double", 16),
    ("fp6_e2m3_asym", "pot_round", 32),
    ("fp8_e4m3", "pot_floor", 32),
    ("int4_asym", "pot_floor", 32),
]


def test_the_block_step_keeps_a_small_working_set():
    # 1024x4096 float64 is 32 MiB and a block 0.5 MiB. The bounds sit just
    # above what the block step measures: 1.89-1.98 MiB for quantize and
    # 3.02-3.06 MiB for error_decomposition.
    x = np.random.default_rng(2).normal(size=(1024, 4096))
    for names in SWEEP_CONFIGS:
        cfg = config(*names)
        peak = _extra_peak(quantize, x, cfg)
        assert peak <= 2 * 2**20, (names, peak)
        if cfg.group_size == 32:
            peak = _extra_peak(error_decomposition, x, cfg)
            assert peak <= 3.25 * 2**20, (names, peak)


@pytest.mark.parametrize("shape, axis", [((64, 6), 0), ((3, 64, 2), 1)])
def test_results_are_moveaxis_views_of_the_grouped_layout(shape, axis):
    x = np.random.default_rng(8).normal(0.2, 1.0, shape)
    grouped_x = np.ascontiguousarray(np.moveaxis(x, axis, -1))
    spec, lloyd = make_rotation(64, 4), LloydConfig(n_clusters=2, n_iters=3)
    amx = config("fp4_e2m1_asym", "fp8e5m2", 32)
    calls = {
        "dequantize": lambda a, ax: dequantize(quantize(a, replace(amx, axis=ax))),
        "rotate": lambda a, ax: rotate(a, spec, ax),
        "rotate transposed": lambda a, ax: rotate(a, spec, ax, transpose=True),
        "reference_quantize": lambda a, ax: reference_quantize(a, 32, lloyd, axis=ax)[0],
    }
    for name, call in calls.items():
        got, grouped = call(x, axis), call(grouped_x, -1)
        assert got.shape == x.shape and not got.flags.c_contiguous, name
        assert grouped.flags.c_contiguous and np.moveaxis(got, axis, -1).flags.c_contiguous, name
        want = np.moveaxis(grouped, -1, axis)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), err_msg=name)

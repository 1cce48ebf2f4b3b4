import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mxemu import analysis, config, quantize_dequantize, quantizer
from mxemu.analysis import (
    GroupStats,
    error_decomposition,
    group_stats,
    mse,
    stats_summary,
)
from mxemu.errors import ConfigError, DataError
from mxemu.formats import max_normal
from mxemu.quantizer import dequantize, group_view, quantize, row_blocks, validate_range

from conftest import blocks_in_layout, shifted_gaussian


# ---- group_stats -----------------------------------------------------------

def test_alternating_signs():
    stats = group_stats(np.array([1.0, -1.0, 1.0, -1.0]))
    assert stats.mean[0] == 0.0
    assert stats.kurtosis[0] == 1.0


def test_constant_group_undefined_kurtosis():
    stats = group_stats(np.full(8, 2.5))
    assert np.isnan(stats.kurtosis[0])


@pytest.mark.parametrize("x, match", [
    (np.r_[np.ones(7), np.nan], "non-finite input value at flat index 7"),
    (np.r_[np.ones(4), -np.inf, np.ones(3)], "non-finite input value at flat index 4"),
    (np.zeros((0, 8)), "empty input tensor"),
])
def test_group_stats_rejects_bad_input(x, match):
    with pytest.raises(DataError, match=match):
        group_stats(x)


def test_gaussian_kurtosis_is_three():
    rng = np.random.default_rng(42)
    stats = group_stats(rng.normal(0, 1, 10**6))
    assert abs(stats.kurtosis[0] - 3.0) < 0.05


def test_group_indices_and_count():
    stats = group_stats(np.arange(64.0), group_size=16)
    assert stats.mean.shape == stats.kurtosis.shape == (4,)
    np.testing.assert_array_equal(stats.mean, [7.5, 23.5, 39.5, 55.5])  # position is index


@given(vals=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=32))
def test_kurtosis_at_least_one(vals):
    stats = group_stats(np.array(vals))
    if not np.isnan(stats.kurtosis[0]):
        assert stats.kurtosis[0] >= 1.0 - 1e-12


def test_sign_symmetric_mean_zero(rng):
    half = rng.normal(0, 1, 16)
    stats = group_stats(np.concatenate([half, -half]))
    assert abs(stats.mean[0]) < 1e-12


@given(a=st.floats(min_value=0.1, max_value=10),
       b=st.floats(min_value=-5, max_value=5))
def test_kurtosis_shift_scale_invariance(a, b):
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, 256)
    k0 = group_stats(x).kurtosis[0]
    k1 = group_stats(a * x + b).kurtosis[0]
    assert abs(k1 - k0) <= 1e-9 * abs(k0)


@given(a=st.floats(min_value=-10, max_value=10),
       b=st.floats(min_value=-10, max_value=10))
def test_mean_equivariance(a, b):
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, 64)
    m0 = group_stats(x).mean[0]
    m1 = group_stats(a * x + b).mean[0]
    assert abs(m1 - (a * m0 + b)) < 1e-9


def _loop_group_stats(x, group_size, axis):
    """The per-group loop that group_stats vectorises, kept as its reference:
    each group's statistics are 1-D means of that group alone."""
    _, xg, gs = group_view(np.asarray(x, float), group_size, axis)
    mean, kurt = [], []
    for group in xg.reshape(-1, gs):
        group = np.array(group)  # a contiguous copy, so each mean sums as a 1-D mean
        m = group.mean()
        centered = group - m
        sigma = np.sqrt((centered**2).mean())
        mean.append(m)
        kurt.append(((centered / sigma) ** 4).mean() if sigma > 0 else np.nan)
    return np.array(mean), np.array(kurt)


@pytest.mark.parametrize("shape,group_size,axis", [
    ((64, 256), 32, -1), ((64, 256), None, 0), ((256, 64), 16, 0), ((8, 5000), None, -1),
])
def test_group_stats_bits_match_per_group_loop(rng, shape, group_size, axis):
    x = rng.standard_t(3, shape)
    x[:32, :32] = 1.5  # constant groups where the grouping allows
    stats = group_stats(x, group_size, axis)
    mean, kurt = _loop_group_stats(x, group_size, axis)
    np.testing.assert_array_equal(stats.mean, mean)
    np.testing.assert_array_equal(stats.kurtosis, kurt)


@pytest.mark.parametrize("group_size", [16, None])
@pytest.mark.parametrize("axis", [0, 1, -1])
def test_group_stats_do_not_depend_on_the_memory_layout(rng, group_size, axis):
    x = rng.standard_t(3, (64, 96, 32))
    stats = group_stats(x, group_size, axis)
    moved = group_stats(np.moveaxis(x, axis, -1).copy(), group_size, -1)
    np.testing.assert_array_equal(stats.mean, moved.mean)
    np.testing.assert_array_equal(stats.kurtosis, moved.kurtosis)


def _serial_group_stats(x, group_size, axis):
    """group_stats on one thread: the per-block body walked over row_blocks in
    block order, kept as the reference the threaded walk must match bit for bit."""
    _, xg, gs = group_view(validate_range(x)[0], group_size, axis)
    mean, kurtosis = np.empty((2, xg.size // gs))
    for groups, flat in row_blocks(xg):
        m = mean[groups] = flat.mean(axis=1)
        z = flat - m[:, None]
        sigma = np.sqrt((z**2).mean(axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            z /= sigma[:, None]
        kurtosis[groups] = np.where(sigma > 0, (z**4).mean(axis=1), np.nan)
    return mean, kurtosis


def _assert_serial_bits(x, group_size, axis):
    stats = group_stats(x, group_size, axis)
    for got, want in zip((stats.mean, stats.kurtosis), _serial_group_stats(x, group_size, axis)):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    return stats


def _stats_input(shape, axis, order="C"):
    """standard_t(3) data of shape in the given memory order, with a constant
    group at group sizes up to 32 and, past 1-D, a constant row along axis."""
    moved_shape = np.moveaxis(np.empty(shape), axis, -1).shape
    rows = np.random.default_rng(6).standard_t(3, moved_shape).reshape(-1, moved_shape[-1])
    rows[0, :32] = 1.5
    if len(rows) > 1:
        rows[-1] = -2.0
    return np.array(np.moveaxis(rows.reshape(moved_shape), -1, axis), order=order)


# a non-C order along the last axis, or a C order along another, takes the
# fancy-gather path of row_blocks past 1-D
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("group_size", [16, 32, None])
@pytest.mark.parametrize("shape,axis", [
    ((512,), -1), ((40, 512), -1), ((512, 40), 0),
    ((4, 5, 512), -1), ((512, 4, 5), 0), ((4, 512, 5), 1),
])
def test_group_stats_bits_match_the_serial_walk(shape, axis, group_size, order):
    x = _stats_input(shape, axis, order)
    stats = _assert_serial_bits(x, group_size, axis)
    if group_size or x.ndim > 1:  # else the one group is not constant
        assert np.isnan(stats.kurtosis).any()


@pytest.mark.parametrize("extra_workers", [0, 3])
def test_group_stats_bits_match_the_serial_walk_over_many_batches(monkeypatch, extra_workers):
    workers = analysis._usable_cpus() + extra_workers  # more threads than CPUs with extras
    monkeypatch.setattr(analysis, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(quantizer, "BLOCK_ELEMS", 64)  # one row per block
    x = _stats_input((4 * workers + 3, 64), -1)
    assert len(list(row_blocks(group_view(x, 32)[1]))) >= 4 * workers
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter will
    try:
        _assert_serial_bits(x, 32, -1)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("shape,group_size", [((16, 256), 32), ((512,), None)])
def test_a_one_block_group_stats_starts_no_thread(monkeypatch, shape, group_size):
    monkeypatch.setattr(quantizer, "BLOCK_ELEMS", 4096)  # the whole input is one block
    x = _stats_input(shape, -1)
    assert len(list(row_blocks(group_view(x, group_size)[1]))) == 1

    def no_start(thread):
        raise AssertionError("a one-block walk started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_start)
    _assert_serial_bits(x, group_size, -1)


def test_group_stats_raise_under_the_caller_errstate():
    x = np.full((4, 64), 1e308)  # each group's sum overflows
    for walk in (group_stats, _serial_group_stats):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            walk(x, 32, -1)


# ---- stats_summary ----------------------------------------------------------

def test_summary_of_known_means():
    stats = group_stats(
        np.array([[1, 1], [2, 2], [3, 3], [4, 4], [5, 5]], dtype=float)
        + np.array([[0.5, -0.5]]),  # keep variance nonzero
        group_size=2,
    )
    s = stats_summary(stats)
    assert (s.mean.min, s.mean.q1, s.mean.median, s.mean.q3, s.mean.max) == (1, 2, 3, 4, 5)


def test_summary_single_group():
    s = stats_summary(group_stats(np.array([0.0, 1.0, 2.0, 7.0])))
    assert s.mean.min == s.mean.max == 2.5
    assert s.kurtosis.min == s.kurtosis.max


def test_summary_counts_undefined():
    x = np.concatenate([np.full(8, 1.0), np.arange(8.0)])
    s = stats_summary(group_stats(x, group_size=8))
    assert s.undefined_kurtosis == 1
    assert s.n_groups == 2


def test_summary_of_no_groups_errors():
    with pytest.raises(DataError, match="no groups"):
        stats_summary(GroupStats(np.array([]), np.array([])))


def test_summary_all_undefined_errors():
    with pytest.raises(DataError, match="undefined"):
        stats_summary(group_stats(np.ones(32), group_size=8))


def test_outlier_kurtosis_shrinks_with_group_size(rng):
    # one hot channel on quiet background: finer grouping hides the outlier
    x = rng.normal(0, 0.01, (8, 1024))
    x[:, 100] = 8.0
    med_row = stats_summary(group_stats(x, None)).kurtosis.median
    med_32 = stats_summary(group_stats(x, 32)).kurtosis.median
    assert med_32 < med_row


# ---- mse ---------------------------------------------------------------------

def test_mse_trivial():
    assert mse(np.arange(4.0), np.arange(4.0)) == 0.0
    assert mse(np.array([0.0, 2.0]), np.array([0.0, 0.0])) == 2.0


def test_mse_shape_mismatch():
    with pytest.raises(ConfigError):
        mse(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("empty", [[], np.zeros((0, 8))])
def test_mse_of_nothing_is_a_data_error(empty):
    with pytest.raises(DataError, match="mse: empty input"):
        mse(empty, empty)


def test_asym_fp_beats_sym_fp_on_shifted_groups(rng):
    x = shifted_gaussian(rng, 128, 32).ravel()
    e_sym = mse(x, quantize_dequantize(x, config("fp4_e2m1", "fp8e5m2", 32)))
    e_asym = mse(x, quantize_dequantize(x, config("fp4_e2m1_asym", "fp8e5m2", 32)))
    assert e_asym < e_sym


# ---- error decomposition -------------------------------------------------------

def test_decomposition_hand_case_clamp():
    rep = error_decomposition(np.array([0.0, 7.0]), config("fp4_e2m1", "pot_floor", "row"))
    assert rep.clamp_sq_error == 1.0  # 7 clamps to 6 at scale 1
    assert rep.round_sq_error == 0.0
    assert rep.mse == 0.5


def test_decomposition_on_grid_zero():
    x = np.array([6.0, 3.0, -1.5, 0.0])
    rep = error_decomposition(x, config("fp4_e2m1", "pot_floor", "row"))
    assert rep.clamp_sq_error == 0.0 and rep.round_sq_error == 0.0


def test_pot_round_clamps_less_hand_case():
    x = np.array([0.0, 7.9])
    floor_rep = error_decomposition(x, config("fp4_e2m1", "pot_floor", "row"))
    round_rep = error_decomposition(x, config("fp4_e2m1", "pot_round", "row"))
    assert floor_rep.clamp_sq_error == pytest.approx((7.9 - 6.0) ** 2)
    assert round_rep.clamp_sq_error == 0.0


def _independent_decomposition(x, cfg):
    """Clamp mask and per-group clamp/round squared error from a per-element
    loop over quantize's stored scales, each group folded left to right."""
    q = quantize(x, cfg)
    _, xg, gs = group_view(np.asarray(x, float), cfg.group_size, cfg.axis)
    _, yg, _ = group_view(dequantize(q), cfg.group_size, cfg.axis)
    pairs = q.scales.reshape(-1, 2)
    ts = 1.0 if q.tensor_scale is None else q.tensor_scale
    mask, clamp, rnd = [], [], []
    for (pos, neg), xs, ys in zip(pairs, xg.reshape(-1, gs), yg.reshape(-1, gs)):
        clamp_part = round_part = 0.0
        for xv, yv in zip(map(float, xs), map(float, ys)):
            if cfg.uses_zero_point:  # pos is the scale and neg the zero point
                clamped = not 0 <= round(xv / pos) + neg <= 2**cfg.fmt.total_bits - 1
            else:
                clamped = abs(xv / ((neg if xv < 0 else pos) * ts)) > max_normal(cfg.fmt)
            mask.append(clamped)
            sq = (xv - yv) * (xv - yv)  # a float's ** 2 goes through libm pow
            if clamped:
                clamp_part += sq
            else:
                round_part += sq
        clamp.append(clamp_part)
        rnd.append(round_part)
    return np.reshape(mask, xg.shape), np.array(clamp), np.array(rnd)


def _check_decomposition(x, cfg):
    rep = error_decomposition(x, cfg)
    mask, clamp_g, round_g = _independent_decomposition(x, cfg)
    values, clamped = blocks_in_layout(x, cfg)
    want = dequantize(quantize(x, cfg))
    assert values.shape == want.shape and values.tobytes() == want.tobytes()
    assert clamped.shape == x.shape
    np.testing.assert_array_equal(group_view(clamped, cfg.group_size, cfg.axis)[1], mask)
    np.testing.assert_array_equal(rep.clamp_sq_per_group, clamp_g)
    np.testing.assert_array_equal(rep.round_sq_per_group, round_g)
    assert rep.clamp_sq_error == sum(clamp_g.tolist())
    assert rep.round_sq_error == sum(round_g.tolist())
    assert rep.clamp_sq_error + rep.round_sq_error == rep.mse * x.size
    assert rep.clamp_sq_error >= 0 and rep.round_sq_error >= 0
    return rep


@pytest.mark.parametrize("fmt", ["fp4_e2m1", "fp4_e2m1_asym", "int4", "int4_asym"])
@pytest.mark.parametrize("mode", ["pot_floor", "pot_round", "fp8e5m2"])
def test_decomposition_exactness(fmt, mode, rng):
    x = rng.normal(0.5, 2.0, (32, 32))
    rep = _check_decomposition(x, config(fmt, mode, 32))
    assert rep.clamp_sq_per_group.shape == rep.round_sq_per_group.shape == (32,)


@pytest.mark.parametrize("fmt,mode,group_size,axis", [
    ("fp4_e2m1_asym", "nvfp4_double", 16, -1),
    ("fp8_e4m3", "pot_floor", 32, -1),
    ("fp8_e4m3_asym", "fp8e4m3", 16, -1),
    ("fp4_e2m1_asym", "fp8e5m2", "row", -1),
    ("int4_asym", "pot_floor", "row", -1),
    ("fp4_e2m1_asym", "fp8e5m2", 16, 0),
    ("int4_asym", "fp8e5m2", 32, 0),
])
def test_decomposition_exactness_more_configs(fmt, mode, group_size, axis, rng):
    x = rng.normal(0.5, 2.0, (32, 64))
    x[3, :16] = 0.0  # an all-zero group where the grouping allows
    _check_decomposition(x, config(fmt, mode, group_size, axis))


def test_clamp_boundary_is_max_normal_times_scale():
    # pot_floor scales: 1 for the negative side (amax 6), 0.25 for the positive (amax 1.5)
    above = np.nextafter(6.0, np.inf)
    x = np.array([[-6.0, 1.5], [-above, 1.5]])
    cfg = config("fp4_e2m1_asym", "pot_floor", 2)
    q, clamped = quantize(x, cfg), blocks_in_layout(x, cfg)[1]
    np.testing.assert_array_equal(q.scales, [[[0.25, 1.0]], [[0.25, 1.0]]])
    np.testing.assert_array_equal(clamped, [[False, False], [True, False]])
    rep = error_decomposition(x, cfg)
    np.testing.assert_array_equal(rep.clamp_sq_per_group, [0.0, (above - 6.0) ** 2])
    np.testing.assert_array_equal(rep.round_sq_per_group, [0.0, 0.0])
    assert rep.clamp_sq_error == (above - 6.0) ** 2 > 0


def test_zero_point_clamp_boundary_is_the_top_code():
    # both rows get scale 0.25; the second has zero point 2, so 3.375 -> 13.5 + 2 -> 16
    x = np.array([[0.0, 3.75], [-0.375, 3.375]])
    cfg = config("int4_asym", "pot_floor", "row")
    q, clamped = quantize(x, cfg), blocks_in_layout(x, cfg)[1]
    np.testing.assert_array_equal(q.scales, [[[0.25, 0.0]], [[0.25, 2.0]]])
    np.testing.assert_array_equal(q.codes, [[0, 15], [0, 15]])
    np.testing.assert_array_equal(clamped, [[False, False], [False, True]])
    rep = error_decomposition(x, cfg)
    np.testing.assert_array_equal(rep.clamp_sq_per_group, [0.0, 0.125**2])
    np.testing.assert_array_equal(rep.round_sq_per_group, [0.0, 0.125**2])


def test_clamp_monotonicity_per_group(rng):
    x = rng.normal(0, 3.0, (64, 16))
    rep_f = error_decomposition(x, config("fp4_e2m1", "pot_floor", 16))
    rep_r = error_decomposition(x, config("fp4_e2m1", "pot_round", 16))
    assert rep_r.clamp_sq_per_group.shape == rep_f.clamp_sq_per_group.shape == (64,)
    assert np.all(rep_r.clamp_sq_per_group <= rep_f.clamp_sq_per_group)

import numpy as np
import pytest

from mxemu import config, quantize_dequantize
from mxemu.analysis import GroupStats, group_stats, mse
from mxemu.errors import ConfigError, DataError
from mxemu.lloydmax import (
    Codebook,
    LloydConfig,
    asym_grid_codebook,
    cluster_groups,
    lloyd_fit,
    reference_quantize,
)

from conftest import shifted_gaussian


# ---- Codebook ---------------------------------------------------------------

def test_codebook_boundaries_are_midpoints():
    cb = Codebook(np.array([0.0, 1.0, 3.0]))
    np.testing.assert_array_equal(cb.boundaries, [0.5, 2.0])
    np.testing.assert_array_equal(cb.quantize_values([0.4, 0.6, 10.0]), [0.0, 1.0, 3.0])


def test_codebook_rejects_unsorted():
    with pytest.raises(ConfigError):
        Codebook(np.array([1.0, 1.0]))


def test_codebook_rejects_no_levels():
    with pytest.raises(ConfigError, match="nonempty"):
        Codebook([])


@pytest.mark.parametrize("kwargs, match", [
    (dict(n_levels=1), "at least 2 codebook levels"),
    (dict(n_clusters=0), "at least 1 cluster"),
])
def test_lloyd_config_rejects_bad_sizes(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        LloydConfig(**kwargs)


# ---- lloyd_fit ----------------------------------------------------------------

def test_two_point_exact():
    cb, trace = lloyd_fit([0.0, 1.0], LloydConfig(n_iters=5, n_levels=2),
                          init=Codebook(np.array([0.25, 0.75])))
    np.testing.assert_array_equal(cb.levels, [0.0, 1.0])
    assert trace[-1] == 0.0


def test_trace_monotone_nonincreasing(rng):
    for _ in range(10):
        vals = rng.normal(rng.normal(), 1.5, 2000)
        cb, trace = lloyd_fit(vals, LloydConfig(n_iters=100))
        assert len(trace) == 100
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))
        assert trace[-1] == pytest.approx(np.mean((vals - cb.quantize_values(vals)) ** 2), rel=1e-12)


def test_levels_stay_in_data_range(rng):
    vals = rng.normal(0, 1, 500)
    cb, _ = lloyd_fit(vals, LloydConfig(n_iters=40))
    assert vals.min() <= cb.levels[0] and cb.levels[-1] <= vals.max()


@pytest.mark.parametrize("v", [2.0, 0.0, -3.5])
def test_single_value_pool_gets_one_level(v):
    cb, trace = lloyd_fit([v] * 5, LloydConfig(n_iters=5))
    assert v <= cb.levels[0] and cb.levels[-1] <= v
    assert trace[-1] == 0.0


def test_format_grid_init_bounds_format_mse(rng):
    vals = shifted_gaussian(rng, 1, 512).ravel()
    init = asym_grid_codebook(vals)
    _, trace = lloyd_fit(vals, LloydConfig(n_iters=100), init=init)
    amx = mse(vals, quantize_dequantize(vals, config("fp4_e2m1_asym", "fp8e5m2", "row")))
    assert trace[-1] <= amx


def test_empty_values_rejected():
    with pytest.raises(DataError):
        lloyd_fit([], LloydConfig())


def test_determinism(rng):
    vals = rng.normal(0, 1, 1000)
    a, ta = lloyd_fit(vals, LloydConfig(seed=5))
    b, tb = lloyd_fit(vals, LloydConfig(seed=5))
    np.testing.assert_array_equal(a.levels, b.levels)
    assert ta == tb


# ---- cluster_groups -------------------------------------------------------------

def test_identical_stats_single_cluster():
    stats = GroupStats(np.full(10, 1.0), np.full(10, 3.0))
    labels = cluster_groups(stats, LloydConfig(n_clusters=4, seed=1))
    assert len(set(labels.tolist())) == 1


def test_two_blobs_recovered():
    i = np.arange(20)
    stats = GroupStats(np.concatenate([-10.0 + 0.01 * i, 10.0 + 0.01 * i]),
                       np.repeat([1.5, 9.0], 20))
    labels = cluster_groups(stats, LloydConfig(n_clusters=2, seed=3))
    first, second = set(labels[:20].tolist()), set(labels[20:].tolist())
    assert len(first) == 1 and len(second) == 1 and first != second


def test_every_group_assigned(rng):
    x = shifted_gaussian(rng, 256, 32)
    stats = group_stats(x, 32)
    labels = cluster_groups(stats, LloydConfig(n_clusters=16, seed=0))
    assert labels.shape == (256,)
    assert np.all(labels >= 0) and np.all(labels <= 16)


def test_undefined_kurtosis_gets_dedicated_cluster():
    stats = GroupStats(np.array([1.0, 0.0, 1.0]), np.array([np.nan, 2.0, 3.0]))
    cfg = LloydConfig(n_clusters=2, seed=0)
    labels = cluster_groups(stats, cfg)
    assert labels[0] == cfg.n_clusters
    assert labels[1] != cfg.n_clusters and labels[2] != cfg.n_clusters


def test_all_constant_groups_share_the_extra_cluster():
    cfg = LloydConfig(n_clusters=4)
    labels = cluster_groups(group_stats(np.repeat([1.0, -2.0, 0.0], 8), 8), cfg)
    np.testing.assert_array_equal(labels, [cfg.n_clusters] * 3)


# ---- reference_quantize ------------------------------------------------------------

def test_reference_rejects_unknown_init(rng):
    with pytest.raises(ConfigError, match="unknown init 'bogus'"):
        reference_quantize(rng.normal(0, 1, (2, 32)), 32, init="bogus")


def test_exact_reconstruction_of_few_valued_data(rng):
    vals = rng.choice([-2.0, -0.5, 0.0, 1.0, 3.0], size=(8, 32))
    out, rep = reference_quantize(vals, 32, LloydConfig(n_iters=10))
    np.testing.assert_array_equal(out, vals)
    assert rep.mse == 0.0


def test_reference_orders_below_formats(rng):
    x = shifted_gaussian(rng, 256, 32)
    lcfg = LloydConfig(n_clusters=16, n_iters=100, seed=9)
    _, rep = reference_quantize(x, 32, lcfg, init="format_grid")
    amx = mse(x, quantize_dequantize(x, config("fp4_e2m1_asym", "fp8e5m2", 32)))
    mx = mse(x, quantize_dequantize(x, config("fp4_e2m1", "fp8e5m2", 32)))
    assert rep.mse <= amx <= mx


def test_cluster_plateau(rng):
    # The MSE is in-sample, so halving the pools keeps lowering it a little;
    # the plateau is that clusters beyond 16 add little next to what the
    # first 16 bought.
    x = shifted_gaussian(rng, 512, 32)
    m1 = reference_quantize(x, 32, LloydConfig(n_clusters=1, n_iters=60, seed=2))[1].mse
    m16 = reference_quantize(x, 32, LloydConfig(n_clusters=16, n_iters=60, seed=2))[1].mse
    m32 = reference_quantize(x, 32, LloydConfig(n_clusters=32, n_iters=60, seed=2))[1].mse
    assert m32 <= m16
    assert m16 - m32 < 0.1 * (m1 - m16)


def test_default_fit_escapes_quantile_stall(rng):
    # Small heavy-tailed cluster pools are where a quantile start stalls.
    x = shifted_gaussian(rng, 512, 32)
    cfg = LloydConfig(n_clusters=32, n_iters=60, seed=2)
    labels = cluster_groups(group_stats(x, 32), cfg)
    groups = x.reshape(-1, 32)
    probe = (np.arange(cfg.n_levels) + 0.5) / cfg.n_levels
    small = [c for c, n in enumerate(np.bincount(labels)) if 8 <= n <= 13]
    assert small
    default, quantile_only = [], []
    for c in small:
        pool = groups[labels == c].ravel()
        default.append(lloyd_fit(pool, cfg)[1][-1])
        quantile_only.append(lloyd_fit(pool, cfg, init=Codebook(np.quantile(pool, probe)))[1][-1])
    assert all(d <= q for d, q in zip(default, quantile_only))
    stalled = int(np.argmax(quantile_only))
    assert default[stalled] < quantile_only[stalled]


def test_error_report_shape(rng):
    x = rng.normal(0, 1, (4, 64))
    out, rep = reference_quantize(x, 16, LloydConfig(n_iters=5))
    assert out.shape == x.shape
    assert rep.clamp_sq_per_group.shape == rep.round_sq_per_group.shape == (16,)
    assert rep.clamp_sq_error == 0.0
    assert rep.round_sq_error == pytest.approx(rep.mse * x.size)

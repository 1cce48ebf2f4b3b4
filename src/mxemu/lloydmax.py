"""Cluster-wise Lloyd-Max scalar quantizer used as a near-optimal baseline.

Groups are clustered by (min-max normalized) mean and kurtosis with a
seeded k-means; one codebook per cluster is then fitted to the cluster's
pooled raw values by Lloyd iterations (nearest-level assignment alternating
with conditional-mean updates, empty cells keeping their previous level).
By default each fit is multi-start: Lloyd runs from value quantiles, from a
uniform grid and from seeded k-means++ draws, and the lowest final MSE wins;
init="format_grid" starts from the pool's AMXFP4 grid instead, as quantize
gives it. Everything is deterministic under a fixed seed.

The reported MSE is in-sample: each codebook quantizes the very values it
was fitted to. More clusters mean smaller pools, each with its own
codebook, so the MSE keeps falling as clusters are added. Past 16
clusters the fall is small next to the gain from clustering at all, and on
shifted-Gaussian groups codebooks fitted with 32 clusters do no better on a
fresh draw than those fitted with 16.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import ErrorReport, GroupStats, group_stats, mse
from .errors import ConfigError, DataError
from .formats import grid
from .quantizer import config, group_view, quantize

__all__ = [
    "LloydConfig",
    "Codebook",
    "asym_grid_codebook",
    "cluster_groups",
    "lloyd_fit",
    "reference_quantize",
]

_KMEANS_ITERS = 50  # the cap on k-means iterations over group features
_KMEANS_TOL = 1e-9  # k-means stops once no centroid moves further than this
_KMEANSPP_STARTS = 5  # k-means++ starts of a multi-start Lloyd fit


@dataclass(frozen=True)
class LloydConfig:
    n_clusters: int = 16
    n_iters: int = 100  # Lloyd update steps per start, at least 1
    n_levels: int = 16  # 4-bit codebook
    seed: int = 0

    def __post_init__(self):
        if self.n_iters < 1:
            raise ConfigError("need at least 1 Lloyd iteration")
        if self.n_levels < 2:
            raise ConfigError("need at least 2 codebook levels")
        if self.n_clusters < 1:
            raise ConfigError("need at least 1 cluster")


@dataclass
class Codebook:
    """Sorted reconstruction levels; cell boundaries are midpoints."""

    levels: np.ndarray

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=float)
        if self.levels.ndim != 1 or self.levels.size < 1:
            raise ConfigError("codebook levels must be a nonempty 1-D array")
        if np.any(np.diff(self.levels) <= 0):
            raise ConfigError("codebook levels must be strictly increasing")

    @property
    def boundaries(self) -> np.ndarray:
        return (self.levels[1:] + self.levels[:-1]) / 2

    def quantize_values(self, values) -> np.ndarray:
        """Each value's nearest level; a value on a boundary takes the upper one."""
        return self.levels[np.digitize(np.asarray(values, dtype=float), self.boundaries)]


def asym_grid_codebook(values) -> Codebook:
    """Codebook of the AMXFP4 grid (fp4_e2m1_asym, fp8e5m2 scales) of the values.

    Levels are the FP4 grid under the scales quantize stores for the pool as
    one group: negative grid values times the negative scale, zero, positive
    ones times the positive scale.
    """
    cfg = config("fp4_e2m1_asym", "fp8e5m2")
    pos, neg = quantize(np.asarray(values, dtype=float).ravel(), cfg).scales[0]
    g = grid(cfg.fmt)  # ascending, with one +0.0: the levels are strictly increasing
    return Codebook(np.where(g < 0, g * neg, g * pos))


def _nearest(feats: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return ((feats[:, None, :] - centroids[None, :, :]) ** 2).sum(-1).argmin(axis=1)


def _kmeans(feats: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Seeded k-means on an (n, 2) feature matrix; returns labels. An empty
    cluster keeps its centroid."""
    n = feats.shape[0]
    k = min(k, n)
    rng = np.random.default_rng(seed)
    centroids = feats[rng.choice(n, size=k, replace=False)]
    for _ in range(_KMEANS_ITERS):
        labels = _nearest(feats, centroids)
        counts = np.bincount(labels, minlength=k)[:, None]
        sums = np.stack([np.bincount(labels, col, minlength=k) for col in feats.T], axis=1)
        new = np.divide(sums, counts, out=centroids.copy(), where=counts > 0)
        move = np.abs(new - centroids).max()
        centroids = new
        if move < _KMEANS_TOL:
            break
    return _nearest(feats, centroids)


def _minmax(v: np.ndarray) -> np.ndarray:
    lo, hi = v.min(), v.max()
    return np.zeros_like(v) if hi == lo else (v - lo) / (hi - lo)


def cluster_groups(stats: GroupStats, cfg: LloydConfig) -> np.ndarray:
    """Cluster groups on normalized (mean, kurtosis); returns a label per group.

    Groups with undefined (NaN) kurtosis land in a dedicated extra cluster
    labeled cfg.n_clusters.
    """
    if stats.mean.size == 0:
        raise DataError("cluster_groups: no groups")
    labels = np.full(stats.mean.size, cfg.n_clusters, dtype=np.int64)
    defined = ~np.isnan(stats.kurtosis)
    if not defined.any():
        return labels
    feats = np.stack([_minmax(stats.mean[defined]), _minmax(stats.kurtosis[defined])], axis=1)
    labels[defined] = _kmeans(feats, cfg.n_clusters, cfg.seed)
    return labels


def _kmeanspp_levels(s: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding on a 1-D pool: each level is drawn with probability
    proportional to the squared distance to the nearest level drawn so far,
    so a pool with more than k distinct values yields k distinct levels."""
    levels = [s[rng.integers(s.size)]]
    d2 = (s - levels[0]) ** 2
    for _ in range(k - 1):
        levels.append(s[rng.choice(s.size, p=d2 / d2.sum())])
        d2 = np.minimum(d2, (s - levels[-1]) ** 2)
    return np.sort(levels)


def _starts(s: np.ndarray, cfg: LloydConfig) -> list[np.ndarray]:
    """Deterministic starting levels for the sorted pool s: value quantiles,
    a uniform grid over [min, max], then k-means++ draws seeded by cfg.seed."""
    uniq = np.unique(s)
    if uniq.size <= cfg.n_levels:
        # few distinct values: start (and stay) at exact reconstruction
        return [uniq]
    probe = (np.arange(cfg.n_levels) + 0.5) / cfg.n_levels
    starts = [np.unique(np.quantile(s, probe)), np.unique(s[0] + probe * (s[-1] - s[0]))]
    rng = np.random.default_rng(cfg.seed)
    starts += [_kmeanspp_levels(s, cfg.n_levels, rng) for _ in range(_KMEANSPP_STARTS)]
    return starts


def _cells(s: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Cell edges in the sorted pool s: cell c holds s[edges[c]:edges[c + 1]],
    the values Codebook(levels).quantize_values maps to levels[c]."""
    inner = np.searchsorted(s, (levels[1:] + levels[:-1]) / 2, side="left")
    return np.concatenate([[0], inner, [s.size]])


def _lloyd(s: np.ndarray, levels: np.ndarray, n_iters: int):
    """Lloyd iterations on the sorted pool s from the given levels.

    Returns (levels, mse_trace), the pool MSE after each of the n_iters >= 1
    update steps, so the last is the fit's MSE; empty cells keep their level.
    """
    levels = np.array(levels, dtype=float)
    edges = _cells(s, levels)
    trace = []
    for _ in range(n_iters):
        counts = np.diff(edges)
        full = counts > 0
        levels[full] = np.add.reduceat(s, edges[:-1][full]) / counts[full]
        edges = _cells(s, levels)
        trace.append(mse(s, np.repeat(levels, np.diff(edges))))
    return levels, trace


def lloyd_fit(values, cfg: LloydConfig, init: Codebook | None = None):
    """Lloyd iterations on a pool of values.

    With init=None the fit is multi-start: Lloyd runs from the value
    quantiles, from a uniform grid over [min, max] and from several k-means++
    draws seeded by cfg.seed, and the start with the lowest final MSE wins
    (the earliest on a tie). A single start stalls in poor local optima on
    small heavy-tailed pools. A pool with at most cfg.n_levels distinct
    values starts (and stays) at exact reconstruction. An explicit init runs
    from that codebook alone, so its MSE never exceeds the init's.

    Returns (codebook, mse_trace); the trace belongs to the winning start,
    holds the pool MSE after each of the cfg.n_iters update steps and is
    monotone non-increasing. Empty cells keep their previous level, so level
    count and ordering are stable, and levels stay inside the data range.
    """
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size == 0:
        raise DataError("lloyd_fit: empty values")
    s = np.sort(vals)
    starts = _starts(s, cfg) if init is None else [init.levels]
    fits = (_lloyd(s, start, cfg.n_iters) for start in starts)
    levels, trace = min(fits, key=lambda fit: fit[1][-1])  # the earliest on a tie
    return Codebook(levels), trace


def reference_quantize(
    x,
    group_size=None,
    cfg: LloydConfig = LloydConfig(),
    axis: int = -1,
    init: str = "quantile",
):
    """Cluster-wise Lloyd-Max quantization of a tensor.

    init="quantile" (the default name, kept for compatibility) fits each
    cluster codebook with the multi-start lloyd_fit: starts at the value
    quantiles, a uniform grid and seeded k-means++ draws, keeping the lowest
    final MSE. init="format_grid" starts only from the AMXFP4 grid of the
    cluster pool (see asym_grid_codebook), which guarantees the final MSE
    does not exceed AMXFP4's row-wise MSE on the pool.
    The MSE is in-sample (see the module docstring).
    Returns (quantized tensor, ErrorReport); the tensor is the np.moveaxis
    view of the grouped layout it is computed in.
    """
    if init not in ("quantile", "format_grid"):
        raise ConfigError(f"unknown init {init!r}")
    arr = np.asarray(x, dtype=float)
    stats = group_stats(arr, group_size, axis)
    labels = cluster_groups(stats, cfg)
    moved, xg, gs = group_view(arr, group_size, axis)
    flat_groups = xg.reshape(-1, gs)
    out_groups = np.empty_like(flat_groups)
    for label in np.unique(labels):
        sel = labels == label
        pool = flat_groups[sel]
        start = asym_grid_codebook(pool) if init == "format_grid" else None
        out_groups[sel] = lloyd_fit(pool, cfg, init=start)[0].quantize_values(pool)
    sq = (flat_groups - out_groups) ** 2
    report = ErrorReport.fold([(sq, False)], sq.size)
    out = out_groups.reshape(moved.shape)
    return np.moveaxis(out, -1, axis), report

"""Group statistics and quantization-error analysis.

Per-group results are column arrays with one entry per group, in the
row-major order of the grouped view (quantizer.group_view), so a group's
index is its position. Kurtosis here is the plain fourth standardized
moment E[(v-u)^4]/sigma^4 with population variance and no excess
correction, so any distribution is bounded below by 1 and a Gaussian sits
at 3; it is NaN for a constant group, whose variance is zero. Quantization
error decomposes exhaustively into a clamping part (elements whose scaled
magnitude exceeds the format's max normal, or whose zero-point code
saturates, as quantizer.quantize_with_clamps reports them) and a rounding
part; the report's mse is defined as (clamp + round) / count so the
decomposition identity is exact in float64.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError
from .quantizer import QuantConfig, dequantize, group_view, quantize_with_clamps, validate_input

__all__ = [
    "GroupStats",
    "FiveNumber",
    "StatsSummary",
    "ErrorReport",
    "group_stats",
    "stats_summary",
    "mse",
    "error_decomposition",
]


@dataclass(frozen=True)
class GroupStats:
    """Per-group mean and kurtosis; kurtosis is NaN where a group is constant."""

    mean: np.ndarray
    kurtosis: np.ndarray


def group_stats(x, group_size=None, axis=-1) -> GroupStats:
    """Per-group mean and kurtosis along the grouping axis of a nonempty, finite x."""
    _, xg, gs = group_view(validate_input(x), group_size, axis)
    flat = xg.reshape(-1, gs)
    mean = flat.mean(axis=1)
    z = flat - mean[:, None]
    sigma = np.sqrt((z**2).mean(axis=1))
    # normalize first (scale-invariant), into C order so that each row sums
    # like a 1-D mean whatever the grouping axis
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.divide(z, sigma[:, None], order="C")
    return GroupStats(mean, np.where(sigma > 0, (z**4).mean(axis=1), np.nan))


@dataclass(frozen=True)
class FiveNumber:
    min: float
    q1: float
    median: float
    q3: float
    max: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


@dataclass(frozen=True)
class StatsSummary:
    mean: FiveNumber
    kurtosis: FiveNumber
    n_groups: int
    undefined_kurtosis: int

    def as_dict(self):
        return asdict(self)


def _five(values: np.ndarray) -> FiveNumber:
    q = np.percentile(values, [0, 25, 50, 75, 100], method="linear")
    return FiveNumber(*map(float, q))


def stats_summary(stats: GroupStats) -> StatsSummary:
    """Five-number summaries of group means and (defined) kurtoses."""
    n = stats.mean.size
    if n == 0:
        raise DataError("stats_summary: no groups")
    kurts = stats.kurtosis[~np.isnan(stats.kurtosis)]
    if kurts.size == 0:
        raise DataError("stats_summary: kurtosis undefined for every group")
    return StatsSummary(_five(stats.mean), _five(kurts), n, n - kurts.size)


def mse(x, y) -> float:
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.shape != b.shape:
        raise ConfigError(f"mse: shape mismatch {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


@dataclass
class ErrorReport:
    """Squared error split into clamp and round parts, in total and per group."""

    mse: float
    clamp_sq_error: float
    round_sq_error: float
    clamp_sq_per_group: np.ndarray
    round_sq_per_group: np.ndarray

    @classmethod
    def fold(cls, sq: np.ndarray, clamped: np.ndarray) -> ErrorReport:
        """Report of squared errors sq, grouped along the last axis, whose
        clamped elements count as clamp error and all others as round error.

        Per-group sums fold left-to-right over elements; group subtotals
        combine in ascending group order; mse is (clamp + round) / sq.size,
        making clamp_sq_error + round_sq_error == mse * count an identity.
        """
        clamp_g = _seq_sum(np.where(clamped, sq, 0.0)).ravel()
        round_g = _seq_sum(np.where(clamped, 0.0, sq)).ravel()
        clamp_total = float(_seq_sum(clamp_g))
        round_total = float(_seq_sum(round_g))
        total = clamp_total + round_total
        return cls(total / sq.size, clamp_total, round_total, clamp_g, round_g)

    def as_dict(self):
        return {
            "mse": self.mse,
            "clamp_sq_error": self.clamp_sq_error,
            "round_sq_error": self.round_sq_error,
        }


def _seq_sum(a: np.ndarray) -> np.ndarray:
    """Left-to-right fold along the last axis (running-sum semantics)."""
    return np.cumsum(a, axis=-1)[..., -1]


def error_decomposition(x, cfg: QuantConfig) -> ErrorReport:
    """Quantize x under cfg and split squared error into clamp/round parts
    (see ErrorReport.fold for the fold order)."""
    q, clamped = quantize_with_clamps(x, cfg)
    sq = (np.asarray(x, dtype=float) - dequantize(q)) ** 2
    return ErrorReport.fold(*(group_view(a, cfg.group_size, cfg.axis)[1] for a in (sq, clamped)))

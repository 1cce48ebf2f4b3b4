"""Group statistics and quantization-error analysis.

Per-group results are column arrays with one entry per group, in the
row-major order of the grouped view (quantizer.group_view), so a group's
index is its position. Kurtosis here is the plain fourth standardized
moment E[(v-u)^4]/sigma^4 with population variance and no excess
correction, so any distribution is bounded below by 1 and a Gaussian sits
at 3. It is defined for every finite non-constant group, however small or
large its values, and NaN for a constant group of any size, whose variance
is zero and whose mean is its value, even where numpy's mean of it rounds.
Quantization error decomposes exhaustively into a clamping part (elements
whose scaled magnitude exceeds the format's max normal, or whose zero-point
code saturates, as quantizer.quantize_blocks reports them) and a rounding part;
the report's mse is defined as (clamp + round) / count so the decomposition
identity is exact in float64. Both walk the grouped view in the blocks of
quantizer.row_blocks: error_decomposition takes them from quantize_blocks,
sums each group inside a block left to right, and folds all group
subtotals at the end. A block of many short groups sums its round part one
column at a time across its groups (scaling.fold_groups), with a running
sum's bits, and its clamped part with np.bincount over the clamped
elements alone, which adds them one at a time in order.

group_stats runs its blocks on up to N threads, N the CPUs the process may
run on, with at most N blocks in flight (working memory O(N x block)); a
lone block runs in the calling thread. One thread computes and writes each
block's groups, so the bits depend neither on N nor on scheduling. The other
walks stay serial: their blocks measured no faster on threads.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, DataError
from .quantizer import QuantConfig, group_view, quantize_blocks, row_blocks, validate_range
from .scaling import fold_groups

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
    """Per-group mean and kurtosis along the grouping axis of a nonempty, finite x.

    The blocks of quantizer.row_blocks run on up to N threads, N the CPUs
    this process may run on, with at most N blocks in flight: working
    memory is O(N x block). One thread computes and writes all groups of a
    block, so the bits do not depend on N. No floating-point error is
    raised, whatever the caller's np.errstate: a valid group whose squares
    underflow, such as one of values near 1e-300, gets its kurtosis. A
    constant group of any size gets its value as mean and NaN as kurtosis.
    """
    _, xg, gs = group_view(validate_range(x)[0], group_size, axis)
    mean, kurtosis = np.empty((2, xg.size // gs))

    def block_stats(groups, flat):
        # C-ordered blocks of groups: each group sums like a 1-D mean, whatever the axis
        with np.errstate(all="ignore"):
            m, sigma, kurt = _moments(flat)
            # a sigma outside [2**-511, 2**511] lost bits to z**2 or overflowed,
            # and one at most 2**-40 * |m| may be a constant group's rounded mean
            odd = np.flatnonzero(~((sigma >= 2.0**-511) & (sigma <= 2.0**511)
                                   & (sigma > 2.0**-40 * np.abs(m))))
            same = (flat[odd] == flat[odd, :1]).all(axis=1)
            const, redo = odd[same], odd[~same]
            # a constant group's mean is its value (m where equal keeps a zero's sign)
            m[const] = np.where(m[const] == flat[const, 0], m[const], flat[const, 0])
            kurt[const] = np.nan
            # the others rerun scaled by the power of two that puts amax in [0.5, 1)
            if redo.size:
                e = np.frexp(np.abs(flat[redo]).max(axis=1))[1]
                scaled, _, kurt[redo] = _moments(np.ldexp(flat[redo], -e[:, None]))
                m[redo] = np.ldexp(scaled, e)
        mean[groups], kurtosis[groups] = m, kurt

    _on_threads(block_stats, row_blocks(xg))
    return GroupStats(mean, kurtosis)


def _moments(flat):
    """Mean, sigma and kurtosis (NaN where sigma is 0) of each row of flat."""
    m = flat.mean(axis=1)
    z = flat - m[:, None]
    sigma = np.sqrt((z**2).mean(axis=1))
    z /= sigma[:, None]  # normalize first (scale-invariant)
    return m, sigma, np.where(sigma > 0, (z**4).mean(axis=1), np.nan)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_threads(body, blocks):
    """Call body(*block) for each block on up to _usable_cpus() threads, with
    at most that many blocks in flight. Results are read in block order, so
    the first error raised is that of the first block that fails. A lone
    block runs in the calling thread: starting a pool thread costs more
    than its work saves."""
    blocks = iter(blocks)
    first, second = next(blocks, None), next(blocks, None)
    if second is None:
        return body(*first)
    # imported here: concurrent.futures loads logging, 0.6 MB that only this walk needs
    from concurrent.futures import ThreadPoolExecutor

    workers = _usable_cpus()
    with ThreadPoolExecutor(workers) as pool:
        in_flight = deque()
        for block in chain((first, second), blocks):
            in_flight.append(pool.submit(body, *block))
            if len(in_flight) == workers:  # before the next block is made
                in_flight.popleft().result()
        for done in in_flight:
            done.result()


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
    if a.size == 0:
        raise DataError("mse: empty input")
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
    def fold(cls, blocks, count: int) -> ErrorReport:
        """Report of count squared errors, given as (sq, clamped) blocks of
        whole groups along the last axis in ascending group order; clamped
        elements count as clamp error and all others as round error. clamped
        is a mask of sq's shape, or a scalar that holds for every element.

        Per-group sums fold left-to-right over elements; group subtotals
        of all blocks then combine in one fold, in ascending group order;
        mse is (clamp + round) / count, making clamp_sq_error +
        round_sq_error == mse * count an identity.
        """
        sums = [(_clamp_sums(sq, clamped), fold_groups(np.add, np.where(clamped, 0.0, sq)).ravel())
                for sq, clamped in blocks]
        clamp_g, round_g = (np.concatenate(side) for side in zip(*sums))
        clamp_total = float(fold_groups(np.add, clamp_g))
        round_total = float(fold_groups(np.add, round_g))
        total = clamp_total + round_total
        return cls(total / count, clamp_total, round_total, clamp_g, round_g)

    def as_dict(self):
        return {
            "mse": self.mse,
            "clamp_sq_error": self.clamp_sq_error,
            "round_sq_error": self.round_sq_error,
        }


def _clamp_sums(sq, clamped):
    """Per-group sums of the clamped elements of sq, each left to right from
    +0.0: np.bincount adds its weights one at a time in index order, so each
    sum has the bits of a fold in which the other elements are 0.0."""
    n = sq.shape[-1]
    at = np.flatnonzero(np.broadcast_to(clamped, sq.shape))
    return np.bincount(at // n, sq.reshape(-1)[at], sq.size // n)


def error_decomposition(x, cfg: QuantConfig) -> ErrorReport:
    """Quantize x under cfg and split squared error into clamp/round parts,
    block by block (see ErrorReport.fold for the fold order)."""
    return ErrorReport.fold(((np.square(np.subtract(block, values, out=values), out=values),
                              clamped)
                             for block, values, clamped in quantize_blocks(x, cfg)), np.size(x))

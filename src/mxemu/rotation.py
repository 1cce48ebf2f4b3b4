"""Randomized Hadamard rotation with a portable seeded sign diagonal.

The rotation is R = H_d D / sqrt(d) with H_d the Sylvester-ordered Hadamard
matrix and D a +/-1 diagonal derived from a splitmix64 stream, so the same
(dim, seed) pair reproduces the same rotation on any platform. R is applied
through the fast Walsh-Hadamard butterfly, never as a dense matrix, along
the axis that quantizer.group_view moves last (or rejects as out of range).
rotate walks the moved rows in the blocks of quantizer.row_blocks, runs each
block's butterflies in place in its rows of an output with the axis last, so
its stages stay in cache, and returns that output's np.moveaxis view. The
butterfly runs its radix-2 stages two at a time, as radix-4 passes that make
the same additions and subtractions in the same order, so the bits are those
of the radix-2 stages one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .quantizer import group_view, row_blocks

__all__ = ["RotationSpec", "make_rotation", "rotate", "splitmix64"]


def splitmix64(seed: int, n: int) -> np.ndarray:
    """First n outputs of the splitmix64 stream for the given 64-bit seed."""
    mask = np.uint64(0xFFFFFFFFFFFFFFFF)
    gamma = np.uint64(0x9E3779B97F4A7C15)
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        z = base + np.arange(1, n + 1, dtype=np.uint64) * gamma
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z & mask


@dataclass(frozen=True)
class RotationSpec:
    dim: int
    seed: int
    signs: np.ndarray  # +/-1.0 float64 diagonal of length dim


def make_rotation(dim: int, seed: int) -> RotationSpec:
    """Seeded rotation spec; dim must be an integer power of two >= 1."""
    if (isinstance(dim, bool) or not isinstance(dim, (int, np.integer))
            or dim < 1 or dim & (dim - 1)):
        raise ConfigError(f"rotation dimension must be an integer power of two, got {dim!r}")
    bits = splitmix64(seed, dim) >> np.uint64(63)
    signs = 1.0 - 2.0 * bits.astype(np.float64)
    return RotationSpec(dim, seed, signs)


def _fwht(out: np.ndarray) -> None:
    """Unnormalized fast Walsh-Hadamard transform of each row of a C-ordered
    2-D array, in place.

    The radix-2 stages h = 1, 2, 4, ... (each pairs x[i] with x[i + h] into
    their sum and difference) run two at a time: stages h and 2h as one
    radix-4 pass over quarters x0..x3 of each 4h-long span. It computes
    x0 + x1, x0 - x1, x2 + x3 and x2 - x3, then their sums and differences
    across the pairs: the same additions and subtractions, in the same order,
    as the two radix-2 stages, so the same bits. When log2 of the row length
    is odd, a last radix-2 stage remains.
    """
    n = out.shape[-1]
    h = 1
    while 4 * h <= n:
        quads = out.reshape(-1, n // (4 * h), 4, h)
        # below h = 16 one offset in h at a time, so each operation runs
        # along one long strided line instead of many runs of h
        for c in range(h) if h < 16 else (slice(None),):
            x0, x1, x2, x3 = (quads[:, :, i, c] for i in range(4))
            s01, d01, s23 = x0 + x1, x0 - x1, x2 + x3
            np.subtract(x2, x3, out=x3)
            np.add(s01, s23, out=x0)
            np.subtract(s01, s23, out=x2)
            np.add(d01, x3, out=x1)
            np.subtract(d01, x3, out=x3)
        h *= 4
    if h < n:
        a, b = (out.reshape(-1, 2, h)[:, i, :] for i in range(2))
        s = a + b
        np.subtract(a, b, out=b)
        a[...] = s


def rotate(x, spec: RotationSpec, axis: int = -1, transpose: bool = False) -> np.ndarray:
    """Apply R (or its transpose/inverse) along the given axis.

    Forward: y = H (D x) / sqrt(d). Transpose: y = D (H x) / sqrt(d); since
    R is orthogonal the transpose inverts the forward rotation. The result
    is computed with the axis last and returned as its np.moveaxis view.
    """
    moved = group_view(np.asarray(x, dtype=float), None, axis)[0]
    if moved.shape[-1] != spec.dim:
        raise ConfigError(
            f"extent {moved.shape[-1]} along axis {axis} != rotation dim {spec.dim}"
        )
    norm = 1.0 / math.sqrt(spec.dim)
    out = np.empty(moved.shape)
    for rows, block in row_blocks(moved):
        y = out.reshape(-1, spec.dim)[rows]
        np.multiply(block, 1.0 if transpose else spec.signs, out=y)
        _fwht(y)
        y *= norm
        if transpose:
            y *= spec.signs
    return np.moveaxis(out, -1, axis)

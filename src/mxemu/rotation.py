"""Randomized Hadamard rotation with a portable seeded sign diagonal.

The rotation is R = H_d D / sqrt(d) with H_d the Sylvester-ordered Hadamard
matrix and D a +/-1 diagonal derived from a splitmix64 stream, so the same
(dim, seed) pair reproduces the same rotation on any platform. R is applied
through the fast Walsh-Hadamard butterfly, never as a dense matrix, along
the axis that quantizer.group_view moves last (or rejects as out of range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .quantizer import group_view

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
    signs: np.ndarray  # +/-1.0 diagonal of length dim

    def __post_init__(self):
        object.__setattr__(self, "signs", np.asarray(self.signs, dtype=float))


def make_rotation(dim: int, seed: int) -> RotationSpec:
    """Seeded rotation spec; dim must be a power of two >= 1."""
    if dim < 1 or (dim & (dim - 1)) != 0:
        raise ConfigError(f"rotation dimension must be a power of two, got {dim}")
    bits = splitmix64(seed, dim) >> np.uint64(63)
    signs = 1.0 - 2.0 * bits.astype(np.float64)
    return RotationSpec(dim, seed, signs)


def _fwht(x: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along the last axis.

    Works on one C-ordered copy of x; each butterfly stage writes in place.
    """
    n = x.shape[-1]
    out = np.array(x, order="C")
    h = 1
    while h < n:
        blocks = out.reshape(-1, n // (2 * h), 2, h)
        a = blocks[:, :, 0, :]
        b = blocks[:, :, 1, :]
        s = a + b
        np.subtract(a, b, out=b)
        a[...] = s
        h *= 2
    return out


def rotate(x, spec: RotationSpec, axis: int = -1, transpose: bool = False) -> np.ndarray:
    """Apply R (or its transpose/inverse) along the given axis.

    Forward: y = H (D x) / sqrt(d). Transpose: y = D (H x) / sqrt(d); since
    R is orthogonal the transpose inverts the forward rotation.
    """
    moved = group_view(np.asarray(x, dtype=float), None, axis)[0]
    if moved.shape[-1] != spec.dim:
        raise ConfigError(
            f"extent {moved.shape[-1]} along axis {axis} != rotation dim {spec.dim}"
        )
    norm = 1.0 / math.sqrt(spec.dim)
    if transpose:
        y = _fwht(moved) * norm * spec.signs
    else:
        y = _fwht(moved * spec.signs) * norm
    return np.ascontiguousarray(np.moveaxis(y, -1, axis))

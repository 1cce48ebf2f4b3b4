"""Per-group shared-scale computation for the whole scale-mode design space.

There is one scale path. group_scales takes each side's group amax, the
|x| maximum for a symmetric group and the positive and negative maxima for
an asymmetric one, and runs the mode's routine once per side; so symmetric,
asymmetric and two-level (nvfp4_double) scaling are the same computation
over one or two sides.

The per-mode routines accept either scalars or numpy arrays of group maxima
and are exact in float64: power-of-two scales are produced through
frexp/ldexp (never a rounded log2), float-encoded scales land exactly on
their encoding grid, fp32 scales are binary32 values, and a zero group
maximum yields a fixed degenerate scale so that all-zero groups and empty
sides round-trip without special cases downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formats
from .errors import ConfigError, DataError
from .formats import ElementFormat, get_format, max_normal, round_real_to_fp

__all__ = [
    "ScaleMode",
    "SCALE_MODES",
    "get_scale_mode",
    "degenerate_scale",
    "pot_floor_scale",
    "pot_round_scale",
    "fp_scale",
    "fp32_scale",
    "binary32_scale",
    "group_scales",
    "nvfp4_scales",
    "NVFP4_GROUP_SIZES",
]

NVFP4_GROUP_SIZES = (16, 32)


@dataclass(frozen=True)
class ScaleMode:
    """A shared-scale computation rule.

    kind: "pot_floor" | "pot_round" | "fp" | "fp32" | "double".
    scale_fmt is the encoding grid for "fp" modes and the inner (group-level)
    encoding for the "double" mode; the double mode's outer tensor-wise scale
    is kept exact in float64.
    """

    name: str
    kind: str
    scale_fmt: ElementFormat | None = None


SCALE_MODES: dict[str, ScaleMode] = {
    "pot_floor": ScaleMode("pot_floor", "pot_floor"),
    "pot_round": ScaleMode("pot_round", "pot_round"),
    "fp8e4m3": ScaleMode("fp8e4m3", "fp", get_format("fp8_e4m3")),
    "fp8e5m2": ScaleMode("fp8e5m2", "fp", get_format("fp8_e5m2")),
    "fp16": ScaleMode("fp16", "fp", get_format("fp16")),
    "fp32": ScaleMode("fp32", "fp32"),
    "nvfp4_double": ScaleMode("nvfp4_double", "double", get_format("fp8_e4m3")),
}


def get_scale_mode(name: str) -> ScaleMode:
    try:
        return SCALE_MODES[name]
    except KeyError:
        raise ConfigError(
            f"unknown scale mode {name!r}; valid modes: {', '.join(SCALE_MODES)}"
        ) from None


def degenerate_scale(mode: ScaleMode, fmt: ElementFormat) -> float:
    """Scale assigned to a group whose relevant amax is zero.

    All codes on that side are zero, so the value is observationally inert;
    it only has to be positive, tiny, and representable. PoT and fp32 modes
    use a fixed small power of two; float-encoded modes use the smallest
    positive value of their encoding grid.
    """
    if mode.kind in ("fp", "double"):
        return formats.min_positive(mode.scale_fmt)
    return 2.0 ** (-formats.emax_elem(fmt) - 126)


def _pot_exponents(amax: np.ndarray):
    # frexp: amax = m * 2**e with m in [0.5, 1); exact, unlike log2
    m, e = np.frexp(amax)
    return m, e - 1


def pot_floor_scale(amax, fmt: ElementFormat):
    """2**(floor(log2(amax)) - emax_elem); degenerate scale for amax == 0."""
    return _pot_scale(amax, fmt, SCALE_MODES["pot_floor"])


def pot_round_scale(amax, fmt: ElementFormat):
    """Power-of-two scale from the exponent of the *nearest* power of two.

    The exponent bumps up by one when the mantissa exceeds 1.5, i.e. when
    2**(e+1) is closer to amax than 2**e in value; a mantissa of exactly 1.5
    keeps the lower exponent. This value-nearest rule keeps requantization
    of already-quantized data scale-stable, which plain log2 rounding does
    not.
    """
    return _pot_scale(amax, fmt, SCALE_MODES["pot_round"])


def _pot_scale(amax, fmt, mode):
    arr = np.asarray(amax, dtype=float)
    _check_amax(arr)
    e = formats.emax_elem(fmt)
    m, e_floor = _pot_exponents(np.where(arr > 0, arr, 1.0))
    exp = e_floor - e
    if mode.kind == "pot_round":
        exp = exp + (m > 0.75)  # frexp mantissa 0.75 == value mantissa 1.5
    exp = np.maximum(exp, -1074)  # stay representable
    out = np.where(arr > 0, np.ldexp(1.0, exp.astype(np.int64)), degenerate_scale(mode, fmt))
    return float(out) if np.isscalar(amax) or arr.ndim == 0 else out


def _check_amax(arr):
    if np.isnan(arr).any() or np.isinf(arr).any():
        raise DataError("group amax must be finite")
    if (arr < 0).any():
        raise DataError("group amax must be >= 0")


def fp_scale(amax, fmt: ElementFormat, scale_fmt: ElementFormat):
    """Ideal max-to-max scale amax/max_normal(fmt), encoded on scale_fmt's grid."""
    arr = np.asarray(amax, dtype=float)
    _check_amax(arr)
    ideal = np.where(arr > 0, arr, 1.0) / max_normal(fmt)
    enc = round_real_to_fp(ideal, scale_fmt)
    out = np.where(arr > 0, enc, formats.min_positive(scale_fmt))
    return float(out) if np.isscalar(amax) or arr.ndim == 0 else out


def fp32_scale(amax, fmt: ElementFormat):
    """Max-to-max scale amax/max_normal(fmt) rounded to the nearest binary32.

    A scale that underflows binary32 flushes to its least subnormal, 2**-149,
    and one that overflows it raises DataError.
    """
    arr = np.asarray(amax, dtype=float)
    _check_amax(arr)
    ideal = np.where(arr > 0, arr / max_normal(fmt), degenerate_scale(SCALE_MODES["fp32"], fmt))
    out = binary32_scale(ideal, "fp32 scale")
    return float(out) if np.isscalar(amax) or arr.ndim == 0 else out


def binary32_scale(ideal, what: str) -> np.ndarray:
    """Scales rounded to the nearest binary32, as float64.

    An underflow flushes to the least binary32 subnormal, 2**-149, and an
    overflow (or an infinite ideal scale) raises DataError naming what.
    """
    with np.errstate(over="ignore"):  # an overflow raises below
        out = np.asarray(ideal, dtype=float).astype(np.float32).astype(np.float64)
    if np.isinf(out).any():
        raise DataError(f"{what} overflows binary32")
    return np.maximum(out, 2.0**-149, out=out)


def group_scales(xg, mode: ScaleMode, fmt: ElementFormat, asymmetric: bool = False):
    """Positive and negative shared scales of the groups along xg's last axis.

    Each side's group amax goes through the mode's routine once: |x| max
    when symmetric (both scales are then the same array), max(x, 0) and
    max(-x, 0) when asymmetric; a side with no mass gets the degenerate
    scale. Returns (pos_scale, neg_scale, tensor_scale); tensor_scale is the
    exact tensor-wise scale of the nvfp4_double mode, whose tensor amax is
    the largest side amax, and None for every other mode.
    """
    if asymmetric:
        amaxes = (np.maximum(xg.max(-1), 0.0), np.maximum(-xg.min(-1), 0.0))
    else:
        amaxes = (np.abs(xg).max(-1),)
    if mode.kind == "double":
        tensor_amax = max(float(a.max()) for a in amaxes)
        pairs = [nvfp4_scales(tensor_amax, a, fmt) for a in amaxes]
        return pairs[0][1], pairs[-1][1], pairs[0][0]
    routine = {
        "pot_floor": pot_floor_scale,
        "pot_round": pot_round_scale,
        "fp": lambda a, f: fp_scale(a, f, mode.scale_fmt),
        "fp32": fp32_scale,
    }.get(mode.kind)
    if routine is None:
        raise ConfigError(f"scale mode {mode.name} has no scale routine")
    scales = [routine(a, fmt) for a in amaxes]
    return scales[0], scales[-1], None


def nvfp4_scales(tensor_amax: float, group_amaxes, fmt: ElementFormat | None = None):
    """Two-level scales: exact tensor-wise scale plus encoded group scales.

    tensor_scale = tensor_amax / (448 * max_normal(fmt)); each group scale
    encodes group_amax / (max_normal(fmt) * tensor_scale) on the FP8 E4M3
    grid. The effective scale of a group is its group scale * tensor_scale.
    """
    fmt = fmt or get_format("fp4_e2m1")
    inner = get_format("fp8_e4m3")
    ga = np.asarray(group_amaxes, dtype=float)
    _check_amax(ga)
    if not np.isfinite(tensor_amax) or tensor_amax < 0:
        raise DataError("tensor amax must be finite and >= 0")
    if ga.size and tensor_amax < ga.max():
        raise DataError("tensor amax must dominate every group amax")
    mn = max_normal(fmt)
    if tensor_amax == 0:
        # the exact tensor-wise scale takes the fp32 mode's degenerate value
        tensor_scale = degenerate_scale(SCALE_MODES["fp32"], fmt)
        return tensor_scale, np.full(ga.shape, formats.min_positive(inner))
    tensor_scale = tensor_amax / (448.0 * mn)
    ideal = np.where(ga > 0, ga, 1.0) / (mn * tensor_scale)
    enc = round_real_to_fp(ideal, inner)
    gscales = np.where(ga > 0, enc, formats.min_positive(inner))
    return tensor_scale, gscales

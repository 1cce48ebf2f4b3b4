"""Per-group shared-scale computation for the whole scale-mode design space.

There is one scale path. group_scales takes each side's group amax, the
|x| maximum for a symmetric group and the positive and negative maxima for
an asymmetric one, and runs one rule body on each side; so symmetric,
asymmetric and two-level (nvfp4_double) scaling are the same computation
over one or two sides, and every public scale routine is a call into it.

The rule validates amax (finite, >= 0), applies the mode's encoding and
assigns the degenerate scale where amax == 0, in float64 for scalars or
arrays. The encodings: a power of two from frexp (never a rounded log2),
2**(e - emax_elem) with pot_round bumping e when the frexp mantissa
exceeds 0.75 and a floor of 2**-1074; amax/max_normal rounded to binary32
for fp32; and for float-encoded modes the nearest value of the scale grid
to amax/unit, with unit = max_normal(fmt), or max_normal * tensor_scale at
nvfp4_double's group level. An ideal scale that underflows to zero flushes
to the grid's least positive value (binary32's is 2**-149).

scale_words gives the 32-bit word that stores each scale, and rejects a
scale that is off its mode's grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import formats
from .errors import ConfigError, DataError
from .formats import ElementFormat, get_format, max_normal

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
    "scale_words",
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
    it only has to be positive, tiny, and representable. PoT modes use the
    power of two 2**(-emax_elem - 126), floored at 2**-1074 so that it never
    underflows to zero, fp32 that value rounded to binary32, and
    float-encoded modes the smallest positive value of their grid.
    """
    if mode.kind in ("fp", "double"):
        return formats.min_positive(mode.scale_fmt)
    tiny = math.ldexp(1.0, max(-formats.emax_elem(fmt) - 126, -1074))
    return float(binary32_scale(tiny, "fp32 scale")) if mode.kind == "fp32" else tiny


def _scale_rule(amax, mode: ScaleMode, fmt: ElementFormat, unit=None):
    """Side scales of group maxima amax under mode; see the module docstring.

    unit divides amax into the ideal scale of the non-PoT modes and defaults
    to max_normal(fmt).
    """
    arr = np.asarray(amax, dtype=float)
    if not np.isfinite(arr).all():
        raise DataError("group amax must be finite")
    if (arr < 0).any():
        raise DataError("group amax must be >= 0")
    if mode.kind in ("pot_floor", "pot_round"):
        m, e = np.frexp(arr)  # amax = m * 2**e with m in [0.5, 1); exact, unlike log2
        if mode.kind == "pot_round":
            e = e + (m > 0.75)  # frexp mantissa 0.75 == value mantissa 1.5
        enc = np.ldexp(1.0, np.maximum(e - 1 - formats.emax_elem(fmt), -1074))
    else:
        ideal = arr / (max_normal(fmt) if unit is None else unit)
        if mode.kind == "fp32":
            enc = binary32_scale(ideal, "fp32 scale")
        elif mode.kind in ("fp", "double"):
            # an underflowed ideal scale flushes to the grid's least value
            floor = formats.min_positive(mode.scale_fmt)
            enc = formats.round_to_grid(np.fmax(ideal, floor), mode.scale_fmt)
        else:
            raise ConfigError(f"scale mode {mode.name} has no scale rule")
    out = np.where(arr > 0, enc, degenerate_scale(mode, fmt))
    return float(out) if arr.ndim == 0 else out


def pot_floor_scale(amax, fmt: ElementFormat):
    """2**(floor(log2(amax)) - emax_elem); degenerate scale for amax == 0."""
    return _scale_rule(amax, SCALE_MODES["pot_floor"], fmt)


def pot_round_scale(amax, fmt: ElementFormat):
    """Power-of-two scale from the exponent of the *nearest* power of two.

    The exponent bumps up by one when the mantissa exceeds 1.5, i.e. when
    2**(e+1) is closer to amax than 2**e in value; a mantissa of exactly 1.5
    keeps the lower exponent. This value-nearest rule keeps requantization
    of already-quantized data scale-stable, which plain log2 rounding does
    not.
    """
    return _scale_rule(amax, SCALE_MODES["pot_round"], fmt)


def fp_scale(amax, fmt: ElementFormat, scale_fmt: ElementFormat):
    """Ideal max-to-max scale amax/max_normal(fmt), encoded on scale_fmt's grid."""
    return _scale_rule(amax, ScaleMode(scale_fmt.name, "fp", scale_fmt), fmt)


def fp32_scale(amax, fmt: ElementFormat):
    """Max-to-max scale amax/max_normal(fmt) rounded to the nearest binary32.

    A scale that underflows binary32 flushes to its least subnormal, 2**-149,
    and one that overflows it raises DataError.
    """
    return _scale_rule(amax, SCALE_MODES["fp32"], fmt)


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

    Each side's group amax goes through the rule body once: |x| max
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
    scales = [_scale_rule(a, mode, fmt) for a in amaxes]
    return scales[0], scales[-1], None


def nvfp4_scales(tensor_amax: float, group_amaxes, fmt: ElementFormat | None = None):
    """Two-level scales: exact tensor-wise scale plus encoded group scales.

    tensor_scale = tensor_amax / (448 * max_normal(fmt)), flushed to 2**-1074
    if it underflows; each group scale encodes group_amax / (max_normal(fmt) *
    tensor_scale) on the FP8 E4M3 grid. The effective scale of a group is its
    group scale * tensor_scale.
    """
    fmt = fmt or get_format("fp4_e2m1")
    ga = np.asarray(group_amaxes, dtype=float)
    if not np.isfinite(tensor_amax) or tensor_amax < 0:
        raise DataError("tensor amax must be finite and >= 0")
    if ga.size and tensor_amax < ga.max():
        raise DataError("tensor amax must dominate every group amax")
    mn = max_normal(fmt)
    # a zero tensor's exact tensor-wise scale is the PoT degenerate scale
    tensor_scale = (max(tensor_amax / (448.0 * mn), 2.0**-1074) if tensor_amax > 0
                    else degenerate_scale(SCALE_MODES["pot_floor"], fmt))
    return tensor_scale, _scale_rule(ga, SCALE_MODES["nvfp4_double"], fmt, mn * tensor_scale)


def scale_words(scales, mode: ScaleMode) -> np.ndarray:
    """The 32-bit word that stores each scale under mode, as uint32.

    A PoT scale 2**e's word is its biased exponent clip(e + 127, 0, 255), a
    float-encoded scale's its code on the scale grid and an fp32 scale's its
    binary32 bit pattern. Raises DataError unless every scale is finite,
    positive and on its mode's grid: a power of two, a value of the scale
    grid, or a binary32 value.
    """
    arr = np.asarray(scales, dtype=float)
    if not (np.isfinite(arr) & (arr > 0)).all():
        raise DataError("scales must be finite and positive")
    if mode.kind in ("pot_floor", "pot_round"):
        m, e = np.frexp(arr)
        if not (m == 0.5).all():
            raise DataError(f"a {mode.name} scale is not a power of two")
        return np.clip(e + 126, 0, 255).astype(np.uint32)
    if mode.kind == "fp32":
        with np.errstate(over="ignore"):  # past binary32 fails the round trip
            words = arr.astype(np.float32)
        if not np.array_equal(words, arr):
            raise DataError("an fp32 scale is not a binary32 value")
        return words.view(np.uint32)
    return formats.encode(arr, mode.scale_fmt).astype(np.uint32)

"""Group-wise tensor quantization and deterministic dequantization.

A QuantConfig combines an element format, a group size (or whole-row
grouping), a shared-scale mode, and a symmetric/asymmetric flag. Groups run
along a configurable axis (last by default). Asymmetric float formats carry
separate positive/negative shared scales per group; asymmetric integer
formats use zero-point quantization instead, with the zero point stored in
the negative-scale slot of the per-group scale pair. The nvfp4_double scale
mode adds an exact tensor-wise scale under FP8-encoded group scales.

This module alone decides which scale each element uses: an asymmetric
element's side is whether its value is negative, x < 0 when quantizing and
the decoded grid value < 0 when dequantizing (every scale is positive, so a
-0.0 code gives -0.0 on either side). One flat gather over the (..., G, 2)
scale pairs picks the negative scale for side 1 and the positive one for
side 0; symmetric groups broadcast their one scale. Where a group scale
times the nvfp4_double tensor scale underflows to 0.0, quantize divides by
the tensor scale and then by the group scale. quantize_with_clamps also
reports which elements clamp, from the values quantize has already divided:
|x/s| > max_normal for float formats, and a zero-point code outside
[0, 2**bits - 1] before the clip.

Zero-point configs ignore the scale mode. Their scale is (max - min) /
(2**bits - 1) rounded to binary32, which makes every (code - zp) * scale
product exact in float64 and so requantization bit-stable. A scale that
underflows binary32 flushes to its least subnormal, 2**-149, and one that
overflows it raises DataError.

All arithmetic is float64 and deterministic: quantizing the same tensor
with the same config always yields bitwise-identical codes, scales, and
dequantized values, regardless of group count or processing order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formats, scaling
from .errors import ConfigError, DataError
from .formats import ElementFormat
from .scaling import ScaleMode, get_scale_mode

__all__ = [
    "QuantConfig",
    "QuantizedTensor",
    "config",
    "parse_group_size",
    "group_view",
    "validate_input",
    "quantize",
    "quantize_with_clamps",
    "dequantize",
    "quantize_dequantize",
]


@dataclass(frozen=True)
class QuantConfig:
    fmt: ElementFormat
    group_size: int | None = None  # None means the whole row along axis
    scale_mode: ScaleMode = scaling.SCALE_MODES["pot_floor"]
    asymmetric: bool = False
    axis: int = -1

    @property
    def uses_zero_point(self) -> bool:
        return self.asymmetric and self.fmt.kind == "int"

    def label(self) -> str:
        gs = "row" if self.group_size is None else str(self.group_size)
        suffix = "_asym" if self.asymmetric else ""
        return f"{self.fmt.name}{suffix}/{self.scale_mode.name}/gs={gs}"


def config(format_name, scale="pot_floor", group_size=None, axis=-1) -> QuantConfig:
    """Build a QuantConfig from interface names.

    format_name accepts the '_asym' suffix; group_size accepts an int, the
    string "row", or None.
    """
    if isinstance(format_name, ElementFormat):
        fmt, asym = format_name, False
    else:
        fmt, asym = formats.parse_format(format_name)
    mode = scale if isinstance(scale, ScaleMode) else get_scale_mode(scale)
    return QuantConfig(fmt, parse_group_size(group_size), mode, asym, axis)


def parse_group_size(group_size) -> int | None:
    """An int group size, or None for the whole row, from an int, None, the
    string "row" or a decimal string."""
    if not isinstance(group_size, str):
        return group_size
    if group_size.lower() == "row":
        return None
    try:
        return int(group_size)
    except ValueError:
        raise ConfigError(f"bad group size {group_size!r}") from None


@dataclass
class QuantizedTensor:
    """Element codes plus per-group scale pairs; dequantizes deterministically.

    codes and scales are stored with the quantization axis moved to the
    last position; shape/axis in config recover the original layout.
    scales[..., 0] is the positive scale and scales[..., 1] the negative
    scale (or the zero point for zero-point integer quantization).
    """

    shape: tuple
    config: QuantConfig
    codes: np.ndarray   # uint8/uint16, grouped layout (..., n)
    scales: np.ndarray  # float64, (..., n_groups, 2)
    tensor_scale: float | None = None

    @property
    def n_groups(self) -> int:
        return int(np.prod(self.scales.shape[:-1], dtype=np.int64))


def validate_input(x) -> np.ndarray:
    """x as a float64 array; DataError if it is empty or holds a non-finite value."""
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise DataError("empty input tensor")
    bad = ~np.isfinite(arr)
    if bad.any():
        idx = int(np.flatnonzero(bad.ravel())[0])
        raise DataError(f"non-finite input value at flat index {idx}")
    return arr


def group_view(arr: np.ndarray, group_size: int | None, axis: int = -1):
    """View arr with axis moved last and split into groups.

    Returns (moved, xg, gs): moved has axis last, xg is moved viewed as
    (..., n_groups, gs), and gs is the group size, the whole row when
    group_size is None.
    """
    try:
        moved = np.moveaxis(arr, axis, -1)
    except np.exceptions.AxisError:
        raise ConfigError(f"axis {axis} out of range for shape {arr.shape}") from None
    n = moved.shape[-1]
    gs = n if group_size is None else group_size
    if gs <= 0:
        raise ConfigError(f"group size must be positive, got {gs}")
    if n % gs != 0:
        raise ConfigError(
            f"group size {gs} does not divide extent {n} along axis {axis}"
        )
    return moved, moved.reshape(*moved.shape[:-1], n // gs, gs), gs


def quantize(x, cfg: QuantConfig) -> QuantizedTensor:
    """Quantize a real tensor group-wise under cfg."""
    return _quantize(x, cfg)[0]


def quantize_with_clamps(x, cfg: QuantConfig):
    """quantize(x, cfg) and a boolean mask, in x's layout, of the elements
    that clamp: their scaled magnitude exceeds the format's max normal, or
    their zero-point code falls outside [0, 2**bits - 1] before the clip."""
    q, pre = _quantize(x, cfg)
    if cfg.uses_zero_point:
        clamped = (pre < 0) | (pre > 2**cfg.fmt.total_bits - 1)
    else:
        clamped = np.abs(pre, out=pre) > formats.max_normal(cfg.fmt)
    return q, np.moveaxis(clamped.reshape(q.codes.shape), -1, cfg.axis)


def _quantize(x, cfg: QuantConfig):
    """The QuantizedTensor and the grouped values before rounding: x / scale,
    or the zero-point code before its clip."""
    arr = validate_input(x)
    mode = cfg.scale_mode
    if mode.kind == "double" and cfg.group_size not in scaling.NVFP4_GROUP_SIZES:
        raise ConfigError(
            f"scale mode {mode.name} requires group size in {scaling.NVFP4_GROUP_SIZES}"
        )
    moved, xg, _ = group_view(arr, cfg.group_size, cfg.axis)

    if cfg.uses_zero_point:
        codes, scales, pre = _quantize_zero_point(xg, cfg)
        return QuantizedTensor(arr.shape, cfg, codes.reshape(moved.shape), scales), pre

    pos_s, neg_s, tensor_scale = scaling.group_scales(xg, mode, cfg.fmt, cfg.asymmetric)
    scales = np.stack([pos_s, neg_s], axis=-1)
    applied = scales if tensor_scale is None else scales * tensor_scale
    sel = _side_scales(applied, xg < 0) if cfg.asymmetric else applied[..., :1]
    if applied.all():
        pre = xg / sel
    else:  # an applied scale underflowed to 0.0: divide by its two factors in turn
        pre = xg / np.where(sel > 0, sel, 1.0)
        group = _side_scales(scales, xg < 0) if cfg.asymmetric else scales[..., :1]
        np.divide(xg / tensor_scale, group, out=pre, where=sel == 0)
    codes = formats.round_to_codes(pre, cfg.fmt).reshape(moved.shape)
    return QuantizedTensor(arr.shape, cfg, codes, scales, tensor_scale), pre


def _side_scales(scales: np.ndarray, side: np.ndarray) -> np.ndarray:
    """Each element's scale from the (..., G, 2) pairs, by a flat gather:
    side 0 takes the group's positive scale and side 1 its negative one."""
    first = np.arange(0, scales.size, 2).reshape(*scales.shape[:-1], 1)
    return scales.reshape(-1)[first + side]


def _quantize_zero_point(xg: np.ndarray, cfg: QuantConfig):
    """Codes, (scale, zero point) pairs and the codes before their clip, for
    an asymmetric integer format; zero_point = round(-min / scale)."""
    q_max = 2**cfg.fmt.total_bits - 1
    lo = xg.min(-1)
    hi = xg.max(-1)
    with np.errstate(over="ignore"):  # a span past float64 fails as a binary32 overflow
        span = hi - lo
    # constant groups quantize against their own magnitude (zero span)
    ref = np.where(span > 0, span, np.maximum(np.abs(hi), 1.0))
    scale = scaling.binary32_scale(ref / q_max, "zero-point scale")
    anchor = np.where(span > 0, lo, np.minimum(hi, 0.0))
    zp = np.round(-anchor / scale)
    pre = xg / scale[..., None]
    np.round(pre, out=pre)
    pre += zp[..., None]
    codes = np.clip(pre, 0, q_max, out=np.empty(pre.shape, np.uint8), casting="unsafe")
    zp[(span == 0) & (hi == 0)] = 0.0  # all-zero groups store +0.0, not -0.0
    return codes, np.stack([scale, zp], axis=-1), pre


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Reconstruct the real tensor: (-1)^s * |grid value| * scale(side)."""
    cfg = q.config
    _, cg, _ = group_view(q.codes, cfg.group_size)

    if cfg.uses_zero_point:
        vals = (cg - q.scales[..., 1:]) * q.scales[..., :1]
    else:
        vals = formats.decode(cg, cfg.fmt)
        vals *= _side_scales(q.scales, vals < 0) if cfg.asymmetric else q.scales[..., :1]
        if q.tensor_scale is not None:
            vals *= q.tensor_scale

    out = vals.reshape(q.codes.shape)
    return np.ascontiguousarray(np.moveaxis(out, -1, cfg.axis))


def quantize_dequantize(x, cfg: QuantConfig) -> np.ndarray:
    """Fused quantize(x) followed by dequantize."""
    return dequantize(quantize(x, cfg))

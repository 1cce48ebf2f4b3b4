"""Group-wise tensor quantization and deterministic dequantization.

A QuantConfig combines an element format, a group size (or whole-row
grouping), a shared-scale mode, and a symmetric/asymmetric flag. Groups run
along a configurable axis (last by default). Asymmetric float formats carry
separate positive/negative shared scales per group; asymmetric integer
formats use zero-point quantization instead, with the zero point stored in
the negative-scale slot of the per-group scale pair. The nvfp4_double scale
mode adds an exact tensor-wise scale under FP8-encoded group scales.

This module alone decides which scale each element uses: an asymmetric
element's side is whether its value is negative, x < 0 when quantizing,
and its code's sign bit when dequantizing (the two differ only on the
-0.0 code, and every scale is positive, so that code gives -0.0 on either
side). One flat gather over a block's (G, 2) scale pairs, np.take with
int32 indices, picks the negative scale for side 1 and the positive one
for side 0, and quantize divides x into the gathered buffer; symmetric
groups broadcast their one scale. Where a
group scale times the nvfp4_double tensor scale underflows to 0.0,
quantize divides by the tensor scale and then by the group scale.
quantize_blocks also reports which elements clamp, from the values quantize
has already divided: |x/s| > max_normal for float formats, and a zero-point
code outside [0, 2**bits - 1] before the clip.

Zero-point configs ignore the scale mode. Their scale is (max - min) /
(2**bits - 1) rounded to binary32, which makes every (code - zp) * scale
product exact in float64 and so requantization bit-stable. A scale that
underflows binary32 flushes to its least subnormal, 2**-149, and one that
overflows it raises DataError.

All arithmetic is float64 and deterministic: quantizing the same tensor
with the same config always yields bitwise-identical codes, scales, and
dequantized values, regardless of group count or processing order.

Groups are independent, so quantize, dequantize and quantize_blocks walk
them in blocks of at most BLOCK_ELEMS elements (row_blocks over the grouped
view), through one block step each. quantize and dequantize write a block
into its rows of an output in the grouped layout, so no temporary is the
size of the tensor, and return a result of x's shape as the output's
np.moveaxis view. The one coupling across blocks, the nvfp4_double tensor
amax, comes from the min and max that validate_range reads over the whole
tensor. BLOCK_ELEMS is a constant: no size changes a bit.
"""

from __future__ import annotations

import math
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
    "row_blocks",
    "validate_range",
    "quantize",
    "quantize_blocks",
    "dequantize",
    "quantize_dequantize",
]


_ELEMENT_FORMATS = frozenset(map(formats.get_format, formats.ELEMENT_FORMAT_NAMES))


@dataclass(frozen=True)
class QuantConfig:
    fmt: ElementFormat
    group_size: int | None = None  # None means the whole row along axis
    scale_mode: ScaleMode = scaling.SCALE_MODES["pot_floor"]
    asymmetric: bool = False
    axis: int = -1

    def __post_init__(self):
        if self.fmt not in _ELEMENT_FORMATS:  # so every element code fits a uint8
            raise ConfigError(f"{self.fmt.name} is not an element format; element formats: "
                              f"{', '.join(formats.ELEMENT_FORMAT_NAMES)}")
        if self.group_size is not None:
            _check_group_size(self.group_size)
        sizes = scaling.NVFP4_GROUP_SIZES
        if self.scale_mode.kind == "double" and self.group_size not in sizes:
            raise ConfigError(f"scale mode {self.scale_mode.name} requires group size in {sizes}")

    @property
    def uses_zero_point(self) -> bool:
        return self.asymmetric and self.fmt.kind == "int"

    def label(self) -> str:
        gs = "row" if self.group_size is None else str(self.group_size)
        suffix = "_asym" if self.asymmetric else ""
        return f"{self.fmt.name}{suffix}/{self.scale_mode.name}/gs={gs}"


def config(format_name, scale="pot_floor", group_size=None, axis=-1) -> QuantConfig:
    """Build a QuantConfig from names only: a format name, with the '_asym'
    suffix for asymmetric quantization, and a scale-mode name. group_size
    accepts an int, the string "row", or None."""
    fmt, asym = formats.parse_format(format_name)
    return QuantConfig(fmt, parse_group_size(group_size), get_scale_mode(scale), asym, axis)


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
    codes: np.ndarray   # uint8, grouped layout (..., n)
    scales: np.ndarray  # float64, (..., n_groups, 2)
    tensor_scale: float | None = None

    @property
    def n_groups(self) -> int:
        return int(np.prod(self.scales.shape[:-1], dtype=np.int64))


def validate_range(x):
    """x as a float64 array, with its least and greatest value as numpy floats:
    (array, min, max). DataError if x is empty or holds a non-finite value."""
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise DataError("empty input tensor")
    lo, hi = arr.min(), arr.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):  # both propagate NaN
        raise DataError(f"non-finite input value at flat index {np.argmin(np.isfinite(arr))}")
    return arr, lo, hi


def _check_group_size(gs):
    """gs, or ConfigError unless it is a positive integer (a numpy one too, not a bool)."""
    if isinstance(gs, bool) or not isinstance(gs, (int, np.integer)) or gs <= 0:
        raise ConfigError(f"group size must be a positive integer, got {gs!r}")
    return gs


def group_view(arr: np.ndarray, group_size: int | None, axis: int = -1):
    """View arr with axis moved last and split into groups.

    Returns (moved, xg, gs): moved has axis last, xg is moved viewed as
    (..., n_groups, gs), and gs is the group size, the whole row when
    group_size is None.
    """
    try:
        moved = np.moveaxis(arr, axis, -1)
    except (np.exceptions.AxisError, OverflowError):  # OverflowError: past a C int
        raise ConfigError(f"axis {axis} out of range for shape {arr.shape}") from None
    n = moved.shape[-1]
    gs = _check_group_size(n if group_size is None else group_size)
    if n % gs != 0:
        raise ConfigError(
            f"group size {gs} does not divide extent {n} along axis {axis}"
        )
    return moved, moved.reshape(*moved.shape[:-1], n // gs, gs), gs


BLOCK_ELEMS = 1 << 16  # elements in one block of row_blocks: 512 KB of float64


def row_blocks(a: np.ndarray):
    """Yield (rows, block) over a viewed as (R, n) rows, such as the groups of
    a grouped view: rows slices the row indices in row-major order, and block
    holds those rows as a C-ordered (rows, n) array, a view where they are one
    already. A block holds at most BLOCK_ELEMS elements, or else one row; its
    result goes into out.reshape(-1, n)[rows] of a C-ordered output."""
    n, lead = a.shape[-1], a.shape[:-1]
    count, step = math.prod(lead), max(1, BLOCK_ELEMS // n)
    flat = a.reshape(-1, n) if a.ndim <= 2 or a.flags.c_contiguous else None
    for start in range(0, count, step):
        rows = slice(start, min(start + step, count))
        block = a[np.unravel_index(np.r_[rows], lead)] if flat is None else flat[rows]
        yield rows, np.ascontiguousarray(block)


def quantize(x, cfg: QuantConfig) -> QuantizedTensor:
    """Quantize a real tensor group-wise under cfg."""
    arr, lo, hi = validate_range(x)
    moved, xg, gs = group_view(arr, cfg.group_size, cfg.axis)
    codes, scales = np.empty(moved.shape, np.uint8), np.empty((*xg.shape[:-1], 2))
    code_groups, scale_pairs, tensor_scale = codes.reshape(-1, gs), scales.reshape(-1, 2), None
    for groups, block in row_blocks(xg):
        tensor_scale = _quantize_block(block, cfg, float(max(hi, -lo)), code_groups[groups],
                                       scale_pairs[groups])[0]
    return QuantizedTensor(arr.shape, cfg, codes, scales, tensor_scale)


def quantize_blocks(x, cfg: QuantConfig):
    """Yield (block, values, clamped) for each block of row_blocks over x's
    grouped view under cfg: block is row_blocks' (G, gs) block of x's groups,
    values, a fresh array the caller may overwrite, are those rows of
    dequantize(quantize(x, cfg)), bit for bit, and
    clamped marks the elements that clamp (see the module docstring). x is
    validated once, as the first block is asked for."""
    arr, lo, hi = validate_range(x)
    for _, block in row_blocks(group_view(arr, cfg.group_size, cfg.axis)[1]):
        codes, scales = np.empty(block.shape, np.uint8), np.empty((len(block), 2))
        tensor_scale, pre = _quantize_block(block, cfg, float(max(hi, -lo)), codes, scales)
        values = _dequantize_block(codes, scales, cfg, tensor_scale, np.empty(block.shape))
        if cfg.uses_zero_point:
            yield block, values, (pre < 0) | (pre > 2**cfg.fmt.total_bits - 1)
        else:
            yield block, values, np.abs(pre, out=pre) > formats.max_normal(cfg.fmt)


def _quantize_block(xg: np.ndarray, cfg: QuantConfig, tensor_amax: float, codes: np.ndarray,
                    scales: np.ndarray):
    """Write the codes and (G, 2) scale pairs of the (G, gs) groups xg into
    codes and scales; return the tensor scale (None unless nvfp4_double, whose
    tensor amax is tensor_amax) and the values before rounding: x / scale, or
    the zero-point codes before their clip."""
    if cfg.uses_zero_point:
        return None, _quantize_zero_point(xg, cfg, codes, scales)
    pos_s, neg_s, tensor_scale = scaling.group_scales(
        xg, cfg.scale_mode, cfg.fmt, cfg.asymmetric, tensor_amax=tensor_amax)
    scales[:, 0], scales[:, 1] = pos_s, neg_s
    applied = scales if tensor_scale is None else scales * tensor_scale
    sel = _side_scales(applied, xg < 0) if cfg.asymmetric else applied[:, :1]
    if applied.all():  # an asymmetric sel is a fresh buffer: divide into it
        pre = np.divide(xg, sel, out=sel if cfg.asymmetric else None)
    else:  # an applied scale underflowed to 0.0: divide by its two factors in turn
        pre = xg / np.where(sel > 0, sel, 1.0)
        group = _side_scales(scales, xg < 0) if cfg.asymmetric else scales[:, :1]
        np.divide(xg / tensor_scale, group, out=pre, where=sel == 0)
    formats.round_to_codes(pre, cfg.fmt, out=codes)
    return tensor_scale, pre


def _side_scales(scales: np.ndarray, side: np.ndarray) -> np.ndarray:
    """Each element's scale from the (G, 2) pairs of a block, by a flat
    gather: side 0 takes the group's positive scale and side 1 its negative
    one. The int32 indices are in range, so "wrap" never wraps."""
    first = np.arange(0, scales.size, 2, dtype=np.int32).reshape(-1, 1)
    return np.take(scales.reshape(-1), first + side, mode="wrap")


def _quantize_zero_point(xg: np.ndarray, cfg: QuantConfig, codes: np.ndarray,
                         scales: np.ndarray) -> np.ndarray:
    """Write the codes and (scale, zero point) pairs of an asymmetric integer
    format into codes and scales; return the codes before their clip.
    zero_point = round(-min / scale)."""
    q_max = 2**cfg.fmt.total_bits - 1
    lo, hi = scaling.fold_groups(np.minimum, xg), scaling.fold_groups(np.maximum, xg)
    with np.errstate(over="ignore"):  # a span past float64 fails as a binary32 overflow
        span = hi - lo
    # the fold may give a zero min the other sign than numpy's min, and that
    # sign reaches zp where the span is positive: those groups take numpy's
    fix = (lo == 0) & (span > 0)
    if fix.any():
        lo[fix] = xg[fix].min(-1)
    # constant groups quantize against their own magnitude (zero span)
    ref = np.where(span > 0, span, np.maximum(np.abs(hi), 1.0))
    scale = scaling.binary32_scale(ref / q_max, "zero-point scale")
    anchor = np.where(span > 0, lo, np.minimum(hi, 0.0))
    zp = np.round(-anchor / scale)
    pre = xg / scale[..., None]
    np.round(pre, out=pre)
    pre += zp[..., None]
    np.clip(pre, 0, q_max, out=codes, casting="unsafe")
    zp[(span == 0) & (hi == 0)] = 0.0  # all-zero groups store +0.0, not -0.0
    scales[:, 0], scales[:, 1] = scale, zp
    return pre


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Reconstruct the real tensor, (-1)^s * |grid value| * scale(side), as
    the np.moveaxis view of the grouped layout it is computed in."""
    _, cg, gs = group_view(q.codes, q.config.group_size)
    out = np.empty(q.codes.shape)
    out_groups, scale_pairs = out.reshape(-1, gs), q.scales.reshape(-1, 2)
    for groups, block in row_blocks(cg):
        _dequantize_block(block, scale_pairs[groups], q.config, q.tensor_scale, out_groups[groups])
    return np.moveaxis(out, -1, q.config.axis)


def _dequantize_block(codes: np.ndarray, scales: np.ndarray, cfg: QuantConfig, tensor_scale,
                      out: np.ndarray) -> np.ndarray:
    """Write the values of a block's (G, gs) codes and (G, 2) scale pairs into out."""
    if cfg.uses_zero_point:
        return np.multiply(codes - scales[:, 1:], scales[:, :1], out=out)
    formats.decode(codes, cfg.fmt, out=out)
    side = codes >> (cfg.fmt.total_bits - 1) if cfg.asymmetric else None  # the sign bit
    out *= scales[:, :1] if side is None else _side_scales(scales, side)
    if tensor_scale is not None:
        out *= tensor_scale
    return out


def quantize_dequantize(x, cfg: QuantConfig) -> np.ndarray:
    """Fused quantize(x) followed by dequantize."""
    return dequantize(quantize(x, cfg))

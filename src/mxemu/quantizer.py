"""Group-wise tensor quantization and deterministic dequantization.

A QuantConfig combines an element format, a group size (or whole-row
grouping), a shared-scale mode, and a symmetric/asymmetric flag. Groups run
along a configurable axis (last by default). Asymmetric float formats carry
separate positive/negative shared scales per group; asymmetric integer
formats use zero-point quantization instead, with the zero point stored in
the negative-scale slot of the per-group scale pair. The nvfp4_double scale
mode adds an exact tensor-wise scale under FP8-encoded group scales.

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
    "quantize",
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


def _validate_input(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise DataError("cannot quantize an empty tensor")
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
    arr = _validate_input(x)
    mode = cfg.scale_mode
    if mode.kind == "double" and cfg.group_size not in scaling.NVFP4_GROUP_SIZES:
        raise ConfigError(
            f"scale mode {mode.name} requires group size in {scaling.NVFP4_GROUP_SIZES}"
        )
    moved, xg, _ = group_view(arr, cfg.group_size, cfg.axis)

    if cfg.uses_zero_point:
        codes, scales = _quantize_zero_point(xg, cfg)
        return QuantizedTensor(arr.shape, cfg, codes.reshape(moved.shape), scales, None)

    pos_s, neg_s, tensor_scale = scaling.group_scales(xg, mode, cfg.fmt, cfg.asymmetric)
    ts = 1.0 if tensor_scale is None else tensor_scale
    sel = (pos_s * ts)[..., None]
    if cfg.asymmetric:
        sel = np.where(xg >= 0, sel, (neg_s * ts)[..., None])
    codes = formats.round_to_codes(xg / sel, cfg.fmt).reshape(moved.shape)
    scales = np.stack([pos_s, neg_s], axis=-1)
    return QuantizedTensor(arr.shape, cfg, codes, scales, tensor_scale)


def _quantize_zero_point(xg: np.ndarray, cfg: QuantConfig):
    """Zero-point path for asymmetric integer formats.

    scale = (max - min) / (2**k - 1) stored at binary32 precision (the
    customary storage width for zero-point scales; it also makes repeated
    quantize/dequantize bit-stable because every (code - zp) * scale product
    is then exact in float64), zero_point = round(-min / scale).
    """
    q_max = 2**cfg.fmt.total_bits - 1
    lo = xg.min(-1)
    hi = xg.max(-1)
    span = hi - lo
    # constant groups quantize against their own magnitude (zero span)
    ref = np.where(span > 0, span, np.maximum(np.abs(hi), 1.0))
    scale = (ref / q_max).astype(np.float32).astype(np.float64)
    anchor = np.where(span > 0, lo, np.minimum(hi, 0.0))
    zp = np.round(-anchor / scale)
    q = np.round(xg / scale[..., None]) + zp[..., None]
    np.clip(q, 0, q_max, out=q)
    all_zero = (span == 0) & (hi == 0)
    q = np.where(all_zero[..., None], 0.0, q)
    zp = np.where(all_zero, 0.0, zp)
    codes = q.astype(np.uint8)
    scales = np.stack([scale, zp], axis=-1)
    return codes, scales


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Reconstruct the real tensor: (-1)^s * |grid value| * scale(side)."""
    cfg = q.config
    _, cg, _ = group_view(q.codes, cfg.group_size)

    if cfg.uses_zero_point:
        scale = q.scales[..., 0][..., None]
        zp = q.scales[..., 1][..., None]
        vals = (cg.astype(np.float64) - zp) * scale
    else:
        vg = formats.decode(cg, cfg.fmt)
        sel = q.scales[..., 0][..., None]
        if cfg.asymmetric:
            sel = np.where(vg < 0, q.scales[..., 1][..., None], sel)
        vals = vg * sel
        if q.tensor_scale is not None:
            vals = vals * q.tensor_scale

    out = vals.reshape(q.codes.shape)
    return np.ascontiguousarray(np.moveaxis(out, -1, cfg.axis))


def quantize_dequantize(x, cfg: QuantConfig) -> np.ndarray:
    """Fused quantize(x) followed by dequantize."""
    return dequantize(quantize(x, cfg))

"""Emulated reduced-precision dot product and matrix multiply.

Each product term is the product of the two operands' dequantized elements,
so the shared scale entering every term is selected by that element's sign,
matching the sign-dependent polarity of asymmetric scaling. The fold walks K
as rank-1 (M, N) terms: a group's partial is seeded with its first term (not
zero, so a sum of -0.0 terms stays -0.0) and the rest are added in order;
group partials combine in ascending order. Working memory is O(M*N) beyond
the dequantized operands. Under float64 this equals dequantize-multiply-sum
in that order; float32 rounds each float64 term and every partial to float32.

Zero-point integer operands have no sign-selected scale semantics and are
rejected; dequantize them and multiply in floating point instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .quantizer import QuantConfig, QuantizedTensor, dequantize, group_view, quantize

__all__ = ["AccumSpec", "dot", "matmul"]


@dataclass(frozen=True)
class AccumSpec:
    """Accumulator width; element order inside a group is always sequential."""

    accum: str = "float64"  # "float64" (reference) or "float32"

    def __post_init__(self):
        if self.accum not in ("float64", "float32"):
            raise ConfigError(f"unknown accumulator width {self.accum!r}")


def _check_operand(cfg: QuantConfig, side: str):
    if cfg.uses_zero_point:
        raise ConfigError(
            f"{side}: zero-point integer operands are unsupported in the emulated "
            "dot; dequantize first and use a floating-point matmul"
        )


def _group_size(q: QuantizedTensor) -> int:
    return group_view(q.codes, q.config.group_size)[2]


def _fold(da: np.ndarray, db: np.ndarray, gs: int, spec: AccumSpec) -> np.ndarray:
    """Ordered sum of the rank-1 terms da[:, t] x db[t] in the accumulator dtype."""
    term = np.empty((da.shape[0], db.shape[1]), spec.accum)
    acc = None
    for g0 in range(0, da.shape[1], gs):
        part = np.multiply(da[:, g0, None], db[g0], out=np.empty_like(term))
        for t in range(g0 + 1, g0 + gs):
            part += np.multiply(da[:, t, None], db[t], out=term)
        acc = part if acc is None else np.add(acc, part, out=acc)
    return acc


def dot(a: QuantizedTensor, b: QuantizedTensor, spec: AccumSpec = AccumSpec()) -> float:
    """Emulated dot product of two 1-D quantized tensors."""
    if len(a.shape) != 1 or len(b.shape) != 1:
        raise ConfigError("dot expects 1-D quantized tensors")
    if a.shape != b.shape:
        raise ConfigError(f"dot: length mismatch {a.shape[0]} vs {b.shape[0]}")
    _check_operand(a.config, "lhs")
    _check_operand(b.config, "rhs")
    gs_a, gs_b = _group_size(a), _group_size(b)
    if gs_a != gs_b:
        raise ConfigError(f"dot: group size mismatch {gs_a} vs {gs_b}")
    return float(_fold(dequantize(a)[None, :], dequantize(b)[:, None], gs_a, spec)[0, 0])


def matmul(
    a,
    b,
    cfg_a: QuantConfig,
    cfg_b: QuantConfig,
    spec: AccumSpec = AccumSpec(),
) -> np.ndarray:
    """Quantize a row-wise and b column-wise, then dot along the inner axis."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ConfigError("matmul expects 2-D matrices")
    if a.shape[1] != b.shape[0]:
        raise ConfigError(f"matmul: inner dimensions differ ({a.shape} x {b.shape})")
    gs_a = group_view(a, cfg_a.group_size)[2]
    gs_b = group_view(b, cfg_b.group_size, 0)[2]
    if gs_a != gs_b:
        raise ConfigError(f"matmul: group size mismatch {gs_a} vs {gs_b}")
    _check_operand(cfg_a, "lhs")
    _check_operand(cfg_b, "rhs")
    da = dequantize(quantize(a, replace(cfg_a, axis=-1)))
    db = dequantize(quantize(b, replace(cfg_b, axis=0)))
    return _fold(da, db, gs_a, spec)


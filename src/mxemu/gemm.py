"""Emulated reduced-precision dot product and matrix multiply.

Each product term is the product of the two operands' dequantized elements,
so the shared scale entering every term is selected by that element's sign,
matching the sign-dependent polarity of asymmetric scaling.

The ordered fold is the contract. K splits into groups of gs terms. Inside
a group, an output entry's partial is its first term (not zero, so a sum of
-0.0 terms stays -0.0) plus each later term in turn; the group partials then
combine in ascending order. Each float64 product and every partial round to
the accumulator dtype, so under float64 this is dequantize-multiply-sum in
that order. Working memory is O(M*N + (M + N)*gs) beyond the dequantized
operands.

Each group takes the cheapest path that provably gives the ordered fold's
bits:

- One BLAS product where the group's sum is exact. Let q_a[i] be the
  exponent of the lowest set bit over row i of the group's slice of da, and
  q_b[j] the same over column j of db's slice. Every term of entry (i, j) is
  then an integer multiple of 2**(q_a[i] + q_b[j]). If

      gs * max_i(amax_a[i] / 2**q_a[i]) * max_j(amax_b[j] / 2**q_b[j]) < 2**(p - 1),

  with p = 53 for float64 and 24 for float32, every term and every partial
  sum fits in p bits. With min q_a + min q_b >= -1074 (float64) or -149
  (float32), finite slices and no overflow, each is exact, so any summation
  order gives the same value. Only the sign of a zero can differ: a zero
  entry of the ordered fold is -0.0 exactly when every one of its terms is
  -0.0, so the entries where the product is zero are set from their terms.
- Binary32 arithmetic where the accumulator is float32 and both slices are
  binary32 values: a product of two binary32 values is exact in binary64,
  so the float32 product is the float64 product rounded once to float32.
- Otherwise the rank-1 loop over float64 products.

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
    """Accumulator width of the ordered fold.

    Terms inside a group are summed in order and groups in ascending order,
    each product and partial rounded to the accumulator dtype. BLAS or
    binary32 arithmetic stands in for that fold only where it provably gives
    the same bits (see the module docstring).
    """

    accum: str = "float64"  # "float64" (reference) or "float32"

    def __post_init__(self):
        if self.accum not in ("float64", "float32"):
            raise ConfigError(f"unknown accumulator width {self.accum!r}")


def _check_operands(op: str, cfg_a: QuantConfig, cfg_b: QuantConfig, gs_a: int, gs_b: int):
    """Raise ConfigError for a zero-point operand or unequal group sizes."""
    for side, cfg in (("lhs", cfg_a), ("rhs", cfg_b)):
        if cfg.uses_zero_point:
            raise ConfigError(
                f"{side}: zero-point integer operands are unsupported in the emulated "
                "dot; dequantize first and use a floating-point matmul"
            )
    if gs_a != gs_b:
        raise ConfigError(f"{op}: group size mismatch {gs_a} vs {gs_b}")


# exponent given to a zero element: it never limits the bound
_NO_BITS = 1 << 20
# terms gathered at once to set the signs of zero entries (1 MB of float64)
_ZERO_TERMS = 1 << 17
# (precision p, least exponent) of each accumulator dtype
_EXACT = {np.dtype(np.float64): (53, -1074), np.dtype(np.float32): (24, -149)}


def _line_stats(s: np.ndarray, axis: int):
    """Largest |x| and the exponent of the lowest set bit over each row
    (axis 1) or column (axis 0) of a float64 slice."""
    mag = s.view(np.int64) & ((1 << 63) - 1)  # the bits of |x| order like |x|
    sig = mag & ((1 << 52) - 1)
    sig |= 1 << 52  # a normal's implicit bit; a subnormal keeps its lowest set bit
    low = sig & -sig
    # |x| = sig * 2**(max(biased, 1) - 1075), and low = 2**k has the float64
    # biased exponent k + 1023
    q = (low.astype(np.float64).view(np.int64) >> 52) + np.maximum(mag >> 52, 1) - 2098
    q[mag == 0] = _NO_BITS
    return mag.max(axis).view(np.float64), q.min(axis)


def _sum_is_exact(sa: np.ndarray, sb: np.ndarray, dtype: np.dtype) -> bool:
    """Whether every term and partial of sa @ sb is exact in dtype."""
    p, least = _EXACT[dtype]
    (amax_a, qa), (amax_b, qb) = _line_stats(sa, 1), _line_stats(sb, 0)
    # bounds every partial; NaN or inf in a slice fails the test too
    if not sa.shape[1] * amax_a.max() * amax_b.max() <= np.finfo(dtype).max:
        return False
    if qa.min() + qb.min() < least:
        return False
    wide = np.ldexp(amax_a, -qa).max() * np.ldexp(amax_b, -qb).max()
    return sa.shape[1] * wide < 2.0 ** (p - 1)


def _set_zero_signs(part: np.ndarray, sa: np.ndarray, sb: np.ndarray) -> None:
    """Make each zero of the exact part -0.0 iff all of its terms are -0.0."""
    zi, zj = np.nonzero(part == 0)
    step = max(1, _ZERO_TERMS // sa.shape[1])
    for c in range(0, zi.size, step):
        i, j = zi[c:c + step], zj[c:c + step]
        terms = sa[i] * sb[:, j].T
        neg = ((terms == 0) & np.signbit(terms)).all(1)
        part[i, j] = np.where(neg, -0.0, 0.0)


def _binary32(sa: np.ndarray, sb: np.ndarray):
    """float32 copies of both slices if they hold their values exactly."""
    with np.errstate(over="ignore"):  # a value past binary32 fails the test
        a32, b32 = sa.astype(np.float32), sb.astype(np.float32)
    if (a32 == sa).all() and (b32 == sb).all():
        return a32, b32
    return sa, sb


def _fold(da: np.ndarray, db: np.ndarray, gs: int, spec: AccumSpec) -> np.ndarray:
    """Ordered sum of the rank-1 terms da[:, t] x db[t] in the accumulator dtype."""
    dtype = np.dtype(spec.accum)
    shape = (da.shape[0], db.shape[1])
    acc, part, term = (np.empty(shape, dtype) for _ in range(3))
    wide = np.empty(shape)  # reused: a fresh BLAS output per group costs page faults
    for g0 in range(0, da.shape[1], gs):
        sa, sb = da[:, g0:g0 + gs], db[g0:g0 + gs]
        if _sum_is_exact(sa, sb, dtype):
            src = np.matmul(sa, sb, out=wide)
            _set_zero_signs(src, sa, sb)
        else:
            if dtype == np.float32:
                sa, sb = _binary32(sa, sb)
            src = np.multiply(sa[:, 0, None], sb[0], out=part)
            for t in range(1, gs):
                part += np.multiply(sa[:, t, None], sb[t], out=term)
        # an exact float64 sum casts to dtype without rounding
        if g0 == 0:
            np.copyto(acc, src)
        else:
            np.add(acc, src, out=acc, dtype=dtype)
    return acc


def dot(a: QuantizedTensor, b: QuantizedTensor, spec: AccumSpec = AccumSpec()) -> float:
    """Emulated dot product of two 1-D quantized tensors."""
    if len(a.shape) != 1 or len(b.shape) != 1:
        raise ConfigError("dot expects 1-D quantized tensors")
    if a.shape != b.shape:
        raise ConfigError(f"dot: length mismatch {a.shape[0]} vs {b.shape[0]}")
    gs_a, gs_b = (group_view(q.codes, q.config.group_size)[2] for q in (a, b))
    _check_operands("dot", a.config, b.config, gs_a, gs_b)
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
    _check_operands("matmul", cfg_a, cfg_b, gs_a, gs_b)
    da = dequantize(quantize(a, replace(cfg_a, axis=-1)))
    db = dequantize(quantize(b, replace(cfg_b, axis=0)))
    return _fold(da, db, gs_a, spec)


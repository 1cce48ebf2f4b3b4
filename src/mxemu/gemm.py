"""Emulated reduced-precision dot product and matrix multiply.

Each product term is the product of the two operands' dequantized elements,
so the shared scale entering every term is selected by that element's sign,
matching the sign-dependent polarity of asymmetric scaling.

The ordered fold is the contract. K splits into groups of gs terms. An output
entry starts at -0.0, the identity of IEEE addition, and adds the group
partials in ascending order; a group's partial is its first term plus each
later term in turn. Each float64 product and every partial round to the
accumulator dtype, so under float64 this is dequantize-multiply-sum in that
order. Working memory is O(M*N + (M + N)*gs + K) beyond the dequantized
operands: five (M, N) buffers, and the gathered terms of single entries, at
most min(M*N, 2**17) at a time, or one entry's K where K is longer.

The fold takes the cheapest path that provably gives the ordered fold's bits:

- One BLAS product over the exact prefix of K. Take the first k columns of
  da and rows of db. Let q_a[i] be the exponent of the lowest set bit over
  row i of da's slice, and q_b[j] the same over column j of db's slice.
  Every term of entry (i, j) is then an integer multiple of
  2**(q_a[i] + q_b[j]). If

      k * max_i(amax_a[i] / 2**q_a[i]) * max_j(amax_b[j] / 2**q_b[j]) < 2**(p - 1),

  with p = 53 for float64 and 24 for float32, every term and every sum of
  terms fits in p bits: each group's partials, and each running sum of the
  group partials too. With min q_a + min q_b >= -1074 (float64) or -149
  (float32), finite slices and no overflow, each is exact, so any summation
  order gives the same value. The fold walks the leading groups, keeping the
  per-row maxima of amax and minima of q for da and the per-column ones for
  db, which are O(M + N), and extends the prefix while the bound holds for
  all of its columns; the group that ends the prefix is visited again, by
  the test of the next item. One product over the prefix then stands in for
  its groups. Only the sign of a zero can differ. An exact sum of two values
  is -0.0 only when both are -0.0 (x + -x is +0.0), so a zero entry of the
  ordered fold is -0.0 exactly when every one of its terms is, whether they
  lie in one group or span many. The entries where the product is zero are
  set from their terms.
- The same test from the stored scales, over all of K. Each value is
  x = fl(g*s), or fl(fl(g*s)*t) under nvfp4_double, with g on the element
  grid, s its side's stored scale and t the tensor scale. Rounding is
  monotone, so |x| <= fl(fl(max_normal*s)*t). An exact product adds the
  exponents of the lowest set bits, and a rounded one is a multiple of an
  ulp above them, so q(x) >= q_grid + q(s) + q(t), with q_grid the q of the
  least positive grid value, of which every grid value is a multiple. A
  side is left out only where its scale is the degenerate one and it scales
  no nonzero code, since a tiny side can carry that scale too. dot and
  matmul take the per-line maxima of the |x| bounds and minima of the q
  bounds over all groups before they dequantize, and the fold tests them,
  with k = K, before it scans any group: where they hold, one product covers
  all of K. Else the walk runs; the bounds are never tighter than the line
  stats, so its prefix is the same either way.
- Past the prefix each group is tested on its own, with k = gs, and takes
  one BLAS product where its sum is exact.
- Where that test fails, a bound per entry. Let u(x) = 2**-q(x) exactly, with
  q(x) the exponent of the lowest set bit of x (u is 0 for a zero, inf past
  binary64, and has no floor), and take two float64 products over the slices,
  R = |sa| @ |sb| and E = u(sa) @ u(sb). Entry (i, j) is proven when

      R[i,j] <= max(dtype),   R[i,j] * E[i,j] < 2**(p - 1),   E[i,j] <= 2**-least.

  E sums nonnegative terms, so even rounded it is at least its largest term
  2**-Q, with Q the least q_a + q_b over the entry's terms; every term, and
  so every partial, is then an integer multiple of 2**Q, Q >= least, below
  R * E * 2**Q < 2**p * 2**Q in magnitude (the spare factor of 2 covers the
  rounding of R), and never past max(dtype). Each is exact in dtype, so the
  group's partial is the entry of one BLAS product. The entries the bound
  leaves open and the zero sums are folded in order from their gathered
  terms. Where more than one entry in 8 stays open (as for nvfp4_double,
  fp32 scales or AMXFP8 under float32), the group runs the rank-1 loop
  instead. One defence limits what such bounds cost: after n of them in a
  row, the next 4**(n - 1) groups that fail the group test skip the bound,
  so a product whose bound always fails tries it on 4 of 64 groups.
- Binary32 arithmetic where the accumulator is float32 and both slices are
  binary32 values: a product of two binary32 values is exact in binary64,
  so the float32 product is the float64 product rounded once to float32.
  This holds for the entry bound's product, its gathered terms and the
  rank-1 loop.
- Otherwise the rank-1 loop over float64 products.

Zero-point integer operands have no sign-selected scale semantics and are
rejected; dequantize them and multiply in floating point instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import formats, scaling
from .errors import ConfigError
from .quantizer import QuantConfig, QuantizedTensor, dequantize, quantize

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


def _group_size(op: str, cfg_a: QuantConfig, cfg_b: QuantConfig, k: int) -> int:
    """The group size both operands share along an inner extent k, a whole
    row being k; ConfigError for a zero-point operand or unequal sizes."""
    for side, cfg in (("lhs", cfg_a), ("rhs", cfg_b)):
        if cfg.uses_zero_point:
            raise ConfigError(
                f"{side}: zero-point integer operands are unsupported in the emulated "
                "dot; dequantize first and use a floating-point matmul"
            )
    gs_a, gs_b = (k if cfg.group_size is None else cfg.group_size for cfg in (cfg_a, cfg_b))
    if gs_a != gs_b:
        raise ConfigError(f"{op}: group size mismatch {gs_a} vs {gs_b}")
    return gs_a


# exponent given to a zero element: it never limits a bound, and 2**-_NO_BITS is 0
_NO_BITS = 1 << 20
# terms gathered at once to fold single entries (1 MB of float64)
_ZERO_TERMS = 1 << 17
# share of a group's entries left unproven above which the rank-1 loop runs
_DENSE_SHARE = 1 / 8
# (precision p, least exponent) of each accumulator dtype
_EXACT = {np.dtype(np.float64): (53, -1074), np.dtype(np.float32): (24, -149)}


def _elem_bits(s: np.ndarray):
    """|x| as int64 bits, and the exponent of each element's lowest set bit
    (_NO_BITS for a zero), of a float64 slice."""
    mag = s.view(np.int64) & ((1 << 63) - 1)  # the bits of |x| order like |x|
    # |x| = sig * 2**(max(biased, 1) - 1075), with a normal's implicit bit 52
    # in sig. Setting bit 52 keeps sig's lowest set bit (a subnormal's lies
    # below it) under the exponent bits, so low = 2**k is that bit, and its
    # float64 biased exponent is k + 1023
    low = mag | (1 << 52)
    low &= -low
    q = low.astype(np.float64).view(np.int64)
    q >>= 52
    q += np.maximum(mag >> 52, 1)
    q -= 2098
    q[mag == 0] = _NO_BITS
    return mag, q


def _line_stats(elems, axis: int):
    """Largest |x| and least lowest-set-bit exponent over each row (axis 1)
    or column (axis 0), from a slice's _elem_bits."""
    mag, q = elems
    return mag.max(axis).view(np.float64), q.min(axis)


def _sum_is_exact(k: int, stats_a, stats_b, dtype: np.dtype) -> bool:
    """Whether every term and partial of a k-term sum is exact in dtype, given
    the (amax, q) line stats of both operands' slices, as _line_stats gives."""
    p, least = _EXACT[dtype]
    (amax_a, qa), (amax_b, qb) = stats_a, stats_b
    with np.errstate(over="ignore"):  # a bound past binary64 fails the test
        # bounds every partial; NaN or inf in a slice fails the test too
        if not k * amax_a.max() * amax_b.max() <= np.finfo(dtype).max:
            return False
        if qa.min() + qb.min() < least:
            return False
        wide = np.ldexp(amax_a, -qa).max() * np.ldexp(amax_b, -qb).max()
        return k * wide < 2.0 ** (p - 1)


def _joined(run, stats):
    """Line stats of two slices joined along K, from the stats of each."""
    return np.maximum(run[0], stats[0]), np.minimum(run[1], stats[1])


def _exact_prefix(da: np.ndarray, db: np.ndarray, gs: int, dtype: np.dtype) -> int:
    """Length of the longest run of leading groups whose whole sum is exact in dtype."""
    run = None
    for k0 in range(0, da.shape[1], gs):
        stats = (_line_stats(_elem_bits(da[:, k0:k0 + gs]), 1),
                 _line_stats(_elem_bits(db[k0:k0 + gs]), 0))
        joined = stats if run is None else (_joined(run[0], stats[0]), _joined(run[1], stats[1]))
        if not _sum_is_exact(k0 + gs, *joined, dtype):
            return k0
        run = joined
    return da.shape[1]


def _scale_stats(q: QuantizedTensor, gs: int):
    """Per-line bounds (amax, q) over all of K of a quantized operand's
    values, from its stored scales: at least the largest |x| and at most the
    least lowest-set-bit exponent of each line, as _line_stats gives them.
    A line is a row of the grouped layout, so a column of a matmul's rhs."""
    cfg = q.config
    scales = q.scales.reshape(-1, q.scales.shape[-2], 2)[..., :2 if cfg.asymmetric else 1]
    low = math.frexp(formats.min_positive(cfg.fmt))[1] - 1 + _elem_bits(scales)[1]
    with np.errstate(over="ignore"):  # a bound past binary64 fails the test
        amax = scales * formats.max_normal(cfg.fmt)
        if q.tensor_scale is not None:
            amax *= q.tensor_scale
            low += _elem_bits(np.array([q.tensor_scale]))[1]
    # a side drops out only where it holds no nonzero value, since a tiny
    # side's scale can equal the degenerate one
    idx = np.flatnonzero(scales == scaling.degenerate_scale(cfg.scale_mode, cfg.fmt))
    if idx.size:
        group, side = np.divmod(idx, scales.shape[-1])
        vals = formats.decode(q.codes.reshape(-1, gs)[group], cfg.fmt)
        # a symmetric side holds every value, an asymmetric one those of its sign
        held = np.where(side[:, None], vals < 0, vals > 0) if cfg.asymmetric else vals != 0
        idx = idx[~held.any(1)]
        amax.put(idx, 0.0)
        low.put(idx, _NO_BITS)
    return amax.max((1, 2)), low.min((1, 2))


def _fold_entries(out: np.ndarray, mask: np.ndarray, sa: np.ndarray, sb: np.ndarray,
                  dtype: np.dtype, exact: bool = False) -> None:
    """Set each out[i, j] where mask holds to the left fold in dtype of its
    terms sa[i, t] * sb[t, j], each rounded to dtype, gathered in chunks.
    Where every partial of those sums is exact, as the caller asserts with
    exact, any order of the sum gives the fold's value and signed zero."""
    idx = np.flatnonzero(mask)
    step = max(1, min(_ZERO_TERMS, out.size) // sa.shape[1])
    for c in range(0, idx.size, step):
        i, j = np.divmod(idx[c:c + step], out.shape[1])
        terms = np.multiply(sa[i], sb.T[j])  # one entry's terms to a row
        if exact:  # from -0.0, the identity of IEEE addition; numpy's +0.0 loses -0.0 sums
            out[i, j] = terms.astype(dtype, copy=False).sum(1, initial=-0.0)
        else:  # column-major, so that a fold column by column reads contiguous columns
            out[i, j] = scaling.fold_groups(np.add, terms.astype(dtype, order="F"))


def _unproven_entries(elems_a, elems_b, dtype: np.dtype, wide, bound):
    """Mask of the entries of a group's product whose exactness in dtype the
    entry bound leaves open, from both slices' _elem_bits; None where more
    than _DENSE_SHARE of them are open. wide and bound are (M, N) float64 scratch."""
    p, least = _EXACT[dtype]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # u's inf and 0
        np.matmul(elems_a[0].view(np.float64), elems_b[0].view(np.float64), out=bound)
        np.matmul(np.ldexp(1.0, -elems_a[1]), np.ldexp(1.0, -elems_b[1]), out=wide)
        proven = bound <= np.finfo(dtype).max
        proven &= wide <= np.ldexp(1.0, -least)  # inf for float64
        bound *= wide
        proven &= bound < 2.0 ** (p - 1)
    unproven = ~proven
    return None if np.count_nonzero(unproven) > unproven.size * _DENSE_SHARE else unproven


def _binary32(sa: np.ndarray, sb: np.ndarray):
    """float32 copies of both slices, sb's C-ordered, if they hold their values exactly."""
    with np.errstate(over="ignore"):  # a value past binary32 fails the test
        a32, b32 = sa.astype(np.float32), sb.astype(np.float32, order="C")
    if (a32 == sa).all() and (b32 == sb).all():
        return a32, b32
    return sa, sb


def _fold(da: np.ndarray, db: np.ndarray, gs: int, spec: AccumSpec, whole) -> np.ndarray:
    """Ordered sum of the rank-1 terms da[:, t] x db[t] in the accumulator dtype.
    whole bounds both operands' line stats over all of K, as _scale_stats
    does; where it proves the whole sum exact, no group is scanned."""
    dtype = np.dtype(spec.accum)
    shape = (da.shape[0], db.shape[1])
    acc, part, term = (np.empty(shape, dtype) for _ in range(3))
    acc.fill(-0.0)  # the identity of IEEE addition, so that -0.0 partials stay -0.0
    # reused: a fresh BLAS output per group costs page faults
    wide, bound = np.empty(shape), np.empty(shape)
    # after n entry proofs in a row end in the dense loop, the next 4**(n - 1)
    # groups that need the loop skip the proof
    skip = misses = 0
    k = da.shape[1]
    k0 = k if _sum_is_exact(k, *whole, dtype) else _exact_prefix(da, db, gs, dtype)
    if k0:
        sa, sb = da[:, :k0], db[:k0]
        np.matmul(sa, sb, out=wide)
        _fold_entries(wide, wide == 0, sa, sb, dtype, exact=True)
        np.add(acc, wide, out=acc, dtype=dtype)  # an exact float64 sum casts unrounded
    for g0 in range(k0, k, gs):
        sa, sb = da[:, g0:g0 + gs], db[g0:g0 + gs]
        elems_a, elems_b = _elem_bits(sa), _elem_bits(sb)
        if _sum_is_exact(gs, _line_stats(elems_a, 1), _line_stats(elems_b, 0), dtype):
            src = np.matmul(sa, sb, out=wide)
            _fold_entries(src, src == 0, sa, sb, dtype, exact=True)
        else:
            if dtype == np.float32:
                sa, sb = _binary32(sa, sb)
            if not skip and (unproven := _unproven_entries(elems_a, elems_b, dtype, wide,
                                                           bound)) is not None:
                misses = 0
                src = np.matmul(sa, sb, out=part)
                unproven |= src == 0
                _fold_entries(src, unproven, sa, sb, dtype)
            else:
                skip, misses = (skip - 1, misses) if skip else (4**misses, misses + 1)
                sb = np.ascontiguousarray(sb)  # the loop reads rows of sb, whatever db's layout
                src = np.multiply(sa[:, 0, None], sb[0], out=part)
                for t in range(1, gs):
                    part += np.multiply(sa[:, t, None], sb[t], out=term)
        np.add(acc, src, out=acc, dtype=dtype)  # an exact float64 sum casts unrounded
    return acc


def _product(qa: QuantizedTensor, qb: QuantizedTensor, gs: int, spec: AccumSpec) -> np.ndarray:
    """The fold of qa's rows against qb's columns, a 1-D operand being one line."""
    # before dequantizing, so that neither the bounds' O((M + N) * K / gs) temporaries
    # nor matmul's codes (held by this frame alone, CPython 3.11 on) add to the fold's peak
    whole = _scale_stats(qa, gs), _scale_stats(qb, gs)
    da, db = dequantize(qa), dequantize(qb)
    del qa, qb
    k = da.shape[-1]
    return _fold(da.reshape(-1, k), db.reshape(k, -1), gs, spec, whole)


def dot(a: QuantizedTensor, b: QuantizedTensor, spec: AccumSpec = AccumSpec()) -> float:
    """Emulated dot product of two 1-D quantized tensors."""
    if len(a.shape) != 1 or len(b.shape) != 1:
        raise ConfigError("dot expects 1-D quantized tensors")
    if a.shape != b.shape:
        raise ConfigError(f"dot: length mismatch {a.shape[0]} vs {b.shape[0]}")
    gs = _group_size("dot", a.config, b.config, a.shape[0])
    return float(_product(a, b, gs, spec)[0, 0])


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
    gs = _group_size("matmul", cfg_a, cfg_b, a.shape[1])
    return _product(quantize(a, replace(cfg_a, axis=-1)), quantize(b, replace(cfg_b, axis=0)),
                    gs, spec)


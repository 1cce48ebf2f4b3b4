"""Element-level numeric formats as explicit, enumerable value grids.

Every supported low-precision code (FP4/FP6/FP8, INT4/INT8, plus FP16 used
for shared-scale encoding) is described by an ElementFormat and materialized
as a finite, sorted, sign-symmetric grid of float64 values. Rounding onto a
grid is round-to-nearest with ties broken toward the even mantissa code
(even integer value for INT grids), and magnitudes beyond the largest grid
value clamp to it.

One kernel, round_to_codes, rounds straight to packed codes (sign bit |
magnitude bits); round_to_grid and decode then gather from a table of the
signed value of every code, and encode is the kernel plus an on-grid check.
Float formats have subnormals and M >= 1 mantissa bits, and their kernel is
arithmetic, as in the OCP MX spec: it clamps the magnitude a at max_normal,
takes the binade e = floor(log2 a) from frexp, held at the subnormal floor
emin = 1 - bias, rounds the mantissa q = rint(a * 2**(M - e)) (q = 2**(M+1)
is the carry into the next binade) and returns the magnitude code
((e - emin) << M) + q, as code order is magnitude order. The code's low M
bits are q's, so rint's ties-to-even q is the even mantissa code. INT
formats use rint(a). Every element format is at most 8 bits wide, so its
codes are uint8; only fp16, the scale grid, has uint16 codes.

The kernel works in one float64 buffer (a, then q) and one int32 buffer
(the exponent shift, then (e - emin) << M); a float format's kernel takes
one more float64 buffer, max(a, 2**emin), into which frexp also writes its
unused mantissa. It builds the code in the code dtype, so no pass mixes an
integer and a float operand, and sets the sign bit from one compare,
v < -min_positive / 2, since exactly the magnitudes above min_positive / 2
round to a nonzero code. round_to_codes and decode take out=, so a
caller's block is written in place: decode gathers into out with np.take
after its range check. It finds NaN codes from the
NaN that a min of the values propagates.

Grids are built once per format and cached; all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "ElementFormat",
    "FORMATS",
    "ELEMENT_FORMAT_NAMES",
    "get_format",
    "parse_format",
    "grid",
    "max_normal",
    "min_positive",
    "emax_elem",
    "round_to_codes",
    "round_to_grid",
    "encode",
    "valid_codes",
    "decode",
]

# Handling of the top of the code space for float formats:
#   "all"  - every code is a finite number (FP4/FP6 style)
#   "fn"   - the single all-ones code is NaN, rest finite (FP8 E4M3)
#   "ieee" - the top exponent is reserved for Inf/NaN (FP8 E5M2, FP16)
_RESERVED = ("all", "fn", "ieee")


@dataclass(frozen=True)
class ElementFormat:
    """Bit-level description of an element code.

    kind is "float" (sign/exponent/mantissa, with subnormals and M >= 1)
    or "int" (sign-magnitude integer).
    """

    name: str
    kind: str
    exponent_bits: int = 0
    mantissa_bits: int = 0
    total_bits: int = 0
    reserved: str = "all"

    @property
    def bias(self) -> int:
        return 2 ** (self.exponent_bits - 1) - 1

    def __post_init__(self):
        if self.kind not in ("float", "int"):
            raise ConfigError(f"{self.name}: unknown format kind {self.kind!r}")
        if self.kind == "float":
            expected = 1 + self.exponent_bits + self.mantissa_bits
            if self.total_bits != expected:
                raise ConfigError(
                    f"{self.name}: total_bits {self.total_bits} != 1+E+M = {expected}"
                )
            if self.mantissa_bits < 1:  # the rounding kernel needs a mantissa bit
                raise ConfigError(f"{self.name}: a float format needs a mantissa bit")
        if self.reserved not in _RESERVED:
            raise ConfigError(f"{self.name}: bad reserved policy {self.reserved!r}")


def _float_magnitudes(fmt: ElementFormat):
    """Magnitudes in code order: (mag values, magnitude code bits)."""
    E, M, bias = fmt.exponent_bits, fmt.mantissa_bits, fmt.bias
    codes = np.arange(2 ** (E + M), dtype=np.uint32)
    e, m = codes >> M, codes & (2**M - 1)
    mags = np.ldexp(np.where(e > 0, m + 2**M, m), np.maximum(e, 1).astype(int) - bias - M)
    # "ieee" drops the top binade, "fn" only its last code
    keep = {"all": codes >= 0, "fn": codes < codes[-1], "ieee": e < 2**E - 1}[fmt.reserved]
    return mags[keep], codes[keep]


@lru_cache(maxsize=None)
def _tables(fmt: ElementFormat):
    """Per-format lookup tables.

    Returns (signed grid ascending, magnitudes ascending, signed value of
    every packed code with NaN for codes that name no finite value).
    """
    if fmt.kind == "float":
        mags, codes = _float_magnitudes(fmt)
    else:  # the magnitude code is the integer itself
        mags = np.arange(2.0 ** (fmt.total_bits - 1))
        codes = np.arange(len(mags), dtype=np.uint32)
    lut = np.full(1 << (fmt.total_bits - 1), np.nan)
    lut[codes] = mags
    return np.concatenate([-mags[:0:-1], mags]), mags, np.concatenate([lut, -lut])


_BASE_FORMATS = [
    ElementFormat("fp4_e2m1", "float", 2, 1, 4),
    ElementFormat("fp6_e3m2", "float", 3, 2, 6),
    ElementFormat("fp6_e2m3", "float", 2, 3, 6),
    ElementFormat("fp8_e4m3", "float", 4, 3, 8, reserved="fn"),
    ElementFormat("fp8_e5m2", "float", 5, 2, 8, reserved="ieee"),
    ElementFormat("fp16", "float", 5, 10, 16, reserved="ieee"),
    ElementFormat("int4", "int", total_bits=4),
    ElementFormat("int8", "int", total_bits=8),
]

FORMATS = MappingProxyType({f.name: f for f in _BASE_FORMATS})

# Names accepted as element formats in quantization configs ("fp16" is a
# shared-scale encoding only).
ELEMENT_FORMAT_NAMES = (
    "fp4_e2m1", "fp6_e3m2", "fp6_e2m3", "fp8_e4m3", "fp8_e5m2", "int4", "int8",
)


def get_format(name: str) -> ElementFormat:
    try:
        return FORMATS[name]
    except KeyError:
        raise ConfigError(
            f"unsupported format {name!r}; known formats: {', '.join(sorted(FORMATS))}"
        ) from None


def parse_format(name: str) -> tuple[ElementFormat, bool]:
    """Resolve an element-format name, honoring the '_asym' suffix.

    Returns (format, asymmetric flag). Only element formats are accepted.
    """
    asym = name.endswith("_asym")
    base = name[: -len("_asym")] if asym else name
    if base not in FORMATS:
        raise ConfigError(f"unsupported format {name!r}; valid names: "
                          f"{', '.join(ELEMENT_FORMAT_NAMES)} "
                          "(append '_asym' for asymmetric scaling)")
    fmt = FORMATS[base]
    if fmt.name == "fp16":
        raise ConfigError("fp16 is a shared-scale encoding, not an element format")
    return fmt, asym


def grid(fmt: ElementFormat) -> np.ndarray:
    """Full signed value grid, ascending. Contains 0 and +/- max_normal."""
    return _tables(fmt)[0].copy()


def max_normal(fmt: ElementFormat) -> float:
    return float(_tables(fmt)[1][-1])


def min_positive(fmt: ElementFormat) -> float:
    """Smallest positive representable value (a subnormal for float formats)."""
    return float(_tables(fmt)[1][1])


def emax_elem(fmt: ElementFormat) -> int:
    """Exponent of the largest grid magnitude: floor(log2(max_normal))."""
    return math.frexp(max_normal(fmt))[1] - 1


def round_to_codes(v, fmt: ElementFormat, out=None) -> np.ndarray:
    """Round value(s) to the nearest grid point of fmt, as packed element codes.

    Magnitudes beyond max_normal (and NaN) take the code of max_normal; ties
    take the even mantissa code; the sign bit is set only on nonzero codes
    of negative values, so -0.0 and values that round to zero give code 0.
    out, an array of v's shape in the code dtype (uint8, or uint16 for
    fp16's scale codes), receives the codes and is returned.
    """
    mags = _tables(fmt)[1]
    arr = np.asarray(v, dtype=float)
    dtype = np.dtype(np.uint8 if fmt.total_bits <= 8 else np.uint16)
    if out is not None and (out.shape != arr.shape or out.dtype != dtype):
        raise ConfigError(f"{fmt.name} codes need a {dtype} array of shape {arr.shape}")
    codes = np.empty(arr.shape, dtype) if out is None else out
    a = np.abs(arr, out=np.empty(arr.shape))
    np.fmin(a, mags[-1], out=a)
    M, bias = fmt.mantissa_bits, fmt.bias
    if fmt.kind == "float":
        # s = M - e (frexp's exponent is e + 1), q = rint(a * 2**s) in place,
        # then the code ((e - emin) << M) + q; see the module docstring
        s = np.empty(arr.shape, np.int32)  # an array even for 0-d input
        floored = np.fmax(a, 2.0 ** (1 - bias), out=np.empty(arr.shape))
        np.frexp(floored, out=(floored, s))  # the mantissa is not used
        np.subtract(M + 1, s, out=s)
        np.rint(np.ldexp(a, s, out=a), out=a)
        np.copyto(codes, a, casting="unsafe")
        np.subtract(M + bias - 1, s, out=s)
        s <<= M
        codes += s.astype(dtype)
    else:
        np.copyto(codes, np.rint(a, out=a), casting="unsafe")
    # a nonzero code is a magnitude above min_positive / 2, which rounds to 0
    neg = np.less(arr, -0.5 * mags[1])
    codes |= np.multiply(neg.view(np.uint8), 1 << (fmt.total_bits - 1), dtype=dtype)
    return codes[()] if out is None else out  # a numpy scalar for 0-d input


def round_to_grid(v, fmt: ElementFormat):
    """Round value(s) to the nearest grid point of fmt.

    Magnitudes beyond max_normal clamp to +/- max_normal. Exact midpoints
    resolve to the neighbor with the even mantissa code. NaN is rejected.
    """
    arr = np.asarray(v, dtype=float)
    if np.isnan(arr).any():
        raise DataError("cannot round NaN to a value grid")
    out = _tables(fmt)[2][round_to_codes(arr, fmt)]
    return float(out) if np.isscalar(v) or arr.ndim == 0 else out


def encode(values, fmt: ElementFormat) -> np.ndarray:
    """Map on-grid values to packed element codes (sign bit | magnitude bits).

    Input must already lie on the grid (i.e. come out of round_to_grid).
    """
    arr = np.asarray(values, dtype=float)
    codes = round_to_codes(arr, fmt)
    if not np.array_equal(_tables(fmt)[2][codes], arr):
        raise DataError("encode() requires on-grid values")
    return codes


def valid_codes(fmt: ElementFormat) -> np.ndarray:
    """A bool for each packed code of fmt, 0 to 2**total_bits - 1: whether it
    names a value. decode rejects the others."""
    return ~np.isnan(_tables(fmt)[2])


def decode(codes, fmt: ElementFormat, out=None) -> np.ndarray:
    """Inverse of encode: packed element codes back to float64 grid values.

    out, a float64 array of the codes' shape, receives the values and is
    returned.
    """
    lut = _tables(fmt)[2]
    arr = np.asarray(codes)
    if arr.dtype.kind not in "ui" or arr.size and (arr.min() < 0 or arr.max() >= len(lut)):
        raise DataError(f"{fmt.name} codes must be integers that lie in [0, {len(lut)})")
    if out is not None and (out.shape != arr.shape or out.dtype != np.float64):
        raise ConfigError(f"{fmt.name} values need a float64 array of shape {arr.shape}")
    vals = np.empty(arr.shape) if out is None else out
    # every code is in range, so "wrap" never wraps ("raise" would buffer all of vals)
    np.take(lut, arr, mode="wrap", out=vals)
    if arr.size and np.isnan(lut).any() and np.isnan(vals.min()):  # min propagates NaN
        raise DataError(f"invalid {fmt.name} code in input")
    return vals[()] if out is None else out  # a numpy scalar for 0-d input

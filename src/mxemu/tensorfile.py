"""Tensor files: NumPy .npy and CSV for plain tensors, MXQ1 for quantized ones.

A plain tensor is written as a float64 .npy file. The reader takes CSV by
suffix; any other file must be a version 1.0 .npy file (np.save's version
for any float array) of float16, float32 or float64, at least 1-D with every
dim at least 1, whose payload ends the file.

MXQ1 holds a QuantizedTensor: magic "MXQ1", the format and scale-mode names
(each a length byte and its bytes), one fixed header (_QHEADER: group size
or -1 for whole rows, axis, asymmetric flag, tensor-scale flag, tensor
scale or +0.0, ndim), the original shape (unsigned 64-bit dims, each at
least 1), element codes one per byte (low bits used), a group count, and
per-group scale pairs as float64 values paired with 32-bit audit words, the
words that scaling.scale_words gives under the config's scale mode. A
zero-point config stores its scale's binary32 word and its zero point as a
signed int32, whatever its scale mode. The tensor-scale flag is 1 exactly
when the mode is nvfp4_double and the config is not zero-point (a
zero-point config has no tensor scale), else 0 with the field +0.0. The
reader raises TensorFileError when the header breaks that rule, holds an
asymmetric flag other than 0 or 1 or names a format with "_asym", when a
code names no value of the format (formats.valid_codes), when a float or
symmetric int code is the negative zero 1 << (bits - 1), which quantize
never writes (it gives -0.0 code 0; zero-point codes are unsigned, so
there it is a value), when an audit word differs from the one it
recomputes, when a scale is not finite, positive and on its mode's grid,
when a symmetric group's two scales differ, when a zero point is not an
integer, or when bytes follow the scale records. So every file it reads is
one that write_quantized writes back byte for byte.
"""

from __future__ import annotations

import io
import math
import struct
from pathlib import Path

import numpy as np

from . import quantizer
from .errors import ConfigError, DataError, TensorFileError
from .formats import valid_codes
from .quantizer import QuantizedTensor, config, group_view
from .scaling import SCALE_MODES, scale_words

__all__ = ["read_tensor", "write_tensor", "read_quantized", "write_quantized"]

_QMAGIC = b"MXQ1"
# the MXQ1 header after the names (see the module docstring)
_QHEADER = struct.Struct("<qqBBdB")
# one MXQ1 scale record: the scale pair and their 32-bit audit words
_SCALE_RECORD = np.dtype([("pos", "<f8"), ("neg", "<f8"), ("pbits", "<u4"), ("nbits", "<u4")])


def write_tensor(path, array) -> None:
    arr = np.asarray(array, dtype=np.float64)
    with open(path, "wb") as fh:  # a file handle, so np.save appends no suffix
        np.save(fh, arr.reshape(arr.shape or 1), allow_pickle=False)


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise TensorFileError(f"truncated tensor file while reading {what}")
    return buf


def read_tensor(path) -> np.ndarray:
    """Read a float .npy file (or a 2-D comma-separated CSV) as C-ordered float64."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_csv(path)
    with open(path, "rb") as fh:
        try:
            if np.lib.format.read_magic(fh) != (1, 0):
                raise ValueError("only .npy version 1.0 is read")
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        except ValueError as exc:
            raise TensorFileError(f"{path}: not a .npy tensor file: {exc}") from None
        if dtype.kind != "f" or dtype.itemsize > 8:
            raise TensorFileError(f"{path}: dtype {dtype} is not float16, float32 or float64")
        if not shape or min(shape) < 1:
            raise TensorFileError(f"{path}: shape {shape} is 0-d or has a non-positive dimension")
        # held to the file size before anything of the claimed size is allocated
        want, left = math.prod(shape) * dtype.itemsize, path.stat().st_size - fh.tell()
        if left != want:
            what = "truncated payload" if left < want else "trailing bytes after payload"
            raise TensorFileError(f"{path}: {what}: {left} bytes for {want}")
        flat = np.fromfile(fh, dtype, math.prod(shape))
    return np.ascontiguousarray(flat.reshape(shape, order="F" if fortran else "C"), np.float64)


def _read_csv(path) -> np.ndarray:
    rows = []
    for ln, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise TensorFileError(f"{path}:{ln}: {exc}") from None
    if not rows:
        raise TensorFileError(f"{path}: empty CSV")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise TensorFileError(f"{path}: ragged CSV rows")
    return np.asarray(rows, dtype=np.float64)


def write_quantized(path, q: QuantizedTensor) -> None:
    """Write q as an MXQ1 file, one section at a time. The scale records are
    built and audited before the file opens, so that an error leaves no file."""
    cfg = q.config
    flat_scales = q.scales.reshape(-1, 2)
    rec = np.empty(flat_scales.shape[0], dtype=_SCALE_RECORD)
    rec["pos"], rec["neg"] = flat_scales[:, 0], flat_scales[:, 1]
    for part, pbits, nbits in _audit_words(rec, cfg, cfg.group_size or q.codes.shape[-1]):
        part["pbits"], part["nbits"] = pbits, nbits
    gs = -1 if cfg.group_size is None else cfg.group_size
    ts = q.tensor_scale
    with open(path, "wb") as fh:
        fh.write(_QMAGIC)
        for name in (cfg.fmt.name, cfg.scale_mode.name):
            raw = name.encode()
            fh.write(struct.pack("<B", len(raw)))
            fh.write(raw)
        fh.write(_QHEADER.pack(gs, cfg.axis, int(cfg.asymmetric), int(ts is not None),
                               0.0 if ts is None else ts, len(q.shape)))
        fh.write(struct.pack(f"<{len(q.shape)}Q", *q.shape))
        fh.write(np.ascontiguousarray(q.codes))  # a copy only where the codes are strided
        fh.write(struct.pack("<Q", rec.size))
        fh.write(rec)


def _audit_words(rec, cfg, gs):
    """Yield (part, pbits, nbits) over a record array of groups of gs
    elements, in slices of the groups one block of quantizer.row_blocks
    holds: part is the slice of rec, and pbits and nbits the audit words of
    its scale pairs under cfg, each scale's scaling.scale_words word and a
    zero point's signed int32."""
    step = max(1, quantizer.BLOCK_ELEMS // gs)
    # a zero-point scale is a binary32 value whatever the config's scale mode
    mode = SCALE_MODES["fp32"] if cfg.uses_zero_point else cfg.scale_mode
    for start in range(0, rec.size, step):
        part = rec[start:start + step]
        if not cfg.uses_zero_point:
            yield part, scale_words(part["pos"], mode), scale_words(part["neg"], mode)
            continue
        zp = part["neg"]
        if not ((zp >= -2**31) & (zp < 2**31)).all():
            raise TensorFileError("zero point outside the signed 32-bit range")
        yield part, scale_words(part["pos"], mode), zp.astype(np.int32).view(np.uint32)


def _check_scales(path, rec, cfg, gs) -> None:
    """Raise TensorFileError unless every stored scale of the groups of gs
    elements is finite, positive, on its mode's grid and equal to its audit
    word; a zero point must be an integer."""
    if cfg.uses_zero_point and not (rec["neg"] == np.round(rec["neg"])).all():
        raise TensorFileError(f"{path}: a stored zero point is not an integer")
    if not cfg.asymmetric and (rec["neg"] != rec["pos"]).any():
        raise TensorFileError(f"{path}: a symmetric group's two stored scales differ")
    try:
        for part, pbits, nbits in _audit_words(rec, cfg, gs):
            if not (np.array_equal(pbits, part["pbits"]) and np.array_equal(nbits, part["nbits"])):
                raise TensorFileError("a stored scale differs from its audit word")
    except (DataError, TensorFileError) as exc:
        raise TensorFileError(f"{path}: {exc}") from None


def read_quantized(path) -> QuantizedTensor:
    fh = io.BytesIO(Path(path).read_bytes())
    if _read_exact(fh, 4, "magic") != _QMAGIC:
        raise TensorFileError(f"{path}: bad magic, not an MXQ1 file")
    names = []
    for what in ("format name", "scale mode"):
        (ln,) = struct.unpack("<B", _read_exact(fh, 1, what))
        names.append(_read_exact(fh, ln, what))
    gs, axis, asym, has_ts, ts, ndim = _QHEADER.unpack(_read_exact(fh, _QHEADER.size, "header"))
    shape = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, "dims"))
    if any(d < 1 for d in shape):
        raise TensorFileError(f"{path}: non-positive dimension in {shape}")
    if gs != -1 and gs < 1:
        raise TensorFileError(f"{path}: group size field {gs} is not -1 (whole rows) or positive")
    try:
        fmt_name = names[0].decode() + ("_asym" if asym else "")
        cfg = config(fmt_name, names[1].decode(), None if gs == -1 else gs, axis)
    except (UnicodeDecodeError, ConfigError) as exc:
        raise TensorFileError(f"{path}: bad config names in header: {exc}") from None
    if asym > 1:
        raise TensorFileError(f"{path}: asymmetric flag {asym} is not 0 or 1")
    if cfg.fmt.name != names[0].decode():  # the flag, not the name, says "_asym"
        raise TensorFileError(f"{path}: {names[0].decode()!r} is not an element format name")
    if has_ts != (cfg.scale_mode.kind == "double" and not cfg.uses_zero_point):
        raise TensorFileError(f"{path}: tensor-scale flag {has_ts} does not fit {cfg.label()}")
    try:
        moved, xg, _ = group_view(np.broadcast_to(np.uint8(0), shape), cfg.group_size, axis)
    except (ConfigError, ValueError) as exc:  # ValueError: dims too large to index
        raise TensorFileError(f"{path}: header does not fit shape {shape}: {exc}") from None
    codes = np.frombuffer(_read_exact(fh, moved.size, "codes"), np.uint8).reshape(moved.shape)
    named = valid_codes(cfg.fmt)  # a gather only where a code in range names no value
    if codes.max() >= named.size or not named.all() and not named[codes].all():
        raise TensorFileError(f"{path}: a stored code names no {cfg.fmt.name} value")
    if not cfg.uses_zero_point and (codes == 1 << (cfg.fmt.total_bits - 1)).any():
        raise TensorFileError(f"{path}: a stored code is the negative zero of {cfg.fmt.name}")
    (n_groups,) = struct.unpack("<Q", _read_exact(fh, 8, "group count"))
    groups = xg.shape[:-1]
    if n_groups != math.prod(groups):
        raise TensorFileError(
            f"{path}: group count {n_groups} != {math.prod(groups)} for shape {shape} "
            f"and group size {xg.shape[-1]}"
        )
    rec = np.frombuffer(_read_exact(fh, _SCALE_RECORD.itemsize * n_groups, "scales"),
                        dtype=_SCALE_RECORD)
    if fh.read(1):
        raise TensorFileError(f"{path}: trailing bytes after the scale records")
    _check_scales(path, rec, cfg, xg.shape[-1])
    if has_ts and not (math.isfinite(ts) and ts > 0):
        raise TensorFileError(f"{path}: the tensor scale is not finite and positive")
    if not has_ts and (ts != 0 or math.copysign(1.0, ts) < 0):
        raise TensorFileError(f"{path}: tensor-scale field {ts!r} is not +0.0 with the flag 0")
    scales = np.stack([rec["pos"], rec["neg"]], axis=-1).reshape(*groups, 2)
    return QuantizedTensor(shape, cfg, codes, scales, ts if has_ts else None)

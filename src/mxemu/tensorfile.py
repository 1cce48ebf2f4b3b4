"""Binary tensor containers and CSV import.

MXT1 holds a plain real tensor: magic "MXT1", a dtype byte (0 = 32-bit
little-endian float), a dimension-count byte, the dims as unsigned 64-bit
little-endian integers, then the row-major payload.

MXQ1 holds a QuantizedTensor: magic "MXQ1", the format and scale-mode names
(each a length byte and its bytes), one fixed header (_QHEADER: group size
or -1 for whole rows, axis, asymmetric flag, tensor-scale flag, tensor
scale or 0.0, ndim), the original shape, element codes one per byte (low
bits used), a group count, and per-group scale pairs as float64 values
paired with 32-bit audit words, the words that scaling.scale_words gives
under the config's scale mode. A zero-point config stores its scale's
binary32 word and its zero point as a signed int32, whatever its scale
mode. The reader recomputes every audit word and raises TensorFileError
when one differs, when a scale is not finite, positive and on its mode's
grid, when a zero point is not an integer, or when bytes follow the scale
records.
"""

from __future__ import annotations

import io
import math
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, TensorFileError
from .quantizer import QuantizedTensor, config, group_view
from .scaling import SCALE_MODES, scale_words

__all__ = [
    "read_tensor",
    "write_tensor",
    "read_quantized",
    "write_quantized",
]

_MAGIC = b"MXT1"
_QMAGIC = b"MXQ1"
_DTYPE_F32 = 0
# the MXQ1 header after the names (see the module docstring)
_QHEADER = struct.Struct("<qqBBdB")
# one MXQ1 scale record: the scale pair and their 32-bit audit words
_SCALE_RECORD = np.dtype([("pos", "<f8"), ("neg", "<f8"), ("pbits", "<u4"), ("nbits", "<u4")])


def write_tensor(path, array) -> None:
    arr = np.asarray(array, dtype=np.float32)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BB", _DTYPE_F32, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.astype("<f4").tobytes(order="C"))


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise TensorFileError(f"truncated tensor file while reading {what}")
    return buf


def read_tensor(path) -> np.ndarray:
    """Read an MXT1 file (or a 2-D comma-separated CSV) as float64."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_csv(path)
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != _MAGIC:
            raise TensorFileError(f"{path}: bad magic, not an MXT1 tensor file")
        dtype, ndim = struct.unpack("<BB", _read_exact(fh, 2, "header"))
        if dtype != _DTYPE_F32:
            raise TensorFileError(f"{path}: unsupported dtype byte {dtype}")
        dims = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, "dims"))
        if any(d < 1 for d in dims):
            raise TensorFileError(f"{path}: non-positive dimension in {dims}")
        count = int(np.prod(dims, dtype=np.int64))
        payload = _read_exact(fh, 4 * count, "payload")
        if fh.read(1):
            raise TensorFileError(f"{path}: trailing bytes after payload")
    return np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float64)


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
    cfg = q.config
    if cfg.fmt.total_bits > 8:
        raise TensorFileError(
            f"MXQ1 stores one byte per code; {cfg.fmt.name} has {cfg.fmt.total_bits}-bit codes"
        )
    buf = io.BytesIO()
    buf.write(_QMAGIC)
    for name in (cfg.fmt.name, cfg.scale_mode.name):
        raw = name.encode()
        buf.write(struct.pack("<B", len(raw)))
        buf.write(raw)
    gs = -1 if cfg.group_size is None else cfg.group_size
    ts = q.tensor_scale
    buf.write(_QHEADER.pack(gs, cfg.axis, int(cfg.asymmetric), int(ts is not None),
                            0.0 if ts is None else ts, len(q.shape)))
    buf.write(struct.pack(f"<{len(q.shape)}Q", *q.shape))
    buf.write(q.codes.astype(np.uint8).tobytes(order="C"))
    flat_scales = q.scales.reshape(-1, 2)
    buf.write(struct.pack("<Q", flat_scales.shape[0]))
    rec = np.empty(flat_scales.shape[0], dtype=_SCALE_RECORD)
    rec["pos"], rec["neg"] = flat_scales[:, 0], flat_scales[:, 1]
    rec["pbits"], rec["nbits"] = _audit_words(rec, cfg)
    buf.write(rec.tobytes())
    Path(path).write_bytes(buf.getvalue())


def _audit_words(rec, cfg):
    """The audit words of a record array's scale pairs under cfg: each
    scale's scaling.scale_words word, and a zero point's signed int32."""
    if not cfg.uses_zero_point:
        return scale_words(rec["pos"], cfg.scale_mode), scale_words(rec["neg"], cfg.scale_mode)
    zp = rec["neg"]
    if not ((zp >= -2**31) & (zp < 2**31)).all():
        raise TensorFileError("zero point outside the signed 32-bit range")
    # a zero-point scale is a binary32 value whatever the config's scale mode
    return scale_words(rec["pos"], SCALE_MODES["fp32"]), zp.astype(np.int32).view(np.uint32)


def _check_scales(path, rec, cfg) -> None:
    """Raise TensorFileError unless every stored scale is finite, positive,
    on its mode's grid and equal to its audit word; a zero point must be an
    integer."""
    if cfg.uses_zero_point and not (rec["neg"] == np.round(rec["neg"])).all():
        raise TensorFileError(f"{path}: a stored zero point is not an integer")
    try:
        pbits, nbits = _audit_words(rec, cfg)
    except DataError as exc:
        raise TensorFileError(f"{path}: {exc}") from None
    if not (np.array_equal(pbits, rec["pbits"]) and np.array_equal(nbits, rec["nbits"])):
        raise TensorFileError(f"{path}: a stored scale differs from its audit word")


def read_quantized(path) -> QuantizedTensor:
    data = Path(path).read_bytes()
    fh = io.BytesIO(data)
    if _read_exact(fh, 4, "magic") != _QMAGIC:
        raise TensorFileError(f"{path}: bad magic, not an MXQ1 file")
    names = []
    for what in ("format name", "scale mode"):
        (ln,) = struct.unpack("<B", _read_exact(fh, 1, what))
        names.append(_read_exact(fh, ln, what))
    gs, axis, asym, has_ts, ts, ndim = _QHEADER.unpack(_read_exact(fh, _QHEADER.size, "header"))
    shape = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, "dims"))
    try:
        fmt_name = names[0].decode() + ("_asym" if asym else "")
        cfg = config(fmt_name, names[1].decode(), None if gs == -1 else gs, axis)
    except (UnicodeDecodeError, ConfigError) as exc:
        raise TensorFileError(f"{path}: bad config names in header: {exc}") from None
    try:
        moved, xg, _ = group_view(np.broadcast_to(np.uint8(0), shape), cfg.group_size, axis)
    except (ConfigError, ValueError) as exc:  # ValueError: dims too large to index
        raise TensorFileError(f"{path}: header does not fit shape {shape}: {exc}") from None
    codes = np.frombuffer(_read_exact(fh, moved.size, "codes"), dtype=np.uint8)
    codes = codes.reshape(moved.shape)
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
    _check_scales(path, rec, cfg)
    if has_ts and not (math.isfinite(ts) and ts > 0):
        raise TensorFileError(f"{path}: the tensor scale is not finite and positive")
    scales = np.stack([rec["pos"], rec["neg"]], axis=-1).reshape(*groups, 2)
    return QuantizedTensor(tuple(shape), cfg, codes, scales, ts if has_ts else None)

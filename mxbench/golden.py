"""Digests of mxemu outputs on a fixed input, recorded in golden.json.

The benchmark's seeded inputs change with every seed, so their outputs
cannot be recorded in advance. Each checked op also runs on this fixed
input and its digest must equal the recorded one, which pins the bits the
program produced when the digests were recorded.

Run `python3 mxbench/golden.py` from the repository root to record them
again; only do so when a change is meant to alter output bits.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from functools import lru_cache

import numpy as np

from inputs import GS, fixed_activation

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
GOLDEN_SHAPE = (16, 512)


def digest(*parts) -> str:
    """Digest of arrays, floats, None and nested dicts, exact to the bit."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(_exact(part), sort_keys=True).encode())
    return h.hexdigest()


def _exact(value):
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, float):
        return value.hex()
    return value


@lru_cache(maxsize=None)
def _input():
    return fixed_activation(*GOLDEN_SHAPE)


def quantize_digest(cfg) -> str:
    from mxemu.quantizer import dequantize, quantize

    q = quantize(_input(), cfg)
    return digest(q.codes, q.scales, q.tensor_scale, dequantize(q))


def error_digest(cfg) -> str:
    from mxemu import analysis

    return digest(analysis.error_decomposition(_input(), cfg).as_dict())


def stats_digest() -> str:
    from mxemu import analysis

    return digest(analysis.stats_summary(analysis.group_stats(_input(), GS)).as_dict())


@lru_cache(maxsize=None)
def recorded() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def compute() -> dict:
    from mxemu.quantizer import config

    from workloads import AMXFP4, MXFP4, QUANT_SWEEP

    out = {}
    for spec in QUANT_SWEEP:
        cfg = config(*spec)
        out[f"quantize {cfg.label()}"] = quantize_digest(cfg)
    for spec in (MXFP4, AMXFP4):
        cfg = config(*spec)
        out[f"error_decomposition {cfg.label()}"] = error_digest(cfg)
    out["stats_summary"] = stats_digest()
    return out


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(compute(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")

"""Command-line front end.

Subcommands: quantize, compare, stats, rotate, matmul, lloydmax. Exit codes
are stable across commands: 0 success, 1 data error, 2 I/O error, 3 config
error. Output is deterministic for identical inputs; floats print in
shortest round-trip decimal form.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, gemm, lloydmax, rotation, tensorfile
from .errors import ConfigError, DataError, TensorFileError
from .quantizer import config, dequantize, parse_group_size, quantize


def _add_common(p, fmt=False, out=False, seed=False):
    p.add_argument("--in", dest="infile", required=True, help="input tensor file (.mxt or .csv)")
    if fmt:
        p.add_argument("--format", required=True, help="element format name (append _asym for asymmetric)")
        p.add_argument("--scale", default="pot_floor", help="shared-scale mode name")
        p.add_argument("--group-size", default="row", help='group size or "row"')
        p.add_argument("--axis", type=int, default=-1, help="quantization axis")
    if out:
        p.add_argument("--out", help="output tensor file")
    if seed:
        p.add_argument("--seed", type=int, default=0)


def _parser():
    ap = argparse.ArgumentParser(prog="mxemu", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantize", help="quantize-dequantize a tensor")
    _add_common(p, fmt=True, out=True)
    p.add_argument("--dump-unique", action="store_true", help="print sorted distinct output values")
    p.add_argument("--dump-q", help="also write the quantized container (MXQ1)")

    p = sub.add_parser("compare", help="per-format error report on one tensor")
    _add_common(p, fmt=True, seed=True)
    p.add_argument("--lloyd-ref", action="store_true", help="append a Lloyd-Max reference row")
    p.add_argument("--json", dest="json_out", help="write the JSON report to a file")

    p = sub.add_parser("stats", help="group mean/kurtosis summary")
    _add_common(p)
    p.add_argument("--group-size", default="row")
    p.add_argument("--axis", type=int, default=-1)
    p.add_argument("--json", dest="json_out", help="write the JSON report to a file")

    p = sub.add_parser("rotate", help="randomized Hadamard rotation")
    _add_common(p, out=True, seed=True)
    p.add_argument("--dim-axis", type=int, default=-1, help="axis carrying the rotation dimension")
    p.add_argument("--transpose", action="store_true", help="apply the transpose (inverse) rotation")

    p = sub.add_parser("matmul", help="emulated reduced-precision matrix multiply")
    _add_common(p, fmt=True, out=True)
    p.add_argument("--in-b", required=True, help="right-hand matrix file")
    p.add_argument("--format-b", help="format for the right operand (default: --format)")

    p = sub.add_parser("lloydmax", help="cluster-wise Lloyd-Max reference quantizer")
    _add_common(p, out=True, seed=True)
    p.add_argument("--group-size", default="row")
    p.add_argument("--axis", type=int, default=-1)
    p.add_argument("--clusters", type=int, default=16)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--levels", type=int, default=16)
    p.add_argument("--init", choices=["quantile", "format_grid"], default="quantile",
                   help="quantile: best of quantile, uniform and seeded k-means++ starts; "
                        "format_grid: start from the AMXFP4 grid of each cluster")
    p.add_argument("--json", dest="json_out", help="write the JSON report to a file")
    return ap


def _print_json(obj, path=None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_quantize(args):
    x = tensorfile.read_tensor(args.infile)
    cfg = config(args.format, args.scale, args.group_size, args.axis)
    q = quantize(x, cfg)
    y = dequantize(q)
    if args.out:
        tensorfile.write_tensor(args.out, y)
    if args.dump_q:
        tensorfile.write_quantized(args.dump_q, q)
    if args.dump_unique:
        for v in np.unique(y):
            print(repr(float(v)))
    return 0


def _cmd_compare(args):
    x = tensorfile.read_tensor(args.infile)
    gs = parse_group_size(args.group_size)
    results = []
    for name in args.format.split(","):
        name = name.strip()
        cfg = config(name, args.scale, gs, args.axis)
        rep = analysis.error_decomposition(x, cfg)
        row = {"format": name, "scale_mode": args.scale,
               "group_size": "row" if gs is None else gs}
        row.update(rep.as_dict())
        results.append(row)
    if args.lloyd_ref:
        lcfg = lloydmax.LloydConfig(seed=args.seed)
        _, rep = lloydmax.reference_quantize(x, gs, lcfg, axis=args.axis)
        row = {"format": "lloydmax_reference", "scale_mode": "n/a",
               "group_size": "row" if gs is None else gs}
        row.update(rep.as_dict())
        results.append(row)
    stats = analysis.group_stats(x, gs, args.axis)
    report = {
        "input": args.infile,
        "stats": analysis.stats_summary(stats).as_dict(),
        "results": results,
    }
    _print_json(report, args.json_out)
    return 0


def _cmd_stats(args):
    x = tensorfile.read_tensor(args.infile)
    gs = parse_group_size(args.group_size)
    stats = analysis.group_stats(x, gs, args.axis)
    report = {"input": args.infile, "group_size": "row" if gs is None else gs}
    report.update(analysis.stats_summary(stats).as_dict())
    _print_json(report, args.json_out)
    return 0


def _cmd_rotate(args):
    x = tensorfile.read_tensor(args.infile)
    dim = x.shape[args.dim_axis]
    spec = rotation.make_rotation(dim, args.seed)
    y = rotation.rotate(x, spec, axis=args.dim_axis, transpose=args.transpose)
    if args.out:
        tensorfile.write_tensor(args.out, y)
    print(f"rotated dim={dim} seed={args.seed} transpose={args.transpose}")
    return 0


def _cmd_matmul(args):
    a = tensorfile.read_tensor(args.infile)
    b = tensorfile.read_tensor(args.in_b)
    gs = parse_group_size(args.group_size)
    cfg_a = config(args.format, args.scale, gs, axis=-1)
    cfg_b = config(args.format_b or args.format, args.scale, gs, axis=0)
    out = gemm.matmul(a, b, cfg_a, cfg_b)
    if args.out:
        tensorfile.write_tensor(args.out, out)
    return 0


def _cmd_lloydmax(args):
    x = tensorfile.read_tensor(args.infile)
    gs = parse_group_size(args.group_size)
    lcfg = lloydmax.LloydConfig(args.clusters, args.iters, args.levels, args.seed)
    y, rep = lloydmax.reference_quantize(x, gs, lcfg, axis=args.axis, init=args.init)
    if args.out:
        tensorfile.write_tensor(args.out, y)
    report = {
        "input": args.infile,
        "group_size": "row" if gs is None else gs,
        "clusters": args.clusters,
        "iters": args.iters,
        "levels": args.levels,
        "seed": args.seed,
        "init": args.init,
        "mse": rep.mse,
    }
    _print_json(report, args.json_out)
    return 0


_COMMANDS = {
    "quantize": _cmd_quantize,
    "compare": _cmd_compare,
    "stats": _cmd_stats,
    "rotate": _cmd_rotate,
    "matmul": _cmd_matmul,
    "lloydmax": _cmd_lloydmax,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TensorFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

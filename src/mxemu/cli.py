"""Command-line front end.

Subcommands: quantize, compare, stats, rotate, matmul, lloydmax. The options
that several subcommands read are declared once, in _SHARED, and each
subcommand declares only the options its handler reads. Exit codes are
stable across commands: 0 success, 1 data error, 2 I/O error, 3 config
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
from .quantizer import config, dequantize, group_view, parse_group_size, quantize


_SHARED = {
    "--in": dict(dest="infile", required=True, help="input tensor file (.npy or .csv)"),
    "--format": dict(required=True, help="element format name (append _asym for asymmetric)"),
    "--scale": dict(default="pot_floor", help="shared-scale mode name"),
    "--group-size": dict(default="row", help='group size or "row"'),
    "--axis": dict(type=int, default=-1, help="quantization axis"),
    "--out": dict(help="output tensor file"),
    "--seed": dict(type=int, default=0, help="random seed"),
    "--json": dict(dest="json_out", help="write the JSON report to a file"),
}


def _parser():
    ap = argparse.ArgumentParser(prog="mxemu", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, shared, summary):
        """A subcommand that reads the named shared options and runs
        run(x, args) on the tensor that --in names."""
        p = sub.add_parser(name, help=summary)
        for opt in ["--in", *shared.split()]:
            p.add_argument(opt, **_SHARED[opt])
        p.set_defaults(run=lambda args: run(tensorfile.read_tensor(args.infile), args))
        return p

    p = command("quantize", _cmd_quantize, "--format --scale --group-size --axis --out",
                "quantize-dequantize a tensor")
    p.add_argument("--dump-unique", action="store_true", help="print sorted distinct output values")
    p.add_argument("--dump-q", help="also write the quantized container (MXQ1)")

    p = command("compare", _cmd_compare, "--format --scale --group-size --axis --seed --json",
                "per-format error report on one tensor")
    p.add_argument("--lloyd-ref", action="store_true", help="append a Lloyd-Max reference row")

    command("stats", _cmd_stats, "--group-size --axis --json", "group mean/kurtosis summary")

    p = command("rotate", _cmd_rotate, "--out --seed", "randomized Hadamard rotation")
    p.add_argument("--dim-axis", type=int, default=-1, help="axis carrying the rotation dimension")
    p.add_argument("--transpose", action="store_true", help="apply the transpose (inverse) rotation")

    p = command("matmul", _cmd_matmul, "--format --scale --group-size --out",
                "emulated reduced-precision matrix multiply")
    p.add_argument("--in-b", required=True, help="right-hand matrix file")
    p.add_argument("--format-b", help="format for the right operand (default: --format)")

    p = command("lloydmax", _cmd_lloydmax, "--group-size --axis --out --seed --json",
                "cluster-wise Lloyd-Max reference quantizer")
    p.add_argument("--clusters", type=int, default=16)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--levels", type=int, default=16)
    p.add_argument("--init", choices=["quantile", "format_grid"], default="quantile",
                   help="quantile: best of quantile, uniform and seeded k-means++ starts; "
                        "format_grid: start from the AMXFP4 grid of each cluster")
    return ap


def _report(args, **fields) -> int:
    """Print a command's JSON report on its input, and write it to --json if given."""
    text = json.dumps({"input": args.infile, **fields}, indent=2, sort_keys=True)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _gs_label(gs):
    return "row" if gs is None else gs


def _cmd_quantize(x, args):
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


def _cmd_compare(x, args):
    gs = parse_group_size(args.group_size)
    results = []
    for name in args.format.split(","):
        name = name.strip()
        rep = analysis.error_decomposition(x, config(name, args.scale, gs, args.axis))
        results.append({"format": name, "scale_mode": args.scale, "group_size": _gs_label(gs),
                        **rep.as_dict()})
    if args.lloyd_ref:
        lcfg = lloydmax.LloydConfig(seed=args.seed)
        _, rep = lloydmax.reference_quantize(x, gs, lcfg, axis=args.axis)
        results.append({"format": "lloydmax_reference", "scale_mode": "n/a",
                        "group_size": _gs_label(gs), **rep.as_dict()})
    stats = analysis.group_stats(x, gs, args.axis)
    return _report(args, stats=analysis.stats_summary(stats).as_dict(), results=results)


def _cmd_stats(x, args):
    gs = parse_group_size(args.group_size)
    stats = analysis.group_stats(x, gs, args.axis)
    return _report(args, group_size=_gs_label(gs), **analysis.stats_summary(stats).as_dict())


def _cmd_rotate(x, args):
    dim = group_view(x, None, args.dim_axis)[2]
    spec = rotation.make_rotation(dim, args.seed)
    y = rotation.rotate(x, spec, axis=args.dim_axis, transpose=args.transpose)
    if args.out:
        tensorfile.write_tensor(args.out, y)
    print(f"rotated dim={dim} seed={args.seed} transpose={args.transpose}")
    return 0


def _cmd_matmul(a, args):
    b = tensorfile.read_tensor(args.in_b)
    cfg_a = config(args.format, args.scale, args.group_size)
    cfg_b = config(args.format_b or args.format, args.scale, args.group_size)
    out = gemm.matmul(a, b, cfg_a, cfg_b)
    if args.out:
        tensorfile.write_tensor(args.out, out)
    return 0


def _cmd_lloydmax(x, args):
    gs = parse_group_size(args.group_size)
    lcfg = lloydmax.LloydConfig(args.clusters, args.iters, args.levels, args.seed)
    y, rep = lloydmax.reference_quantize(x, gs, lcfg, axis=args.axis, init=args.init)
    if args.out:
        tensorfile.write_tensor(args.out, y)
    return _report(args, group_size=_gs_label(gs), clusters=args.clusters, iters=args.iters,
                   levels=args.levels, seed=args.seed, init=args.init, mse=rep.mse)


_EXIT_CODES = {DataError: 1, TensorFileError: 2, OSError: 2, ConfigError: 3}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())

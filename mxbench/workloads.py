"""The mxemu benchmark workloads: inputs, ops, output checks, replays.

Each workload generates its inputs from the run's seed, exposes one cycle of
ops (one pass over everything the workload does), checks every op's output,
and can replay from outside the layer calls that its ops make inside mxemu,
so that a traced run can time the layers without touching the program.

Only public mxemu names are used. Names that the roadmap plans to remove
(gemm.reference_matmul, quantizer._grouped, scaling.group_scale and
scaling.asym_scales) are avoided, and so are the configs whose bits a pending
defect fix will change: the fp32 scale mode, codebook formats and lloydmax.
"""

from __future__ import annotations

import contextlib
import io
import os
import tracemalloc
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from mxemu import analysis, cli, formats, gemm, rotation, scaling, tensorfile
from mxemu.quantizer import config, dequantize, quantize

import golden
from inputs import GS, seeded_activation

FULL = {"rows": 1024, "cols": 4096, "m": 256, "k": 2048, "n": 256}
TINY = {"rows": 16, "cols": 256, "m": 8, "k": 128, "n": 8}
SAMPLED_GROUPS = 64
SAMPLED_ENTRIES = 64

QUANT_SWEEP = [
    ("fp4_e2m1", "pot_floor", 32),
    ("fp4_e2m1_asym", "fp8e5m2", 32),
    ("fp4_e2m1", "nvfp4_double", 16),
    ("fp6_e2m3_asym", "pot_round", 32),
    ("fp8_e4m3", "pot_floor", 32),
    ("int4_asym", "pot_floor", 32),
]
AMXFP4 = ("fp4_e2m1_asym", "fp8e5m2", 32)
MXFP4 = ("fp4_e2m1", "pot_floor", 32)
MXFP8 = ("fp8_e4m3", "pot_floor", 32)


class CheckError(Exception):
    """An op's output differs from what the benchmark expects."""


@dataclass
class Op:
    name: str
    elems: int
    run: Callable  # (tracer) -> output
    check: Callable  # (output) -> None, raises CheckError


def grouped(x, cfg):
    """View x as (..., n_groups, group_size) along cfg.axis."""
    moved = np.moveaxis(np.asarray(x, dtype=float), cfg.axis, -1)
    gs = moved.shape[-1] if cfg.group_size is None else cfg.group_size
    return moved.reshape(*moved.shape[:-1], moved.shape[-1] // gs, gs)


# ---- the quantizer contract, rebuilt from public layer calls ----------------

def stored_scales(xg, cfg, tensor_amax):
    """Per-group (pos, neg) scales and tensor scale, as quantize stores them."""
    mode, fmt = cfg.scale_mode, cfg.fmt
    if cfg.asymmetric:
        amaxes = (np.maximum(xg.max(-1), 0.0), np.maximum(-xg.min(-1), 0.0))
    else:
        amaxes = (np.abs(xg).max(-1),)
    if mode.kind == "double":
        pairs = [scaling.nvfp4_scales(tensor_amax, a, fmt) for a in amaxes]
        scales = [s for _, s in pairs]
        tensor_scale = pairs[0][0]
    else:
        rule = {
            "pot_floor": lambda a: scaling.pot_floor_scale(a, fmt),
            "pot_round": lambda a: scaling.pot_round_scale(a, fmt),
            "fp": lambda a: scaling.fp_scale(a, fmt, mode.scale_fmt),
        }[mode.kind]
        scales = [rule(a) for a in amaxes]
        tensor_scale = None
    pos, neg = scales[0], scales[-1]
    degenerate = int(np.logical_or.reduce([a == 0 for a in amaxes]).sum())
    return np.asarray(pos, float), np.asarray(neg, float), tensor_scale, degenerate


def side_scales(xg, pos, neg, tensor_scale):
    """Scale each element of xg divides by: its group's scale for its sign."""
    ts = 1.0 if tensor_scale is None else tensor_scale
    return np.where(xg >= 0, (pos * ts)[..., None], (neg * ts)[..., None])


def zero_point_oracle(xg, fmt):
    """Zero-point INT codes, scales and clamp count, per the quantizer docs."""
    q_max = 2**fmt.total_bits - 1
    lo, hi = xg.min(-1), xg.max(-1)
    span = hi - lo
    ref = np.where(span > 0, span, np.maximum(np.abs(hi), 1.0))
    scale = (ref / q_max).astype(np.float32).astype(np.float64)
    zp = np.round(-np.where(span > 0, lo, np.minimum(hi, 0.0)) / scale)
    raw = np.round(xg / scale[..., None]) + zp[..., None]
    clamped = int(((raw < 0) | (raw > q_max)).sum())
    all_zero = (span == 0) & (hi == 0)
    codes = np.where(all_zero[..., None], 0.0, np.clip(raw, 0, q_max)).astype(np.uint8)
    scales = np.stack([scale, np.where(all_zero, 0.0, zp)], axis=-1)
    return codes, scales, clamped


def nearest_on_grid(v, fmt):
    """Brute-force nearest grid value, ties to the even code, beyond max clamps."""
    g = formats.grid(fmt)
    even = (formats.encode(g, fmt) & 1) == 0
    d = np.abs(v.reshape(-1, 1) - g[None, :])
    cand = d == d.min(axis=1, keepdims=True)
    pick = np.where((cand & even).any(1), np.argmax(cand & even, 1), np.argmax(cand, 1))
    return g[pick].reshape(v.shape)


def check_sampled_groups(x, cfg, q, y, rows, cols, tensor_amax):
    """Check codes, scales and output of a few groups against the oracles."""
    xg = grouped(x, cfg)[rows, cols]
    qg = q.codes.reshape(grouped(x, cfg).shape)[rows, cols]
    yg = grouped(y, cfg)[rows, cols]
    sg = q.scales[rows, cols]
    if cfg.uses_zero_point:
        codes, scales, _ = zero_point_oracle(xg, cfg.fmt)
        if not (np.array_equal(codes, qg) and np.array_equal(scales, sg)):
            raise CheckError(f"{cfg.label()}: zero-point codes or scales differ")
        expect_y = (codes - scales[..., 1:]) * scales[..., :1]
    else:
        pos, neg, ts, _ = stored_scales(xg, cfg, tensor_amax)
        if not (np.array_equal(sg[..., 0], pos) and np.array_equal(sg[..., 1], neg)
                and q.tensor_scale == ts):
            raise CheckError(f"{cfg.label()}: scales differ from the scaling rule")
        vals = nearest_on_grid(xg / side_scales(xg, pos, neg, ts), cfg.fmt)
        if not np.array_equal(formats.decode(qg, cfg.fmt), vals):
            raise CheckError(f"{cfg.label()}: codes are not the nearest-even grid values")
        expect_y = vals * np.where(vals < 0, neg[..., None], pos[..., None])
        if ts is not None:
            expect_y = expect_y * ts
    if not np.array_equal(yg, expect_y):
        raise CheckError(f"{cfg.label()}: dequantized values differ")


def replay_quantize(tr, x, cfg, q):
    """Replay the layer calls quantize(x, cfg) makes; its codes must equal q's."""
    xg = grouped(x, cfg)
    tr.count("quantizer.elems", xg.size)
    tr.count("quantizer.groups", xg.size // xg.shape[-1])
    if cfg.uses_zero_point:
        codes, _, clamped = zero_point_oracle(xg, cfg.fmt)
        tr.count("quantizer.clamped_elems", clamped)
    else:
        with tr.span("scaling.scale"):
            tensor_amax = float(np.abs(xg).max()) if cfg.scale_mode.kind == "double" else None
            pos, neg, ts, degenerate = stored_scales(xg, cfg, tensor_amax)
        v = xg / side_scales(xg, pos, neg, ts)
        with tr.span("formats.round_to_grid"):
            vals = formats.round_to_grid(v, cfg.fmt)
        with tr.span("formats.encode"):
            codes = formats.encode(vals, cfg.fmt)
        with tr.span("formats.decode"):
            formats.decode(codes, cfg.fmt)
        tr.count("scaling.groups", pos.size)
        tr.count("scaling.degenerate_groups", degenerate)
        tr.count("formats.elems", v.size)
        tr.count("quantizer.clamped_elems", int((np.abs(v) > formats.max_normal(cfg.fmt)).sum()))
    if not np.array_equal(codes.reshape(q.codes.shape), q.codes):
        raise CheckError(f"{cfg.label()}: replayed codes differ from quantize's codes")


def expect_golden(key, value):
    want = golden.recorded().get(key)
    if value != want:
        raise CheckError(f"{key}: digest {value} != recorded {want}")


# ---- workloads --------------------------------------------------------------

class Workload:
    """One workload; subclasses fill in inputs, ops and checks."""

    name = ""
    probes_per_cycle = 0

    def __init__(self, dims, tmp):
        self.dims = dims
        self.tmp = tmp
        self._reference = {}

    def setup(self, rng):
        """Generate the inputs and write the input files."""
        raise NotImplementedError

    def prepare_checks(self, rng):
        """Compute what the checks compare against (not timed)."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def quant_jobs(self):
        """The (tensor, config) pairs that one cycle of ops quantizes."""
        return []

    def probes(self, tally, tr):
        """Untimed calls run after each cycle; each one counts as attempted."""

    def replay_extra(self, tr):
        """Layer replays and counts beyond the quantize replay (traced runs)."""

    def same_as_before(self, key, value):
        """Every op of one kind must give the same output within a run."""
        if self._reference.setdefault(key, value) != value:
            raise CheckError(f"{key}: output differs from the first run of this op")

    def path(self, name):
        return os.path.join(self.tmp, name)


class QuantSweep(Workload):
    """quantize then dequantize one activation under each config in turn."""

    name = "quant_sweep"

    def setup(self, rng):
        self.x = seeded_activation(rng, self.dims["rows"], self.dims["cols"])
        self.cfgs = [config(*c) for c in QUANT_SWEEP]

    def prepare_checks(self, rng):
        most_groups = self.x.shape[1] // min(cfg.group_size for cfg in self.cfgs)
        self.rows = rng.integers(0, self.x.shape[0], SAMPLED_GROUPS)
        self.cols = rng.integers(0, most_groups, SAMPLED_GROUPS)
        self.rows[:3], self.cols[:3] = 0, (0, 1, 2)
        self.tensor_amax = float(np.abs(self.x).max())

    def ops(self):
        return [Op(cfg.label(), self.x.size, self._runner(cfg), self._checker(cfg))
                for cfg in self.cfgs]

    def _runner(self, cfg):
        def run(tr):
            with tr.span("quantizer.quantize"):
                q = quantize(self.x, cfg)
            with tr.span("quantizer.dequantize"):
                y = dequantize(q)
            return q, y
        return run

    def _checker(self, cfg):
        def check(out):
            q, y = out
            expect_golden(f"quantize {cfg.label()}", golden.quantize_digest(cfg))
            self.same_as_before(cfg.label(), golden.digest(q.codes, q.scales, q.tensor_scale, y))
            cols = self.cols % (self.x.shape[1] // cfg.group_size)
            check_sampled_groups(self.x, cfg, q, y, self.rows, cols, self.tensor_amax)
        return check

    def quant_jobs(self):
        return [(self.x, cfg) for cfg in self.cfgs]


class Gemm(Workload):
    """Emulated matmul: rotated AMXFP4 in float64, and plain MXFP8 in float32."""

    name = "gemm"

    def setup(self, rng):
        m, k, n = self.dims["m"], self.dims["k"], self.dims["n"]
        self.a = seeded_activation(rng, m, k)
        self.b = np.ascontiguousarray(0.05 * seeded_activation(rng, n, k).T)
        self.rot = rotation.make_rotation(k, int(rng.integers(2**63)))
        self.amx, self.mx8 = config(*AMXFP4), config(*MXFP8)
        self.f32 = gemm.AccumSpec("float32")
        self.elems = self.a.size + self.b.size

    def ops(self):
        return [Op("matmul rotated amxfp4 f64", self.elems, self._run_rotated, self._checker(0)),
                Op("matmul mxfp8 f32", self.elems, self._run_plain, self._checker(1))]

    def _rotate(self):
        return (rotation.rotate(self.a, self.rot, axis=-1),
                rotation.rotate(self.b, self.rot, axis=0))

    def _run_rotated(self, tr):
        with tr.span("rotation.rotate"):
            a, b = self._rotate()
        with tr.span("gemm.matmul"):
            return gemm.matmul(a, b, self.amx, self.amx)

    def _run_plain(self, tr):
        with tr.span("gemm.matmul"):
            return gemm.matmul(self.a, self.b, self.mx8, self.mx8, self.f32)

    def _operands(self):
        a_rot, b_rot = self._rotate()
        return [(a_rot, b_rot, self.amx, np.float64), (self.a, self.b, self.mx8, np.float32)]

    def prepare_checks(self, rng):
        m, n = self.dims["m"], self.dims["n"]
        self.i = rng.integers(0, m, SAMPLED_ENTRIES)
        self.j = rng.integers(0, n, SAMPLED_ENTRIES)
        self.expected = []
        for a, b, cfg, dtype in self._operands():
            da = dequantize(quantize(a, replace(cfg, axis=-1)))
            db = dequantize(quantize(b, replace(cfg, axis=0)))
            self.expected.append(_ordered_dot(da[self.i], db[:, self.j].T, GS, dtype))

    def _checker(self, which):
        def check(out):
            expect = self.expected[which]
            if out.shape != (self.dims["m"], self.dims["n"]) or out.dtype != expect.dtype:
                raise CheckError(f"matmul output is {out.dtype}{out.shape}")
            got = out[self.i, self.j]
            if not np.array_equal(got.view(f"u{got.itemsize}"), expect.view(f"u{got.itemsize}")):
                raise CheckError("matmul entries differ from the ordered recomputation")
        return check

    def quant_jobs(self):
        return [(x, replace(cfg, axis=axis))
                for a, b, cfg, _ in self._operands() for x, axis in ((a, -1), (b, 0))]

    def replay_extra(self, tr):
        m, k, n = self.dims["m"], self.dims["k"], self.dims["n"]
        peak = 0
        for a, b, cfg, dtype in self._operands():
            spec = self.f32 if dtype == np.float32 else gemm.AccumSpec()
            tracemalloc.start()
            try:
                gemm.matmul(a, b, cfg, cfg, spec)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        tr.count("gemm.matmul.peak_alloc_bytes", peak)
        tr.count("gemm.macs", 2 * m * n * k)
        tr.count("rotation.elems", self.elems)


def _ordered_dot(da_rows, db_cols, gs, dtype):
    """Row-pair dots summed in the oracle's order: sequential in a group,
    groups ascending, every partial in dtype. Matches a cumsum-based fold
    bit for bit, including the sign of a zero sum."""
    terms = (da_rows * db_cols).astype(dtype)
    acc = None
    for g0 in range(0, terms.shape[1], gs):
        part = terms[:, g0].copy()
        for t in range(g0 + 1, g0 + gs):
            part = part + terms[:, t]
        acc = part if acc is None else acc + part
    return acc


class Analysis(Workload):
    """What `mxemu compare` computes: MXFP4 vs AMXFP4 error and group stats.

    Traced runs also replay the file path of `mxemu quantize --dump-q` on the
    input, which is where the tensorfile and cli layers are measured.
    """

    name = "analysis"
    probes_per_cycle = 2

    def setup(self, rng):
        x = seeded_activation(rng, self.dims["rows"], self.dims["cols"])
        tensorfile.write_tensor(self.path("x.mxt"), x)
        # The probes only show whether the CLI call succeeds, so they read a
        # small corner of the input and leave the run's time to the ops.
        tensorfile.write_tensor(self.path("probe.mxt"), x[:16, :256])
        self.x = tensorfile.read_tensor(self.path("x.mxt"))
        self.cfgs = [config(*MXFP4), config(*AMXFP4)]

    def prepare_checks(self, rng):
        self.mse = {}
        for cfg in self.cfgs:
            err = self.x - dequantize(quantize(self.x, cfg))
            self.mse[cfg.label()] = float(np.mean(err * err))
        xg = self.x.reshape(-1, GS)
        centered = xg - xg.mean(1, keepdims=True)
        sigma = np.sqrt((centered**2).mean(1))
        ok = sigma > 0
        kurt = ((centered[ok] / sigma[ok, None]) ** 4).mean(1)
        self.five = {"mean": np.percentile(xg.mean(1), [0, 25, 50, 75, 100]),
                     "kurtosis": np.percentile(kurt, [0, 25, 50, 75, 100])}
        self.n_groups = xg.shape[0]

    def ops(self):
        ops = [Op(f"error_decomposition {cfg.label()}", self.x.size,
                  self._ed_runner(cfg), self._ed_checker(cfg)) for cfg in self.cfgs]
        ops.append(Op("group_stats + stats_summary", self.x.size, self._run_stats, self._check_stats))
        return ops

    def _ed_runner(self, cfg):
        def run(tr):
            with tr.span("analysis.error_decomposition"):
                return analysis.error_decomposition(self.x, cfg).as_dict()
        return run

    def _ed_checker(self, cfg):
        def check(rep):
            if rep["clamp_sq_error"] + rep["round_sq_error"] != rep["mse"] * self.x.size:
                raise CheckError(f"{cfg.label()}: clamp + round != mse * count")
            expect_golden(f"error_decomposition {cfg.label()}", golden.error_digest(cfg))
            self.same_as_before(cfg.label(), golden.digest(rep))
            if not np.isclose(rep["mse"], self.mse[cfg.label()], rtol=1e-9, atol=0.0):
                raise CheckError(f"{cfg.label()}: mse {rep['mse']} != {self.mse[cfg.label()]}")
        return check

    def _run_stats(self, tr):
        with tr.span("analysis.group_stats"):
            stats = analysis.group_stats(self.x, GS)
        with tr.span("analysis.stats_summary"):
            return analysis.stats_summary(stats).as_dict()

    def _check_stats(self, summary):
        expect_golden("stats_summary", golden.stats_digest())
        self.same_as_before("stats_summary", golden.digest(summary))
        if summary["n_groups"] != self.n_groups:
            raise CheckError(f"stats cover {summary['n_groups']} groups, not {self.n_groups}")
        for key, five in self.five.items():
            got = [summary[key][f] for f in ("min", "q1", "median", "q3", "max")]
            if not np.allclose(got, five, rtol=1e-9, atol=1e-12):
                raise CheckError(f"stats_summary {key} {got} != {list(five)}")

    def quant_jobs(self):
        return [(self.x, cfg) for cfg in self.cfgs]

    def probes(self, tally, tr):
        """`mxemu stats` and `mxemu compare` with --group-size 32."""
        for argv in (["stats", "--in", self.path("probe.mxt"), "--group-size", str(GS)],
                     ["compare", "--in", self.path("probe.mxt"), "--format", AMXFP4[0],
                      "--scale", AMXFP4[1], "--group-size", str(GS)]):
            tally.untimed("mxemu " + " ".join(argv[:1] + argv[3:]), lambda: run_cli(tr, argv))

    def replay_extra(self, tr):
        tr.count("analysis.groups", 3 * self.n_groups)
        argv = ["quantize", "--in", self.path("x.mxt"), "--format", AMXFP4[0],
                "--scale", AMXFP4[1], "--group-size", str(AMXFP4[2]),
                "--dump-q", self.path("x.mxq"), "--out", self.path("y.mxt")]
        with tr.span("cli.quantize"):
            run_cli(tr, argv)
        with tr.span("tensorfile.read_quantized"):
            q = tensorfile.read_quantized(self.path("x.mxq"))
        with tr.span("tensorfile.read_tensor"):
            y = tensorfile.read_tensor(self.path("y.mxt"))
        expect = quantize(self.x, config(*AMXFP4))
        if (q.shape != expect.shape or q.config != expect.config
                or q.tensor_scale != expect.tensor_scale
                or not np.array_equal(q.codes, expect.codes)
                or not np.array_equal(q.scales, expect.scales)):
            raise CheckError("read_quantized did not return what was written")
        if not np.array_equal(y, dequantize(q).astype(np.float32).astype(np.float64)):
            raise CheckError("y.mxt differs from the dequantized read-back")
        with tr.span("tensorfile.write_quantized"):
            tensorfile.write_quantized(self.path("replay.mxq"), expect)
        with tr.span("tensorfile.write_tensor"):
            tensorfile.write_tensor(self.path("replay.mxt"), self.x)
        tr.count("tensorfile.bytes", os.path.getsize(self.path("x.mxq")))
        tr.count("tensorfile.elems", self.x.size)


def run_cli(tr, argv):
    """One `mxemu` call, counted in cli.calls, and in cli.failed unless it exits 0."""
    tr.count("cli.calls", 1)
    rc = None
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    finally:
        if rc != 0:
            tr.count("cli.failed", 1)
    if rc != 0:
        raise RuntimeError(f"mxemu {argv[0]} exited with {rc}")


WORKLOADS = {w.name: w for w in (QuantSweep, Gemm, Analysis)}

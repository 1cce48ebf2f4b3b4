"""Run one mxemu workload for a fixed time and report its metrics.

A run sets the workload up SETUP_REPS times from its seed, runs one untimed
warm-up op, then runs whole cycles of the workload's ops (closed loop, one
caller) until --seconds have passed. Every op's output is checked. The last
line of standard output is the JSON result; the lines before it are a
human-readable report and the machine and settings record, which is also
written with the result to .mxbench_out/ in the checkout.

With --trace 0 the result holds the end-to-end metrics. With --trace 1 it
holds the per-layer metrics: spans are recorded around the benchmark's own
calls into each layer, the layer calls that quantize, matmul and the CLI
make are replayed from outside on the same arrays, and one untraced cycle
gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict

import numpy as np

from mxemu.quantizer import dequantize, quantize

from workloads import FULL, WORKLOADS, CheckError, replay_quantize

SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "throughput_melem_s": "Melem/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
    "op_ok_ratio": "ratio",
}

PER_LAYER = {
    "formats.round_to_grid.s": "s",
    "formats.encode.s": "s",
    "formats.decode.s": "s",
    "formats.melem_s": "Melem/s",
    "scaling.scale.s": "s",
    "scaling.groups_per_s": "1/s",
    "scaling.degenerate_groups": "count",
    "quantizer.quantize.s": "s",
    "quantizer.dequantize.s": "s",
    "quantizer.quantize.melem_s": "Melem/s",
    "quantizer.overhead_s": "s",
    "quantizer.groups": "count",
    "quantizer.clamped_elems": "count",
    "tensorfile.write_quantized.s": "s",
    "tensorfile.read_quantized.s": "s",
    "tensorfile.write_tensor.s": "s",
    "tensorfile.read_tensor.s": "s",
    "tensorfile.write_quantized.mb_s": "MB/s",
    "tensorfile.read_quantized.mb_s": "MB/s",
    "tensorfile.bytes": "B",
    "tensorfile.bytes_per_elem": "B/elem",
    "gemm.matmul.s": "s",
    "gemm.fold_s": "s",
    "gemm.macs": "count",
    "gemm.gmac_s": "GMAC/s",
    "gemm.matmul.peak_alloc_mb": "MB",
    "rotation.rotate.s": "s",
    "rotation.rotate.melem_s": "Melem/s",
    "analysis.error_decomposition.s": "s",
    "analysis.group_stats.s": "s",
    "analysis.stats_summary.s": "s",
    "analysis.groups_per_s": "1/s",
    "cli.quantize.s": "s",
    "cli.calls": "count",
    "cli.failed": "count",
    "trace.overhead_ratio": "ratio",
}

_OFF = contextlib.nullcontext()


class Tracer:
    """Spans (name, start, end, parent, cycle) kept in memory, plus counters.

    Counters are always kept; spans only when enabled. A span's cycle is the
    timed cycle it ran in, or "replay" for the layer replay after the loop.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counts = Counter()
        self.cycle = None
        self._stack = []

    def span(self, name):
        return self._span(name) if self.enabled else _OFF

    @contextlib.contextmanager
    def _span(self, name):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append(None)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            idx = self._stack.pop()
            self.spans[idx] = {"name": name, "start": start, "end": end,
                               "parent": parent, "cycle": self.cycle}

    def count(self, name, n):
        self.counts[name] += n

    def seconds(self, name):
        """Busy seconds in spans called name per cycle (median over cycles),
        or in the replay when no timed cycle has such spans."""
        per_cycle, replay = defaultdict(float), 0.0
        for s in self.spans:
            if s["name"] == name:
                if s["cycle"] == "replay":
                    replay += s["end"] - s["start"]
                else:
                    per_cycle[s["cycle"]] += s["end"] - s["start"]
        return statistics.median(per_cycle.values()) if per_cycle else replay


class Tally:
    """Attempted and failed ops, and the time and size of each good op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.errors = Counter()
        self.times = defaultdict(list)
        self.elems = 0

    def run(self, op, tr, corrupt=None):
        """Time one op, check its output and record the outcome."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tr.span("op " + op.name):
                out = op.run(tr)
        except Exception:  # the run goes on; the failure is counted and reported
            self._error(op.name)
            return None
        dt = time.perf_counter() - t0
        if corrupt is not None:
            corrupt(out)
        if self.verify(op.name, lambda: op.check(out)):
            self.times[op.name].append(dt)
            self.elems += op.elems
        return dt

    def verify(self, name, check, attempt=True):
        """Run a check; a wrong output makes the run incorrect and, when the
        check belongs to an attempted op, counts that op as failed."""
        try:
            check()
            return True
        except CheckError as exc:
            self.failed += attempt
            self.wrong.append(f"{name}: {exc}")
            return False

    def untimed(self, name, call):
        """An untimed attempt (a probe or a replay): counted as failed if it
        raises or fails a check."""
        self.attempted += 1
        try:
            self.verify(name, call)
        except Exception:  # counted and reported like a failed op
            self._error(name)

    def _error(self, name):
        self.failed += 1
        exc = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        key = f"{name}: {exc}"
        if key not in self.errors:
            print(f"op failed: {key}", file=sys.stderr)
        self.errors[key] += 1


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def run(workload, seed, seconds, trace, dims=FULL, corrupt=None, import_s=0.0,
        root="."):
    """Run one workload; returns (result dict, record dict, spans).

    corrupt, when given, is applied to the first timed op's output before
    its check, so tests can show that a wrong output is counted.
    """
    scratch = os.path.join(root, ".mxbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        return _run(WORKLOADS[workload](dims, tmp), seed, seconds, trace, corrupt, import_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(wl, seed, seconds, trace, corrupt, import_s):
    reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup(np.random.default_rng(seed))
        reps.append(time.perf_counter() - t0)
    ops = wl.ops()
    tally = Tally()
    t0 = time.perf_counter()
    try:
        warm = ops[0].run(Tracer(False))
    except Exception:  # not an attempt; the timed runs of this op count the failure
        traceback.print_exc()
        warm = None
    warm_s = time.perf_counter() - t0
    setup_s = import_s + statistics.median(reps) + warm_s

    wl.prepare_checks(np.random.default_rng([seed, 1]))
    if warm is not None:
        tally.verify("warm-up " + ops[0].name, lambda: ops[0].check(warm), attempt=False)
    del warm

    untraced = {}
    if trace:
        for op in ops:
            untraced[op.name] = tally.run(op, Tracer(False))
        tally.times.clear()
        tally.elems = 0

    tr = Tracer(trace)
    cycles = 0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < seconds:
        tr.cycle = cycles
        for i, op in enumerate(ops):
            tally.run(op, tr, corrupt if cycles == 0 and i == 0 else None)
        wl.probes(tally, tr)
        cycles += 1

    times = [t for ts in tally.times.values() for t in ts]
    if trace:
        tr.cycle = "replay"
        _replay(wl, tr, tally)
        metrics = layer_metrics(tr, tally, untraced)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "throughput_melem_s": _rate(tally.elems, sum(times)) / 1e6,
            "op_s_p50": statistics.median(times) if times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "op_ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        }
        units = END_TO_END
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "dims": wl.dims,
        "setup_reps": SETUP_REPS,
        "setup_s_parts": {"import": import_s, "inputs_median": statistics.median(reps),
                          "warm_up_op": warm_s},
        "cycles": cycles,
        "ops_per_cycle": [op.name for op in ops],
        "probes_per_cycle": wl.probes_per_cycle,
        "timed_ops": {k: len(v) for k, v in tally.times.items()},
        "op_s_p50_samples": len(times),
        "op_s_p50_by_op": {k: statistics.median(v) for k, v in tally.times.items()},
        "op_fail_ratio": tally.failed / tally.attempted,
        "errors": dict(tally.errors),
        "wrong": tally.wrong,
        **machine(),
    }
    return result, record, tr.spans


def _replay(wl, tr, tally):
    """Replay from outside the layer calls one cycle of ops makes."""
    for x, cfg in wl.quant_jobs():
        with tr.span("quantizer.quantize"):
            q = quantize(x, cfg)
        with tr.span("quantizer.dequantize"):
            dequantize(q)
        tally.untimed(f"replay {cfg.label()}", lambda: replay_quantize(tr, x, cfg, q))
    tally.untimed(f"replay {wl.name} extras", lambda: wl.replay_extra(tr))


def layer_metrics(tr, tally, untraced):
    s, c = tr.seconds, tr.counts
    rtg, enc, dec = s("formats.round_to_grid"), s("formats.encode"), s("formats.decode")
    scale = s("scaling.scale")
    qz, dq = s("quantizer.quantize"), s("quantizer.dequantize")
    wq, rq = s("tensorfile.write_quantized"), s("tensorfile.read_quantized")
    mm, rot = s("gemm.matmul"), s("rotation.rotate")
    ed, gs, ss = (s("analysis.error_decomposition"), s("analysis.group_stats"),
                  s("analysis.stats_summary"))
    traced = sum(statistics.median(v) for k, v in tally.times.items() if k in untraced)
    baseline = sum(t for k, t in untraced.items() if k in tally.times and t)
    return {
        "formats.round_to_grid.s": rtg,
        "formats.encode.s": enc,
        "formats.decode.s": dec,
        "formats.melem_s": _rate(c["formats.elems"], rtg + enc + dec) / 1e6,
        "scaling.scale.s": scale,
        "scaling.groups_per_s": _rate(c["scaling.groups"], scale),
        "scaling.degenerate_groups": c["scaling.degenerate_groups"],
        "quantizer.quantize.s": qz,
        "quantizer.dequantize.s": dq,
        "quantizer.quantize.melem_s": _rate(c["quantizer.elems"], qz) / 1e6,
        "quantizer.overhead_s": qz - (scale + rtg + enc),
        "quantizer.groups": c["quantizer.groups"],
        "quantizer.clamped_elems": c["quantizer.clamped_elems"],
        "tensorfile.write_quantized.s": wq,
        "tensorfile.read_quantized.s": rq,
        "tensorfile.write_tensor.s": s("tensorfile.write_tensor"),
        "tensorfile.read_tensor.s": s("tensorfile.read_tensor"),
        "tensorfile.write_quantized.mb_s": _rate(c["tensorfile.bytes"], wq) / 1e6,
        "tensorfile.read_quantized.mb_s": _rate(c["tensorfile.bytes"], rq) / 1e6,
        "tensorfile.bytes": c["tensorfile.bytes"],
        "tensorfile.bytes_per_elem": _rate(c["tensorfile.bytes"], c["tensorfile.elems"]),
        "gemm.matmul.s": mm,
        "gemm.fold_s": mm - (qz + dq) if mm else 0.0,
        "gemm.macs": c["gemm.macs"],
        "gemm.gmac_s": _rate(c["gemm.macs"], mm) / 1e9,
        "gemm.matmul.peak_alloc_mb": c["gemm.matmul.peak_alloc_bytes"] / 1e6,
        "rotation.rotate.s": rot,
        "rotation.rotate.melem_s": _rate(c["rotation.elems"], rot) / 1e6,
        "analysis.error_decomposition.s": ed,
        "analysis.group_stats.s": gs,
        "analysis.stats_summary.s": ss,
        "analysis.groups_per_s": _rate(c["analysis.groups"], ed + gs + ss),
        "cli.quantize.s": s("cli.quantize"),
        "cli.calls": c["cli.calls"],
        "cli.failed": c["cli.failed"],
        "trace.overhead_ratio": _rate(traced, baseline),
    }


def machine():
    """Machine and settings the numbers were measured with."""
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
            cpu = names[0] if names else cpu
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def report(result, record):
    """Human-readable lines: every metric with its unit, then the facts."""
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"cycles {record['cycles']}  op_s_p50 samples {record['op_s_p50_samples']}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'op_fail_ratio':34s} {record['op_fail_ratio']:.6g} ratio")
    for line, n in record["errors"].items():
        lines.append(f"  failed {n}x: {line}")
    for line in record["wrong"]:
        lines.append(f"  wrong: {line}")
    return "\n".join(lines)


def main(argv=None, import_s=0.0, root="."):
    ap = argparse.ArgumentParser(prog="mxbench", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, record, spans = run(args.workload, args.seed, args.seconds, bool(args.trace),
                                import_s=import_s, root=root)
    out = os.path.join(root, ".mxbench_out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"record": record, "result": result, "spans": spans}, fh)
    print(report(result, record))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0

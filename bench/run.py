#!/usr/bin/env python3
"""End-to-end benchmark of sigmine: three closed-loop workloads.

    python3 bench/run.py --workload mushroom-mine --seed 0 --seconds 45 --trace 0

One client in one process starts each op only after the previous one has
finished.  The program is imported from `src/` next to this directory, so
the benchmark runs from any checkout without installing anything.

A run measures set-up (`setup_s`: the median over SETUP_REPEATS fresh
processes, each from process start to an imported sigmine and a built
instance), runs the brute-force oracle gate, warms up, then times ops for
`--seconds`.  The host's speed drifts, so a fixed reference kernel
(`reference.py`) is timed before and after every set-up process and every
op, and the reported times are rescaled to its nominal speed; the raw wall
times are printed next to them.  The run keeps to one CPU, so that the kernel
and the ops it gauges share that CPU's speed.  Every op's output is checked; a failed op is one that raises,
exits non-zero or fails its check.  With `--trace 1` the run instead times
half its ops untraced and half with spans around the calls into each
sigmine module, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it repeat the
numbers for a reader, with sample counts, the tail percentile, the machine
and the layers only some workloads exercise.  The exit code is 0 when every
op and gate passed, 1 otherwise, and 2 when there is no sigmine to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
PINS = BENCH / "pins.json"
OUT = BENCH / "out"

SETUP_REPEATS = 5
ORACLE_INSTANCES = 200
PINNED_SEED = 0

WORKLOADS = ("mushroom-mine", "sweep-methods", "null-calibration")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEED,
                        help="workload seed; 0 is the pinned instance")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small instances, for the benchmark's own smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    if not (SRC / "sigmine" / "__init__.py").is_file():
        print("bench: no sigmine sources under src/", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    return workloads


@contextmanager
def workdir():
    """Scratch directory inside the checkout, removed afterwards."""
    path = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup_samples(args) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import sigmine and build the
    instance, as measured and rescaled to the reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples, drift = [], reference.Drift()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        samples.append(time.perf_counter() - t0)
        drift.after_op()
    return samples, drift.rescale(samples)


def pin_to_one_cpu() -> int:
    """Keep this process, and the threads and processes it starts, on one CPU.

    The host's CPUs drift in speed independently, and a thread that moves
    between them is gauged on one and timed on both.  sigmine's searches
    hold the GIL, so a second CPU adds no throughput to an op.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_pin(name: str, seed: int, tiny: bool) -> dict | None:
    if seed != PINNED_SEED:
        return None
    return json.loads(PINS.read_text())[name]["tiny" if tiny else "full"]


class Loop:
    """The closed loop: op inputs, timings and outcomes across phases."""

    def __init__(self, workload):
        self.workload = workload
        self.index = 0
        self.failed = 0
        self.first_error: str | None = None

    def one(self, call) -> tuple[float, bool]:
        x = self.workload.prepare(self.index)
        t0 = time.perf_counter()
        try:
            result = call(x)
        except Exception:
            elapsed, ok = time.perf_counter() - t0, False
            self.first_error = self.first_error or traceback.format_exc()
        else:
            elapsed = time.perf_counter() - t0
            try:
                ok = bool(self.workload.check(self.index, result))
            except Exception:
                ok = False
                self.first_error = self.first_error or traceback.format_exc()
        self.index += 1
        return elapsed, ok

    def run(self, seconds: float, min_ops: int, call,
            drift: reference.Drift | None = None) -> list[float]:
        """Ops for `seconds`; a `drift` times the reference kernel between them."""
        times = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or len(times) < min_ops:
            elapsed, ok = self.one(call)
            times.append(elapsed)
            self.failed += not ok
            if drift is not None:
                drift.after_op()
        return times


def tail(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    ordered = sorted(times)
    for q in TAIL_PERCENTILES:
        beyond = int(n * (100.0 - q) / 100.0)
        if beyond >= 10:
            value = ordered[min(n - 1, n - beyond)]
            return f"p{q:g}={value!r} s ({beyond} of {n} samples beyond)"
    return f"n/a ({n} samples, fewer than 10 beyond p50)"


def machine() -> str:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__}")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args, pin) -> tuple[dict, list[str]]:
    """One benchmark invocation; returns the result object and report lines."""
    cpu = pin_to_one_cpu()  # before numpy starts any threads
    wl = import_workloads()
    from sigmine.suites import suite_oracle

    lines = [f"pinned to cpu {cpu} of {os.cpu_count()}"]
    setup, setup_norm = ([], []) if args.trace else setup_samples(args)
    with workdir() as scratch:
        workload = wl.WORKLOADS[args.workload](args.seed, args.tiny, scratch, pin)
        lines.append(f"workload {workload.name} seed={args.seed}: {workload.config}")
        lines.append(f"machine: {machine()}")
        oracle = suite_oracle(20 if args.tiny else ORACLE_INSTANCES)
        gates = [("oracle", oracle.ok, f"{oracle.summary}")]

        loop = Loop(workload)
        loop.run(0.0, workload.warmup, workload.op)
        warm_failed, loop.failed = loop.failed, 0
        gates.append(("warm-up ops", warm_failed == 0, f"{workload.warmup} ops"))

        if args.trace:
            metrics, times = traced(args, workload, loop, lines)
        else:
            drift = reference.Drift()
            times = loop.run(args.seconds, 1, workload.op, drift)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            norm = drift.rescale(times)
            metrics = {
                "setup_s": metric(statistics.median(setup_norm), "s"),
                "op_norm_s.p50": metric(statistics.median(norm), "s"),
                "peak_rss_mb": metric(rss_mb, "MB"),
            }
            lines.append(f"reference kernel: nominal {reference.NOMINAL_S} s, median "
                         f"{statistics.median(drift.gauges)!r} s over "
                         f"{len(drift.gauges)} passes between ops")
            lines.append(f"setup_s rescaled: {setup_norm}")
            lines.append(f"setup_s wall: {setup}")
            lines.append(f"op_norm_s: p50={statistics.median(norm)!r} s, tail {tail(norm)}")
            lines.append(f"op_s wall: p50={statistics.median(times)!r} s, tail {tail(times)}")
        try:
            gates += workload.gates()
        except Exception:
            gates.append(("workload gates", False, traceback.format_exc()))
        if loop.first_error:
            lines.append(f"first failure:\n{loop.first_error}")
        lines.append(f"failed_frac: {loop.failed}/{len(times)} = {loop.failed / len(times)!r}")
        for name, ok, detail in gates:
            lines.append(f"gate {name}: {'ok' if ok else 'FAILED'} ({detail})")
        try:
            lines.append(f"pin: {json.dumps(workload.observed(), sort_keys=True)}")
        except Exception:
            lines.append("pin: unavailable")
    correct = loop.failed == 0 and all(ok for _, ok, _ in gates)
    result = {"correct": correct, "attempted": len(times), "failed": loop.failed,
              "metrics": metrics}
    return result, lines


def traced(args, workload, loop, lines) -> tuple[dict, list[float]]:
    """Half the time untraced, half traced, then one pass under tracemalloc."""
    import layers
    from spans import Tracer

    half = args.seconds / 2
    plain_drift = reference.Drift()
    plain = loop.run(half, 1, workload.op, plain_drift)
    tracer = Tracer()
    roots: list[int] = []

    def traced_op(x):
        roots.append(len(tracer.spans))
        return tracer.call(layers.ROOT, workload.op, (x,))

    traced_drift = reference.Drift()
    layers.install(tracer)
    try:
        traced_times = loop.run(half, workload.cycle, traced_op, traced_drift)
    finally:
        tracer.restore()
    measured: list[float] = []
    peak = layers.peak_alloc_mb(
        lambda: measured.extend(loop.run(0.0, min(workload.cycle, 2), workload.op))
    )

    values, extra, by_layer, op_mean = layers.summarize(
        tracer.spans, roots, workload.cycle, getattr(workload, "permutations", None)
    )
    values["search.peak_alloc_mb"] = peak
    # both halves rescaled, so that the host's drift between them cancels
    overhead = (statistics.median(traced_drift.rescale(traced_times))
                / statistics.median(plain_drift.rescale(plain)) - 1.0)
    values["trace.overhead_frac"] = overhead
    metrics = {name: metric(values[name], unit) for name, unit in layers.PER_LAYER.items()}

    lines.append(f"op_s untraced: p50={statistics.median(plain)!r} s over {len(plain)} ops; "
                 f"traced: p50={statistics.median(traced_times)!r} s over "
                 f"{len(traced_times)} ops; trace.overhead_frac={overhead!r}")
    covered = sum(t for name, t in by_layer.items() if name != "bench")
    lines.append(f"layer self time per traced op (mean op {op_mean!r} s; layers cover "
                 f"{covered / op_mean:.4f} of it, harness {by_layer.get('bench', 0.0)!r} s):")
    for name, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<10} {t!r} s  {t / op_mean:.4f}")
    for name, v in values.items():
        lines.append(f"  {name} = {v!r} {layers.PER_LAYER[name]}")
    for name, v in extra.items():
        lines.append(f"  {name} = {v!r}")

    OUT.mkdir(exist_ok=True)
    first_ops = roots[3] if len(roots) > 3 else len(tracer.spans)
    (OUT / f"trace-{workload.name}-seed{args.seed}.json").write_text(json.dumps({
        "per_layer": values, "workload_specific": extra, "layer_self_s": by_layer,
        "spans_of_first_ops": [
            [s.name, s.start, s.end, s.parent, list(s.counts)]
            for s in tracer.spans[:first_ops]
        ],
    }, indent=1))
    return metrics, plain + traced_times + measured


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        wl = import_workloads()
        with workdir() as scratch:
            wl.WORKLOADS[args.workload](args.seed, args.tiny, scratch, None)
        return 0
    result, lines = run(args, load_pin(args.workload, args.seed, args.tiny))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

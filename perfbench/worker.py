"""One benchmark process: set up a workload, run it as a closed loop with one
caller, check its outputs, and print one JSON line for run.py to read.

Modes:
  setup  set the workload up and report the set-up time only
  timed  run untraced ops for --seconds and report latencies, throughput and
         the op cost relative to a reference kernel timed between slices
  trace  alternate untraced and traced blocks of the same ops for --seconds
         and report per-layer metrics and the tracing overhead

run.py starts this with `src/` on PYTHONPATH and BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

# numpy is part of the interpreter + numpy floor, and the other modules are
# the harness's own: all are imported before the set-up clock starts, so that
# set-up times fourphoton's import and the workload's inputs only.
import hashlib  # noqa: F401
import importlib.util  # noqa: F401
import shutil  # noqa: F401

import numpy as np

import spans

# Latency buffer of (wall, CPU) seconds per op, allocated and written before
# set-up so that it adds the same amount to peak RSS however many ops a run
# completes. A run stops at MAX_OPS.
MAX_OPS = 1 << 20

# A timed run alternates slices of ops (until SLICE_S has passed) with
# REF_CALLS calls of reference_kernel, so that the host's speed is measured
# next to every slice.
SLICE_S = 0.2
REF_CALLS = 20
_REF_A = np.array([[0.6, 0.8], [-0.8, 0.6]])  # orthogonal, so x stays bounded
_REF_X = np.eye(4)
_REF_V = np.exp(1j * np.arange(16.0))
_REF_H = np.add.outer(np.arange(16.0), np.arange(16.0)) + np.diag(np.arange(16.0))


def reference_kernel() -> float:
    """Fixed work that does not touch fourphoton, in the mix the package's ops
    make: small Kronecker and matrix products (interpreter-bound numpy calls),
    then `eigvalsh` of a 16x16 symmetric matrix and complex 16x16 outer and
    matrix products (LAPACK and BLAS).

    The host runs the same code at speeds up to 1.7x apart, drifting over
    seconds to minutes; this kernel slows with it, so an op's CPU time divided
    by the kernel's CPU time measured beside it keeps the program's cost and
    drops the host's speed."""
    x = _REF_X
    for _ in range(20):
        x = np.kron(_REF_A, _REF_A) @ x + 1.0
    total = float(x[0, 0])
    for _ in range(6):
        rho = np.outer(_REF_V, _REF_V.conj()) @ _REF_H
        total += float(np.linalg.eigvalsh(_REF_H)[0]) + float(np.trace(rho).real)
    return total


def time_reference(calls: int = REF_CALLS) -> float:
    """Mean CPU seconds of one reference_kernel call."""
    t0 = time.process_time()
    for _ in range(calls):
        reference_kernel()
    return (time.process_time() - t0) / calls


def percentile(samples, q: float) -> float:
    """Linearly interpolated q-th percentile (numpy's default method)."""
    return float(np.percentile(samples, q))


def beyond(samples, value: float) -> int:
    """Number of samples strictly above `value`."""
    return int(np.count_nonzero(np.asarray(samples) > value))


def run_ops(wl, op, start: int, stop: int, deadline: float, latencies):
    """Run ops start.. until `stop` or the first op ending after `deadline`.

    latencies[k] gets op start+k's (wall, CPU) seconds. CPU time leaves out
    the time the host runs other work on this core. Input generation and
    output checks are untimed: they count neither in an op's latency nor in
    the returned wall time.
    Returns (ops, wall seconds, failed ops).
    """
    failed = 0
    untimed = 0.0
    begin = time.perf_counter()
    i = start
    while i < stop:
        t0 = time.perf_counter()
        x = wl.input(i)
        t1 = time.perf_counter()
        c1 = time.process_time()
        t2 = c2 = None
        ok = False
        try:
            out = op(x)
            c2 = time.process_time()
            t2 = time.perf_counter()
            ok = wl.check(x, out)
        except Exception:
            if failed < 3:
                traceback.print_exc(file=sys.stderr)
        t3 = time.perf_counter()
        if t2 is None:
            c2, t2 = time.process_time(), t3
        latencies[i - start] = (t2 - t1, c2 - c1)
        untimed += (t1 - t0) + (t3 - t2)
        failed += not ok
        i += 1
        if t2 >= deadline:
            break
    return i - start, time.perf_counter() - begin - untimed, failed


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(wl, seconds: float, latencies) -> dict:
    """Slices of ops, each followed by a timing of the reference kernel.

    `cost_ref` is the mean over ops of an op's CPU time in units of the
    kernel's CPU time per call measured right after the op's slice."""
    deadline = time.perf_counter() + seconds
    ops = failed = 0
    wall = 0.0
    counts, refs = [], []  # ops per slice, kernel CPU seconds after it
    while ops < MAX_OPS:
        slice_end = min(time.perf_counter() + SLICE_S, deadline)
        n, w, f = run_ops(wl, wl.op, ops, MAX_OPS, slice_end, latencies[ops:])
        counts.append(n)
        refs.append(time_reference())
        ops, wall, failed = ops + n, wall + w, failed + f
        if time.perf_counter() >= deadline:
            break
    failed = min(ops, failed + wl.gate(ops))
    lat, cpu = latencies[:ops, 0], latencies[:ops, 1]
    p90 = percentile(lat, 90)
    return {
        "ops": ops,
        "failed": failed,
        "wall_s": wall,
        "slices": len(counts),
        "cost_ref": float(np.mean(cpu / np.repeat(refs, counts))),
        "p50_ms": percentile(lat, 50) * 1e3,
        "p90_ms": p90 * 1e3,
        "beyond_p90": beyond(lat, p90),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(wl, seconds: float, latencies) -> dict:
    tracer = spans.Tracer()
    deadline = time.perf_counter() + seconds
    blocks, overheads, untraced_lat = [], [], []
    ops = failed = 0
    spans_within_wall = True
    start = 0
    while True:
        stop = start + wl.block
        n_u, wall_u, f_u = run_ops(wl, wl.inprocess_op, start, stop, math.inf, latencies)
        untraced_lat += [(wl.input(start + k), latencies[k, 0]) for k in range(n_u)]
        with tracer.installed():
            n_t, wall_t, f_t = run_ops(wl, wl.inprocess_op, start, stop, math.inf, latencies)
        metrics, self_s = spans.block_metrics(tracer, n_t)
        tracer.clear()
        spans_within_wall = spans_within_wall and self_s <= wall_t
        blocks.append(metrics)
        overheads.append(wall_t / wall_u - 1.0)
        ops += n_u + n_t
        failed += f_u + f_t
        start = stop
        if time.perf_counter() >= deadline:
            break
    failed = min(ops, failed + wl.gate(ops))
    metrics = spans.median_metrics(blocks)
    metrics.update(wl.extra_metrics(untraced_lat))
    metrics["trace_overhead_frac"] = float(np.median(overheads))
    return {
        "ops": ops,
        "failed": failed,
        "blocks": len(blocks),
        "spans_within_wall": spans_within_wall,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=("setup", "timed", "trace"), default="timed")
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args(argv)

    latencies = np.ones((MAX_OPS, 2))
    t0 = time.perf_counter()
    import workloads  # imports fourphoton

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    result = {"setup_s": time.perf_counter() - t0}
    if args.mode == "timed":
        result.update(timed(wl, args.seconds, latencies))
    elif args.mode == "trace":
        result.update(traced(wl, args.seconds, latencies))
    result["numpy"] = np.__version__
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    result["blas"] = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

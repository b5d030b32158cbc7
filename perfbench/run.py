"""fourphoton benchmark: one workload per invocation, run from the repository root.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: hv_ensemble, delay_scan, setting_sweep, cli_scenarios (see
perfbench/README.md for what each measures and why).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
separate traced run. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. The workload runs in fresh worker processes with BLAS pinned to
one thread; the package is imported from src/ of this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hv_ensemble", "delay_scan", "setting_sweep", "cli_scenarios")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROCESSES = 15  # set-up is timed in this many fresh processes; the median is reported
FLOOR_PROCESSES = 3
EXIT_FAILED = 1
EXIT_USAGE = 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    return env


def run_process(cmd: list[str], timeout: float) -> tuple[int, str, float]:
    """Run `cmd` in its own session; on timeout kill the whole session and
    wait for it. Returns (exit code, stdout, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, time.perf_counter() - t0


def worker(args, mode: str, workdir: Path, timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--workdir", str(workdir),
    ]
    code, out, _ = run_process(cmd, timeout)
    if code != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {code}")
    return json.loads(out.strip().splitlines()[-1])


def import_ms(module: str) -> float:
    """Median wall time of a fresh interpreter that imports `module`."""
    times = [
        run_process([sys.executable, "-c", f"import {module}"], 60)[2]
        for _ in range(FLOOR_PROCESSES)
    ]
    return statistics.median(times) * 1e3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def print_env(info: dict, floor_ms: float) -> None:
    print(
        f"env: python {platform.python_version()}, numpy {info['numpy']} "
        f"({info['blas']}), nproc {os.cpu_count()}, cpu {cpu_model()}, "
        f"BLAS threads pinned to 1 ({', '.join(BLAS_THREAD_VARS)})"
    )
    print(
        f"floor: cli.floor_ms {floor_ms:.1f} ms = fresh `python -c \"import numpy\"`; "
        "interpreter + numpy start-up, not a cost of fourphoton"
    )


def end_to_end(args, workdir: Path) -> dict:
    floor = import_ms("numpy")
    # set-up samples before and after the timed run, so that they span it
    before = SETUP_PROCESSES // 2
    setups = [worker(args, "setup", workdir, 60)["setup_s"] for _ in range(before)]
    run = worker(args, "timed", workdir, args.seconds + 120)
    setups.append(run["setup_s"])
    setups += [
        worker(args, "setup", workdir, 60)["setup_s"]
        for _ in range(SETUP_PROCESSES - 1 - before)
    ]
    print_env(run, floor)
    ops = run["ops"]
    gated = {
        "op_cost_ref": (run["cost_ref"], "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    # Printed but not in BENCHMARK.json: see perfbench/README.md.
    printed = {
        "throughput_ops_per_s": (ops / run["wall_s"], "ops/s"),
        "op_p50_ms": (run["p50_ms"], "ms"),
        "op_p90_ms": (run["p90_ms"], "ms"),
        "failed_op_share": (run["failed"] / ops, "fraction"),
    }
    p90_samples = f"{ops} samples, {run['beyond_p90']} beyond p90" + (
        "" if run["beyond_p90"] >= 10 else ", fewer than 10"
    )
    notes = {
        "op_cost_ref": f"mean op CPU time in reference kernel CPU times, {run['slices']} slices",
        "throughput_ops_per_s": "not gated: follows the host's speed",
        "op_p50_ms": "not gated: follows the host's speed",
        "op_p90_ms": f"not gated: follows the host's speed; {p90_samples}",
        "setup_s": f"median of {len(setups)} fresh processes",
        "failed_op_share": f"{run['failed']} of {ops} ops",
    }
    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s, closed loop, 1 caller")
    for name, (value, unit) in {**gated, **printed}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} {value:.6g} {unit}{note}")
    return {
        "correct": run["failed"] == 0,
        "attempted": ops,
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in gated.items()},
    }


def per_layer(args, workdir: Path) -> dict:
    floor = import_ms("numpy")
    package = import_ms("fourphoton")
    run = worker(args, "trace", workdir, args.seconds + 120)
    print_env(run, floor)
    metrics = dict(run["metrics"])
    metrics["cli.import_ms"] = package - floor
    metrics["cli.floor_ms"] = floor
    print(
        f"workload {args.workload} traced: seed {args.seed}, {run['blocks']} block pairs, "
        f"{run['ops']} ops; counts are per op, self times in ms per op; no layer "
        "queues, retries or waits, so only counts, busy self time and waste ratios"
    )
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {unit_of(name)}")
    if not run["spans_within_wall"]:
        print("  summed span self time exceeds the traced wall time", file=sys.stderr)
    return {
        "correct": run["failed"] == 0 and run["spans_within_wall"],
        "attempted": run["ops"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith(".self_ms"):
        return "ms/op"
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("calls_per_distinct_input"):
        return "ratio"
    return "fraction"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="fourphoton benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return EXIT_USAGE
    missing = [
        f for f in (ROOT / "src" / "fourphoton" / "__init__.py", ROOT / "tests" / "oracle.py")
        if not f.is_file()
    ]
    if missing:
        print(f"error: not a fourphoton checkout, missing {missing[0]}", file=sys.stderr)
        return EXIT_USAGE

    workdir = HERE / ".work" / str(os.getpid())
    try:
        result = per_layer(args, workdir) if args.trace else end_to_end(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # unless another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

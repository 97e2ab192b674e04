"""logcubic benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense-analyze --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds src/logcubic.  The workload runs
in a fresh worker process (perfbench/worker.py).  Set-up is timed from the
parent, from process start to the worker's "ready" line, over SETUPS fresh
processes that stop there, and reported as the median.  At most one child
process runs at a time, and all of them run on the one CPU this process is
pinned to.  Op and set-up times are scaled for host speed by hostspeed.py;
the raw times stay in the record.  With --trace 0 the last stdout line
carries the end-to-end metrics, with --trace 1 the per-layer metrics of a
separate traced run.  Every output is checked by the oracles in
perfbench/oracles.py.  A record of the run goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from hostspeed import CHILD_REF_MS, child_pass_ns, scales
from layertrace import tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("dense-analyze", "pencil-roundtrip", "involution-sampling", "cli-oneshot")
SETUPS = 7  # set-up-only workers per untraced run


def worker_timeout_s(seconds: float) -> float:
    """Time a worker may take: its loop, plus the oracles, which cost up to
    about as much again, plus start-up."""
    return 30 + 3 * seconds


def worker(args, setup_only: bool) -> tuple[float, dict | None]:
    """Start one worker; return (seconds to its "ready" line, its result)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--out", OUT,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    start = perf_counter()
    process = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(worker_timeout_s(args.seconds), process.kill)
    watchdog.start()
    try:
        ready = process.stdout.readline()
        setup = perf_counter() - start
        rest = process.stdout.read()
        process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if ready.strip() != "ready" or process.returncode != 0:
        raise RuntimeError(f"worker for {args.workload} failed (exit {process.returncode})")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def pin_to_one_cpu() -> None:
    """Run this process and every child on the highest-numbered CPU it may
    use.  A child process then runs where the reference passes run, so its
    time follows them; without a pin, the time of a CLI call hardly did."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control: run unpinned
        pass


def setup_samples(args) -> tuple[list, list]:
    """Raw set-up seconds of SETUPS set-up-only workers, and the child
    passes before the first and after each."""
    raw, passes = [], [child_pass_ns()]
    for _ in range(SETUPS):
        raw.append(worker(args, setup_only=True)[0])
        passes.append(child_pass_ns())
    return raw, passes


def end_to_end(setup_raw: list, setup_passes: list, run: dict) -> tuple[dict, dict]:
    """Metrics from host-scaled times; the raw ones go into the notes."""
    n = len(run["walls_ns"])
    scale = run["scale"]
    raw_ms = [w / 1e6 for w in run["walls_ns"]]
    walls_ms = [w * k for w, k in zip(raw_ms, scale)]
    cpu_ms = [c / 1e6 * k for c, k in zip(run["cpus_ns"], scale)]
    tail_ms, percentile, samples = tail(walls_ms)
    values = {
        "throughput_ops_s": n / (sum(walls_ms) / 1e3),
        "latency_p50_ms": statistics.median(walls_ms),
        "latency_tail_ms": tail_ms,
        "cpu_ms_per_op": sum(cpu_ms) / n,
        "setup_s": statistics.median(
            s * k for s, k in zip(setup_raw, scales(setup_passes, CHILD_REF_MS))),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    raw = {
        "throughput_ops_s": n / (sum(raw_ms) / 1e3),
        "latency_p50_ms": statistics.median(raw_ms),
        "latency_tail_ms": tail(raw_ms)[0],
        "cpu_ms_per_op": sum(run["cpus_ns"]) / 1e6 / n,
        "setup_s": statistics.median(setup_raw),
    }
    notes = {"latency_tail_percentile": percentile, "latency_samples": samples,
             "host_scale_median": statistics.median(scale), "raw_metrics": raw,
             "setup_raw_s": setup_raw, "setup_passes_ns": setup_passes,
             "latencies_raw_ms": raw_ms, "cpus_raw_ms": [c / 1e6 for c in run["cpus_ns"]],
             "scales": scale}
    return values, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "logcubic", "__init__.py")):
        print(f"error: no logcubic sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    pin_to_one_cpu()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            _, run = worker(args, setup_only=False)
            values, notes = run["layers"], {"spans": run["spans"]}
        else:
            setup_raw, setup_passes = setup_samples(args)
            run = worker(args, setup_only=False)[1]
            values, notes = end_to_end(setup_raw, setup_passes, run)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1

    failures = run["failures"]
    attempted = run["attempted"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), **run["versions"],
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted, "failures": failures[:20],
        "op_kinds": run["op_kinds"], "metrics": metrics, **notes,
    }
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as handle:
        json.dump(record, handle, indent=1)

    for key in ("workload", "seed", "git_sha", "python", "numpy", "sympy", "nproc"):
        print(f"{key}: {record[key]}")
    print(f"ops: {attempted} attempted, {len(failures)} failed "
          f"(failed_frac {record['failed_frac']:.4f})")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    if not args.trace:
        print(f"latency_tail_ms is p{notes['latency_tail_percentile']} of "
              f"{notes['latency_samples']} op latencies")
        print(f"times scaled for host speed by a median "
              f"{notes['host_scale_median']:.3f}; unscaled: "
              + ", ".join(f"{k} {v:.4g}" for k, v in notes["raw_metrics"].items()))
    for key, m in metrics.items():
        print(f"{key}: {m['value']} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

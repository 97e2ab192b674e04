"""One workload in one fresh process: set up, run the timed closed loop, check
every output, and print one JSON line for run.py.

Set-up (import logcubic, input generation, one untimed warm-up op) ends with
a "ready" line on stdout, so the parent can time it from process start.
The loop is a single client: the next op starts when the previous one has
returned.  Only the op itself is timed; generation, bookkeeping and the
reference passes of hostspeed.py between ops are not.  Oracles run after the
loop.

    python3 perfbench/worker.py --root . --workload dense-analyze --seed 1 \
        --seconds 20 --trace 0 [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter_ns, process_time_ns

import generators
import hostspeed
import layertrace
import oracles

MIN_OPS = 20
CLI_TIMEOUT_S = 120
PROBES = 5


class Workload:
    """Binds the generated items of one workload to library calls."""

    in_process = True

    def __init__(self, lib, root: str, out_dir: str, traced: bool = False):
        self.lib = lib
        self.root = root
        self.out_dir = out_dir
        self.traced = traced


class DenseAnalyze(Workload):
    check = staticmethod(oracles.check_dense)

    def prepare(self, item):
        return self.lib.TernaryForm(3, item["terms"])

    def op(self, f):
        lib = self.lib
        verdict = lib.is_smooth_cubic(f)
        stable = lib.is_stable(f)
        if not verdict.is_smooth:
            return verdict.status, stable, None, None, None
        cayleyan = lib.coefficient_vector(lib.cayleyan_cubic(f))
        normal = lib.jacobi_degree3(f)
        dims = tuple(lib.d0_graded_dim(f, k) for k in range(5))
        return verdict.status, stable, cayleyan, normal, dims


class PencilRoundtrip(Workload):
    check = staticmethod(oracles.check_pencil)

    def prepare(self, item):
        return item["t"]

    def op(self, t):
        lib = self.lib
        try:
            invariants = lib.forward_invariants(t)
            recovered = lib.reconstruct(invariants)
        except lib.DomainError as exc:
            return "error", exc.category
        return "ok", lib.coefficient_vector(invariants.cayleyan), invariants.hyperplane, recovered


class InvolutionSampling(Workload):
    check = staticmethod(oracles.check_involution)

    def prepare(self, item):
        curve = item["curve"]
        f = self.lib.hesse_cubic(curve) if item["kind"] == "pencil" else self.lib.TernaryForm(3, curve)
        return f, item["seed"]

    def op(self, prepared):
        f, seed = prepared
        try:
            report = self.lib.check_involution(f, 100, 1e-8, seed)
        except self.lib.DomainError as exc:
            return "error", exc.category
        return ("ok", report.passed, report.samples, report.max_double_apply_error,
                report.min_fixed_point_distance)


def cli_argv(item: dict, out_dir: str) -> list:
    kind = item["kind"]
    if kind in ("analyze-form", "cayleyan", "jacobi"):
        command = "analyze" if kind == "analyze-form" else kind
        return [command, f"--form={generators.form_text(item['terms'])}", "--json"]
    if kind == "analyze-hesse":
        return ["analyze", f"--hesse-t={item['t']}", "--json"]
    if kind == "reconstruct-hesse":
        return ["reconstruct", f"--hesse-t={item['t']}", "--json"]
    if kind == "reconstruct-files":
        cayleyan, hyperplane = generators.pencil_files(item["t"])
        paths = []
        for label, record in (("cayleyan", cayleyan), ("hyperplane", hyperplane)):
            path = os.path.join(out_dir, f"{label}-{item['index']}.json")
            with open(path, "w") as handle:
                json.dump(record, handle)
            paths.append(path)
        return ["reconstruct", f"--cayleyan-file={paths[0]}", f"--hyperplane-file={paths[1]}",
                "--json"]
    if kind == "sweep":
        return ["sweep", "--t-values=" + ",".join(str(t) for t in item["t_values"]), "--json"]
    if kind == "involution":
        return ["involution", f"--hesse-t={item['t']}", "--samples=100",
                f"--seed={item['seed']}", "--json"]
    return ["verify-identities", "--json"]


class CliOneshot(Workload):
    """One `python -m logcubic.cli ... --json` process per op.  In the traced
    run the same argv goes through logcubic.cli.main in-process instead, so
    the layer spans can be seen."""

    in_process = False

    def __init__(self, lib, root, out_dir, traced=False):
        super().__init__(lib, root, out_dir, traced)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def prepare(self, item):
        return cli_argv(item, self.out_dir)

    def op(self, argv):
        if self.traced:
            return self.main_in_process(argv)
        done = subprocess.run([sys.executable, "-m", "logcubic.cli", *argv], cwd=self.root,
                              env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
        return done.returncode, done.stdout

    def main_in_process(self, argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.lib.cli.main(argv)
        return code, buffer.getvalue().encode()

    def check(self, item, out):
        return oracles.check_cli(item, out, self.library)

    def library(self, item):
        """The in-process result the CLI output must match: the bytes of
        logcubic.cli.main for the same argv, and library values."""
        return {"stdout": self.main_in_process(self.prepare(item))[1], **self._values(item)}

    def _values(self, item):
        lib, kind = self.lib, item["kind"]
        strs = lambda xs: [str(x) for x in xs]  # noqa: E731
        if "terms" in item:
            f = lib.TernaryForm(3, item["terms"])
            if kind == "analyze-form":
                status = lib.is_smooth_cubic(f).status
                result = {"status": status, "stable": lib.is_stable(f)}
                if status == "smooth":
                    result["cayleyan"] = strs(lib.coefficient_vector(lib.cayleyan_cubic(f)))
                    result["normal"] = strs(lib.jacobi_degree3(f))
                return result
            if kind == "cayleyan":
                return {"cayleyan": strs(lib.coefficient_vector(lib.cayleyan_cubic(f)))}
            return {"normal": strs(lib.jacobi_degree3(f))}
        if kind.startswith("reconstruct"):
            s = lib.cayleyan_hesse_param(item["t"])
            return {"roots": strs(lib.reconstruct_candidates(s).exact_roots)}
        if kind == "involution":
            report = lib.check_involution(lib.hesse_cubic(item["t"]), 100, 1e-8, item["seed"])
            return {"involution": (report.samples, report.max_double_apply_error,
                                   report.min_fixed_point_distance)}
        return {}


WORKLOADS = {
    "dense-analyze": DenseAnalyze,
    "pencil-roundtrip": PencilRoundtrip,
    "involution-sampling": InvolutionSampling,
    "cli-oneshot": CliOneshot,
}


def import_library(root: str):
    """Import logcubic from the checkout's src, and nothing else."""
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import logcubic
    import logcubic.cli

    if not os.path.realpath(logcubic.__file__).startswith(src + os.sep):
        raise SystemExit(f"logcubic was imported from {logcubic.__file__}, not {src}")
    return logcubic


def cpu_ns(in_process: bool) -> int:
    if in_process:
        return process_time_ns()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((usage.ru_utime + usage.ru_stime) * 1e9)


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_loop(workload, stream, seconds: float):
    """Closed loop for `seconds` of op time (and at least MIN_OPS ops), with
    a reference pass before the first op and after each op: in-process for
    in-process ops, a child pass for child processes.  Op time is counted
    scaled for host speed, so that the number of ops in a run, and with it
    the percentile that latency_tail_ms reads, does not follow the host's
    speed.  Returns (items, outputs, wall_ns, cpu_ns, scale) lists."""
    if workload.in_process:
        take_pass, ref_ms = hostspeed.reference_pass_ns, hostspeed.REF_MS
    else:
        take_pass, ref_ms = hostspeed.child_pass_ns, hostspeed.CHILD_REF_MS
    items, outputs, walls, cpus = [], [], [], []
    passes = [take_pass()]
    budget = seconds * 1e9
    spent = 0
    while spent < budget or len(items) < MIN_OPS:
        item = next(stream)
        prepared = workload.prepare(item)
        c0 = cpu_ns(workload.in_process)
        t0 = perf_counter_ns()
        try:
            out = workload.op(prepared)
        except Exception as exc:  # any non-domain error is a failed op
            out = ("exception", repr(exc))
        t1 = perf_counter_ns()
        c1 = cpu_ns(workload.in_process)
        items.append(item)
        outputs.append(out)
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        passes.append(take_pass())
        spent += (t1 - t0) * hostspeed.scales(passes[-2:], ref_ms)[0]
    return items, outputs, walls, cpus, hostspeed.scales(passes, ref_ms)


def paired_replay(workload, items, tracer):
    """Run each item once untraced and once traced, back to back and in
    alternating order, so that drift in machine speed falls on both sides.
    Returns (untraced outputs, untraced wall_ns, traced outputs, traced
    wall_ns); the traced spans carry the item's index as op id."""
    runs = {False: ([], []), True: ([], [])}
    for index, item in enumerate(items):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            prepared = workload.prepare(item)
            if traced:
                tracer.op = index
                tracer.install()
            try:
                t0 = perf_counter_ns()
                try:
                    out = workload.op(prepared)
                except Exception as exc:
                    out = ("exception", repr(exc))
                t1 = perf_counter_ns()
            finally:
                tracer.remove()
            runs[traced][0].append(out)
            runs[traced][1].append(t1 - t0)
    return (*runs[False], *runs[True])


def check_all(workload, items, outputs) -> list:
    failures = []
    for index, (item, out) in enumerate(zip(items, outputs)):
        try:
            reason = workload.check(item, out)
        except Exception as exc:  # an output the oracle cannot read is wrong
            reason = f"oracle raised {exc!r}"
        if reason:
            failures.append(f"op {index} ({item['kind']}): {reason}")
    return failures


def cli_probe_ms(root: str, code: str) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(PROBES):
        t0 = perf_counter_ns()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                       timeout=CLI_TIMEOUT_S)
        times.append((perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


def versions() -> dict:
    import numpy
    import sympy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "sympy": sympy.__version__, "nproc": os.cpu_count()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    lib = import_library(args.root)
    traced = bool(args.trace)
    workload = WORKLOADS[args.workload](lib, args.root, args.out, traced)
    stream = generators.GENERATORS[args.workload](args.seed)
    try:
        workload.op(workload.prepare(generators.WARMUP[args.workload]))
    except Exception:  # a broken program shows as failed timed ops instead
        pass
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result: dict = {}
    if not traced:
        items, outputs, walls, cpus, scale = timed_loop(workload, stream, args.seconds)
        result["peak_rss_mb"] = peak_rss_mb(workload.in_process)
        result.update(walls_ns=walls, cpus_ns=cpus, scale=scale)
        extra_failures = []
    else:
        interpreter_ms = cli_probe_ms(args.root, "pass")
        import_ms = cli_probe_ms(args.root, "import logcubic.cli") - interpreter_ms
        items = timed_loop(workload, stream, args.seconds / 3)[0]
        tracer = layertrace.Tracer()
        plain, plain_walls, outputs, walls = paired_replay(workload, items, tracer)
        extra_failures = [f"op {i}: traced and untraced outputs differ"
                          for i, (a, b) in enumerate(zip(outputs, plain)) if a != b]
        layers = layertrace.layer_metrics(tracer.spans, dict(enumerate(walls)))
        layers["cli.interpreter_ms"] = interpreter_ms
        layers["cli.import_ms"] = import_ms
        layers["cli.stdout_bytes"] = (0.0 if workload.in_process
                                      else statistics.mean(len(o[1]) for o in outputs))
        layers["trace.overhead_frac"] = sum(walls) / sum(plain_walls) - 1
        result.update(layers=layers, spans=len(tracer.spans))
        tracer.write(os.path.join(args.out, f"spans-{args.workload}-{args.seed}.jsonl"))

    failures = check_all(workload, items, outputs) + extra_failures
    result.update(attempted=len(items), failures=failures, versions=versions(),
                  op_kinds=[item["kind"] for item in items])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

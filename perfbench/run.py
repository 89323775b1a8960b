"""Benchmark of the padic-string package, run from the root of a checkout.

    python3 perfbench/run.py --workload {kink_solve,spectral_verify,cli_cold} \
        --seed N --seconds S --trace {0,1}

BENCHMARK.json lists kink_solve and cli_cold; spectral_verify runs by name
only (its timings are not steady on a shared host, see NOTES.md).

The inputs come from --seed alone.  With --trace 0 the run repeats the
workload's operations for S seconds and reports the end-to-end metrics:

    ops_per_s    operations that passed their check, per second spent in operations
    op_p50_s     median wall time of one operation
    op_tail_s    wall time at the highest percentile with at least ten samples
                 beyond it (percentile and sample count are on the summary line)
    setup_s      median over fresh processes of the time from process start to
                 the first timed operation: imports, inputs, references, warm-up
    peak_rss_mb  peak resident memory (cli_cold: the largest CLI child process)

With --trace 1 it alternates untraced and traced passes over the workload's
inputs for S seconds and reports per-layer metrics: calls and self time of
the package's public functions per pass, kernel-key repeats, the break-set
census, interpreter start and import time, and the tracing overhead.

Every operation is checked; failures are counted against the attempts.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it is a JSON summary
with the run record (versions, BLAS, nproc, seed, grid size).  Spans and the
summary are also written under perfbench/results/.  BLAS is pinned to one
thread, in this process and in every child.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_PROBES = 3
START_PROBES = 3
PROBE_TIMEOUT_S = 150.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("kink_solve", "spectral_verify", "cli_cold")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="padic-string benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# --------------------------------------------------------------------------
# processes started by the benchmark
# --------------------------------------------------------------------------


def _run_probe(cmd: list[str], env: dict | None = None) -> tuple[float, str]:
    """Start cmd, return (seconds until its first output line, that line); wait for its exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[:4])}... exited with {proc.returncode}")
    return elapsed, line.strip()


def setup_samples(args) -> list[float]:
    """Time from process start to ready-for-the-first-operation, in fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        elapsed, line = _run_probe(cmd)
        if line != "ready":
            raise RuntimeError(f"set-up probe printed {line!r}")
        samples.append(elapsed)
    return samples


def start_and_import_samples(src: Path) -> tuple[list[float], list[float]]:
    """Wall time of a bare interpreter, and in-process time of a fresh `import padic_string`."""
    starts = [_run_probe([sys.executable, "-c", "print()"])[0] for _ in range(START_PROBES)]
    code = "import time; t = time.perf_counter(); import padic_string; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(src))
    imports = [float(_run_probe([sys.executable, "-c", code], env)[1]) for _ in range(START_PROBES)]
    return starts, imports


# --------------------------------------------------------------------------
# run record
# --------------------------------------------------------------------------


def blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and path.startswith("/"):
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out[os.path.basename(path)] = int(fn())
                break
    return out


def run_record(args, grid_nodes: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "grid_nodes": grid_nodes,
    }


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------


def attempt(wl, item, **kwargs) -> tuple[float, list[str]]:
    """Run one operation, time it, and check it; an operation that raises counts as failed."""
    t0 = time.perf_counter()
    try:
        outcome = wl.run(item, **kwargs)
    except Exception as exc:  # a failing operation must not stop the run
        return time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, wl.check(item, outcome)
    except Exception as exc:
        return elapsed, [f"check raised {type(exc).__name__}: {exc}"]


def prepare(args, workdir: Path):
    """Set-up shared by the measured run and the set-up probes: inputs, references, warm-up."""
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.setup()
    _, problems = attempt(wl, wl.items[0])
    return wl, problems


def tail(times: list[float]) -> tuple[float, int, int]:
    """(time, percentile, samples beyond) at the highest whole percentile with >= 10 samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct, n - rank


def measure(wl, seconds: float):
    times, failures, failed = [], [], 0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        elapsed, problems = attempt(wl, wl.items[i % len(wl.items)])
        times.append(elapsed)
        if problems:
            failed += 1
            failures.append(f"op {i}: " + "; ".join(problems))
        i += 1
    return times, failed, failures


def trace_passes(wl, seconds: float, workdir: Path):
    """Alternate untraced and traced passes over all inputs until `seconds` have passed."""
    from spans import Tracer, merge

    untraced, traced, exports, failures = [], [], [], []
    failed = 0
    start = time.perf_counter()
    while not exports or time.perf_counter() - start < seconds:
        for item in wl.items:
            elapsed, problems = attempt(wl, item)
            untraced.append(elapsed)
            failed += bool(problems)
            failures += problems
        tracer = Tracer()
        child_files = []
        if wl.in_process:
            tracer.install()
        try:
            for op, item in enumerate(wl.items):
                kwargs = {}
                if wl.in_process:
                    tracer.op = op
                else:
                    child_files.append(workdir / f"trace-{op}.json")
                    child_files[-1].unlink(missing_ok=True)
                    kwargs = {"op": op, "trace_file": child_files[-1]}
                elapsed, problems = attempt(wl, item, **kwargs)
                traced.append(elapsed)
                failed += bool(problems)
                failures += problems
        finally:
            tracer.uninstall()
        parts = [tracer.export()] if wl.in_process else [json.loads(f.read_text()) for f in child_files if f.is_file()]
        exports.append(merge(parts))
    return untraced, traced, exports, failed, failures


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(times, failed, setup, peak_rss_mb):
    value, pct, beyond = tail(times)
    metrics = {
        "ops_per_s": metric((len(times) - failed) / sum(times), "1/s"),
        "op_p50_s": metric(statistics.median(times), "s"),
        "op_tail_s": metric(value, "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return metrics, {"op_tail_percentile": pct, "op_tail_beyond": beyond}


def per_layer(exports, untraced, traced, starts, imports):
    from spans import EVAL_SPAN, span_names

    passes = len(exports)
    totals: dict[str, list] = {}
    for ex in exports:
        for name, (calls, self_s) in ex["functions"].items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
    metrics = {}
    for name in span_names():
        calls, self_s = totals.get(name, (0, 0.0))
        if name == EVAL_SPAN:
            metrics["solver.power_interpolant.eval_s"] = metric(self_s / passes, "s")
            continue
        metrics[f"{name}.calls"] = metric(calls / passes, "count")
        time_name = "build_s" if name == "solver.power_interpolant" else "self_s"
        metrics[f"{name}.{time_name}"] = metric(self_s / passes, "s")
    kernel_calls = sum(ex["kernel_calls"] for ex in exports)
    origin_calls = sum(n for ex in exports for per_op in ex["break_sets"].values() for b, n in per_op if b == [0.0])
    metrics["solver.apply_K_panels.repeat_ratio"] = metric(
        sum(ex["kernel_repeats"] for ex in exports) / kernel_calls if kernel_calls else 0.0, "ratio"
    )
    metrics["solver.apply_K_panels.distinct_keys"] = metric(sum(len(ex["kernel_keys"]) for ex in exports) / passes, "count")
    metrics["solver.fixed_point_iterate.iterations"] = metric(sum(ex["iterations"] for ex in exports) / passes, "count")
    metrics["census.break_sets.distinct"] = metric(
        sum(len({tuple(b) for per_op in ex["break_sets"].values() for b, _ in per_op}) for ex in exports) / passes, "count"
    )
    metrics["census.break_sets.origin_share"] = metric(origin_calls / kernel_calls if kernel_calls else 0.0, "ratio")
    metrics["cli.python_start_s"] = metric(statistics.median(starts), "s")
    metrics["cli.import_s"] = metric(statistics.median(imports), "s")
    metrics["trace_overhead"] = metric(sum(untraced) / sum(traced), "ratio")
    metrics["trace.self_share"] = metric(sum(v[1] for v in totals.values()) / sum(traced), "ratio")
    return metrics


def census(exports) -> dict:
    """Break sets seen by apply_K_panels: call counts over all passes, and per operation in the last pass."""
    counts: dict[str, int] = {}
    for ex in exports:
        for per_op in ex["break_sets"].values():
            for b, n in per_op:
                counts[json.dumps(b)] = counts.get(json.dumps(b), 0) + n
    return {"break_set_calls": counts, "last_pass_by_op": exports[-1]["break_sets"], "kernel_keys_last_pass": exports[-1]["kernel_keys"]}


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "padic_string" / "__init__.py").is_file():
        print("perfbench: src/padic_string not found; run from the root of a padic-string checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RESULTS))
    try:
        if args.setup_probe:
            prepare(args, workdir)
            print("ready", flush=True)
            return 0
        return run(args, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, src: Path, workdir: Path) -> int:
    setup = setup_samples(args) if not args.trace else []
    wl, warm_problems = prepare(args, workdir)
    import workloads

    summary = {"run_record": run_record(args, workloads.GRID_NODES), "inputs": len(wl.items)}
    if args.trace:
        starts, imports = start_and_import_samples(src)
        untraced, traced, exports, failed, failures = trace_passes(wl, args.seconds, workdir)
        attempted = len(untraced) + len(traced)
        metrics = per_layer(exports, untraced, traced, starts, imports)
        summary.update(passes=len(exports), census=census(exports), bindings=exports[-1]["bindings"])
        spans = exports[-1]["spans"]
    else:
        times, failed, failures = measure(wl, args.seconds)
        attempted = len(times)
        metrics, extra = end_to_end(times, failed, setup, wl.peak_rss_mb())
        summary.update(extra, setup_samples_s=setup, op_times_s=times)
        spans = []
    summary.update(attempted=attempted, failed=failed, fail_ratio=failed / attempted, warm_up_failures=warm_problems, failures=failures[:20])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({"summary": summary, "metrics": metrics}, indent=1))
    if spans:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            for rec in spans:
                fh.write(json.dumps(rec) + "\n")
    for msg in warm_problems + failures[:20]:
        print(f"perfbench: {msg}", file=sys.stderr)
    print(json.dumps({"summary": {k: v for k, v in summary.items() if k != "op_times_s"}}))
    correct = failed == 0 and not warm_problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs drawn from a seed, one timed operation, and its gate.

Every workload offers the same four steps: `setup()` draws the inputs from
the seed and computes the reference artifacts, `run(item)` is the timed
operation, and `check(item, outcome)` returns the list of reasons the
operation failed (empty when it passed).  The package is used only through
its public module functions and the `padic_string.cli` entry point.

Why these workloads:
  kink_solve       the paper's main computation, the fixed point of K phi = phi^p on the
                   801-node grid plus the checks of criteria 7-8; a faster kernel shows here.
  spectral_verify  the smooth Gauss-Hermite path through cli.main in-process; almost no
                   fixed-point work, so a solver-kernel change should leave it flat.  Not
                   listed in BENCHMARK.json: its timings are not steady on a shared host.
  cli_cold         fresh `python -m padic_string.cli` processes over the subcommands that do
                   not iterate the solver; interpreter start and imports dominate, so lazy
                   imports show here and a kernel change should not.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
from scipy.special import erf

import padic_string
from padic_string import bvp, cli, heatflow, solver

SRC = Path(padic_string.__file__).resolve().parents[1]

GRID_STEP = 0.025  # with the default halfwidth 10: the 801-node grid
GRID_NODES = 801
CLI_TIMEOUT_S = 120.0
ANALYTIC_TOL = 1e-9
KINK_TOL = {
    "residual": 1e-6,  # max |K phi - phi^p| on the grid, as the CLI solve test requires
    "laws": 1e-6,  # criterion 7
    "limit": 1e-2,  # criterion 8
    "exponent_rel": 0.05,  # criterion 8
    "energy": 1e-2,  # energy identity on (-8, 8), as the heat-flow test requires
}
SUITES = {"eigen", "parseval", "adjoint", "exact", "normbound", "conservation"}


# --------------------------------------------------------------------------
# kink_solve
# --------------------------------------------------------------------------


KINK_MIX = {3: 6, 5: 2}  # solves per power: the median falls among the p = 3 solves


def kink_inputs(seed: int) -> list[tuple[int, float]]:
    """Slopes a in [0.6, 2] for each power p in {3, 5}, one per equal part of the range.

    Stratifying keeps the mix of cheap and expensive solves the same from
    seed to seed.  p = 5 solves take fewer iterations than p = 3 ones; with
    equal shares the median would fall in the gap between the two groups.
    Seeds stay centred (erf(a t)): off-centre seeds such as erf(t - 0.3) at
    p = 3 do not converge in 500 iterations.
    """
    rng = random.Random(seed)
    items = [(p, round(0.6 + 1.4 * (k + rng.random()) / n, 6)) for p, n in KINK_MIX.items() for k in range(n)]
    rng.shuffle(items)
    return items


def kink_checks(status: str, grid, phi, p: int) -> dict:
    """The checks the CLI `solve` and acceptance criteria 7-8 run on a solve result."""
    breaks = solver.detect_sign_changes(phi)
    limits = solver.limit_diagnostics(grid, p)
    local = bvp.local_zero_analysis(grid, (p - 1) // 2)
    return {
        "status": status,
        "nodes": int(grid.nodes.size),
        "breaks": [float(b) for b in breaks],
        "residual": solver.residual(phi, p, ts=grid.nodes, breaks=breaks),
        "laws": float(np.max(solver.conservation_laws_check(phi, p, 8, breaks))),
        "limits": (limits.left_limit, limits.right_limit, limits.left_distance, limits.right_distance),
        "energy": heatflow.energy_identity_residual(phi, p, domain=(-8.0, 8.0)),
        "exponent": local.fitted_exponent,
        "a1": local.a1,
    }


def kink_gate(c: dict, p: int) -> list[str]:
    """Reasons the solve fails the repository's own tolerances (empty when it passes)."""
    bad = []
    if c["status"] != "converged":
        bad.append(f"status {c['status']}")
    if c["nodes"] != GRID_NODES:
        bad.append(f"grid has {c['nodes']} nodes, expected {GRID_NODES}")
    if not c["residual"] < KINK_TOL["residual"]:
        bad.append(f"grid residual {c['residual']:.3e}")
    if not c["laws"] < KINK_TOL["laws"]:
        bad.append(f"conservation laws {c['laws']:.3e}")
    left, right, dl, dr = c["limits"]
    if (left, right) != (-1.0, 1.0) or not (dl < KINK_TOL["limit"] and dr < KINK_TOL["limit"]):
        bad.append(f"tail limits {left, right} at distances {dl:.3e}, {dr:.3e}")
    if not c["energy"] < KINK_TOL["energy"]:
        bad.append(f"energy residual {c['energy']:.3e}")
    if not abs(c["exponent"] - 1.0 / p) < KINK_TOL["exponent_rel"] / p:
        bad.append(f"zero exponent {c['exponent']:.5f}, expected 1/{p}")
    if not c["a1"] > 0:
        bad.append(f"slope coefficient a1 = {c['a1']}")
    return bad


class KinkSolve:
    name = "kink_solve"
    in_process = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.items: list = []

    def setup(self) -> None:
        self.items = kink_inputs(self.seed)

    def run(self, item) -> dict:
        p, a = item
        cfg = solver.SolverConfig(p, grid_step=GRID_STEP)
        result = solver.fixed_point_iterate(cfg, lambda t: erf(a * np.asarray(t, dtype=float)))
        return kink_checks(result.status, result.grid, result.phi, p)

    def check(self, item, outcome) -> list[str]:
        return kink_gate(outcome, item[0])

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# CLI artifacts: names, independent checks, comparison with the reference
# --------------------------------------------------------------------------


def artifact_names(argv: list[str]) -> list[str]:
    out = argv[argv.index("--out") + 1]
    names = [out]
    if argv[0] == "bvp":
        names.append(os.path.splitext(out)[0] + ".json")
    return names


def _opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _csv_rows(data: bytes) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def _smooth_function(name: str, xi: float):
    """f and its heat evolution u(x, t) in closed form (K f is u at x = 1)."""
    if name == "cos":
        return lambda t: np.cos(xi * t), lambda x, t: math.exp(-x * xi * xi / 4.0) * np.cos(xi * t)
    if name == "sin":
        return lambda t: np.sin(xi * t), lambda x, t: math.exp(-x * xi * xi / 4.0) * np.sin(xi * t)
    if name == "erf":
        return erf, lambda x, t: erf(t / math.sqrt(1.0 + x))
    raise ValueError(f"no closed form for {name}")


def _branch_locations(n: int, eps: float) -> np.ndarray:
    """Real zeros of the caloric polynomial u(1-eps, t), from t = sqrt(eps) s and numpy.roots."""
    coeffs = np.zeros(2 * n + 1)
    for m in range(n + 1):
        coeffs[2 * m] = (-1.0) ** m / (math.factorial(2 * n - 2 * m) * math.factorial(m) * 4.0**m)
    s = np.roots(coeffs)
    return np.sort(s.real[np.abs(s.imag) < 1e-9]) * math.sqrt(eps)


def independent_check(argv: list[str], files: dict[str, bytes]) -> list[str]:
    """Check an artifact's numbers against closed forms that do not use the package."""
    cmd = argv[0]
    out = files[artifact_names(argv)[0]]
    if cmd in ("hermite", "apply-k", "interp"):
        header, rows = _csv_rows(out)
        t = rows[:, header.index("t")]
        if cmd == "hermite":
            n = int(_opt(argv, "--n"))
            unit = [0.0] * n + [1.0]
            if _opt(argv, "--kind", "H") == "H":
                want = np.polynomial.hermite.hermval(t, unit)
            else:
                want = 2.0 ** (-n / 2.0) * np.polynomial.hermite.hermval(t / math.sqrt(2.0), unit)
            got = rows[:, 1]
            if not np.allclose(got, want, rtol=1e-11, atol=ANALYTIC_TOL):
                return [f"hermite values off by {np.max(np.abs(got - want)):.3e}"]
            return []
        f, u = _smooth_function(_opt(argv, "--func"), float(_opt(argv, "--xi", "1")))
        if cmd == "apply-k":
            err = max(np.max(np.abs(rows[:, 1] - f(t))), np.max(np.abs(rows[:, 2] - u(1.0, t))))
        else:
            err = np.max(np.abs(rows[:, 2] - u(float(_opt(argv, "--x")), t)))
        return [] if err < ANALYTIC_TOL else [f"{cmd} values off the closed form by {err:.3e}"]
    if cmd == "bvp":
        header, rows = _csv_rows(out)
        side = json.loads(files[artifact_names(argv)[1]])
        t = rows[:, 0]
        alpha_sq = float(_opt(argv, "--alpha-sq"))
        mono = np.asarray(side["monomials"])
        want = 0.5 + 0.5 * erf(t) + np.exp(-(alpha_sq - 1.0) * t * t) * np.polynomial.polynomial.polyval(t, mono)
        err = np.max(np.abs(rows[:, 1] - want))
        bad = [] if err < ANALYTIC_TOL else [f"bvp values off the sidecar ansatz by {err:.3e}"]
        if not (math.isclose(side["alpha"] ** 2, alpha_sq, rel_tol=1e-12) and math.isfinite(side["residual"])):
            bad.append("bvp sidecar alpha or residual wrong")
        return bad
    report = json.loads(out)
    if cmd == "branch":
        n, eps = int(_opt(argv, "--n")), float(_opt(argv, "--eps"))
        if report["mismatch"] or len(report["roots"]) != 2 * n:
            return [f"branch n={n} eps={eps}: root count mismatch"]
        want = _branch_locations(n, eps)
        err = np.max(np.abs(np.asarray(report["roots"]) - want)) / math.sqrt(eps)
        return [] if err < 1e-8 else [f"branch roots off numpy.roots by {err:.3e} (relative to sqrt(eps))"]
    if cmd == "verify":
        names = {s["name"] for s in report["suites"]}
        failing = [s["name"] for s in report["suites"] if not s["passed"]]
        if not report["passed"] or failing or names != SUITES:
            return [f"verify report not passed (failing suites: {failing}, suites run: {sorted(names)})"]
        return []
    if cmd == "solve":
        worst = max(b["equation_residual"] for b in report["branches"])
        labels = sorted({b["label"] for b in report["branches"]})
        if worst >= 1e-9 or labels != ["branch_c", "parabolic", "trivial", "zero_head"]:
            return [f"approximation table: residual {worst:.3e}, labels {labels}"]
        return []
    return [f"no check for subcommand {cmd}"]


def check_artifacts(argv: list[str], rc: int, files: dict, reference: dict) -> list[str]:
    """Exit code, byte identity with the in-process reference, then the closed-form check."""
    label = " ".join(argv[:1] + [a for a in argv[1:] if not a.endswith((".csv", ".json"))])
    if rc != 0:
        return [f"{label}: exit code {rc}"]
    missing = [n for n in artifact_names(argv) if files.get(n) is None]
    if missing:
        return [f"{label}: missing artifact(s) {missing}"]
    bad = [f"{label}: {n} differs from the in-process artifact" for n in reference if files[n] != reference[n]]
    try:
        bad += [f"{label}: {msg}" for msg in independent_check(argv, files)]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        bad.append(f"{label}: unreadable artifact ({exc!r})")
    return bad


def collect(outdir: Path, argv: list[str]) -> dict:
    return {n: (outdir / n).read_bytes() if (outdir / n).is_file() else None for n in artifact_names(argv)}


def clear(outdir: Path, argv: list[str]) -> None:
    for n in artifact_names(argv):
        (outdir / n).unlink(missing_ok=True)


def run_in_process(argv: list[str], outdir: Path) -> int:
    """cli.main with artifacts in outdir and its console output discarded."""
    os.environ[cli.OUTDIR_ENV] = str(outdir)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def _fmt(v: float) -> str:
    return f"{v:.4f}"


SMOOTH_FUNCS = ("cos", "sin", "erf")


def smooth_calls(rng: random.Random, func: str) -> list[list[str]]:
    """One apply-k and one interp call of func, with xi and the heat time drawn from rng."""
    return [
        ["apply-k", "--func", func, "--xi", _fmt(rng.uniform(0.25, 3.0)), "--out", "apply_k.csv"],
        ["interp", "--func", func, "--xi", _fmt(rng.uniform(0.25, 3.0)), "--x", _fmt(rng.uniform(0.05, 1.0)), "--out", "interp.csv"],
    ]


BRANCH_EPS = ("1e-2", "1e-3", "1e-4")
BRANCH_CASES = [(n, eps) for n in (1, 2, 3, 4) for eps in BRANCH_EPS]


def branch_call(n: int, eps: str) -> list[str]:
    return ["branch", "--n", str(n), "--eps", eps, "--out", "branch.json"]


class _CliWorkload:
    """Shared set-up for the two workloads that go through the CLI; an item is a list of CLI calls."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.refdir = workdir / "reference"
        self.outdir = workdir / "out"
        self.items: list = []
        self.reference: dict[tuple, dict] = {}

    def setup(self) -> None:
        self.refdir.mkdir(parents=True, exist_ok=True)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.items = self.make_items(random.Random(self.seed))
        for item in self.items:
            for argv in item:
                if tuple(argv) not in self.reference:
                    clear(self.refdir, argv)
                    run_in_process(argv, self.refdir)
                    self.reference[tuple(argv)] = collect(self.refdir, argv)

    def check(self, item, outcome) -> list[str]:
        bad = []
        for argv, rc, files in outcome["calls"]:
            bad += check_artifacts(argv, rc, files, self.reference[tuple(argv)])
        return bad


class SpectralVerify(_CliWorkload):
    """One operation through cli.main: verify (six suites, M=96), branch for n = 1..4, and
    apply-k and interp for each of cos, sin and erf.

    Every operation holds the same calls with other drawn parameters, so
    operations cost about the same, and each is long enough (about 0.15 s)
    that a short stall of the machine does not set the tail by itself.
    """

    name = "spectral_verify"
    in_process = True

    def make_items(self, rng: random.Random) -> list:
        items = []
        for _ in range(6):
            calls = [["verify", "--out", "verify.json"]]
            calls += [branch_call(n, rng.choice(BRANCH_EPS)) for n in (1, 2, 3, 4)]
            for func in SMOOTH_FUNCS:
                calls += smooth_calls(rng, func)
            items.append(calls)
        return items

    def run(self, item) -> dict:
        calls = []
        for argv in item:
            clear(self.outdir, argv)
            rc = run_in_process(argv, self.outdir)
            calls.append((argv, rc, collect(self.outdir, argv)))
        return {"calls": calls}

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()


class CliCold(_CliWorkload):
    """One operation: a fresh `python -m padic_string.cli` process and its artifacts."""

    name = "cli_cold"
    in_process = False
    trace_env = "PERFBENCH_TRACE_FILE"
    op_env = "PERFBENCH_OP"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.max_child_rss_kb = 0

    def make_items(self, rng: random.Random) -> list:
        items = []
        for _ in range(2):
            kind = rng.choice(["H", "V"])
            items.append(["hermite", "--kind", kind, "--n", str(rng.randint(0, 12)), "--out", "hermite.csv"])
            items += smooth_calls(rng, rng.choice(SMOOTH_FUNCS))
            items.append(["bvp", "--alpha-sq", _fmt(rng.uniform(1.05, 2.5)), "--branch", rng.choice(["plus", "minus"]), "--out", "bvp.csv"])
            items.append(branch_call(*rng.choice(BRANCH_CASES)))
            items.append(["solve", "--p", "2", "--approx", "3", "--out", "approx.json"])
            items.append(["verify", "--out", "verify.json"])
        rng.shuffle(items)
        return [[argv] for argv in items]

    def run(self, item, op=None, trace_file: Path | None = None) -> dict:
        [argv] = item
        clear(self.outdir, argv)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env[cli.OUTDIR_ENV] = str(self.outdir)
        if trace_file is None:
            cmd = [sys.executable, "-m", "padic_string.cli", *argv]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), *argv]
            env[self.trace_env] = str(trace_file)
            env[self.op_env] = str(op)
        rc, rss_kb = spawn(cmd, env, self.outdir)
        self.max_child_rss_kb = max(self.max_child_rss_kb, rss_kb)
        return {"calls": [(argv, rc, collect(self.outdir, argv))]}

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_kb / 1024.0


def spawn(cmd: list[str], env: dict, cwd: Path, timeout: float = CLI_TIMEOUT_S) -> tuple[int, int]:
    """Run cmd to completion; return its exit code and its own peak RSS in KiB.

    os.wait4 gives this child's resource usage alone, which
    RUSAGE_CHILDREN (the largest of all children so far) cannot.
    """
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


WORKLOADS = {w.name: w for w in (KinkSolve, SpectralVerify, CliCold)}

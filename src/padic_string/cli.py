"""Batch command-line front end.

Subcommands: hermite, apply-k, solve, bvp, interp, branch, verify.  Every
run is deterministic (seeded randomness, %.15g formatting, sorted JSON
keys) so identical invocations produce byte-identical artifacts.  Every
Gauss-Hermite sum uses the one rule of order QUADRATURE.  Exit codes: 0
success, 1 numerical failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import random
import sys

import numpy as np

from . import basis, bvp, gaussop, heatflow, solver

FMT = "%.15g"
OUTDIR_ENV = "PADIC_STRING_OUTDIR"
QUADRATURE = 96


def _outpath(name: str) -> str:
    base = os.environ.get(OUTDIR_ENV, "")
    if base and not os.path.isabs(name):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, name)
    return name


def _write_csv(path: str, header: list[str], rows, gnuplot: bool) -> str:
    """Write the table; with gnuplot, also path.gp plotting every column against the first."""
    path = _outpath(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([FMT % v for v in row])
    if gnuplot:
        name = os.path.basename(path)
        plots = ", ".join(f"'{name}' using 1:{i} with lines" for i in range(2, len(header) + 1))
        with open(path + ".gp", "w") as fh:
            fh.write(f"set datafile separator ','\nset key autotitle columnhead\nplot {plots}\n")
    return path


class _NonFiniteReport(ValueError):
    """A report holding NaN or Infinity, which JSON cannot state: a numerical failure, exit 1."""


def _write_json(path: str, obj) -> str:
    """Write obj as JSON; a non-finite value raises _NonFiniteReport and leaves no file."""
    path = _outpath(path)
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise _NonFiniteReport(f"{path} not written: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


def _grid(args) -> np.ndarray:
    n = int(round((args.tmax - args.tmin) / args.step))
    return np.linspace(args.tmin, args.tmin + n * args.step, n + 1)


def _resolve_function(args):
    """Build the callable selected by --func and its parameters."""
    name = args.func
    if name == "const":
        return lambda t: np.ones_like(np.asarray(t, dtype=float))
    if name == "linear":
        return lambda t: np.asarray(t, dtype=float)
    if name == "erf":
        return basis._erf
    if name == "cos":
        return lambda t: np.cos(args.xi * np.asarray(t, dtype=float))
    if name == "sin":
        return lambda t: np.sin(args.xi * np.asarray(t, dtype=float))
    if name == "poly":
        coeffs = [float(c) for c in args.coeffs.split(",")]
        return lambda t: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), coeffs)
    if name == "example":
        return solver.exact_gaussian_solution(args.p)[0]
    if name == "periodic":
        return gaussop.periodic_solution(args.k, args.sign)[0]
    raise ValueError(f"unknown function {name!r}")


def cmd_hermite(args) -> int:
    ts = _grid(args)
    values = basis.eval_H(args.n, ts) if args.kind == "H" else basis.eval_V(args.n, ts)
    path = _write_csv(args.out, ["t", "value"], zip(ts, values), args.gnuplot)
    print(f"wrote {path}")
    return 0


def cmd_apply_k(args) -> int:
    f = _resolve_function(args)
    ts = _grid(args)
    fv = np.asarray(f(ts), dtype=float)
    kf = gaussop.apply_K_point(f, ts, basis.gauss_hermite_rule(QUADRATURE))
    path = _write_csv(args.out, ["t", "f", "Kf"], zip(ts, fv, kf), args.gnuplot)
    print(f"wrote {path}")
    return 0


def _approx_table() -> list[dict]:
    return [
        {"label": s.label, "a0": s.a0, "a1": s.a1, "a2": s.a2, "a3": s.a3, "eps": s.eps_branch, "D": s.D,
         "equation_residual": s.equation_residual()}
        for s in solver.solve_3approx()
    ]


def cmd_solve(args) -> int:
    if args.approx is not None:
        if args.p != 2:
            print("the truncated coefficient table is specific to p = 2", file=sys.stderr)
            return 2
        rows = _approx_table()
        print(f"{'label':<10} {'a0':>12} {'a1':>12} {'a2':>12} {'a3':>12} {'residual':>10}")
        for r in rows:
            print(
                f"{r['label']:<10} {r['a0']:>12.6f} {r['a1']:>12.6f} {r['a2']:>12.6f} "
                f"{r['a3']:>12.6f} {r['equation_residual']:>10.2e}"
            )
        if args.out:
            _write_json(args.out, {"branches": rows})
            print(f"wrote {_outpath(args.out)}")
        return 0

    init = {"erf": basis._erf, "one": lambda t: np.ones_like(np.asarray(t, dtype=float))}[args.init]
    cfg = solver.SolverConfig(
        p=args.p,
        tol=args.tol,
        max_iter=args.max_iter,
        grid_halfwidth=args.halfwidth,
        grid_step=args.step,
    )
    result = solver.fixed_point_iterate(cfg, init)
    ts = result.grid.nodes
    pv = result.grid.values
    breaks = solver.detect_sign_changes(result.phi)
    kphi = solver.apply_K_panels(result.phi, ts, breaks)
    phi_p = solver._equation_power(pv, args.p)
    res = np.abs(kphi - phi_p)
    prefix = args.out_prefix
    sol_path = _write_csv(prefix + ".csv", ["t", "phi", "Kphi", "phi_p", "residual"], zip(ts, pv, kphi, phi_p, res),
                          args.gnuplot)
    trace_path = _outpath(prefix + "_trace.jsonl")
    with open(trace_path, "w") as fh:
        for entry in result.trace:
            fh.write(json.dumps(entry, sort_keys=True, allow_nan=False) + "\n")
    laws = solver.conservation_laws_check(result.phi, args.p, 8, breaks)
    report = {
        "status": result.status,
        "iterations": result.iterations,
        "max_residual": float(np.max(res)),
        "midpoint_residual": solver.residual(result.phi, args.p, ts=0.5 * (ts[1:] + ts[:-1]), breaks=breaks),
        "conservation_laws": [float(v) for v in laws],
        "limits": dataclasses.asdict(solver.limit_diagnostics(result.grid, args.p)),
        "panel_rule": {"width": solver._PANEL, "nodes_per_panel": solver._GL_NODES.size,
                       "substitution_exponent": solver._SIDE_POWER, "side_panels": solver._SIDE_PANELS,
                       "laws_window": solver._LAWS_WINDOW},
    }
    verify_path = _write_json(prefix + "_verify.json", report)
    print(f"wrote {sol_path}, {trace_path}, {verify_path}")
    print(f"status={result.status} iterations={result.iterations} max_residual={report['max_residual']:.3e}")
    return 0 if result.converged else 1


def cmd_bvp(args) -> int:
    alpha = math.sqrt(args.alpha_sq)
    sign = +1 if args.branch == "plus" else -1
    targets = bvp.branch_c_targets(sign)
    c = bvp.solve_bvp_3approx(alpha, targets)
    ansatz = bvp.ErfAnsatz(alpha=alpha, c=c)
    ts = _grid(args)
    path = _write_csv(args.out, ["t", "phi"], zip(ts, ansatz(ts)), args.gnuplot)
    sidecar = {
        "alpha": alpha,
        "alpha_sq": args.alpha_sq,
        "branch": args.branch,
        "c": [float(v) for v in c],
        "a_targets": [float(v) for v in targets],
        "monomials": [float(v) for v in bvp.gaussian_part_monomials(ansatz)],
        "residual": solver.residual(ansatz, 2, ts=np.arange(-2.0, 2.01, 0.05)),
    }
    json_path = _write_json(os.path.splitext(args.out)[0] + ".json", sidecar)
    print(f"wrote {path}, {json_path}")
    return 0


def cmd_interp(args) -> int:
    f = _resolve_function(args)
    ts = _grid(args)
    uv = heatflow.poisson_eval(f, args.x, ts, basis.gauss_hermite_rule(QUADRATURE))
    path = _write_csv(args.out, ["x", "t", "u"], ((args.x, t, u) for t, u in zip(ts, uv)), args.gnuplot)
    print(f"wrote {path}")
    return 0


def cmd_branch(args) -> int:
    tracked = heatflow.track_zeros(heatflow.heat_polynomial_interpolant(args.n), args.n, args.eps)
    report = {
        "n": args.n,
        "eps": tracked.eps,
        "lambda": [float(v) for v in heatflow.branching_roots(args.n)],
        "predicted": [float(v) for v in tracked.predicted],
        "roots": [float(v) for v in tracked.roots],
        "mismatch": tracked.mismatch,
    }
    path = _write_json(args.out, report)
    print(f"wrote {path}")
    return 0 if not tracked.mismatch else 1


def _suite_eigen(rule) -> float:
    ts = np.arange(-3.0, 3.0 + 0.05, 0.05)
    worst = 0.0
    for kind, xi in (("cos", 0.5), ("cos", 1.0), ("cos", 2.0), ("const", 0.0), ("linear", 0.0)):
        f, lam = gaussop.eigenfunction(gaussop.EigenfunctionSpec(xi=xi, kind=kind))
        worst = max(worst, float(np.max(np.abs(gaussop.apply_K_point(f, ts, rule) - lam * f(ts)))))
    return worst


def _suite_parseval(rule) -> float:
    cases = [lambda t: np.exp(-(t**2)), np.cos, np.exp]
    return max(basis.parseval_residual(f, basis.project(f, 1.0, 30, rule), rule) for f in cases)


def _random_polynomials(seed: int, count: int, degree: int) -> list:
    """count seeded entire test functions: polynomials with coefficients N(0, 1) / k!."""
    rng = random.Random(seed)
    scale = [math.factorial(k) for k in range(degree + 1)]
    coeffs = [np.array([rng.gauss(0.0, 1.0) / s for s in scale]) for _ in range(count)]
    return [lambda t, c=c: np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), c) for c in coeffs]


def _suite_adjoint(rule) -> float:
    worst = 0.0
    for f in _random_polynomials(0, 10, 6):
        lhs = basis.project(lambda t, g=f: gaussop.apply_K_point(g, t, rule), 1.0, 8, rule).coeffs
        rhs = basis.project(f, 0.5, 8, rule).coeffs
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _suite_exact(rule) -> float:
    rng = random.Random(1)
    worst = 0.0
    for p in (2, 3):
        phi, u = solver.exact_gaussian_solution(p)
        worst = max(worst, solver.residual(phi, p, ts=np.arange(-2.0, 2.01, 0.05), halfwidth=18.0))
        for _ in range(20):
            x = rng.uniform(0.05, 1.0)
            t = rng.uniform(-2.0, 2.0)
            worst = max(worst, abs(heatflow.poisson_eval(phi, x, t, rule) - u(x, t)))
    return worst


def _suite_normbound(rule) -> float:
    bound = gaussop.norm_bound(0.5, 1.0)
    worst = -math.inf
    for f in _random_polynomials(2, 50, 8):
        kf = gaussop.apply_K_series(basis.project(f, 1.0, 8, rule))
        norm_kf = math.sqrt(max(basis.inner_product(kf, kf, 1.0, rule), 0.0))
        norm_f = math.sqrt(max(basis.inner_product(f, f, 0.5, rule), 0.0))
        worst = max(worst, norm_kf - bound * norm_f)
    return worst


def _suite_conservation(rule) -> float:
    phi, _ = gaussop.periodic_solution(1, +1)
    lam = 2.0 * math.sqrt(math.pi) * complex(1.0, 1.0)
    a = basis.project(phi, 1.0, 8, rule).coeffs
    b = basis.project(phi, 0.5, 8, rule).coeffs
    return float(np.max(np.abs(a - b) / np.maximum(abs(lam) ** np.arange(9), 1.0)))


# name -> (max error of the suite on the Gauss-Hermite rule, tolerance it must stay below)
SUITES = {
    "eigen": (_suite_eigen, 1e-8),
    "parseval": (_suite_parseval, 1e-8),
    "adjoint": (_suite_adjoint, 1e-8),
    "exact": (_suite_exact, 1e-8),
    "normbound": (_suite_normbound, 1e-9),
    "conservation": (_suite_conservation, 1e-8),
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.only is None else args.only.split(",")
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        print(f"unknown suite(s): {','.join(unknown)}", file=sys.stderr)
        return 2
    rule = basis.gauss_hermite_rule(QUADRATURE)
    results = []
    for name in names:
        error_fn, tol = SUITES[name]
        err = float(error_fn(rule))
        results.append({"name": name, "max_error": err, "tolerance": tol, "passed": err < tol})
        print(f"suite {name}: {'PASS' if err < tol else 'FAIL'} (max_error={err:.3e}, tolerance={tol:.1e})")
    passed = all(r["passed"] for r in results)
    if args.out:
        _write_json(args.out, {"quadrature": QUADRATURE, "suites": results, "passed": passed})
        print(f"wrote {_outpath(args.out)}")
    return 0 if passed else 1


def _add_grid_options(p, tmin=-3.0, tmax=3.0, step=0.05):
    p.add_argument("--tmin", type=float, default=tmin)
    p.add_argument("--tmax", type=float, default=tmax)
    p.add_argument("--step", type=float, default=step)


def _add_function_options(p):
    p.add_argument("--func", default="cos", choices=["const", "linear", "erf", "cos", "sin", "poly", "example", "periodic"])
    p.add_argument("--xi", type=float, default=1.0, help="frequency for cos/sin")
    p.add_argument("--coeffs", default="1", help="comma-separated monomial coefficients for poly")
    p.add_argument("--p", type=int, default=2, help="power for the exact example solution")
    p.add_argument("--k", type=int, default=1, help="index of the periodic solution")
    p.add_argument("--sign", type=int, default=1, choices=[1, -1], help="branch of the periodic solution")


def _add_csv_output(p, default: str):
    p.add_argument("--out", default=default)
    p.add_argument("--gnuplot", action="store_true", help="also write OUT.gp, plotting every column against the first")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-string",
        description="Solvers and verifiers for the Gaussian-convolution tachyon equation K phi = phi^p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hermite", help="tabulate a Hermite or modified Hermite polynomial")
    p.add_argument("--kind", choices=["H", "V"], default="H")
    p.add_argument("--n", type=int, required=True)
    _add_grid_options(p)
    _add_csv_output(p, "hermite.csv")
    p.set_defaults(func_cmd=cmd_hermite)

    p = sub.add_parser("apply-k", help="apply the Gaussian convolution operator to a function")
    _add_function_options(p)
    _add_grid_options(p)
    _add_csv_output(p, "apply_k.csv")
    p.set_defaults(func_cmd=cmd_apply_k)

    p = sub.add_parser("solve", help="run the fixed-point solver or print the p=2 branch table")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--approx", type=int, choices=[3], default=None, help="print the closed-form truncation table instead of iterating")
    p.add_argument("--init", choices=["erf", "one"], default="erf")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--halfwidth", type=float, default=10.0)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--out-prefix", default="solution")
    p.add_argument("--out", default=None, help="JSON output for the --approx table")
    p.add_argument("--gnuplot", action="store_true")
    p.set_defaults(func_cmd=cmd_solve)

    p = sub.add_parser("bvp", help="assemble the erf-ansatz boundary-value candidate")
    p.add_argument("--p", type=int, default=2, choices=[2])
    p.add_argument("--alpha-sq", type=float, default=1.1, dest="alpha_sq")
    p.add_argument("--branch", choices=["plus", "minus"], default="plus")
    _add_grid_options(p, tmin=-5.0, tmax=5.0)
    _add_csv_output(p, "bvp.csv")
    p.set_defaults(func_cmd=cmd_bvp)

    p = sub.add_parser("interp", help="sample the heat-flow interpolant u(x, .)")
    _add_function_options(p)
    p.add_argument("--x", type=float, required=True)
    _add_grid_options(p)
    _add_csv_output(p, "interp.csv")
    p.set_defaults(func_cmd=cmd_interp)

    p = sub.add_parser("branch", help="branching roots of a multiple zero and tracked locations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--out", default="branch.json")
    p.set_defaults(func_cmd=cmd_branch)

    p = sub.add_parser("verify", help="run the numerical invariant suites")
    p.add_argument("--only", default=None, help=f"comma-separated subset of the suites {','.join(SUITES)}")
    p.add_argument("--out", default=None)
    p.set_defaults(func_cmd=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "p", None) is not None and args.command in ("solve", "bvp") and args.p < 2:
        parser.error(f"power p must be >= 2, got {args.p}")
    if getattr(args, "n", None) is not None and args.command in ("branch", "hermite") and args.n < (1 if args.command == "branch" else 0):
        parser.error(f"invalid --n {args.n}")
    if args.command == "branch" and not 0 < args.eps <= 0.5:
        parser.error(f"--eps must be in (0, 0.5], got {args.eps}")
    if getattr(args, "step", None) is not None and not 0 < args.step < math.inf:
        parser.error(f"--step must be positive and finite, got {args.step}")
    if hasattr(args, "tmin") and not -math.inf < args.tmin <= args.tmax < math.inf:
        parser.error(f"--tmin and --tmax must be finite with --tmax >= --tmin, got {args.tmin} and {args.tmax}")
    if args.command == "bvp" and not 1 < args.alpha_sq < math.inf:
        parser.error(f"--alpha-sq must be finite and exceed 1, got {args.alpha_sq}")
    if args.command == "solve" and args.max_iter < 1:
        parser.error(f"--max-iter must be at least 1, got {args.max_iter}")
    if args.command == "solve" and not args.halfwidth >= 8.0:
        parser.error(f"--halfwidth must be at least 8, as the limits window is |t| >= 8, got {args.halfwidth}")
    if args.command == "interp" and not 0 <= args.x < math.inf:
        parser.error(f"--x must be finite and non-negative, got {args.x}")
    if args.command == "solve" and args.out is not None and args.approx is None:
        parser.error("--out is only for the --approx table; name the solver output with --out-prefix")
    try:
        return args.func_cmd(args)
    except (gaussop.EvaluationError, _NonFiniteReport) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: its gates must catch wrong results.

    python3 -m pytest perfbench -q
"""
import math

import numpy as np
import pytest
from scipy.special import erf

import run
import spans
import workloads
from padic_string import basis, bvp, solver
from padic_string.basis import GridFunction


@pytest.fixture(scope="module")
def solved():
    p = 3
    cfg = solver.SolverConfig(p, grid_step=workloads.GRID_STEP)
    return p, solver.fixed_point_iterate(cfg, lambda t: erf(np.asarray(t, dtype=float)))


def test_kink_gate_passes_the_solution(solved):
    p, result = solved
    checks = workloads.kink_checks(result.status, result.grid, result.phi, p)
    assert workloads.kink_gate(checks, p) == []
    assert checks["nodes"] == 801


@pytest.mark.parametrize("bump", [1e-3, 1e-5])
def test_kink_gate_fails_a_perturbed_phi(solved, bump):
    p, result = solved
    t = result.grid.nodes
    # an odd bump keeps the candidate odd, so every check runs and only the values are wrong
    values = result.grid.values + bump * (np.exp(-((t - 1.0) ** 2)) - np.exp(-((t + 1.0) ** 2)))
    grid = GridFunction(nodes=t, values=values)
    phi = solver.power_interpolant(t, values, p)
    problems = workloads.kink_gate(workloads.kink_checks("converged", grid, phi, p), p)
    assert any("residual" in msg for msg in problems)


def test_kink_gate_fails_an_unconverged_run(solved):
    p, result = solved
    checks = workloads.kink_checks("max_iter", result.grid, result.phi, p)
    assert workloads.kink_gate(checks, p) == ["status max_iter"]


def _apply_k(tmp_path):
    argv = ["apply-k", "--func", "cos", "--xi", "1.7000", "--out", "apply_k.csv"]
    assert workloads.run_in_process(argv, tmp_path) == 0
    return argv, workloads.collect(tmp_path, argv)


def _change_digit(data: bytes, line: int, column: int, position: int) -> bytes:
    """Replace one digit of one CSV field by another digit."""
    lines = data.decode().split("\n")
    fields = lines[line].split(",")
    digits = [i for i, ch in enumerate(fields[column]) if ch.isdigit()]
    i = digits[position]
    fields[column] = fields[column][:i] + str((int(fields[column][i]) + 1) % 10) + fields[column][i + 1 :]
    lines[line] = ",".join(fields)
    return "\n".join(lines).encode()


def test_cli_artifact_passes_when_identical(tmp_path):
    argv, files = _apply_k(tmp_path)
    assert workloads.check_artifacts(argv, 0, files, dict(files)) == []


@pytest.mark.parametrize("position", [0, 2, -1])
def test_cli_csv_with_one_digit_changed_fails(tmp_path, position):
    argv, reference = _apply_k(tmp_path)
    changed = {"apply_k.csv": _change_digit(reference["apply_k.csv"], 40, 2, position)}
    assert changed != reference
    problems = workloads.check_artifacts(argv, 0, changed, reference)
    assert any("differs from the in-process artifact" in msg for msg in problems)


def test_closed_form_check_alone_catches_a_leading_digit(tmp_path):
    argv, reference = _apply_k(tmp_path)
    changed = {"apply_k.csv": _change_digit(reference["apply_k.csv"], 40, 2, 0)}
    # even when the reference itself carries the change, the closed form e^{-xi^2/4} cos(xi t) does not
    problems = workloads.check_artifacts(argv, 0, changed, dict(changed))
    assert any("closed form" in msg for msg in problems)


def test_cli_nonzero_exit_fails(tmp_path):
    argv, files = _apply_k(tmp_path)
    assert workloads.check_artifacts(argv, 1, files, files) == ["apply-k --func cos --xi 1.7000 --out: exit code 1"]


def test_spectral_verify_operation_passes_its_gate(tmp_path):
    # spectral_verify is not listed in BENCHMARK.json; this test keeps its operation and gate exercised
    wl = workloads.SpectralVerify(1, tmp_path)
    wl.setup()
    assert wl.check(wl.items[0], wl.run(wl.items[0])) == []


def test_branch_locations_match_the_closed_form_for_n1():
    eps = 1e-3
    # u(1-eps, t) = t^2/2 - eps/4 vanishes at +-sqrt(eps/2)
    assert np.allclose(workloads._branch_locations(1, eps), [-math.sqrt(eps / 2), math.sqrt(eps / 2)], rtol=1e-14)


def test_tracer_wraps_by_name_imports_and_restores():
    tracer = spans.Tracer()
    tracer.install()
    try:
        where = tracer.bindings
        assert "padic_string.bvp.panel_rule" in where["solver.panel_rule"]
        assert "padic_string.bvp.power_interpolant" in where["solver.power_interpolant"]
        assert {"padic_string.basis", "padic_string.solver", "padic_string.heatflow", "padic_string.gaussop"} <= {
            w.rsplit(".", 1)[0] for w in where["basis.gauss_hermite_rule"]
        }
        grid = basis.GridFunction(np.linspace(-10, 10, 401), np.tanh(np.linspace(-10, 10, 401)))
        bvp.local_zero_analysis(grid, 1)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["bvp.local_zero_analysis"][0] == 1
    assert summary["solver.panel_rule"][0] == 1
    assert summary["solver.power_interpolant"][0] == 1
    # self times partition the root span: their sum equals its duration
    root = next(s for s in tracer.spans if s[3] == -1)
    assert math.isclose(sum(v[1] for v in summary.values()), root[2] - root[1], rel_tol=1e-9)
    assert bvp.panel_rule is solver.panel_rule and not hasattr(bvp.panel_rule, "__wrapped__")


def test_tail_has_ten_samples_beyond():
    times = [float(i) for i in range(1, 41)]
    value, pct, beyond = run.tail(times)
    assert (pct, beyond) == (75, 10) and value == 30.0
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100, 0)

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from padic_string import basis, cli, gaussop, heatflow, solver


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerify:
    def test_default_run_passes(self, capsys, tmp_path):
        code, out, _ = run(["verify", "--out", str(tmp_path / "verify.json")], capsys)
        assert code == 0
        assert out.count("PASS") == 6
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["passed"] is True
        assert report["quadrature"] == cli.QUADRATURE == 96
        assert "informational" not in report
        assert [s["name"] for s in report["suites"]] == list(cli.SUITES)

    def test_subset(self, capsys):
        code, out, _ = run(["verify", "--only", "eigen,parseval"], capsys)
        assert code == 0
        assert "suite eigen" in out and "suite parseval" in out
        assert "normbound" not in out

    def test_threads_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--threads", "1", "verify"])
        assert exc.value.code == 2

    def test_only_help_lists_every_suite(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify", "--help"])
        assert ",".join(cli.SUITES) in " ".join(capsys.readouterr().out.split())

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = run(["verify", "--only", "nonsense"], capsys)
        assert code == 2
        assert "unknown suite" in err

    def test_failing_suite_exits_one(self, capsys, tmp_path, monkeypatch):
        _, tol = cli.SUITES["parseval"]
        monkeypatch.setitem(cli.SUITES, "parseval", (lambda rule: 1.0, tol))
        code, out, _ = run(["verify", "--out", str(tmp_path / "verify.json")], capsys)
        assert code == 1
        assert "suite parseval: FAIL (max_error=1.000e+00" in out
        assert out.count("PASS") == 5
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["passed"] is False
        assert [s["name"] for s in report["suites"] if not s["passed"]] == ["parseval"]

    def test_non_finite_result_exits_one_and_writes_nothing(self, capsys, tmp_path, monkeypatch):
        # JSON cannot state NaN: a numerical failure (exit 1), not a usage error, and no truncated file
        _, tol = cli.SUITES["eigen"]
        monkeypatch.setitem(cli.SUITES, "eigen", (lambda rule: math.nan, tol))
        out_path = tmp_path / "v.json"
        code, out, err = run(["verify", "--only", "eigen", "--out", str(out_path)], capsys)
        assert code == 1
        assert "suite eigen: FAIL (max_error=nan" in out
        assert err.startswith("numerical error: ") and str(out_path) in err
        assert not out_path.exists()

    def test_suites_match_the_benchmark_check(self):
        # perfbench/workloads.py checks every default verify run against its
        # own SUITES literal; read it without importing the benchmark
        tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "workloads.py").read_text())
        literal = next(
            node.value for node in tree.body
            if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SUITES"]
        )
        assert set(cli.SUITES) == ast.literal_eval(literal), (
            "a new default verify suite first needs a benchmark change that lets workloads.SUITES read cli.SUITES"
        )


class TestSolveCommand:
    def test_approx_table(self, capsys, tmp_path):
        code, out, _ = run(
            ["solve", "--p", "2", "--approx", "3", "--out", str(tmp_path / "table.json")], capsys
        )
        assert code == 0
        assert "branch_c" in out
        assert "0.787298" in out
        table = json.loads((tmp_path / "table.json").read_text())
        values = {row["label"]: row for row in table["branches"]}
        assert values["parabolic"]["a2"] == pytest.approx(-1.0)

    def test_invalid_power_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--p", "0"])
        assert exc.value.code == 2

    def test_approx_requires_p2(self, capsys):
        code, _, err = run(["solve", "--p", "3", "--approx", "3"], capsys)
        assert code == 2
        assert "p = 2" in err

    def test_out_without_approx_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--p", "3", "--out", "x.csv"])
        assert exc.value.code == 2
        assert "--out-prefix" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_step_that_does_not_divide_the_halfwidth_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        code, _, err = run(["solve", "--p", "3", "--step", "0.03"], capsys)
        assert code == 2
        assert "grid step 0.03 does not divide" in err
        assert list(tmp_path.iterdir()) == []

    def test_halfwidth_short_of_the_limits_window_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--p", "3", "--halfwidth", "5", "--out-prefix", "hw"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--halfwidth" in err and "|t| >= 8" in err
        assert list(tmp_path.iterdir()) == []

    def test_halfwidth_at_the_limits_window_converges(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        code, _, _ = run(["solve", "--p", "3", "--halfwidth", "8", "--out-prefix", "hw"], capsys)
        assert code == 0
        assert json.loads((tmp_path / "hw_verify.json").read_text())["status"] == "converged"

    def test_step_leaving_fewer_nodes_than_a_stencil_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # --step 5 leaves 5 grid nodes, short of the power interpolant's 8-node stencil
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        monkeypatch.chdir(tmp_path)
        code, _, err = run(["solve", "--p", "3", "--step", "5", "--out-prefix", "st"], capsys)
        assert code == 2
        assert "largest step that fits is 2.5" in err
        assert list(tmp_path.iterdir()) == []

    def test_step_leaving_nine_nodes_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        code, _, _ = run(["solve", "--p", "3", "--step", "2.5", "--out-prefix", "st"], capsys)
        assert code == 0
        assert len((tmp_path / "st.csv").read_text().splitlines()) == 1 + 9

    def test_numerical_failure_exits_one(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise gaussop.EvaluationError("non-finite seed value at t=0.5", 0.5)

        monkeypatch.setattr(solver, "fixed_point_iterate", fail)
        code, _, err = run(["solve", "--p", "3"], capsys)
        assert code == 1
        assert err.startswith("numerical error: ")

    def test_end_to_end_solve(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        code, out, _ = run(
            ["solve", "--p", "3", "--tol", "1e-9", "--out-prefix", "sol"], capsys
        )
        assert code == 0
        assert "status=converged" in out
        report = json.loads((tmp_path / "sol_verify.json").read_text())
        assert report["max_residual"] < 1e-6
        assert report["limits"]["admissible"] is True
        assert max(report["conservation_laws"]) < 1e-4
        assert report["panel_rule"] == {"width": 1.0, "nodes_per_panel": 16, "substitution_exponent": 5,
                                        "side_panels": 4, "laws_window": 18.5}
        with open(tmp_path / "sol_trace.jsonl") as fh:
            first = json.loads(next(fh))
        assert {"iteration", "change", "residual", "depth", "kernel_built"} == set(first)
        with open(tmp_path / "sol.csv") as fh:
            header = fh.readline().strip()
        assert header == "t,phi,Kphi,phi_p,residual"

    def test_midpoint_residual_is_at_the_tol_level(self, capsys, tmp_path, monkeypatch):
        # the grid residual measures the iteration only; off the grid the
        # degree-7 interpolant of phi^p leaves an O(h^8) error, below tol at both steps
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        for step in ("0.05", "0.025"):
            code, _, _ = run(["solve", "--p", "3", "--step", step, "--out-prefix", f"h{step}"], capsys)
            assert code == 0
            assert json.loads((tmp_path / f"h{step}_verify.json").read_text())["midpoint_residual"] < 1e-9

    @pytest.mark.parametrize("p", [3, 5])
    def test_default_step_meets_the_laws_bound(self, p, capsys, tmp_path, monkeypatch):
        # converged with exit 0 must mean criterion 7's laws bound of 1e-6 holds at the default step
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        code, out, _ = run(["solve", "--p", str(p), "--out-prefix", "d"], capsys)
        assert code == 0 and "status=converged" in out
        report = json.loads((tmp_path / "d_verify.json").read_text())
        assert report["status"] == "converged"
        assert max(report["conservation_laws"]) < 1e-6
        assert report["midpoint_residual"] < 1e-9

    def test_even_p_artifacts_use_the_equations_power(self, capsys, tmp_path, monkeypatch):
        # the erf seed is infeasible for p = 2; its CSV, verify JSON and trace
        # all measure K phi against |phi|^2
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        code, _, _ = run(["solve", "--p", "2", "--out-prefix", "p2"], capsys)
        assert code == 1
        table = np.loadtxt(tmp_path / "p2.csv", delimiter=",", skiprows=1)
        phi, phi_p, res = table[:, 1], table[:, 3], table[:, 4]
        assert phi.min() < 0 and np.allclose(phi_p, phi**2, rtol=1e-12, atol=0.0)
        report = json.loads((tmp_path / "p2_verify.json").read_text())
        with open(tmp_path / "p2_trace.jsonl") as fh:
            traced = json.loads(fh.readline())["residual"]
        assert report["status"] == "infeasible"
        assert report["max_residual"] == pytest.approx(traced, abs=1e-12) == pytest.approx(res.max(), abs=1e-12)

    def test_infeasible_trace_is_valid_json(self, capsys, tmp_path, monkeypatch):
        # RFC 8259 has no NaN or Infinity: the infeasible step takes no
        # change, and its trace line says so with null
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        code, _, _ = run(["solve", "--p", "2", "--out-prefix", "p2"], capsys)
        assert code == 1
        with open(tmp_path / "p2_trace.jsonl") as fh:
            entries = [json.loads(line, parse_constant=reject) for line in fh]
        assert entries and entries[-1]["change"] is None
        # where K phi went negative: its least grid value and that node
        assert entries[-1]["min_Kphi"] < 0 and -10.0 <= entries[-1]["min_Kphi_at"] <= 10.0
        json.loads((tmp_path / "p2_verify.json").read_text(), parse_constant=reject)

    def test_json_writers_refuse_nan(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        with pytest.raises(ValueError):
            cli._write_json("bad.json", {"x": math.nan})
        assert list(tmp_path.iterdir()) == []

    def test_constant_seed_is_the_exact_even_solution(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        code, out, _ = run(["solve", "--p", "2", "--init", "one", "--out-prefix", "one"], capsys)
        assert code == 0
        assert "status=converged" in out
        report = json.loads((tmp_path / "one_verify.json").read_text())
        assert report["max_residual"] < 1e-12
        assert report["limits"]["admissible"] is True


class TestBranchCommand:
    def test_second_order_roots(self, capsys, tmp_path):
        path = tmp_path / "branch.json"
        code, _, _ = run(["branch", "--n", "2", "--eps", "1e-4", "--out", str(path)], capsys)
        assert code == 0
        report = json.loads(path.read_text())
        lam = [math.sqrt(6 - 2 * math.sqrt(6)), math.sqrt(6 + 2 * math.sqrt(6))]
        expected = sorted([0.5 * v * 1e-2 for v in lam] + [-0.5 * v * 1e-2 for v in lam])
        assert report["roots"] == pytest.approx(expected, abs=1e-10)
        assert report["mismatch"] is False

    def test_report_keys(self, capsys, tmp_path):
        path = tmp_path / "branch.json"
        code, _, _ = run(["branch", "--n", "2", "--eps", "0.01", "--out", str(path)], capsys)
        assert code == 0
        report = json.loads(path.read_text())
        assert set(report) == {"eps", "lambda", "mismatch", "n", "predicted", "roots"}
        assert report["eps"] == 1.0 - (1.0 - 0.01)

    def test_branching_roots_computed_once(self, capsys, tmp_path, monkeypatch):
        # the report and its one track_zeros call share one computation
        basis.gauss_hermite_rule.cache_clear()
        calls = []
        original = np.linalg.eigvalsh

        def counted(matrix):
            calls.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        code, _, _ = run(["branch", "--n", "3", "--out", str(tmp_path / "branch.json")], capsys)
        assert code == 0
        assert calls == [(6, 6)]

    def test_first_order_closed_form(self, capsys, tmp_path):
        path = tmp_path / "branch1.json"
        code, _, _ = run(["branch", "--n", "1", "--eps", "0.01", "--out", str(path)], capsys)
        assert code == 0
        report = json.loads(path.read_text())
        root = math.sqrt(0.005)
        assert report["roots"] == pytest.approx([-root, root], abs=1e-12)

    def test_third_order_symmetric(self, capsys, tmp_path):
        path = tmp_path / "branch3.json"
        code, _, _ = run(["branch", "--n", "3", "--out", str(path)], capsys)
        assert code == 0
        report = json.loads(path.read_text())
        assert len(report["roots"]) == 6
        assert report["roots"] == pytest.approx([-r for r in report["roots"][::-1]])

    def test_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["branch", "--n", "2", "--out", str(a)], capsys)
        run(["branch", "--n", "2", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["branch", "--n", "0"])
        assert exc.value.code == 2


class TestBvpCommand:
    def test_writes_csv_and_sidecar(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        code, _, _ = run(["bvp", "--p", "2", "--alpha-sq", "1.1", "--branch", "plus"], capsys)
        assert code == 0
        sidecar = json.loads((tmp_path / "bvp.json").read_text())
        assert sidecar["c"] == pytest.approx([0.3014, 0.1648, -0.05016, 0.04494], abs=2e-4)
        assert sidecar["monomials"] == pytest.approx([0.4017, -0.22, -0.2207, 0.4149], abs=4e-4)
        # values round-trip through the printed CSV at %.15g precision
        rows = (tmp_path / "bvp.csv").read_text().strip().splitlines()
        assert rows[0] == "t,phi"
        from padic_string.bvp import ErfAnsatz

        ansatz = ErfAnsatz(alpha=math.sqrt(1.1), c=np.asarray(sidecar["c"]))
        for row in rows[1:10]:
            t, phi = (float(v) for v in row.split(","))
            assert phi == pytest.approx(float(ansatz(t)), rel=1e-12, abs=1e-12)

    def test_minus_branch(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        code, _, _ = run(["bvp", "--branch", "minus", "--out", "minus.csv"], capsys)
        assert code == 0
        sidecar = json.loads((tmp_path / "minus.json").read_text())
        # the erf base keeps its odd coefficients, so c1 shifts rather than
        # flipping sign: c1 = alpha^2 (-a1 - 1/sqrt(2 pi)) / 2
        assert sidecar["a_targets"][1] == pytest.approx(-0.6984, abs=1e-3)
        assert sidecar["c"][1] == pytest.approx(-0.60358, abs=1e-4)
        assert sidecar["c"][0] == pytest.approx(0.3014, abs=2e-4)


class TestSmallCommands:
    def test_hermite_csv_round_trip(self, capsys, tmp_path):
        path = tmp_path / "h3.csv"
        code, _, _ = run(
            ["hermite", "--kind", "H", "--n", "3", "--tmin", "-2", "--tmax", "2", "--step", "0.5", "--out", str(path)],
            capsys,
        )
        assert code == 0
        assert path.read_text().splitlines()[0] == "t,value"
        t, value = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        assert value == pytest.approx(basis.eval_H(3, t), abs=1e-12)

    def test_apply_k_columns(self, capsys, tmp_path):
        path = tmp_path / "kf.csv"
        code, _, _ = run(
            ["apply-k", "--func", "cos", "--xi", "1", "--tmin", "0", "--tmax", "1", "--step", "0.5", "--out", str(path)],
            capsys,
        )
        assert code == 0
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,f,Kf"
        t, f, kf = (float(v) for v in rows[1].split(","))
        assert kf == pytest.approx(math.exp(-0.25) * math.cos(t), abs=1e-10)

    def test_interp_slice(self, capsys, tmp_path):
        path = tmp_path / "u.csv"
        code, _, _ = run(
            ["interp", "--func", "example", "--p", "2", "--x", "0.5", "--tmin", "0", "--tmax", "0", "--step", "1", "--out", str(path)],
            capsys,
        )
        assert code == 0
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x,t,u"
        x, t, u = (float(v) for v in rows[1].split(","))
        assert (x, t) == (0.5, 0.0)
        assert u == pytest.approx(math.sqrt(2) / math.sqrt(0.75), abs=1e-9)

    def test_gnuplot_script(self, capsys, tmp_path):
        path = tmp_path / "h.csv"
        code, _, _ = run(
            ["hermite", "--kind", "V", "--n", "2", "--out", str(path), "--gnuplot"], capsys
        )
        assert code == 0
        script = (tmp_path / "h.csv.gp").read_text()
        assert "plot" in script

    def test_gnuplot_plots_every_column_against_the_first(self, capsys, tmp_path, monkeypatch):
        # a relative output directory holds the script next to its CSV
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.OUTDIR_ENV, "out")
        code, _, _ = run(["apply-k", "--func", "erf", "--gnuplot"], capsys)
        assert code == 0
        assert sorted(f.name for f in (tmp_path / "out").iterdir()) == ["apply_k.csv", "apply_k.csv.gp"]
        assert (tmp_path / "out" / "apply_k.csv.gp").read_text().splitlines()[-1] == (
            "plot 'apply_k.csv' using 1:2 with lines, 'apply_k.csv' using 1:3 with lines"
        )


class TestOptionUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["hermite", "--n", "3", "--step", "0"], "--step must be positive and finite, got 0.0"),
            (["solve", "--p", "3", "--step", "0"], "--step must be positive and finite, got 0.0"),
            (["apply-k", "--step", "-0.1"], "--step must be positive and finite, got -0.1"),
            (["interp", "--x", "0.5", "--step", "nan"], "--step must be positive and finite, got nan"),
            (["apply-k", "--tmin", "3", "--tmax", "-3"], "--tmax >= --tmin, got 3.0 and -3.0"),
            (["hermite", "--n", "3", "--tmax", "inf"], "--tmin and --tmax must be finite"),
            (["bvp", "--alpha-sq", "-1"], "--alpha-sq must be finite and exceed 1, got -1.0"),
            (["bvp", "--alpha-sq", "1"], "--alpha-sq must be finite and exceed 1, got 1.0"),
            (["branch", "--n", "2", "--eps", "0"], "--eps must be in (0, 0.5], got 0.0"),
            (["branch", "--n", "2", "--eps", "0.7"], "--eps must be in (0, 0.5], got 0.7"),
            (["solve", "--p", "3", "--quadrature", "96"], "unrecognized arguments: --quadrature 96"),
            (["verify", "--quadrature", "8"], "unrecognized arguments: --quadrature 8"),
            (["apply-k", "--quadrature", "8"], "unrecognized arguments: --quadrature 8"),
            (["interp", "--x", "0.5", "--quadrature", "8"], "unrecognized arguments: --quadrature 8"),
            (["solve", "--p", "2", "--approx", "4"], "argument --approx: invalid choice: 4"),
            (["solve", "--p", "3", "--damping", "0.5"], "unrecognized arguments: --damping 0.5"),
            (["solve", "--p", "3", "--max-iter", "0"], "--max-iter must be at least 1, got 0"),
            (["interp", "--x", "nan"], "--x must be finite and non-negative, got nan"),
            (["interp", "--x", "inf"], "--x must be finite and non-negative, got inf"),
        ],
        ids=["hermite-zero-step", "solve-zero-step", "negative-step", "nan-step",
             "reversed-range", "infinite-tmax", "negative-alpha-sq", "alpha-sq-one",
             "zero-eps", "eps-above-half", "solve-quadrature-removed", "verify-quadrature-removed",
             "apply-k-quadrature-removed", "interp-quadrature-removed", "approx-not-three", "solve-damping-removed",
             "max-iter-zero", "interp-nan-x", "interp-inf-x"],
    )
    def test_exits_two_naming_the_option(self, argv, message, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

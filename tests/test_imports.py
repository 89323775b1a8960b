"""Import budget of a CLI process, measured in fresh interpreters.

The package loads no scipy module: the Gauss-Hermite rules, erf, the zero
locator and the power spline of an iterating solve use numpy and math only,
so no subcommand and no library call below loads a scipy module at all.
numpy.fft, which the fixed-point iteration's preconditioner uses, loads on
the first iterating solve and not before: the package import and the
subcommands that do not iterate leave it unloaded.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padic_string
from padic_string import cli

SRC = str(Path(padic_string.__file__).resolve().parent.parent)

# Runs each argv through cli.main in one process and prints, per call, the
# exit code, the scipy modules loaded after it and whether numpy.fft is.
RUN_CALLS = """
import json, sys
from padic_string import cli
out = []
for argv in json.loads(sys.argv[1]):
    rc = cli.main(argv)
    out.append([rc, sorted(m for m in sys.modules if m.startswith("scipy")), "numpy.fft" in sys.modules])
print(json.dumps(out))
"""


def fresh_python(code: str, *args: str, cwd=None) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if cwd is not None:
        env[cli.OUTDIR_ENV] = str(cwd)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("module", ["padic_string", "padic_string.cli"])
def test_import_leaves_spline_and_root_finder_unloaded(module):
    loaded = fresh_python(f"import sys, {module}; print([m for m in sys.modules if m.startswith('scipy')])")
    assert loaded == "[]"


@pytest.mark.parametrize("module", ["padic_string", "padic_string.cli"])
def test_import_leaves_numpy_fft_unloaded(module):
    assert fresh_python(f"import sys, {module}; print('numpy.fft' in sys.modules)") == "False"


def test_non_iterating_subcommands_stay_within_budget(tmp_path):
    calls = [
        ["hermite", "--n", "3"],
        ["apply-k", "--func", "erf"],
        ["interp", "--x", "0.5"],
        ["bvp"],
        ["verify"],
        ["solve", "--p", "2", "--approx", "3"],
        ["branch", "--n", "2"],
    ]
    results = json.loads(fresh_python(RUN_CALLS, json.dumps(calls), cwd=tmp_path))
    assert results == [[0, [], False]] * len(calls)


def test_iterating_solve_and_grid_zero_analysis_load_no_scipy(tmp_path):
    code = RUN_CALLS.replace("print(json.dumps(out))", """
import numpy as np
from padic_string import basis, bvp
nodes = np.linspace(-10.0, 10.0, 401)
bvp.local_zero_analysis(basis.GridFunction(nodes, np.cbrt(np.tanh(nodes))), 1)
out.append(sorted(m for m in sys.modules if m.startswith("scipy")))
print(json.dumps(out))""")
    results = json.loads(fresh_python(code, json.dumps([["solve", "--p", "3"]]), cwd=tmp_path))
    assert results == [[0, [], True], []]

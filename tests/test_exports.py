import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

MODULES = ["basis", "bvp", "cli", "gaussop", "heatflow", "solver"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"padic_string.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_exist():
    # each name __init__.py re-exports must be a listed (hence resolving) public name
    init = Path(importlib.util.find_spec("padic_string").origin)
    imports = [
        (node.module, alias.name)
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imports
    unlisted = [
        f"{mod}.{name}"
        for mod, name in imports
        if name not in importlib.import_module(f"padic_string.{mod}").__all__
    ]
    assert unlisted == []


# Public names that nothing but their own tests reaches by name, each kept for its reason.
UNREACHED_ALLOWED = {
    # result types: callers read them off the functions that return them
    "ApproxSolution3", "IterationResult", "LimitReport", "LocalZeroReport",
    "TaylorSeries", "TrackedZeros", "ZeroReport",
    # references the tests check the fast paths against
    "coeff_c", "inner_xm_Hn", "erf_base_coeff", "ansatz_to_hermite",
    # paper checks waiting for their registration as verify suites
    "entire_bound", "linear_block_residual", "kernel_estimate_bound", "kernel_estimate_check", "zero_report",
}


def test_every_public_name_is_reached():
    # each name in an __all__ appears as a word in the CLI, the benchmark, the
    # acceptance gate or another src/ module, unless it is allowed above; an
    # allowed name must stay public and unreached, so the list cannot go stale
    root = Path(__file__).resolve().parents[1]
    sources = {name: (root / "src" / "padic_string" / f"{name}.py").read_text() for name in MODULES}
    reachers = [sources["cli"], (root / "tests" / "test_acceptance.py").read_text()]
    reachers += [path.read_text() for path in sorted((root / "perfbench").glob("*.py"))]
    unreached = {
        public
        for name in MODULES
        for public in getattr(importlib.import_module(f"padic_string.{name}"), "__all__", [])
        if not any(re.search(rf"\b{re.escape(public)}\b", text)
                   for text in reachers + [text for other, text in sources.items() if other != name])
    }
    assert sorted(unreached - UNREACHED_ALLOWED) == []
    assert sorted(UNREACHED_ALLOWED - unreached) == []

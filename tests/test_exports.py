import ast
import importlib
import importlib.util
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

"""What qwps exports and depends on.

Every name a module exports in ``__all__`` exists, so deleting a function
cannot leave a dangling export behind; every exported name has a caller
outside the tests, or a stated reason to stay; and numpy is the only runtime
dependency: no module imports scipy.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import qwps

MODULES = sorted(info.name for info in pkgutil.iter_modules(qwps.__path__))
ROOT = Path(__file__).resolve().parents[1]
SRC = Path(qwps.__file__).resolve().parent

# exported names that nothing in src/qwps or bench/ reads, each kept for a reason
KEPT_UNREFERENCED = {
    # the circle grading, which the p-window bases and the degree tests are checked against
    ("coaction", "degree"),
    # the orders of the spinor legs, which the coinvariant spinor basis is checked against
    ("coaction", "spinor_degree"),
    # the GNS inner product, one entry of coord.gram, that the tests read
    ("coord", "inner"),
    # the odd triple's basis, which the odd triple's operators are to be built on
    ("dirac", "coinvariant_spinor_basis"),
}


def test_every_module_is_listed():
    assert {"exact", "qcore", "cg", "coord", "coaction", "dirac", "teardrop", "operators",
            "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"qwps.{name}")
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_every_exported_name_has_a_caller_outside_the_tests():
    referenced = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    bench_words = set()
    for path in (ROOT / "bench").glob("*.py"):
        bench_words.update(re.findall(r"\w+", path.read_text()))
    unreferenced = {
        (name, attr)
        for name in MODULES
        for attr in importlib.import_module(f"qwps.{name}").__all__
        if attr not in referenced and attr not in bench_words
    }
    assert unreferenced == KEPT_UNREFERENCED


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w-]+", dep)[0] for dep in project["dependencies"]] == ["numpy"]
    test_extra = project["optional-dependencies"]["test"]
    assert "scipy" in [re.match(r"[\w-]+", dep)[0] for dep in test_extra]


def test_no_module_imports_scipy():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                sites += [(path.stem, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                sites.append((path.stem, node.module or ""))
    assert [site for site in sites if site[1].split(".")[0] == "scipy"] == []
    assert ("operators", "numpy") in sites  # the walk sees every import

"""Every name a qwps module exports in ``__all__`` exists, so deleting a
function cannot leave a dangling export behind."""

import importlib
import pkgutil

import pytest

import qwps

MODULES = sorted(info.name for info in pkgutil.iter_modules(qwps.__path__))


def test_every_module_is_listed():
    assert {"exact", "qcore", "cg", "coord", "coaction", "dirac", "teardrop", "operators",
            "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"qwps.{name}")
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []

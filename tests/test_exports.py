"""Every exported name exists, so a name left in an `__all__` after its
definition was deleted fails here rather than in a user's import."""

import importlib
import pkgutil

import pytest

import mpraloha

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(mpraloha.__path__)
)


@pytest.mark.parametrize("name", ["mpraloha"] + [
    f"mpraloha.{module}" for module in MODULES
])
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_star_import():
    namespace = {}
    exec("from mpraloha import *", namespace)
    assert set(mpraloha.__all__) <= namespace.keys()

"""Every exported name exists, so a name left in an `__all__` after its
definition was deleted fails here rather than in a user's import; and no
module imports a name it never uses, so a deletion leaves no dead import."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import mpraloha

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(mpraloha.__path__)
)


NAMES = ["mpraloha"] + [f"mpraloha.{module}" for module in MODULES]


@pytest.mark.parametrize("name", NAMES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_star_import():
    namespace = {}
    exec("from mpraloha import *", namespace)
    assert set(mpraloha.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", NAMES)
def test_no_unused_imports(name):
    module = importlib.import_module(name)
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(
                alias.asname or alias.name.partition(".")[0]
                for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used - set(module.__all__))
    assert not unused, f"{name} imports names it never uses: {unused}"

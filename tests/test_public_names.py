"""The package namespace re-exports only names its modules declare public."""

import ast
import importlib
import inspect

import qgalois


def _reexports():
    """(module, name) for every name qgalois/__init__.py imports from a submodule."""
    tree = ast.parse(inspect.getsource(qgalois))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"qgalois.{node.module}")
            for alias in node.names:
                yield module, alias.name


def test_every_all_entry_exists():
    modules = {module for module, _ in _reexports()}
    assert modules
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"


def test_reexported_names_are_in_module_all():
    for module, name in _reexports():
        assert hasattr(qgalois, name)
        if hasattr(module, "__all__"):
            assert name in module.__all__, f"{name} is not in {module.__name__}.__all__"

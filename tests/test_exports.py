"""The public surface: every name a module exports resolves."""

import importlib
import pkgutil

import idml


def test_every_exported_name_resolves():
    modules = [idml] + [
        importlib.import_module(f"idml.{info.name}") for info in pkgutil.iter_modules(idml.__path__)
    ]
    for mod in modules:
        exported = getattr(mod, "__all__", ())
        assert len(set(exported)) == len(exported), f"{mod.__name__}.__all__ repeats a name"
        missing = [name for name in exported if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names undefined {missing}"
        namespace = {}
        exec(f"from {mod.__name__} import *", namespace)
        assert set(exported) <= set(namespace)

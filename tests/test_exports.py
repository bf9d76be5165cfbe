"""The public surface: every name a module exports resolves, and so does
every name the benchmark wraps."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import idml

TRACING_PY = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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


def test_every_benchmark_wrap_site_resolves(monkeypatch):
    # The benchmark wraps idml's functions at their import sites; a name a
    # refactor drops would otherwise break only traced benchmark runs.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    sites = [site[:2] for site in tracing.SPAN_SITES + tracing.COUNT_SITES + tracing.TICK_SITES]
    assert ("idml.model", "AdamW.step") in sites
    for module, path in sites:
        owner, attr = tracing._resolve(module, path)
        assert callable(getattr(owner, attr, None)), f"{module}.{path} does not resolve"
    with tracing.Recorder(traced=True):  # installs every wrapper, then restores them
        pass

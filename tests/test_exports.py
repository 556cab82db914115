"""Public surface: every exported name resolves and is listed once."""

import importlib
import pkgutil

import pcparam


def test_every_exported_name_exists_once():
    modules = [pcparam] + [
        importlib.import_module(f"pcparam.{info.name}")
        for info in pkgutil.iter_modules(pcparam.__path__)
    ]
    assert len(modules) == 11
    for module in modules:
        names = getattr(module, "__all__", ())
        assert len(names) == len(set(names)), f"{module.__name__}.__all__ repeats a name"
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists missing names {missing}"

"""Every name a module exports in ``__all__`` resolves on that module."""

import importlib
import pkgutil

import pytest

import xxchain

MODULES = ["xxchain"] + sorted(
    f"xxchain.{info.name}" for info in pkgutil.iter_modules(xxchain.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)] == []

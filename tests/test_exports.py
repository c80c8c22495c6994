"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import catalan_integrals

# The package and its modules, less __main__, which runs the command line
# on import.
MODULES = ["catalan_integrals"] + [
    f"catalan_integrals.{info.name}"
    for info in pkgutil.iter_modules(catalan_integrals.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(exports) == len(set(exports))
    assert [export for export in exports if not hasattr(module, export)] == []

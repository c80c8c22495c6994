"""Package-wide checks: every exported name resolves, so a deletion cannot
leave a stale export, and no module relies on an assert statement."""

import ast
import importlib
import pathlib
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


PACKAGE = pathlib.Path(catalan_integrals.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(PACKAGE)) for p in SOURCES]
)
def test_no_assert_statements(path):
    # python -O strips assert statements, so a runtime check written as
    # one would vanish; raise an exception instead.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"

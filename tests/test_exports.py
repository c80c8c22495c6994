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


LIBRARY = ["exact", "kernels", "quadrature", "representations", "series"]

# The names the package exported when its __init__ listed them by hand,
# less Method, which ROUTES replaced as the one table of routes.
HAND_LISTED = [
    "CatalanTable",
    "GlaisherResult",
    "IntegrandEvaluationError",
    "KernelSpec",
    "QuadConfig",
    "QuadResult",
    "RepresentationResult",
    "SeriesResult",
    "TailBound",
    "binet_catalan_kernel",
    "catalan_binet",
    "catalan_exact",
    "catalan_gamma_closed_form",
    "catalan_malmsten",
    "catalan_numbers",
    "catalan_penson_mellin",
    "catalan_penson_moment",
    "compare_representations",
    "glaisher_from_integral",
    "integrate_finite",
    "integrate_half_line",
    "ln_exact",
    "log_gamma_reference",
    "malmsten_catalan_kernel",
    "series_tail_bound",
    "stewart_sum_odd_weight",
    "stewart_sum_plain",
]


def test_package_republishes_its_library_modules():
    joined = [
        export
        for name in LIBRARY
        for export in importlib.import_module(f"catalan_integrals.{name}").__all__
    ]
    assert catalan_integrals.__all__ == joined
    assert set(HAND_LISTED) <= set(joined)
    assert set(joined) - set(HAND_LISTED) == {
        "MAX_INDEX",
        "ROUTES",
        "Route",
        "binet_core",
        "ODD_WEIGHT_TARGET",
        "PLAIN_TARGET",
    }


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


# The benchmark drives the package through perfbench/passes.py and taps
# the names that perfbench/tracing.py's Tracer.install replaces; a name
# deleted from the package would break it with every other test green.
PASSES = pathlib.Path(__file__).parent.parent / "perfbench" / "passes.py"
TAPPED = [
    "representations.ln_exact",
    "representations.integrate_finite",
    "representations.integrate_half_line",
    "series.integrate_finite",
    "exact.CatalanTable.build",
]


def _benchmark_reads() -> list[str]:
    """Every attribute that passes.py reads from a name bound by its
    imports of the package, as a path relative to the package."""
    tree = ast.parse(PASSES.read_text(encoding="utf-8"), filename=str(PASSES))
    prefixes = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "catalan_integrals":
                    prefixes[alias.asname or alias.name] = ""
        elif isinstance(node, ast.ImportFrom) and node.module == "catalan_integrals":
            for alias in node.names:
                prefixes[alias.asname or alias.name] = f"{alias.name}."
    return [
        prefixes[node.value.id] + node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in prefixes
    ]


def _resolves(path: str) -> bool:
    obj = catalan_integrals
    for part in path.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_benchmark_entry_points_exist():
    for name in MODULES:  # binds each submodule on the package
        importlib.import_module(name)
    reads = _benchmark_reads()
    assert {"compare_representations", "report.to_json"} <= set(reads)
    assert [path for path in reads + TAPPED if not _resolves(path)] == []

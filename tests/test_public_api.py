"""Public-API surface tests: imports, __all__ consistency, docstrings."""

import importlib
import inspect
import pkgutil
import subprocess
import sys

import pytest

import repro

#: Every package and module of ``repro``, found by walking the package tree
#: (``repro.__main__`` runs nothing on import).
MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)


@pytest.mark.parametrize("name", MODULES)
def test_imports_cleanly(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    """Every entry in __all__ must actually exist."""
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", []):
        assert hasattr(module, export), f"{name}.__all__ lists missing {export!r}"


@pytest.mark.parametrize("name", MODULES)
def test_module_docstrings_present(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    """Every public class/function in __all__ carries a docstring."""
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", []):
        obj = getattr(module, export)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__ and obj.__doc__.strip(), (
                f"{name}.{export} lacks a docstring"
            )


def test_readme_quickstart_symbols_exist():
    import repro
    from repro.circuits import OpAmpProblem  # noqa: F401

    assert hasattr(repro, "EasyBO")
    assert hasattr(repro, "make_algorithm")
    assert hasattr(repro, "__version__")


def test_cold_import_skips_heavy_modules():
    """Importing the package, the circuits and the distributed layer loads
    neither ``scipy.stats`` nor ``networkx``."""
    code = (
        "import sys, repro, repro.circuits, repro.distributed; "
        "print([m for m in ('scipy.stats', 'networkx') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

"""The export lists: each ``__all__`` names what its module holds and defines,
the package re-exports only what its modules export, and the evaluators that
only tests read (the pointwise kernel evaluators, the two-mode Wigner function
and the one-float formatter) are test oracles, not part of the library."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import symplectomo

MODULES = sorted(info.name for info in pkgutil.iter_modules(symplectomo.__path__))
# the test-only evaluators live in tests/oracles.py, and the one-setting
# duplicates of twomode.tilde_marginal are gone
ORACLE_NAMES = (
    "HomodyneSetting",
    "_mu_nu",
    "_check_indices",
    "displacement_element",
    "_prefactor",
    "kernel_number",
    "kernel_matrix",
    "kernel_coherent",
    "kernel_coordinate_phase",
    "kernel_homodyne_number",
    "kernel_two_mode_number",
    "_per_mode_zetas",
    "tilde_marginal_gaussian",
    "tilde_marginal_cat",
    "wigner_two_mode",
    "_cross_wigner_two_mode",
    "format_float",
)


def _reexports() -> list[tuple[str, str]]:
    """``(module, name)`` for each name that ``symplectomo/__init__.py`` imports from a module of the package."""
    tree = ast.parse(inspect.getsource(symplectomo))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"symplectomo.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_what_the_module_defines(name):
    module = importlib.import_module(f"symplectomo.{name}")
    defined = (getattr(module, n) for n in getattr(module, "__all__", ()))
    foreign = [v for v in defined if (inspect.isclass(v) or inspect.isfunction(v)) and v.__module__ != module.__name__]
    assert not foreign


@pytest.mark.parametrize("module_name, name", _reexports())
def test_package_reexports_only_exported_names(module_name, name):
    module = importlib.import_module(f"symplectomo.{module_name}")
    if hasattr(module, "__all__"):
        assert name in module.__all__
    else:  # a module without an export list exports its public names
        assert not name.startswith("_") and getattr(module, name).__module__ == module.__name__


@pytest.mark.parametrize(
    "module", ["symplectomo", "symplectomo.kernels", "symplectomo.twomode", "symplectomo.states", "symplectomo.io"]
)
def test_kernel_oracles_are_not_in_the_library(module):
    assert not [n for n in ORACLE_NAMES if hasattr(importlib.import_module(module), n)]

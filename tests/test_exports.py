"""The package's export lists name only what exists, removed names stay
removed, and the modules import each other only along the layering."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import wzpi
from wzpi import gosper, numeric


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from wzpi import *", namespace)
    assert set(wzpi.__all__) <= set(namespace)


@pytest.mark.parametrize("module", [wzpi, gosper, numeric], ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


@pytest.mark.parametrize("path", ["wzpi.g_value", "wzpi.PoleOnLattice", "wzpi.wz.g_value",
                                  "wzpi.wz.PoleOnLattice", "wzpi.terms.shift_quotient_n",
                                  "wzpi.RatFn", "wzpi.terms.shift_quotient_k_parts",
                                  "wzpi.terms.shift_quotient_n_parts", "wzpi.terms._poly",
                                  "wzpi.terms.factor_product", "wzpi.wz._keys",
                                  "wzpi.terms.term_sum_parts"])
def test_removed_names_are_gone(path):
    module, name = path.rsplit(".", 1)
    module = importlib.import_module(module)
    assert not hasattr(module, name)
    assert name not in getattr(module, "__all__", ())


def package_imports(path: Path) -> "list[tuple[str, list[str]]]":
    """(module of the package, imported names) for every import of the
    package in one source file, nested ones included; a module imported
    whole comes with no names."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [(a.name[len("wzpi."):], []) for a in node.names
                    if a.name.startswith("wzpi.")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "wzpi":
                    continue
                module = module[len("wzpi."):]
            names = [a.name for a in node.names]
            out += [(module, names)] if module else [(name, []) for name in names]
    return out


SOURCES = {path.stem: package_imports(path)
           for path in sorted(Path(wzpi.__file__).parent.glob("*.py"))}


def test_only_the_package_and_gosper_import_unipoly():
    users = [(stem, names) for stem, imports in SOURCES.items()
             for module, names in imports if module == "unipoly"]
    assert {stem for stem, _ in users} == {"__init__", "gosper"}
    assert [names for stem, names in users if stem == "gosper"] == [["UniPolyQn"]]


def test_unipoly_imports_only_algebra_from_the_package():
    assert {module for module, _ in SOURCES["unipoly"]} == {"algebra"}

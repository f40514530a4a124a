"""The package's export lists name only what exists, and removed names stay
removed."""
from __future__ import annotations

import importlib

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
                                  "wzpi.RatFn"])
def test_removed_names_are_gone(path):
    module, name = path.rsplit(".", 1)
    module = importlib.import_module(module)
    assert not hasattr(module, name)
    assert name not in getattr(module, "__all__", ())

"""The package's export lists name only what exists."""
from __future__ import annotations

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

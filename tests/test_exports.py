"""Every name a module exports exists: a deletion that leaves a stale
``__all__`` entry or package export fails here."""

import importlib
import pkgutil

import pytest

import oscstab

MODULES = sorted(m.name for m in pkgutil.iter_modules(oscstab.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"oscstab.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, missing


def test_star_import_of_the_package():
    ns = {}
    exec("from oscstab import *", ns)
    assert set(oscstab.__all__) <= set(ns)
    assert "coupling_matrix" in ns

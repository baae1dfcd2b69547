"""The package exports nothing itself: each public name has one import path,
its module's."""

import importlib
import pkgutil
import types

import pytest

import hhtmotion

MODULES = sorted(info.name for info in pkgutil.iter_modules(hhtmotion.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_import_as_binds_the_module(name):
    namespace = {}
    exec(f"import hhtmotion.{name} as m", namespace)
    assert namespace["m"] is importlib.import_module(f"hhtmotion.{name}")


def test_package_reexports_nothing():
    for name in MODULES:
        importlib.import_module(f"hhtmotion.{name}")
    exported = [name for name, value in vars(hhtmotion).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert exported == []

"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import lattower

MODULES = sorted(m.name for m in pkgutil.iter_modules(lattower.__path__, "lattower."))


def test_the_package_exports_resolve():
    assert [name for name in lattower.__all__ if not hasattr(lattower, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(module, x)] == []

"""The package's public names, each loaded from its module on first access."""

import importlib
import sys
import types

import pytest

import hirzebruch
from hirzebruch import rings


@pytest.mark.parametrize("name", hirzebruch.__all__)
def test_public_name_is_the_object_of_its_defining_module(name):
    value = getattr(hirzebruch, name)
    if isinstance(value, types.ModuleType):
        assert value is importlib.import_module(f"hirzebruch.{name}")
    else:
        assert value is getattr(sys.modules[value.__module__], name)


def test_dir_lists_every_public_name():
    assert set(hirzebruch.__all__) <= set(dir(hirzebruch))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hirzebruch import *", namespace)
    assert set(hirzebruch.__all__) <= set(namespace)
    assert namespace["CohClass"] is hirzebruch.spaces.CohClass


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hirzebruch.no_such_name
    assert not hasattr(hirzebruch, "no_such_name")
    with pytest.raises(ImportError):
        from hirzebruch import no_such_name  # noqa: F401


def test_rational_function_alias_is_still_exported():
    # perfbench/tracer.py binds it
    assert "RationalFunctionY" in hirzebruch.__all__
    assert hirzebruch.RationalFunctionY is rings.RationalFunctionY is rings.LaurentY

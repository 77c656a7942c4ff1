"""The package's public names, each loaded from its module on first access."""

import importlib
import pathlib
import re
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


# Names kept only because perfbench/tracer.py looks them up; delete them when
# the benchmark stops binding engine names.
KEPT_FOR_THE_TRACER = ["rings.RationalFunctionY", "motivic.MotivicClass", "motivic.custom"]


@pytest.mark.parametrize("path", KEPT_FOR_THE_TRACER)
def test_a_name_kept_for_the_tracer_resolves(path):
    module, name = path.split(".")
    assert getattr(importlib.import_module(f"hirzebruch.{module}"), name) is not None


def test_motivic_class_is_an_empty_placeholder():
    from hirzebruch import hodge, motivic
    cls = motivic.MotivicClass
    assert cls.__mro__[1:] == hodge.HodgeDiamond.__mro__
    assert not [k for k, v in vars(cls).items() if callable(v)]
    assert "MotivicClass" not in hirzebruch.__all__
    assert type(motivic.projective(1)) is hodge.HodgeDiamond


def test_only_the_conftest_fixture_patches_the_genus_series():
    # kept classes are computed once, so a raw patch of the series would
    # leave poisoned classes on live models for later tests; the
    # ``poisoned_todd`` fixture also swaps the table of live models
    tests = pathlib.Path(__file__).resolve().parent
    patch = re.compile(r"setattr\([^)]*genus_series|\bgenus_series\s*=(?!=)")
    patching = sorted(p.name for p in tests.glob("*.py") if patch.search(p.read_text()))
    assert patching == ["conftest.py"]

"""Exact Hodge genera and Hirzebruch-type characteristic classes for
desk-scale models of complex algebraic varieties.

Importing the package loads only ``errors`` and ``rings``.  Every other
public name, and the submodules ``hodge``, ``motivic``, ``spaces``,
``bundles`` and ``transforms``, loads its module on first access (PEP 562),
so a caller that computes on a point never compiles the space engine, and
one that computes on a space never compiles the motivic code.
"""

from importlib import import_module

from .errors import (InvalidParameter, MissingLogStructure, NotPolynomial, ParseError,
                     UnsupportedMap)
from .rings import LaurentY, RationalFunctionY, parse_y, render_y

__version__ = "0.1.0"

_HOMES = {  # submodule -> the public names it defines
    "hodge": "HodgeDiamond parse_uv render_uv",
    "motivic": "MotivicClass",
    "spaces": "BundleClass CohClass SpaceModel",
    "bundles": "ChernRootSeries apply_series genus_series k_dual lambda_y",
    "transforms": "VariationData chi_y_genus csm_arrangement degree exterior homology_dual "
                  "mhc_cohomological mhc_y mht pullback_smooth pushforward specialize_minus_one",
}
_HOME = {name: mod for mod, names in _HOMES.items() for name in names.split()}


def __getattr__(name):
    if name in _HOMES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "BundleClass", "ChernRootSeries", "CohClass", "HodgeDiamond",
    "InvalidParameter", "LaurentY", "MissingLogStructure",
    "MotivicClass", "NotPolynomial", "ParseError", "RationalFunctionY",
    "SpaceModel", "UnsupportedMap", "VariationData", "apply_series", "bundles",
    "chi_y_genus", "csm_arrangement", "degree", "exterior", "genus_series",
    "homology_dual", "k_dual", "lambda_y", "mhc_cohomological", "mhc_y", "mht",
    "motivic", "parse_uv", "parse_y", "pullback_smooth", "pushforward",
    "render_uv", "render_y", "spaces", "specialize_minus_one", "transforms",
]

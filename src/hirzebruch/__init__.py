"""Exact Hodge genera and Hirzebruch-type characteristic classes for
desk-scale models of complex algebraic varieties."""

from .errors import (
    InvalidParameter,
    MissingLogStructure,
    NotPolynomial,
    ParseError,
    UnsupportedMap,
)
from .rings import (
    LaurentY,
    RationalFunctionY,
    parse_y,
    render_y,
)
from .hodge import HodgeDiamond, parse_uv, render_uv
from . import motivic
from .motivic import MotivicClass
from . import spaces
from .spaces import BundleClass, CohClass, SpaceModel
from . import bundles
from .bundles import ChernRootSeries, apply_series, genus_series, k_dual, lambda_y
from . import transforms
from .transforms import (
    VariationData,
    chi_y_genus,
    csm_arrangement,
    degree,
    exterior,
    homology_dual,
    mhc_cohomological,
    mhc_y,
    mht,
    pullback_smooth,
    pushforward,
    specialize_minus_one,
)

__version__ = "0.1.0"

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

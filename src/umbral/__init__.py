"""Exact-arithmetic engine for umbral operator calculus on orthogonal
polynomial families: truncated rational power series, operators on the
truncated polynomial space, three-term recurrence theory, the named family
constructions with their verified identities, associated deformations, and
binomial-family extensions."""

from .associated import jacobi_assoc, sheffer_assoc, ultra_assoc, wilson_assoc
from .errors import EngineError
from .families import (
    HahnParams,
    JacobiParams,
    MultiTermParams,
    ShefferParams,
    WilsonParams,
    hahn_family,
    jacobi_family,
    multiterm_family,
    sheffer_family,
    ultraspherical_family,
    wilson_family,
)
from .opalg import OpMatrix, mgf_from_gop
from .orthocore import (
    ClosedFormRecurrence,
    MomentSeries,
    OrthoFamily,
    Recurrence,
    moments_from_recurrence,
    polys_from_recurrence,
    recurrence_from_moments,
)
from .series import TruncSeries, as_rat, riccati_series

__all__ = [
    "ClosedFormRecurrence",
    "EngineError",
    "HahnParams",
    "JacobiParams",
    "MomentSeries",
    "MultiTermParams",
    "OpMatrix",
    "OrthoFamily",
    "Recurrence",
    "ShefferParams",
    "TruncSeries",
    "WilsonParams",
    "as_rat",
    "hahn_family",
    "jacobi_assoc",
    "jacobi_family",
    "mgf_from_gop",
    "moments_from_recurrence",
    "multiterm_family",
    "polys_from_recurrence",
    "recurrence_from_moments",
    "riccati_series",
    "sheffer_assoc",
    "sheffer_family",
    "ultra_assoc",
    "ultraspherical_family",
    "wilson_assoc",
    "wilson_family",
]
__version__ = "0.1.0"

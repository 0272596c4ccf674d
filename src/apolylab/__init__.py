"""Numerical study of A-polynomial curves: path lifting, volume and
Chern-Simons line integrals, tame symbols and colored Jones asymptotics."""

from .curve_tracker import (
    ArcSeg,
    LineSeg,
    PathSpec,
    StepControls,
    TrackedPath,
    lift_path,
    loop_around_m,
    refine,
)
from .errors import (
    AmbiguousWinding,
    DegenerateError,
    DomainError,
    ExtrapolationUnstable,
    InsufficientData,
    NoRational,
    NonConvergence,
    NotClosed,
    PolySyntaxError,
    RamificationError,
    SeedError,
)
from .jones_kashaev import (
    colored_jones_fig8,
    conjecture_gap,
    growth_rate,
    jones_sequence,
    kashaev_sequence,
)
from .lobachevsky import lobachevsky, vol_fig8
from .one_forms import (
    cs_along,
    integrate_eta,
    integrate_xi,
    kirk_klassen,
    regulator,
    track_refined,
    vol_along,
)
from .poly_core import (
    LaurentBiPoly,
    parse_poly,
    partial,
    print_poly,
    roots_in_l,
    roots_in_l_batch,
)
from .symbols_k2 import (
    estimate_symbol_order,
    recognize_rational,
    tame_symbol,
    valuation,
)

__version__ = "0.1.0"

__all__ = [
    "ArcSeg", "LineSeg", "PathSpec", "StepControls", "TrackedPath",
    "lift_path", "loop_around_m", "refine",
    "AmbiguousWinding", "DegenerateError", "DomainError",
    "ExtrapolationUnstable", "InsufficientData", "NoRational",
    "NonConvergence", "NotClosed", "PolySyntaxError", "RamificationError",
    "SeedError",
    "colored_jones_fig8", "conjecture_gap", "growth_rate",
    "jones_sequence", "kashaev_sequence",
    "lobachevsky", "vol_fig8",
    "cs_along", "integrate_eta", "integrate_xi", "kirk_klassen",
    "regulator", "track_refined", "vol_along",
    "LaurentBiPoly", "parse_poly", "partial", "print_poly",
    "roots_in_l", "roots_in_l_batch",
    "estimate_symbol_order", "recognize_rational", "tame_symbol",
    "valuation",
]

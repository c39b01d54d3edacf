"""Bottleneck degrees of algebraic varieties.

Exact polar-class formulas for the bottleneck degree, construction of the
bottleneck polynomial systems, and a numeric finder for real bottleneck
pairs.
"""

from .engine import (
    ambient_stability,
    bnd_variety,
    compute_B,
    ed_degree,
    epsilon_oracle,
    epsilon_terms,
)
from .profiles import PolarProfile, VarietySpec, ci_profile, polar_degrees
from .ring import ClassPoly, parse, render
from .systems import PolySystem, build_lagrange_system, build_minor_system, parse_poly

__all__ = [
    "BottleneckPair",
    "ClassPoly",
    "PolarProfile",
    "PolySystem",
    "SolveResult",
    "SolverConfig",
    "VarietySpec",
    "ambient_stability",
    "bnd_variety",
    "build_lagrange_system",
    "build_minor_system",
    "ci_profile",
    "classify_isolation",
    "compute_B",
    "ed_degree",
    "epsilon_oracle",
    "epsilon_terms",
    "find_bottlenecks",
    "narrowest_bottleneck",
    "parse",
    "parse_poly",
    "polar_degrees",
    "render",
    "sample_variety",
]


# The solver needs numpy; its names in __all__ are the only ones not
# defined above, so they alone reach __getattr__ and are imported on first
# use (PEP 562), and the exact commands run without numpy.
def __getattr__(name: str):
    if name in __all__:
        from . import solver

        return getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

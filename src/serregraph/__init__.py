"""Spectral and cycle-combinatorial invariants of d-regular graphs.

The package is organized around one graph object (SerreGraph, a multigraph
with an explicit edge involution so loops and half-loops are first-class)
and exact arbitrary-precision walk tables on the d-regular tree. On top of
those it provides eigensolves of the degree-normalized Markov operator,
uniform nullcycle sampling, cycle censuses, cogrowth, fundamental-group
walk estimators, local-limit diagnostics, percolation cover growth, and a
verdict engine that checks explicit inequalities: by exact rational
comparison where both sides are exact, on floats with a stated tolerance
otherwise.
"""

__version__ = "0.1.0"

from .core import SerreGraph, RootedGraph, Walk, validate
from .report import BoundReport, BoundViolation

__all__ = [
    "SerreGraph",
    "RootedGraph",
    "Walk",
    "validate",
    "BoundReport",
    "BoundViolation",
    "__version__",
]

"""Single-source shortest paths for pluggable path cost functions.

The cost of a path is an arbitrary function declared through a base value
and a per-road extension rule, together with structural property flags
(monotone, order-preserving, circle-free, ...). Solvers trust the flags;
the `verify` module checks them empirically and provides a brute-force
oracle for the per-vertex minima.
"""

from . import engines, graphs, paths, verify
from .graphs import *
from .paths import *
from .engines import *
from .verify import *

__all__ = graphs.__all__ + paths.__all__ + engines.__all__ + verify.__all__

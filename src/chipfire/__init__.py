"""Chip-firing groups of finite graphs via exact integer linear algebra.

The package computes critical groups (Pic0, sandpile groups) of simple
graphs, provides join and iterated-cone constructors, and ships a harness
that mechanically checks the structure of Pic0 for cones and joins on
arbitrary inputs.
"""

from . import errors, graphs, intlinalg, sandpile, theorems
from .errors import *
from .graphs import *
from .intlinalg import *
from .sandpile import *
from .theorems import *

__version__ = "0.1.0"

__all__ = (
    errors.__all__ + graphs.__all__ + intlinalg.__all__ + sandpile.__all__ + theorems.__all__
)

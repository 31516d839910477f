"""Path-count matrices of quantum lens-space graphs and their equivalence.

The package builds the upper-triangular path-counting matrices attached to
the two graph families over Z_r, decides unipotent upper-triangular
equivalence over the integers exactly, computes the modular invariants that
obstruct equivalence, and enumerates equivalence classes of the normalized
matrix families. Its public names are those of each library module's
__all__, in module order.
"""

from .classify import *
from .equivalence import *
from .errors import *
from .invariants import *
from .lensgraph import *
from .numtheory import *
from .pathmatrix import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += classify.__all__
__all__ += equivalence.__all__
__all__ += errors.__all__
__all__ += invariants.__all__
__all__ += lensgraph.__all__
__all__ += numtheory.__all__
__all__ += pathmatrix.__all__

"""Exact computation on topes: symmetric cycles, decompositions, committees.

Everything is integer or rational arithmetic over immutable sign vectors;
no floating point anywhere. Start with :func:`build_tope_set` or
:func:`chambers`, then explore cycles and decompositions on top.
"""

# Each star import also binds the submodule name (``errors``, ``signs``, ...)
# here, so ``__all__`` below is assembled from the modules' own lists.
from .errors import *
from .signs import *
from .topesets import *
from .posets import *
from .cycles import *
from .decomposition import *
from .committees import *
from .realization import *
from .fixtures import *

__version__ = "0.1.0"

__all__ = [
    "errors",
    *errors.__all__,
    *signs.__all__,
    *topesets.__all__,
    *posets.__all__,
    *cycles.__all__,
    *decomposition.__all__,
    *committees.__all__,
    *realization.__all__,
    *fixtures.__all__,
]

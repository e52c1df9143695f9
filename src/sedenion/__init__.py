"""Sedenion arithmetic, zero-divisor geometry, and star-series domains.

The algebra layer builds the 16-dimensional Cayley-Dickson algebra and its
multiplication operators; the zero-divisor layer handles kernels, special
triples, and orthogonal decompositions; the slice layer parametrizes the
units whose left multiplication squares to minus the identity; the series
layer computes convergence radii and domains of star-power series and
evaluates them through the two-channel representation formula.

The public names are each layer's `__all__`, re-exported here.
"""

from .algebra import *  # noqa: F401,F403
from .zerodiv import *  # noqa: F401,F403
from .slices import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403

__version__ = "0.1.0"

"""klab: a spectral simulation and verification laboratory.

Finite diagonal spectral models of damped second-order flows with weakly
decaying dissipation, their first-order limits, boundary-layer correctors,
energy functionals, and a verification layer that measures decay rates and
monitors the differential inequalities the theory predicts.

The public names are those in the ``__all__`` of each module below, and only
there.
"""

from . import analysis, energies, evolution, harness, spectral
from .spectral import *  # noqa: F403
from .energies import *  # noqa: F403
from .evolution import *  # noqa: F403
from .analysis import *  # noqa: F403
from .harness import *  # noqa: F403

__all__ = [
    *spectral.__all__,
    *energies.__all__,
    *evolution.__all__,
    *analysis.__all__,
    *harness.__all__,
]

__version__ = "0.1.0"

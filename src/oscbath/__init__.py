"""Oscillator-bath excitation transfer and bath-partition entanglement.

A central harmonic oscillator couples linearly to N bath oscillators; the
coherent-state ansatz reduces the dynamics to a linear amplitude system
solved spectrally (with an RK4 cross-check).  Entanglement between any two
bath partitions is computed in closed form and validated against an
independent Wootters spin-flip pipeline.
"""

from . import checks, concurrence, model, observables, propagation, scenarios, wootters
from .checks import *  # noqa: F401,F403
from .concurrence import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .observables import *  # noqa: F401,F403
from .propagation import *  # noqa: F401,F403
from .scenarios import *  # noqa: F401,F403
from .wootters import *  # noqa: F401,F403

__version__ = scenarios.TOOL_VERSION

# each layer module's __all__ is the one place that decides what is public
__all__ = [name for layer in (model, propagation, observables, concurrence, wootters,
                              scenarios, checks)
           for name in layer.__all__]

"""hybridlab: symbolic and numerical tools for coupled classical-quantum dynamics.

The package has three layers.  `algebra` and `expressions` build exact
operator polynomials over the six canonical generators, with commutators,
koopmanization of classical Hamiltonians, and a small expression grammar.
`moments` and `grid` evolve states: closed linear moment flow with exact
matrix exponentials on one side, FFT split-step wavefunctions on a box on
the other.  `benchmark`, `observables`, `reporting`, and `cli` wrap the
coupled-oscillator study: mode selection, density-matrix checks, lossless
CSV/JSON artifacts, and the `hybridlab` command.
"""

from . import algebra, benchmark, expressions, grid, moments, observables, reporting
from .algebra import *
from .expressions import *
from .moments import *
from .benchmark import *
from .observables import *
from .grid import *
from .reporting import *

__version__ = "0.1.0"

# Each module's own __all__ is the one list of its public names.
__all__ = ["__version__"]
for _module in (algebra, expressions, moments, benchmark, observables, grid, reporting):
    __all__ += _module.__all__
del _module

"""hybridlab: symbolic and numerical tools for coupled classical-quantum dynamics.

The package has three layers.  `algebra` and `expressions` build exact
operator polynomials over the six canonical generators, with commutators,
koopmanization of classical Hamiltonians, and a small expression grammar.
`moments` and `grid` evolve states: closed linear moment flow with exact
matrix exponentials on one side, FFT split-step wavefunctions on a box on
the other.  `benchmark`, `observables`, `reporting`, and `cli` wrap the
coupled-oscillator study: mode selection, density-matrix checks, lossless
CSV/JSON artifacts, and the `hybridlab` command.

Every public name of those modules is a package attribute, but a module
loads on first use (PEP 562), so `import hybridlab.cli` never compiles the
grid: a derive, nogo, spectrum or moment-only run never touches it.
"""

import importlib

__version__ = "0.1.0"

# In __all__'s order; each module's own __all__ is the one list of its public names.
_MODULES = ("algebra", "expressions", "moments", "benchmark", "observables", "grid", "reporting")


def __getattr__(name: str):
    if name in _MODULES:  # importlib: `from . import` here would call this hook again
        return importlib.import_module(f".{name}", __name__)
    modules = [importlib.import_module(f".{module}", __name__) for module in _MODULES]
    if name == "__all__":
        value = ["__version__"] + [public for module in modules for public in module.__all__]
    else:
        owner = next((module for module in modules if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value  # later lookups skip this hook
    return value

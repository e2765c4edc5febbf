"""The coupled-oscillator model family used across engines and the CLI.

Two unit-frequency oscillators with a bilinear position coupling k*q*x.
Three treatments of the same Hamiltonian:

  - hybrid: the q oscillator kept quantum, the x oscillator lifted to its
    phase-space flow (this is the interesting, resonantly unstable case);
  - quantum-quantum: both oscillators quantum, realized on the conjugate
    pairs (q, p) and (x, p_x);
  - classical-classical: plain Hamilton flow of all four coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    ComplexRational,
    OperatorPolynomial,
    constant,
    generator,
    hybridize,
    koopmanize,
)
from .moments import GeneratorMatrix, MomentState, derive_generator, hamilton_generator

__all__ = [
    "MODES",
    "coupled_hamiltonian",
    "hybrid_koopmanian",
    "quantum_pair_koopmanian",
    "classical_flow_generator",
    "quantum_energy",
    "classical_liouvillian",
    "mode_generator_matrix",
    "mode_koopmanian",
    "default_moment_state",
    "default_observers",
]

MODES = ("classical-classical", "quantum-quantum", "hybrid")

_HALF = Fraction(1, 2)


def coupled_hamiltonian(k) -> OperatorPolynomial:
    """H = (q^2 + p^2)/2 + (x^2 + y^2)/2 + k*q*x with an exact k."""
    q, p, x, y = (generator(n) for n in ("q", "p", "x", "y"))
    kc = ComplexRational.coerce(k)
    return (
        constant(_HALF) * (q * q + p * p)
        + constant(_HALF) * (x * x + y * y)
        + constant(kc) * q * x
    )


def hybrid_koopmanian(k) -> OperatorPolynomial:
    """Quantum q oscillator + koopmanized classical part and coupling."""
    return hybridize(coupled_hamiltonian(k))


def quantum_pair_koopmanian(k) -> OperatorPolynomial:
    """Both oscillators quantum: (q, p) and (x, p_x) as conjugate pairs."""
    q, p, x, p_x = (generator(n) for n in ("q", "p", "x", "p_x"))
    kc = ComplexRational.coerce(k)
    return (
        constant(_HALF) * (q * q + p * p)
        + constant(_HALF) * (x * x + p_x * p_x)
        + constant(kc) * q * x
    )


def classical_flow_generator(k) -> GeneratorMatrix:
    """Hamilton-flow matrix of the fully classical coupled system."""
    return hamilton_generator(coupled_hamiltonian(k))


def quantum_energy() -> OperatorPolynomial:
    """Energy of the quantum oscillator alone, (q^2 + p^2)/2."""
    q, p = generator("q"), generator("p")
    return constant(_HALF) * (q * q + p * p)


def classical_liouvillian() -> OperatorPolynomial:
    """Phase-space flow generator of the lone classical oscillator."""
    x, y = generator("x"), generator("y")
    return koopmanize(constant(_HALF) * (x * x + y * y))


def mode_koopmanian(mode: str, k) -> OperatorPolynomial:
    """Evolution generator for the quantum-backed modes.

    classical-classical has no operator generator in this six-generator
    algebra (it would need shift operators for both pairs); use
    mode_generator_matrix for its moment flow.
    """
    if mode == "hybrid":
        return hybrid_koopmanian(k)
    if mode == "quantum-quantum":
        return quantum_pair_koopmanian(k)
    if mode == "classical-classical":
        raise ValueError(
            "classical-classical dynamics is a Hamilton flow, not an operator "
            "generator; use mode_generator_matrix"
        )
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def mode_generator_matrix(mode: str, k, koopmanian=None) -> GeneratorMatrix:
    """The mode's mean-flow matrix; pass mode_koopmanian(mode, k) if already built."""
    if mode == "classical-classical":
        return classical_flow_generator(k)
    return derive_generator(mode_koopmanian(mode, k) if koopmanian is None else koopmanian)


def default_moment_state(means: dict[str, float] | None = None) -> MomentState:
    """Uncorrelated width-1/2 state, optionally displaced in q, x, y."""
    from .algebra import GENERATORS

    m = [0.0] * 6
    for name, value in (means or {}).items():
        if name not in ("q", "x", "y"):
            raise ValueError(
                f"initial mean for {name!r} is not supported; displace q, x, or y"
            )
        m[GENERATORS[name].index] = float(value)
    return MomentState.vacuum_like(m)


def default_observers(mode: str, k, koopmanian=None) -> list[tuple[str, OperatorPolynomial]]:
    """Labeled observables for CSV columns, shared by both engines (koopmanian: as above)."""
    q, p, x, y = (generator(n) for n in ("q", "p", "x", "y"))
    p_x = generator("p_x")
    if mode == "quantum-quantum":
        second = p_x
        second_label = "p_x"
    else:
        second = y
        second_label = "y"
    observers: list[tuple[str, OperatorPolynomial]] = [
        ("q", q),
        ("p", p),
        ("x", x),
        (second_label, second),
        ("q2", q * q),
        ("p2", p * p),
        ("x2", x * x),
        (second_label + "2", second * second),
    ]
    if mode == "classical-classical":
        observers.append(("K", coupled_hamiltonian(k)))
    else:
        observers.append(("K", mode_koopmanian(mode, k) if koopmanian is None else koopmanian))
    observers.append(("Hq", quantum_energy()))
    return observers

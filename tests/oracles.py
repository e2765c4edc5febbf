"""Reference solutions that check the grid engine from outside it.

characteristics_reference transports a classical density along Hamilton's
flow with RK4 and spline interpolation (scipy.ndimage), independent of the
spectral engine.  period_residual measures how far one full turn of the
harmonic phase-space rotation lands from its start under Strang splitting.
Only tests and acceptance criterion 8 call them, so scipy is a test
dependency, not a runtime one.
"""

import math

import numpy as np
from scipy import ndimage

from hybridlab import (
    GridSpec,
    OperatorPolynomial,
    UnknownAxis,
    classical_liouvillian,
    compile_splitting,
    evolve,
    gaussian_state,
    partial_derivative,
)


def _classical_velocity(h: OperatorPolynomial):
    """Vectorized (dx/dt, dy/dt) = (dh/dy, -dh/dx) from a polynomial h."""

    def as_callable(poly: OperatorPolynomial):
        terms = []
        for e, coeff in poly.monomials():
            if any(e[i] for i in (0, 1, 4, 5)):
                raise ValueError("classical Hamiltonian must involve x and y only")
            terms.append((float(coeff.real), e[2], e[3]))

        def evaluate(X, Y):
            total = np.zeros_like(X)
            for c, a, b in terms:
                total = total + c * X**a * Y**b
            return total

        return evaluate

    vx = as_callable(partial_derivative(h, "y"))
    vy = as_callable(-partial_derivative(h, "x"))
    return vx, vy


def characteristics_reference(
    f0: np.ndarray,
    spec: GridSpec,
    h_classical: OperatorPolynomial,
    t: float,
    *,
    steps: int | None = None,
) -> np.ndarray:
    """Transport a density along Hamilton's flow: f(z, t) = f0(flow_{-t}(z)).

    The backward characteristics are integrated with fixed-step RK4 and
    f0 is looked up by periodic cubic-spline interpolation (bilinear is
    too coarse: its O(dx^2) error alone exceeds the agreement this oracle
    is used to certify).  Independent of the spectral engine.
    """
    if spec.labels != ("x", "y"):
        raise UnknownAxis("characteristics need a 2-D grid with axes ('x', 'y')")
    f0 = np.asarray(f0, dtype=float)
    if f0.shape != spec.shape:
        raise ValueError(f"density shape {f0.shape} does not match grid {spec.shape}")
    if t == 0:
        return f0.copy()
    vx, vy = _classical_velocity(h_classical)

    X, Y = np.meshgrid(spec.axes[0].positions(), spec.axes[1].positions(), indexing="ij")
    n_steps = steps if steps is not None else max(16, int(round(abs(t) / 0.01)))
    h_step = -t / n_steps  # backward flow

    for _ in range(n_steps):
        k1x, k1y = vx(X, Y), vy(X, Y)
        k2x, k2y = vx(X + 0.5 * h_step * k1x, Y + 0.5 * h_step * k1y), vy(
            X + 0.5 * h_step * k1x, Y + 0.5 * h_step * k1y
        )
        k3x, k3y = vx(X + 0.5 * h_step * k2x, Y + 0.5 * h_step * k2y), vy(
            X + 0.5 * h_step * k2x, Y + 0.5 * h_step * k2y
        )
        k4x, k4y = vx(X + h_step * k3x, Y + h_step * k3y), vy(
            X + h_step * k3x, Y + h_step * k3y
        )
        X = X + (h_step / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        Y = Y + (h_step / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)

    ux = (X + spec.axes[0].half_extent) / spec.axes[0].spacing
    uy = (Y + spec.axes[1].half_extent) / spec.axes[1].spacing
    return ndimage.map_coordinates(
        f0, np.array([ux, uy]), order=3, mode="grid-wrap", prefilter=True
    )


_PERIOD_MEANS = {"x": 1.2, "y": 0.0}
_PERIOD_WIDTHS = {"x": 0.6, "y": 0.9}


def period_residual(spec: GridSpec, dt: float) -> float:
    """Distance of the classical rotation from its exact period.

    Evolves a fixed off-center Gaussian under the harmonic phase-space
    flow y*p_x - x*p_y for one full turn (2*pi) and returns the L2
    distance to the initial state.  The generator's integer spectrum
    makes the exact propagator periodic, so the residual is purely
    discretization error and shrinks at second order in dt.
    """
    if set(spec.labels) != {"x", "y"}:
        raise UnknownAxis("the period check runs on the classical axes ('x', 'y')")
    steps = int(round(2.0 * np.pi / dt))
    plan = compile_splitting(classical_liouvillian(), spec, dt)
    psi0 = gaussian_state(spec, _PERIOD_MEANS, _PERIOD_WIDTHS)
    result = evolve(psi0, plan, steps * dt, stride=steps)
    diff = result.final_state.array - psi0.array
    return math.sqrt(float(np.sum(np.abs(diff) ** 2)) * spec.cell_volume)

"""Wave-function evolution on a periodic grid by split-operator stepping.

The state is a complex amplitude array over up to three axes labeled x, y
(the classical phase plane) and q (the quantum coordinate).  Each axis
carries a conjugate momentum realized by the FFT: p for q, p_x for x, p_y
for y.  A quadratic generator whose monomials never need both
representations of one axis splits into groups of simultaneously diagonal
terms; evolution applies exact phase factors exp(-i * term * dt) per group
in a Strang-symmetric sweep, so each substep is exactly unitary.

When every monomial is diagonal in one frame R1 (a representation per axis)
or in its full flip R2, the propagator of a step tau of any length is exact:
the linear flow M of K factors as L U L, a chirp in R1, one in R2 and the
first again (compile_exact).  Each chirp is held as one factor per pair of
axes, with the diagonal terms folded in, so no phase array spans the grid;
a pair the chirp leaves uncoupled gets no factor.

Stepping works in place on buffers the engine owns (phases multiplied in
place, FFTs allowed to overwrite them).  A run holds a ring of two blocks
of them (one state each from _BLOCK_BYTES up; a stacked plan's run has a
third) and no copy of its initial state: gaussian_state's per-axis factors
are multiplied straight into the ring.  Its sampler holds a block's |psi|^2
only if an observer's marginal keeps every axis.  Each buffer is one
element longer than the grid on the last axis, and that pad is zero: a 64^3
state's leading strides are then 66 560 and 1 040 bytes, not 64 KiB and
1 KiB, so the elements of one FFT line along a leading axis no longer share
a cache set.  Transforms run on the grid view, multiplies on the whole buffer
by factors compiled padded the same way.  A step applies the plan's edge
factors, its middle factors, then the edge again.  The edge factors are
diagonal in one representation, so the closing edge of one step and the
opening edge of the next are applied as one phase, each edge factor squared
once per run (first same as last, FSAL); the edge alone closes the last
step.  A sample between steps keeps the state before that squared edge
and applies the edge itself.  This regroups commuting diagonal factors and
leaves the scheme unchanged.  An exact plan compiles at any step length, so
one stacked over tau, 2 tau, ..., K tau (a factor row each) steps up to K
samples as one stack of states, each jumped from the sample before the
stack: a sample is K times fewer steps from t = 0.  A stack opens with one
factor, the edge the state before it still owes times each of its own;
within a sample interval they meet squared.  A longer step chirps the
state further between its factors, so a stack takes only the offsets whose
chirped states stay in the box for the Gaussian run it is compiled for.

All expectation values use the same quadrature weight in every
representation: with orthonormal FFTs, sum(V * |psi|^2) * cell_volume is
correct whether an axis is in position or momentum form.  A monomial
touches few axes, so it is evaluated on the marginal of |psi|^2 over just
those axes, in their required representations.  By Parseval the 1-D FFT
along a summed-out axis preserves the sum, so the marginal does not depend
on the representation of the axes it drops.  Sampling walks the fewest
one-axis transforms that reach every needed marginal and takes marginals
in the fewest representations on that walk; a marginal whose axes lie
within another's taken there is summed out of that one, any other is
contracted from the state's (re, im) pairs without forming |psi|^2, and
the norm and the boundary edge masses come from the same marginals.  No
step depends on a sample, so one helper thread measures the samples, in
place in the ring of states the caller steps through, while the caller
keeps stepping: numpy's FFTs, large ufuncs and einsum release the GIL, so
the two overlap.  For a state too large to share a block, the helper also
takes the second half of each step transform and multiply when it is free;
a half is the same operations on the same elements on either thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import string
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .algebra import GENERATOR_NAMES, InputRefused, OperatorPolynomial, RunFailed
from .moments import _count_text, expm, sample_steps
from .observables import Expectation, FiniteDensity
from .reporting import write_atomic

__all__ = [
    "OutOfBox",
    "NonSplittableTerm",
    "UnknownAxis",
    "BoxOverflow",
    "RunTooLarge",
    "AxisSpec",
    "GridSpec",
    "GridState",
    "PropagatorPlan",
    "EvolutionResult",
    "gaussian_state",
    "compile_splitting",
    "compile_exact",
    "sample_steps",  # moments' own, exported here as the grid run's step rule
    "plan_run",
    "evolve",
    "grid_expectation",
    "marginal_density",
    "marginal_densities",
    "reduced_quantum_density",
    "operator_matrix_1d",
    "save_snapshot",
    "load_snapshot",
]

AXIS_LABELS = ("x", "y", "q")
MOMENTUM_OF = {"x": "p_x", "y": "p_y", "q": "p"}
_POSITION_OF = {v: k for k, v in MOMENTUM_OF.items()}

_BOUNDARY_CELLS = 2
_BOUNDARY_MASS_LIMIT = 1e-6


class OutOfBox(InputRefused):
    """A requested state does not fit well inside the periodic box."""


class NonSplittableTerm(InputRefused):
    """A monomial needs both representations of one axis, or is not a
    real-coefficient term (its phase would not be unitary); or K has no
    exact plan at this step."""


class UnknownAxis(InputRefused):
    """An axis label or generator has no axis in the grid."""


class BoxOverflow(RunFailed):
    """Probability mass reached the box boundary; the run is unreliable."""


class RunTooLarge(InputRefused):
    """A run would take more exact steps, or more bytes, than it may."""


# Vestiges kept for the benchmark's tracer and worker, which read them: each
# numpy.fft call runs on the thread that makes it.
_workers = 1


def set_workers(n: int) -> None:
    """No-op: each transform call is numpy.fft's, on one thread."""


# ---------------------------------------------------------------------------
# Grid geometry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxisSpec:
    label: str
    half_extent: float
    points: int

    def __post_init__(self):
        if self.label not in AXIS_LABELS:
            raise ValueError(f"axis label must be one of {AXIS_LABELS}, got {self.label!r}")
        if not (self.half_extent > 0 and math.isfinite(self.half_extent)):
            raise ValueError(
                f"half extent must be positive and finite, got {self.half_extent!r}"
            )
        n = self.points
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"point count must be a power of two >= 8, got {n}")
        if not 0 < self.spacing < math.inf:
            raise ValueError(
                f"axis {self.label!r}: grid spacing {self.spacing!r} is not a "
                "positive finite number"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / self.points

    def positions(self) -> np.ndarray:
        return -self.half_extent + self.spacing * np.arange(self.points)

    def momenta(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)


@dataclass(frozen=True)
class GridSpec:
    axes: tuple[AxisSpec, ...]

    def __post_init__(self):
        axes = tuple(self.axes)
        labels = [a.label for a in axes]
        if not axes:
            raise ValueError("grid needs at least one axis")
        if len(set(labels)) != len(labels):
            raise ValueError(f"axis labels must be unique, got {labels}")
        object.__setattr__(self, "axes", axes)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(a.label for a in self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.points for a in self.axes)

    @property
    def cell_volume(self) -> float:
        return float(np.prod([a.spacing for a in self.axes]))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownAxis(f"grid has no axis {label!r} (axes: {self.labels})") from None

    def axis(self, label: str) -> AxisSpec:
        return self.axes[self.index(label)]

    def _axis_values(self, i: int, rep: str) -> np.ndarray:
        """Position or momentum values reshaped to broadcast on axis i."""
        ax = self.axes[i]
        vals = ax.positions() if rep == "pos" else ax.momenta()
        shape = [1] * len(self.axes)
        shape[i] = ax.points
        return vals.reshape(shape)


class GridState:
    """psi on the grid: complex amplitudes over spec.shape.

    Built from an array (complex; it may be a strided view, such as evolve's
    final state), or, by gaussian_state, from per-axis real factors whose
    outer product is psi.  A state of factors builds its array the first
    time `array` is read and keeps it from then on, so a change made in
    place to that array is the state's.  evolve takes the state into its
    ring by write_to, which multiplies factors never built into an array
    straight into the ring's slot: a run holds no copy of its initial state.
    """

    def __init__(self, spec: GridSpec, array=None, *, factors=None):
        if (array is None) == (factors is None):
            raise ValueError("a grid state takes either an array or its factors")
        self.spec = spec
        if factors is not None:
            factors = tuple(np.asarray(g, dtype=float) for g in factors)
            shape = tuple(g.shape for g in factors)
            if shape != tuple((n,) for n in spec.shape):
                raise ValueError(f"factor shapes {shape} do not match grid shape {spec.shape}")
            self._factors, self._array = factors, None
            return
        arr = np.asarray(array, dtype=complex)
        if arr.shape != spec.shape:
            raise ValueError(
                f"array shape {arr.shape} does not match grid shape {spec.shape}"
            )
        self._factors, self._array = None, arr

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            self._array = self._product(np.empty(self.spec.shape, dtype=complex))
            self._factors = None
        return self._array

    def write_to(self, out: np.ndarray) -> None:
        """out[...] = psi, out of the state's shape: its factors' product
        written into out when its array was never built, else its array."""
        if self._array is None:
            self._product(out)
        else:
            out[...] = self._array

    def _product(self, out: np.ndarray) -> np.ndarray:
        head = np.ones(())  # the product over every axis but the last
        for g in self._factors[:-1]:
            head = np.multiply.outer(head, g)
        return np.multiply(head[..., None], self._factors[-1], out=out)

    def norm(self) -> float:
        return math.sqrt(float(np.sum(np.abs(self.array) ** 2)) * self.spec.cell_volume)

    def density(self) -> np.ndarray:
        """f = |psi|^2, pointwise nonnegative by construction."""
        density = np.abs(self.array)
        return np.square(density, out=density)


def gaussian_state(spec: GridSpec, means, widths) -> GridState:
    """Normalized product of per-axis real Gaussians exp(-(u-mu)^2/(4 s^2)).

    On a classical axis this is the square root of a Gaussian density of
    standard deviation s; on the quantum axis it is the usual wave packet
    with position spread s (momentum spread 1/(2s)).  means and widths each
    map axis labels to numbers, or give one number for every axis; a mean
    left out of its map is 0.  The state holds the per-axis factors, each
    checked here, and no array of the grid's size: evolve writes their
    product into its own ring, and reading `array` builds it.
    Raises ValueError when an axis's Gaussian underflows to 0 at every grid
    point, and OutOfBox when more than _BOUNDARY_MASS_LIMIT of its mass lies
    within _BOUNDARY_CELLS of the axis's position edges: evolve's box rule,
    which the state then meets at t = 0 up to roundoff at the limit.
    """
    means = _per_axis(spec, means, "means")
    widths = _per_axis(spec, widths, "widths")
    factors = []
    for i, ax in enumerate(spec.axes):
        mu, sigma = means[i], widths[i]
        if not (math.isfinite(mu) and math.isfinite(sigma)):
            raise ValueError(f"mean and width for axis {ax.label!r} must be finite")
        if not sigma > 0:
            raise ValueError(f"width for axis {ax.label!r} must be positive")
        with np.errstate(over="ignore"):  # a square past the float range weighs exp(-inf) = 0
            g = np.exp(-((ax.positions() - mu) ** 2) / (4.0 * sigma**2))
        norm = math.sqrt(float(g @ g) * ax.spacing)
        if not norm > 0:
            raise ValueError(f"axis {ax.label!r}: its Gaussian vanishes at every grid point")
        g /= norm  # normalized on its own axis, so g^2 * spacing is its position marginal
        edge = _edge_cells(ax.points)
        mass = float(g[edge] @ g[edge]) * ax.spacing
        if not mass <= _BOUNDARY_MASS_LIMIT:
            raise OutOfBox(
                f"axis {ax.label!r} holds {mass:.3e} probability mass within "
                f"{_BOUNDARY_CELLS} cells of the half extent {ax.half_extent}"
            )
        factors.append(g)
    return GridState(spec, factors=factors)


def _edge_cells(points: int) -> np.ndarray:
    """The mask of an axis's cells within _BOUNDARY_CELLS of either edge."""
    cells = np.arange(points)
    return np.minimum(cells, cells[::-1]) < _BOUNDARY_CELLS


def _per_axis(spec: GridSpec, values, what: str) -> list[float]:
    if isinstance(values, dict):
        unknown = set(values) - set(spec.labels)
        if unknown:
            raise UnknownAxis(f"{what} given for missing axes {sorted(unknown)}")
        return [float(values.get(label, 0.0)) for label in spec.labels]
    return [float(values)] * len(spec.axes)


# ---------------------------------------------------------------------------
# Splitting plans.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PhaseGroup:
    # rep[i] is "pos", "mom", or None (axis unconstrained by this group)
    rep: tuple
    phase: np.ndarray  # diagonal factor applied at each visit of the sweep


@dataclass(frozen=True)
class PropagatorPlan:
    """exp(-i K dt) as diagonal phases: a step applies edge, middle, then edge.

    The edge factors share one representation.  compile_splitting's Strang
    plan has its first group (position-diagonal when K has one) at dt/2 as
    the edge, and the other groups at dt/2 mirrored around the last at dt as
    the middle; a one-group plan has no edge.  compile_exact's edge is the
    R1 chirp's pair factors and its middle the R2 chirp's, both at the full
    step.  Applying the plan with dt and again with -dt undoes it to
    roundoff.  Each factor has a row per offset, laid out as evolve multiplies
    by it (_factor): a stacked exact plan's rows are the steps dt, ..., K dt.
    """

    spec: GridSpec
    dt: float
    edge: tuple
    middle: tuple

    @property
    def offsets(self) -> int:  # K, the rows of each factor
        return len(self.middle[0].phase)


def _factor(rep: tuple, exponents: list) -> _PhaseGroup:
    """A row of exp(exponent) per exponent; one along the last axis gets the ring's pad."""
    *head, n = np.broadcast_shapes(*(e.shape for e in exponents))
    phase = np.zeros((len(exponents), *head, n + (n > 1)), dtype=complex)
    for row, e in zip(phase, exponents):
        np.exp(e, out=row[..., :n])
    return _PhaseGroup(rep, phase)


def _term_representation(spec: GridSpec, mono: tuple[int, ...]) -> tuple:
    """Required representation per axis, or None where the term is blind."""
    rep = [None] * len(spec.axes)
    for gen_idx, exp in enumerate(mono):
        if exp == 0:
            continue
        name = GENERATOR_NAMES[gen_idx]
        if name in MOMENTUM_OF:  # position generator
            label, want = name, "pos"
        else:
            label, want = _POSITION_OF[name], "mom"
        if label not in spec.labels:
            raise UnknownAxis(
                f"generator {name!r} needs axis {label!r}, absent from this grid"
            )
        i = spec.index(label)
        if rep[i] is not None and rep[i] != want:
            names = " * ".join(
                f"{n}^{e}" if e > 1 else n
                for n, e in zip(GENERATOR_NAMES, mono)
                if e
            )
            raise NonSplittableTerm(
                f"term {names} needs both representations of axis {label!r}"
            )
        rep[i] = want
    return tuple(rep)


def _compatible(a: tuple, b: tuple) -> bool:
    return all(x is None or y is None or x == y for x, y in zip(a, b))


def _merge_rep(a: tuple, b: tuple) -> tuple:
    return tuple(x if x is not None else y for x, y in zip(a, b))


def _monomial_values(spec: GridSpec, mono: tuple[int, ...], rep: tuple) -> np.ndarray:
    """prod(axis values ** exponent) in the representations rep, broadcastable."""
    factor = np.ones((1,) * len(spec.axes))
    for gen_idx, exp in enumerate(mono):
        if exp == 0:
            continue
        name = GENERATOR_NAMES[gen_idx]
        label = name if name in MOMENTUM_OF else _POSITION_OF[name]
        i = spec.index(label)
        factor = factor * spec._axis_values(i, rep[i]) ** exp
    return factor


def _group_potential(spec: GridSpec, terms) -> np.ndarray:
    """Sum of coeff * prod(axis values) over the group, broadcastable."""
    total = np.zeros((1,) * len(spec.axes))
    for mono, coeff, rep in terms:
        total = total + coeff * _monomial_values(spec, mono, rep)
    return total


def compile_splitting(k_op: OperatorPolynomial, spec: GridSpec, dt: float) -> PropagatorPlan:
    """Group the terms of k_op into simultaneously diagonal phase factors.

    Every monomial must be diagonal in some mixed representation (no
    q*p-type terms) and carry a real coefficient.  Terms are grouped
    position-only first, then mixed terms merged greedily while their
    representation maps stay compatible, then momentum-only, which keeps
    the transform count per step small.
    """
    if float(dt) == 0.0:
        raise ValueError("dt must be nonzero")
    blind = (None,) * len(spec.axes)
    position, momentum, mixed = [blind, []], [blind, []], []  # groups: [merged rep, terms]

    ordered = sorted(k_op.monomials(), key=lambda kv: kv[0], reverse=True)
    for mono, coeff in ordered:
        if not coeff.is_real:
            raise NonSplittableTerm(
                f"term {OperatorPolynomial({mono: coeff})} has a non-real "
                "coefficient; its split phase would not be unitary"
            )
        rep = _term_representation(spec, mono)
        kinds = {r for r in rep if r is not None}
        if kinds <= {"pos"}:
            group = position
        elif kinds == {"mom"}:
            group = momentum
        else:
            group = next((g for g in mixed if _compatible(g[0], rep)), None)
            if group is None:
                group = [blind, []]
                mixed.append(group)
        group[0] = _merge_rep(group[0], rep)
        group[1].append((mono, float(coeff.real), rep))

    # a zero generator keeps the empty position group: the identity plan
    raw_groups = [g for g in (position, *mixed, momentum) if g[1]] or [position]
    n = len(raw_groups)
    groups = [
        _factor(rep, [-1j * (float(dt) if gi == n - 1 else float(dt) / 2.0)
                      * _group_potential(spec, terms)])
        for gi, (rep, terms) in enumerate(raw_groups)
    ]
    inner = groups[1:-1]
    return PropagatorPlan(spec, float(dt), tuple(groups[:-1][:1]),
                          (*inner, groups[-1], *reversed(inner)))


def _pair_quadratics(S: np.ndarray, values: list) -> list:
    """w^T S w / 2 as one broadcastable term per axis pair, diagonals folded in."""
    pairs = list(itertools.combinations(range(len(values)), 2)) or [(0, 0)]
    home = {a: next(p for p in pairs if a in p) for a in range(len(values))}
    return [
        (i != j) * S[i, j] * values[i] * values[j]
        + sum(0.5 * S[a, a] * values[a] ** 2 for a in {i, j} if home[a] == (i, j))
        for i, j in pairs
    ]


def _chirps(M: np.ndarray, tau: float, u: list, v: list) -> tuple:
    """The L and U chirps' matrices P and B for the flow M over tau, checked."""
    n = len(u)
    if not np.all(np.isfinite(M)):
        raise NonSplittableTerm(f"the flow of K leaves the float range at tau = {tau:g}")
    B, D = M[:n, n:], M[n:, n:]
    if np.linalg.cond(B) > 1e12:
        raise NonSplittableTerm(f"the flow's B block is singular at tau = {tau:g}")
    P = np.linalg.solve(B.T, (D - np.eye(n)).T)  # (D - I) B^-1; P and B are symmetric
    for S, w in ((P, u), (B, v)):
        # the phase w^T S w / 2 changes by at most step_i * |S| reach along axis i
        reach = np.array([np.max(np.abs(x)) for x in w])
        step = np.array([abs(x.flat[1] - x.flat[0]) for x in w])
        with np.errstate(over="ignore"):  # an overflow is a step beyond pi
            worst = float(np.max(step * (np.abs(S) @ reach)))
        if not worst <= math.pi:
            raise NonSplittableTerm(f"tau = {tau:g}: a chirp's phase steps {worst:.3g} > pi")
    return P, B


# a Gaussian's density falls below float64 epsilon of its peak this many
# standard deviations from its mean (8.49)
_TAILS = math.sqrt(-2.0 * math.log(np.finfo(float).eps))


def _packet_offsets(chirps: list, flow: np.ndarray, mean: np.ndarray, cov: np.ndarray,
                    steps: int, box: np.ndarray) -> int:
    """How many of the offsets' chirps (P, B) keep a Gaussian packet's run in the box.

    The packet (mean, cov of z = (u, v)) is carried by flow 0, 1, ..., steps
    times.  Between its factors a step takes z to (u, v + P u), then to
    (u + B (v + P u), v + P u): a chirped state is in the box when each
    v + P u and u + B (v + P u) has |mean| + _TAILS standard deviations at
    most box.  The first offset always counts: it is the plan of one step.
    """
    n = len(mean) // 2
    eye = np.eye(n)
    rows = np.concatenate([np.block([[P, eye], [eye + B @ P, B]])
                           for P, B in chirps[1:]])  # each chirped variable as a row on z
    squares = (rows[:, :, None] * rows[:, None, :]).reshape(len(rows), -1)  # its variance on cov
    bound = np.tile(np.roll(box, n), len(chirps) - 1)
    powers = np.eye(2 * n)[None]  # flow^0, flow^1, ...: a chunk of the run's flows
    chunk = min(steps + 1, max(1, _BLOCK_BYTES // powers.nbytes))
    while len(powers) < chunk:
        powers = np.concatenate([powers, powers @ (powers[-1] @ flow)])
    powers, count = powers[:chunk], len(chirps)
    jump = powers[-1] @ flow
    with np.errstate(over="ignore", invalid="ignore"):  # a state beyond the float range is out
        for start in range(0, steps + 1, chunk):
            w = powers[:steps + 1 - start]
            spread = (w @ cov @ w.transpose(0, 2, 1)).reshape(len(w), -1) @ squares.T
            inside = np.abs((w @ mean) @ rows.T) + _TAILS * np.sqrt(spread) <= bound
            count = min(count, 1 + int(np.cumprod(inside.reshape(len(w), -1, 2 * n)
                                                   .all(axis=(0, 2))).sum()))
            if count == 1:
                break
            mean, cov = jump @ mean, jump @ cov @ jump.T
    return count


def compile_exact(k_op: OperatorPolynomial, spec: GridSpec, tau: float,
                  packet=None) -> PropagatorPlan:
    """Exact plan for a real quadratic K: exp(-i K tau) as three chirps L U L.

    The frame R1 (a representation per axis) makes every monomial diagonal
    in R1 or in its full flip R2.  With u the R1 variables, v their
    conjugates and M = expm(J H tau) = [[A, B], [C, D]] the flow of
    K = (u, v) H (u, v)^T / 2: L = exp(+i u^T P u / 2) in R1, P = (D - I) B^-1,
    and U = exp(-i v^T B v / 2) in R2.  Raises NonSplittableTerm when no frame
    exists, a term is not a real quadratic, B is singular, or a chirp's phase
    steps by more than pi between neighbouring grid points (it would alias).
    Without a packet the plan has one offset.  With one it is stacked over
    tau, 2 tau, ..., K tau: row k - 1 of each factor is compile_exact(k * tau)'s
    one row, bit for bit.  A longer step chirps the state further between its
    factors, so a stack is compiled for the run it steps: packet = (state,
    steps), the run's initial MomentState and its count of steps of tau.  K
    is the longest prefix of the offsets one block of evolve's ring holds
    (_block_states) that compiles and keeps every chirped state of that run,
    a Gaussian of the state's moments, in the box to _TAILS deviations.
    """
    tau, n = float(tau), len(spec.axes)
    entries = []
    for mono, coeff in k_op.monomials():
        if not coeff.is_real or sum(mono) != 2:
            raise NonSplittableTerm(f"{OperatorPolynomial({mono: coeff})} is not a real quadratic")
        entries.append((mono, float(coeff.real), _term_representation(spec, mono)))
    for frame in itertools.product(("pos", "mom"), repeat=n):
        flip = tuple(_FLIP[r] for r in frame)
        if all(_compatible(rep, frame) or _compatible(rep, flip) for _, _, rep in entries):
            break
    else:
        raise NonSplittableTerm("no frame makes every term diagonal in it or in its flip")
    # z = to_z @ (q, p, x, y, p_x, p_y), signed: on a momentum axis u = p_y, v = -y
    to_z = np.zeros((2 * n, len(GENERATOR_NAMES)))
    for i, (ax, r) in enumerate(zip(spec.axes, frame)):
        pos, mom = (GENERATOR_NAMES.index(g) for g in (ax.label, MOMENTUM_OF[ax.label]))
        to_z[i, pos if r == "pos" else mom] = 1.0
        to_z[n + i, mom if r == "pos" else pos] = 1.0 if r == "pos" else -1.0
    H = np.zeros((2 * n, 2 * n))
    for mono, coeff, _ in entries:
        a, b = [to_z[:, g] for g, e in enumerate(mono) for _ in range(e)]
        H += coeff * (np.outer(a, b) + np.outer(b, a))
    J = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    u = [spec._axis_values(i, r) for i, r in enumerate(frame)]
    v = [spec._axis_values(i, r) * (-1.0 if r == "pos" else 1.0) for i, r in enumerate(flip)]
    times = tau * np.arange(1, (1 if packet is None else _block_states(spec)) + 1)
    flows = expm(J @ H * times[:, None, None])
    chirps = []  # per offset, the L and U chirps' P and B
    for t, M in zip(times.tolist(), flows):
        try:
            chirps.append(_chirps(M, t, u, v))
        except NonSplittableTerm:
            if not chirps:
                raise
            break
    if len(chirps) > 1:
        state, steps = packet
        box = np.array([np.max(np.abs(x)) for x in (*u, *v)])
        mean, cov = to_z @ state.mean, to_z @ state.covariance() @ to_z.T
        del chirps[_packet_offsets(chirps, flows[0], mean, cov, steps, box):]

    def chirp(c: int, w: list, sign: complex, rep: tuple) -> tuple:
        # per axis pair its quadratic at each offset; a pair no chirp couples gets no factor
        pairs = zip(*(_pair_quadratics(S[c], w) for S in chirps))
        return tuple(_factor(rep, [sign * q for q in qs]) for qs in pairs if np.any(qs))

    return PropagatorPlan(spec, tau, chirp(0, u, 1j, frame), chirp(1, v, -1j, flip))


# ---------------------------------------------------------------------------
# Transform bookkeeping.
# ---------------------------------------------------------------------------


def _transform_axis(arr: np.ndarray, axis: int, target: str) -> np.ndarray:
    # in place; looked up at each call, so a wrapper set on numpy.fft sees every transform
    transform = np.fft.fft if target == "mom" else np.fft.ifft
    return transform(arr, axis=axis, norm="ortho", out=arr)


def _whole(fn, axis: int, *arrays) -> None:  # the runner of work not split in halves
    fn(*arrays)


def _halves(arr: np.ndarray, axis: int) -> tuple:
    """arr cut in two along axis; a length-1 axis (a broadcast factor) is not cut."""
    head, cut = (slice(None),) * axis, arr.shape[axis] // 2
    return (arr[head + (slice(cut),)], arr[head + (slice(cut, None),)]) if cut else (arr, arr)


def _bring_to(arr: np.ndarray, reps: list, group_rep: tuple, run=_whole) -> np.ndarray:
    """Transform the engine's own buffer, a stack of states on axis 0, in place into
    group_rep, by run(fn, axis, arr)."""
    for i, want in enumerate(group_rep):
        if want is not None and reps[i] != want:
            run(lambda a, i=i + 1, want=want: _transform_axis(a, i, want), 1 + (i == 0), arr)
            reps[i] = want
    return arr


_FLIP = {"pos": "mom", "mom": "pos"}


def _meets(reps: tuple, key: tuple) -> bool:
    return all(reps[i] == want for i, want in key)


def _walk(base: tuple, keys) -> list[tuple]:
    """Shortest chain of one-axis flips from base meeting every key.

    A key ((axis, rep), ...) is met by any visited representation that
    agrees with it on its axes.  Breadth-first over (current, visited)
    pairs: at most 2^3 representations, so the search is tiny and always
    ends (visiting all of them meets every consistent key).
    """
    start = (base, frozenset([base]))
    paths = {start: [base]}
    queue = deque([start])
    while True:
        state = queue.popleft()
        reps, seen = state
        if all(any(_meets(v, k) for v in seen) for k in keys):
            return paths[state]
        for i in range(len(reps)):
            nxt = reps[:i] + (_FLIP[reps[i]],) + reps[i + 1:]
            new = (nxt, seen | {nxt})
            if new not in paths:
                paths[new] = paths[state] + [nxt]
                queue.append(new)


def _sample_parts(spec: GridSpec, observers) -> list[tuple]:
    """What a sample of observers (polynomials) reads: a (key, slot, row) per weight term.

    row(volume), given the cell volume, is the term's weights on the marginal
    over key ((axis, rep), ...), which add to the output slot's weights there:
    a fresh array, or for the norm the volume itself.  Slots: the squared norm, the edge mass per axis, each
    observer's value, then each observer's imaginary residual.  An observer's
    row is scaled in place, by the volume and then its coefficient.  The list
    itself allocates nothing and takes no volume, which may overflow.
    """
    ndim = len(spec.axes)
    parts = [(((i, "pos"),), 1 + i, lambda volume, i=i: volume * _edge_cells(spec.shape[i]))
             for i in range(ndim)]
    first = 1 + ndim

    def scaled(c, mono, rep, volume):  # c * (values * volume), in the values' own array
        values = _monomial_values(spec, mono, rep)
        values *= volume
        values *= float(c)
        return values.ravel()

    for o, poly in enumerate(observers):
        for mono, coeff in poly.monomials():
            rep = _term_representation(spec, mono)
            key = tuple((i, r) for i, r in enumerate(rep) if r is not None)
            for slot, c in ((first + o, coeff.real), (first + len(observers) + o, coeff.imag)):
                if c:
                    parts.append((key, slot, functools.partial(scaled, c, mono, rep)))
    parts.append((parts[0][0], 0, lambda volume: volume))  # the squared norm, off axis 0's marginal
    return parts


class _Sampler:
    """Norm, edge masses and observer expectations from |psi|^2 marginals.

    Built once per (observer set, base representation).  A monomial's
    expectation needs only the marginal of |psi|^2 over the axes it
    touches, each in the representation the monomial is diagonal in;
    summed-out axes may be in either representation (Parseval).  The plan
    walks the fewest one-axis transforms from the base that meet every
    marginal and takes the marginals in the fewest representations on the
    walk that meet them all.  Every output is a weighted sum of one
    marginal, so each marginal (a key) holds the stacked weights that read
    it, with coefficient and cell volume folded in: a block of samples makes
    one reduction and one matrix product per key.  Each reduction sums the
    smallest wider marginal owed at the same stop, when there is one; else
    it contracts the state's (re, im) pairs with themselves over the axes it
    drops, so no |psi|^2 is formed.  Only a marginal over every axis is
    |psi|^2 itself, and it goes into density, float grids of `states` states
    (evolve's sampler takes a block's), which the sampler allocates only
    when one of its keys keeps every axis.
    """

    def __init__(self, spec: GridSpec, base: tuple, observers, *, states: int = 1):
        ndim = len(spec.axes)
        self.n_last = spec.shape[-1]  # a block padded past it on the last axis is cut to it
        self.n_outputs = 1 + ndim + 2 * len(observers)
        parts = _sample_parts(spec, observers)
        index: dict[tuple, dict[int, int]] = {}  # key -> slot -> its row in the key's weights
        for key, slot, _ in parts:
            index.setdefault(key, {}).setdefault(slot, len(index[key]))
        weights = {key: np.zeros((len(rows), math.prod(spec.shape[i] for i, _ in key)))
                   for key, rows in index.items()}
        with np.errstate(over="ignore", invalid="ignore"):  # a volume or weight beyond the
            volume = spec.cell_volume  # float range shows as a non-finite output
            for key, slot, row in parts:
                weights[key][index[key][slot]] += row(volume)
        keys = list(index)
        # |psi|^2 of `states` states, allocated after the rows: one over every axis is as large
        self.density = (np.empty((states, *spec.shape))
                        if any(len(key) == ndim for key in keys) else None)
        path = _walk(tuple(base), keys)
        cover = next(c for size in range(1, len(path) + 1)
                     for c in itertools.combinations(path, size)
                     if all(any(_meets(reps, k) for reps in c) for k in keys))
        # (axis, target) transform into the stop, [(source, how, slots, weights)]
        self.stops = []
        for n, reps in enumerate(path):
            # widest marginal first: each is summed out of the smallest wider one
            # owed at the stop whose axes hold its own, else out of the state
            owed = sorted((k for k in keys if reps in cover and _meets(reps, k)),
                          key=len, reverse=True)
            keys = [k for k in keys if k not in owed]
            move = None
            if n:
                axis = next(i for i, r in enumerate(reps) if r != path[n - 1][i])
                move = (axis, reps[axis])
            reductions = []
            for r, key in enumerate(owed):
                kept = {i for i, _ in key}
                wider = [s for s in range(r) if kept < {i for i, _ in owed[s]}]
                source = min(wider, default=None,
                             key=lambda s: math.prod(spec.shape[i] for i, _ in owed[s]))
                if source is not None:  # the axes of owed[source] it drops; 0 is the block
                    axes = [i for i, _ in owed[source]]
                    how = tuple(a + 1 for a, j in enumerate(axes) if j not in kept)
                elif len(kept) == ndim:  # |psi|^2 itself
                    how = None
                else:  # einsum's subscripts; a kept last axis holds re^2 and im^2 apart
                    how = (_contraction(ndim, kept), ndim - 1 in kept)
                reductions.append((source, how, np.array(list(index[key])), weights[key]))
            self.stops.append((move, reductions))

    def measure_block(self, block: np.ndarray) -> np.ndarray:
        """One row per state of block (states on axis 0): the squared norm, the
        edge mass per axis, each observer's value, then each observer's
        imaginary residual.  block is scratch: it is transformed in place.  It
        may be padded past the grid on the last axis; the pad is not read.
        Only a marginal over every axis writes |psi|^2, into density; every
        other one is a contraction of the block's (re, im) pairs or a sum of
        a wider marginal, and allocates only itself."""
        out = np.zeros((len(block), self.n_outputs))
        block = block[..., :self.n_last]
        pairs = block.view(float)  # each element's (re, im), the last axis twice as long
        with np.errstate(over="ignore", invalid="ignore"):  # inf weights: see __init__
            for move, reductions in self.stops:
                if move is not None:
                    _transform_axis(block, move[0] + 1, move[1])
                marginals = []
                for source, how, slots, weights in reductions:
                    if source is not None:
                        marginal = np.sum(marginals[source], axis=how)
                    elif how is None:  # every axis: |psi|^2, into the sampler's buffer
                        marginal = np.abs(block, out=self.density[:len(block)])
                        np.square(marginal, out=marginal)
                    else:
                        marginal = np.einsum(how[0], pairs, pairs)
                        if how[1]:
                            marginal = marginal[..., 0::2] + marginal[..., 1::2]
                    marginals.append(marginal)
                    out[:, slots] += marginal.reshape(len(block), -1) @ weights.T
                del marginals
        return out

    def measure(self, arr: np.ndarray) -> np.ndarray:
        """measure_block's row for the one state arr, which is left as is."""
        return self.measure_block(arr[np.newaxis].copy())[0]


def _contraction(ndim: int, kept) -> str:
    """einsum's subscripts for a block's (re, im) pairs times themselves, summed over
    every grid axis not in kept: the block's marginal over kept, per state."""
    letters = string.ascii_lowercase[:ndim + 1]  # the block's axis 0, then the grid's
    return f"{letters},{letters}->a" + "".join(letters[i + 1] for i in sorted(kept))


def grid_expectation(state: GridState, a: OperatorPolynomial) -> Expectation:
    """<psi|A|psi> for a representation-diagonal polynomial A.

    Evaluated monomial-wise: each term is diagonal in some mixed
    representation, where its expectation is a weighted quadrature of the
    marginal of |psi|^2 over the axes it touches.  Returns the real value
    with the imaginary residual.
    """
    base = ("pos",) * len(state.spec.axes)
    value, resid = _Sampler(state.spec, base, [a]).measure(state.array)[1 + len(base):]
    return Expectation(float(value), float(resid))


# ---------------------------------------------------------------------------
# Evolution.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvolutionResult:
    times: np.ndarray
    labels: tuple[str, ...]
    values: np.ndarray  # (len(times), len(labels)) real expectations
    imag_residuals: np.ndarray  # max |imaginary part| seen per observer
    norms: np.ndarray  # state norm at each sample
    final_state: GridState

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - self.norms[0])))


_MAX_SPLIT = 16  # an exact plan's tau may go down to dt / _MAX_SPLIT
_MAX_GRID_STEPS = 10**7  # exact steps a run may take; more is refused up front
_BLOCK_BYTES = 512 * 1024  # bytes of states in one sample block


def _block_states(spec: GridSpec) -> int:
    """States in one block of evolve's ring: as many as fit _BLOCK_BYTES, at least one."""
    return max(1, _BLOCK_BYTES // (16 * math.prod(spec.shape)))


def _ring(spec: GridSpec, offsets: int, samples: int | None = None) -> tuple[int, int, int]:
    """evolve's ring for a plan of `offsets` offsets: blocks, states per block, first slot.

    A block holds as many states as fit _BLOCK_BYTES (states counted
    unpadded, each padded as the plan's factors are), at least one, and whole
    stacks of `offsets`, which compile_exact keeps to one block; no more than
    a run of `samples` fills.  A stacked run starts in slot -1, the last of
    its last block, so its stacks never straddle two blocks, and it has a
    third block: the helper keeps a stack queued while the stepping waits
    for the oldest.
    """
    stacked = int(offsets > 1)
    per_block = offsets * max(1, _block_states(spec) // offsets)
    if samples is not None:
        per_block = min(per_block, offsets * -(-(samples - stacked) // offsets))
    return 2 + stacked, per_block, -stacked


def _run_bytes(spec: GridSpec, observers, tail: bool = False) -> int:
    """Upper bound on the peak bytes of an exact-plan evolve, plan and state included.

    What the run holds: the blocks of evolve's ring for a plan stacked over
    a block's states (_ring), each ring state at (n + 1) / n of the grid's
    complex state for its pad; the sampler's block of |psi|^2, held for the
    whole run, only if a part of the sample (_sample_parts) keeps every axis;
    a marginal over every proper subset of the axes, and the largest one
    twice more, as einsum's (re, im) output; no copy of the initial state,
    whose factors and their product over every axis but the last are counted
    instead.  Per axis pair and offset, and once more for a tail plan: an
    edge and a middle chirp factor, a stack's opening and a squared edge.  A
    ufunc buffer per thread.  The sampler's weights, a row on its marginal
    per part of the sample, and one row in flight while they are built.
    """
    size, last = math.prod(spec.shape), spec.shape[-1]
    blocks, per_block, _ = _ring(spec, _block_states(spec))
    marginals = sum(math.prod(c) for r in range(len(spec.shape))
                    for c in itertools.combinations(spec.shape, r))
    keys = [key for key, _, _ in _sample_parts(spec, [poly for _, poly in observers])]
    rows = [math.prod(spec.shape[i] for i, _ in key) for key in keys]
    whole = any(len(key) == len(spec.axes) for key in keys)
    need = 16 * blocks * per_block * size // last * (last + 1)
    need += 8 * (per_block * (size * whole + marginals + 2 * size // min(spec.shape))
                 + size // last + sum(spec.shape))
    big = max(spec.shape)
    chirps = 4 * (per_block + tail) * max(1, math.comb(len(spec.axes), 2)) * big * (big + 1)
    need += 16 * (chirps + 2 * np.getbufsize())
    return need + 8 * (sum(rows) + max(rows))


def plan_run(k_op: OperatorPolynomial, spec: GridSpec, dt: float, steps: int, stride: int,
             state, observers) -> list[tuple]:
    """One exact plan per sample-interval length of a run, or its refusal before any array.

    The run is sample_steps's `steps` steps of dt from `state`, its initial MomentState.
    RunTooLarge refuses it, before any compile, when its arrays (_run_bytes) exceed
    physical memory, then past _MAX_GRID_STEPS exact steps.  An interval of g * dt
    (stride, and steps mod stride for a last one off the stride) takes j steps of
    g * dt / j, j the first split that compiles: 1 to _MAX_SPLIT, then multiples of g
    down to dt / _MAX_SPLIT, else NonSplittableTerm.  The first plan is stacked for the
    packet (state, its exact steps).  Returns (plan, stride, exact steps) per run:
    evolve the first for its exact steps times plan.dt, with a second as its tail.
    """
    whole, rest = divmod(steps, stride)
    need = _run_bytes(spec, observers, bool(whole and rest))
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        points = "/".join(map(str, sorted(set(spec.shape))))
        raise RunTooLarge(f"a {len(spec.axes)}-axis grid of {points} points per axis needs "
                          f"about {need} bytes, more than the {have} bytes of physical memory")
    lengths = [(stride, whole)] * bool(whole) + [(rest, 1)] * bool(rest)
    runs, total = [], 0
    for g, count in lengths:
        splits = sorted({*range(1, _MAX_SPLIT + 1), *range(g, _MAX_SPLIT * g + 1, g)})
        for j in splits:
            exact = count * j
            if total + exact > _MAX_GRID_STEPS:
                raise RunTooLarge(
                    f"the grid run needs {_count_text(total + exact)} exact steps of tau = "
                    f"{dt * g / j:g}, more than the cap of {_MAX_GRID_STEPS}"
                )
            try:
                plan = compile_exact(k_op, spec, dt * g / j, None if runs else (state, exact))
                break
            except NonSplittableTerm:
                if j == splits[-1]:
                    raise
        runs.append((plan, j, exact))
        total += exact
    return runs


def _march(work: np.ndarray, plan: PropagatorPlan, marks: np.ndarray, spare, run=_whole,
           tail: PropagatorPlan | None = None):
    """Step work, yielding (its representation, owed, count) at each stack of marks.

    work is a stack of one state on axis 0.  The marks after mark 0 go in
    stacks of up to plan.offsets (K) marks m steps apart, the first m steps
    after the mark before them: state j of a stack is that mark's state
    stepped m times by the plan at offset j, all j at once.  With a tail
    plan, the last mark is a stack of its own that the tail plan steps to.
    spare(count) hands out a stack's buffers on axis 0 and its first
    multiply writes into them, so at each yield the count states handed out
    before (work, at mark 0) hold chi: the states at their marks but for the
    edge factors owed, a row per state (none at mark 0), which a sample
    applies itself.  After the last mark, spare(1) holds the final state.  run applies each
    transform and multiply (_bring_to).  The buffers carry one zero past the
    grid on the last axis, as the plan's factors along it do: transforms run
    on the grid view, multiplies on the whole buffer.
    """
    K, n = plan.offsets, plan.spec.shape[-1]
    cuts, products = {}, {}  # per stack size, the rows it steps by; their edge products
    reps = ["pos"] * len(plan.spec.axes)
    chi, owed, count = work, (), 1  # the latest marks' states, the edge they owe, how many
    marks, s = marks.tolist(), 0
    last = len(marks) - 1 - bool(tail)  # the last mark plan steps to
    while True:
        src = chi[-1:]  # the state the next steps start from
        if s == len(marks) - 1:  # the final state: the last with the edge it owes applied
            c, sweeps = 1, [tuple(_PhaseGroup(g.rep, g.phase[-1:]) for g in owed)]
        else:
            m, c = marks[s + 1] - marks[s], 1
            while c < K and s + c < last and marks[s + c + 1] - marks[s] == (c + 1) * m:
                c += 1
            # the tail's factors are cut and multiplied under a key of their own
            key, stepper = (c, plan) if s < last else ("tail", tail)
            if key not in cuts:
                cuts[key] = tuple(tuple(_PhaseGroup(g.rep, g.phase[:c]) for g in groups)
                                  for groups in (stepper.edge, stepper.middle))
            e, u = cuts[key]
            # a step's closing edge and the next one's opening meet as one factor: the
            # row L_count src owes times each L_j, or L_j^2 within a sample interval
            if owed and (count, key) not in products:
                products[count, key] = tuple(_PhaseGroup(g.rep, o.phase[-1:] * g.phase)
                                             for o, g in zip(owed, e, strict=True))
            if m > 1 and key not in products:
                products[key] = tuple(_PhaseGroup(g.rep, g.phase * g.phase) for g in e)
            sweeps = [(*(products[count, key] if owed else e), *u)]
            sweeps += [(*products.get(key, ()), *u)] * (m - 1)
        if not sweeps[0]:  # a plan with no edge: the final state is a copy
            np.copyto(spare(1), src)
            yield tuple(reps), owed, count
        for step, sweep in enumerate(sweeps):
            for i, group in enumerate(sweep):
                _bring_to((out if step or i else chi)[..., :n], reps, group.rep, run)
                if step or i:
                    run(np.multiply, 1, out, group.phase, out)
                    continue
                out = spare(c)  # it may wait: after the transforms
                run(np.multiply, 1, src, group.phase, out)
                yield tuple(reps), owed, count
        if s == len(marks) - 1:
            return
        chi, owed, count, s = out, e, c, s + c


def _measure(owed, sampler: "_Sampler", block: np.ndarray) -> np.ndarray:
    for group in owed:  # the edge the sampled states still owe
        block *= group.phase
    return sampler.measure_block(block)


class _Helper:
    """The thread that measures a run's sample batches in order and shares its steps.

    A job is [fn, args, done, what fn returned or raised].  split(fn, axis,
    *arrays) posts fn on the second halves of arrays (cut along axis), runs
    it on the first halves, then takes the second back unless the thread has
    started it.  The thread takes a posted half before the next batch.
    """

    def __init__(self):
        self._ready = threading.Condition()
        self._half = None  # the job split posted, until the thread takes it
        self.batches: list = []  # batch jobs as posted; None ends the thread
        self.thread = threading.Thread(target=self._serve, name="hybridlab-sampler", daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        started = 0
        while True:
            with self._ready:
                self._ready.wait_for(lambda: self._half or len(self.batches) > started)
                job, self._half = self._half, None
                if job is None:
                    job, started = self.batches[started], started + 1
            if job is None:
                return
            try:
                job[3] = job[0](*job[1])
            except BaseException as exc:  # wait raises it again in the caller
                job[3] = exc
            with self._ready:
                job[2] = True
                self._ready.notify()

    def wait(self, job):  # what job returned, once done; raises what it raised
        with self._ready:
            self._ready.wait_for(lambda: job[2])
        if isinstance(job[3], BaseException):
            raise job[3]
        return job[3]

    def split(self, fn, axis: int, *arrays) -> None:
        first, second = zip(*(_halves(a, axis) for a in arrays))
        half = [fn, second, False, None]
        with self._ready:
            self._half = half
            self._ready.notify()
        fn(*first)
        with self._ready:
            ours = self._half is half
            if ours:
                self._half = None
        if ours:
            fn(*second)
        else:
            self.wait(half)

    def post(self, job) -> None:
        with self._ready:
            self.batches.append(job)
            self._ready.notify()


def evolve(
    state: GridState,
    plan: PropagatorPlan,
    t_final: float,
    observers=(),
    *,
    stride: int = 1,
    tail: tuple | None = None,
) -> EvolutionResult:
    """Propagate for t_final, sampling observers, a sequence of (label,
    polynomial) pairs, every `stride` steps.

    The steps and sample points are those of `sample_steps(t_final,
    plan.dt, stride)`, which validates them: t_final must be a whole
    number of |dt| steps (the sign of the plan's dt sets the direction of
    time), and samples always include t = 0 and the final step.  tail =
    (plan, exact steps), a run's last interval off the stride with
    plan_run's plan and exact steps for it, steps on from there in the same
    ring by that plan, sampled once more at its end; times, and a
    BoxOverflow's t, count from the run's start.  Raises BoxOverflow if
    probability mass reaches the box edge at a sample point.  The state goes
    into the ring by state.write_to, so the run holds its ring, a sampler
    per representation it samples in (each with a block's |psi|^2 only if
    an observer's marginal keeps every axis), and no copy of the state; an
    array the state has is left untouched.  plan.dt is the step tau; a plan
    stacked over K offsets (compile_exact, for this state's run) steps up to
    K marks at once.  The steps run through a ring of blocks (_ring), each
    state padded by one zero on the last axis, and a helper thread measures
    each sample in the slot it was stepped in; for a state over _BLOCK_BYTES
    it also runs half of each transform and multiply when it is free.  It is
    joined before this returns or raises.  final_state is a strided view
    into one block: its grid, without the pad.
    """
    if state.spec is not plan.spec and state.spec != plan.spec:
        raise ValueError("state and plan use different grids")
    marks, _ = sample_steps(t_final, plan.dt, stride)
    times, tail_plan = marks * plan.dt, None
    if tail is not None:  # one more mark, the tail's steps on
        tail_plan, steps = tail
        marks = np.append(marks, marks[-1] + steps)
        times = np.append(times, times[-1] + steps * tail_plan.dt)

    polys = [poly for _, poly in observers]

    spec = plan.spec
    first = 1 + len(spec.axes)  # column of the first observer
    # a ring of blocks, each state one zero past the grid on the last axis (the pad),
    # so no leading stride of a slot is a power of two: slot s is state s % per_block
    # of block s // per_block
    n = spec.shape[-1]
    ring, per_block, slot = _ring(spec, plan.offsets, len(marks))
    blocks = [np.zeros((per_block, *spec.shape[:-1], n + 1), dtype=complex)
              for _ in range(ring)]
    samplers: dict[tuple, _Sampler] = {}
    measured: list = []  # each checked batch's rows
    posted = [0] * len(blocks)  # per block, the batches posted up to its last one
    size = 1  # the count of the stack spare() handed out last, from slot on
    filled, base = 0, None  # the batch being filled: its size and (reps, owed)
    helper = _Helper()

    def collect() -> None:  # wait for the oldest batch in flight and check its rows
        rows = helper.wait(helper.batches[len(measured)])
        hit = np.argwhere(rows[:, 1:first] > _BOUNDARY_MASS_LIMIT)
        if len(hit):
            row, axis = hit[0]
            t = times[sum(map(len, measured)) + row]
            raise BoxOverflow(
                f"axis {spec.axes[axis].label!r} holds {rows[row, 1 + axis]:.3e} probability "
                f"mass within {_BOUNDARY_CELLS} cells of the boundary at t = {t:g}"
            )
        measured.append(rows)

    def block(s: int) -> int:
        return s // per_block % len(blocks)

    def at(s: int) -> np.ndarray:  # slot s and the rest of its block
        return blocks[block(s)][s % per_block:]

    def submit(end: int) -> None:  # hand the batch being filled, up to slot end, to the helper
        nonlocal filled
        posted[block(end - 1)] = len(helper.batches) + 1
        batch = at(end - filled)[:filled]
        helper.post([_measure, (base[1], samplers[base[0]], batch), False, None])
        filled = 0

    def spare(count: int) -> np.ndarray:  # the next count slots; a new block waits for its batches
        nonlocal slot, size
        slot, size = slot + size, count
        while not slot % per_block and len(measured) < posted[block(slot)]:
            collect()
        return at(slot)[:count]

    state.write_to(at(slot)[0, ..., :n])
    large = 16 * math.prod(spec.shape) > _BLOCK_BYTES  # a complex state's bytes
    run = helper.split if large and len(spec.axes) > 1 else _whole
    try:
        for reps, owed, count in _march(at(slot)[:1], plan, marks, spare, run, tail_plan):
            if reps not in samplers:  # an observer the grid cannot sample fails here, at once
                samplers[reps] = _Sampler(spec, reps, polys, states=per_block)
            # a stack's owed factors have a row per state: it is a batch of its own
            if filled and (reps != base[0] or owed is not base[1] or count > 1):
                submit(slot - count)
            filled, base = filled + count, (reps, owed)  # chi is in the count slots before slot
            if not slot % per_block:  # chi filled its block
                submit(slot)
        if filled:
            submit(slot)
        while len(measured) < len(helper.batches):
            collect()
        final = _bring_to(at(slot)[:1, ..., :n], list(reps), ("pos",) * len(spec.axes), run)[0]
    finally:
        helper.post(None)
        helper.thread.join()

    out = np.concatenate(measured)
    resid = first + len(polys)
    return EvolutionResult(
        times=times,
        labels=tuple(label for label, _ in observers),
        values=out[:, first:resid].copy(),
        imag_residuals=np.abs(out[:, resid:]).max(axis=0),
        norms=np.sqrt(out[:, 0]),
        final_state=GridState(spec, final),
    )


# ---------------------------------------------------------------------------
# Marginals and partial traces.
# ---------------------------------------------------------------------------


def marginal_density(state: GridState, keep) -> np.ndarray:
    """|psi|^2 integrated over the dropped axes.

    Returns a density over the kept axes (in grid order): it sums to 1
    after multiplying by the kept cell volume, and is pointwise >= 0.
    """
    return marginal_densities(state, [keep])[0]


def marginal_densities(state: GridState, keeps) -> list[np.ndarray]:
    """marginal_density for each keep in keeps, every one summed from one |psi|^2."""
    keeps = [(keep,) if isinstance(keep, str) else tuple(keep) for keep in keeps]
    for keep in keeps:
        for label in keep:
            state.spec.index(label)  # raises UnknownAxis
        if len(set(keep)) != len(keep):
            raise ValueError("duplicate axis in keep list")
    density = state.density()
    marginals = []
    for keep in keeps:
        drop = tuple(i for i, label in enumerate(state.spec.labels) if label not in keep)
        if not drop:
            marginals.append(density)
            continue
        dropped_volume = float(np.prod([state.spec.axes[i].spacing for i in drop]))
        marginals.append(np.sum(density, axis=drop) * dropped_volume)
    return marginals


def reduced_quantum_density(state: GridState) -> FiniteDensity:
    """Partial trace over the classical axes: rho(q, q') on the q grid.

    rho[q, q'] = sum over classical cells of psi(. , q) conj(psi(. , q'))
    times the full cell volume, which makes the trace equal the state
    norm squared (1 for a normalized state).
    """
    qi = state.spec.index("q")
    moved = np.moveaxis(state.array, qi, -1)
    nq = state.spec.axes[qi].points
    flat = moved.reshape(-1, nq)
    rho = (flat.T @ flat.conj()) * state.spec.cell_volume
    rho = (rho + rho.conj().T) / 2
    return FiniteDensity(rho)


def operator_matrix_1d(axis: AxisSpec, pos_exp: int, mom_exp: int) -> np.ndarray:
    """Dense N x N matrix of the normal-ordered operator u^a * mom^b.

    Built as diag(u^a) @ F^-1 @ diag(k^b) @ F with orthonormal DFTs, the
    exact matrix of how the split-step engine represents such a term.
    Unlike the splitting, this supports both exponents at once (it is the
    product of the two diagonal factors in their own representations).
    """
    if pos_exp < 0 or mom_exp < 0:
        raise ValueError("exponents must be nonnegative")
    n = axis.points
    out = np.eye(n, dtype=complex)
    if mom_exp:
        F = np.fft.fft(np.eye(n), axis=0, norm="ortho")
        out = F.conj().T @ np.diag(axis.momenta() ** mom_exp) @ F
    if pos_exp:
        out = np.diag(axis.positions() ** pos_exp).astype(complex) @ out
    return out


# ---------------------------------------------------------------------------
# Binary snapshots.
# ---------------------------------------------------------------------------

_SNAPSHOT_MAGIC = b"HLGRID1\n"


def save_snapshot(path, spec_labels, points, half_extents, array) -> None:
    """Write a marginal density atomically: magic, JSON header, little-endian f64."""
    arr = np.ascontiguousarray(array, dtype="<f8")
    header = {
        "labels": list(spec_labels),
        "points": [int(n) for n in points],
        "half_extents": [float(L) for L in half_extents],
        "shape": list(arr.shape),
    }
    payload = (
        _SNAPSHOT_MAGIC
        + json.dumps(header, sort_keys=True).encode("ascii")
        + b"\n"
        + arr.tobytes(order="C")
    )
    write_atomic(path, payload)


def load_snapshot(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(_SNAPSHOT_MAGIC):
        raise ValueError("not a grid snapshot file")
    rest = blob[len(_SNAPSHOT_MAGIC):]
    newline = rest.index(b"\n")
    header = json.loads(rest[:newline].decode("ascii"))
    data = np.frombuffer(rest[newline + 1:], dtype="<f8").reshape(header["shape"])
    return header["labels"], header["points"], header["half_extents"], data.copy()

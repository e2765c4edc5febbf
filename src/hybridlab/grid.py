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

Stepping works in place on one buffer the engine owns (phases multiplied in
place, FFTs allowed to overwrite it).  The sweep opens and closes with the
same dt/2 phase, so between samples the closing half of one step and the
opening half of the next are applied as one full-dt phase (first same as
last, FSAL); the dt/2 closing phase is applied only before a sample.  This
regroups identical diagonal factors and leaves the scheme unchanged.

All expectation values use the same quadrature weight in every
representation: with orthonormal FFTs, sum(V * |psi|^2) * cell_volume is
correct whether an axis is in position or momentum form.  A monomial
touches few axes, so it is evaluated on the marginal of |psi|^2 over just
those axes, in their required representations.  By Parseval the 1-D FFT
along a summed-out axis preserves the sum, so the marginal does not depend
on the representation of the axes it drops.  Sampling walks the fewest
one-axis transforms that reach every needed marginal and computes |psi|^2
once per representation on that walk; the norm and the boundary edge
masses come from the same marginals.  No step depends on a sample, so
evolve copies each sampled state into a block of scratch states and one
worker thread measures full blocks while the caller keeps stepping (numpy's
FFTs and large ufuncs release the GIL, so the two overlap).
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .algebra import GENERATOR_NAMES, Monomial, OperatorPolynomial
from .moments import expm
from .observables import Expectation, FiniteDensity
from .reporting import write_atomic

__all__ = [
    "OutOfBox",
    "NonSplittableTerm",
    "UnknownAxis",
    "BoxOverflow",
    "AxisSpec",
    "GridSpec",
    "GridState",
    "PropagatorPlan",
    "EvolutionResult",
    "gaussian_state",
    "compile_splitting",
    "compile_exact",
    "sample_steps",
    "evolve",
    "grid_expectation",
    "marginal_density",
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


class OutOfBox(Exception):
    """A requested state does not fit well inside the periodic box."""


class NonSplittableTerm(Exception):
    """A monomial needs both representations of one axis, or is not a
    real-coefficient term (its phase would not be unitary); or K has no
    exact plan at this step."""


class UnknownAxis(Exception):
    """An axis label or generator has no axis in the grid."""


class BoxOverflow(Exception):
    """Probability mass reached the box boundary; the run is unreliable."""


# Vestiges kept for the benchmark's tracer and worker, which read them: each
# transform is numpy.fft's on one thread, evolve's sampling thread included.
_workers = 1


def set_workers(n: int) -> None:
    """No-op: every transform runs on one thread."""


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


@dataclass(frozen=True)
class GridState:
    spec: GridSpec
    array: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.array, dtype=complex)
        if arr.shape != self.spec.shape:
            raise ValueError(
                f"array shape {arr.shape} does not match grid shape {self.spec.shape}"
            )
        object.__setattr__(self, "array", arr)

    def norm(self) -> float:
        return math.sqrt(float(np.sum(np.abs(self.array) ** 2)) * self.spec.cell_volume)

    def density(self) -> np.ndarray:
        """f = |psi|^2, pointwise nonnegative by construction."""
        return np.abs(self.array) ** 2


def gaussian_state(spec: GridSpec, means, widths) -> GridState:
    """Normalized product of per-axis real Gaussians exp(-(u-mu)^2/(4 s^2)).

    On a classical axis this is the square root of a Gaussian density of
    standard deviation s; on the quantum axis it is the usual wave packet
    with position spread s (momentum spread 1/(2s)).  means/widths map
    axis labels to numbers (sequences aligned with the axes also work).
    Raises OutOfBox unless |mean| + 4*width < half_extent per axis.
    """
    means = _per_axis(spec, means, "means")
    widths = _per_axis(spec, widths, "widths")
    psi = np.ones(spec.shape, dtype=complex)
    for i, ax in enumerate(spec.axes):
        mu, sigma = means[i], widths[i]
        if not (math.isfinite(mu) and math.isfinite(sigma)):
            raise ValueError(f"mean and width for axis {ax.label!r} must be finite")
        if not sigma > 0:
            raise ValueError(f"width for axis {ax.label!r} must be positive")
        if abs(mu) + 4.0 * sigma >= ax.half_extent:
            raise OutOfBox(
                f"axis {ax.label!r}: |{mu}| + 4*{sigma} reaches the half extent "
                f"{ax.half_extent}"
            )
        u = spec._axis_values(i, "pos")
        psi = psi * np.exp(-((u - mu) ** 2) / (4.0 * sigma**2))
    nrm = math.sqrt(float(np.sum(np.abs(psi) ** 2)) * spec.cell_volume)
    return GridState(spec, psi / nrm)


def _per_axis(spec: GridSpec, values, what: str) -> list[float]:
    if isinstance(values, dict):
        unknown = set(values) - set(spec.labels)
        if unknown:
            raise UnknownAxis(f"{what} given for missing axes {sorted(unknown)}")
        return [float(values.get(label, 0.0)) for label in spec.labels]
    if isinstance(values, (int, float)):
        return [float(values)] * len(spec.axes)
    out = [float(v) for v in values]
    if len(out) != len(spec.axes):
        raise ValueError(f"{what} must give one value per axis ({len(spec.axes)})")
    return out


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
    """Symmetric factorization of exp(-i K dt) into diagonal phases.

    One full step applies every group, the last at dt, then the rest
    mirrored.  compile_splitting's Strang groups are ordered
    position-diagonal, then mixed, then momentum-diagonal, each at dt/2;
    compile_exact's are the R1 chirp's factors, then the R2 chirp's at
    dt/2.  Applying the plan with dt and again with -dt undoes it to
    roundoff.
    """

    spec: GridSpec
    dt: float
    groups: tuple

    @property
    def sequence(self) -> list[int]:
        n = len(self.groups)
        if n == 1:
            return [0]
        return list(range(n)) + list(range(n - 2, -1, -1))


def _term_representation(spec: GridSpec, mono: Monomial) -> tuple:
    """Required representation per axis, or None where the term is blind."""
    rep = [None] * len(spec.axes)
    for gen_idx, exp in enumerate(mono.exponents):
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
                for n, e in zip(GENERATOR_NAMES, mono.exponents)
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


def _monomial_values(spec: GridSpec, mono: Monomial, rep: tuple) -> np.ndarray:
    """prod(axis values ** exponent) in the representations rep, broadcastable."""
    factor = np.ones((1,) * len(spec.axes))
    for gen_idx, exp in enumerate(mono.exponents):
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
    position_terms: list = []
    momentum_terms: list = []
    mixed_groups: list[list] = []
    mixed_reps: list[tuple] = []

    ordered = sorted(k_op.terms.items(), key=lambda kv: kv[0].exponents, reverse=True)
    for mono, coeff in ordered:
        if not coeff.is_real:
            raise NonSplittableTerm(
                f"term {OperatorPolynomial({mono: coeff})} has a non-real "
                "coefficient; its split phase would not be unitary"
            )
        rep = _term_representation(spec, mono)
        entry = (mono, float(coeff.real), rep)
        kinds = {r for r in rep if r is not None}
        if kinds <= {"pos"}:
            position_terms.append(entry)
        elif kinds == {"mom"}:
            momentum_terms.append(entry)
        else:
            for gi, grep in enumerate(mixed_reps):
                if _compatible(grep, rep):
                    mixed_groups[gi].append(entry)
                    mixed_reps[gi] = _merge_rep(grep, rep)
                    break
            else:
                mixed_groups.append([entry])
                mixed_reps.append(rep)

    raw_groups: list[tuple[tuple, list]] = []
    if position_terms:
        rep = (None,) * len(spec.axes)
        for entry in position_terms:
            rep = _merge_rep(rep, entry[2])
        raw_groups.append((rep, position_terms))
    raw_groups.extend(zip(mixed_reps, mixed_groups))
    if momentum_terms:
        rep = (None,) * len(spec.axes)
        for entry in momentum_terms:
            rep = _merge_rep(rep, entry[2])
        raw_groups.append((rep, momentum_terms))
    if not raw_groups:  # zero generator: identity plan
        raw_groups.append(((None,) * len(spec.axes), []))

    n = len(raw_groups)
    groups = []
    for gi, (rep, terms) in enumerate(raw_groups):
        sub_dt = float(dt) if gi == n - 1 else float(dt) / 2.0
        potential = _group_potential(spec, terms)
        phase = np.exp(-1j * sub_dt * potential)
        groups.append(_PhaseGroup(rep, phase))
    return PropagatorPlan(spec, float(dt), tuple(groups))


def _pair_quadratics(S: np.ndarray, values: list) -> list:
    """w^T S w / 2 as one broadcastable term per axis pair, diagonals folded in."""
    pairs = list(itertools.combinations(range(len(values)), 2)) or [(0, 0)]
    home = {a: next(p for p in pairs if a in p) for a in range(len(values))}
    return [
        (i != j) * S[i, j] * values[i] * values[j]
        + sum(0.5 * S[a, a] * values[a] ** 2 for a in {i, j} if home[a] == (i, j))
        for i, j in pairs
    ]


def compile_exact(k_op: OperatorPolynomial, spec: GridSpec, tau: float) -> PropagatorPlan:
    """Exact plan for a real quadratic K: exp(-i K tau) as three chirps L U L.

    The frame R1 (a representation per axis) makes every monomial diagonal
    in R1 or in its full flip R2.  With u the R1 variables, v their
    conjugates and M = expm(J H tau) = [[A, B], [C, D]] the flow of
    K = (u, v) H (u, v)^T / 2: L = exp(+i u^T P u / 2) in R1, P = (D - I) B^-1,
    and U = exp(-i v^T B v / 2) in R2.  Raises NonSplittableTerm when no frame
    exists, a term is not a real quadratic, B is singular, or a chirp's phase
    steps by more than pi between neighbouring grid points (it would alias).
    """
    tau, n = float(tau), len(spec.axes)
    entries = []
    for mono, coeff in k_op.terms.items():
        if not coeff.is_real or sum(mono.exponents) != 2:
            raise NonSplittableTerm(f"{OperatorPolynomial({mono: coeff})} is not a real quadratic")
        entries.append((mono, float(coeff.real), _term_representation(spec, mono)))
    for frame in itertools.product(("pos", "mom"), repeat=n):
        flip = tuple(_FLIP[r] for r in frame)
        if all(_compatible(rep, frame) or _compatible(rep, flip) for _, _, rep in entries):
            break
    else:
        raise NonSplittableTerm("no frame makes every term diagonal in it or in its flip")
    # generator -> (index in z, sign); on a momentum axis u = p_y, v = -y
    slot = {}
    for i, (ax, r) in enumerate(zip(spec.axes, frame)):
        pos, mom = ((i, 1.0), (n + i, 1.0)) if r == "pos" else ((n + i, -1.0), (i, 1.0))
        slot[ax.label], slot[MOMENTUM_OF[ax.label]] = pos, mom
    H = np.zeros((2 * n, 2 * n))
    for mono, coeff, _ in entries:
        (a, sa), (b, sb) = [
            slot[GENERATOR_NAMES[g]] for g, e in enumerate(mono.exponents) for _ in range(e)
        ]
        H[a, b] += coeff * sa * sb
        H[b, a] += coeff * sa * sb
    J = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    M = expm(J @ H * tau)
    B, D = M[:n, n:], M[n:, n:]
    if np.linalg.cond(B) > 1e12:
        raise NonSplittableTerm(f"the flow's B block is singular at tau = {tau:g}")
    P = np.linalg.solve(B.T, (D - np.eye(n)).T)  # (D - I) B^-1; P and B are symmetric
    u = [spec._axis_values(i, r) for i, r in enumerate(frame)]
    v = [spec._axis_values(i, r) * (-1.0 if r == "pos" else 1.0) for i, r in enumerate(flip)]
    for S, w in ((P, u), (B, v)):
        # the phase w^T S w / 2 changes by at most step_i * |S| reach along axis i
        reach = np.array([np.max(np.abs(x)) for x in w])
        step = np.array([abs(x.flat[1] - x.flat[0]) for x in w])
        worst = float(np.max(step * (np.abs(S) @ reach)))
        if worst > math.pi:
            raise NonSplittableTerm(f"tau = {tau:g}: a chirp's phase steps {worst:.3g} > pi")
    # a pair the chirp leaves uncoupled has an all-zero quadratic: no factor
    l_terms, u_terms = (
        [t for t in _pair_quadratics(S, w) if np.any(t)] for S, w in ((P, u), (B, v))
    )
    *halves, last = u_terms
    return PropagatorPlan(spec, tau, (
        *[_PhaseGroup(frame, np.exp(1j * t)) for t in l_terms],
        *[_PhaseGroup(flip, np.exp(-0.5j * t)) for t in halves],
        _PhaseGroup(flip, np.exp(-1j * last)),
    ))


# ---------------------------------------------------------------------------
# Transform bookkeeping.
# ---------------------------------------------------------------------------


def _transform_axis(arr: np.ndarray, axis: int, target: str) -> np.ndarray:
    # in place; looked up at each call, so a wrapper set on numpy.fft sees every transform
    transform = np.fft.fft if target == "mom" else np.fft.ifft
    return transform(arr, axis=axis, norm="ortho", out=arr)


def _bring_to(arr: np.ndarray, reps: list, group_rep: tuple) -> np.ndarray:
    """Transform the engine's own buffer in place into group_rep."""
    for i, want in enumerate(group_rep):
        if want is not None and reps[i] != want:
            arr = _transform_axis(arr, i, want)
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


class _Sampler:
    """Norm, edge masses and observer expectations from |psi|^2 marginals.

    Built once per (observer set, base representation).  A monomial's
    expectation needs only the marginal of |psi|^2 over the axes it
    touches, each in the representation the monomial is diagonal in;
    summed-out axes may be in either representation (Parseval).  The plan
    walks the fewest one-axis transforms from the base that meet every
    marginal and takes |psi|^2 once per representation that owes a
    marginal.  Every output is a weighted sum of one marginal, so each
    marginal (a key) holds the stacked weights that read it, with
    coefficient and cell volume folded in: a block of samples makes one
    reduction and one matrix product per key.
    """

    def __init__(self, spec: GridSpec, base: tuple, observers, boundary: bool):
        ndim = len(spec.axes)
        volume = spec.cell_volume
        self.n_edges = ndim if boundary else 0
        self.n_observers = len(observers)
        # a key ((axis, rep), ...) names the marginal over its axes; rows[key]
        # maps an output slot to its weights on that marginal.  Slots: the
        # squared norm, the edge mass per axis, each observer's value, then
        # each observer's imaginary residual.
        rows: dict[tuple, dict[int, np.ndarray]] = {}

        def add(key: tuple, slot: int, weight: np.ndarray) -> None:
            slots = rows.setdefault(key, {})
            slots[slot] = slots.get(slot, 0.0) + weight.ravel()

        for i in range(self.n_edges):
            edge = np.zeros(spec.shape[i])
            edge[:_BOUNDARY_CELLS] = edge[-_BOUNDARY_CELLS:] = volume
            add(((i, "pos"),), 1 + i, edge)
        first = 1 + self.n_edges
        for o, poly in enumerate(observers):
            for mono, coeff in poly.monomials():
                rep = _term_representation(spec, mono)
                key = tuple((i, r) for i, r in enumerate(rep) if r is not None)
                weight = _monomial_values(spec, mono, rep) * volume
                value, resid = first + o, first + self.n_observers + o
                for slot, c in ((value, coeff.real), (resid, coeff.imag)):
                    if c:
                        add(key, slot, float(c) * weight)
        norm_key = next(iter(rows), ())
        add(norm_key, 0, np.full(math.prod(spec.shape[i] for i, _ in norm_key), volume))

        keys = list(rows)
        path = _walk(tuple(base), keys)
        self.stops = []  # (axis, target) transform into the stop, [(drop, slots, weights)]
        for n, reps in enumerate(path):
            owed = [k for k in keys if _meets(reps, k)]
            keys = [k for k in keys if k not in owed]
            move = None
            if n:
                axis = next(i for i, r in enumerate(reps) if r != path[n - 1][i])
                move = (axis, reps[axis])
            reductions = []
            for key in owed:
                kept = {i for i, _ in key}
                drop = tuple(j + 1 for j in range(ndim) if j not in kept)  # axis 0: the block
                slots = rows[key]
                reductions.append((drop, np.array(list(slots)), np.stack(list(slots.values()))))
            self.stops.append((move, reductions))

    def measure_block(self, block: np.ndarray) -> np.ndarray:
        """One row per state of block (states on axis 0): the squared norm, the
        edge mass per axis, each observer's value, then each observer's
        imaginary residual.  block is scratch: it is transformed in place."""
        out = np.zeros((len(block), 1 + self.n_edges + 2 * self.n_observers))
        for move, reductions in self.stops:
            if move is not None:
                block = _transform_axis(block, move[0] + 1, move[1])
            if reductions:
                density = np.abs(block)
                np.square(density, out=density)
                for drop, slots, weights in reductions:
                    marginal = np.sum(density, axis=drop) if drop else density
                    out[:, slots] += marginal.reshape(len(block), -1) @ weights.T
                del density  # one density alive at a time
        return out

    def measure(self, arr: np.ndarray) -> np.ndarray:
        """measure_block's row for the one state arr, which is left as is."""
        return self.measure_block(arr[np.newaxis].copy())[0]


def grid_expectation(state: GridState, a: OperatorPolynomial) -> Expectation:
    """<psi|A|psi> for a representation-diagonal polynomial A.

    Evaluated monomial-wise: each term is diagonal in some mixed
    representation, where its expectation is a weighted quadrature of the
    marginal of |psi|^2 over the axes it touches.  Returns the real value
    with the imaginary residual.
    """
    base = ("pos",) * len(state.spec.axes)
    _, value, resid = _Sampler(state.spec, base, [a], boundary=False).measure(state.array)
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


_MAX_SAMPLES = 10**7


def sample_steps(t_final: float, dt: float, stride: int) -> tuple[np.ndarray, int]:
    """Sampled step indices and step count of a run of t_final in steps of dt.

    t_final must be a whole number of |dt| steps (the sign of dt is the
    direction of time).  Every `stride`-th step is sampled, and so are
    step 0 and the last step.  More than 10**7 samples is refused before
    any array is allocated.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    steps_float = t_final / abs(dt)
    steps = int(round(steps_float)) if math.isfinite(steps_float) else 0
    if steps < 1 or abs(steps_float - steps) > 1e-9:
        raise ValueError(
            f"t_final = {t_final} is not a positive whole number of dt = {dt} steps"
        )
    samples = steps // stride + 1 + (steps % stride != 0)
    if samples > _MAX_SAMPLES:
        raise ValueError(
            f"{steps} steps at stride {stride} make {samples} samples, "
            f"more than the cap of {_MAX_SAMPLES}"
        )
    marks = np.arange(0, steps + 1, stride)
    if marks[-1] != steps:
        marks = np.append(marks, steps)
    return marks, steps


_BLOCK_BYTES = 512 * 1024  # bytes of scratch states in one sample block


def _block_layout(state_bytes: int) -> tuple[int, int]:
    """(buffers, states per block): two blocks of what fits in _BLOCK_BYTES, or one state alone."""
    return (1, 1) if state_bytes > _BLOCK_BYTES else (2, _BLOCK_BYTES // state_bytes)


def _march(work: np.ndarray, plan: PropagatorPlan, marks: np.ndarray):
    """Step work in place, yielding (work, its representation) at each mark."""
    reps = ["pos"] * len(plan.spec.axes)
    # FSAL: a multi-group sequence opens and closes with the same dt/2
    # phase, so between samples one step's closing half and the next
    # step's opening half are applied together as one full-dt phase.
    sweep = [plan.groups[gi] for gi in plan.sequence]
    head = sweep[0]
    fsal = len(sweep) > 1
    fused = head.phase * head.phase if fsal else head.phase
    owed = False  # the closing half-phase of the previous step is pending

    yield work, tuple(reps)
    for start, mark in zip(marks[:-1].tolist(), marks[1:].tolist()):
        for _ in range(start, mark):
            work = _bring_to(work, reps, head.rep)
            work *= fused if owed else head.phase
            for group in sweep[1:-1]:
                work = _bring_to(work, reps, group.rep)
                work *= group.phase
            owed = fsal
        if owed:
            work = _bring_to(work, reps, head.rep)
            work *= head.phase
            owed = False
        yield work, tuple(reps)


def evolve(
    state: GridState,
    plan: PropagatorPlan,
    t_final: float,
    observers=(),
    *,
    stride: int = 1,
    boundary_check: bool = True,
) -> EvolutionResult:
    """Propagate for t_final, sampling observers every `stride` steps.

    The steps and sample points are those of `sample_steps(t_final,
    plan.dt, stride)`, which validates them: t_final must be a whole
    number of |dt| steps (the sign of the plan's dt sets the direction of
    time), and samples always include t = 0 and the final step.  Raises
    BoxOverflow if probability mass reaches the box edge at a sample
    point.  state.array is left untouched.  Samples are measured on a
    worker thread, which is joined before this returns or raises.
    """
    if state.spec is not plan.spec and state.spec != plan.spec:
        raise ValueError("state and plan use different grids")
    dt = plan.dt
    marks, _ = sample_steps(t_final, dt, stride)

    labeled = [(str(obs[0]), obs[1]) if isinstance(obs, tuple) else (f"obs{idx}", obs)
               for idx, obs in enumerate(observers)]
    polys = [poly for _, poly in labeled]

    spec = plan.spec
    first = 1 + (len(spec.axes) if boundary_check else 0)  # column of the first observer
    buffers, per_block = _block_layout(state.array.nbytes)
    scratch = np.empty((buffers, min(per_block, len(marks))) + spec.shape, dtype=complex)
    samplers: dict[tuple, _Sampler] = {}
    posted, finished = threading.Semaphore(0), threading.Semaphore(0)
    jobs: list = []  # (sampler, block) in the order posted; None ends the thread
    measured: list = []  # each block's rows, or the exception measuring it raised
    done, filled, base = 0, 0, None  # blocks checked; states in the block being filled

    def serve() -> None:  # the sampling thread: measures the posted blocks in order
        while posted.acquire() and jobs[len(measured)] is not None:
            sampler, block = jobs[len(measured)]
            try:
                measured.append(sampler.measure_block(block))
            except BaseException as exc:  # collect raises it again in the caller
                measured.append(exc)
            finished.release()

    def collect() -> None:  # wait for the oldest block in flight and check its rows
        nonlocal done
        finished.acquire()
        rows = measured[done]
        if isinstance(rows, BaseException):
            raise rows
        hit = np.argwhere(rows[:, 1:first] > _BOUNDARY_MASS_LIMIT)
        if len(hit):
            row, axis = hit[0]
            t = int(marks[sum(map(len, measured[:done])) + row]) * dt
            raise BoxOverflow(
                f"axis {spec.axes[axis].label!r} holds {rows[row, 1 + axis]:.3e} probability "
                f"mass within {_BOUNDARY_CELLS} cells of the boundary at t = {t:g}"
            )
        done += 1

    def submit() -> None:  # hand the block being filled to the sampling thread
        nonlocal filled
        jobs.append((samplers[base], scratch[len(jobs) % buffers, :filled]))
        posted.release()
        filled = 0

    worker = threading.Thread(target=serve, name="hybridlab-sampler", daemon=True)
    worker.start()
    try:
        for work, reps in _march(state.array.copy(), plan, marks):
            if filled and reps != base:
                submit()
            while not filled and len(jobs) - done >= buffers:  # its buffer is still in use
                collect()
            base = reps
            if base not in samplers:  # an observer the grid cannot sample fails here, at once
                samplers[base] = _Sampler(spec, base, polys, boundary_check)
            scratch[len(jobs) % buffers, filled] = work
            filled += 1
            if filled == scratch.shape[1]:
                submit()
        if filled:
            submit()
        while done < len(jobs):
            collect()
    finally:
        jobs.append(None)
        posted.release()
        worker.join()

    out = np.concatenate(measured)
    resid = first + len(polys)
    return EvolutionResult(
        times=marks * dt,
        labels=tuple(lbl for lbl, _ in labeled),
        values=out[:, first:resid].copy(),
        imag_residuals=np.abs(out[:, resid:]).max(axis=0),
        norms=np.sqrt(out[:, 0]),
        final_state=GridState(spec, _bring_to(work, list(reps), ("pos",) * len(spec.axes))),
    )


# ---------------------------------------------------------------------------
# Marginals and partial traces.
# ---------------------------------------------------------------------------


def marginal_density(state: GridState, keep) -> np.ndarray:
    """|psi|^2 integrated over the dropped axes.

    Returns a density over the kept axes (in grid order): it sums to 1
    after multiplying by the kept cell volume, and is pointwise >= 0.
    """
    if isinstance(keep, str):
        keep = (keep,)
    keep = tuple(keep)
    for label in keep:
        state.spec.index(label)  # raises UnknownAxis
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate axis in keep list")
    drop = tuple(
        i for i, label in enumerate(state.spec.labels) if label not in keep
    )
    density = state.density()
    if drop:
        dropped_volume = float(
            np.prod([state.spec.axes[i].spacing for i in drop])
        )
        density = np.sum(density, axis=drop) * dropped_volume
    return density


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

"""Wave-function evolution on a periodic grid by split-operator stepping.

The state is a complex amplitude array over up to three axes labeled x, y
(the classical phase plane) and q (the quantum coordinate).  Each axis
carries a conjugate momentum realized by the FFT: p for q, p_x for x, p_y
for y.  A quadratic generator whose monomials never need both
representations of one axis splits into groups of simultaneously diagonal
terms; evolution applies exact phase factors exp(-i * term * dt) per group
in a Strang-symmetric sweep, so each substep is exactly unitary.

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
one-axis transforms (on a scratch copy) that reach every needed marginal
and computes |psi|^2 once per representation on that walk; the norm and
the boundary edge masses come from the same marginals.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft
from scipy import ndimage

from .algebra import (
    GENERATOR_NAMES,
    GENERATORS,
    Monomial,
    OperatorPolynomial,
)
from .observables import Expectation
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
    "DensityMatrix",
    "EvolutionResult",
    "set_workers",
    "gaussian_state",
    "compile_splitting",
    "sample_steps",
    "evolve",
    "grid_expectation",
    "marginal_density",
    "reduced_quantum_density",
    "operator_matrix_1d",
    "characteristics_reference",
    "period_residual",
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
    """A monomial needs both representations of one axis (or is not
    a real-coefficient term, so its phase would not be unitary)."""


class UnknownAxis(Exception):
    """An axis label or generator has no axis in the grid."""


class BoxOverflow(Exception):
    """Probability mass reached the box boundary; the run is unreliable."""


_workers = 1


def set_workers(n: int) -> None:
    """Cap the FFT worker count; 1 (the default) is fully deterministic."""
    global _workers
    _workers = max(1, int(n))


def _env_workers() -> int:
    try:
        return max(1, int(os.environ.get("HYBRIDLAB_THREADS", "1")))
    except ValueError:
        return 1


set_workers(_env_workers())


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
    phase: np.ndarray  # exp(-i * V * sub_dt), broadcastable to the grid
    sub_dt: float
    terms: tuple


@dataclass(frozen=True)
class PropagatorPlan:
    """Strang-symmetric factorization of exp(-i K dt) into diagonal phases.

    Groups are ordered position-diagonal, then mixed, then
    momentum-diagonal; one full step applies all groups at dt/2, the last
    at dt, then the rest mirrored.  Applying the plan with dt and again
    with -dt undoes it to roundoff.
    """

    spec: GridSpec
    dt: float
    groups: tuple
    terms: tuple  # (monomial, coefficient, rep map) triples, for inspection

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
    all_terms: list = []

    ordered = sorted(k_op.terms.items(), key=lambda kv: kv[0].exponents, reverse=True)
    for mono, coeff in ordered:
        if not coeff.is_real:
            raise NonSplittableTerm(
                f"term {OperatorPolynomial({mono: coeff})} has a non-real "
                "coefficient; its split phase would not be unitary"
            )
        rep = _term_representation(spec, mono)
        entry = (mono, float(coeff.real), rep)
        all_terms.append(entry)
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
        groups.append(_PhaseGroup(rep, phase, sub_dt, tuple(terms)))
    return PropagatorPlan(spec, float(dt), tuple(groups), tuple(all_terms))


# ---------------------------------------------------------------------------
# Transform bookkeeping.
# ---------------------------------------------------------------------------


def _transform_axis(
    arr: np.ndarray, axis: int, target: str, overwrite: bool = False
) -> np.ndarray:
    if target == "mom":
        return _fft.fft(arr, axis=axis, norm="ortho", workers=_workers,
                        overwrite_x=overwrite)
    return _fft.ifft(arr, axis=axis, norm="ortho", workers=_workers,
                     overwrite_x=overwrite)


def _bring_to(arr: np.ndarray, reps: list, group_rep: tuple) -> np.ndarray:
    """Transform the engine's own buffer in place into group_rep."""
    for i, want in enumerate(group_rep):
        if want is not None and reps[i] != want:
            arr = _transform_axis(arr, i, want, overwrite=True)
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
    marginal, on a scratch copy, and takes |psi|^2 once per representation
    that owes a marginal.
    """

    def __init__(self, spec: GridSpec, base: tuple, observers, boundary: bool):
        self.spec = spec
        ndim = len(spec.axes)
        # a key ((axis, rep), ...) names the marginal over its axes
        self.edge_keys = [((i, "pos"),) for i in range(ndim)] if boundary else []
        self.terms = []  # per observer: [(key, weight, coeff)]
        for poly in observers:
            entries = []
            for mono, coeff in poly.monomials():
                rep = _term_representation(spec, mono)
                key = tuple((i, r) for i, r in enumerate(rep) if r is not None)
                entries.append((key, _monomial_values(spec, mono, rep), coeff))
            self.terms.append(entries)
        keys = list(dict.fromkeys(
            self.edge_keys + [key for entries in self.terms for key, _, _ in entries]
        )) or [()]
        self.norm_key = keys[0]
        path = _walk(tuple(base), keys)
        self.stops = []  # (axis, target) transform into the stop, keys it owes
        for n, reps in enumerate(path):
            owed = [k for k in keys if _meets(reps, k)]
            keys = [k for k in keys if k not in owed]
            move = None
            if n:
                axis = next(i for i, r in enumerate(reps) if r != path[n - 1][i])
                move = (axis, reps[axis])
            self.stops.append((move, owed))

    def measure(self, arr: np.ndarray):
        """(norm, edge mass per axis, Expectation per observer); arr is left as is."""
        ndim = len(self.spec.axes)
        marginals = {}
        for n, (move, owed) in enumerate(self.stops):
            if move is not None:
                # the first transform reads the caller's array: never overwrite it
                arr = _transform_axis(arr, *move, overwrite=n > 1)
            if owed:
                density = np.abs(arr) ** 2
                for key in owed:
                    kept = {i for i, _ in key}
                    drop = tuple(j for j in range(ndim) if j not in kept)
                    marginals[key] = np.sum(density, axis=drop, keepdims=True)
                del density  # one density alive at a time
        volume = self.spec.cell_volume
        norm = math.sqrt(float(np.sum(marginals[self.norm_key])) * volume)
        edges = []
        for key in self.edge_keys:
            m = marginals[key].ravel()
            edge = float(np.sum(m[:_BOUNDARY_CELLS]) + np.sum(m[-_BOUNDARY_CELLS:]))
            edges.append(edge * volume)
        values = []
        for entries in self.terms:
            value = 0.0
            resid = 0.0
            for key, weight, coeff in entries:
                base = float(np.sum(weight * marginals[key])) * volume
                value += float(coeff.real) * base
                resid += float(coeff.imag) * base
            values.append(Expectation(value, resid))
        return norm, edges, values


def grid_expectation(state: GridState, a: OperatorPolynomial) -> Expectation:
    """<psi|A|psi> for a representation-diagonal polynomial A.

    Evaluated monomial-wise: each term is diagonal in some mixed
    representation, where its expectation is a weighted quadrature of the
    marginal of |psi|^2 over the axes it touches.  Returns the real value
    with the imaginary residual.
    """
    base = ("pos",) * len(state.spec.axes)
    return _Sampler(state.spec, base, [a], boundary=False).measure(state.array)[2][0]


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


def sample_steps(t_final: float, dt: float, stride: int) -> tuple[np.ndarray, int]:
    """Sampled step indices and step count of a run of t_final in steps of dt.

    t_final must be a whole number of |dt| steps (the sign of dt is the
    direction of time).  Every `stride`-th step is sampled, and so are
    step 0 and the last step.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    steps_float = t_final / abs(dt)
    steps = int(round(steps_float)) if math.isfinite(steps_float) else 0
    if steps < 1 or abs(steps_float - steps) > 1e-9:
        raise ValueError(
            f"t_final = {t_final} is not a positive whole number of dt = {dt} steps"
        )
    marks = np.arange(0, steps + 1, stride)
    if marks[-1] != steps:
        marks = np.append(marks, steps)
    return marks, steps


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
    point.  state.array is left untouched.
    """
    if state.spec is not plan.spec and state.spec != plan.spec:
        raise ValueError("state and plan use different grids")
    dt = plan.dt
    marks, _ = sample_steps(t_final, dt, stride)

    labeled = []
    for idx, obs in enumerate(observers):
        if isinstance(obs, tuple):
            labeled.append((str(obs[0]), obs[1]))
        else:
            labeled.append((f"obs{idx}", obs))
    polys = [poly for _, poly in labeled]

    spec = plan.spec
    ndim = len(spec.axes)
    work = state.array.copy()
    reps = ["pos"] * ndim
    samplers: dict[tuple, _Sampler] = {}

    times: list[float] = []
    rows: list[list[float]] = []
    resid = np.zeros(len(labeled))
    norms: list[float] = []

    def sample(step: int) -> None:
        t = step * dt
        base = tuple(reps)
        if base not in samplers:
            samplers[base] = _Sampler(spec, base, polys, boundary_check)
        norm, edges, expectations = samplers[base].measure(work)
        for ax, edge in zip(spec.axes, edges):
            if edge > _BOUNDARY_MASS_LIMIT:
                raise BoxOverflow(
                    f"axis {ax.label!r} holds {edge:.3e} probability mass within "
                    f"{_BOUNDARY_CELLS} cells of the boundary at t = {t:g}"
                )
        norms.append(norm)
        for oi, e in enumerate(expectations):
            resid[oi] = max(resid[oi], abs(e.imag_residual))
        times.append(t)
        rows.append([e.value for e in expectations])

    # FSAL: a multi-group sequence opens and closes with the same dt/2
    # phase, so between samples one step's closing half and the next
    # step's opening half are applied together as one full-dt phase.
    sweep = [plan.groups[gi] for gi in plan.sequence]
    head = sweep[0]
    fsal = len(sweep) > 1
    fused = head.phase * head.phase if fsal else head.phase
    owed = False  # the closing half-phase of the previous step is pending

    sample(0)
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
        sample(mark)

    work = _bring_to(work, reps, ("pos",) * ndim)

    return EvolutionResult(
        times=np.array(times),
        labels=tuple(lbl for lbl, _ in labeled),
        values=np.array(rows) if rows else np.zeros((0, 0)),
        imag_residuals=resid,
        norms=np.array(norms),
        final_state=GridState(spec, work),
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


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced density matrix over one grid axis."""

    matrix: np.ndarray
    axis_label: str
    spacing: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > 1e-12:
            raise ValueError(f"hermiticity residual {herm:.2e} exceeds 1e-12")
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"trace {trace!r} deviates from 1 beyond 1e-10")
        min_eig = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))
        if min_eig < -1e-8:
            raise ValueError(f"negative eigenvalue {min_eig:.2e} below -1e-8")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal().real.copy()


def reduced_quantum_density(state: GridState) -> DensityMatrix:
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
    return DensityMatrix(rho, "q", state.spec.axes[qi].spacing)


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
        F = _fft.fft(np.eye(n), axis=0, norm="ortho")
        out = F.conj().T @ np.diag(axis.momenta() ** mom_exp) @ F
    if pos_exp:
        out = np.diag(axis.positions() ** pos_exp).astype(complex) @ out
    return out


# ---------------------------------------------------------------------------
# Classical reference solutions.
# ---------------------------------------------------------------------------


def _classical_velocity(h: OperatorPolynomial):
    """Vectorized (dx/dt, dy/dt) = (dh/dy, -dh/dx) from a polynomial h."""
    from .algebra import partial_derivative

    def as_callable(poly: OperatorPolynomial):
        terms = []
        for mono, coeff in poly.monomials():
            e = mono.exponents
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
    from .benchmark import classical_liouvillian

    steps = int(round(2.0 * np.pi / dt))
    plan = compile_splitting(classical_liouvillian(), spec, dt)
    psi0 = gaussian_state(spec, _PERIOD_MEANS, _PERIOD_WIDTHS)
    result = evolve(psi0, plan, steps * dt, stride=steps, boundary_check=False)
    diff = result.final_state.array - psi0.array
    return math.sqrt(float(np.sum(np.abs(diff) ** 2)) * spec.cell_volume)


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

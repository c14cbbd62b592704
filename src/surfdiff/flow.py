"""Semi-implicit time integrator for the fourth-order curve flow V = d^2 kappa / ds^2.

Each step solves, per component, a scalar equation for the normal velocity w.
Writing L for the discrete arc Laplacian on the current geometry and
kappa = -nu . L x for the position-based curvature, the linearization of
kappa around the updated positions gives

    (I + dt L^2 - dt L kappa^2) w = L kappa,    x_new = x + dt w nu.

Only the normal part of the motion comes from the PDE; mesh quality is kept
by resampling each component to uniform arc length through a periodic cubic
spline after every accepted step (tangential redistribution).  Steps are
rejected, and dt halved by the driver, when the update breaks embeddedness,
grows the length, or overdraws the area-drift budget; intersections that
persist at the smallest dt are reported as topology changes, never repaired.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    AreaDriftExceeded,
    CurveError,
    DtFloorReached,
    SelfIntersection,
    SingularSystem,
    StepRejected,
    TopologyChange,
)
from .geometry import (
    CurveGeometry,
    PolyCurve,
    build_geometry,
    cycle_arc,
    cycle_layout,
    d2ds2,
    dds,
    field_mean,
    integrate,
    read_curve_file,
    row_norms,
    write_curve_file,
)
from .poisson import PeriodicSpline, h_minus1_norm_sq, solve_cyclic_banded

DT_MIN_FACTOR = 2.0**-24
MAX_DT_GROWTH = 1.2                 # dt factor after ten consecutive accepted steps
REMESH_RATIO_BOUNDS = (0.5, 2.0)    # edge length over its component's mean, after a step


@dataclass
class FlowConfig:
    dt: float
    end_time: float
    area_drift_abort: float = 1e-3

    def __post_init__(self):
        for name in ("dt", "end_time", "area_drift_abort"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} {getattr(self, name)} is not a positive finite number")


@dataclass
class FlowState:
    curve: PolyCurve
    time: float
    step_index: int
    geometry: CurveGeometry
    normal_velocity: np.ndarray    # stacked, of the step that led here (see initial)

    @classmethod
    def initial(cls, curve: PolyCurve, time: float = 0.0, step_index: int = 0) -> "FlowState":
        """A state no step led to: its velocity is the PDE velocity
        d^2 kappa/ds^2 of its own geometry."""
        geom = build_geometry(curve)
        return cls(curve=curve, time=time, step_index=step_index, geometry=geom,
                   normal_velocity=d2ds2(geom, geom.kappa))

    # the totals are added one component at a time: np.sum pairs them from
    # 8 components on, which would move the sums the step's tests compare

    def length(self) -> float:
        return float(sum(self.geometry.length.tolist()))

    def area(self) -> float:
        return float(sum(self.geometry.area.tolist()))


def _normal_velocity(x: np.ndarray, nu: np.ndarray, h: np.ndarray, w: np.ndarray,
                     counts: tuple, dt: float) -> np.ndarray:
    """Solve (I + dt L (L - diag kappa^2)) w = L kappa for all components at once.

    The rows are the vertices of every component, stacked (positions, normals,
    edge lengths, weights; ``counts`` are the vertex counts, the key of their
    cached cycle layout).  L is the cyclic tridiagonal arc Laplacian of each
    component with row-aligned diagonals (lo, mid, up); its product with
    M = L - diag(kappa^2) is pentadiagonal, so the whole curve is one stacked
    cyclic banded solve.
    """
    nxt, prv = cycle_layout(tuple(counts))[:2]
    inv_h = 1.0 / h
    inv_hp = inv_h.take(prv)
    mid = -(inv_h + inv_hp) / w
    up = inv_h / w
    lo = inv_hp / w

    def lap(f):
        return lo * f.take(prv) + mid * f + up * f.take(nxt)

    # the row sums of np.sum(nu * L x, axis=1), which adds from +0.0
    kappa_pos = -(nu[:, 0] * lap(x[:, 0]) + nu[:, 1] * lap(x[:, 1]) + 0.0)
    m = mid - kappa_pos**2
    diags = np.array([
        lo * lo.take(prv),
        lo * (m.take(prv) + mid),
        lo * up.take(prv) + mid * m + up * lo.take(nxt),
        up * (mid + m.take(nxt)),
        up * up.take(nxt),
    ])
    diags *= dt
    diags[2] += 1.0
    return solve_cyclic_banded(diags, lap(kappa_pos), counts)


def _area_neutral_shift(x: np.ndarray, nu: np.ndarray, w: np.ndarray, counts: tuple,
                        dt: float) -> np.ndarray:
    """Constant normal shift per component making the step exactly area preserving.

    The shoelace area is quadratic in the vertices, so a move d changes a
    component's area by exactly B(x + d/2, d), with the symmetric form
    B(y, z) = 1/2 sum z[i] x (y[i+1] - y[i-1]).  For d = P + lam Q, with
    P = dt w nu and Q = -dt nu, that is c0 + c1 lam + c2 lam^2 with
    c0 = B(x + P/2, P), c1 = B(x + P, Q) and c2 = B(Q, Q)/2.  lam is the
    root nearest 0, -2 c0 / (c1 + sign(c1) sqrt(c1^2 - 4 c0 c2)) without
    cancellation; with no real root the vertex -c1 / (2 c2), with c1 = c2 =
    0 zero.  lam is O(dt |w|^2 h + h^2 |w|), a consistent perturbation of
    the velocity.
    """
    lay = cycle_layout(tuple(counts))
    # dt w times nu's (2, N) transpose: rows of N, not N rows of two
    p = (dt * w * nu.T).T
    q = -dt * nu

    def form(y, z):
        # take gathers rows several times faster than fancy indexing
        chord = y.take(lay.nxt, axis=0) - y.take(lay.prv, axis=0)
        return 0.5 * np.add.reduceat(z[:, 0] * chord[:, 1] - z[:, 1] * chord[:, 0],
                                     lay.first)

    c0, c1, c2 = form(x + 0.5 * p, p), form(x + p, q), 0.5 * form(q, q)
    disc = c1 * c1 - 4.0 * c0 * c2
    root = c1 + np.copysign(np.sqrt(np.abs(disc)), c1)
    lam = np.zeros(len(c0))
    np.divide(-2.0 * c0, root, out=lam, where=root != 0.0)
    np.divide(-0.5 * c1, c2, out=lam, where=disc < 0.0)
    return w - lam.take(lay.comp)


def _resample_uniform(x: np.ndarray, counts: tuple, passes: int = 1) -> np.ndarray:
    """Redistribute every component's vertices to uniform arc length.

    One periodic cubic spline through the stacked vertices, in chord length,
    is evaluated at equal arc fractions of each component.  One pass leaves
    an O(h^3) nonuniformity because the new chord lengths are measured on
    the new polygon; a few passes reach the fixed point, which the driver
    uses once for the initial datum.
    """
    counts = tuple(counts)
    lay = cycle_layout(counts)
    for _ in range(passes):
        knots, total = cycle_arc(row_norms(x.take(lay.nxt, axis=0) - x), lay)
        spline = PeriodicSpline(knots, total, counts, x)
        x = spline(lay.comp, total.take(lay.comp) * lay.local / lay.counts.take(lay.comp))
    return x


def step(state: FlowState, config: FlowConfig, dt: float | None = None) -> FlowState:
    """Advance one step of size dt (default config.dt); raises StepRejected.

    All components move in one stacked pass: one pentadiagonal solve, one
    area-neutral shift and one spline resampling, whose stacked vertices
    make the next curve as they are.
    """
    if dt is None:
        dt = config.dt
    geom = state.geometry
    lay, counts = geom.layout, state.curve.counts
    x, nu = geom.vertices, geom.nu
    try:
        w = _normal_velocity(x, nu, geom.edge_lengths, geom.weights, counts, dt)
        w = _area_neutral_shift(x, nu, w, counts, dt)
        new_curve = state.curve.with_vertices(
            _resample_uniform(x + (dt * w * nu.T).T, counts))
        new_geom = build_geometry(new_curve)
    except SelfIntersection as exc:
        raise StepRejected(f"self-intersection: {exc}") from exc
    except SingularSystem as exc:
        raise StepRejected(f"singular system: {exc}") from exc
    except (CurveError, ValueError) as exc:
        raise StepRejected(f"invalid geometry: {exc}") from exc

    ratios = new_geom.edge_lengths / (new_geom.length / lay.counts).take(lay.comp)
    if ratios.min() < REMESH_RATIO_BOUNDS[0] or ratios.max() > REMESH_RATIO_BOUNDS[1]:
        raise StepRejected("resampling left edge ratios out of bounds")

    new_state = FlowState(curve=new_curve, time=state.time + dt,
                          step_index=state.step_index + 1, geometry=new_geom,
                          normal_velocity=w)
    if new_state.length() > state.length() * (1.0 + 1e-13):
        raise StepRejected("length increased")

    area_old = state.area()
    budget = 0.05 * config.area_drift_abort * abs(area_old)
    if abs(new_state.area() - area_old) > budget:
        raise StepRejected("per-step area drift over budget")
    return new_state


@dataclass
class Trajectory:
    """Sample times and curves of a flow, linearly interpolated between samples.

    Vertices correspond index by index across samples; the per-step
    redistribution keeps every component at uniform arc-length fractions, so
    index correspondence is arc-fraction correspondence.  Samples may differ
    in their components (a weak run may change topology); ``curve_at``
    raises ``ValueError`` where it would blend two such samples.
    """

    times: np.ndarray
    curves: list[PolyCurve]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def curve_at(self, t: float) -> PolyCurve:
        times = self.times
        if len(times) == 1:
            return self.curves[0]
        t = float(np.clip(t, times[0], times[-1]))
        j = min(max(int(np.searchsorted(times, t, side="right") - 1), 0), len(times) - 2)
        t0, t1 = times[j], times[j + 1]
        lam = (t - t0) / (t1 - t0)
        if lam == 0.0 or lam == 1.0:
            return self.curves[j + int(lam)]
        a, b = self.curves[j], self.curves[j + 1]
        if a.counts != b.counts or not np.array_equal(a.orientations, b.orientations):
            raise ValueError(f"cannot blend the curves at t = {float(t0)!r} and "
                             f"t = {float(t1)!r}: their components differ in vertex counts "
                             f"or orientations")
        return a.with_vertices((1 - lam) * a.vertices + lam * b.vertices)


@dataclass
class FlowRun:
    states: list[FlowState]         # recorded states
    accepted: int
    rejected: int
    length_series: list[float]
    area_series: list[float]
    rejections: dict[str, int]      # rejection count per reason, up to its first ':'
    landings: list[tuple[FlowState, FlowState]]    # (before, after) of each output time's step

    @property
    def trajectory(self) -> Trajectory:
        return Trajectory(times=[s.time for s in self.states],
                          curves=[s.curve for s in self.states])


def run_flow(initial: PolyCurve, config: FlowConfig, sample_stride: int = 10,
             stop_condition=None, times=None) -> FlowRun:
    """Drive the flow to end_time with halving-on-rejection dt control.

    dt halves on StepRejected and regrows by MAX_DT_GROWTH after ten
    consecutive acceptances; each rejection is counted under its reason.  At
    the dt floor a persisting self-intersection is reported as
    TopologyChange, a persisting cumulative area drift as AreaDriftExceeded
    and any other persisting rejection as DtFloorReached.  The initial curve
    is redistributed to uniform arc length once, so that the per-step
    tangential redistribution starts from its own fixed point.  The run
    lands on end_time and on each output time (``times``, increasing in [0,
    end_time]): the step that would pass one ends on it, dt is kept, and the
    landed state's time is that time exactly.  With ``times`` it records
    exactly the states at those times and each landing step's (before,
    after) pair, else every ``sample_stride``-th state and the final one; a
    ``stop_condition`` ends the run at the first state it holds for, which
    is then recorded too.
    """
    if times is not None and not (np.all(np.diff(times) > 0.0) and 0.0 <= times[0]
                                  and times[-1] <= config.end_time):
        raise ValueError(f"output times {times} are not increasing in [0, {config.end_time}]")
    marks = set(map(float, () if times is None else times))
    initial = initial.with_vertices(
        _resample_uniform(initial.vertices, initial.counts, passes=4))
    state = FlowState.initial(initial)
    dt = config.dt
    dt_min = config.dt * DT_MIN_FACTOR
    samples = [state] if times is None or 0.0 in marks else []
    landings = []
    goals = sorted((marks | {config.end_time}) - {0.0})   # the times to land on
    accepted = rejected = 0
    rejections: dict[str, int] = {}
    streak = 0
    lengths, areas = [state.length()], [state.area()]
    area_start = areas[0]

    while goals:
        # land on the goal when a full step would reach it or stop a sliver short
        landing = state.time + dt >= goals[0] - 1e-9 * dt
        try:
            new_state = step(state, config, goals[0] - state.time if landing else dt)
            drift = abs(new_state.area() - area_start)
            if drift > config.area_drift_abort * abs(area_start):
                raise StepRejected("cumulative area drift exceeded configured bound")
        except StepRejected as exc:
            rejected += 1
            reason = exc.reason.partition(":")[0]
            rejections[reason] = rejections.get(reason, 0) + 1
            streak = 0
            dt *= 0.5
            if dt < dt_min:
                at = f"at the dt floor (t={state.time:.6g})"
                if reason == "self-intersection":
                    raise TopologyChange(f"intersection persists {at}") from exc
                if reason == "cumulative area drift exceeded configured bound":
                    raise AreaDriftExceeded(f"cumulative area drift {drift / abs(area_start):.6e}"
                                            f" exceeds the bound {config.area_drift_abort:.6e} "
                                            f"{at}") from exc
                raise DtFloorReached(f"step rejected {at}: {exc.reason}") from exc
            continue

        if landing:
            new_state.time = goals.pop(0)
            if new_state.time in marks:
                samples.append(new_state)
                landings.append((state, new_state))
        state = new_state
        accepted += 1
        streak += 1
        lengths.append(state.length())
        areas.append(state.area())
        if streak >= 10:
            dt *= MAX_DT_GROWTH
            streak = 0
        if times is None and state.step_index % sample_stride == 0:
            samples.append(state)
        if stop_condition is not None and stop_condition(state):
            break

    if (times is None or goals) and (not samples or samples[-1] is not state):
        samples.append(state)

    return FlowRun(states=samples, accepted=accepted, rejected=rejected,
                   length_series=lengths, area_series=areas, rejections=rejections,
                   landings=landings)


def make_reference(config: FlowConfig, initial: PolyCurve, times) -> Trajectory:
    """Run the flow at reference resolution and record it at the output times.

    The caller supplies the high-resolution initial curve (at least four
    times the resolution of any run that will be compared against it).
    Trajectories are numerically smooth in the sense of being
    resolution-tested, no regularity class is certified.
    """
    return run_flow(initial, config, times=times).trajectory


def dissipation_identity_residual(before: FlowState,
                                  after: FlowState) -> tuple[float, float]:
    """|dL/dt + int |d kappa/ds|^2| between two states of a run, and its half form.

    dL/dt is the difference quotient between the two states, which a run
    reports one accepted step apart (``FlowRun.landings``); the velocity
    term reads ``after``'s normal velocity, that of the step between them.
    The dissipation integrals are evaluated at the midpoint geometry.  The
    half form uses (1/2)(int |d kappa/ds|^2 + int |d phi_V/ds|^2) instead,
    which splits the rate between the curvature gradient and the velocity
    potential; the scenario runner reports both because the discrete scheme
    need not satisfy either sharply.  Returns (full, half).
    """
    dt = after.time - before.time
    if dt <= 0:
        raise ValueError("after must be later than before")
    mid = build_geometry(before.curve.with_vertices(
        0.5 * (before.geometry.vertices + after.geometry.vertices)))
    d_h = float(np.sum(integrate(mid, dds(mid, mid.kappa) ** 2)))
    v = after.normal_velocity
    d_v = h_minus1_norm_sq(mid, v - field_mean(mid, v)[mid.layout.comp])
    rate = (after.length() - before.length()) / dt
    return float(abs(rate + d_h)), float(abs(rate + 0.5 * (d_h + d_v)))


# ---------------------------------------------------------------------------
# trajectory export: one curve file per sample plus a CSV index
# ---------------------------------------------------------------------------

def export_trajectory(traj: Trajectory, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    index_path = os.path.join(directory, "index.csv")
    with open(index_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "filename"])
        for k, (t, curve) in enumerate(zip(traj.times, traj.curves)):
            name = f"curve_{k:05d}.txt"
            write_curve_file(curve, os.path.join(directory, name))
            writer.writerow([repr(float(t)), name])


def load_trajectory(directory) -> Trajectory:
    index_path = os.path.join(directory, "index.csv")
    times = []
    curves = []
    with open(index_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["t", "filename"]:
            raise ValueError(f"unrecognized trajectory index header: {header}")
        for row in reader:
            times.append(float(row[0]))
            curves.append(read_curve_file(os.path.join(directory, row[1])))
    if not times:
        raise ValueError(f"{index_path} lists no samples")
    return Trajectory(times=times, curves=curves)

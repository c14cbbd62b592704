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
    SelfIntersection,
    SingularSystem,
    StepRejected,
    TopologyChange,
)
from .geometry import (
    Component,
    GeometryCache,
    PolyCurve,
    VertexField,
    build_geometry,
    cycle_neighbours,
    d2ds2,
    dds,
    integrate,
    read_curve_file,
    write_curve_file,
)
from .poisson import PeriodicSpline, h_minus1_norm_sq, solve_cyclic_banded

DT_MIN_FACTOR = 2.0**-24


@dataclass
class FlowConfig:
    dt: float
    end_time: float
    max_dt_growth: float = 1.2
    remesh_ratio_bounds: tuple[float, float] = (0.5, 2.0)
    area_drift_abort: float = 1e-3

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not (1.0 <= self.max_dt_growth <= 1.2):
            raise ValueError("max_dt_growth must lie in [1.0, 1.2]")
        lo, hi = self.remesh_ratio_bounds
        if not (0.0 < lo < 1.0 < hi):
            raise ValueError("remesh_ratio_bounds must straddle 1")


@dataclass
class FlowState:
    curve: PolyCurve
    time: float
    step_index: int
    caches: list[GeometryCache]
    normal_velocity: list[VertexField] | None = None

    @classmethod
    def initial(cls, curve: PolyCurve) -> "FlowState":
        return cls(curve=curve, time=0.0, step_index=0, caches=build_geometry(curve))

    def length(self) -> float:
        return sum(c.length for c in self.caches)

    def area(self) -> float:
        return sum(c.area for c in self.caches)


def _normal_velocity(caches: list[GeometryCache], dt: float) -> np.ndarray:
    """Solve (I + dt L (L - diag kappa^2)) w = L kappa for all components at once.

    The rows are the vertices of every component, stacked.  L is the cyclic
    tridiagonal arc Laplacian of each component with row-aligned diagonals
    (lo, mid, up); its product with M = L - diag(kappa^2) is pentadiagonal,
    so the whole curve is one stacked cyclic banded solve.
    """
    lengths = [c.n for c in caches]
    nxt, prv = cycle_neighbours(lengths)
    x = np.vstack([c.vertices for c in caches])
    nu = np.vstack([c.nu for c in caches])
    h = np.concatenate([c.edge_lengths for c in caches])
    w = np.concatenate([c.weights for c in caches])
    mid = -(1.0 / h + 1.0 / h[prv]) / w
    up = (1.0 / h) / w
    lo = (1.0 / h[prv]) / w

    def lap(f):
        return lo * f[prv] + mid * f + up * f[nxt]

    kappa_pos = -np.sum(nu * np.column_stack([lap(x[:, 0]), lap(x[:, 1])]), axis=1)
    m = mid - kappa_pos**2
    diags = dt * np.array([
        lo * lo[prv],
        lo * (m[prv] + mid),
        lo * up[prv] + mid * m + up * lo[nxt],
        up * (mid + m[nxt]),
        up * up[nxt],
    ])
    diags[2] += 1.0
    return solve_cyclic_banded(diags, lap(kappa_pos), lengths)


def _area_neutral_shift(x: np.ndarray, nu: np.ndarray, w: np.ndarray, lengths,
                        dt: float) -> np.ndarray:
    """Constant normal shift per component making the step exactly area preserving.

    The shoelace area is a quadratic function of the vertex positions, so
    the displacement d = dt (w - lam) nu changes a component's area by
    exactly dt * gradA(midpoint) . d.  Solving gradA(x + d/2) . d = 0 for
    each component's scalar lam (Newton passes on an exactly quadratic
    function, all components together) removes the whole per-move drift.
    lam is O(dt |w|^2 h + h^2 |w|), a consistent perturbation of the velocity.
    """
    nxt, prv = cycle_neighbours(lengths)
    first = np.cumsum(lengths) - lengths
    comp = np.repeat(np.arange(len(first)), lengths)
    d0 = w[:, None] * nu
    lam = np.zeros(len(first))
    for _ in range(3):
        d = dt * (d0 - lam[comp][:, None] * nu)
        mid = x + 0.5 * d
        chord = mid[nxt] - mid[prv]
        grad = 0.5 * np.column_stack([-chord[:, 1], chord[:, 0]])
        f = np.add.reduceat(np.sum(grad * d, axis=1), first)
        # df/dlam = -dt * grad(mid).nu up to the midpoint feedback, which
        # the extra passes absorb
        denom = -dt * np.add.reduceat(np.sum(grad * nu, axis=1), first)
        live = denom != 0.0
        lam[live] -= f[live] / denom[live]
    return w - lam[comp]


def _resample_uniform(x: np.ndarray, lengths, passes: int = 1) -> np.ndarray:
    """Redistribute every component's vertices to uniform arc length.

    One periodic cubic spline through the stacked vertices, in chord length,
    is evaluated at equal arc fractions of each component.  One pass leaves
    an O(h^3) nonuniformity because the new chord lengths are measured on
    the new polygon; a few passes reach the fixed point, which the driver
    uses once for the initial datum.
    """
    lengths = np.asarray(lengths)
    nxt, _ = cycle_neighbours(lengths)
    first = np.cumsum(lengths) - lengths
    comp = np.repeat(np.arange(len(lengths)), lengths)
    local = np.arange(len(x)) - first[comp]
    for _ in range(passes):
        # arc length along all components laid end to end, less each start
        arc = np.cumsum(np.linalg.norm(x[nxt] - x, axis=1))
        base = np.r_[0.0, arc[first[1:] - 1]]
        total = arc[first + lengths - 1] - base
        knots = np.r_[0.0, arc[:-1]] - base[comp]
        spline = PeriodicSpline(knots, total, lengths, x)
        x = spline(comp, total[comp] * local / lengths[comp])
    return x


def step(state: FlowState, config: FlowConfig, dt: float | None = None) -> FlowState:
    """Advance one step of size dt (default config.dt); raises StepRejected.

    All components move in one stacked pass: one pentadiagonal solve, one
    area-neutral shift and one spline resampling.
    """
    if dt is None:
        dt = config.dt
    caches = state.caches
    lengths = [c.n for c in caches]
    x = state.curve.segments[0]
    nu = np.vstack([c.nu for c in caches])
    split = np.cumsum(lengths)[:-1]
    try:
        w = _normal_velocity(caches, dt)
        w = _area_neutral_shift(x, nu, w, lengths, dt)
        moved = _resample_uniform(x + dt * w[:, None] * nu, lengths)
        new_curve = PolyCurve([Component(v, c.orientation) for v, c
                               in zip(np.split(moved, split), state.curve.components)])
        new_caches = build_geometry(new_curve)
    except SelfIntersection as exc:
        raise StepRejected(f"self-intersection: {exc}") from exc
    except SingularSystem as exc:
        raise StepRejected(f"singular system: {exc}") from exc
    except (CurveError, ValueError) as exc:
        raise StepRejected(f"invalid geometry: {exc}") from exc

    lo, hi = config.remesh_ratio_bounds
    for cache in new_caches:
        ratios = cache.edge_lengths / np.mean(cache.edge_lengths)
        if ratios.min() < lo or ratios.max() > hi:
            raise StepRejected("resampling left edge ratios out of bounds")

    new_len = sum(c.length for c in new_caches)
    old_len = state.length()
    if new_len > old_len * (1.0 + 1e-13):
        raise StepRejected("length increased")

    area_new = sum(c.area for c in new_caches)
    area_old = state.area()
    budget = 0.05 * config.area_drift_abort * abs(area_old)
    if abs(area_new - area_old) > budget:
        raise StepRejected("per-step area drift over budget")

    return FlowState(
        curve=new_curve,
        time=state.time + dt,
        step_index=state.step_index + 1,
        caches=new_caches,
        normal_velocity=[VertexField(c.component_index, wk)
                         for c, wk in zip(caches, np.split(w, split))],
    )


@dataclass
class Trajectory:
    """Recorded flow states with linear interpolation between samples.

    Vertices correspond index by index across samples; the per-step
    redistribution keeps every component at uniform arc-length fractions, so
    index correspondence is arc-fraction correspondence.
    """

    times: np.ndarray
    curves: list[PolyCurve]
    kappa_fields: list[list[VertexField]]
    v_fields: list[list[VertexField]]
    area0: float = 0.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def _bracket(self, t: float):
        t = float(np.clip(t, self.times[0], self.times[-1]))
        j = int(np.searchsorted(self.times, t, side="right") - 1)
        j = min(max(j, 0), len(self.times) - 2) if len(self.times) > 1 else 0
        if len(self.times) == 1:
            return 0, 0, 0.0
        t0, t1 = self.times[j], self.times[j + 1]
        lam = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        return j, j + 1, lam

    def curve_at(self, t: float) -> PolyCurve:
        j0, j1, lam = self._bracket(t)
        if lam == 0.0:
            return self.curves[j0]
        comps = []
        for ca, cb in zip(self.curves[j0].components, self.curves[j1].components):
            comps.append(Component((1 - lam) * ca.vertices + lam * cb.vertices,
                                   ca.orientation))
        return PolyCurve(comps)

    def _interp_fields(self, bank, t):
        j0, j1, lam = self._bracket(t)
        out = []
        for fa, fb in zip(bank[j0], bank[j1] if lam > 0 else bank[j0]):
            vals = (1 - lam) * fa.values + lam * fb.values if lam > 0 else fa.values
            out.append(VertexField(fa.component_id, vals))
        return out

    def v_at(self, t: float) -> list[VertexField]:
        return self._interp_fields(self.v_fields, t)


@dataclass
class FlowRun:
    trajectory: Trajectory
    states: list[FlowState]
    final: FlowState
    accepted: int
    rejected: int
    length_series: list[float]
    area_series: list[float]
    rejections: dict[str, int]      # rejection count per reason, up to its first ':'


def run_flow(initial: PolyCurve, config: FlowConfig, sample_stride: int = 10,
             stop_condition=None, resample_initial: bool = True,
             max_samples: int | None = None) -> FlowRun:
    """Drive the flow to end_time with halving-on-rejection dt control.

    dt halves on StepRejected and regrows by max_dt_growth after ten
    consecutive acceptances; each rejection is counted under its reason.  At
    the dt floor a persisting self-intersection is reported as
    TopologyChange and a persisting cumulative area drift as
    AreaDriftExceeded.  The initial curve is redistributed to uniform arc
    length once, so that the per-step tangential redistribution starts from
    its own fixed point.  With ``max_samples`` the recorded states are
    thinned on the fly (stride doubling) to stay within bound.
    """
    if resample_initial:
        lengths = [c.n for c in initial.components]
        resampled = _resample_uniform(initial.segments[0], lengths, passes=4)
        initial = PolyCurve([Component(v, c.orientation) for v, c in zip(
            np.split(resampled, np.cumsum(lengths)[:-1]), initial.components)])
    state = FlowState.initial(initial)
    dt = config.dt
    dt_min = config.dt * DT_MIN_FACTOR
    samples = [state]
    accepted = rejected = 0
    rejections: dict[str, int] = {}
    streak = 0
    lengths = [state.length()]
    areas = [state.area()]
    area0 = state.area()
    stride = sample_stride

    while state.time < config.end_time - 1e-14 * config.end_time:
        dt_try = min(dt, config.end_time - state.time)
        try:
            new_state = step(state, config, dt_try)
            drift = abs(new_state.area() - area0)
            if drift > config.area_drift_abort * abs(area0):
                raise StepRejected("cumulative area drift exceeded configured bound")
        except StepRejected as exc:
            rejected += 1
            reason = exc.reason.partition(":")[0]
            rejections[reason] = rejections.get(reason, 0) + 1
            streak = 0
            dt *= 0.5
            if dt < dt_min:
                if reason == "self-intersection":
                    raise TopologyChange(
                        f"intersection persists at dt floor (t={state.time:.6g})"
                    ) from exc
                if reason == "cumulative area drift exceeded configured bound":
                    raise AreaDriftExceeded(
                        f"cumulative area drift {drift / abs(area0):.6e} exceeds the "
                        f"bound {config.area_drift_abort:.6e} at the dt floor "
                        f"(t={state.time:.6g})"
                    ) from exc
                raise
            continue

        state = new_state
        accepted += 1
        streak += 1
        lengths.append(state.length())
        areas.append(state.area())
        if streak >= 10:
            dt *= config.max_dt_growth
            streak = 0
        if state.step_index % stride == 0:
            samples.append(state)
            if max_samples is not None and len(samples) > 2 * max_samples:
                samples = samples[::2]
                stride *= 2
        if stop_condition is not None and stop_condition(state):
            break

    if samples[-1] is not state:
        samples.append(state)

    traj = Trajectory(
        times=np.array([s.time for s in samples]),
        curves=[s.curve for s in samples],
        kappa_fields=[[VertexField(c.component_index, c.kappa.copy())
                       for c in s.caches] for s in samples],
        v_fields=[_pde_velocity(s) for s in samples],
        area0=area0,
    )
    return FlowRun(trajectory=traj, states=samples, final=state,
                   accepted=accepted, rejected=rejected,
                   length_series=lengths, area_series=areas, rejections=rejections)


def _pde_velocity(state: FlowState) -> list[VertexField]:
    """Spatial normal velocity d^2 kappa/ds^2 evaluated on the state geometry."""
    return [VertexField(c.component_index, d2ds2(c, c.kappa)) for c in state.caches]


def make_reference(config: FlowConfig, initial: PolyCurve,
                   sample_stride: int = 10, stop_condition=None) -> Trajectory:
    """Run the flow at reference resolution and record the trajectory.

    The caller supplies the high-resolution initial curve (at least four
    times the resolution of any run that will be compared against it).
    Per-sample curvature and velocity fields ride along for the calibration
    and extension constructions; trajectories are numerically smooth in the
    sense of being resolution-tested, no regularity class is certified.
    """
    return run_flow(initial, config, sample_stride, stop_condition).trajectory


def dissipation_identity_residual(before: FlowState,
                                  after: FlowState) -> tuple[float, float]:
    """|dL/dt + int |d kappa/ds|^2| across one accepted step, and its half form.

    The dissipation integrals are evaluated at the midpoint geometry.  The
    half form uses (1/2)(int |d kappa/ds|^2 + int |d phi_V/ds|^2) instead,
    which splits the rate between the curvature gradient and the velocity
    potential; the scenario runner reports both because the discrete scheme
    need not satisfy either sharply.  Returns (full, half).
    """
    dt = after.time - before.time
    if dt <= 0:
        raise ValueError("states must be consecutive accepted steps")
    mid_comps = [Component(0.5 * (a.vertices + b.vertices), a.orientation)
                 for a, b in zip(before.curve.components, after.curve.components)]
    mid_caches = build_geometry(PolyCurve(mid_comps))
    d_h = sum(integrate(c, dds(c, c.kappa) ** 2) for c in mid_caches)
    d_v = 0.0
    if after.normal_velocity:
        centred = [VertexField(vf.component_id,
                               vf.values - integrate(cache, vf.values) / cache.length)
                   for cache, vf in zip(mid_caches, after.normal_velocity)]
        d_v = h_minus1_norm_sq(mid_caches, centred)
    rate = (after.length() - before.length()) / dt
    return float(abs(rate + d_h)), float(abs(rate + 0.5 * (d_h + d_v)))


def volume_drift(trajectory: Trajectory) -> float:
    """Max relative enclosed-area drift over the trajectory samples."""
    areas = np.array([sum(c.signed_area() for c in curve.components)
                      for curve in trajectory.curves])
    return float(np.max(np.abs(areas - areas[0])) / abs(areas[0]))


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
    states = [FlowState(curve=c, time=t, step_index=k,
                        caches=build_geometry(c))
              for k, (t, c) in enumerate(zip(times, curves))]
    return Trajectory(
        times=np.array(times),
        curves=curves,
        kappa_fields=[[VertexField(cc.component_index, cc.kappa.copy())
                       for cc in s.caches] for s in states],
        v_fields=[_pde_velocity(s) for s in states],
        area0=states[0].area() if states else 0.0,
    )

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
from scipy.interpolate import CubicSpline

from .errors import SelfIntersection, StepRejected, TopologyChange
from .geometry import (
    Component,
    GeometryCache,
    PolyCurve,
    VertexField,
    build_geometry,
    d2ds2,
    dds,
    integrate,
    read_curve_file,
    write_curve_file,
)
from .poisson import solve_cyclic_banded, velocity_potential

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


def _normal_velocity(cache: GeometryCache, dt: float) -> np.ndarray:
    """Solve (I + dt L (L - diag kappa^2)) w = L kappa as a cyclic banded system.

    L is the cyclic tridiagonal arc Laplacian with row-aligned diagonals
    (lo, mid, up); its product with M = L - diag(kappa^2) is pentadiagonal.
    """
    h = cache.edge_lengths
    hm = np.roll(h, 1)
    w = cache.weights
    mid = -(1.0 / h + 1.0 / hm) / w
    up = (1.0 / h) / w
    lo = (1.0 / hm) / w

    def lap(f):
        return lo * np.roll(f, 1) + mid * f + up * np.roll(f, -1)

    kappa_pos = -np.sum(cache.nu * np.column_stack([
        lap(cache.vertices[:, 0]), lap(cache.vertices[:, 1])]), axis=1)
    m = mid - kappa_pos**2
    diags = dt * np.array([
        lo * np.roll(lo, 1),
        lo * (np.roll(m, 1) + mid),
        lo * np.roll(up, 1) + mid * m + up * np.roll(lo, -1),
        up * (mid + np.roll(m, -1)),
        up * np.roll(up, -1),
    ])
    diags[2] += 1.0
    return solve_cyclic_banded(diags, lap(kappa_pos))


def _area_gradient(vertices: np.ndarray) -> np.ndarray:
    """Exact gradient of the shoelace area with respect to each vertex."""
    chord = np.roll(vertices, -1, axis=0) - np.roll(vertices, 1, axis=0)
    return 0.5 * np.column_stack([-chord[:, 1], chord[:, 0]])


def _area_neutral_shift(vertices: np.ndarray, nu: np.ndarray,
                        w: np.ndarray, dt: float) -> np.ndarray:
    """Constant normal shift making the step exactly area preserving.

    The shoelace area is a quadratic function of the vertex positions, so
    the displacement d = dt (w - lam) nu changes it by exactly
    dt * gradA(midpoint) . d.  Solving gradA(x + d/2) . d = 0 for the scalar
    lam (two Newton iterations on an exactly quadratic function) removes the
    whole per-move drift.  lam is O(dt |w|^2 h + h^2 |w|), a consistent
    perturbation of the velocity.
    """
    d0 = w[:, None] * nu
    lam = 0.0
    for _ in range(3):
        d = dt * (d0 - lam * nu)
        grad = _area_gradient(vertices + 0.5 * d)
        f = float(np.sum(grad * d))
        # df/dlam = -dt * grad(mid).nu up to the midpoint feedback, which
        # the extra passes absorb
        denom = -dt * float(np.sum(grad * nu))
        if denom == 0.0:
            break
        lam -= f / denom
    return w - lam


def _resample_uniform(vertices: np.ndarray, passes: int = 1) -> np.ndarray:
    """Redistribute vertices to uniform arc length via a periodic cubic spline.

    One pass leaves an O(h^3) nonuniformity because the new chord lengths are
    measured on the new polygon; a few passes reach the fixed point, which
    the driver uses once for the initial datum.
    """
    n = len(vertices)
    for _ in range(passes):
        closed = np.vstack([vertices, vertices[:1]])
        seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        spline = CubicSpline(s, closed, bc_type="periodic")
        vertices = spline(s[-1] * np.arange(n) / n)
    return vertices


def step(state: FlowState, config: FlowConfig, dt: float | None = None) -> FlowState:
    """Advance one step of size dt (default config.dt); raises StepRejected."""
    if dt is None:
        dt = config.dt
    new_components = []
    velocities = []
    try:
        for cache, comp in zip(state.caches, state.curve.components):
            w = _normal_velocity(cache, dt)
            w = _area_neutral_shift(cache.vertices, cache.nu, w, dt)
            moved = cache.vertices + dt * w[:, None] * cache.nu
            resampled = _resample_uniform(moved)
            new_components.append(Component(resampled, comp.orientation))
            velocities.append(VertexField(cache.component_index, w))
        new_curve = PolyCurve(new_components)
        new_caches = build_geometry(new_curve)
    except SelfIntersection as exc:
        raise StepRejected(f"self-intersection: {exc}") from exc
    except ValueError as exc:
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
        normal_velocity=velocities,
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


def run_flow(initial: PolyCurve, config: FlowConfig, sample_stride: int = 10,
             stop_condition=None, resample_initial: bool = True,
             max_samples: int | None = None) -> FlowRun:
    """Drive the flow to end_time with halving-on-rejection dt control.

    dt halves on StepRejected and regrows by max_dt_growth after ten
    consecutive acceptances.  A persisting self-intersection at the dt floor
    is reported as TopologyChange.  The initial curve is redistributed to
    uniform arc length once, so that the per-step tangential redistribution
    starts from its own fixed point.  With ``max_samples`` the recorded
    states are thinned on the fly (stride doubling) to stay within bound.
    """
    if resample_initial:
        initial = PolyCurve([Component(_resample_uniform(c.vertices, passes=4),
                                       c.orientation)
                             for c in initial.components])
    state = FlowState.initial(initial)
    dt = config.dt
    dt_min = config.dt * DT_MIN_FACTOR
    samples = [state]
    accepted = rejected = 0
    streak = 0
    lengths = [state.length()]
    areas = [state.area()]
    area0 = state.area()
    stride = sample_stride

    while state.time < config.end_time - 1e-14 * config.end_time:
        dt_try = min(dt, config.end_time - state.time)
        try:
            new_state = step(state, config, dt_try)
            if abs(new_state.area() - area0) > config.area_drift_abort * abs(area0):
                raise StepRejected("cumulative area drift exceeded configured bound")
        except StepRejected as exc:
            rejected += 1
            streak = 0
            dt *= 0.5
            if dt < dt_min:
                if "self-intersection" in exc.reason:
                    raise TopologyChange(
                        f"intersection persists at dt floor (t={state.time:.6g})"
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
                   length_series=lengths, area_series=areas)


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
    for cache, vf in zip(mid_caches, after.normal_velocity or []):
        vals = vf.values - integrate(cache, vf.values) / cache.length
        phi = velocity_potential(cache, VertexField(vf.component_id, vals))
        d_v += integrate(cache, dds(cache, phi.values) ** 2)
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

"""Per-component flow step: the reference the stacked ``flow.step`` is checked against.

Each component gets its own pentadiagonal solve, its own area-neutral shift
and its own periodic ``scipy.interpolate.CubicSpline`` resampling, one
component after another, on its slice of the state's ``CurveGeometry``.
``volume_drift`` measures a trajectory's area drift for the tests,
``fixed_dt_run`` takes ``flow.step`` at one dt where ``run_flow`` would grow
it, and ``flow_solve_gap`` checks the stacked band solve against a dense
solve.
Only the tests import this module.
"""

import numpy as np
from scipy.interpolate import CubicSpline

from surfdiff.flow import FlowConfig, FlowState, Trajectory, _normal_velocity, _resample_uniform
from surfdiff.flow import step as flow_step
from surfdiff.geometry import build_geometry
from surfdiff.poisson import solve_cyclic_banded

from geometry_oracle import parts


def normal_velocity(x, nu, h, w, dt):
    """Solve (I + dt L (L - diag kappa^2)) w = L kappa on one component."""
    hm = np.roll(h, 1)
    mid = -(1.0 / h + 1.0 / hm) / w
    up = (1.0 / h) / w
    lo = (1.0 / hm) / w

    def lap(f):
        return lo * np.roll(f, 1) + mid * f + up * np.roll(f, -1)

    kappa_pos = -np.sum(nu * np.column_stack([lap(x[:, 0]), lap(x[:, 1])]), axis=1)
    m = mid - kappa_pos**2
    diags = dt * np.array([
        lo * np.roll(lo, 1),
        lo * (np.roll(m, 1) + mid),
        lo * np.roll(up, 1) + mid * m + up * np.roll(lo, -1),
        up * (mid + np.roll(m, -1)),
        up * np.roll(up, -1),
    ])
    diags[2] += 1.0
    return solve_cyclic_banded(diags, lap(kappa_pos), [len(x)])


def area_neutral_shift(vertices, nu, w, dt):
    """The constant normal shift of one component making its move area neutral.

    Newton's method on the shoelace area change, run to its fixed point: it
    stops once an update is at most 1e-15 of max |w|, or after 50 passes.
    """
    d0 = w[:, None] * nu
    lam = 0.0
    for _ in range(50):
        d = dt * (d0 - lam * nu)
        mid = vertices + 0.5 * d
        chord = np.roll(mid, -1, axis=0) - np.roll(mid, 1, axis=0)
        grad = 0.5 * np.column_stack([-chord[:, 1], chord[:, 0]])
        f = float(np.sum(grad * d))
        denom = -dt * float(np.sum(grad * nu))
        if denom == 0.0:
            break
        update = f / denom
        lam -= update
        if abs(update) <= 1e-15 * np.max(np.abs(w)):
            break
    return w - lam


def resample_uniform(vertices, passes=1):
    """Uniform arc-length redistribution of one component through CubicSpline."""
    n = len(vertices)
    for _ in range(passes):
        closed = np.vstack([vertices, vertices[:1]])
        seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        spline = CubicSpline(s, closed, bc_type="periodic")
        vertices = spline(s[-1] * np.arange(n) / n)
    return vertices


def step(state, dt):
    """Per-component normal velocities and resampled vertices of one step."""
    geom = state.geometry
    velocities, vertices = [], []
    for part in parts(geom):
        x, nu = geom.vertices[part], geom.nu[part]
        w = normal_velocity(x, nu, geom.edge_lengths[part], geom.weights[part], dt)
        w = area_neutral_shift(x, nu, w, dt)
        velocities.append(w)
        vertices.append(resample_uniform(x + dt * w[:, None] * nu))
    return velocities, vertices


def volume_drift(trajectory):
    """Max relative enclosed-area drift over the trajectory samples."""
    areas = np.array([sum(build_geometry(curve).area) for curve in trajectory.curves])
    return float(np.max(np.abs(areas - areas[0])) / abs(areas[0]))


def fixed_dt_run(curve, dt, steps, sample_stride=1, area_drift_abort=1e-3):
    """``steps`` flow steps at one dt, from the curve redistributed as ``run_flow``
    starts it: every ``sample_stride``-th state as a Trajectory, with the area of
    every state.  A rejected step raises StepRejected."""
    config = FlowConfig(dt=dt, end_time=dt * steps, area_drift_abort=area_drift_abort)
    state = FlowState.initial(curve.with_vertices(
        _resample_uniform(curve.vertices, curve.counts, passes=4)))
    states, areas = [state], [state.area()]
    for k in range(1, steps + 1):
        state = flow_step(state, config)
        areas.append(state.area())
        if k % sample_stride == 0:
            states.append(state)
    return Trajectory([s.time for s in states], [s.curve for s in states]), areas


def flow_solve_gap(geom, dt):
    """Largest relative gap between the flow step's band solve and a dense solve."""
    lay = geom.layout
    banded = _normal_velocity(geom.vertices, geom.nu, geom.edge_lengths, geom.weights,
                              lay.counts, dt)
    worst = 0.0
    for part in parts(geom):
        n = part.stop - part.start
        h, w = geom.edge_lengths[part], geom.weights[part]
        hm = np.roll(h, 1)
        i = np.arange(n)
        lap = np.zeros((n, n))
        lap[i, (i + 1) % n] = 1.0 / (h * w)
        lap[i, i - 1] = 1.0 / (hm * w)
        lap[i, i] = -(1.0 / h + 1.0 / hm) / w
        kappa = -np.sum(geom.nu[part] * (lap @ geom.vertices[part]), axis=1)
        dense = np.linalg.solve(np.eye(n) + dt * lap @ (lap - np.diag(kappa**2)), lap @ kappa)
        worst = max(worst, float(np.max(np.abs(banded[part] - dense)) / np.max(np.abs(dense))))
    return worst

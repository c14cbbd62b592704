"""Per-component flow step: the reference the stacked ``flow.step`` is checked against.

Each component gets its own pentadiagonal solve, its own area-neutral shift
and its own periodic ``scipy.interpolate.CubicSpline`` resampling, one
component after another.  Only the tests import this module.
"""

import numpy as np
from scipy.interpolate import CubicSpline

from surfdiff.poisson import solve_cyclic_banded


def normal_velocity(cache, dt):
    """Solve (I + dt L (L - diag kappa^2)) w = L kappa on one component."""
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
    return solve_cyclic_banded(diags, lap(kappa_pos), [cache.n])


def area_neutral_shift(vertices, nu, w, dt):
    """The constant normal shift of one component making its move area neutral."""
    d0 = w[:, None] * nu
    lam = 0.0
    for _ in range(3):
        d = dt * (d0 - lam * nu)
        mid = vertices + 0.5 * d
        chord = np.roll(mid, -1, axis=0) - np.roll(mid, 1, axis=0)
        grad = 0.5 * np.column_stack([-chord[:, 1], chord[:, 0]])
        f = float(np.sum(grad * d))
        denom = -dt * float(np.sum(grad * nu))
        if denom == 0.0:
            break
        lam -= f / denom
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
    velocities, vertices = [], []
    for cache in state.caches:
        w = normal_velocity(cache, dt)
        w = area_neutral_shift(cache.vertices, cache.nu, w, dt)
        velocities.append(w)
        vertices.append(resample_uniform(cache.vertices + dt * w[:, None] * cache.nu))
    return velocities, vertices

"""Tube calibrations around a reference solution.

Builds the signed distance to a reference curve (analytic circles or a
polygonal trajectory sample), the C^2 cutoff profiles, and the derived
fields: the calibration vector xi, the truncated distance, the closest-point
projection, extended normals/curvatures, and the tangential derivative along
the reference.  Everything is evaluated pointwise and vectorized; objects
are immutable after construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroReach
from .geometry import CurveGeometry, CurveIndex, PolyCurve, build_geometry, d2ds2, integrate


# ---------------------------------------------------------------------------
# cutoff profiles
# ---------------------------------------------------------------------------

def _hermite_quintic(a, b, va, da, dda, vb, db, ddb):
    """Coefficients of the quintic matching value/slope/curvature at a and b."""
    m = np.zeros((6, 6))
    rhs = np.array([va, da, dda, vb, db, ddb], dtype=float)
    for row, (x, order) in enumerate([(a, 0), (a, 1), (a, 2), (b, 0), (b, 1), (b, 2)]):
        for k in range(6):
            if order == 0:
                m[row, k] = x**k
            elif order == 1:
                m[row, k] = k * x ** (k - 1) if k >= 1 else 0.0
            else:
                m[row, k] = k * (k - 1) * x ** (k - 2) if k >= 2 else 0.0
    return np.linalg.solve(m, rhs)


def _polyval(coeffs, x):
    out = np.zeros_like(x, dtype=float)
    for k in range(len(coeffs) - 1, -1, -1):
        out = out * x + coeffs[k]
    return out


def _polyder(coeffs):
    return np.array([k * coeffs[k] for k in range(1, len(coeffs))])


class CutoffProfile:
    """The three C^2 profiles driving the tube constructions.

    zeta: even, equals 1 - x^2 on [-delta/2, delta/2], quintic transition to
    0 at |x| = delta, zero beyond.  theta: odd truncation of the identity,
    x on [0, delta/2], quintic rise to delta at x = delta, constant beyond.
    eta: 1 on [-delta, delta], order-2 smoothstep down to 0 at |x| = 2 delta.
    """

    def __init__(self, delta: float):
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)
        a, b = 0.5 * delta, delta
        self._zc = _hermite_quintic(a, b, 1.0 - a * a, -2.0 * a, -2.0, 0.0, 0.0, 0.0)
        self._zc_d = _polyder(self._zc)
        self._tc = _hermite_quintic(a, b, a, 1.0, 0.0, b, 0.0, 0.0)
        self._check_shape()

    def zeta(self, s):
        s = np.abs(np.asarray(s, dtype=float))
        out = np.zeros_like(s)
        plateau = s <= 0.5 * self.delta
        out[plateau] = 1.0 - s[plateau] ** 2
        trans = (s > 0.5 * self.delta) & (s < self.delta)
        out[trans] = _polyval(self._zc, s[trans])
        return out

    def zeta_prime(self, s):
        s = np.asarray(s, dtype=float)
        sign = np.sign(s)
        sa = np.abs(s)
        out = np.zeros_like(sa)
        plateau = sa <= 0.5 * self.delta
        out[plateau] = -2.0 * sa[plateau]
        trans = (sa > 0.5 * self.delta) & (sa < self.delta)
        out[trans] = _polyval(self._zc_d, sa[trans])
        return sign * out

    def theta(self, s):
        s = np.asarray(s, dtype=float)
        sign = np.sign(s)
        sa = np.abs(s)
        out = np.where(sa <= 0.5 * self.delta, sa, self.delta)
        trans = (sa > 0.5 * self.delta) & (sa < self.delta)
        out = np.array(out)
        out[trans] = _polyval(self._tc, sa[trans])
        return sign * out

    def eta(self, s):
        sa = np.abs(np.asarray(s, dtype=float))
        u = np.clip((sa - self.delta) / self.delta, 0.0, 1.0)
        smooth = u**3 * (6.0 * u * u - 15.0 * u + 10.0)
        return 1.0 - smooth

    def _check_shape(self):
        """Numeric scan of the profile invariants over the transition zones."""
        d = self.delta
        s = np.linspace(0.0, d, 4001)
        z = self.zeta(s)
        if np.any(z < -1e-12) or np.any(z > 1.0 + 1e-12):
            raise ValueError("zeta escapes [0, 1]")
        if np.any(np.diff(z) > 1e-12 * d):
            raise ValueError("zeta transition is not monotone")
        # needed downstream: s^2 <= 1 - zeta on the whole support
        if np.any(1.0 - z - s**2 < -1e-12):
            raise ValueError("1 - zeta >= s^2 fails on the support")
        # |zeta'| <= c |s| with a finite c
        sp = s[1:]
        c = np.max(np.abs(self.zeta_prime(sp)) / sp)
        if not np.isfinite(c):
            raise ValueError("zeta' / s unbounded")
        self.zeta_prime_slope = float(c)
        th = self.theta(s)
        if np.any(np.diff(th) < -1e-12 * d):
            raise ValueError("theta is not monotone")


# ---------------------------------------------------------------------------
# reference geometries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircleSpec:
    center: tuple[float, float]
    radius: float
    orientation: int = 1


class AnalyticCircles:
    """Exact signed distance to a forest of circles (stationary reference)."""

    def __init__(self, circles: list[CircleSpec]):
        if not circles:
            raise ValueError("need at least one circle")
        self.circles = list(circles)
        self.stationary = True
        self._boundaries: dict[int, PolyCurve] = {}
        self._boundaries_lock = threading.Lock()

    def query(self, points: np.ndarray, t: float = 0.0):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        npts = len(points)
        dist_to_bdry = np.empty((npts, len(self.circles)))
        radial = np.empty((npts, len(self.circles)))
        for k, c in enumerate(self.circles):
            r = np.linalg.norm(points - np.asarray(c.center), axis=1)
            radial[:, k] = r
            dist_to_bdry[:, k] = np.abs(r - c.radius)
        nearest = np.argmin(dist_to_bdry, axis=1)
        d = dist_to_bdry[np.arange(npts), nearest]
        inside_count = np.zeros(npts, dtype=int)
        for k, c in enumerate(self.circles):
            inside_count += (radial[:, k] < c.radius).astype(int)
        s = np.where(inside_count % 2 == 1, -d, d)
        grad = np.zeros_like(points)
        foot = np.zeros_like(points)
        kappa_foot = np.zeros(npts)
        for k, c in enumerate(self.circles):
            sel = nearest == k
            if not np.any(sel):
                continue
            ctr = np.asarray(c.center)
            rel = points[sel] - ctr
            r = radial[sel, k]
            safe = r > 1e-14 * c.radius
            u = np.zeros_like(rel)
            u[safe] = rel[safe] / r[safe, None]
            u[~safe] = np.array([1.0, 0.0])
            foot[sel] = ctr + c.radius * u
            out_normal = c.orientation * u
            grad[sel] = out_normal
            kappa_foot[sel] = c.orientation / c.radius
        return s, grad, foot, kappa_foot

    def boundary_curve(self, t: float, n: int) -> PolyCurve:
        """The circles as n-gons; time-independent, so built once per n.

        Concurrent samples ask for the same n at once; the lock keeps them
        from each building it.
        """
        from .geometry import make_circle

        with self._boundaries_lock:
            if n not in self._boundaries:
                self._boundaries[n] = PolyCurve([make_circle(c.center, c.radius, n,
                                                             c.orientation)
                                                 for c in self.circles])
            return self._boundaries[n]

    def admissible_delta(self) -> float:
        reach = min(c.radius for c in self.circles)
        best = reach / 4.0
        for i in range(len(self.circles)):
            for j in range(i + 1, len(self.circles)):
                ci, cj = self.circles[i], self.circles[j]
                dcc = float(np.linalg.norm(np.asarray(ci.center) - np.asarray(cj.center)))
                if dcc >= ci.radius + cj.radius:
                    gap = dcc - ci.radius - cj.radius
                elif dcc + min(ci.radius, cj.radius) <= max(ci.radius, cj.radius):
                    gap = max(ci.radius, cj.radius) - dcc - min(ci.radius, cj.radius)
                else:
                    gap = 0.0
                if gap <= 0.0:
                    raise ZeroReach("circles touch or cross")
                best = min(best, gap / 4.0)
        return best


class PolygonReference:
    """Reference given by a trajectory of polygonal curves (or one static curve).

    Between trajectory samples the vertex positions are interpolated
    linearly; closest-point queries run against the interpolated polygon.
    """

    def __init__(self, trajectory=None, curve: PolyCurve | None = None):
        if (trajectory is None) == (curve is None):
            raise ValueError("pass exactly one of trajectory or curve")
        self.trajectory = trajectory
        self.static_curve = curve
        self.stationary = trajectory is None
        self._cache: dict[float, tuple] = {}

    def curve_at(self, t: float) -> PolyCurve:
        if self.static_curve is not None:
            return self.static_curve
        return self.trajectory.curve_at(t)

    def _state_at(self, t: float):
        """The geometry, index and PDE velocity at t, built once per time.

        Samples of one run are evaluated on several threads at once: the
        state is returned from a local, never re-read from the cache, which
        another thread may clear in between.
        """
        key = float(t)
        state = self._cache.get(key)
        if state is None:
            curve = self.curve_at(t)
            geom = build_geometry(curve)
            # spatial PDE velocity of the interpolated geometry; the discrete
            # second derivative has exactly zero weighted mean, which the
            # Neumann solvability check requires
            v = (d2ds2(geom, geom.kappa) if self.trajectory is not None
                 else np.zeros(len(geom.kappa)))
            state = (geom, CurveIndex(curve, geom), v)
            if len(self._cache) > 64:
                self._cache.clear()
            self._cache[key] = state
        return state

    def geometry_at(self, t: float) -> CurveGeometry:
        return self._state_at(t)[0]

    def velocity_at(self, t: float) -> np.ndarray:
        return self._state_at(t)[2]

    def query(self, points: np.ndarray, t: float = 0.0):
        geom, index, _ = self._state_at(t)
        s, grad, foot, seg, tpar = index.signed(points)
        return s, grad, foot, index.interpolate_vertex_field(geom.kappa, seg, tpar)

    def admissible_delta(self, nt: int = 9) -> float:
        if self.trajectory is None:
            times = [0.0]
        else:
            tt = self.trajectory.times
            times = np.linspace(tt[0], tt[-1], nt)
        best = np.inf
        for t in times:
            best = min(best, _admissible_delta_polygonal(self.geometry_at(t)))
        return float(best)


def _facing_self_gap(geom: CurveGeometry, k: int) -> float:
    """Min distance between curve points whose normals face along the chord.

    Operationalizes "self-distance between non-adjacent arcs": pairs are
    counted only if the connecting chord is nearly parallel to both normals,
    which singles out bottlenecks and ignores the trivially-near neighbours
    along component k.
    """
    length, n = geom.length[k], geom.layout.counts[k]
    step = max(1, n // 256)
    idx = geom.layout.first[k] + np.arange(0, n, step)
    vi = geom.vertices[idx]
    ni = geom.nu[idx]
    si = geom.arc_positions[idx]
    rel = vi[None, :, :] - vi[:, None, :]
    d = np.linalg.norm(rel, axis=-1)
    darc = np.abs(si[None, :] - si[:, None])
    darc = np.minimum(darc, length - darc)
    mean_h = length / n
    with np.errstate(invalid="ignore", divide="ignore"):
        u = rel / np.maximum(d, 1e-300)[..., None]
    a1 = np.abs(np.sum(u * ni[:, None, :], axis=-1))
    a2 = np.abs(np.sum(u * ni[None, :, :], axis=-1))
    facing = (a1 > 0.9) & (a2 > 0.9) & (darc > 8.0 * mean_h * step) & (d > 0)
    if not np.any(facing):
        return np.inf
    return float(d[facing].min())


def _admissible_delta_polygonal(geom: CurveGeometry) -> float:
    best = np.inf
    kmax = np.maximum.reduceat(np.abs(geom.kappa), geom.layout.first)
    for k in range(len(kmax)):
        reach = 1.0 / kmax[k] if kmax[k] > 0 else np.inf
        reach = min(reach, 0.5 * _facing_self_gap(geom, k))
        best = min(best, reach / 4.0)
    for i in range(len(kmax)):
        for j in range(i + 1, len(kmax)):
            gap = _polyline_gap(geom.curve, i, j)
            if gap <= 0.0:
                raise ZeroReach(f"components {i} and {j} touch")
            best = min(best, gap / 4.0)
    return best


def _polyline_gap(curve: PolyCurve, i: int, j: int) -> float:
    """Least vertex-to-edge distance between components i and j, both ways."""
    from .geometry import _point_segment_dist

    starts, ends, comp_of, _ = curve.segments
    a = slice(*np.searchsorted(comp_of, [i, i + 1]))
    b = slice(*np.searchsorted(comp_of, [j, j + 1]))
    d1 = _point_segment_dist(starts[a][:, None, :], starts[b][None, :, :],
                             ends[b][None, :, :]).min()
    d2 = _point_segment_dist(starts[b][:, None, :], starts[a][None, :, :],
                             ends[a][None, :, :]).min()
    return float(min(d1, d2))


# ---------------------------------------------------------------------------
# the calibration bundle
# ---------------------------------------------------------------------------

@dataclass
class PointwiseCheckReport:
    """Worst slacks of the pointwise tilt inequalities; violations are data."""

    checked: int
    skipped: int
    slack_normal: float        # 2(1 - nu.xi) - zeta |nu - nu*|^2
    slack_tangential: float    # 2(1 - nu.xi) - |tau . grad s|^2
    slack_derivative: float    # |grad u|^2 zeta |tau - tau*|^2 - zeta |du/ds - d u/ds*|^2
    slack_xi_product: float    # zeta(1 - zeta) - xi.(nu - xi)

    @property
    def worst(self) -> float:
        return min(self.slack_normal, self.slack_tangential,
                   self.slack_derivative, self.slack_xi_product)


@dataclass(frozen=True)
class TubeSample:
    """The tube fields at every vertex of one curve state, from one reference query.

    Stacked over the vertices of ``geometry``: the signed distance s, its
    gradient, xi = zeta(s) grad s and div xi; per component, the tilt
    integral int (1 - nu . xi), the component's share of the relative
    energy.  Every per-sample checker reads these instead of querying the
    reference again.
    """

    t: float
    geometry: CurveGeometry
    s: np.ndarray
    grad: np.ndarray
    xi: np.ndarray
    div_xi: np.ndarray
    tilt: np.ndarray = field(init=False)

    def __post_init__(self):
        tilt = integrate(self.geometry, 1.0 - np.sum(self.geometry.nu * self.xi, axis=1))
        for a in (self.s, self.grad, self.xi, self.div_xi, tilt):
            a.flags.writeable = False
        object.__setattr__(self, "tilt", tilt)


class Calibration:
    """Evaluator bundle for the tube fields around a reference solution."""

    def __init__(self, reference, delta: float | None = None):
        self.reference = reference
        dmax = reference.admissible_delta()
        if delta is None:
            delta = dmax
        if delta > dmax * (1.0 + 1e-12):
            raise ValueError(f"delta {delta} exceeds admissible bound {dmax}")
        self.delta = float(delta)
        self.delta_max = float(dmax)
        self.profile = CutoffProfile(self.delta)

    # -- raw distance fields ------------------------------------------------

    def sdist(self, points, t: float = 0.0):
        s, _, _, _ = self.reference.query(points, t)
        return s

    def query(self, points, t: float = 0.0):
        return self.reference.query(points, t)

    # -- tube fields ----------------------------------------------------------

    def _xi(self, s, grad):
        return self.profile.zeta(s)[:, None] * grad

    def _div_xi(self, s, kf):
        out = np.zeros(len(s))
        tube = np.abs(s) < self.delta
        level = kf[tube] / (1.0 + s[tube] * kf[tube])
        out[tube] = self.profile.zeta_prime(s[tube]) + self.profile.zeta(s[tube]) * level
        return out

    def sample(self, geom: CurveGeometry, t: float = 0.0) -> TubeSample:
        """The tube fields at the vertices of every component, from one query."""
        s, grad, _, kf = self.reference.query(geom.vertices, t)
        return TubeSample(t=float(t), geometry=geom, s=s, grad=grad,
                          xi=self._xi(s, grad), div_xi=self._div_xi(s, kf))

    def xi_at(self, points, t: float = 0.0):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        s, grad, _, _ = self.reference.query(points, t)
        return self._xi(s, grad)

    def vartheta_at(self, points, t: float = 0.0):
        return self.profile.theta(self.sdist(points, t))

    def nu_star_at(self, points, t: float = 0.0):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        s, grad, _, _ = self.reference.query(points, t)
        return self.profile.eta(s)[:, None] * grad

    def tau_star_at(self, points, t: float = 0.0):
        nu = self.nu_star_at(points, t)
        return np.column_stack([-nu[:, 1], nu[:, 0]])

    def proj(self, points, t: float = 0.0):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        s, grad, _, _ = self.reference.query(points, t)
        return points - s[:, None] * grad

    def div_xi(self, points, t: float = 0.0):
        """zeta'(s) |grad s|^2 + zeta(s) * Laplacian(s); zero outside the tube."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        s, _, _, kf = self.reference.query(points, t)
        return self._div_xi(s, kf)

    def d_sstar(self, func, points, t: float = 0.0, step: float | None = None):
        """Directional derivative along tau* by centered differences."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if step is None:
            step = 1e-5 * self.delta
        tau = self.tau_star_at(points, t)
        fp = np.asarray(func(points + step * tau))
        fm = np.asarray(func(points - step * tau))
        return (fp - fm) / (2.0 * step)

    def xi_grad_bound(self, t: float = 0.0) -> float:
        """sup |grad xi| over the tube, from the 1-d profile and curvature range.

        grad xi = zeta'(s) grad s (x) grad s + zeta(s) Hess s is symmetric with
        eigenvalues zeta'(s) and zeta(s) * kappa_level, so the spectral norm is
        their max, maximized over the tube.
        """
        if isinstance(self.reference, AnalyticCircles):
            kmax = max(abs(c.orientation / c.radius) for c in self.reference.circles)
        else:
            kmax = float(np.max(np.abs(self.reference.geometry_at(t).kappa)))
        grid = np.linspace(-self.delta, self.delta, 2001)
        zp = np.abs(self.profile.zeta_prime(grid))
        z = self.profile.zeta(grid)
        level = kmax / max(1e-12, 1.0 - self.delta * kmax)
        return float(max(np.max(zp), np.max(z) * level))

    # -- pointwise inequality checks -----------------------------------------

    def pointwise_tilt_check(self, sample: TubeSample,
                              test_functions=None) -> PointwiseCheckReport:
        """Evaluate the tilt inequalities at every vertex inside the 2 delta tube.

        ``test_functions`` is a list of (u, grad_u) callables on (n, 2) arrays
        used for the derivative-replacement inequality.
        """
        inside = np.abs(sample.s) < 2.0 * self.delta
        checked = int(np.sum(inside))
        worst = [np.inf] * 4
        if checked:
            geom = sample.geometry
            nu, tau = geom.nu[inside], geom.tau[inside]
            ss, gs = sample.s[inside], sample.grad[inside]
            zeta = self.profile.zeta(ss)
            nu_star = self.profile.eta(ss)[:, None] * gs
            tau_star = np.column_stack([-nu_star[:, 1], nu_star[:, 0]])
            xi = zeta[:, None] * gs
            rhs = 2.0 * (1.0 - np.sum(nu * xi, axis=1))
            worst[0] = float(np.min(rhs - zeta * np.sum((nu - nu_star) ** 2, axis=1)))
            worst[1] = float(np.min(rhs - np.sum(tau * gs, axis=1) ** 2))
            for _, grad_u in test_functions or ():
                gu = np.asarray(grad_u(geom.vertices[inside]))
                lhs3 = zeta * (np.sum(tau * gu, axis=1) - np.sum(tau_star * gu, axis=1)) ** 2
                rhs3 = np.sum(gu * gu, axis=1) * zeta * np.sum((tau - tau_star) ** 2, axis=1)
                worst[2] = min(worst[2], float(np.min(rhs3 - lhs3)))
            worst[3] = float(np.min(zeta * (1.0 - zeta) - np.sum(xi * (nu - xi), axis=1)))
        return PointwiseCheckReport(
            checked=checked,
            skipped=len(inside) - checked,
            slack_normal=worst[0],
            slack_tangential=worst[1],
            slack_derivative=worst[2],
            slack_xi_product=worst[3],
        )

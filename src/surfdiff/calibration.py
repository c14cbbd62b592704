"""Tube calibrations around a reference solution.

Builds the signed distance to a reference curve (analytic circles or a
polygonal trajectory sample), the C^2 cutoff profiles, and the derived
fields a run reads: the calibration vector xi and its divergence at the
vertices of a curve state, the truncated distance, and the pointwise tilt
inequalities.  Everything is evaluated pointwise and vectorized; objects
are immutable after construction.  The calibration also owns the velocity
extension B of the reference, built once per reference time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyder, polyint, polyval

from .errors import ZeroReach
from .extension import BField, build_B
from .geometry import (
    CurveGeometry,
    _segment_pairs_within,
    _segment_segment_dist,
    build_geometry,
    d2ds2,
    integrate,
    jordan_decompose,
    pair_blocks,
    row_norms,
)


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
        self._zc_d = polyder(self._zc)
        self._tc = _hermite_quintic(a, b, a, 1.0, 0.0, b, 0.0, 0.0)
        # antiderivatives of theta and r theta on the quintic piece, shifted
        # to continue r^2/2 and r^3/3 at delta/2
        self._m1c = polyint(self._tc)
        self._m1c[0] += 0.5 * a * a - polyval(a, self._m1c)
        self._m2c = polyint(np.concatenate([[0.0], self._tc]))
        self._m2c[0] += a**3 / 3.0 - polyval(a, self._m2c)
        self._check_shape()

    def zeta(self, s):
        s = np.abs(np.asarray(s, dtype=float))
        out = np.zeros_like(s)
        plateau = s <= 0.5 * self.delta
        out[plateau] = 1.0 - s[plateau] ** 2
        trans = (s > 0.5 * self.delta) & (s < self.delta)
        out[trans] = polyval(s[trans], self._zc)
        return out

    def zeta_prime(self, s):
        s = np.asarray(s, dtype=float)
        sign = np.sign(s)
        sa = np.abs(s)
        out = np.zeros_like(sa)
        plateau = sa <= 0.5 * self.delta
        out[plateau] = -2.0 * sa[plateau]
        trans = (sa > 0.5 * self.delta) & (sa < self.delta)
        out[trans] = polyval(sa[trans], self._zc_d)
        return sign * out

    def theta(self, s):
        s = np.asarray(s, dtype=float)
        sign = np.sign(s)
        sa = np.abs(s)
        out = np.where(sa <= 0.5 * self.delta, sa, self.delta)
        trans = (sa > 0.5 * self.delta) & (sa < self.delta)
        out = np.array(out)
        out[trans] = polyval(sa[trans], self._tc)
        return sign * out

    def theta_moments(self, s):
        """int_0^s theta(r) dr (even in s) and int_0^s r theta(r) dr (odd), in closed form."""
        s = np.asarray(s, dtype=float)
        d = self.delta
        u = np.abs(s)
        m1, m2 = np.array(0.5 * u * u), np.array(u**3 / 3.0)
        trans = (u > 0.5 * d) & (u < d)
        m1[trans] = polyval(u[trans], self._m1c)
        m2[trans] = polyval(u[trans], self._m2c)
        flat = u >= d
        m1[flat] = polyval(d, self._m1c) + d * (u[flat] - d)
        m2[flat] = polyval(d, self._m2c) + 0.5 * d * (u[flat] ** 2 - d * d)
        return m1, np.sign(s) * m2

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
        th = self.theta(s)
        if np.any(np.diff(th) < -1e-12 * d):
            raise ValueError("theta is not monotone")


# ---------------------------------------------------------------------------
# reference geometries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceLoops:
    """Per reference component, the data the bulk error's face term reads.

    ``point`` is a point on the loop and ``normal`` the unit grad s there;
    ``area`` is signed (positive counter-clockwise); ``kappa_integral`` is
    int kappa ds with the curvature the reference query returns; ``parent``
    names the tightest enclosing loop, -1 at the roots.
    """

    orientation: np.ndarray
    length: np.ndarray
    area: np.ndarray
    kappa_integral: np.ndarray
    parent: np.ndarray
    point: np.ndarray
    normal: np.ndarray


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

    def query(self, points: np.ndarray, t: float = 0.0):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        npts = len(points)
        dist_to_bdry = np.empty((npts, len(self.circles)))
        radial = np.empty((npts, len(self.circles)))
        for k, c in enumerate(self.circles):
            r = row_norms(points - np.asarray(c.center))
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

    def bisector_crossings(self, points: np.ndarray, a: np.ndarray, b: np.ndarray,
                           t: float = 0.0):
        """Circles have smooth tube fields: no segment needs cutting."""
        return np.zeros(0, dtype=np.intp), np.zeros(0)

    def loops(self, t: float = 0.0) -> ReferenceLoops:
        center = np.array([c.center for c in self.circles], dtype=float)
        r = np.array([c.radius for c in self.circles], dtype=float)
        o = np.array([c.orientation for c in self.circles], dtype=float)
        # inside[i, j]: circle i lies inside circle j
        inside = (np.linalg.norm(center[:, None] - center[None], axis=2) + r[:, None]
                  < r[None, :])
        parent = np.where(inside.any(axis=1),
                          np.argmin(np.where(inside, r[None, :], np.inf), axis=1), -1)
        return ReferenceLoops(orientation=o, length=2.0 * np.pi * r, area=o * np.pi * r * r,
                              kappa_integral=2.0 * np.pi * o, parent=parent,
                              point=center + r[:, None] * [1.0, 0.0],
                              normal=o[:, None] * [1.0, 0.0])

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


DELTA_SCAN_TIMES = 9    # times at which a moving reference's admissible delta is taken


class PolygonReference:
    """Reference given by a trajectory of polygonal curves.

    Between trajectory samples the vertex positions are interpolated
    linearly; closest-point queries run against the interpolated polygon.
    A trajectory of one sample is a stationary reference: its one curve at
    every time, with zero velocity.
    """

    def __init__(self, trajectory):
        self.trajectory = trajectory
        self.stationary = len(trajectory.times) == 1
        self._cache: dict[float, tuple] = {}

    def _state_at(self, t: float):
        """The geometry and PDE velocity at t, built once per time; a
        stationary reference has one state for every time."""
        key = 0.0 if self.stationary else float(t)
        state = self._cache.get(key)
        if state is None:
            geom = build_geometry(self.trajectory.curve_at(t))
            # spatial PDE velocity of the interpolated geometry; the discrete
            # second derivative has exactly zero weighted mean, which the
            # Neumann solvability check requires
            v = np.zeros(len(geom.kappa)) if self.stationary else d2ds2(geom, geom.kappa)
            state = (geom, v)
            if len(self._cache) > 64:
                self._cache.clear()
            self._cache[key] = state
        return state

    def geometry_at(self, t: float) -> CurveGeometry:
        return self._state_at(t)[0]

    def velocity_at(self, t: float) -> np.ndarray:
        return self._state_at(t)[1]

    def query(self, points: np.ndarray, t: float = 0.0):
        geom = self._state_at(t)[0]
        s, grad, foot, seg, tpar = geom.index.signed(points)
        return s, grad, foot, geom.index.interpolate_vertex_field(geom.kappa, seg, tpar)

    def bisector_crossings(self, points: np.ndarray, a: np.ndarray, b: np.ndarray,
                           t: float = 0.0):
        """Where the segments points[a] -> points[b] cross a corner's bisector at t.

        See :meth:`CurveIndex.bisector_crossings`: the tube fields jump
        there, so a quadrature along the segments cuts them at these
        parameters.
        """
        return self.geometry_at(t).index.bisector_crossings(points, a, b)

    def loops(self, t: float = 0.0) -> ReferenceLoops:
        geom = self.geometry_at(t)
        first = geom.layout.first
        return ReferenceLoops(
            orientation=geom.curve.orientations.astype(float),
            length=geom.length, area=geom.area, kappa_integral=integrate(geom, geom.kappa),
            parent=jordan_decompose(geom.curve), point=geom.vertices[first],
            normal=geom.nu[first])

    def admissible_delta(self) -> float:
        """The least polygonal bound at DELTA_SCAN_TIMES times spanning the
        trajectory, or at its one time."""
        tt = self.trajectory.times
        best = np.inf
        for t in np.linspace(tt[0], tt[-1], 1 if self.stationary else DELTA_SCAN_TIMES):
            best = min(best, _admissible_delta_polygonal(self.geometry_at(t)))
        return float(best)


def _facing_self_gap(geom: CurveGeometry, k: int) -> float:
    """Min distance between curve points whose normals face along the chord.

    Operationalizes "self-distance between non-adjacent arcs": pairs are
    counted only if the connecting chord is nearly parallel to both normals,
    which singles out bottlenecks and ignores the trivially-near neighbours
    along component k.  The pairs run in the row blocks of
    :func:`pair_blocks`, each entry's arithmetic its own, so the minimum
    over them is exact.
    """
    length, n = geom.length[k], geom.layout.counts[k]
    step = max(1, n // 256)
    idx = geom.layout.first[k] + np.arange(0, n, step)
    pts, (nx, ny), si = geom.vertices[idx], geom.nu[idx].T, geom.arc_positions[idx]
    near = 8.0 * (length / n) * step
    best = np.inf
    for rows, dx, dy, r2 in pair_blocks(pts, pts):
        # d and the unit chord overwrite the block's own arrays: three fewer
        # temporaries keep this kernel's working set in cache
        d = np.sqrt(r2, out=r2)
        darc = np.abs(si - si[rows, None])
        darc = np.minimum(darc, length - darc)
        dd = np.maximum(d, 1e-300)
        ux, uy = np.divide(dx, dd, out=dx), np.divide(dy, dd, out=dy)
        a1 = np.abs(ux * nx[rows, None] + uy * ny[rows, None])
        a2 = np.abs(ux * nx + uy * ny)
        facing = (a1 > 0.9) & (a2 > 0.9) & (darc > near) & (d > 0)
        if np.any(facing):
            best = min(best, d[facing].min())
    return float(best)


def _admissible_delta_polygonal(geom: CurveGeometry) -> float:
    """A quarter of the least of each loop's reach and the gaps between loops.

    Only a gap below four times the loops' own bound can decide, so one
    sort-and-sweep lists the segment pairs closer than that; the least
    distance of those that join two loops is the least vertex-to-edge gap.
    One loop has no such pairs, so it skips the sweep.  ``geometry_at`` ran
    :func:`check_embedded`, so no two loops touch.
    """
    best = np.inf
    kmax = np.maximum.reduceat(np.abs(geom.kappa), geom.layout.first)
    for k in range(len(kmax)):
        reach = 1.0 / kmax[k] if kmax[k] > 0 else np.inf
        reach = min(reach, 0.5 * _facing_self_gap(geom, k))
        best = min(best, reach / 4.0)
    if len(kmax) == 1:
        return best
    starts, ends, comp_of, _ = geom.curve.segments
    pi, pj = _segment_pairs_within(starts, ends, 4.0 * best)
    other = comp_of[pi] != comp_of[pj]
    pi, pj = pi[other], pj[other]
    if len(pi):
        best = min(best, _segment_segment_dist(starts[pi], ends[pi],
                                               starts[pj], ends[pj]).min() / 4.0)
    return best


# ---------------------------------------------------------------------------
# the calibration bundle
# ---------------------------------------------------------------------------

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
    """The calibration around a reference solution: the tube fields and B.

    xi and the other tube fields are evaluated pointwise from reference
    queries; the velocity extension B is built once per reference time.
    """

    def __init__(self, reference, delta: float | None = None):
        self.reference = reference
        dmax = reference.admissible_delta()
        if delta is None:
            delta = dmax
        if delta > dmax * (1.0 + 1e-12):
            raise ValueError(f"delta {delta} exceeds admissible bound {dmax}")
        self.delta = float(delta)
        self.profile = CutoffProfile(self.delta)
        self._b_fields: dict[float, BField] = {}

    def b_field(self, t: float) -> BField | None:
        """The velocity extension B at t, built once per time; None if stationary.

        Every run evaluated with this calibration at the same time shares the
        field.
        """
        if self.reference.stationary:
            return None
        key = round(float(t), 12)
        b = self._b_fields.get(key)
        if b is None:
            b = self._b_fields[key] = build_B(self.reference.geometry_at(t),
                                              self.reference.velocity_at(t), self.delta)
        return b

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

    def vartheta_at(self, points, t: float = 0.0):
        return self.profile.theta(self.reference.query(points, t)[0])

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

    def pointwise_tilt_check(self, sample: TubeSample) -> float:
        """The least slack of the tilt inequalities at the vertices inside the
        2 delta tube, inf when there are none.

        With nu* = eta(s) grad s and xi = zeta(s) grad s, the slacks are
        2(1 - nu.xi) - zeta |nu - nu*|^2, 2(1 - nu.xi) - |tau . grad s|^2
        and zeta(1 - zeta) - xi.(nu - xi).
        """
        inside = np.abs(sample.s) < 2.0 * self.delta
        if not inside.any():
            return np.inf
        geom = sample.geometry
        nu, tau = geom.nu[inside], geom.tau[inside]
        ss, gs = sample.s[inside], sample.grad[inside]
        zeta = self.profile.zeta(ss)
        nu_star = self.profile.eta(ss)[:, None] * gs
        xi = zeta[:, None] * gs
        rhs = 2.0 * (1.0 - np.sum(nu * xi, axis=1))
        return float(min(np.min(rhs - zeta * np.sum((nu - nu_star) ** 2, axis=1)),
                         np.min(rhs - np.sum(tau * gs, axis=1) ** 2),
                         np.min(zeta * (1.0 - zeta) - np.sum(xi * (nu - xi), axis=1))))

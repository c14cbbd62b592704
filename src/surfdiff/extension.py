"""Compactly supported velocity extension field for the reference evolution.

Given a reference curve and a zero-mean normal velocity per component, the
harmonic potential with that Neumann data is represented by a single-layer
density solved from the second-kind boundary integral equation (Nystrom
collocation, per-component mean constraints bordered in, assembled in place
in the one dense array, and solved by GMRES, whose step count does not grow
with the curve's resolution, so a build is O(n^2)); its pairwise kernels run
in real arithmetic over the cache-sized row blocks of
:func:`geometry.pair_blocks`.
The extension field B is that gradient on the closed reference region; outside
it continues by a second-order tube Taylor expansion of the interior trace,
damped to zero beyond twice the tube width.  The result is C^1 across the
boundary, has div B = 0 on the closed region and O(dist) outside, is
globally Lipschitz and compactly supported -- the properties the stability
estimates consume.  ``BField.at_and_div`` returns B and its exact divergence
in one pass; ``BField.divergence`` is a Richardson difference quotient of B
that cross-checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonZeroMean, RankDeficient
from .geometry import CurveGeometry, dds, field_mean, integrate, pair_blocks, row_norms
from .poisson import PeriodicSpline

# GMRES on the density system: the residual it stops at, relative to the
# right side's largest entry, and its step cap
GMRES_TOL = 1e-14
GMRES_MAX_ITER = 100


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (6.0 * u * u - 15.0 * u + 10.0)


def _smoothstep_slope(u):
    u = np.clip(u, 0.0, 1.0)
    return 30.0 * u * u * (1.0 - u) ** 2


def _arc_spline(geom: CurveGeometry, values) -> PeriodicSpline:
    """Periodic cubic interpolant in arc length of stacked per-vertex data."""
    return PeriodicSpline(geom.arc_positions, geom.length, geom.curve.counts, values)


@dataclass
class BField:
    """Velocity extension evaluator; immutable after build."""

    geometry: CurveGeometry
    density: np.ndarray
    mu: np.ndarray                   # per-component solvability constants
    fine_points: np.ndarray
    fine_charge: np.ndarray
    # boundary traces feeding the tube Taylor, one column each: g (the
    # tangential derivative of the potential), v (the prescribed normal
    # velocity), dg, dv, ddg, ddv, kappa, dkappa
    boundary: PeriodicSpline
    position: PeriodicSpline         # (x(s), y(s)) of every component
    delta: float
    support_radius: float            # reported R: the field vanishes beyond it
    near_cut: float                  # interior hand-off to the tube Taylor
    bc_residual: float = 0.0
    div_sup: float = 0.0
    sup_norm: float = 0.0
    lipschitz: float = 0.0

    # -- low-level evaluators -------------------------------------------------

    def _grad_potential(self, points):
        """Gradient of the single-layer sum over the upsampled quadrature.

        With sources w_j and c_j = -q_j / (2 pi), the gradient of
        sum_j c_j log|x - w_j| is sum_j c_j (x - w_j) / |x - w_j|^2.  Each row
        is reduced on its own (einsum, not a BLAS product), so a point's
        value does not depend on the other points of the call.
        """
        c = -self.fine_charge / (2.0 * np.pi)
        g = np.empty((len(points), 2))
        for rows, dx, dy, r2 in pair_blocks(points, self.fine_points):
            cr = c / r2
            g[rows, 0] = np.einsum("ij,ij->i", dx, cr)
            g[rows, 1] = np.einsum("ij,ij->i", dy, cr)
        return g

    @cached_property
    def _cull_box(self):
        """Bounds of the reference vertices inflated by 2.5 delta.

        A point outside lies more than 2.5 delta outside the reference
        region, where the damped tube field is exactly zero, so B and div B
        vanish there without a closest-segment query.
        """
        vertices = self.geometry.vertices
        pad = 2.5 * self.delta
        return vertices.min(axis=0) - pad, vertices.max(axis=0) + pad

    def _foot_arc_raw(self, seg, tpar):
        return self.geometry.arc_positions[seg] + tpar * self.geometry.edge_lengths[seg]

    def smooth_foot(self, points, seg, tpar):
        """Newton-refined closest point on the position splines.

        The polygon's closest-point map has flat spots in the vertex normal
        fans; projecting onto the interpolating spline removes them, which
        matters wherever the tube expansion or its arc derivative is used.
        ``seg`` and ``tpar`` give each point's polygon foot.  Returns
        (signed distance, foot arc, component id, tau, nu).
        """
        points = np.atleast_2d(points)
        a = self._foot_arc_raw(seg, tpar)
        comp = self.geometry.index.seg_comp[seg]
        pos = self.position
        for _ in range(4):
            (gx, gy), (dx, dy), (ddx, ddy) = (pos(comp, a, k).T for k in (0, 1, 2))
            rx, ry = gx - points[:, 0], gy - points[:, 1]
            f = rx * dx + ry * dy
            fp = dx * dx + dy * dy + rx * ddx + ry * ddy
            a = a - f / np.where(np.abs(fp) < 1e-300, 1e-300, fp)
        a = np.mod(a, pos.period[comp])
        g, d = pos(comp, a), pos(comp, a, 1)
        tau = d / np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])[:, None]
        nu = np.column_stack([tau[:, 1], -tau[:, 0]])
        return np.sum((points - g) * nu, axis=1), a, comp, tau, nu

    def _tube_taylor(self, s, arc, comp, tau, nu, div: bool):
        """Second-order normal Taylor expansion of the interior field.

        The coefficients follow from differentiating the harmonic equation in
        tube coordinates, so the expansion has zero divergence at the
        boundary and O(s) divergence beyond.  Returns the field and, with
        ``div`` (else None), its divergence in those coordinates,
        (d_a bt / |gamma'| + d_s((1 + K s) bn)) / (1 + K s), with the speed
        |gamma'| and the curvature K of the position spline the foot lies on.
        """
        g, v, dg, dv, ddg, ddv, kap, dkap = self.boundary(comp, arc).T
        bt = (g + s * (dv - kap * g)
              + s**2 * (kap**2 * g - kap * dv + 0.5 * (-dkap * v - kap * dv - ddg)))
        bn = (v + s * (-kap * v - dg)
              + 0.5 * s**2 * (2.0 * kap**2 * v + 3.0 * kap * dg + dkap * g - ddv))
        vals = bt[:, None] * tau + bn[:, None] * nu
        if not div:
            return vals, None
        g1, v1, dg1, dv1, ddg1, _, kap1, dkap1 = self.boundary(comp, arc, 1).T
        da_bt = (g1 + s * (dv1 - kap1 * g - kap * g1)
                 + s**2 * (2.0 * kap * kap1 * g + kap**2 * g1 - kap1 * dv - kap * dv1
                           + 0.5 * (-dkap1 * v - dkap * v1 - kap1 * dv - kap * dv1
                                    - ddg1)))
        ds_bn = -kap * v - dg + s * (2.0 * kap**2 * v + 3.0 * kap * dg + dkap * g - ddv)
        d, dd = self.position(comp, arc, 1), self.position(comp, arc, 2)
        speed = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
        curv = (d[:, 0] * dd[:, 1] - d[:, 1] * dd[:, 0]) / speed**3
        return vals, (da_bt / speed + curv * bn) / (1.0 + curv * s) + ds_bn

    def at(self, points) -> np.ndarray:
        """Evaluate B; zero outside the support."""
        return self._evaluate(points, div=False)[0]

    def at_and_div(self, points) -> tuple[np.ndarray, np.ndarray]:
        """B and its exact divergence in one pass.

        The far field is harmonic, so it adds no divergence; the tube Taylor
        field adds its closed form, and each blend weight w(s) adds
        w'(s) nu . (difference of the two fields it blends), since grad s = nu
        in the tube.
        """
        return self._evaluate(points, div=True)

    def _evaluate(self, points, div: bool):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros_like(points)
        div_out = np.zeros(len(points)) if div else None
        lo, hi = self._cull_box
        live = np.all((points > lo) & (points < hi), axis=1)
        if not np.any(live):
            return out, div_out
        pts = points[live]
        s0, _, _, seg, tpar = self.geometry.index.signed(pts)
        vals = np.zeros_like(pts)
        divs = np.zeros(len(pts))
        # the smooth foot covers the damping band and the interior blend
        band = np.abs(s0) < max(2.5 * self.delta, 2.0 * self.near_cut)
        s = np.array(s0)
        arc = np.zeros(len(pts))
        comp = np.zeros(len(pts), dtype=int)
        tau = np.zeros_like(pts)
        nu = np.zeros_like(pts)
        if np.any(band):
            s[band], arc[band], comp[band], tau[band], nu[band] = self.smooth_foot(
                pts[band], seg[band], tpar[band])

        def taylor(sel):
            return self._tube_taylor(s[sel], arc[sel], comp[sel], tau[sel], nu[sel], div)

        outside = s >= 0.0
        damp = np.zeros(len(pts))
        osel = outside & band
        if np.any(osel):
            u = (s[osel] - self.delta) / self.delta
            damp[osel] = 1.0 - _smoothstep(u)
            act = osel & (damp > 0.0)
            if np.any(act):
                tt, tdiv = taylor(act)
                vals[act] = damp[act][:, None] * tt
                if div:
                    slope = -_smoothstep_slope(u[act[osel]]) / self.delta
                    divs[act] = damp[act] * tdiv + slope * np.sum(nu[act] * tt, axis=1)

        inside = ~outside
        if np.any(inside):
            w_far = np.ones(len(pts))
            u = (-s[inside] - self.near_cut) / self.near_cut
            w_far[inside] = _smoothstep(u)
            near = inside & (w_far < 1.0)
            if np.any(near):
                tt, tdiv = taylor(near)
                vals[near] += (1.0 - w_far[near])[:, None] * tt
                if div:
                    divs[near] = (1.0 - w_far[near]) * tdiv
            far = inside & (w_far > 0.0)
            if np.any(far):
                gg = self._grad_potential(pts[far])
                vals[far] += w_far[far][:, None] * gg
            # w_far varies only where it blends both fields
            blend = near & far
            if div and np.any(blend):
                slope = -_smoothstep_slope(u[blend[inside]]) / self.near_cut
                diff = gg[blend[far]] - tt[blend[near]]
                divs[blend] += slope * np.sum(nu[blend] * diff, axis=1)
        out[live] = vals
        if div:
            div_out[live] = divs
        return out, div_out

    def divergence(self, points, h: float | None = None) -> np.ndarray:
        """Richardson-extrapolated central-difference divergence of B."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if h is None:
            h = 2e-4 * max(self.delta / 0.25, 0.05)

        def div_fd(hh):
            ex = np.array([hh, 0.0])
            ey = np.array([0.0, hh])
            bx = self.at(points + ex)[:, 0] - self.at(points - ex)[:, 0]
            by = self.at(points + ey)[:, 1] - self.at(points - ey)[:, 1]
            return (bx + by) / (2.0 * hh)

        return (4.0 * div_fd(0.5 * h) - div_fd(h)) / 3.0


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _neumann_system(geom: CurveGeometry, a) -> None:
    """Fill the (n, n) array ``a`` with the Nystrom matrix of the second-kind equation.

    Off the diagonal the kernel is -nu_i . (x_i - x_j) / (2 pi |x_i - x_j|^2)
    times w_j; the diagonal holds the jump 1/2 plus the kernel's curvature
    limit.  Each pair block is a run of source columns j, written as a row
    block of ``a.T``, which is contiguous where ``a`` is Fortran-ordered.  It
    forms x_j - x_i and +w_j, whose sign flips are exact: every entry is bit
    for bit the kernel above.
    """
    nodes, weights = geom.vertices, geom.weights
    nx, ny = np.ascontiguousarray(geom.nu.T)
    at = a.T
    cw = weights / (2.0 * np.pi)
    for cols, dx, dy, r2 in pair_blocks(nodes, nodes):
        np.fill_diagonal(r2[:, cols], 1.0)
        at[cols] = (nx * dx + ny * dy) / r2 * cw[cols, None]
    np.fill_diagonal(a, 0.5 - weights * geom.kappa / (4.0 * np.pi))


def _bordered_system(geom: CurveGeometry) -> np.ndarray:
    """The Fortran-ordered (n + K, n + K) density system: the Nystrom block
    assembled in place, bordered by a column of ones and a row of node weights
    per component (the mean constraints)."""
    m = len(geom.weights)
    rows = np.arange(m)
    border = m + geom.layout.comp
    sys = np.zeros((m + len(geom.length),) * 2, order="F")
    _neumann_system(geom, sys[:m, :m])
    sys[rows, border] = 1.0
    sys[border, rows] = geom.weights
    return sys


def _gmres(a, b):
    """Solve ``a x = b`` by GMRES from x = 0; returns x and the step count.

    The Krylov basis is held as rows, so each of the two classical
    Gram-Schmidt passes is one matrix-vector product each way.  Givens
    rotations keep the small Hessenberg matrix triangular and leave the
    residual's 2-norm, which bounds its largest entry, in ``g[j + 1]``; the
    iteration stops once that is at most ``GMRES_TOL`` times b's largest
    entry.  A step that does not lower it (a stall), a zero Arnoldi vector
    on a singular Hessenberg matrix, or ``GMRES_MAX_ITER`` steps raise
    RankDeficient.  The rotations run in Python floats and divide only by
    a norm checked to be non-zero, so no step makes a floating-point warning.
    """
    beta = float(np.sqrt(b @ b))
    if beta == 0.0:
        return np.zeros_like(b), 0
    b_sup = float(np.max(np.abs(b)))
    basis = np.empty((GMRES_MAX_ITER + 1, len(b)))
    basis[0] = b / beta
    tri = np.zeros((GMRES_MAX_ITER, GMRES_MAX_ITER))
    rot = []
    g = [beta]
    for j in range(GMRES_MAX_ITER):
        v = basis[:j + 1]
        w = a @ v[j]
        h = v @ w
        w -= h @ v
        h2 = v @ w
        w -= h2 @ v
        col = (h + h2).tolist()
        hn = float(np.sqrt(w @ w))
        for i, (c, s) in enumerate(rot):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        d = math.hypot(col[j], hn)
        if d == 0.0:
            raise RankDeficient("boundary integral system singular: zero Arnoldi vector "
                                f"at GMRES step {j + 1}")
        c, s = col[j] / d, hn / d
        col[j] = d
        tri[:j + 1, j] = col
        rot.append((c, s))
        g.append(-s * g[j])
        g[j] *= c
        if abs(g[j + 1]) <= GMRES_TOL * b_sup:
            break
        if s >= 1.0:
            raise RankDeficient("boundary integral system singular: GMRES stalled at "
                                f"step {j + 1}, residual {abs(g[j + 1]) / b_sup:.1e} |b|")
        basis[j + 1] = w / hn
    else:
        raise RankDeficient("boundary integral system singular: GMRES residual "
                            f"{abs(g[-1]) / b_sup:.1e} |b| at the step cap {GMRES_MAX_ITER}")
    k = j + 1
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - tri[i, i + 1:k] @ y[i + 1:]) / tri[i, i]
    return y @ basis[:k], k


def _solve_density(geom: CurveGeometry, v_star):
    """The density and per-component constants: GMRES on the bordered system,
    so a solve holds one dense matrix, copies none and factors none."""
    sys = _bordered_system(geom)
    m = len(geom.weights)
    rhs = np.zeros(len(sys))
    rhs[:m] = v_star
    sol, _ = _gmres(sys, rhs)
    if not np.all(np.isfinite(sol)):
        raise RankDeficient("boundary integral solve produced non-finite density")
    return sol[:m], sol[m:]


def _surface_potential(geom: CurveGeometry, q) -> np.ndarray:
    """Single-layer potential -1/(2 pi) int log|x - y| q(y) dy at every node.

    Off the diagonal the trapezoid rule sums log|x_i - x_j| w_j q_j.  On the
    diagonal the kernel is log of the arc distance to leading order, and its
    integral over the node's own panel, two half edges of length w_i / 2, is
    analytic.
    """
    nodes, weights = geom.vertices, geom.weights
    phi = np.empty(len(nodes))
    for rows, _, _, r2 in pair_blocks(nodes, nodes):
        np.fill_diagonal(r2[:, rows], 1.0)
        phi[rows] = 0.5 * np.log(r2) @ (weights * q)
    half = 0.5 * weights
    phi += 2.0 * half * (np.log(half) - 1.0) * q
    return -phi / (2.0 * np.pi)


def build_B(geom: CurveGeometry, v_star: np.ndarray, delta: float) -> BField:
    """Construct the extension field of the stacked velocity ``v_star``.

    Per-component means of V* must vanish to 1e-8 relative to the component
    L1 norm, the discrete Neumann compatibility condition; the first
    component that fails it is named.  The single layer is resampled at
    4 or more points per node and at least 4096 over the curve.
    """
    v_star = np.asarray(v_star, dtype=float)
    mean = field_mean(geom, v_star)
    bad = np.abs(mean) * geom.length > 1e-8 * np.maximum(integrate(geom, np.abs(v_star)),
                                                          1e-30)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NonZeroMean(f"component {k}: mean(V*) = {mean[k]:.3e} "
                          "violates the Neumann compatibility condition")

    q, mu = _solve_density(geom, v_star)
    g = dds(geom, _surface_potential(geom, q))
    traces = [g, v_star, dds(geom, g), dds(geom, v_star), dds(geom, dds(geom, g)),
              dds(geom, dds(geom, v_star)), geom.kappa, dds(geom, geom.kappa)]

    upsample = 2 * max(2, int(np.ceil(2048 / len(q))))
    position = _arc_spline(geom, geom.vertices)
    period = position.period
    nf = position.lengths * upsample
    comp = np.repeat(np.arange(len(period)), nf)
    sf = period[comp] * (np.arange(nf.sum()) - np.repeat(np.cumsum(nf) - nf, nf)) / nf[comp]

    field = BField(
        geometry=geom, density=q, mu=mu,
        fine_points=position(comp, sf),
        fine_charge=_arc_spline(geom, q)(comp, sf) * (period / nf)[comp],
        boundary=_arc_spline(geom, np.column_stack(traces)), position=position,
        delta=float(delta),
        support_radius=geom.curve.diameter + 10.0 * delta,
        near_cut=3.0 * float(np.max(period / nf)),
    )
    field.bc_residual = _midpoint_bc_residual(field, v_star)
    field.div_sup, field.sup_norm, field.lipschitz = _field_constants(field)
    return field


def _midpoint_bc_residual(field: BField, v_star) -> float:
    """sup over edge midpoints of |nu . B_trace - V*|.

    The collocation identity holds at the solve nodes by construction, so
    the honest consistency measure evaluates the jump-corrected flux between
    them, with the density linearly interpolated (order-2 baseline).  Edge
    k's midpoint is the position spline at arc (a_k + a_{k+1}) / 2, where
    that interpolation (q_k + q_{k+1}) / 2 belongs, with the spline's
    normal there.  The kernel is :func:`_neumann_system`'s.
    """
    geom = field.geometry
    nxt, comp = geom.layout.nxt, geom.layout.comp
    arc = field._foot_arc_raw(np.arange(len(comp)), 0.5)
    mids = field.position(comp, arc)
    tang = field.position(comp, arc, 1)
    nmid = np.column_stack([tang[:, 1], -tang[:, 0]]) / np.hypot(tang[:, 0], tang[:, 1])[:, None]
    q = field.density
    cq = -geom.weights * q / (2.0 * np.pi)
    flux = np.empty(len(comp))
    for rows, dx, dy, r2 in pair_blocks(mids, geom.vertices):
        flux[rows] = (nmid[rows, 0, None] * dx + nmid[rows, 1, None] * dy) / r2 @ cq
    q_mid = 0.5 * (q + q[nxt])
    flux = flux + 0.5 * q_mid + field.mu[comp]
    return float(np.max(np.abs(flux - 0.5 * (v_star + v_star[nxt]))))


def _normal_rays(geom: CurveGeometry, n_rays: int, dists) -> np.ndarray:
    """Points at each distance along the normals of n_rays spread vertices per component.

    Ordered by component, then distance, then vertex.
    """
    lay = geom.layout
    sel = lay.first[:, None] + np.linspace(0, lay.counts - 1, n_rays).T.astype(int)
    pts = (geom.vertices[sel][:, None]
           + np.asarray(dists)[:, None, None] * geom.nu[sel][:, None])
    return pts.reshape(-1, 2)


def _field_constants(field: BField):
    """Sampled sup norms: |div B|, |B|, and a difference-quotient Lipschitz bound."""
    rng = np.random.default_rng(1234)
    pts = _normal_rays(field.geometry, 24, field.delta * np.array(
        [-0.8, -0.4, -0.1, 0.1, 0.4, 0.8, 1.2, 1.6, 1.95]))
    h = 1e-3 * field.delta
    dirs = rng.normal(size=pts.shape)
    dirs /= row_norms(dirs)[:, None]
    # one call: each point's B is independent of the rest of its batch
    b, div = field.at_and_div(np.vstack([pts, pts + h * dirs, pts - h * dirs]))
    bvals, plus, minus = np.split(b, 3)
    sup_b = float(np.max(row_norms(bvals)))
    div_sup = float(np.max(np.abs(div[:len(pts)])))
    quot = row_norms(plus - minus) / (2 * h)
    lip = float(np.max(quot)) if len(quot) else 0.0
    return div_sup, sup_b, lip

"""Real-arithmetic, per-component kernels: the references of ``extension``'s
complex-form kernels and of ``energy``'s stacked B checkers.

Each function is the loop the package ran before its kernels moved to complex
arithmetic and before the checkers evaluated B once per sample, reading one
component's slice of the stacked geometry at a time.  The constructions at
the end (the divergence decay profile, the trivial extension and the
reference potentials) are checked by the tests only.  Only the tests import
this module.
"""

from dataclasses import dataclass

import numpy as np

from surfdiff.extension import BField, _arc_spline, _normal_rays
from surfdiff.geometry import PolyCurve, build_geometry, dds
from surfdiff.poisson import PeriodicSpline, nu_dot_B_potential, velocity_potential

from geometry_oracle import parts

# 4-point Gauss-Legendre on [0, 1]
_G4X = 0.5 + 0.5 * np.array([-0.8611363115940526, -0.3399810435848563,
                             0.3399810435848563, 0.8611363115940526])
_G4W = 0.5 * np.array([0.3478548451374538, 0.6521451548625461,
                       0.6521451548625461, 0.3478548451374538])


def neumann_system(geom):
    """Nystrom matrix from (m, m, 2) node differences and real dot products."""
    nodes, weights = geom.vertices, geom.weights
    rel = nodes[:, None, :] - nodes[None, :, :]
    r2 = np.sum(rel * rel, axis=2)
    np.fill_diagonal(r2, 1.0)
    kern = -np.sum(geom.nu[:, None, :] * rel, axis=2) / (2.0 * np.pi * r2)
    a = kern * weights[None, :]
    np.fill_diagonal(a, 0.5 - weights * geom.kappa / (4.0 * np.pi))
    return a, weights


def surface_potential(geom, q):
    """Single-layer potential at every node, one component at a time.

    Same-component nodes take log(chord / arc) + log(arc), other components
    log(chord); the diagonal panel is integrated analytically.
    """
    out = []
    for k, part in enumerate(parts(geom)):
        v, w, qk = geom.vertices[part], geom.weights[part], q[part]
        rel = v[:, None, :] - v[None, :, :]
        chord = np.sqrt(np.maximum(np.sum(rel * rel, axis=2), 1e-300))
        s = geom.arc_positions[part]
        darc = np.abs(s[:, None] - s[None, :])
        darc = np.minimum(darc, geom.length[k] - darc)
        eye = np.eye(len(v), dtype=bool)
        chord_safe = np.where(eye, 1.0, chord)
        darc_safe = np.where(eye, 1.0, darc)
        log_kernel = np.where(eye, 0.0, np.log(chord_safe / darc_safe) + np.log(darc_safe))
        phi = (log_kernel * w[None, :]) @ qk
        half = 0.5 * w
        phi += 2.0 * half * (np.log(half) - 1.0) * qk
        for j, other in enumerate(parts(geom)):
            if j == k:
                continue
            relx = v[:, None, :] - geom.vertices[other][None, :, :]
            r = np.sqrt(np.maximum(np.sum(relx * relx, axis=2), 1e-300))
            phi += (np.log(r) * geom.weights[other][None, :]) @ q[other]
        out.append(-phi / (2.0 * np.pi))
    return np.concatenate(out)


def midpoint_bc_residual(field, v_star):
    """sup over edge midpoints of |nu . B_trace - V*|, one component at a time."""
    geom = field.geometry
    nodes, weights, q = geom.vertices, geom.weights, field.density
    worst = 0.0
    for k, part in enumerate(parts(geom)):
        # half an edge past each node, as the package computes it: the
        # arc midpoint 0.5 * (start + end) differs from it by rounding
        arc = geom.arc_positions[part] + 0.5 * geom.edge_lengths[part]
        comp = np.full(len(arc), k)
        mids = field.position(comp, arc)
        tang = field.position(comp, arc, 1)
        tang /= np.linalg.norm(tang, axis=1)[:, None]
        nmid = np.column_stack([tang[:, 1], -tang[:, 0]])
        rel = mids[:, None, :] - nodes[None, :, :]
        r2 = np.maximum(np.sum(rel * rel, axis=2), 1e-300)
        kern = -np.sum(nmid[:, None, :] * rel, axis=2) / (2.0 * np.pi * r2)
        qk = q[part]
        q_mid = 0.5 * (qk + np.roll(qk, -1))
        flux = (kern * weights[None, :]) @ q + 0.5 * q_mid + field.mu[k]
        v_mid = 0.5 * (v_star[part] + np.roll(v_star[part], -1))
        worst = max(worst, float(np.max(np.abs(flux - v_mid))))
    return worst


def edge_flux(vector_field, v):
    """int nu . B over the loop with vertices v, one field call per Gauss point."""
    e = np.roll(v, -1, axis=0) - v
    elen = np.linalg.norm(e, axis=1)
    nu_e = np.column_stack([e[:, 1], -e[:, 0]]) / elen[:, None]
    total = 0.0
    for x, w in zip(_G4X, _G4W):
        vals = np.asarray(vector_field(v + x * e))
        total += w * np.sum(elen * np.sum(nu_e * vals, axis=1))
    return float(total)


def nu_dot_B_potentials(curve, b_field):
    """Zero-average potential of nu . B per component, each component a curve of
    its own (so counter-clockwise), B evaluated per component."""
    out = []
    for comp in curve.components:
        geom = build_geometry(PolyCurve([comp]))
        out.append(nu_dot_B_potential(geom, b_field.at(geom.vertices)))
    return out


def divergence_decay_profile(field: BField, n_rays: int = 32):
    """|div B| sampled on outward normal rays at delta/8, delta/4, delta/2.

    Returns the least-squares slope of the exact |div B| against distance
    and the worst ratio |div B| / dist.
    """
    dists = field.delta / np.array([8.0, 4.0, 2.0])
    xs = np.tile(np.repeat(dists, n_rays), len(field.geometry.length))
    ys = np.abs(field.at_and_div(_normal_rays(field.geometry, n_rays, dists))[1])
    slope = float(np.sum(xs * ys) / np.sum(xs * xs))
    ratio = float(np.max(ys / xs))
    return slope, ratio


def trivial_extension_Bbar(calib, field: BField, points, t: float = 0.0):
    """eta(s(x)) * B(closest point): the tube pullback of the boundary values."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    s = calib.sdist(points, t)
    feet = calib.proj(points, t)
    return calib.profile.eta(s)[:, None] * field.at(feet)


@dataclass
class StarPotential:
    """Zero-average reference potentials phi* and their tube extension."""

    phi: np.ndarray                  # stacked
    spline: PeriodicSpline           # columns phi*, d phi*/ds*
    calib: object
    field: BField

    def extension_at(self, points, t: float = 0.0):
        """phi*(closest point) * zeta(s(x))."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        _, _, _, seg, tpar = self.field.index.signed(points)
        s, arc, comp, _, _ = self.field.smooth_foot(points, seg, tpar)
        return self.spline(comp, arc)[:, 0] * self.calib.profile.zeta(s)

    def chain_rule_residual(self, points, t: float = 0.0) -> float:
        """Tangential-derivative identity residual for the extension.

        d/ds* of the extension equals zeta(s)/(1 + s kappa_foot) times the
        reference derivative pulled back through the projection; the factor
        is the arc-length contraction of the closest-point map (verified by
        the finite-difference oracle).
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        lhs = self.calib.d_sstar(lambda p: self.extension_at(p, t), points, t)
        _, _, _, seg, tpar = self.field.index.signed(points)
        s, arc, comp, _, _ = self.field.smooth_foot(points, seg, tpar)
        dphi = self.spline(comp, arc)[:, 1]
        kf = self.field.boundary(comp, arc)[:, 6]   # kappa
        rhs = self.calib.profile.zeta(s) / (1.0 + s * kf) * dphi
        return float(np.max(np.abs(lhs - rhs)))


def star_potentials(geom, calib, field: BField, v_star) -> StarPotential:
    """Solve d^2 phi*/ds*^2 = V* with zero average, all components in one solve."""
    phi = velocity_potential(geom, v_star)
    return StarPotential(phi=phi, spline=_arc_spline(geom, np.column_stack([phi, dds(geom, phi)])),
                         calib=calib, field=field)

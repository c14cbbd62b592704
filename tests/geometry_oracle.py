"""Per-component discrete calculus: the reference of ``geometry``'s stacked calculus.

Each function is the ``np.roll`` / ``np.dot`` definition on one component's
arrays that the package used while it kept one geometry object per
component; ``parts`` slices a stacked ``CurveGeometry`` into its
components.  ``crossing_parity`` tests every (point, edge) pair at once.
``intrinsic_distance``, ``translated``, the Gauss-Bonnet residual and the
Poincare ratio are checked or used by the tests only.
Only the tests import this module.
"""

import numpy as np

from surfdiff import geometry as geo


def parts(geom):
    """One slice of the stacked per-vertex arrays per component, in order."""
    return [slice(a, a + n) for a, n in zip(geom.layout.first, geom.layout.counts)]


def integrate(weights, values):
    return float(np.dot(weights, values))


def field_mean(weights, length, values):
    return integrate(weights, values) / length


def dds(weights, values):
    return (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2.0 * weights)


def d2ds2(edge_lengths, weights, values):
    fwd = (np.roll(values, -1, axis=0) - values) / edge_lengths
    bwd = (values - np.roll(values, 1, axis=0)) / np.roll(edge_lengths, 1)
    return (fwd - bwd) / weights


def turning_curvature(geom):
    """Turning angle over weight at every stacked vertex, from the curve's
    own segments: the expression ``build_geometry`` once evaluated eagerly."""
    starts, ends = geom.curve.segments[:2]
    edges = ends - starts
    em = edges[geom.layout.prv]
    turn = np.arctan2(em[:, 0] * edges[:, 1] - em[:, 1] * edges[:, 0],
                      np.sum(em * edges, axis=1))
    return turn / geom.weights


def intrinsic_distance(geom, i, j):
    """Shorter arc between stacked vertices i and j; inf across distinct components."""
    k = geom.layout.comp[i]
    if geom.layout.comp[j] != k:
        return float("inf")
    d = abs(geom.arc_positions[i] - geom.arc_positions[j])
    return float(min(d, geom.length[k] - d))


def translated(curve, shift):
    """The curve moved by ``shift``, its components' orientations kept."""
    return curve.with_vertices(curve.segments[0] + np.asarray(shift, dtype=float))


def gauss_bonnet_residual(geom):
    """|sum(kappa ds) - orientation * 2 pi| for each component, (K,)."""
    return np.abs(geo.integrate(geom, geom.kappa) - geom.curve.orientations * 2.0 * np.pi)


def poincare_ratio(geom, u, p):
    """||u - <u>||_p^p / (diam^p ||du/ds||_p^p) per component; zero for constant fields."""
    if p < 1:
        raise ValueError("p must be >= 1")
    u = np.asarray(u, dtype=float)
    if u.shape != geom.weights.shape:
        raise ValueError("field length does not match the curve")
    num = geo.integrate(geom, np.abs(u - geo.field_mean(geom, u)[geom.layout.comp]) ** p)
    den = geom.curve.diameters ** p * geo.integrate(geom, np.abs(geo.dds(geom, u)) ** p)
    ratio = np.zeros(len(num))
    np.divide(num, den, out=ratio, where=den > 1e-300 * np.maximum(1.0, num))
    return ratio


def crossing_parity(points, starts, ends, group, ngroups):
    """``geometry.crossing_parity`` from every (point, edge) pair at once: an
    edge counts for a point when exactly one of its ends lies above the
    point's height, and it meets that height right of the point."""
    x, y = points[:, 0, None], points[:, 1, None]
    (x0, y0), (x1, y1) = starts.T, ends.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (y - y0) / (y1 - y0)
    hit = ((y0 > y) != (y1 > y)) & (x0 + t * (x1 - x0) > x)
    return hit.astype(int) @ (group[:, None] == np.arange(ngroups)) % 2 == 1

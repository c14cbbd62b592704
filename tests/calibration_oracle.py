"""Single-point signed distance with the medial-axis ambiguity probe,
pointwise tube fields, finite differences along the extended reference
tangent, the facing self-gap from (m, m, 2) chord arrays, the gap between
two components from one (n_i, n_j, 2) broadcast, and the polygonal
admissible delta from that gap over every pair of components.

The tube evaluators query the reference in batches and never need to know
whether a foot point is ambiguous; the tests check that a strict single
query far outside the tube detects it.  ``xi_at``, ``div_xi`` and ``proj``
evaluate the tube fields at arbitrary points from ``calib.reference.query``
and ``calib.profile``; a run reads xi and div xi at curve vertices only, through
``Calibration.sample``.  Only the tests import this module.
"""

import numpy as np

from surfdiff.geometry import _point_segment_dist


class MedialAxisProximity(Exception):
    """Two closest-point candidates are equidistant; the foot point is ambiguous."""


def signed_distance(calib, point, t=0.0, strict=False):
    """Signed distance, gradient and foot point of a single query.

    With ``strict`` the query raises MedialAxisProximity when two foot
    candidates are equidistant within 1e-10 (possible only outside the
    admissible tube); otherwise the first minimizer is returned, which
    is all the tube evaluators ever need.
    """
    point = np.asarray(point, dtype=float)
    s, grad, foot, _ = calib.reference.query(point[None, :], t)
    if strict and abs(s[0]) > calib.delta:
        _ambiguity_probe(calib, point, abs(s[0]), t)
    return float(s[0]), grad[0], foot[0]


def _ambiguity_probe(calib, point, d0, t):
    probe = point[None, :] + d0 * 1e-3 * np.array(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    _, _, feet, _ = calib.reference.query(probe, t)
    spread = np.linalg.norm(feet - feet[0], axis=1).max()
    if spread > 10.0 * d0 * 1e-3 and spread > 1e-8:
        raise MedialAxisProximity(
            f"foot point ambiguous near {point}: candidates {spread:.2e} apart"
        )


def nu_star_at(calib, points, t=0.0):
    """The extended reference normal eta(s) grad s."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    s, grad, _, _ = calib.reference.query(points, t)
    return calib.profile.eta(s)[:, None] * grad


def tau_star_at(calib, points, t=0.0):
    """The extended reference tangent, nu* turned a quarter counter-clockwise."""
    nu = nu_star_at(calib, points, t)
    return np.column_stack([-nu[:, 1], nu[:, 0]])


def d_sstar(calib, func, points, t=0.0, step=None):
    """Directional derivative along tau* by centered differences."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if step is None:
        step = 1e-5 * calib.delta
    tau = tau_star_at(calib, points, t)
    fp = np.asarray(func(points + step * tau))
    fm = np.asarray(func(points - step * tau))
    return (fp - fm) / (2.0 * step)


def xi_at(calib, points, t=0.0):
    """The calibration vector zeta(s) grad s."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    s, grad, _, _ = calib.reference.query(points, t)
    return calib.profile.zeta(s)[:, None] * grad


def div_xi(calib, points, t=0.0):
    """zeta'(s) |grad s|^2 + zeta(s) * Laplacian(s); zero outside the tube.

    The Laplacian of s is the curvature of its level set, kappa / (1 + s kappa)
    with kappa the reference curvature at the foot point.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    s, _, _, kf = calib.reference.query(points, t)
    out = np.zeros(len(s))
    tube = np.abs(s) < calib.delta
    st, kt = s[tube], kf[tube]
    out[tube] = calib.profile.zeta_prime(st) + calib.profile.zeta(st) * kt / (1.0 + st * kt)
    return out


def tilt_slacks(calib, geom, t=0.0):
    """Per vertex within 2 delta of the reference, (3, m): the slacks of
    2(1 - nu.xi) >= zeta |nu - nu*|^2, 2(1 - nu.xi) >= |tau . grad s|^2 and
    zeta(1 - zeta) >= xi.(nu - xi), from the pointwise tube fields."""
    s, grad, _, _ = calib.reference.query(geom.vertices, t)
    inside = np.abs(s) < 2.0 * calib.delta
    pts, nu, tau = geom.vertices[inside], geom.nu[inside], geom.tau[inside]
    zeta = calib.profile.zeta(s[inside])
    xi, off = xi_at(calib, pts, t), nu - nu_star_at(calib, pts, t)
    gap = 2.0 * (1.0 - np.einsum("ij,ij->i", nu, xi))
    return np.array([gap - zeta * np.einsum("ij,ij->i", off, off),
                     gap - np.einsum("ij,ij->i", tau, grad[inside]) ** 2,
                     zeta * (1.0 - zeta) - np.einsum("ij,ij->i", xi, nu - xi)])


def proj(calib, points, t=0.0):
    """The closest point on the reference, x - s grad s."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    s, grad, _, _ = calib.reference.query(points, t)
    return points - s[:, None] * grad


def facing_self_gap(geom, k):
    """``calibration._facing_self_gap`` as the package ran it before its
    chords were split into x and y arrays: (m, m, 2) chords, their norms and
    unit vectors, and dot products with both normals summed over the last axis."""
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


def polyline_gap(curve, i, j):
    """``calibration._polyline_gap`` as one (n_i, n_j, 2) broadcast each way."""
    starts, ends, comp_of, _ = curve.segments
    a = slice(*np.searchsorted(comp_of, [i, i + 1]))
    b = slice(*np.searchsorted(comp_of, [j, j + 1]))
    d1 = _point_segment_dist(starts[a][:, None, :], starts[b][None, :, :],
                             ends[b][None, :, :]).min()
    d2 = _point_segment_dist(starts[b][:, None, :], starts[a][None, :, :],
                             ends[a][None, :, :]).min()
    return float(min(d1, d2))


def admissible_delta(geom):
    """``calibration._admissible_delta_polygonal`` from every pair of loops:
    each loop's reach, then :func:`polyline_gap` of each pair, a quarter of
    the least."""
    best = np.inf
    kmax = np.maximum.reduceat(np.abs(geom.kappa), geom.layout.first)
    for k in range(len(kmax)):
        reach = 1.0 / kmax[k] if kmax[k] > 0 else np.inf
        best = min(best, min(reach, 0.5 * facing_self_gap(geom, k)) / 4.0)
    for i in range(len(kmax)):
        for j in range(i + 1, len(kmax)):
            best = min(best, polyline_gap(geom.curve, i, j) / 4.0)
    return best

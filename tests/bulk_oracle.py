"""Area-quadrature oracles of the bulk error for the oracle tests.

``energy.bulk_error`` is a line integral over the evolving curve.  The
oracle here integrates over the plane instead, on a recursive quadtree over
both regions: one Python call per cell, a full crossing test per empty cell
and component, and a Sutherland-Hodgman clip of every vertex of every
component in each boundary cell, integrated with 3x3 tensor Gauss on
smooth cells and a degree-5 triangle rule on clipped pieces.  Cells and
triangles whose |s| range may hold delta/2 or delta, where theta'' jumps,
are cut to about delta/64 first, so no rule straddles a joint at full size.
A clipped piece is weighted by its own signed area times the region sign,
so a clockwise hole subtracts its part of the cell.  An analytic-circle
reference enters as regular n-gons.  The Monte Carlo estimate at the end is
the second, independent cross-check.
"""

import numpy as np

from surfdiff.calibration import AnalyticCircles
from surfdiff.geometry import PolyCurve, crossing_parity, make_circle, points_in_component

# 3x3 tensor Gauss on [0, 1]^2
_g3 = np.array([0.5 - 0.5 * np.sqrt(0.6), 0.5, 0.5 + 0.5 * np.sqrt(0.6)])
_w3 = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
_G9X, _G9Y = (g.ravel() for g in np.meshgrid(_g3, _g3))
_G9W = np.outer(_w3, _w3).ravel()

# Dunavant degree-5 7-point rule on the reference triangle
_T7_BARY = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [0.0597158717897698, 0.4701420641051151, 0.4701420641051151],
    [0.4701420641051151, 0.0597158717897698, 0.4701420641051151],
    [0.4701420641051151, 0.4701420641051151, 0.0597158717897698],
    [0.7974269853530873, 0.1012865073234563, 0.1012865073234563],
    [0.1012865073234563, 0.7974269853530873, 0.1012865073234563],
    [0.1012865073234563, 0.1012865073234563, 0.7974269853530873],
])
_T7_W = np.array([0.225,
                  0.1323941527885062, 0.1323941527885062, 0.1323941527885062,
                  0.1259391805448271, 0.1259391805448271, 0.1259391805448271])

# pieces that straddle |s| = delta/2 or delta are cut down to this size
# (over delta) before the Gauss rules run
_JOINT_SIZE = 1.0 / 64.0


def reference_curve(calib, t, n):
    """The reference at t as a curve; analytic circles become regular n-gons."""
    ref = calib.reference
    if isinstance(ref, AnalyticCircles):
        return PolyCurve([make_circle(c.center, c.radius, n, c.orientation)
                          for c in ref.circles])
    return ref.geometry_at(t).curve


def clip_rect(poly, lo, hi):
    """Sutherland-Hodgman clip of a closed polygon by an axis-aligned box."""
    pts = poly
    for axis, bound, keep_less in ((0, lo[0], False), (0, hi[0], True),
                                   (1, lo[1], False), (1, hi[1], True)):
        if len(pts) == 0:
            return pts
        prev = np.roll(pts, 1, axis=0)
        if keep_less:
            cur_in = pts[:, axis] <= bound
            prev_in = prev[:, axis] <= bound
        else:
            cur_in = pts[:, axis] >= bound
            prev_in = prev[:, axis] >= bound
        crossing = cur_in != prev_in
        denom = pts[:, axis] - prev[:, axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            tpar = np.where(crossing, (bound - prev[:, axis]) / denom, 0.0)
        inter = prev + tpar[:, None] * (pts - prev)
        counts = crossing.astype(int) + cur_in.astype(int)
        total = int(counts.sum())
        if total == 0:
            return np.empty((0, 2))
        out = np.empty((total, 2))
        offs = np.concatenate([[0], np.cumsum(counts)[:-1]])
        out[offs[crossing]] = inter[crossing]
        pos_cur = offs + crossing.astype(int)
        out[pos_cur[cur_in]] = pts[cur_in]
        pts = out
    return pts


def _triangle_fan(poly):
    origin = poly.mean(axis=0)
    a = poly
    b = np.roll(poly, -1, axis=0)
    cross = ((a[:, 0] - origin[0]) * (b[:, 1] - origin[1])
             - (a[:, 1] - origin[1]) * (b[:, 0] - origin[0]))
    return origin, a, b, 0.5 * cross


class _Forest:
    def __init__(self, curve):
        self.components = np.split(curve.vertices, curve.layout.split)
        starts = np.vstack(self.components)
        ends = np.vstack([np.roll(v, -1, axis=0) for v in self.components])
        self.seg_lo = np.minimum(starts, ends)
        self.seg_hi = np.maximum(starts, ends)

    def candidates(self, idx, lo, hi):
        sel = ~((self.seg_hi[idx, 0] < lo[0]) | (self.seg_lo[idx, 0] > hi[0]) |
                (self.seg_hi[idx, 1] < lo[1]) | (self.seg_lo[idx, 1] > hi[1]))
        return idx[sel]

    def contains(self, point):
        p = np.asarray(point, dtype=float)[None, :]
        return sum(int(points_in_component(p, v)[0]) for v in self.components) % 2 == 1

    def clip_to_cell(self, lo, hi):
        return [c for c in (clip_rect(v, lo, hi) for v in self.components) if len(c) >= 3]


def bulk_error_recursive(curve, calib, t=0.0, max_depth=12, reference_resolution=4096):
    """int (chi_curve - chi_reference) * vartheta by cell-at-a-time recursion."""
    fa = _Forest(curve)
    fb = _Forest(reference_curve(calib, t, reference_resolution))

    vert_all = np.vstack(fa.components + fb.components)
    lo = vert_all.min(axis=0) - 0.1 * calib.delta
    hi = vert_all.max(axis=0) + 0.1 * calib.delta
    span = float(np.max(hi - lo))
    center = 0.5 * (lo + hi)
    lo = center - 0.5 * span
    hi = center + 0.5 * span

    clip_size = 0.25 * calib.delta
    smooth_size = 0.5 * calib.delta
    quad_cells = []      # (x0, y0, size, sign)
    tri_parts = []       # (origin, a, b, signed_area * region_sign)

    def emit_smooth(clo, size, sign):
        if size > smooth_size:
            half = 0.5 * size
            for dx in (0.0, half):
                for dy in (0.0, half):
                    emit_smooth(clo + np.array([dx, dy]), half, sign)
        else:
            quad_cells.append((clo[0], clo[1], size, sign))

    def emit_clip(clo, chi_):
        for forest, region_sign in ((fa, 1.0), (fb, -1.0)):
            for poly in forest.clip_to_cell(clo, chi_):
                origin, a, b, areas = _triangle_fan(poly)
                tri_parts.append((origin, a, b, areas * region_sign))

    def recurse(clo, chi_, cand_a, cand_b, depth):
        cand_a = fa.candidates(cand_a, clo, chi_)
        cand_b = fb.candidates(cand_b, clo, chi_)
        size = chi_[0] - clo[0]
        if len(cand_a) == 0 and len(cand_b) == 0:
            center_pt = 0.5 * (clo + chi_)
            in_a = fa.contains(center_pt)
            in_b = fb.contains(center_pt)
            if in_a != in_b:
                emit_smooth(clo, size, 1.0 if in_a else -1.0)
            return
        if size <= clip_size or depth >= max_depth:
            emit_clip(clo, chi_)
            return
        mid = 0.5 * (clo + chi_)
        for (x0, y0, x1, y1) in ((clo[0], clo[1], mid[0], mid[1]),
                                 (mid[0], clo[1], chi_[0], mid[1]),
                                 (clo[0], mid[1], mid[0], chi_[1]),
                                 (mid[0], mid[1], chi_[0], chi_[1])):
            recurse(np.array([x0, y0]), np.array([x1, y1]), cand_a, cand_b, depth + 1)

    recurse(lo, hi, np.arange(len(fa.seg_lo)), np.arange(len(fb.seg_lo)), 0)

    total = 0.0
    if quad_cells:
        qc = np.array([(x, y, s) for x, y, s, _ in quad_cells])
        signs = np.array([sgn for _, _, _, sgn in quad_cells])
        qc, signs = _refine_squares(qc, signs, calib, t)
        pts = np.empty((len(qc), len(_G9W), 2))
        pts[:, :, 0] = qc[:, 0][:, None] + np.outer(qc[:, 2], _G9X)
        pts[:, :, 1] = qc[:, 1][:, None] + np.outer(qc[:, 2], _G9Y)
        vals = calib.vartheta_at(pts.reshape(-1, 2), t).reshape(len(qc), -1)
        total += float(np.sum(signs * qc[:, 2]**2 * (vals @ _G9W)))
    if tri_parts:
        origins = np.concatenate([np.repeat(o[None, :], len(a), axis=0)
                                  for o, a, _, _ in tri_parts])
        aa = np.concatenate([a for _, a, _, _ in tri_parts])
        bb = np.concatenate([b for _, _, b, _ in tri_parts])
        ww = np.concatenate([w for _, _, _, w in tri_parts])
        origins, aa, bb, ww = _refine_triangles(origins, aa, bb, ww, calib, t)
        pts = (origins[None, :, :] * _T7_BARY[:, 0, None, None]
               + aa[None, :, :] * _T7_BARY[:, 1, None, None]
               + bb[None, :, :] * _T7_BARY[:, 2, None, None])
        vals = calib.vartheta_at(pts.reshape(-1, 2), t).reshape(len(_T7_W), -1)
        total += float(np.sum((_T7_W @ vals) * ww))
    return total


def _near_joint(center, radius, calib, t):
    """Pieces whose |s| range may hold delta/2 or delta, where theta'' jumps."""
    a = np.abs(calib.reference.query(center, t)[0])
    return ((np.abs(a - 0.5 * calib.delta) < radius)
            | (np.abs(a - calib.delta) < radius)) & (radius > _JOINT_SIZE * calib.delta)


def _refine_squares(qc, signs, calib, t):
    """Quarter the cells that straddle a joint of theta, down to _JOINT_SIZE delta."""
    while True:
        cut = _near_joint(qc[:, :2] + 0.5 * qc[:, 2:], np.sqrt(0.5) * qc[:, 2], calib, t)
        if not np.any(cut):
            return qc, signs
        half = 0.5 * qc[cut, 2]
        kids = [np.column_stack([qc[cut, 0] + dx * half, qc[cut, 1] + dy * half, half])
                for dx in (0, 1) for dy in (0, 1)]
        qc = np.vstack([qc[~cut]] + kids)
        signs = np.concatenate([signs[~cut]] + [signs[cut]] * 4)


def _refine_triangles(o, a, b, w, calib, t):
    """Split into four the triangles that straddle a joint of theta."""
    while True:
        c = (o + a + b) / 3.0
        radius = np.max([np.hypot(*(v - c).T) for v in (o, a, b)], axis=0)
        cut = _near_joint(c, radius, calib, t)
        if not np.any(cut):
            return o, a, b, w
        oc, ac, bc = o[cut], a[cut], b[cut]
        mab, mbo, moa = 0.5 * (ac + bc), 0.5 * (bc + oc), 0.5 * (oc + ac)
        o = np.vstack([o[~cut], oc, moa, mbo, moa])
        a = np.vstack([a[~cut], moa, ac, mab, mab])
        b = np.vstack([b[~cut], mbo, mab, bc, mbo])
        w = np.concatenate([w[~cut]] + [0.25 * w[cut]] * 4)


def bulk_error_montecarlo(curve, calib, t=0.0, n_samples=10**6, seed=7):
    """Monte Carlo estimate of the bulk error and its standard error."""
    ref_curve = reference_curve(calib, t, 1024)
    vert_all = np.vstack([curve.segments[0], ref_curve.segments[0]])
    lo = vert_all.min(axis=0) - 0.1
    hi = vert_all.max(axis=0) + 0.1
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n_samples, 2))
    area = float(np.prod(hi - lo))
    diff = (crossing_parity(pts, *curve.segments[:2])[:, 0].astype(float)
            - crossing_parity(pts, *ref_curve.segments[:2])[:, 0].astype(float))
    vals = diff * calib.vartheta_at(pts, t)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals) / np.sqrt(n_samples))
    return mean * area, stderr * area

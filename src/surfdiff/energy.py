"""Relative energy, bulk error, dissipation functionals and inequality verdicts.

The relative energy is the tilt excess int (1 - nu . xi) over the evolving
curve; the bulk error weighs the symmetric difference between the evolving
and reference regions by the truncated signed distance.  The bulk integral
runs on one quadtree shared by both regions and refined level-synchronously:
each level is a set of cell arrays and (cell, edge) candidate arrays, so
cells away from either boundary cancel exactly after one batched crossing
test, and boundary cells are clipped (candidate edges only) once they are
small enough and integrated with a degree-5 triangle rule.  Off the delta
tube of the reference the weight is known exactly, vartheta = delta *
(1 - 2 chi_B), and is not evaluated.

The per-sample checkers read one ``calibration.TubeSample`` of the state:
the relative energy is the sum of its per-component tilt integrals, which
the small-component bound reads too, and the dissipation report takes
div xi from it; the stationary gradient ratio is cross_xi / E of that
report.  All inequality checkers report slack and never clamp: a negative
slack is a finding, not an error.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInitialData, NonStationaryReference
from .calibration import AnalyticCircles, Calibration, TubeSample
from .geometry import (
    CurveGeometry,
    PolyCurve,
    dds,
    field_mean,
    _bucket_pairs,
    _buckets,
    crossing_parity,
    cycle_index,
    integrate,
)
from .poisson import nu_dot_B_potential, velocity_potential

# 4-point Gauss-Legendre on [0, 1]
_G4X = 0.5 + 0.5 * np.array([-0.8611363115940526, -0.3399810435848563,
                             0.3399810435848563, 0.8611363115940526])
_G4W = 0.5 * np.array([0.3478548451374538, 0.6521451548625461,
                       0.6521451548625461, 0.3478548451374538])

# 3x3 tensor Gauss on [0, 1]^2
_g3 = np.array([0.5 - 0.5 * np.sqrt(0.6), 0.5, 0.5 + 0.5 * np.sqrt(0.6)])
_w3 = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
_G9X, _G9Y = np.meshgrid(_g3, _g3)
_G9X, _G9Y = _G9X.ravel(), _G9Y.ravel()
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


# ---------------------------------------------------------------------------
# relative energy
# ---------------------------------------------------------------------------

def relative_energy(sample: TubeSample) -> float:
    """int over the curve of 1 - nu . xi; vertices beyond the tube add 1.

    The sum of the per-component tilt integrals.
    """
    return float(np.sum(sample.tilt))


# ---------------------------------------------------------------------------
# bulk error: level-synchronous quadtree over both regions
# ---------------------------------------------------------------------------

_CHILD = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=bool)
_TUBE_LEVEL_MAX = 9     # finest grid of the off-tube test: 512 x 512 cells
_MAX_DEPTH = 12         # finest quadtree level of the bulk integral


class _Region:
    """One side of the bulk integral: a curve's edges, flattened, and its sign."""

    def __init__(self, curve: PolyCurve, sign: float):
        self.starts, self.ends, self.comp_of, _ = curve.segments
        self.prev_edge = curve.layout.prv
        self.orientation = np.array([c.orientation for c in curve.components], dtype=float)
        self.ncomp = curve.ncomponents
        self.seg_lo = np.minimum(self.starts, self.ends)
        self.seg_hi = np.maximum(self.starts, self.ends)
        self.xbuckets = _buckets(self.seg_lo[:, 0], self.seg_hi[:, 0])
        self.sign = sign

    def meets(self, seg, lo, hi):
        """Whether the bounding box of edge seg[i] meets the closed cell [lo[i], hi[i]]."""
        return ~((self.seg_hi[seg, 0] < lo[:, 0]) | (self.seg_lo[seg, 0] > hi[:, 0])
                 | (self.seg_hi[seg, 1] < lo[:, 1]) | (self.seg_lo[seg, 1] > hi[:, 1]))

    def parity(self, points):
        """Crossing parity of every component at every point, (n, ncomp)."""
        return crossing_parity(points, self.starts, self.ends, self.comp_of, self.ncomp)


class _Tube:
    """Conservative test for cells within delta of the reference edges.

    Each reference edge's bounding box, inflated by delta, is marked on a
    uniform grid over the root square.  A cell that meets no marked grid cell
    is at L-inf distance, hence Euclidean distance, more than delta from
    every edge, and there vartheta = delta * (1 - 2 chi_B) exactly.
    """

    def __init__(self, region: _Region, delta: float, root_lo, span: float, level: int):
        n = 1 << level
        self.root_lo, self.cell, self.n = root_lo, span / n, n
        i0 = self._index(region.seg_lo - delta)
        i1 = self._index(region.seg_hi + delta) + 1

        def stamp(ix, iy):
            return np.bincount(ix * (n + 1) + iy, minlength=(n + 1) ** 2).reshape(n + 1, n + 1)

        cover = (stamp(i0[:, 0], i0[:, 1]) - stamp(i1[:, 0], i0[:, 1])
                 - stamp(i0[:, 0], i1[:, 1]) + stamp(i1[:, 0], i1[:, 1]))
        self.table = np.zeros((n + 1, n + 1), dtype=np.int64)
        self.table[1:, 1:] = (cover.cumsum(0).cumsum(1)[:n, :n] > 0).cumsum(0).cumsum(1)

    def _index(self, x, shift=0.0):
        """Grid cell of each coordinate; the shift absorbs rounding at grid lines."""
        grid = np.floor((x - self.root_lo) / self.cell + shift)
        return np.clip(grid, 0, self.n - 1).astype(np.int64)

    def __call__(self, lo, hi):
        """Whether each cell [lo[i], hi[i]] may lie within delta of the reference."""
        i0 = self._index(lo, 1e-6)
        i1 = np.maximum(self._index(hi, -1e-6), i0)
        tab = self.table
        hits = (tab[i1[:, 0] + 1, i1[:, 1] + 1] - tab[i0[:, 0], i1[:, 1] + 1]
                - tab[i1[:, 0] + 1, i0[:, 1]] + tab[i0[:, 0], i0[:, 1]])
        return hits > 0


def _polygon_layout(gid):
    """Cycle layout of polygons stored one after another; ``gid`` (nondecreasing)
    names each vertex's polygon."""
    n_g = np.bincount(gid)
    return cycle_index(n_g[n_g > 0])


def _clip_polygons(pts, gid, lo, hi):
    """Sutherland-Hodgman clip of many closed polygons, each by its own box.

    ``pts`` holds the polygons one after another and ``gid`` the polygon of
    each vertex (nondecreasing); polygon g is clipped by [lo[g], hi[g]].
    The arithmetic is that of a one-polygon clip, vertex for vertex.
    """
    for axis, bounds, keep_less in ((0, lo, False), (0, hi, True),
                                    (1, lo, False), (1, hi, True)):
        if len(pts) == 0:
            break
        prev = _polygon_layout(gid).prv
        bound = bounds[gid, axis]
        cur_in = pts[:, axis] <= bound if keep_less else pts[:, axis] >= bound
        crossing = cur_in != cur_in[prev]
        p = pts[prev]
        with np.errstate(divide="ignore", invalid="ignore"):
            tpar = np.where(crossing, (bound - p[:, axis]) / (pts[:, axis] - p[:, axis]), 0.0)
        inter = p + tpar[:, None] * (pts - p)
        counts = crossing.astype(np.int64) + cur_in
        offs = np.cumsum(counts) - counts
        out = np.empty((int(counts.sum()), 2))
        out[offs[crossing]] = inter[crossing]
        out[(offs + crossing)[cur_in]] = pts[cur_in]
        pts, gid = out, np.repeat(gid, counts)
    return pts, gid


def _candidate_polygons(region: _Region, cells, seg, lo, hi):
    """Per (cell, component) with candidate edges, the polygon to clip in its place.

    It keeps the candidate edges and every edge of the component whose
    x-range holds the cell's lo or hi x, and joins consecutive kept edges by
    a straight chord.  Between kept edges the polygon changes side of neither
    vertical cell line and never meets the cell, so it stays in one slab
    (left, right, or above or below the cell), as does the chord; the
    Sutherland-Hodgman stages then drop the same points and create the same
    crossings as for the whole polygon.  The clip output is the whole
    polygon's, up to the choice of its first vertex.

    Returns the polygon vertices, their group and per group its cell and
    component (group key = cell * ncomp + component).
    """
    ncomp, nseg = region.ncomp, len(region.starts)
    key = cells * ncomp + region.comp_of[seg]
    groups = np.unique(key)
    q = np.concatenate([lo[:, 0], hi[:, 0]])
    k, s = _bucket_pairs(region.xbuckets, q)
    key_s = np.tile(np.arange(len(lo)), 2)[k] * ncomp + region.comp_of[s]
    stab = ((region.seg_lo[s, 0] <= q[k]) & (q[k] <= region.seg_hi[s, 0])
            & np.isin(key_s, groups))
    code = np.unique(np.concatenate([key, key_s[stab]]) * nseg
                     + np.concatenate([seg, s[stab]]))
    e = code % nseg
    g = np.searchsorted(groups, code // nseg)
    prev = _polygon_layout(g).prv
    chain_start = e[prev] != region.prev_edge[e]
    count = 1 + chain_start
    offs = np.cumsum(count) - count
    pts = np.empty((int(count.sum()), 2))
    pts[offs[chain_start]] = region.starts[e[chain_start]]
    pts[offs + chain_start] = region.ends[e]
    return pts, np.repeat(g, count), groups


def _triangle_fans(pts, gid):
    """Centroid fan of each polygon: origin, a, b and the signed area per triangle."""
    n_g = np.bincount(gid)
    origin = np.column_stack([np.bincount(gid, pts[:, 0]), np.bincount(gid, pts[:, 1])])
    origin = (origin / np.maximum(n_g, 1)[:, None])[gid]
    a, b = pts, pts[cycle_index(n_g[n_g > 0]).nxt]
    cross = ((a[:, 0] - origin[:, 0]) * (b[:, 1] - origin[:, 1])
             - (a[:, 1] - origin[:, 1]) * (b[:, 0] - origin[:, 0]))
    return origin, a, b, 0.5 * cross


def _clip_cells(regions, pairs, lo, hi, parity):
    """Triangle fans of both regions' pieces in clip cells [lo[i], hi[i]].

    A component with candidate edges in a cell is clipped (see
    :func:`_candidate_polygons`); one without holds the whole cell or none
    of it, by its parity at the cell centre.  Each piece is weighted by its
    own signed area times the region sign, so clockwise holes subtract.
    Returns the cell, origin, a, b and weight of every triangle.
    """
    out = []
    whole = np.zeros(len(lo))
    for region, (cells, seg), par in zip(regions, pairs, parity):
        has = np.zeros((len(lo), region.ncomp), dtype=bool)
        if len(cells):
            pts, gid, groups = _candidate_polygons(region, cells, seg, lo, hi)
            has.flat[groups] = True
            gcell = groups // region.ncomp
            pts, gid = _clip_polygons(pts, gid, lo[gcell], hi[gcell])
            keep = np.bincount(gid, minlength=len(groups))[gid] >= 3
            pts, gid = pts[keep], gid[keep]
            origin, a, b, area = _triangle_fans(pts, gid)
            out.append((gcell[gid], origin, a, b, area * region.sign))
        whole += region.sign * ((par & ~has) @ region.orientation)
    cells = np.nonzero(whole)[0]
    if len(cells):
        corners = np.stack([lo[cells], np.column_stack([hi[cells, 0], lo[cells, 1]]),
                            hi[cells], np.column_stack([lo[cells, 0], hi[cells, 1]])], axis=1)
        gid = np.repeat(np.arange(len(cells)), 4)
        origin, a, b, area = _triangle_fans(corners.reshape(-1, 2), gid)
        out.append((cells[gid], origin, a, b, area * whole[cells][gid]))
    return [np.concatenate(col) for col in zip(*out)] if out else None


def _renumber(pairs, keep, ncells):
    """The (cell, edge) pairs of the cells ``keep``, cells renumbered by position in it."""
    cells, seg = pairs
    rank = np.full(ncells, -1)
    rank[keep] = np.arange(len(keep))
    sel = rank[cells] >= 0
    return rank[cells[sel]], seg[sel]


def bulk_error(curve: PolyCurve, calib: Calibration, t: float = 0.0,
               reference_resolution: int = 4096) -> float:
    """int (chi_curve - chi_reference) * vartheta over the plane.

    One quadtree over both regions, refined a level at a time: every level
    holds its cells as arrays and one (cell, edge) candidate array per
    region, filtered by one bounding-box test.  Cells with no candidate edge
    take both regions' parity from one batched crossing test; where the
    parities differ the cell is integrated with 3x3 tensor Gauss on
    subcells no larger than delta/2, elsewhere it cancels.  Cells with
    candidates are split down to delta/4 (or _MAX_DEPTH), then clipped and
    integrated with a degree-5 triangle rule on a centroid fan.  vartheta is
    evaluated afterwards in large batches, and not at all in cells farther
    than delta from every reference edge, where it is delta * (1 - 2 chi_B).
    """
    if isinstance(calib.reference, AnalyticCircles):
        ref_curve = calib.reference.boundary_curve(t, reference_resolution)
    else:
        ref_curve = calib.reference.curve_at(t)
    delta = calib.delta
    regions = (_Region(curve, 1.0), _Region(ref_curve, -1.0))

    vert_all = np.vstack([r.starts for r in regions])
    lo = vert_all.min(axis=0) - 0.1 * delta
    hi = vert_all.max(axis=0) + 0.1 * delta
    span = float(np.max(hi - lo))
    center = 0.5 * (lo + hi)
    lo = (center - 0.5 * span)[None, :]
    hi = (center + 0.5 * span)[None, :]

    clip_size = 0.25 * delta
    smooth_size = 0.5 * delta
    tube_level = int(np.clip(np.ceil(np.log2(span / clip_size)), 0,
                             min(_MAX_DEPTH, _TUBE_LEVEL_MAX)))
    tube = _Tube(regions[1], delta, lo[0], span, tube_level)

    # sign: 0 for a cell still being refined, +-1 for a cell in A \ B or B \ A
    sign = np.zeros(1)
    pairs = [(np.zeros(len(r.starts), dtype=np.int64), np.arange(len(r.starts)))
             for r in regions]
    quads = []          # (lower corner, size, sign, fixed weight or nan)
    tris = []           # (origin, a, b, signed weight, fixed weight or nan)
    depth = 0
    while len(lo):
        size = hi[:, 0] - lo[:, 0]
        has = np.zeros(len(lo), dtype=bool)
        for k, region in enumerate(regions):
            cells, seg = pairs[k]
            keep = region.meets(seg, lo[cells], hi[cells])
            pairs[k] = (cells[keep], seg[keep])
            has[pairs[k][0]] = True
        active = sign == 0
        empty = active & ~has
        clip = active & has & ((size <= clip_size) | (depth >= _MAX_DEPTH))
        query = np.nonzero(empty | clip)[0]
        if len(query):
            parity = [r.parity(0.5 * (lo[query] + hi[query])) for r in regions]
            in_a, in_b = (p.sum(axis=1) % 2 == 1 for p in parity)
            qe = empty[query]
            sign[query[qe]] = in_a[qe].astype(float) - in_b[qe]
            qc = ~qe
            if np.any(qc):
                clip_idx = query[qc]
                pieces = _clip_cells(regions, [_renumber(p, clip_idx, len(lo)) for p in pairs],
                                     lo[clip_idx], hi[clip_idx], [p[qc] for p in parity])
                if pieces is not None:
                    cell, origin, a, b, w = pieces
                    off = np.where(tube(lo[clip_idx], hi[clip_idx]), np.nan,
                                   delta * (1.0 - 2.0 * in_b[qc]))
                    tris.append((origin, a, b, w, off[cell]))
        smooth = sign != 0
        done = smooth & (size <= smooth_size)
        if np.any(done):
            off = np.where(tube(lo[done], hi[done]), np.nan, delta * sign[done])
            quads.append((lo[done], size[done], sign[done], off))

        split = np.nonzero((active & has & ~clip) | (smooth & ~done))[0]
        for k, p in enumerate(pairs):
            cells, seg = _renumber(p, split, len(lo))
            pairs[k] = (((4 * cells)[:, None] + np.arange(4)).ravel(), np.repeat(seg, 4))
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi = (np.where(_CHILD, mid[:, None, :], lo[split][:, None, :]).reshape(-1, 2),
                  np.where(_CHILD, hi[split][:, None, :], mid[:, None, :]).reshape(-1, 2))
        sign = np.repeat(sign[split], 4)
        depth += 1

    total = 0.0
    if quads:
        x0, size, sgn, off = (np.concatenate(col) for col in zip(*quads))
        pts = np.empty((len(size), len(_G9W), 2))
        pts[:, :, 0] = x0[:, 0][:, None] + np.outer(size, _G9X)
        pts[:, :, 1] = x0[:, 1][:, None] + np.outer(size, _G9Y)
        vals = np.repeat(off[:, None], len(_G9W), axis=1)
        near = np.isnan(off)
        vals[near] = calib.vartheta_at(pts[near].reshape(-1, 2), t).reshape(-1, len(_G9W))
        total += float(np.sum(sgn * size**2 * (vals @ _G9W)))
    if tris:
        origin, a, b, w, off = (np.concatenate(col) for col in zip(*tris))
        pts = (origin[None, :, :] * _T7_BARY[:, 0, None, None]
               + a[None, :, :] * _T7_BARY[:, 1, None, None]
               + b[None, :, :] * _T7_BARY[:, 2, None, None])
        vals = np.repeat(off[None, :], len(_T7_W), axis=0)
        near = np.isnan(off)
        vals[:, near] = calib.vartheta_at(pts[:, near].reshape(-1, 2), t).reshape(len(_T7_W), -1)
        total += float(np.sum((_T7_W @ vals) * w))
    return total


# ---------------------------------------------------------------------------
# dissipation functionals
# ---------------------------------------------------------------------------

@dataclass
class EnergyReport:
    t: float
    E: float
    F: float
    L: float
    A: float
    D_H: float
    D_V: float
    cross_v_xi: float        # int |d phi_V/ds - d(div xi)/ds|^2
    cross_xi: float          # int |d(div xi)/ds|^2
    cross_h_b: float         # int |d kappa/ds - d phi_(nu.B)/ds|^2
    verdicts: dict = field(default_factory=dict)

    def as_row(self):
        return [self.t, self.E, self.F, self.L, self.A, self.D_H, self.D_V,
                self.cross_v_xi, self.cross_xi, self.cross_h_b]


CSV_COLUMNS = ["t", "E", "F", "L", "A", "D_H", "D_V",
               "cross1", "cross2", "cross3", "verdicts"]


def dissipation_report(curve: PolyCurve, sample: TubeSample, calib: Calibration,
                       b_field, velocity: np.ndarray | None) -> EnergyReport:
    """Assemble the per-sample energy bookkeeping of ``curve`` at ``sample.t``.

    ``sample`` holds the tube fields at the vertices of ``curve``.
    ``b_field`` may be None for a stationary reference (B = 0); the stacked
    normal ``velocity`` may be None when no velocity data exists (the D_V
    family is zero then).
    """
    t = sample.t
    geom = sample.geometry
    dkappa = dds(geom, geom.kappa)
    ddiv = dds(geom, sample.div_xi)
    d_v = cross_v_xi = 0.0
    if velocity is not None:
        phi_v = velocity_potential(geom, velocity - field_mean(geom, velocity)[geom.layout.comp])
        dphi = dds(geom, phi_v)
        d_v = np.sum(integrate(geom, dphi**2))
        cross_v_xi = np.sum(integrate(geom, (dphi - ddiv)**2))
    # B = 0 for a stationary reference, so phi_(nu.B) = 0
    dphib = 0.0 if b_field is None else dds(
        geom, nu_dot_B_potential(geom, b_field.at(geom.vertices)))
    return EnergyReport(t=float(t), E=relative_energy(sample), F=bulk_error(curve, calib, t),
                        L=float(sum(geom.length)), A=float(sum(geom.area)),
                        D_H=float(np.sum(integrate(geom, dkappa**2))), D_V=float(d_v),
                        cross_v_xi=float(cross_v_xi),
                        cross_xi=float(np.sum(integrate(geom, ddiv**2))),
                        cross_h_b=float(np.sum(integrate(geom, (dkappa - dphib)**2))))


# ---------------------------------------------------------------------------
# Gronwall fit
# ---------------------------------------------------------------------------

@dataclass
class GronwallResult:
    c_fit: float
    c_integral: float
    verdict: str
    floor: float
    initial: float
    series: list


def gronwall_verdict(reports: list[EnergyReport], floor: float = 1e-7,
                     c_max: float = 1e3) -> GronwallResult:
    """Smallest C with E+F <= C exp(Ct) (E0+F0) and the integral form.

    Both the exponential and the trapezoidal integral form must hold at
    every sample for the fitted C; the verdict is PASS when such a finite C
    exists below c_max.  The t=0 sample forces the literal exponential form
    to C >= 1, so the integral-form constant (zero for a nonincreasing
    series) is reported separately.  A start at the quadrature floor with
    later growth beyond it falsifies uniqueness and raises
    DegenerateInitialData.
    """
    if len(reports) < 10:
        raise ValueError("need at least 10 samples for a Gronwall fit")
    t = np.array([r.t for r in reports])
    s = np.array([r.E + r.F for r in reports])
    s0 = s[0]
    if s0 <= floor:
        if np.any(s > 10.0 * floor):
            raise DegenerateInitialData(
                f"E+F started at {s0:.2e} but reached {s.max():.2e}"
            )
        return GronwallResult(c_fit=0.0, c_integral=0.0, verdict="PASS-TRIVIAL",
                              floor=floor, initial=float(s0),
                              series=list(map(float, s)))

    cum = np.concatenate([[0.0], np.cumsum(0.5 * (s[1:] + s[:-1]) * np.diff(t))])
    with np.errstate(divide="ignore"):
        c_int = float(np.max((s[1:] - s0) / np.maximum(cum[1:], 1e-300)))
    c_int = max(0.0, c_int)

    def ok(c):
        with np.errstate(over="ignore"):
            if np.any(s > c * np.exp(c * t) * s0 + 1e-30):
                return False
        return not np.any(s - s0 > c * cum + 1e-30)

    lo_c, hi_c = 0.0, c_max
    if not ok(hi_c):
        return GronwallResult(c_fit=np.inf, c_integral=c_int, verdict="FAIL",
                              floor=floor, initial=float(s0),
                              series=list(map(float, s)))
    for _ in range(60):
        mid = 0.5 * (lo_c + hi_c)
        if ok(mid):
            hi_c = mid
        else:
            lo_c = mid
    return GronwallResult(c_fit=float(hi_c), c_integral=c_int, verdict="PASS",
                          floor=floor, initial=float(s0),
                          series=list(map(float, s)))


# ---------------------------------------------------------------------------
# component-wise boundary flux and the two nu . B sum inequalities
# ---------------------------------------------------------------------------

def edge_flux(vector_field, geom: CurveGeometry) -> np.ndarray:
    """int nu . B over each component, with 4-point Gauss per edge.

    ``vector_field`` is called once, on the Gauss points of every edge of
    every component.  Per-edge quadrature makes the divergence theorem exact
    for constant fields (the rotated edge vectors telescope), which the
    checkers rely on.
    """
    starts, ends, _, _ = geom.curve.segments
    e = ends - starts
    elen = geom.edge_lengths
    nu_e = np.column_stack([e[:, 1], -e[:, 0]]) / elen[:, None]
    pts = starts + _G4X[:, None, None] * e
    vals = np.reshape(vector_field(np.reshape(pts, (-1, 2))), pts.shape)
    per_edge = elen * np.sum(nu_e * vals, axis=2)
    return _G4W @ np.add.reduceat(per_edge, geom.layout.first, axis=1)


@dataclass
class NuDotBReport:
    sum_abs: float
    sum_scaled: float
    bound_abs: float
    bound_scaled: float
    slack_abs: float
    slack_scaled: float
    hypothesis_failures: int
    floor: float


def nu_dot_B_sums(geom: CurveGeometry, b_field, calib: Calibration,
                  xi_grad_bound: float, f_value: float, e_value: float) -> NuDotBReport:
    """Check both component-flux inequalities with the constructive constants.

    First: sum_i |int nu . B| <= (2R/delta) ||div B||_inf F.  Second: the
    length-normalized sum is bounded by the same quantity times ||B||_inf
    plus 34 ||div B||_inf E, splitting components at length 1/||B||_inf.
    Components failing the diameter hypothesis of the small-component bound
    (``xi_grad_bound`` is sup |grad xi|) are counted, not silently dropped.
    """
    fluxes = edge_flux(b_field.at, geom)
    lengths = geom.length
    sum_abs = float(np.sum(np.abs(fluxes)))
    sum_scaled = float(np.sum(np.abs(fluxes) / lengths))

    r_supp = b_field.support_radius
    div_sup = b_field.div_sup
    sup_b = b_field.sup_norm
    bound_abs = (2.0 * r_supp / calib.delta) * div_sup * f_value

    small = np.flatnonzero(lengths <= 1.0 / sup_b) if sup_b > 0 else []
    hyp_fail = (int(np.sum(geom.curve.diameters[small] > 1.0 / (2.0 * xi_grad_bound)))
                if len(small) else 0)
    bound_scaled = sup_b * bound_abs + 34.0 * div_sup * e_value

    # 4-point Gauss flux error floor for analytic integrands
    quadrature_floor = 1e-9 * max(sup_b, 1.0) * float(np.sum(lengths))
    return NuDotBReport(
        sum_abs=sum_abs, sum_scaled=sum_scaled,
        bound_abs=bound_abs, bound_scaled=bound_scaled,
        slack_abs=bound_abs - sum_abs + quadrature_floor,
        slack_scaled=bound_scaled - sum_scaled + quadrature_floor,
        hypothesis_failures=hyp_fail, floor=quadrature_floor,
    )


# ---------------------------------------------------------------------------
# small-component area bound with the explicit constant 34
# ---------------------------------------------------------------------------

@dataclass
class BubbleVerdict:
    component: int
    applicable: bool
    length: float
    tilt_integral: float
    slack: float


def small_component_area_check(sample: TubeSample,
                               xi_grad_bound: float) -> list[BubbleVerdict]:
    """length <= 34 int (1 - xi . nu) for components small against 1/(2|grad xi|)."""
    geom = sample.geometry
    applicable = (np.ones(len(geom.length), dtype=bool) if xi_grad_bound <= 0.0
                  else geom.curve.diameters <= 1.0 / (2.0 * xi_grad_bound))
    return [BubbleVerdict(component=k, applicable=bool(applicable[k]),
                          length=float(geom.length[k]), tilt_integral=float(sample.tilt[k]),
                          slack=float(34.0 * sample.tilt[k] - geom.length[k]))
            for k in range(len(geom.length))]


# ---------------------------------------------------------------------------
# stationary-reference gradient bound
# ---------------------------------------------------------------------------

def stationary_gradient_ratio(report: EnergyReport, calib: Calibration) -> float:
    """int |d(div xi)/ds|^2 over E for a stationary reference, from one report.

    The bound with a reference-only constant needs the reference curvature
    gradient to vanish; circles qualify, anything else is rejected.
    """
    ref = calib.reference
    if not isinstance(ref, AnalyticCircles):
        if not ref.stationary:
            raise NonStationaryReference("reference evolves in time")
        geom = ref.geometry_at(report.t)
        first = geom.layout.first
        grad = np.maximum.reduceat(np.abs(dds(geom, geom.kappa)), first)
        if np.any(grad > 1e-3 * np.maximum(1.0, np.maximum.reduceat(np.abs(geom.kappa),
                                                                    first))):
            raise NonStationaryReference("reference curvature is not constant per component")
    return report.cross_xi / report.E if report.E > 0 else 0.0


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def reports_to_csv(reports: list[EnergyReport], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            flags = ";".join(f"{k}={v}" for k, v in sorted(r.verdicts.items()))
            writer.writerow([repr(float(x)) for x in r.as_row()] + [flags])

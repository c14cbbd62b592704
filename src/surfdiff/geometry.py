"""Discrete closed planar curves and their differential geometry.

A curve is a forest of closed polygonal components.  Outer boundaries are
stored counter-clockwise with orientation +1, holes clockwise with -1, so
the enclosed material always lies to the left of traversal and the outward
normal is the tangent rotated by -90 degrees.  All per-vertex calculus
(arc weights, centered derivatives, turning-angle curvature) lives here and
is shared by every other module.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import (
    AmbiguousNesting,
    DegenerateEdge,
    SelfIntersection,
)

EDGE_FLOOR_REL = 1e-12      # min edge length relative to component diameter
SIMPLICITY_TOL_REL = 1e-10  # segment clearance relative to curve diameter
NESTING_TOL = 1e-10         # absolute clearance for the nesting probe vertex


# ---------------------------------------------------------------------------
# curve containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Component:
    """One closed polygonal loop: vertices (n, 2) and an orientation flag."""

    vertices: np.ndarray
    orientation: int = 1

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite (no NaN or inf)")
        object.__setattr__(self, "vertices", v)
        if self.orientation not in (+1, -1):
            raise ValueError("orientation must be +1 or -1")

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    def signed_area(self) -> float:
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def length(self) -> float:
        return float(np.sum(np.linalg.norm(np.roll(self.vertices, -1, axis=0)
                                           - self.vertices, axis=1)))


class PolyCurve:
    """A forest of disjoint simple closed components, holes included.

    Construction checks the cheap invariants (vertex counts, edges against
    a floor relative to each component's diameter, orientation/area
    consistency, positive total area) without a hull; ``diameters`` (one
    per component) and ``diameter`` (over all components) are computed on
    first read.  The embeddedness test runs in :func:`check_embedded`, which
    :func:`build_geometry` invokes.
    """

    def __init__(self, components):
        comps = []
        for c in components:
            if not isinstance(c, Component):
                c = Component(np.asarray(c, dtype=float))
            comps.append(c)
        if not comps:
            raise ValueError("a curve needs at least one component")
        self.components: list[Component] = comps
        self._validate()

    def _validate(self):
        comps = self.components
        for k, c in enumerate(comps):
            if c.n < 8:
                raise ValueError(f"component {k} has {c.n} < 8 vertices")
        starts, ends, _, _ = self.segments
        first = self.layout.first
        hmin = np.minimum.reduceat(self.edge_lengths, first)
        # the box diagonal bounds the diameter from above, in floating point
        # too (a caliper distance |p - q| rounds along the same monotone
        # path), so only a component within the floor of its bound reads its
        # exact diameter
        box = np.maximum.reduceat(starts, first) - np.minimum.reduceat(starts, first)
        short = hmin <= EDGE_FLOOR_REL * np.sqrt(np.sum(box ** 2, axis=1))
        if np.any(short):
            diam = self.diameters
            short &= (diam <= 0.0) | (hmin <= EDGE_FLOOR_REL * diam)
        area = 0.5 * np.add.reduceat(starts[:, 0] * ends[:, 1] - ends[:, 0] * starts[:, 1],
                                     first)
        flipped = np.sign(area) != [c.orientation for c in comps]
        if np.any(short | flipped):
            k = int(np.argmax(short | flipped))
            if short[k]:
                raise DegenerateEdge(f"component {k} has an edge below the length floor")
            raise ValueError(f"component {k}: signed area {area[k]:.3e} "
                             f"contradicts orientation {comps[k].orientation}")
        if area.sum() <= 0.0:
            raise ValueError("total signed enclosed area must be positive")

    @cached_property
    def _calipers(self) -> np.ndarray:
        """Each component's diameter and, with several components, the curve's.

        One caliper pass on first read: the hull of the union is the hull of
        the component hulls' vertices.
        """
        hulls = [_hull(c.vertices) for c in self.components]
        if len(hulls) > 1:
            hulls.append(_hull(np.vstack(hulls)))
        diams = _diameters(hulls)
        diams.flags.writeable = False
        return diams

    @property
    def diameters(self) -> np.ndarray:
        """Largest vertex-to-vertex distance of each component, (K,), read-only."""
        return self._calipers[:self.ncomponents]

    @property
    def diameter(self) -> float:
        """Largest vertex-to-vertex distance over all components."""
        return float(self._calipers[-1])

    @property
    def ncomponents(self) -> int:
        return len(self.components)

    @cached_property
    def layout(self) -> "CycleLayout":
        """The cycle index arrays of the components, stacked in order."""
        return cycle_layout(tuple(c.n for c in self.components))

    @cached_property
    def segments(self):
        """Edges of all components, flattened: starts, ends, component, local index.

        Built once per curve (``components`` is only assigned in
        ``__init__``) and shared by every reader, so the arrays are read-only.
        """
        lay = self.layout
        starts = np.vstack([c.vertices for c in self.components])
        ends = starts[lay.nxt]
        starts.flags.writeable = ends.flags.writeable = False
        return starts, ends, lay.comp, lay.local

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        """Length of every edge of ``segments``, measured once per curve; read-only."""
        starts, ends, _, _ = self.segments
        h = np.linalg.norm(ends - starts, axis=1)
        h.flags.writeable = False
        return h

    def with_vertices(self, vertices) -> "PolyCurve":
        """The curve at these stacked vertices, its components' orientations kept."""
        return PolyCurve([Component(v, c.orientation) for v, c
                          in zip(np.split(vertices, self.layout.split), self.components)])

    def signed_area(self) -> float:
        return sum(c.signed_area() for c in self.components)

    def length(self) -> float:
        return sum(c.length() for c in self.components)

    def rotated(self, angle: float) -> "PolyCurve":
        c, s = np.cos(angle), np.sin(angle)
        return self.with_vertices(self.segments[0] @ np.array([[c, -s], [s, c]]).T)


# ---------------------------------------------------------------------------
# shape builders used across tests and the scenario runner
# ---------------------------------------------------------------------------

def make_circle(center, radius, n, orientation=1) -> Component:
    """Regular n-gon on a circle; orientation -1 stores it clockwise (a hole)."""
    t = 2.0 * np.pi * np.arange(n) / n
    if orientation < 0:
        t = -t
    cx, cy = center
    v = np.column_stack([cx + radius * np.cos(t), cy + radius * np.sin(t)])
    return Component(v, orientation)


def make_ellipse(a, b, n, center=(0.0, 0.0)) -> Component:
    t = 2.0 * np.pi * np.arange(n) / n
    cx, cy = center
    v = np.column_stack([cx + a * np.cos(t), cy + b * np.sin(t)])
    return Component(v, 1)


def make_wavy_circle(radius, amplitude, mode, n, center=(0.0, 0.0),
                     normalize_area=False) -> Component:
    """r(t) = radius * (1 + amplitude*cos(mode*t)), optionally area-matched.

    With ``normalize_area`` the shape is rescaled so its enclosed area equals
    pi*radius^2 exactly (the polygon's own shoelace area is matched).
    """
    t = 2.0 * np.pi * np.arange(n) / n
    r = radius * (1.0 + amplitude * np.cos(mode * t))
    cx, cy = center
    v = np.column_stack([cx + r * np.cos(t), cy + r * np.sin(t)])
    comp = Component(v, 1)
    if normalize_area:
        target = Component(make_circle(center, radius, n).vertices, 1).signed_area()
        scale = np.sqrt(target / comp.signed_area())
        c = np.array([cx, cy])
        comp = Component(c + scale * (v - c), 1)
    return comp


# ---------------------------------------------------------------------------
# stacked geometry and discrete calculus
# ---------------------------------------------------------------------------

CycleLayout = namedtuple("CycleLayout", "nxt prv first comp local split counts")


def cycle_index(lengths) -> CycleLayout:
    """Read-only index arrays of cycles of these lengths, stacked end to end.

    ``nxt``, ``prv``: every entry's cyclic neighbours; ``comp``, ``local``:
    its cycle and its place there; ``first``, ``split``: the offsets of
    ``np.add.reduceat`` and ``np.split``; ``counts``: the lengths.  Not
    cached: callers whose lengths change on every call (hulls, clipped
    polygons) use it directly.
    """
    counts = np.asarray(lengths, dtype=np.intp)
    first = np.cumsum(counts) - counts
    comp = np.repeat(np.arange(len(counts)), counts)
    ids = np.arange(counts.sum())
    start = first[comp]
    last = start + counts[comp] - 1
    lay = CycleLayout(nxt=np.where(ids == last, start, ids + 1),
                      prv=np.where(ids == start, last, ids - 1),
                      first=first, comp=comp, local=ids - start, split=first[1:],
                      counts=counts)
    for a in lay:
        a.flags.writeable = False
    return lay


@lru_cache(maxsize=32)
def cycle_layout(lengths: tuple) -> CycleLayout:
    """:func:`cycle_index` of a tuple of lengths, cached.

    A flow run has one or two length tuples, so all its steps share one set
    of arrays.
    """
    return cycle_index(lengths)


def cycle_arc(h: np.ndarray, lay: CycleLayout):
    """Arc position of every entry from its cycle's first, and each cycle's total.

    ``h[i]`` is the step from entry i to its successor.  One cumulative sum
    runs over all cycles laid end to end; each cycle's start is subtracted.
    """
    arc = np.cumsum(h)
    base = np.concatenate(([0.0], arc[lay.split - 1]))
    return (np.concatenate(([0.0], arc[:-1])) - base[lay.comp],
            arc[lay.first + lay.counts - 1] - base)


@dataclass(frozen=True)
class CurveGeometry:
    """Per-vertex differential geometry of a curve, every component stacked.

    The per-vertex arrays run over ``curve.segments``: ``vertices`` is its
    starts array and ``edge_lengths`` the curve's own, and ``layout`` gives
    each vertex's cyclic neighbours and component.  edge_lengths[i] is the
    edge from vertex i to its successor; weights[i] is the half-sum of the
    edges at vertex i, its quadrature weight; kappa[i] is the turning angle
    at vertex i divided by weights[i], which makes each component's
    sum(kappa * weights) its total turning angle exactly.  arc_positions
    restart at 0 in each component; ``length`` and ``area`` hold one entry
    per component.  Every array is read-only, so threads may share it.
    """

    curve: PolyCurve
    layout: CycleLayout
    vertices: np.ndarray
    edge_lengths: np.ndarray
    arc_positions: np.ndarray
    weights: np.ndarray
    tau: np.ndarray
    nu: np.ndarray
    kappa: np.ndarray
    length: np.ndarray
    area: np.ndarray

    def __post_init__(self):
        for a in (self.vertices, self.edge_lengths, self.arc_positions, self.weights,
                  self.tau, self.nu, self.kappa, self.length, self.area):
            a.flags.writeable = False


def _hull(vertices: np.ndarray) -> np.ndarray:
    """Convex hull vertices in counter-clockwise order.

    Collinear or coincident input has no hull; its two extremes, found by
    two farthest-point sweeps, stand in for it (exact on a line).
    """
    try:
        return vertices[ConvexHull(vertices).vertices]
    except QhullError:
        far = vertices[np.argmax(np.sum((vertices - vertices[0]) ** 2, axis=1))]
        return np.array([far, vertices[np.argmax(np.sum((vertices - far) ** 2, axis=1))]])


def _diameters(hulls) -> np.ndarray:
    """Largest vertex distance of each hull, by one rotating-calipers pass
    over all hulls stacked (Toussaint 1983).

    Hull vertex i+1 is antipodal to every vertex from the support of edge i
    (the hull vertex farthest to its left) through the support of edge i+1;
    each range is widened by one vertex against rounding at parallel edges.
    A two-point hull (collinear input) is its own diameter.
    """
    sizes = np.array([len(h) for h in hulls], dtype=np.intp)
    out = np.zeros(len(hulls))
    flat = sizes < 3
    if np.any(flat):
        ends = np.array([h[[0, -1]] for h in hulls if len(h) < 3])
        out[flat] = np.sqrt(np.sum((ends[:, 0] - ends[:, 1]) ** 2, axis=1))
    if np.all(flat):
        return out
    pts = np.vstack([h for h in hulls if len(h) >= 3])
    sizes = sizes[~flat]
    n = len(pts)
    ids = np.arange(n)
    lay = cycle_index(sizes)
    hid, local, nxt = lay.comp, lay.local, lay.nxt
    first = lay.first[hid]
    m = sizes[hid]
    edges = pts[nxt] - pts
    raw = np.arctan2(edges[:, 1], edges[:, 0])
    # unwrap each hull's edge angles from its first edge, as np.unwrap does
    jump = np.where(local > 0, raw - np.roll(raw, 1), 0.0)
    wraps = np.cumsum((jump < -np.pi).astype(np.intp) - (jump > np.pi))
    angle = raw + 2.0 * np.pi * (wraps - wraps[first])
    # support[i]: how many of its hull's doubled angles lie below angle[i] + pi,
    # from one sort of all hulls' doubled angles and targets by (hull, angle),
    # targets first on ties
    order = np.lexsort((np.r_[np.ones(2 * n), np.zeros(n)],
                        np.r_[angle, angle + 2.0 * np.pi, angle + np.pi],
                        np.r_[hid, hid, hid]))
    is_target = order >= 2 * n
    target = order[is_target] - 2 * n
    support = np.empty(n, dtype=np.intp)
    support[target] = np.flatnonzero(is_target) - ids - 2 * first[target]
    counts = support[nxt] + np.where(local == m - 1, m, 0) - support + 3
    start = np.cumsum(counts) - counts
    a = np.repeat(first + (local + 1) % m, counts)
    b = (np.repeat(first, counts)
         + (np.repeat(support - 1 - start, counts) + np.arange(counts.sum()))
         % np.repeat(m, counts))
    d2 = np.sum((pts[a] - pts[b]) ** 2, axis=1)
    out[~flat] = np.sqrt(np.maximum.reduceat(d2, start[local == 0]))
    return out


def build_geometry(curve: PolyCurve) -> CurveGeometry:
    """The stacked geometry of every component, from one pass over the segments.

    Raises if the curve is not embedded.  Each length and area is its own
    component's slice summed by ``np.sum`` (``np.add.reduceat`` adds in
    another order), the sums the flow's length and area tests read.
    """
    check_embedded(curve)
    v, ends, _, _ = curve.segments
    lay = curve.layout
    h = curve.edge_lengths
    edges = ends - v
    w = 0.5 * (h + h[lay.prv])
    chord = ends - v[lay.prv]
    tau = chord / np.linalg.norm(chord, axis=1)[:, None]
    em = edges[lay.prv]
    turn = np.arctan2(em[:, 0] * edges[:, 1] - em[:, 1] * edges[:, 0],
                      np.sum(em * edges, axis=1))
    cross = v[:, 0] * ends[:, 1] - ends[:, 0] * v[:, 1]
    parts = [slice(a, a + n) for a, n in zip(lay.first, lay.counts)]
    return CurveGeometry(
        curve=curve, layout=lay, vertices=v, edge_lengths=h,
        arc_positions=cycle_arc(h, lay)[0], weights=w, tau=tau,
        nu=np.column_stack([tau[:, 1], -tau[:, 0]]), kappa=turn / w,
        length=np.array([np.sum(h[p]) for p in parts]),
        area=np.array([0.5 * np.sum(cross[p]) for p in parts]))


def integrate(geom: CurveGeometry, values: np.ndarray) -> np.ndarray:
    """Vertex-weighted quadrature of a stacked field over each component, (K,)."""
    return np.add.reduceat(geom.weights * values, geom.layout.first)


def field_mean(geom: CurveGeometry, values: np.ndarray) -> np.ndarray:
    return integrate(geom, values) / geom.length


def dds(geom: CurveGeometry, values: np.ndarray) -> np.ndarray:
    """Cyclic centered arc-length derivative with nonuniform weights."""
    values = np.asarray(values, dtype=float)
    lay = geom.layout
    return (values[lay.nxt] - values[lay.prv]) / (2.0 * geom.weights)


def d2ds2(geom: CurveGeometry, values: np.ndarray) -> np.ndarray:
    """Cyclic three-point second arc derivative on the nonuniform grid."""
    values = np.asarray(values, dtype=float)
    lay = geom.layout
    h = geom.edge_lengths
    fwd = (values[lay.nxt] - values) / h
    bwd = (values - values[lay.prv]) / h[lay.prv]
    return (fwd - bwd) / geom.weights


# ---------------------------------------------------------------------------
# embeddedness: k-d tree broad phase + exact segment tests
# ---------------------------------------------------------------------------

def _point_segment_dist(p, a, b):
    ab = b - a
    ap = p - a
    denom = np.sum(ab * ab, axis=-1)
    t = np.clip(np.sum(ap * ab, axis=-1) / np.maximum(denom, 1e-300), 0.0, 1.0)
    foot = a + t[..., None] * ab
    return np.linalg.norm(p - foot, axis=-1)


def _segment_segment_dist(a0, a1, b0, b1):
    """Min distance between segment pairs; zero when they properly cross."""
    d = np.minimum.reduce([
        _point_segment_dist(a0, b0, b1),
        _point_segment_dist(a1, b0, b1),
        _point_segment_dist(b0, a0, a1),
        _point_segment_dist(b1, a0, a1),
    ])
    da = a1 - a0
    db = b1 - b0
    cross = lambda u, v: u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    s1 = cross(da, b0 - a0)
    s2 = cross(da, b1 - a0)
    s3 = cross(db, a0 - b0)
    s4 = cross(db, a1 - b0)
    proper = (s1 * s2 < 0) & (s3 * s4 < 0)
    return np.where(proper, 0.0, d)


def _segment_pairs_within(starts, ends, h, reach):
    """Pairs (i, j), i < j, unordered, among them every segment pair closer than reach.

    Points of a segment lie within half its length h (``h`` holds them) of
    its midpoint m, so a pair closer than reach has |m_i - m_j| <
    (h_i + h_j)/2 + reach (the triangle inequality): a k-d tree lists the
    midpoint pairs within h_max + reach (Bentley 1975), and the per-pair
    bound filters them.  Both radii carry a slack of 1e-12 of the largest
    coordinate, far above the rounding of the midpoints, lengths and
    distances compared.
    """
    mid = 0.5 * (starts + ends)
    reach = reach + 1e-12 * np.abs(starts).max()
    pi, pj = cKDTree(mid).query_pairs(h.max() + reach, output_type="ndarray").T
    z = mid[:, 0] + 1j * mid[:, 1]
    near = np.abs(z[pi] - z[pj]) <= 0.5 * (h[pi] + h[pj]) + reach
    return pi[near], pj[near]


def check_embedded(curve: PolyCurve) -> None:
    """Reject self-crossing components and touching component pairs.

    Segment pairs closer than SIMPLICITY_TOL_REL times the curve's box
    diagonal, an upper bound of its diameter, come from a k-d tree on the
    segment midpoints; the exact tolerance, SIMPLICITY_TOL_REL times the
    diameter, is computed only if one of them is that close.  The first bad
    pair in (i, j) order names the error.
    """
    starts, ends, comp_of, local_of = curve.segments
    dx, dy = np.ptp(starts[:, 0]), np.ptp(starts[:, 1])
    tol = SIMPLICITY_TOL_REL * np.sqrt(dx * dx + dy * dy)
    pi, pj = _segment_pairs_within(starts, ends, curve.edge_lengths, tol)
    same = comp_of[pi] == comp_of[pj]
    # cyclically adjacent segments of the same component legitimately touch
    gap = np.abs(local_of[pi] - local_of[pj])
    keep = ~(same & ((gap <= 1) | (gap >= np.bincount(comp_of)[comp_of[pi]] - 1)))
    pi, pj, same = pi[keep], pj[keep], same[keep]
    if len(pi) == 0:
        return
    dist = _segment_segment_dist(starts[pi], ends[pi], starts[pj], ends[pj])
    bad = dist < tol
    if np.any(bad):
        bad = dist < SIMPLICITY_TOL_REL * curve.diameter
    if np.any(bad):
        b = np.flatnonzero(bad)
        b = b[np.lexsort((pj[b], pi[b]))[0]]
        if same[b]:
            raise SelfIntersection(
                f"component {comp_of[pi[b]]} self-intersects near segment {local_of[pi[b]]}"
            )
        raise SelfIntersection(
            f"components {comp_of[pi[b]]} and {comp_of[pj[b]]} touch or cross"
        )


# ---------------------------------------------------------------------------
# point-in-polygon and region classification
# ---------------------------------------------------------------------------

def _buckets(lo: np.ndarray, hi: np.ndarray):
    """Uniform buckets over [min lo, max hi]; interval i is listed in every bucket it meets.

    Returns (base, top, width, start, items): bucket b holds the interval ids
    items[start[b]:start[b + 1]].  Bucket indices are monotone in the value,
    so an interval holding q always shares q's bucket.
    """
    nb = max(1, len(lo))
    base, top = float(lo.min()), float(hi.max())
    width = (top - base) / nb or 1.0
    b0 = np.minimum(((lo - base) / width).astype(np.int64), nb - 1)
    span = np.minimum(((hi - base) / width).astype(np.int64), nb - 1) - b0 + 1
    first = np.cumsum(span) - span
    bucket = np.repeat(b0 - first, span) + np.arange(span.sum())
    order = np.argsort(bucket, kind="stable")
    start = np.searchsorted(bucket[order], np.arange(nb + 1))
    return base, top, width, start, np.repeat(np.arange(len(lo)), span)[order]


def _bucket_pairs(buckets, q: np.ndarray):
    """(query, interval) index pairs sharing a bucket: a superset of lo <= q <= hi."""
    base, top, width, start, items = buckets
    k = np.nonzero((q >= base) & (q <= top))[0]
    b = np.minimum(((q[k] - base) / width).astype(np.int64), len(start) - 2)
    cnt = start[b + 1] - start[b]
    pos = np.repeat(start[b] - (np.cumsum(cnt) - cnt), cnt) + np.arange(cnt.sum())
    return np.repeat(k, cnt), items[pos]


_PARITY_CHUNK = 1 << 14     # query points per batch of the crossing test


def crossing_parity(points: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                    group: np.ndarray | None = None, ngroups: int = 1) -> np.ndarray:
    """Even-odd parity of +x ray crossings, per point and per edge group.

    Edges are bucketed by their y-range (E. Haines, "Point in Polygon
    Strategies", Graphics Gems IV, 1994), so each point tests only the edges
    whose y-range spans it.  The half-open rule min(y0, y1) <= y < max(y0, y1)
    keeps a vertex on the ray from counting twice.  Returns (n, ngroups) bool;
    ``group`` maps each edge to its group (all edges in group 0 by default).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros((len(points), ngroups), dtype=bool)
    sel = np.nonzero(starts[:, 1] != ends[:, 1])[0]   # horizontal edges never cross
    if len(sel) == 0:
        return out
    group = np.zeros(len(starts), dtype=np.int64) if group is None else group
    y0, y1 = starts[sel, 1], ends[sel, 1]
    buckets = _buckets(np.minimum(y0, y1), np.maximum(y0, y1))
    for a in range(0, len(points), _PARITY_CHUNK):
        pts = points[a:a + _PARITY_CHUNK]
        k, e = _bucket_pairs(buckets, pts[:, 1])
        e = sel[e]
        v0, v1 = starts[e], ends[e]
        x, y = pts[k, 0], pts[k, 1]
        cond = (v0[:, 1] > y) != (v1[:, 1] > y)
        t = (y - v0[:, 1]) / (v1[:, 1] - v0[:, 1])
        hit = cond & (v0[:, 0] + t * (v1[:, 0] - v0[:, 0]) > x)
        counts = np.bincount(k[hit] * ngroups + group[e[hit]], minlength=len(pts) * ngroups)
        out[a:a + _PARITY_CHUNK] = (counts % 2 == 1).reshape(len(pts), ngroups)
    return out


def points_in_component(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Crossing-number test of points against one closed polygon."""
    return crossing_parity(points, vertices, np.roll(vertices, -1, axis=0))[:, 0]


def region_contains(curve: PolyCurve, points: np.ndarray) -> np.ndarray:
    """Even-odd membership of points in the region enclosed by the forest."""
    starts, ends, _, _ = curve.segments
    return crossing_parity(points, starts, ends)[:, 0]


# ---------------------------------------------------------------------------
# Jordan decomposition
# ---------------------------------------------------------------------------

@dataclass
class JordanForest:
    """Nesting structure of the component forest.

    boundaries[k] = (component_id, sign) with sign +1 for outer Jordan
    curves (even nesting depth) and -1 for inner ones; parent[k] is the
    index of the tightest enclosing component or -1 at the roots; regions
    lists, per outer boundary, the ids of its direct holes.
    """

    boundaries: list[tuple[int, int]]
    parent: list[int]
    depth: list[int]
    regions: list[tuple[int, list[int]]]

    def total_perimeter(self, curve: PolyCurve) -> float:
        return sum(curve.components[cid].length() for cid, _ in self.boundaries)


def jordan_decompose(curve: PolyCurve) -> JordanForest:
    """Classify components into nested Jordan boundaries by containment parity."""
    k = curve.ncomponents
    comps = curve.components
    starts, ends, comp_of, _ = curve.segments
    # probe i is the first vertex of component i; its own component is skipped
    off = curve.layout.first
    probes = starts[off]
    dist = np.minimum.reduceat(
        _point_segment_dist(probes[:, None, :], starts[None, :, :], ends[None, :, :]),
        off, axis=1)
    np.fill_diagonal(dist, np.inf)
    near = np.argwhere(dist < NESTING_TOL)
    if len(near):
        i, j = near[0]
        raise AmbiguousNesting(
            f"vertex of component {i} lies within {NESTING_TOL} of component {j}"
        )
    contains = crossing_parity(probes, starts, ends, comp_of, k).T
    np.fill_diagonal(contains, False)

    depth = contains.sum(axis=0).astype(int)
    parent = [-1] * k
    for i in range(k):
        holders = [j for j in range(k) if contains[j, i]]
        if holders:
            parent[i] = max(holders, key=lambda j: depth[j])

    boundaries = []
    for i in range(k):
        sign = +1 if depth[i] % 2 == 0 else -1
        expected = +1 if sign > 0 else -1
        if comps[i].orientation != expected:
            raise ValueError(
                f"component {i} at nesting depth {depth[i]} should have orientation "
                f"{expected}, got {comps[i].orientation}"
            )
        boundaries.append((i, sign))

    regions = []
    for i in range(k):
        if depth[i] % 2 == 0:
            holes = [j for j in range(k) if parent[j] == i]
            regions.append((i, holes))

    return JordanForest(boundaries=boundaries, parent=parent,
                        depth=[int(d) for d in depth], regions=regions)


# ---------------------------------------------------------------------------
# scalar diagnostics
# ---------------------------------------------------------------------------

def gauss_bonnet_residual(geom: CurveGeometry) -> np.ndarray:
    """|sum(kappa ds) - orientation * 2 pi| for each component, (K,)."""
    orientation = np.array([c.orientation for c in geom.curve.components])
    return np.abs(integrate(geom, geom.kappa) - orientation * 2.0 * np.pi)


def poincare_ratio(geom: CurveGeometry, u: np.ndarray, p: float) -> np.ndarray:
    """||u - <u>||_p^p / (diam^p ||du/ds||_p^p) per component; zero for constant fields."""
    if p < 1:
        raise ValueError("p must be >= 1")
    u = np.asarray(u, dtype=float)
    if u.shape != geom.weights.shape:
        raise ValueError("field length does not match the curve")
    num = integrate(geom, np.abs(u - field_mean(geom, u)[geom.layout.comp]) ** p)
    den = geom.curve.diameters ** p * integrate(geom, np.abs(dds(geom, u)) ** p)
    ratio = np.zeros(len(num))
    np.divide(num, den, out=ratio, where=den > 1e-300 * np.maximum(1.0, num))
    return ratio


# ---------------------------------------------------------------------------
# fast closest-point queries against a polygonal forest
# ---------------------------------------------------------------------------

_QUERY_PAIRS = 1 << 16      # (point, candidate segment) pairs per closest-segment batch


class CurveIndex:
    """Closest-point and signed-distance queries against a polygonal forest.

    A k-d tree holds the vertices.  The k nearest vertices of a point
    (k = 4 first) name its candidate segments, the two that meet at each,
    evaluated in one vectorised (points x 2k) pass.  Any other segment has
    both endpoints a, b at least d_k (the k-th vertex distance) away.  Its
    closest point f to p is an endpoint, or the foot of the perpendicular
    from p; then |p - f|^2 = |p - a|^2 - |f - a|^2 = |p - b|^2 - |f - b|^2,
    and f lies within h_max/2 of a or of b.  Either way the segment is at
    least sqrt(d_k^2 - h_max^2/4) away, so the best candidate is the closest
    segment when its squared distance is at most d_k^2 - h_max^2/4.  Points
    failing this guard are queried again with k four times larger, up to
    every vertex.

    The distance returned is norm(point - foot) with foot = a + t (b - a),
    the vector the gradient (point - foot) / s divides, so |grad s| = 1 to
    rounding even where s is itself at rounding level.  Where two segments
    are exactly equally close, either may be returned.

    Sign convention: negative inside the enclosed region, positive outside,
    matching dist(x, region) - dist(x, complement).
    """

    def __init__(self, curve: PolyCurve, geometry: CurveGeometry | None = None):
        self.curve = curve
        self.geometry = geometry if geometry is not None else build_geometry(curve)
        self.seg_start, self.seg_end, self.seg_comp, self.seg_local = curve.segments
        self.seg_vec = self.seg_end - self.seg_start
        self.seg_len2 = np.maximum(np.sum(self.seg_vec * self.seg_vec, axis=1), 1e-300)
        self.hmax = float(curve.edge_lengths.max())
        self.next_of, self.prev_of = curve.layout[:2]
        self.nu = self.geometry.nu
        # sum of the unit normals of the two edges at each vertex: positive
        # on the vertex's whole normal cone, whatever its turning angle
        edge_nu = self.seg_vec[:, ::-1] * [1.0, -1.0] / np.sqrt(self.seg_len2)[:, None]
        self.pseudo_nu = edge_nu + edge_nu[self.prev_of]
        self.tree = cKDTree(self.seg_start)

    def unsigned(self, points: np.ndarray):
        """Distance, foot point, global segment id and on-edge parameter."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        nvert = len(self.seg_start)
        seg = np.empty(len(points), dtype=np.intp)
        t = np.empty(len(points))
        todo, k = np.arange(len(points)), min(4, nvert)
        while len(todo):
            rows = max(1, _QUERY_PAIRS // (2 * k))
            todo = np.concatenate([self._closest(points, todo[a:a + rows], k, seg, t)
                                   for a in range(0, len(todo), rows)])
            k = min(4 * k, nvert)
        foot = self.seg_start[seg] + t[:, None] * self.seg_vec[seg]
        return np.linalg.norm(points - foot, axis=1), foot, seg, t

    def _closest(self, points, ids, k, seg, t):
        """Closest of the segments at the k nearest vertices of points[ids],
        written into seg and t; returns the ids whose completeness guard fails."""
        p = points[ids]
        dk, near = self.tree.query(p, k=k)
        cand = np.hstack([near, self.prev_of[near]])
        a, ab = self.seg_start[cand], self.seg_vec[cand]
        px, py = p[:, 0, None], p[:, 1, None]
        tc = np.clip(((px - a[..., 0]) * ab[..., 0] + (py - a[..., 1]) * ab[..., 1])
                     / self.seg_len2[cand], 0.0, 1.0)
        rx = px - (a[..., 0] + tc * ab[..., 0])
        ry = py - (a[..., 1] + tc * ab[..., 1])
        d2 = rx * rx + ry * ry
        rows = np.arange(len(ids))
        j = np.argmin(d2, axis=1)
        seg[ids] = cand[rows, j]
        t[ids] = tc[rows, j]
        if k == len(self.seg_start):
            return ids[:0]
        return ids[d2[rows, j] > dk[:, -1] ** 2 - 0.25 * self.hmax ** 2]

    def signed(self, points: np.ndarray):
        """Signed distance, gradient, foot point and foot segment data.

        The sign comes from the side of the nearest segment (material lies
        left of traversal); feet clamped onto a vertex use that vertex's
        pseudo-normal, the sum of its two unit edge normals, instead.  Within
        rounding of the curve the gradient is the normal of the vertex the
        foot sits on (of the segment's start vertex for interior feet), the
        same whichever of the two segments meeting there is returned.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        d, foot, seg, t = self.unsigned(points)
        ab = self.seg_vec[seg]
        rel = points - foot
        cross = ab[:, 0] * rel[:, 1] - ab[:, 1] * rel[:, 0]
        # left of tau means inside: s < 0
        sgn = np.where(cross > 0, -1.0, 1.0)
        # the vertex a clamped foot sits on, else the segment's start vertex
        vid = np.where(t >= 1.0, self.next_of[seg], seg)
        on_vertex = (t <= 0.0) | (t >= 1.0)
        dot = np.sum(rel[on_vertex] * self.pseudo_nu[vid[on_vertex]], axis=1)
        sgn[on_vertex] = np.where(dot >= 0, 1.0, -1.0)
        s = sgn * d
        grad = self.nu[vid]
        far = d > 1e-14 * max(1.0, self.hmax)
        grad[far] = rel[far] / (s[far])[:, None]
        return s, grad, foot, seg, t

    def interpolate_vertex_field(self, values: np.ndarray, seg, t):
        """Linear interpolation of stacked per-vertex data along the foot segment."""
        return (1.0 - t) * values[seg] + t * values[self.next_of[seg]]


# ---------------------------------------------------------------------------
# curve file format
# ---------------------------------------------------------------------------

def write_curve_file(curve: PolyCurve, path) -> None:
    """Plain-text blocks: 'component <id> <orientation>' then 'x y' lines."""
    with open(path, "w") as fh:
        for k, c in enumerate(curve.components):
            fh.write(f"component {k} {c.orientation:+d}\n")
            fh.write("".join(f"{x!r} {y!r}\n" for x, y in c.vertices.tolist()))
            fh.write("\n")


def read_curve_file(path) -> PolyCurve:
    """Parse the block format; closure is implicit and duplicated endpoints
    are rejected."""
    comps = []
    with open(path) as fh:
        blocks = fh.read().split("\n\n")
    for block in blocks:
        lines = [ln.strip() for ln in block.strip().splitlines() if ln.strip()]
        if not lines:
            continue
        head = lines[0].split()
        if head[0] != "component" or len(head) != 3:
            raise ValueError(f"bad component header: {lines[0]!r}")
        comp = Component(np.array([[float(a) for a in ln.split()] for ln in lines[1:]]),
                         int(head[2]))
        v = comp.vertices
        if comp.n >= 2 and (np.linalg.norm(v[0] - v[-1])
                            <= EDGE_FLOOR_REL * _diameters([_hull(v)])[0]):
            raise ValueError("curve blocks must not repeat the first vertex")
        comps.append(comp)
    return PolyCurve(comps)

"""Discrete closed planar curves and their differential geometry.

A curve is a forest of closed polygonal components.  Outer boundaries are
stored counter-clockwise with orientation +1, holes clockwise with -1, so
the enclosed material always lies to the left of traversal and the outward
normal is the tangent rotated by -90 degrees.  All per-vertex calculus
(arc weights, centered derivatives, turning-angle curvature) lives here and
is shared by every other module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def diameter(self) -> float:
        """Largest vertex-to-vertex distance, computed once per component."""
        return float(_diameters([_hull(self.vertices)])[0])

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
    consistency, positive total area) without a hull; ``diameter``, the
    largest vertex-to-vertex distance over all components, is computed on
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
        starts, ends, _, local_of = self.segments
        first = np.flatnonzero(local_of == 0)
        h = np.linalg.norm(ends - starts, axis=1)
        hmin = np.minimum.reduceat(h, first)
        # the box diagonal bounds the diameter from above, in floating point
        # too (a caliper distance |p - q| rounds along the same monotone
        # path), so only a component within the floor of its bound reads its
        # exact diameter
        box = np.maximum.reduceat(starts, first) - np.minimum.reduceat(starts, first)
        short = hmin <= EDGE_FLOOR_REL * np.sqrt(np.sum(box ** 2, axis=1))
        for k in np.flatnonzero(short):
            diam = comps[k].diameter
            short[k] = diam <= 0.0 or hmin[k] <= EDGE_FLOOR_REL * diam
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
    def diameter(self) -> float:
        """Largest vertex-to-vertex distance over all components, on first read.

        One caliper pass fills every Component.diameter not yet cached and
        the curve's: the hull of the union is the hull of the component
        hulls' vertices.
        """
        comps = self.components
        cached = ["diameter" in c.__dict__ for c in comps]
        todo = [c for c, done in zip(comps, cached) if not done]
        hulls = [_hull(c.vertices) for c in todo]
        if len(comps) > 1:
            known = [_hull(c.vertices) for c, done in zip(comps, cached) if done]
            hulls.append(_hull(np.vstack(hulls + known)))
        diams = _diameters(hulls)
        for c, d in zip(todo, diams):
            c.__dict__["diameter"] = float(d)
        return float(diams[-1]) if len(comps) > 1 else comps[0].diameter

    @property
    def ncomponents(self) -> int:
        return len(self.components)

    @cached_property
    def segments(self):
        """Edges of all components, flattened: starts, ends, component, local index.

        Built once per curve (``components`` is only assigned in
        ``__init__``) and shared by every reader, so the arrays are read-only.
        """
        comps = self.components
        n = np.array([c.n for c in comps])
        comp_of = np.repeat(np.arange(len(comps)), n)
        local_of = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        starts = np.vstack([c.vertices for c in comps])
        out = (starts, starts[cycle_neighbours(n)[0]], comp_of, local_of)
        for a in out:
            a.flags.writeable = False
        return out

    def signed_area(self) -> float:
        return sum(c.signed_area() for c in self.components)

    def length(self) -> float:
        return sum(c.length() for c in self.components)

    def translated(self, shift) -> "PolyCurve":
        shift = np.asarray(shift, dtype=float)
        return PolyCurve([Component(c.vertices + shift, c.orientation)
                          for c in self.components])

    def rotated(self, angle: float) -> "PolyCurve":
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        return PolyCurve([Component(c_.vertices @ rot.T, c_.orientation)
                          for c_ in self.components])


@dataclass(frozen=True)
class VertexField:
    """Scalar samples aligned with one component's vertices."""

    component_id: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


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
# geometry cache and discrete calculus
# ---------------------------------------------------------------------------

@dataclass
class GeometryCache:
    """Per-vertex differential geometry of one component.

    edge_lengths[i] is the edge from vertex i to i+1 (cyclic);
    weights[i] = (edge_lengths[i-1] + edge_lengths[i]) / 2 is the vertex
    quadrature weight; kappa[i] is the turning angle at vertex i divided by
    weights[i], which makes sum(kappa * weights) equal the total turning
    angle exactly.  ``diameter`` is the component's, computed on first read.
    """

    component_index: int
    orientation: int
    vertices: np.ndarray
    edge_lengths: np.ndarray
    arc_positions: np.ndarray
    weights: np.ndarray
    tau: np.ndarray
    nu: np.ndarray
    kappa: np.ndarray
    length: float
    area: float
    component: Component

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @property
    def diameter(self) -> float:
        return self.component.diameter


def cycle_neighbours(lengths) -> tuple[np.ndarray, np.ndarray]:
    """Next and previous index of every entry of cycles of these lengths, stacked."""
    lengths = np.asarray(lengths)
    ids = np.arange(lengths.sum())
    first = np.repeat(np.cumsum(lengths) - lengths, lengths)
    last = first + np.repeat(lengths, lengths) - 1
    return np.where(ids == last, first, ids + 1), np.where(ids == first, last, ids - 1)


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
    nxt, prv = cycle_neighbours(sizes)
    hid = np.repeat(np.arange(len(sizes)), sizes)
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    local = ids - first
    m = sizes[hid]
    edges = pts[nxt] - pts
    raw = np.arctan2(edges[:, 1], edges[:, 0])
    # unwrap each hull's edge angles from its first edge, as np.unwrap does
    jump = np.where(local > 0, raw - raw[prv], 0.0)
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


def build_geometry(curve: PolyCurve) -> list[GeometryCache]:
    """Per-component caches from one pass over the stacked segments.

    Raises if the curve is not embedded.  Every per-vertex array is computed
    once for all components and sliced; each length and area is a sum over
    its own component's slice.
    """
    check_embedded(curve)
    v, ends, _, local_of = curve.segments
    comps = curve.components
    nxt, prv = cycle_neighbours([c.n for c in comps])
    edges = ends - v
    h = np.linalg.norm(edges, axis=1)
    w = 0.5 * (h + h[prv])
    chord = ends - v[prv]
    tau = chord / np.linalg.norm(chord, axis=1)[:, None]
    nu = np.column_stack([tau[:, 1], -tau[:, 0]])
    em = edges[prv]
    turn = np.arctan2(em[:, 0] * edges[:, 1] - em[:, 1] * edges[:, 0],
                      np.sum(em * edges, axis=1))
    kappa = turn / w
    cross = v[:, 0] * ends[:, 1] - ends[:, 0] * v[:, 1]
    bounds = np.append(np.flatnonzero(local_of == 0), len(v))
    caches = []
    for k, c in enumerate(comps):
        sl = slice(bounds[k], bounds[k + 1])
        caches.append(GeometryCache(
            component_index=k,
            orientation=c.orientation,
            vertices=c.vertices,
            edge_lengths=h[sl],
            arc_positions=np.concatenate([[0.0], np.cumsum(h[sl][:-1])]),
            weights=w[sl],
            tau=tau[sl],
            nu=nu[sl],
            kappa=kappa[sl],
            length=float(np.sum(h[sl])),
            area=float(0.5 * np.sum(cross[sl])),
            component=c,
        ))
    return caches


def integrate(cache: GeometryCache, values: np.ndarray) -> float:
    """Vertex-weighted quadrature of a per-vertex field over the component."""
    return float(np.dot(cache.weights, values))


def field_mean(cache: GeometryCache, values: np.ndarray) -> float:
    return integrate(cache, values) / cache.length


def dds(cache: GeometryCache, values: np.ndarray) -> np.ndarray:
    """Cyclic centered arc-length derivative with nonuniform weights."""
    values = np.asarray(values, dtype=float)
    return (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2.0 * cache.weights)


def d2ds2(cache: GeometryCache, values: np.ndarray) -> np.ndarray:
    """Cyclic three-point second arc derivative on the nonuniform grid."""
    values = np.asarray(values, dtype=float)
    h = cache.edge_lengths
    hm = np.roll(h, 1)
    fwd = (np.roll(values, -1, axis=0) - values) / h
    bwd = (values - np.roll(values, 1, axis=0)) / hm
    return (fwd - bwd) / cache.weights


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


def _segment_pairs_within(starts, ends, reach):
    """Pairs (i, j), i < j, unordered, among them every segment pair closer than reach.

    Points of a segment lie within half its length h of its midpoint m, so
    a pair closer than reach has |m_i - m_j| < (h_i + h_j)/2 + reach (the
    triangle inequality): a k-d tree lists the midpoint pairs within
    h_max + reach (Bentley 1975), and the per-pair bound filters them.  Both
    radii carry a slack of 1e-12 of the largest coordinate, far above the
    rounding of the midpoints, lengths and distances compared.
    """
    mid = 0.5 * (starts + ends)
    h = np.hypot(*(ends - starts).T)
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
    pi, pj = _segment_pairs_within(starts, ends, tol)
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
    starts, ends, comp_of, local_of = curve.segments
    # probe i is the first vertex of component i; its own component is skipped
    probes = starts[local_of == 0]
    off = np.flatnonzero(local_of == 0)
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

def gauss_bonnet_residual(cache: GeometryCache) -> float:
    """|sum(kappa ds) - orientation * 2 pi| for one component."""
    total = integrate(cache, cache.kappa)
    return float(abs(total - cache.orientation * 2.0 * np.pi))


def intrinsic_distance(cache_a: GeometryCache, i: int,
                       cache_b: GeometryCache | None = None,
                       j: int | None = None) -> float:
    """Shorter arc between two vertices; inf across distinct components."""
    if cache_b is None:
        cache_b = cache_a
    if j is None:
        raise ValueError("target vertex index required")
    if cache_a is not cache_b and cache_a.component_index != cache_b.component_index:
        return float("inf")
    si, sj = cache_a.arc_positions[i], cache_a.arc_positions[j]
    d = abs(si - sj)
    return float(min(d, cache_a.length - d))


def poincare_ratio(cache: GeometryCache, u: VertexField, p: float) -> float:
    """||u - <u>||_p^p / (diam^p ||du/ds||_p^p); zero for constant fields."""
    if p < 1:
        raise ValueError("p must be >= 1")
    vals = u.values
    if len(vals) != cache.n:
        raise ValueError("field length does not match component")
    centered = vals - field_mean(cache, vals)
    num = integrate(cache, np.abs(centered) ** p)
    grad = dds(cache, vals)
    den = cache.diameter ** p * integrate(cache, np.abs(grad) ** p)
    if den <= 1e-300 * max(1.0, num):
        return 0.0
    return float(num / den)


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

    def __init__(self, curve: PolyCurve, caches: list[GeometryCache] | None = None):
        self.curve = curve
        self.caches = caches if caches is not None else build_geometry(curve)
        self.seg_start, self.seg_end, self.seg_comp, self.seg_local = curve.segments
        self.seg_vec = self.seg_end - self.seg_start
        self.seg_len2 = np.maximum(np.sum(self.seg_vec * self.seg_vec, axis=1), 1e-300)
        self.hmax = float(np.linalg.norm(self.seg_vec, axis=1).max())
        self.next_of, self.prev_of = cycle_neighbours([c.n for c in curve.components])
        self.nu = np.vstack([c.nu for c in self.caches])
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

    def interpolate_vertex_field(self, fields: list[np.ndarray], seg, t):
        """Linear interpolation of per-vertex data along the foot segment."""
        vals = np.concatenate(fields)
        return (1.0 - t) * vals[seg] + t * vals[self.next_of[seg]]


# ---------------------------------------------------------------------------
# curve file format
# ---------------------------------------------------------------------------

def write_curve_file(curve: PolyCurve, path) -> None:
    """Plain-text blocks: 'component <id> <orientation>' then 'x y' lines."""
    with open(path, "w") as fh:
        for k, c in enumerate(curve.components):
            fh.write(f"component {k} {c.orientation:+d}\n")
            for x, y in c.vertices:
                fh.write(f"{float(x)!r} {float(y)!r}\n")
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
        if comp.n >= 2 and np.linalg.norm(v[0] - v[-1]) <= EDGE_FLOOR_REL * comp.diameter:
            raise ValueError("curve blocks must not repeat the first vertex")
        comps.append(comp)
    return PolyCurve(comps)

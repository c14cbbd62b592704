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
        return _diameter(self.vertices)

    def signed_area(self) -> float:
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def length(self) -> float:
        return float(np.sum(np.linalg.norm(np.roll(self.vertices, -1, axis=0)
                                           - self.vertices, axis=1)))


class PolyCurve:
    """A forest of disjoint simple closed components, holes included.

    Construction checks the cheap invariants (vertex counts, edges against
    a floor relative to each component's cached diameter, orientation/area
    consistency, positive total area).  The embeddedness test runs in
    :func:`check_embedded`, which :func:`build_geometry` invokes.
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
        total = 0.0
        for k, c in enumerate(self.components):
            if c.n < 8:
                raise ValueError(f"component {k} has {c.n} < 8 vertices")
            edges = np.roll(c.vertices, -1, axis=0) - c.vertices
            h = np.linalg.norm(edges, axis=1)
            diam = c.diameter
            if diam <= 0.0 or np.any(h <= EDGE_FLOOR_REL * diam):
                raise DegenerateEdge(f"component {k} has an edge below the length floor")
            area = c.signed_area()
            if np.sign(area) != c.orientation:
                raise ValueError(
                    f"component {k}: signed area {area:.3e} contradicts orientation {c.orientation}"
                )
            total += area
        if total <= 0.0:
            raise ValueError("total signed enclosed area must be positive")

    @property
    def ncomponents(self) -> int:
        return len(self.components)

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
    angle exactly.
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
    diameter: float

    @property
    def n(self) -> int:
        return self.vertices.shape[0]


def _diameter(vertices: np.ndarray) -> float:
    """Largest vertex distance by rotating calipers (Toussaint 1983).

    Hull vertex i+1 is antipodal to every vertex from the support of edge i
    (the hull vertex farthest to its left) through the support of edge i+1;
    each range is widened by one vertex against rounding at parallel edges.
    Collinear input has no hull: two farthest-point sweeps, exact on a line.
    """
    try:
        hull = vertices[ConvexHull(vertices).vertices]
    except QhullError:
        far = vertices[np.argmax(np.sum((vertices - vertices[0]) ** 2, axis=1))]
        return float(np.sqrt(np.max(np.sum((vertices - far) ** 2, axis=1))))
    m = len(hull)
    edges = np.roll(hull, -1, axis=0) - hull
    angle = np.unwrap(np.arctan2(edges[:, 1], edges[:, 0]))
    support = np.searchsorted(np.concatenate([angle, angle + 2.0 * np.pi]),
                              angle + np.pi)
    lo = support - 1
    counts = np.diff(np.append(support, support[0] + m)) + 3
    first = np.cumsum(counts) - counts
    a = np.repeat(np.arange(1, m + 1) % m, counts)
    b = (np.repeat(lo - first, counts) + np.arange(counts.sum())) % m
    return float(np.sqrt(np.max(np.sum((hull[a] - hull[b]) ** 2, axis=1))))


def _component_cache(idx: int, comp: Component) -> GeometryCache:
    v = comp.vertices
    edges = np.roll(v, -1, axis=0) - v
    h = np.linalg.norm(edges, axis=1)
    hm = np.roll(h, 1)
    w = 0.5 * (h + hm)
    arc = np.concatenate([[0.0], np.cumsum(h)[:-1]])

    chord = np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)
    tau = chord / np.linalg.norm(chord, axis=1)[:, None]
    nu = np.column_stack([tau[:, 1], -tau[:, 0]])

    em = np.roll(edges, 1, axis=0)
    turn = np.arctan2(em[:, 0] * edges[:, 1] - em[:, 1] * edges[:, 0],
                      np.sum(em * edges, axis=1))
    kappa = turn / w

    return GeometryCache(
        component_index=idx,
        orientation=comp.orientation,
        vertices=v,
        edge_lengths=h,
        arc_positions=arc,
        weights=w,
        tau=tau,
        nu=nu,
        kappa=kappa,
        length=float(np.sum(h)),
        area=comp.signed_area(),
        diameter=comp.diameter,
    )


def build_geometry(curve: PolyCurve) -> list[GeometryCache]:
    """Build per-component caches; raises if the curve is not embedded."""
    check_embedded(curve)
    return [_component_cache(i, c) for i, c in enumerate(curve.components)]


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
# embeddedness: grid broad phase + exact segment tests
# ---------------------------------------------------------------------------

def _segment_pair_candidates(starts, ends, cell):
    """Indices (i, j), i < j, of segments whose bboxes share a grid cell."""
    lo = np.minimum(starts, ends)
    hi = np.maximum(starts, ends)
    i0 = np.floor(lo / cell).astype(np.int64)
    i1 = np.floor(hi / cell).astype(np.int64)
    # short segments: bbox spans at most 2 cells per axis
    keys = []
    owners = []
    nseg = len(starts)
    ids = np.arange(nseg)
    for dx in (0, 1):
        for dy in (0, 1):
            cx = np.where(dx == 0, i0[:, 0], i1[:, 0])
            cy = np.where(dy == 0, i0[:, 1], i1[:, 1])
            keys.append(cx * np.int64(0x9E3779B1) + cy)
            owners.append(ids)
    keys = np.concatenate(keys)
    owners = np.concatenate(owners)
    order = np.lexsort((owners, keys))
    keys, owners = keys[order], owners[order]
    dup = np.concatenate([[False], (keys[1:] == keys[:-1]) & (owners[1:] == owners[:-1])])
    keys, owners = keys[~dup], owners[~dup]
    # within each equal-key run, pair entries at every positive offset
    pi, pj = [], []
    shift = 1
    while shift < len(keys):
        same = keys[shift:] == keys[:-shift]
        if not np.any(same):
            break
        pi.append(owners[:-shift][same])
        pj.append(owners[shift:][same])
        shift += 1
    if not pi:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    pi = np.concatenate(pi)
    pj = np.concatenate(pj)
    lo = np.minimum(pi, pj)
    hi = np.maximum(pi, pj)
    uniq_keys = np.unique(lo * np.int64(nseg) + hi)
    return uniq_keys // nseg, uniq_keys % nseg


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


def _segments(curve: PolyCurve):
    """Edges of all components, flattened: starts, ends, component, local index."""
    comps = curve.components
    n = np.array([c.n for c in comps])
    comp_of = np.repeat(np.arange(len(comps)), n)
    local_of = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    return (np.vstack([c.vertices for c in comps]),
            np.vstack([np.roll(c.vertices, -1, axis=0) for c in comps]), comp_of, local_of)


def check_embedded(curve: PolyCurve) -> None:
    """Reject self-crossing components and touching component pairs.

    Uses a uniform grid broad phase sized at twice the longest edge, then
    exact segment-pair distance tests at tolerance SIMPLICITY_TOL_REL times
    the diameter: the cached one of a single component, else of all vertices.
    """
    starts, ends, comp_of, local_of = _segments(curve)
    one = curve.ncomponents == 1
    tol = SIMPLICITY_TOL_REL * (curve.components[0].diameter if one else _diameter(starts))
    hmax = np.linalg.norm(ends - starts, axis=1).max()
    cell = 2.0 * hmax

    pi, pj = _segment_pair_candidates(starts, ends, cell)
    if len(pi) == 0:
        return
    same = comp_of[pi] == comp_of[pj]
    # cyclically adjacent segments of the same component legitimately touch
    n_arr = np.bincount(comp_of)[comp_of[pi]]
    gap = np.abs(local_of[pi] - local_of[pj])
    adjacent = same & ((gap <= 1) | (gap >= n_arr - 1))
    keep = ~adjacent
    if not np.any(keep):
        return
    pi, pj, same = pi[keep], pj[keep], same[keep]
    dist = _segment_segment_dist(starts[pi], ends[pi], starts[pj], ends[pj])
    bad = dist < tol
    if np.any(bad):
        b = int(np.argmax(bad))
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

def points_in_component(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Crossing-number test, vectorized over query points (chunked)."""
    points = np.atleast_2d(points)
    n = len(vertices)
    chunk = max(1, int(4e6 / max(n, 1)))
    out = np.empty(len(points), dtype=bool)
    v0 = vertices
    v1 = np.roll(vertices, -1, axis=0)
    dy = v1[:, 1] - v0[:, 1]
    dx = v1[:, 0] - v0[:, 0]
    for a in range(0, len(points), chunk):
        x = points[a:a + chunk, 0]
        y = points[a:a + chunk, 1]
        # half-open rule keeps vertices from double counting
        cond = (v0[None, :, 1] > y[:, None]) != (v1[None, :, 1] > y[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (y[:, None] - v0[None, :, 1]) / dy[None, :]
        xi = v0[None, :, 0] + t * dx[None, :]
        crossings = np.sum(cond & (xi > x[:, None]), axis=1)
        out[a:a + chunk] = crossings % 2 == 1
    return out


def region_contains(curve: PolyCurve, points: np.ndarray) -> np.ndarray:
    """Even-odd membership of points in the region enclosed by the forest."""
    points = np.atleast_2d(points)
    inside = np.zeros(len(points), dtype=int)
    for c in curve.components:
        inside += points_in_component(points, c.vertices).astype(int)
    return inside % 2 == 1


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
    contains = np.zeros((k, k), dtype=bool)
    for i in range(k):
        probe = comps[i].vertices[0]
        for j in range(k):
            if i == j:
                continue
            d = _point_segment_dist(
                probe[None, :],
                comps[j].vertices,
                np.roll(comps[j].vertices, -1, axis=0),
            ).min()
            if d < NESTING_TOL:
                raise AmbiguousNesting(
                    f"vertex of component {i} lies within {NESTING_TOL} of component {j}"
                )
            contains[j, i] = bool(points_in_component(probe[None, :], comps[j].vertices)[0])

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


def intrinsic_ball_measure(cache: GeometryCache, i: int, r: float) -> float:
    """Arc measure of the intrinsic ball of radius r around vertex i.

    Computed by arc accumulation in both directions from the center; on a
    single closed curve this is min(2r, L) exactly.  Balls are intrinsic:
    other components never contribute (their distance is infinite).
    """
    if r <= 0.0:
        return 0.0
    return float(min(2.0 * r, cache.length))


def density_ratio_bound(cache: GeometryCache, n_centers: int = 32,
                        n_radii: int = 12) -> float:
    """sup over sampled centers and dyadic radii of H^1(ball)/(2r).

    The metric underlying the balls is the intrinsic path distance, so for a
    closed curve the ratio never exceeds 1.  (An extrinsic variant, with
    Euclidean balls, would see hairpins inflate the ratio; it is deliberately
    not used here.)
    """
    best = 0.0
    centers = np.linspace(0, cache.n - 1, min(n_centers, cache.n)).astype(int)
    for i in centers:
        for k in range(n_radii):
            r = cache.diameter * 0.5 ** k
            if r <= 0:
                continue
            best = max(best, intrinsic_ball_measure(cache, i, r) / (2.0 * r))
    return best


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

class CurveIndex:
    """k-d tree accelerated closest-point and signed-distance queries.

    Sign convention: negative inside the enclosed region, positive outside,
    matching dist(x, region) - dist(x, complement).
    """

    def __init__(self, curve: PolyCurve, caches: list[GeometryCache] | None = None):
        self.curve = curve
        self.caches = caches if caches is not None else build_geometry(curve)
        self.seg_start, self.seg_end, self.seg_comp, self.seg_local = _segments(curve)
        self.offsets = np.cumsum([0] + [c.n for c in curve.components])
        self.hmax = float(np.linalg.norm(self.seg_end - self.seg_start, axis=1).max())
        self.tree = cKDTree(self.seg_start)
        self._k = min(16, len(self.seg_start))

    def _candidate_segments(self, vert_ids: np.ndarray) -> np.ndarray:
        prev = np.where(
            self.seg_local[vert_ids] == 0,
            vert_ids + np.diff(self.offsets)[self.seg_comp[vert_ids]] - 1,
            vert_ids - 1,
        )
        return np.concatenate([vert_ids, prev])

    def unsigned(self, points: np.ndarray):
        """Distance, foot point, global segment id and on-edge parameter."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        dk, idx = self.tree.query(points, k=self._k)
        if self._k == 1:
            dk = dk[:, None]
            idx = idx[:, None]
        npts = len(points)
        best_d = np.full(npts, np.inf)
        best_seg = np.zeros(npts, dtype=int)
        best_t = np.zeros(npts)
        for col in range(self._k):
            segs = self._candidate_segments(idx[:, col])
            for segsel in (segs[:npts], segs[npts:]):
                a = self.seg_start[segsel]
                b = self.seg_end[segsel]
                ab = b - a
                denom = np.maximum(np.sum(ab * ab, axis=1), 1e-300)
                t = np.clip(np.sum((points - a) * ab, axis=1) / denom, 0.0, 1.0)
                foot = a + t[:, None] * ab
                d = np.linalg.norm(points - foot, axis=1)
                take = d < best_d
                best_d[take] = d[take]
                best_seg[take] = segsel[take]
                best_t[take] = t[take]
        # completeness guard: any missed segment has an endpoint farther than
        # the k-th neighbour, hence distance >= dk - hmax
        unsafe = best_d > dk[:, -1] - self.hmax
        if np.any(unsafe) and self._k < len(self.seg_start):
            sub = points[unsafe]
            d_all = _point_segment_dist(
                sub[:, None, :], self.seg_start[None, :, :], self.seg_end[None, :, :]
            )
            seg_all = np.argmin(d_all, axis=1)
            a = self.seg_start[seg_all]
            b = self.seg_end[seg_all]
            ab = b - a
            denom = np.maximum(np.sum(ab * ab, axis=1), 1e-300)
            t = np.clip(np.sum((sub - a) * ab, axis=1) / denom, 0.0, 1.0)
            best_d[unsafe] = np.min(d_all, axis=1)
            best_seg[unsafe] = seg_all
            best_t[unsafe] = t
        foot = (self.seg_start[best_seg]
                + best_t[:, None] * (self.seg_end[best_seg] - self.seg_start[best_seg]))
        return best_d, foot, best_seg, best_t

    def signed(self, points: np.ndarray):
        """Signed distance, gradient, foot point and foot segment data.

        The sign comes from the side of the nearest segment (material lies
        left of traversal); feet clamped onto a vertex use that vertex's
        pseudo-normal instead.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        d, foot, seg, t = self.unsigned(points)
        a = self.seg_start[seg]
        b = self.seg_end[seg]
        ab = b - a
        rel = points - foot
        cross = ab[:, 0] * rel[:, 1] - ab[:, 1] * rel[:, 0]
        # left of tau means inside: s < 0
        sgn = np.where(cross > 0, -1.0, 1.0)
        on_vertex = (t <= 0.0) | (t >= 1.0)
        if np.any(on_vertex):
            vid = np.where(t[on_vertex] <= 0.0, seg[on_vertex],
                           self._next_vertex(seg[on_vertex]))
            nu = self._vertex_normal(vid)
            dot = np.sum((points[on_vertex] - foot[on_vertex]) * nu, axis=1)
            sgn[on_vertex] = np.where(dot >= 0, 1.0, -1.0)
        s = sgn * d
        grad = np.zeros_like(points)
        far = d > 1e-14 * max(1.0, self.hmax)
        grad[far] = rel[far] / (s[far])[:, None]
        if np.any(~far):
            vid = seg[~far]
            grad[~far] = self._vertex_normal(vid)
        return s, grad, foot, seg, t

    def _next_vertex(self, seg_ids):
        nxt = seg_ids + 1
        for k in range(self.curve.ncomponents):
            end = self.offsets[k + 1]
            nxt = np.where(nxt == end, self.offsets[k], nxt)
        return nxt

    def _vertex_normal(self, vert_ids):
        out = np.zeros((len(vert_ids), 2))
        for k, cache in enumerate(self.caches):
            sel = self.seg_comp[vert_ids] == k
            if np.any(sel):
                out[sel] = cache.nu[self.seg_local[vert_ids[sel]]]
        return out

    def interpolate_vertex_field(self, fields: list[np.ndarray], seg, t):
        """Linear interpolation of per-vertex data along the foot segment."""
        vals0 = np.empty(len(seg))
        vals1 = np.empty(len(seg))
        nxt = self._next_vertex(seg)
        for k in range(self.curve.ncomponents):
            sel = self.seg_comp[seg] == k
            if np.any(sel):
                vals0[sel] = fields[k][self.seg_local[seg[sel]]]
                vals1[sel] = fields[k][self.seg_local[nxt[sel]]]
        return (1.0 - t) * vals0 + t * vals1

    def contains(self, points: np.ndarray) -> np.ndarray:
        return region_contains(self.curve, points)


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

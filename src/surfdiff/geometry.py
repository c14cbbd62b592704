"""Discrete closed planar curves and their differential geometry.

A curve is a forest of closed polygonal components.  Outer boundaries are
stored counter-clockwise with orientation +1, holes clockwise with -1, so
the enclosed material always lies to the left of traversal and the outward
normal is the tangent rotated by -90 degrees.  All per-vertex calculus
(arc weights, centered derivatives, turning-angle curvature) lives here and
is shared by every other module.  A curve read from a file has its nesting
checked once (:func:`jordan_decompose`): a component whose orientation
contradicts its nesting depth is rejected there, and the flow never changes
nesting.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    AmbiguousNesting,
    DegenerateEdge,
    OrientationMismatch,
    SelfIntersection,
)

EDGE_FLOOR_REL = 1e-12      # min edge length relative to component diameter
SIMPLICITY_TOL_REL = 1e-10  # segment clearance relative to curve diameter
NESTING_TOL = 1e-10         # absolute clearance for the nesting probe vertex


# ---------------------------------------------------------------------------
# curve containers
# ---------------------------------------------------------------------------

class PolyCurve:
    """A forest of disjoint simple closed components, holes included.

    The curve is one read-only (N, 2) array, ``vertices``, of every
    component's vertices stacked in order, with each component's vertex
    count (``counts``, a tuple), orientation (``orientations``) and signed
    shoelace area (``area``), both read-only.  It is built from a list of
    (n, 2) vertex arrays, each component's orientation the sign of its area
    (a zero-area component is rejected), or from the stacked array, its
    counts and its orientations given by keyword; :meth:`with_vertices`
    takes the stacked path, so a flow step neither splits nor re-stacks.
    ``np.split(vertices, layout.split)`` gives the components as views.

    Construction checks the cheap invariants (vertex counts, edges against
    a floor relative to each component's diameter, orientation/area
    consistency, positive total area) in O(n) passes; ``diameters`` (one
    per component) and ``diameter`` (over all components) are computed on
    first read.  The embeddedness test runs in :func:`check_embedded`, which
    :func:`build_geometry` invokes.
    """

    def __init__(self, parts=None, *, vertices=None, counts=None, orientations=None):
        if parts is not None:
            parts = list(parts)
            vertices = np.vstack(parts) if parts else np.zeros((0, 2))
            counts = [len(p) for p in parts]
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        self.counts = tuple(map(int, counts))
        if not self.counts:
            raise ValueError("a curve needs at least one component")
        if orientations is not None:
            if len(orientations) != len(self.counts):
                raise ValueError(f"{len(orientations)} orientations given for "
                                 f"{len(self.counts)} components")
            if not set(np.asarray(orientations).tolist()) <= {1, -1}:
                raise ValueError("orientation must be +1 or -1")
        if sum(self.counts) != len(v):
            raise ValueError(f"{len(v)} vertices given for components of "
                             f"{' + '.join(map(str, self.counts))} = {sum(self.counts)} vertices")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite (no NaN or inf)")
        for k, n in enumerate(self.counts):
            if n < 8:
                raise ValueError(f"component {k} has {n} < 8 vertices")
        # a view, so that the caller's own array keeps its flags
        self.vertices = v.view()
        self.layout = cycle_layout(self.counts)
        # take gathers rows several times faster than fancy indexing
        ends = v.take(self.layout.nxt, axis=0)
        self.area = _read_only(0.5 * cycle_sums(_shoelace(v, ends), self.layout))
        if orientations is None:
            # a zero area reads +1, which the validation then rejects
            orientations = np.where(self.area < 0, -1, 1)
        self.orientations = np.array(orientations, dtype=np.intp)
        self.vertices.flags.writeable = self.orientations.flags.writeable = False
        ends.flags.writeable = False
        self.segments = (self.vertices, ends, self.layout.comp, self.layout.local)
        self.edge_lengths = row_norms(ends - v)
        self.edge_lengths.flags.writeable = False
        self._validate()

    def _validate(self):
        starts, h, first = self.vertices, self.edge_lengths, self.layout.first
        hmin = np.minimum.reduceat(h, first)
        # the box diagonal bounds the diameter from above, in floating point
        # too (a vertex distance sqrt(dx^2 + dy^2) rounds along the same
        # monotone path), so only a component within the floor of its bound
        # reads its exact diameter
        box = np.maximum.reduceat(starts, first) - np.minimum.reduceat(starts, first)
        short = hmin <= EDGE_FLOOR_REL * row_norms(box)
        if short.any():
            diam = self.diameters
            short &= (diam <= 0.0) | (hmin <= EDGE_FLOOR_REL * diam)
        flipped = np.sign(self.area) != self.orientations
        if (short | flipped).any():
            k = int(np.argmax(short | flipped))
            if short[k]:
                raise DegenerateEdge(f"component {k} has an edge below the length floor")
            raise ValueError(f"component {k}: signed area {self.area[k]:.3e} "
                             f"contradicts orientation {self.orientations[k]}")
        if self.area.sum() <= 0.0:
            raise ValueError("total signed enclosed area must be positive")

    @cached_property
    def diameters(self) -> np.ndarray:
        """Largest vertex-to-vertex distance of each component, (K,), read-only;
        computed on first read."""
        return _read_only(np.array([_max_distance(v)
                                    for v in np.split(self.vertices, self.layout.split)]))

    @cached_property
    def diameter(self) -> float:
        """Largest vertex-to-vertex distance over all components, computed on
        first read."""
        if self.ncomponents == 1:
            return float(self.diameters[0])
        return _max_distance(self.vertices)

    @property
    def ncomponents(self) -> int:
        return len(self.counts)

    def with_vertices(self, vertices) -> "PolyCurve":
        """The curve at these stacked vertices, its counts and orientations kept."""
        return PolyCurve(vertices=vertices, counts=self.counts, orientations=self.orientations)

    def rotated(self, angle: float) -> "PolyCurve":
        c, s = np.cos(angle), np.sin(angle)
        return self.with_vertices(self.vertices @ np.array([[c, -s], [s, c]]).T)


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (n, 2) array.

    The sum of squares of ``np.linalg.norm(a, axis=1)``, so bit for bit its
    result, at a fraction of its overhead.
    """
    x, y = a[:, 0], a[:, 1]
    return np.sqrt(x * x + y * y)


def _shoelace(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Shoelace terms starts x ends."""
    return starts[:, 0] * ends[:, 1] - ends[:, 0] * starts[:, 1]


# ---------------------------------------------------------------------------
# shape builders used across tests and the scenario runner
# ---------------------------------------------------------------------------

def make_circle(center, radius, n, orientation=1) -> np.ndarray:
    """Regular n-gon on a circle, (n, 2); orientation -1 stores it clockwise (a hole)."""
    t = 2.0 * np.pi * np.arange(n) / n
    if orientation < 0:
        t = -t
    cx, cy = center
    return np.column_stack([cx + radius * np.cos(t), cy + radius * np.sin(t)])


def make_ellipse(a, b, n, center=(0.0, 0.0)) -> np.ndarray:
    t = 2.0 * np.pi * np.arange(n) / n
    cx, cy = center
    return np.column_stack([cx + a * np.cos(t), cy + b * np.sin(t)])


def make_wavy_circle(radius, amplitude, mode, n, center=(0.0, 0.0),
                     normalize_area=False) -> np.ndarray:
    """r(t) = radius * (1 + amplitude*cos(mode*t)), optionally area-matched.

    With ``normalize_area`` the shape is rescaled so its enclosed area equals
    pi*radius^2 exactly (the polygon's own shoelace area is matched).
    """
    t = 2.0 * np.pi * np.arange(n) / n
    r = radius * (1.0 + amplitude * np.cos(mode * t))
    cx, cy = center
    v = np.column_stack([cx + r * np.cos(t), cy + r * np.sin(t)])
    if normalize_area:
        target, area = (_shoelace(p, np.roll(p, -1, axis=0)).sum()
                        for p in (make_circle(center, radius, n), v))
        c = np.array([cx, cy])
        v = c + np.sqrt(target / area) * (v - c)
    return v


# ---------------------------------------------------------------------------
# stacked geometry and discrete calculus
# ---------------------------------------------------------------------------

CycleLayout = namedtuple("CycleLayout", "nxt prv first comp local split counts")


@lru_cache(maxsize=32)
def cycle_layout(lengths: tuple) -> CycleLayout:
    """Read-only index arrays of cycles of these lengths, stacked end to end, cached.

    ``nxt``, ``prv``: every entry's cyclic neighbours; ``comp``, ``local``:
    its cycle and its place there; ``first``, ``split``: the offsets of
    ``np.add.reduceat`` and ``np.split``; ``counts``: the lengths.  The
    lengths of a run repeat: a flow run has one or two tuples, and every
    reference time has the same component counts, so the runs of segments
    of its closest-point index and the band solves share arrays too.
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


def cycle_arc(h: np.ndarray, lay: CycleLayout):
    """Arc position of every entry from its cycle's first, and each cycle's total.

    ``h[i]`` is the step from entry i to its successor.  One cumulative sum
    runs over all cycles laid end to end; each cycle's start is subtracted.
    """
    arc = h.cumsum()
    base = np.concatenate(([0.0], arc.take(lay.split - 1)))
    return (np.concatenate(([0.0], arc[:-1])) - base.take(lay.comp),
            arc.take(lay.first + lay.counts - 1) - base)


def cycle_sums(values: np.ndarray, lay: CycleLayout) -> np.ndarray:
    """Each cycle's slice of ``values`` summed by ``np.sum``, (K,): a curve's
    lengths and areas, the sums the flow's tests read (``reduceat`` adds in
    another order)."""
    return np.array([values[a:a + n].sum()
                     for a, n in zip(lay.first.tolist(), lay.counts.tolist())])


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
    per component.  ``kappa`` and ``arc_positions``, which no flow step
    reads, are built on first read.  Every array is read-only, so threads
    may share it.
    """

    curve: PolyCurve
    layout: CycleLayout
    vertices: np.ndarray
    edge_lengths: np.ndarray
    weights: np.ndarray
    tau: np.ndarray
    nu: np.ndarray
    length: np.ndarray
    area: np.ndarray

    def __post_init__(self):
        for a in (self.vertices, self.edge_lengths, self.weights, self.tau, self.nu,
                  self.length, self.area):
            a.flags.writeable = False

    @cached_property
    def arc_positions(self) -> np.ndarray:
        return _read_only(cycle_arc(self.edge_lengths, self.layout)[0])

    @cached_property
    def kappa(self) -> np.ndarray:
        v, lay = self.vertices, self.layout
        edges = v.take(lay.nxt, axis=0) - v
        em = edges.take(lay.prv, axis=0)
        turn = np.arctan2(em[:, 0] * edges[:, 1] - em[:, 1] * edges[:, 0],
                          np.sum(em * edges, axis=1))
        return _read_only(turn / self.weights)

    @cached_property
    def index(self) -> "CurveIndex":
        """The closest-point index of the curve, built on first read."""
        return CurveIndex(self)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_PAIRS = 1 << 14    # pairs per row block of the all-pairs kernels: 128 KB temporaries


def pair_blocks(targets, sources):
    """Row blocks (rows, dx, dy, r2) of about _PAIRS target-source pairs, with
    dx = x_i - y_j, dy likewise and r2 = dx^2 + dy^2: each 128 KB temporary
    stays in cache, and each row is formed from its own target alone."""
    sx, sy = np.ascontiguousarray(sources.T)
    step = max(1, _PAIRS // max(len(sx), 1))
    for a in range(0, len(targets), step):
        rows = slice(a, a + step)
        dx = targets[rows, 0, None] - sx
        dy = targets[rows, 1, None] - sy
        r2 = dx * dx
        r2 += dy * dy
        yield rows, dx, dy, r2


def _max_distance(points: np.ndarray) -> float:
    """Largest distance between two of the (n, 2) points: each row block
    against the points from its own first row on, so every pair is formed
    once and the maximum is exact."""
    step = max(1, _PAIRS // len(points))
    return math.sqrt(max(r2.max() for a in range(0, len(points), step)
                         for *_, r2 in pair_blocks(points[a:a + step], points[a:])))


def build_geometry(curve: PolyCurve) -> CurveGeometry:
    """The stacked geometry of every component, from one pass over the segments.

    Raises if the curve is not embedded.  The areas are the curve's own;
    the lengths, like them, are each component's slice summed by
    :func:`cycle_sums`.
    """
    check_embedded(curve)
    v, ends, _, _ = curve.segments
    lay = curve.layout
    h = curve.edge_lengths
    w = 0.5 * (h + h.take(lay.prv))
    chord = ends - v.take(lay.prv, axis=0)
    tau = chord / row_norms(chord)[:, None]
    return CurveGeometry(
        curve=curve, layout=lay, vertices=v, edge_lengths=h, weights=w, tau=tau,
        nu=np.column_stack([tau[:, 1], -tau[:, 0]]),
        length=cycle_sums(h, lay), area=curve.area)


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
# embeddedness: sort-and-sweep broad phase + exact segment tests
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


SWEEP_DIRECTION = (np.cos(1.0), np.sin(1.0))   # neither an axis nor a diagonal


def _overlapping(lo: np.ndarray, hi: np.ndarray):
    """Index pairs of the intervals [lo, hi] that overlap, each pair once.

    In the order of lo, interval a overlaps exactly the later intervals whose
    lo is at most hi[a]: one argsort and one searchsorted list them.  The
    sort is stable, which is fastest on the few monotone runs a curve's
    projection makes.
    """
    order = lo.argsort(kind="stable")
    cnt = lo.take(order).searchsorted(hi.take(order), side="right") - np.arange(1, len(lo) + 1)
    a = np.arange(len(lo)).repeat(cnt)
    b = a + 1 + np.arange(len(a)) - (cnt.cumsum() - cnt).repeat(cnt)
    return order.take(a), order.take(b)


def _segment_pairs_within(starts, ends, reach):
    """Pairs (i, j), i < j, unordered, among them every segment pair closer than reach.

    Each segment's box in the frame of d = SWEEP_DIRECTION is widened by
    reach/2 on every side; the boxes of two segments closer than reach
    overlap.  A sort-and-sweep over the extents along d lists the pairs that
    overlap there (Shamos & Hoey 1976), and the extents along the normal of
    d filter them.  As d is no axis, axis-aligned straight runs do not pile
    up in one extent.  The reach carries a slack of 1e-12 of the largest
    coordinate, far above the rounding of the projections and distances
    compared.
    """
    half = 0.5 * (reach + 1e-12 * np.abs(starts).max())
    c, s = SWEEP_DIRECTION
    n = len(starts)
    x, y = np.concatenate([starts, ends]).T.copy()
    u, v = c * x + s * y, c * y - s * x
    u0, u1, v0, v1 = u[:n], u[n:], v[:n], v[n:]
    pi, pj = _overlapping(np.minimum(u0, u1) - half, np.maximum(u0, u1) + half)
    lo, hi = np.minimum(v0, v1) - half, np.maximum(v0, v1) + half
    near = (lo.take(pi) <= hi.take(pj)) & (lo.take(pj) <= hi.take(pi))
    pi, pj = pi[near], pj[near]
    return np.minimum(pi, pj), np.maximum(pi, pj)


def check_embedded(curve: PolyCurve) -> None:
    """Reject self-crossing components and touching component pairs.

    Segment pairs closer than SIMPLICITY_TOL_REL times the curve's box
    diagonal, an upper bound of its diameter, come from a sort-and-sweep
    over the segments; the exact tolerance, SIMPLICITY_TOL_REL times the
    diameter, is computed only if one of them is that close.  The first bad
    pair in (i, j) order names the error.
    """
    starts, ends, comp_of, local_of = curve.segments
    # the extent of each column, as np.ptp(starts, axis=0) at a quarter of its cost
    x, y = starts[:, 0], starts[:, 1]
    dx, dy = x.max() - x.min(), y.max() - y.min()
    tol = SIMPLICITY_TOL_REL * np.sqrt(dx * dx + dy * dy)
    pi, pj = _segment_pairs_within(starts, ends, tol)
    # cyclically adjacent segments legitimately touch
    nxt = curve.layout.nxt
    keep = (nxt.take(pi) != pj) & (nxt.take(pj) != pi)
    pi, pj = pi[keep], pj[keep]
    if len(pi) == 0:
        return
    dist = _segment_segment_dist(starts[pi], ends[pi], starts[pj], ends[pj])
    bad = dist < tol
    if np.any(bad):
        bad = dist < SIMPLICITY_TOL_REL * curve.diameter
    if np.any(bad):
        b = np.flatnonzero(bad)
        b = b[np.lexsort((pj[b], pi[b]))[0]]
        if comp_of[pi[b]] == comp_of[pj[b]]:
            raise SelfIntersection(
                f"component {comp_of[pi[b]]} self-intersects near segment {local_of[pi[b]]}"
            )
        raise SelfIntersection(
            f"components {comp_of[pi[b]]} and {comp_of[pj[b]]} touch or cross"
        )


# ---------------------------------------------------------------------------
# point-in-polygon and region classification
# ---------------------------------------------------------------------------

_PARITY_CHUNK = 1 << 14     # query points per batch of the crossing test


def crossing_parity(points: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                    group: np.ndarray | None = None, ngroups: int = 1) -> np.ndarray:
    """Even-odd parity of +x ray crossings, per point and per edge group.

    Each batch of points is sorted by y, and an edge tests the points of
    its half-open y-range min(y0, y1) <= y < max(y0, y1): one slice of that
    order, found by two searchsorted calls.  The half-open rule keeps a
    vertex on the ray from counting twice and gives a horizontal edge no
    point.  Returns (n, ngroups) bool; ``group`` maps each edge to its group
    (all edges in group 0 by default).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros((len(points), ngroups), dtype=bool)
    group = np.zeros(len(starts), dtype=np.int64) if group is None else group
    y0, y1 = starts[:, 1], ends[:, 1]
    lo, hi = np.minimum(y0, y1), np.maximum(y0, y1)
    for a in range(0, len(points), _PARITY_CHUNK):
        pts = points[a:a + _PARITY_CHUNK]
        order = pts[:, 1].argsort(kind="stable")
        y_sorted = pts[order, 1]
        first = y_sorted.searchsorted(lo)
        cnt = y_sorted.searchsorted(hi) - first
        e = np.repeat(np.arange(len(starts)), cnt)
        k = order[np.repeat(first - (cnt.cumsum() - cnt), cnt) + np.arange(len(e))]
        v0, v1 = starts[e], ends[e]
        x, y = pts[k, 0], pts[k, 1]
        t = (y - v0[:, 1]) / (v1[:, 1] - v0[:, 1])
        hit = v0[:, 0] + t * (v1[:, 0] - v0[:, 0]) > x
        counts = np.bincount(k[hit] * ngroups + group[e[hit]], minlength=len(pts) * ngroups)
        out[a:a + _PARITY_CHUNK] = (counts % 2 == 1).reshape(len(pts), ngroups)
    return out


def points_in_component(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Crossing-number test of points against one closed polygon."""
    return crossing_parity(points, vertices, np.roll(vertices, -1, axis=0))[:, 0]


# ---------------------------------------------------------------------------
# Jordan decomposition
# ---------------------------------------------------------------------------

def jordan_decompose(curve: PolyCurve) -> np.ndarray:
    """Classify components into nested Jordan boundaries by containment parity.

    Returns, per component, the index of the tightest enclosing component,
    -1 at the roots.  A component's nesting depth, the number of components
    enclosing it, is even for outer Jordan curves and odd for holes; raises
    :class:`OrientationMismatch` for a component whose orientation is not
    the one its depth asks for.
    """
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
    contains = crossing_parity(probes, starts, ends, comp_of, curve.ncomponents).T
    np.fill_diagonal(contains, False)

    depth = contains.sum(axis=0)
    wrong = curve.orientations != np.where(depth % 2 == 0, 1, -1)
    if wrong.any():
        i = int(np.argmax(wrong))
        raise OrientationMismatch(
            f"component {i} at nesting depth {depth[i]} should have orientation "
            f"{-curve.orientations[i]}, got {curve.orientations[i]}"
        )
    # the tightest holder of a component is the deepest one enclosing it
    deepest = np.argmax(np.where(contains, depth[:, None], -1), axis=0)
    return np.where(contains.any(axis=0), deepest, -1)


# ---------------------------------------------------------------------------
# fast closest-point queries against a polygonal forest
# ---------------------------------------------------------------------------

_QUERY_PAIRS = 1 << 16      # (point, circle or segment) pairs per closest-segment batch
_RUN = 4                    # consecutive segments of a component per run
_GROUP = 8                  # consecutive runs per group


def _least(values: np.ndarray, k: int):
    """Columns of the k least values of each row, and the next least value
    (inf when the row has no more)."""
    if k >= values.shape[1]:
        return (np.broadcast_to(np.arange(values.shape[1]), values.shape),
                np.full(len(values), np.inf))
    part = np.argpartition(values, k, axis=1)
    return part[:, :k], np.take_along_axis(values, part[:, k:k + 1], axis=1)[:, 0]


def _circle_bounds(px, py, circles):
    """Least distance from (px, py) to any point in the circles (x, y, r)."""
    x, y, r = circles
    return np.sqrt((px - x) ** 2 + (py - y) ** 2) - r


class CurveIndex:
    """Closest-point and signed-distance queries against a polygonal forest.

    A two-level hierarchy of bounding circles covers the segments: each
    component's segments in runs of ``_RUN`` consecutive ones, and the runs
    in groups of ``_GROUP`` consecutive ones.  A circle is centred on its
    endpoints' bounding box and reaches the farthest endpoint, so no segment
    inside it is nearer to a point p than |p - c| - r.  A point takes the k
    groups of least bound (k = 1 first), then the 2k runs of least bound
    inside those (two, so that a point near the end of a run sees the next
    one), and evaluates their segments exactly in one vectorised pass.  Every segment not evaluated lies in a run or a group whose bound
    is at least the next least one, so the best segment is the closest when
    its squared distance is at most the square of that bound.  Points
    failing this guard are queried again with k four times larger, up to
    every segment.  Each radius is widened by 1e-12 (r + |c|) against rounding.

    The distance returned is norm(point - foot) with foot = a + t (b - a),
    the vector the gradient (point - foot) / s divides, so |grad s| = 1 to
    rounding even where s is itself at rounding level.  Of two consecutive
    segments exactly equally close, as at a foot on their shared vertex, the
    one starting at that vertex is returned; other exact ties may return
    either segment.

    Sign convention: negative inside the enclosed region, positive outside,
    matching dist(x, region) - dist(x, complement).
    """

    def __init__(self, geometry: CurveGeometry):
        curve = geometry.curve
        self.seg_start, self.seg_end, self.seg_comp, self.seg_local = curve.segments
        self.seg_vec = self.seg_end - self.seg_start
        self.seg_len2 = np.maximum(np.sum(self.seg_vec * self.seg_vec, axis=1), 1e-300)
        self.hmax = float(curve.edge_lengths.max())
        self.next_of, self.prev_of = curve.layout[:2]
        self.seg_first, self.seg_count = curve.layout.first, curve.layout.counts
        self.nu = geometry.nu
        # sum of the unit normals of the two edges at each vertex: positive
        # on the vertex's whole normal cone, whatever its turning angle
        edge_nu = self.seg_vec[:, ::-1] * [1.0, -1.0] / np.sqrt(self.seg_len2)[:, None]
        self.pseudo_nu = edge_nu + edge_nu[self.prev_of]
        # start x, start y, edge x, edge y and squared length of each segment
        self.seg_rows = np.vstack([self.seg_start.T, self.seg_vec.T, self.seg_len2])
        # runs never cross a component; a short last run repeats its last segment
        runs = cycle_layout(tuple((-(-self.seg_count // _RUN)).tolist()))
        run_seg = self.seg_first[runs.comp, None] + np.minimum(
            runs.local[:, None] * _RUN + np.arange(_RUN), self.seg_count[runs.comp, None] - 1)
        nrun = len(run_seg)
        slots = np.arange(-(-nrun // _GROUP) * _GROUP).reshape(-1, _GROUP)
        # the last group's spare slots name an extra run at infinity (its
        # segments are the first run's), and its circle repeats its last real run
        self.group_run = np.minimum(slots, nrun)
        self.group_circle = self._circles(
            run_seg[np.minimum(slots, nrun - 1)].reshape(len(slots), -1))
        self.run_circle = np.hstack([self._circles(run_seg), [[np.inf], [np.inf], [0.0]]])
        self.run_seg = np.vstack([run_seg, run_seg[:1]])

    def _circles(self, segs):
        """Bounding circles (x, y, r), (3, M), of M rows of segment ids."""
        ends = np.concatenate([self.seg_start[segs], self.seg_end[segs]], axis=1)
        centre = 0.5 * (ends.min(axis=1) + ends.max(axis=1))
        radius = np.sqrt(np.max(np.sum((ends - centre[:, None]) ** 2, axis=2), axis=1))
        return np.vstack([centre.T, radius + 1e-12 * (radius + np.abs(centre).max(axis=1))])

    def unsigned(self, points: np.ndarray):
        """Distance, foot point, global segment id and on-edge parameter."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        seg = np.empty(len(points), dtype=np.intp)
        t = np.empty(len(points))
        d2 = np.empty(len(points))
        ngroup = len(self.group_run)
        todo, k = np.arange(len(points)), 1
        while len(todo):
            rows = max(1, _QUERY_PAIRS // (ngroup + k * (_GROUP + 2 * _RUN)))
            todo = np.concatenate([self._closest(points, todo[a:a + rows], k, seg, t, d2)
                                   for a in range(0, len(todo), rows)])
            k = min(4 * k, self.group_run.size)
        # of two consecutive segments equally close, the later one, which
        # starts at the vertex they share
        nxt = self.next_of[seg]
        t_next, d2_next = self._project(points[:, 0], points[:, 1], nxt)
        move = d2_next <= d2
        seg[move] = nxt[move]
        t[move] = t_next[move]
        foot = self.seg_start[seg] + t[:, None] * self.seg_vec[seg]
        return row_norms(points - foot), foot, seg, t

    def _project(self, px, py, segs):
        """On-edge parameter and squared distance of (px, py) to segments segs."""
        ax, ay, abx, aby, len2 = np.take(self.seg_rows, segs, axis=1)
        tc = np.clip(((px - ax) * abx + (py - ay) * aby) / len2, 0.0, 1.0)
        rx = px - (ax + tc * abx)
        ry = py - (ay + tc * aby)
        return tc, rx * rx + ry * ry

    def _closest(self, points, ids, k, seg, t, d2):
        """Closest of the segments in the 2k nearest runs of the k nearest
        groups of points[ids], written into seg, t and d2; returns the ids
        whose completeness guard fails."""
        px, py = points[ids, 0, None], points[ids, 1, None]
        rows = np.arange(len(ids))
        groups, next_group = _least(_circle_bounds(px, py, self.group_circle), k)
        runs = self.group_run[groups].reshape(len(ids), -1)
        picked, next_run = _least(
            _circle_bounds(px, py, np.take(self.run_circle, runs, axis=1)), 2 * k)
        cand = self.run_seg[np.take_along_axis(runs, picked, axis=1)].reshape(len(ids), -1)
        tc, dc = self._project(px, py, cand)
        j = np.argmin(dc, axis=1)
        seg[ids] = cand[rows, j]
        t[ids] = tc[rows, j]
        d2[ids] = dc[rows, j]
        bound = np.maximum(np.minimum(next_group, next_run), 0.0)
        return ids[d2[ids] > bound * bound]

    def bisector_crossings(self, points: np.ndarray, a: np.ndarray, b: np.ndarray):
        """Where the segments points[a] -> points[b] cross a vertex's bisector.

        The line through a vertex along its pseudo-normal bisects the angle
        of the two edges there.  On the inside of the turn, where their
        strips overlap, the gradient of the distance jumps across it; on
        the outside it turns through the whole angle within the vertex's
        fan, which is narrow near the vertex.  The vertices tried are
        those passed on the shorter way round from the nearest segment of
        points[a] to that of points[b].  Returns, per crossing, its index
        into ``a`` and its parameter in (0, 1) along the segment.
        """
        _, _, seg, _ = self.unsigned(points)
        ia, ib = seg[a], seg[b]
        comp = self.seg_comp[ia]
        n = self.seg_count[comp]
        fwd = (self.seg_local[ib] - self.seg_local[ia]) % n
        steps = np.where(self.seg_comp[ib] == comp, np.minimum(fwd, n - fwd), 0)
        back = fwd > n - fwd
        row = np.repeat(np.arange(len(a)), steps)
        k = 1 + np.arange(len(row)) - np.repeat(np.cumsum(steps) - steps, steps)
        # forward, the vertex after the segment; backward, its own start
        local = (self.seg_local[ia][row] + np.where(back[row], 1 - k, k)) % n[row]
        vid = self.seg_first[comp[row]] + local
        p0, d = points[a[row]], points[b[row]] - points[a[row]]
        m, rel = self.pseudo_nu[vid], self.seg_start[vid] - p0
        den = d[:, 0] * m[:, 1] - d[:, 1] * m[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = (rel[:, 0] * m[:, 1] - rel[:, 1] * m[:, 0]) / den
        keep = (u > 0.0) & (u < 1.0)
        return row[keep], u[keep]

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
        for k, (v, o) in enumerate(zip(np.split(curve.vertices, curve.layout.split),
                                       curve.orientations.tolist())):
            fh.write(f"component {k} {o:+d}\n")
            fh.write("".join(f"{x!r} {y!r}\n" for x, y in v.tolist()))
            fh.write("\n")


def read_curve_file(path) -> PolyCurve:
    """Parse the block format; closure is implicit and duplicated endpoints
    are rejected, as are a header orientation that contradicts its block's
    vertex order (``ValueError``) and one that contradicts its nesting depth
    (:class:`OrientationMismatch`)."""
    parts, orientations = [], []
    with open(path) as fh:
        blocks = fh.read().split("\n\n")
    for block in blocks:
        lines = [ln.strip() for ln in block.strip().splitlines() if ln.strip()]
        if not lines:
            continue
        head = lines[0].split()
        if head[0] != "component" or len(head) != 3:
            raise ValueError(f"bad component header: {lines[0]!r}")
        v = np.array([[float(a) for a in ln.split()] for ln in lines[1:]])
        if v.ndim != 2 or v.shape[1] != 2 or not np.isfinite(v).all():
            raise ValueError("vertices must be a finite (n, 2) array")
        # the box diagonal bounds the diameter, as in PolyCurve._validate: only
        # a closing gap within the floor of that bound reads the diameter
        gap = row_norms(v[:1] - v[-1:])[0]
        if (len(v) >= 2 and gap <= EDGE_FLOOR_REL * row_norms(np.ptp(v, axis=0)[None])[0]
                and gap <= EDGE_FLOOR_REL * _max_distance(v)):
            raise ValueError("curve blocks must not repeat the first vertex")
        parts.append(v)
        orientations.append(int(head[2]))
    # the keyword form checks each header orientation against its block's area
    curve = PolyCurve(vertices=np.vstack(parts) if parts else np.zeros((0, 2)),
                      counts=[len(v) for v in parts], orientations=orientations)
    jordan_decompose(curve)
    return curve

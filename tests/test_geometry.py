import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surfdiff import geometry as geo
from surfdiff.errors import AmbiguousNesting, DegenerateEdge, SelfIntersection

from conftest import vertex_angles


# ---------------------------------------------------------------------------
# construction and invariants
# ---------------------------------------------------------------------------

def test_circle_curvature_and_measures(unit_circle_256):
    _, caches = unit_circle_256
    cache = caches[0]
    assert np.max(np.abs(cache.kappa - 1.0)) <= 1e-3
    assert abs(cache.length - 2 * np.pi) <= 1e-3
    assert abs(cache.area - np.pi) <= 1e-3
    assert np.max(np.abs(np.linalg.norm(cache.tau, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(np.sum(cache.tau * cache.nu, axis=1))) <= 1e-12


def test_clockwise_hole_flips_signs():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 2.0, 256),
                           geo.make_circle((0, 0), 1.0, 256, orientation=-1)])
    caches = geo.build_geometry(curve)
    hole = caches[1]
    assert np.max(np.abs(hole.kappa + 1.0)) <= 1e-3
    assert hole.area < 0
    assert abs(hole.area + np.pi) <= 1e-3


def test_ellipse_curvature_matches_analytic():
    # kappa(t) = a b / (a^2 sin^2 t + b^2 cos^2 t)^(3/2)
    a, b, n = 2.0, 1.0, 512
    curve = geo.PolyCurve([geo.make_ellipse(a, b, n)])
    cache = geo.build_geometry(curve)[0]
    t = 2 * np.pi * np.arange(n) / n
    exact = a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5
    assert abs(cache.kappa[0] - a / b**2) <= 0.01 * (a / b**2)
    assert np.max(np.abs(cache.kappa - exact) / exact) <= 0.01


def test_vertex_count_floor():
    with pytest.raises(ValueError):
        geo.PolyCurve([geo.make_circle((0, 0), 1.0, 7)])


def test_degenerate_edge_rejected():
    v = geo.make_circle((0, 0), 1.0, 64).vertices.copy()
    v[10] = v[9] + 1e-15
    with pytest.raises(DegenerateEdge):
        geo.PolyCurve([geo.Component(v, 1)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(bad):
    v = geo.make_circle((0, 0), 1.0, 64).vertices.copy()
    v[5, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        geo.PolyCurve([geo.Component(v, 1)])
    with pytest.raises(ValueError, match="finite"):
        geo.PolyCurve([v])


def test_orientation_area_consistency():
    v = geo.make_circle((0, 0), 1.0, 64).vertices
    with pytest.raises(ValueError):
        geo.PolyCurve([geo.Component(v, -1)])


def test_self_intersection_detected():
    t = 2 * np.pi * np.arange(64) / 64
    fig8 = np.column_stack([np.sin(2 * t), np.sin(t)])
    with pytest.raises(SelfIntersection):
        geo.check_embedded(geo.PolyCurve([geo.Component(fig8, 1)]))


def test_touching_components_detected():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 64),
                           geo.make_circle((2.0, 0), 1.0, 64)])
    with pytest.raises(SelfIntersection):
        geo.check_embedded(curve)


# ---------------------------------------------------------------------------
# Gauss-Bonnet
# ---------------------------------------------------------------------------

def test_gauss_bonnet_circle(unit_circle_256):
    _, caches = unit_circle_256
    assert geo.gauss_bonnet_residual(caches[0]) <= 1e-3


def test_turning_angle_sum_exact_for_any_polygon():
    rng = np.random.default_rng(11)
    t = 2 * np.pi * np.arange(128) / 128
    r = 1.0 + 0.15 * np.cos(4 * t) + 0.1 * np.sin(7 * t) + 0.02 * rng.normal(size=128)
    curve = geo.PolyCurve([geo.Component(
        np.column_stack([r * np.cos(t), r * np.sin(t)]), 1)])
    cache = geo.build_geometry(curve)[0]
    assert geo.gauss_bonnet_residual(cache) <= 1e-10


def test_gauss_bonnet_two_disjoint_circles():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 256),
                           geo.make_circle((4, 0), 1.0, 256)])
    for cache in geo.build_geometry(curve):
        assert geo.gauss_bonnet_residual(cache) <= 1e-3


def test_gauss_bonnet_refinement_rate():
    # smooth non-circular sampling: residual of the quadrature form drops O(N^-2)
    res = []
    for n in (64, 128, 256):
        curve = geo.PolyCurve([geo.make_wavy_circle(1.0, 0.1, 3, n)])
        cache = geo.build_geometry(curve)[0]
        res.append(geo.gauss_bonnet_residual(cache))
    assert res[0] <= 1e-3 * (256 / 64) ** 2
    assert all(r <= 1e-10 for r in res)  # turning angles telescope exactly


# ---------------------------------------------------------------------------
# Jordan decomposition
# ---------------------------------------------------------------------------

def _brute_force_containment(curve):
    """Oracle: winding-number containment matrix via angle accumulation."""
    k = curve.ncomponents
    mat = np.zeros((k, k), dtype=bool)
    for i in range(k):
        probe = curve.components[i].vertices[0]
        for j in range(k):
            if i == j:
                continue
            v = curve.components[j].vertices - probe
            ang = np.arctan2(v[:, 1], v[:, 0])
            dang = np.diff(np.concatenate([ang, ang[:1]]))
            dang = (dang + np.pi) % (2 * np.pi) - np.pi
            winding = np.sum(dang) / (2 * np.pi)
            mat[j, i] = abs(winding) > 0.5
    return mat


def test_jordan_single_circle(unit_circle_256):
    curve, _ = unit_circle_256
    forest = geo.jordan_decompose(curve)
    assert forest.boundaries == [(0, 1)]
    assert forest.parent == [-1]


def test_jordan_annulus():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 2.0, 128),
                           geo.make_circle((0, 0), 1.0, 128, -1)])
    forest = geo.jordan_decompose(curve)
    assert forest.boundaries == [(0, 1), (1, -1)]
    assert forest.parent == [-1, 0]
    assert forest.regions == [(0, [1])]
    assert forest.total_perimeter(curve) == curve.length()


def test_jordan_depth_three_forest():
    curve = geo.PolyCurve([
        geo.make_circle((0, 0), 4.0, 128),
        geo.make_circle((-1.5, 0), 1.0, 128, -1),
        geo.make_circle((1.8, 0), 0.8, 128, -1),
        geo.make_circle((-1.5, 0), 0.4, 64),   # island inside the first hole
    ])
    forest = geo.jordan_decompose(curve)
    oracle = _brute_force_containment(curve)
    k = curve.ncomponents
    depth_oracle = oracle.sum(axis=0)
    assert forest.depth == list(depth_oracle)
    for i in range(k):
        holders = [j for j in range(k) if oracle[j, i]]
        parent_oracle = max(holders, key=lambda j: depth_oracle[j]) if holders else -1
        assert forest.parent[i] == parent_oracle
    assert forest.boundaries[3] == (3, 1)
    assert forest.total_perimeter(curve) == curve.length()


def test_jordan_ambiguous_probe():
    # the inner component's probe vertex sits within the nesting tolerance of
    # the outer polygon: the decomposition must report, not guess
    outer = geo.make_circle((0, 0), 2.0, 64)
    inner = geo.make_circle((0, 0), 1.0, 64, -1).vertices.copy()
    inner[0] = outer.vertices[0] * (1.0 - 1e-12)
    with pytest.raises(AmbiguousNesting):
        geo.jordan_decompose(geo.PolyCurve([outer, geo.Component(inner, -1)]))


# ---------------------------------------------------------------------------
# intrinsic metric
# ---------------------------------------------------------------------------

def test_intrinsic_distance_antipodal(unit_circle_256):
    _, caches = unit_circle_256
    cache = caches[0]
    d = geo.intrinsic_distance(cache, 0, cache, 128)
    assert abs(d - np.pi) <= 1e-3


def test_intrinsic_distance_adjacent(unit_circle_256):
    _, caches = unit_circle_256
    cache = caches[0]
    assert abs(geo.intrinsic_distance(cache, 3, cache, 4)
               - cache.edge_lengths[3]) <= 1e-14


def test_intrinsic_distance_quarter_brute_force():
    n = 64
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, n)])
    cache = geo.build_geometry(curve)[0]
    i, j = 0, n // 4
    # brute force: min of the two arc sums
    fwd = np.sum(cache.edge_lengths[i:j])
    bwd = cache.length - fwd
    assert abs(geo.intrinsic_distance(cache, i, cache, j) - min(fwd, bwd)) <= 1e-14
    assert abs(min(fwd, bwd) - cache.length / 4) <= 1e-12


def test_intrinsic_distance_across_components():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 64),
                           geo.make_circle((4, 0), 1.0, 64)])
    ca, cb = geo.build_geometry(curve)
    assert geo.intrinsic_distance(ca, 0, cb, 0) == float("inf")


def _hairpin(gap=0.05, length=2.0, n_side=120, n_cap=24):
    """Two parallel segments joined by semicircular caps."""
    r = gap / 2
    top = np.column_stack([np.linspace(length, 0.0, n_side, endpoint=False),
                           np.full(n_side, r)])
    left = np.column_stack([
        -r * np.sin(np.linspace(0, np.pi, n_cap, endpoint=False)) * np.cos(0 * np.pi),
        r * np.cos(np.linspace(0, np.pi, n_cap, endpoint=False))])
    bottom = np.column_stack([np.linspace(0.0, length, n_side, endpoint=False),
                              np.full(n_side, -r)])
    right = np.column_stack([
        length + r * np.sin(np.linspace(0, np.pi, n_cap, endpoint=False)),
        -r * np.cos(np.linspace(0, np.pi, n_cap, endpoint=False))])
    pts = np.vstack([top, left, bottom, right])
    return geo.PolyCurve([geo.Component(pts, 1)])


def test_density_ratio_circle(unit_circle_256):
    _, caches = unit_circle_256
    ratio = geo.density_ratio_bound(caches[0])
    assert abs(ratio - 1.0) <= 1e-12


def test_density_ratio_hairpin_intrinsic():
    # extrinsically the two sides almost coincide, but the intrinsic ratio
    # stays at 1: direct arc-length count on the polyline
    curve = _hairpin()
    cache = geo.build_geometry(curve)[0]
    ratio = geo.density_ratio_bound(cache)
    assert abs(ratio - 1.0) <= 1e-12
    # oracle on one explicit ball: measure of radius-r ball is min(2r, L)
    assert geo.intrinsic_ball_measure(cache, 5, 0.3) == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# Poincare ratio
# ---------------------------------------------------------------------------

def test_poincare_cos_exact(unit_circle_256):
    _, caches = unit_circle_256
    cache = caches[0]
    u = geo.VertexField(0, np.cos(vertex_angles(cache)))
    assert abs(geo.poincare_ratio(cache, u, 2) - 0.25) <= 1e-3


def test_poincare_constant_field(unit_circle_256):
    _, caches = unit_circle_256
    u = geo.VertexField(0, np.full(caches[0].n, 3.7))
    assert geo.poincare_ratio(caches[0], u, 2) == 0.0


def test_poincare_sawtooth_vs_direct_quadrature(unit_circle_256):
    _, caches = unit_circle_256
    cache = caches[0]
    vals = cache.arc_positions - cache.length / 2
    u = geo.VertexField(0, vals)
    ratio = geo.poincare_ratio(cache, u, 2)
    # independent oracle: plain trapezoid loops
    mean = float(np.dot(cache.weights, vals) / cache.length)
    num = 0.0
    den = 0.0
    for i in range(cache.n):
        num += cache.weights[i] * (vals[i] - mean) ** 2
        ip, im = (i + 1) % cache.n, (i - 1) % cache.n
        grad = (vals[ip] - vals[im]) / (2 * cache.weights[i])
        den += cache.weights[i] * grad ** 2
    # the sawtooth derivative misbehaves only at the wrap vertex
    assert ratio == pytest.approx(num / (cache.diameter ** 2 * den), rel=1e-12)
    assert np.isfinite(ratio) and ratio > 0


# ---------------------------------------------------------------------------
# discrete calculus invariants
# ---------------------------------------------------------------------------

def test_closed_curve_derivative_telescopes(unit_circle_256):
    _, caches = unit_circle_256
    cache = caches[0]
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = rng.normal(size=cache.n)
        assert abs(geo.integrate(cache, geo.dds(cache, f))) <= 1e-11 * max(
            1.0, np.abs(f).max())


def test_perimeter_additivity():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 64),
                           geo.make_circle((5, 0), 2.0, 128)])
    caches = geo.build_geometry(curve)
    assert curve.length() == sum(c.length for c in caches)


def test_smooth_sampling_curvature_order():
    errs = []
    for n in (64, 128, 256):
        cache = geo.build_geometry(
            geo.PolyCurve([geo.make_circle((0, 0), 1.0, n)]))[0]
        errs.append(np.max(np.abs(cache.kappa - 1.0)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


# ---------------------------------------------------------------------------
# curve file round trip
# ---------------------------------------------------------------------------

def test_curve_file_roundtrip(tmp_path):
    curve = geo.PolyCurve([geo.make_circle((0, 0), 2.0, 64),
                           geo.make_circle((0, 0), 1.0, 32, -1)])
    path = tmp_path / "curve.txt"
    geo.write_curve_file(curve, path)
    back = geo.read_curve_file(path)
    assert back.ncomponents == 2
    for a, b in zip(curve.components, back.components):
        assert a.orientation == b.orientation
        np.testing.assert_array_equal(a.vertices, b.vertices)


def test_curve_file_rejects_duplicate_endpoint(tmp_path):
    path = tmp_path / "bad.txt"
    v = geo.make_circle((0, 0), 1.0, 16).vertices
    with open(path, "w") as fh:
        fh.write("component 0 +1\n")
        for x, y in v:
            fh.write(f"{x} {y}\n")
        fh.write(f"{v[0, 0]} {v[0, 1]}\n")
    with pytest.raises(ValueError):
        geo.read_curve_file(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_curve_file_rejects_non_finite(tmp_path, token):
    path = tmp_path / "nan.txt"
    v = geo.make_circle((0, 0), 1.0, 16).vertices
    lines = [f"{float(x)!r} {float(y)!r}" for x, y in v]
    lines[3] = f"{token} 0.5"
    path.write_text("component 0 +1\n" + "\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="finite"):
        geo.read_curve_file(path)


def test_curve_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad2.txt"
    path.write_text("loop 0 1\n0 0\n1 0\n0 1\n")
    with pytest.raises(ValueError):
        geo.read_curve_file(path)


# ---------------------------------------------------------------------------
# diameter: rotating calipers against all pairs
# ---------------------------------------------------------------------------

ORACLE = settings(max_examples=60, deadline=None, database=None)


def _brute_diameter(points):
    return float(np.sqrt(np.sum((points[:, None] - points[None]) ** 2, axis=-1)).max())


def _assert_diameter_exact(points):
    exact = _brute_diameter(points)
    assert abs(geo._diameter(points) - exact) <= 1e-15 * exact


@ORACLE
@given(arrays(np.float64, st.tuples(st.integers(3, 200), st.just(2)),
              elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
def test_diameter_random_clouds(points):
    _assert_diameter_exact(points)


@ORACLE
@given(st.integers(3, 600), st.floats(1e-3, 1e3), st.floats(0.0, 2 * np.pi),
       st.floats(-10.0, 10.0), st.booleans())
def test_diameter_regular_ngons(n, radius, phase, shift, clockwise):
    t = phase + 2 * np.pi * np.arange(n) / n
    points = shift + radius * np.column_stack([np.cos(t), np.sin(t)])
    _assert_diameter_exact(points[::-1] if clockwise else points)


@ORACLE
@given(st.integers(3, 600), st.floats(1.0, 1e3), st.floats(0.0, np.pi),
       st.integers(0, 2**32 - 1))
def test_diameter_elongated_ellipses(n, aspect, angle, seed):
    # dense sampling of an elongated convex curve, where a neighbour-only
    # caliper walk misses the farthest pair
    t = np.sort(np.random.default_rng(seed).uniform(0.0, 2 * np.pi, n))
    c, s = np.cos(angle), np.sin(angle)
    points = np.column_stack([aspect * np.cos(t), np.sin(t)]) @ np.array([[c, s], [-s, c]])
    _assert_diameter_exact(points)


def test_diameter_collinear_and_coincident():
    line = np.outer(np.array([0.0, 3.0, 1.0, -2.0, 0.5]), [1.0, 2.0])
    assert geo._diameter(line) == pytest.approx(5.0 * np.sqrt(5.0), rel=1e-15)
    assert geo._diameter(np.ones((4, 2))) == 0.0

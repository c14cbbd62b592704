import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surfdiff import geometry as geo
from surfdiff.errors import (
    AmbiguousNesting,
    DegenerateEdge,
    OrientationMismatch,
    SelfIntersection,
)

import geometry_oracle as oracle
from conftest import jittered_loop, vertex_angles


# ---------------------------------------------------------------------------
# construction and invariants
# ---------------------------------------------------------------------------

def test_circle_curvature_and_measures(unit_circle_256):
    _, geom = unit_circle_256
    assert np.max(np.abs(geom.kappa - 1.0)) <= 1e-3
    assert abs(geom.length[0] - 2 * np.pi) <= 1e-3
    assert abs(geom.area[0] - np.pi) <= 1e-3
    assert np.max(np.abs(np.linalg.norm(geom.tau, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(np.sum(geom.tau * geom.nu, axis=1))) <= 1e-12


def test_clockwise_hole_flips_signs():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 2.0, 256),
                           geo.make_circle((0, 0), 1.0, 256, orientation=-1)])
    geom = geo.build_geometry(curve)
    assert np.max(np.abs(geom.kappa[256:] + 1.0)) <= 1e-3
    assert geom.area[1] < 0
    assert abs(geom.area[1] + np.pi) <= 1e-3


def test_ellipse_curvature_matches_analytic():
    # kappa(t) = a b / (a^2 sin^2 t + b^2 cos^2 t)^(3/2)
    a, b, n = 2.0, 1.0, 512
    curve = geo.PolyCurve([geo.make_ellipse(a, b, n)])
    geom = geo.build_geometry(curve)
    t = 2 * np.pi * np.arange(n) / n
    exact = a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5
    assert abs(geom.kappa[0] - a / b**2) <= 0.01 * (a / b**2)
    assert np.max(np.abs(geom.kappa - exact) / exact) <= 0.01


def test_vertex_count_floor():
    with pytest.raises(ValueError):
        geo.PolyCurve([geo.make_circle((0, 0), 1.0, 7)])


def test_degenerate_edge_rejected():
    v = geo.make_circle((0, 0), 1.0, 64)
    v[10] = v[9] + 1e-15
    with pytest.raises(DegenerateEdge):
        geo.PolyCurve([v])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(bad):
    v = geo.make_circle((0, 0), 1.0, 64)
    v[5, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        geo.PolyCurve([v])


def test_orientation_area_consistency():
    # a listed component takes the orientation of its area, which a stacked
    # build checks; a component of zero area has neither
    v = geo.make_circle((0, 0), 1.0, 64)
    assert geo.PolyCurve([v[::-1], 2.0 * v]).orientations.tolist() == [-1, 1]
    with pytest.raises(ValueError, match="^component 0: signed area .* contradicts orientation -1$"):
        geo.PolyCurve(vertices=v, counts=[64], orientations=[-1])
    flat = np.column_stack([[0.0, 1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0], np.zeros(8)])
    with pytest.raises(ValueError, match="^component 1: signed area 0.000e\\+00 contradicts"):
        geo.PolyCurve([2.0 * v, flat])


def test_self_intersection_detected():
    # vertices 0 and 32 coincide at the crossing: of the four segment pairs
    # meeting there, the first in (i, j) order, (0, 31), names the error
    t = 2 * np.pi * np.arange(64) / 64
    fig8 = np.column_stack([np.sin(2 * t), np.sin(t)])
    with pytest.raises(SelfIntersection, match="near segment 0$"):
        geo.check_embedded(geo.PolyCurve([fig8]))


def test_touching_components_detected():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 64),
                           geo.make_circle((2.0, 0), 1.0, 64)])
    with pytest.raises(SelfIntersection):
        geo.check_embedded(curve)


# ---------------------------------------------------------------------------
# Gauss-Bonnet
# ---------------------------------------------------------------------------

def test_gauss_bonnet_circle(unit_circle_256):
    _, geom = unit_circle_256
    assert oracle.gauss_bonnet_residual(geom)[0] <= 1e-3


def test_turning_angle_sum_exact_for_any_polygon():
    rng = np.random.default_rng(11)
    t = 2 * np.pi * np.arange(128) / 128
    r = 1.0 + 0.15 * np.cos(4 * t) + 0.1 * np.sin(7 * t) + 0.02 * rng.normal(size=128)
    curve = geo.PolyCurve([np.column_stack([r * np.cos(t), r * np.sin(t)])])
    assert oracle.gauss_bonnet_residual(geo.build_geometry(curve))[0] <= 1e-10


def test_gauss_bonnet_two_disjoint_circles():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 256),
                           geo.make_circle((4, 0), 1.0, 256)])
    assert np.all(oracle.gauss_bonnet_residual(geo.build_geometry(curve)) <= 1e-3)


def test_gauss_bonnet_refinement_rate():
    # smooth non-circular sampling: residual of the quadrature form drops O(N^-2)
    res = []
    for n in (64, 128, 256):
        curve = geo.PolyCurve([geo.make_wavy_circle(1.0, 0.1, 3, n)])
        res.append(oracle.gauss_bonnet_residual(geo.build_geometry(curve))[0])
    assert res[0] <= 1e-3 * (256 / 64) ** 2
    assert all(r <= 1e-10 for r in res)  # turning angles telescope exactly


# ---------------------------------------------------------------------------
# Jordan decomposition
# ---------------------------------------------------------------------------

def _brute_force_containment(curve):
    """Oracle: winding-number containment matrix via angle accumulation."""
    k = curve.ncomponents
    mat = np.zeros((k, k), dtype=bool)
    parts = np.split(curve.vertices, curve.layout.split)
    for i in range(k):
        probe = parts[i][0]
        for j in range(k):
            if i == j:
                continue
            v = parts[j] - probe
            ang = np.arctan2(v[:, 1], v[:, 0])
            dang = np.diff(np.concatenate([ang, ang[:1]]))
            dang = (dang + np.pi) % (2 * np.pi) - np.pi
            winding = np.sum(dang) / (2 * np.pi)
            mat[j, i] = abs(winding) > 0.5
    return mat


def _depth(parent):
    """Nesting depth of each component: the steps up its parent chain to a root."""
    def up(k):
        return 0 if parent[k] < 0 else 1 + up(parent[k])
    return [up(k) for k in range(len(parent))]


def _assert_matches_containment_oracle(curve, parent):
    oracle_mat = _brute_force_containment(curve)
    k = curve.ncomponents
    depth_oracle = oracle_mat.sum(axis=0)
    assert _depth(parent) == list(depth_oracle)
    for i in range(k):
        holders = [j for j in range(k) if oracle_mat[j, i]]
        parent_oracle = max(holders, key=lambda j: depth_oracle[j]) if holders else -1
        assert parent[i] == parent_oracle


def test_jordan_single_circle(unit_circle_256):
    curve, _ = unit_circle_256
    parent = geo.jordan_decompose(curve)
    assert _depth(parent) == [0]
    assert parent.tolist() == [-1]
    _assert_matches_containment_oracle(curve, parent)


def test_jordan_annulus():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 2.0, 128),
                           geo.make_circle((0, 0), 1.0, 128, -1)])
    parent = geo.jordan_decompose(curve)
    assert _depth(parent) == [0, 1]
    assert parent.tolist() == [-1, 0]
    _assert_matches_containment_oracle(curve, parent)


def test_jordan_depth_three_forest():
    curve = geo.PolyCurve([
        geo.make_circle((0, 0), 4.0, 128),
        geo.make_circle((-1.5, 0), 1.0, 128, -1),
        geo.make_circle((1.8, 0), 0.8, 128, -1),
        geo.make_circle((-1.5, 0), 0.4, 64),   # island inside the first hole
    ])
    parent = geo.jordan_decompose(curve)
    assert _depth(parent) == [0, 1, 1, 2]
    assert parent.tolist() == [-1, 0, 0, 1]
    _assert_matches_containment_oracle(curve, parent)


def test_jordan_ambiguous_probe():
    # the inner component's probe vertex sits within the nesting tolerance of
    # the outer polygon: the decomposition must report, not guess
    outer = geo.make_circle((0, 0), 2.0, 64)
    inner = geo.make_circle((0, 0), 1.0, 64, -1)
    inner[0] = outer[0] * (1.0 - 1e-12)
    with pytest.raises(AmbiguousNesting):
        geo.jordan_decompose(geo.PolyCurve([outer, inner]))


# ---------------------------------------------------------------------------
# intrinsic metric
# ---------------------------------------------------------------------------

def test_intrinsic_distance_antipodal(unit_circle_256):
    _, geom = unit_circle_256
    d = oracle.intrinsic_distance(geom, 0, 128)
    assert abs(d - np.pi) <= 1e-3


def test_intrinsic_distance_adjacent(unit_circle_256):
    _, geom = unit_circle_256
    assert abs(oracle.intrinsic_distance(geom, 3, 4) - geom.edge_lengths[3]) <= 1e-14


def test_intrinsic_distance_quarter_brute_force():
    n = 64
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, n)])
    geom = geo.build_geometry(curve)
    i, j = 0, n // 4
    # brute force: min of the two arc sums
    fwd = np.sum(geom.edge_lengths[i:j])
    bwd = geom.length[0] - fwd
    assert abs(oracle.intrinsic_distance(geom, i, j) - min(fwd, bwd)) <= 1e-14
    assert abs(min(fwd, bwd) - geom.length[0] / 4) <= 1e-12


def test_intrinsic_distance_across_components():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 64),
                           geo.make_circle((4, 0), 1.0, 64)])
    # vertex 64 is the first of the second circle
    assert oracle.intrinsic_distance(geo.build_geometry(curve), 0, 64) == float("inf")


# ---------------------------------------------------------------------------
# Poincare ratio
# ---------------------------------------------------------------------------

def test_poincare_cos_exact(unit_circle_256):
    _, geom = unit_circle_256
    assert abs(oracle.poincare_ratio(geom, np.cos(vertex_angles(geom)), 2)[0] - 0.25) <= 1e-3


def test_poincare_constant_field(unit_circle_256):
    _, geom = unit_circle_256
    assert oracle.poincare_ratio(geom, np.full(256, 3.7), 2)[0] == 0.0


def test_poincare_sawtooth_vs_direct_quadrature(unit_circle_256):
    curve, geom = unit_circle_256
    vals = geom.arc_positions - geom.length[0] / 2
    ratio = oracle.poincare_ratio(geom, vals, 2)[0]
    # independent oracle: plain trapezoid loops
    n, w = len(vals), geom.weights
    mean = float(np.dot(w, vals) / geom.length[0])
    num = 0.0
    den = 0.0
    for i in range(n):
        num += w[i] * (vals[i] - mean) ** 2
        ip, im = (i + 1) % n, (i - 1) % n
        grad = (vals[ip] - vals[im]) / (2 * w[i])
        den += w[i] * grad ** 2
    # the sawtooth derivative misbehaves only at the wrap vertex
    assert ratio == pytest.approx(num / (curve.diameter ** 2 * den), rel=1e-12)
    assert np.isfinite(ratio) and ratio > 0


# ---------------------------------------------------------------------------
# discrete calculus invariants
# ---------------------------------------------------------------------------

def test_closed_curve_derivative_telescopes(unit_circle_256):
    _, geom = unit_circle_256
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = rng.normal(size=256)
        assert abs(geo.integrate(geom, geo.dds(geom, f))[0]) <= 1e-11 * max(
            1.0, np.abs(f).max())
    # a smooth field telescopes to rounding as well
    assert abs(geo.integrate(geom, geo.dds(geom, np.sin(3 * geom.arc_positions)))[0]) <= 1e-12


def test_smooth_sampling_curvature_order():
    errs = []
    for n in (64, 128, 256):
        geom = geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, n)]))
        errs.append(np.max(np.abs(geom.kappa - 1.0)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.integers(8, 200), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_stacked_calculus_matches_per_component_definitions(sizes, seed):
    # the stacked derivatives gather the same neighbours as np.roll on each
    # component, so they agree bit for bit; the quadrature sums in another
    # order, so it agrees to rounding of the integral of |f|
    rng = np.random.default_rng(seed)
    geom = geo.build_geometry(geo.PolyCurve(
        [jittered_loop(rng, n, (12.0 * k, 0.0), 1.0 + 0.5 * k) for k, n in enumerate(sizes)]))
    f = rng.normal(size=len(geom.weights))
    first, second = geo.dds(geom, f), geo.d2ds2(geom, f)
    total, mean = geo.integrate(geom, f), geo.field_mean(geom, f)
    for k, part in enumerate(oracle.parts(geom)):
        w, h, fk = geom.weights[part], geom.edge_lengths[part], f[part]
        assert np.array_equal(first[part], oracle.dds(w, fk))
        assert np.array_equal(second[part], oracle.d2ds2(h, w, fk))
        scale = oracle.integrate(w, np.abs(fk))
        assert abs(total[k] - oracle.integrate(w, fk)) <= 1e-14 * scale
        assert abs(mean[k] - oracle.field_mean(w, geom.length[k], fk)) \
            <= 1e-14 * scale / geom.length[k]
        assert geom.length[k] == np.sum(h)


@settings(max_examples=30, deadline=None, database=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=6))
def test_cycle_layout_matches_per_cycle_construction(lengths):
    lay = geo.cycle_layout(tuple(lengths))
    nxt, prv, comp, local, first = [], [], [], [], []
    for k, n in enumerate(lengths):
        start = sum(lengths[:k])
        first.append(start)
        for j in range(n):
            nxt.append(start + (j + 1) % n)
            prv.append(start + (j - 1) % n)
            comp.append(k)
            local.append(j)
    for got, want in ((lay.nxt, nxt), (lay.prv, prv), (lay.comp, comp), (lay.local, local),
                      (lay.first, first), (lay.split, first[1:])):
        np.testing.assert_array_equal(got, want)
    for a in lay:
        with pytest.raises(ValueError):
            a[...] = 0


# ---------------------------------------------------------------------------
# curve file round trip
# ---------------------------------------------------------------------------

def test_curve_file_roundtrip(tmp_path):
    curve = geo.PolyCurve([geo.make_circle((0, 0), 2.0, 64),
                           geo.make_circle((0, 0), 1.0, 32, -1)])
    path = tmp_path / "curve.txt"
    geo.write_curve_file(curve, path)
    back = geo.read_curve_file(path)
    assert back.counts == curve.counts
    np.testing.assert_array_equal(back.orientations, curve.orientations)
    np.testing.assert_array_equal(back.vertices, curve.vertices)


def test_curve_file_bytes_match_per_vertex_writer(tmp_path):
    def per_vertex_writer(curve, path):
        with open(path, "w") as fh:
            parts = np.split(curve.vertices, curve.layout.split)
            for k, (v, o) in enumerate(zip(parts, curve.orientations)):
                fh.write(f"component {k} {o:+d}\n")
                for x, y in v:
                    fh.write(f"{float(x)!r} {float(y)!r}\n")
                fh.write("\n")

    outer = geo.make_circle((0, 0), 1e17, 8)
    outer[2, 0] = -0.0
    hole = geo.make_circle((0, 0), 1.0, 8, -1)
    hole[6, 0] = 1e-300
    holed = geo.PolyCurve([outer, hole])
    loop = geo.PolyCurve([jittered_loop(np.random.default_rng(3), 512, np.zeros(2), 1.0)])
    for k, curve in enumerate((holed, loop)):
        geo.write_curve_file(curve, tmp_path / f"new{k}.txt")
        per_vertex_writer(curve, tmp_path / f"old{k}.txt")
        assert (tmp_path / f"new{k}.txt").read_bytes() == (tmp_path / f"old{k}.txt").read_bytes()
    text = (tmp_path / "new0.txt").read_bytes()
    assert b"\n-0.0 1e+17\n" in text and b"\n1e-300 1.0\n" in text


def test_curve_file_rejects_duplicate_endpoint(tmp_path):
    path = tmp_path / "bad.txt"
    v = geo.make_circle((0, 0), 1.0, 16)
    with open(path, "w") as fh:
        fh.write("component 0 +1\n")
        for x, y in v:
            fh.write(f"{x} {y}\n")
        fh.write(f"{v[0, 0]} {v[0, 1]}\n")
    with pytest.raises(ValueError):
        geo.read_curve_file(path)


def test_curve_file_reads_a_diameter_only_for_a_near_repeat(tmp_path, monkeypatch):
    # a closing gap above the floor of the box diagonal is decided without
    # the O(n^2) diameter; a repeated first vertex reads it once
    calls = []
    max_distance = geo._max_distance

    def counting(points):
        calls.append(len(points))
        return max_distance(points)

    monkeypatch.setattr(geo, "_max_distance", counting)
    curve = geo.PolyCurve([geo.make_circle((0.0, 0.0), 1.0, 4096)])
    path = tmp_path / "loop.txt"
    geo.write_curve_file(curve, path)
    assert np.array_equal(geo.read_curve_file(path).vertices, curve.vertices)
    assert calls == []
    lines = path.read_text().strip().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    with pytest.raises(ValueError, match="must not repeat the first vertex"):
        geo.read_curve_file(path)
    assert calls == [4097]


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_curve_file_rejects_non_finite(tmp_path, token):
    path = tmp_path / "nan.txt"
    v = geo.make_circle((0, 0), 1.0, 16)
    lines = [f"{float(x)!r} {float(y)!r}" for x, y in v]
    lines[3] = f"{token} 0.5"
    path.write_text("component 0 +1\n" + "\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="finite"):
        geo.read_curve_file(path)


def test_curve_file_rejects_orientation_against_nesting(tmp_path):
    # a counter-clockwise loop inside a counter-clockwise loop: the inner one
    # sits at nesting depth 1, where a hole runs clockwise
    path = tmp_path / "nested.txt"
    geo.write_curve_file(geo.PolyCurve([geo.make_circle((0, 0), 2.0, 64),
                                        geo.make_circle((0, 0), 1.0, 32)]), path)
    with pytest.raises(OrientationMismatch, match="component 1 at nesting depth 1 should "
                                                  "have orientation -1, got 1"):
        geo.read_curve_file(path)


def test_curve_file_rejects_header_against_vertex_order(tmp_path):
    # the hole's block runs clockwise but its header says +1
    path = tmp_path / "flipped.txt"
    geo.write_curve_file(geo.PolyCurve([geo.make_circle((0, 0), 2.0, 64),
                                        geo.make_circle((0, 0), 1.0, 32, -1)]), path)
    path.write_text(path.read_text().replace("component 1 -1", "component 1 +1"))
    with pytest.raises(ValueError, match="^component 1: signed area .* contradicts orientation 1$"):
        geo.read_curve_file(path)


def test_curve_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad2.txt"
    path.write_text("loop 0 1\n0 0\n1 0\n0 1\n")
    with pytest.raises(ValueError):
        geo.read_curve_file(path)


# ---------------------------------------------------------------------------
# diameter: the row-block maximum against all pairs
# ---------------------------------------------------------------------------

ORACLE = settings(max_examples=60, deadline=None, database=None)


def _brute_diameter(points):
    return float(np.sqrt(np.sum((points[:, None] - points[None]) ** 2, axis=-1)).max())


def _assert_diameters_exact(clouds):
    # each pair's arithmetic is the oracle's, and sqrt is monotone, so the
    # largest distance is the same bits
    for p in clouds:
        assert geo._max_distance(p) == _brute_diameter(p)


@ORACLE
@given(st.lists(arrays(np.float64, st.tuples(st.integers(3, 200), st.just(2)),
                       elements=st.floats(-1e3, 1e3, allow_subnormal=False)),
                min_size=1, max_size=4))
def test_diameter_random_clouds(clouds):
    _assert_diameters_exact(clouds)


@ORACLE
@given(st.lists(st.tuples(st.integers(3, 600), st.floats(1e-3, 1e3), st.floats(0.0, 2 * np.pi),
                          st.floats(-10.0, 10.0), st.booleans()), min_size=1, max_size=4))
def test_diameter_regular_ngons(ngons):
    clouds = []
    for n, radius, phase, shift, clockwise in ngons:
        t = phase + 2 * np.pi * np.arange(n) / n
        points = shift + radius * np.column_stack([np.cos(t), np.sin(t)])
        clouds.append(points[::-1] if clockwise else points)
    _assert_diameters_exact(clouds)


@ORACLE
@given(st.lists(st.tuples(st.integers(3, 600), st.floats(1.0, 1e3), st.floats(0.0, np.pi),
                          st.integers(0, 2**32 - 1)), min_size=1, max_size=4))
def test_diameter_elongated_ellipses(ellipses):
    # dense sampling of elongated convex curves, whose farthest pair lies
    # in the last row blocks as often as in the first
    clouds = []
    for n, aspect, angle, seed in ellipses:
        t = np.sort(np.random.default_rng(seed).uniform(0.0, 2 * np.pi, n))
        c, s = np.cos(angle), np.sin(angle)
        clouds.append(np.column_stack([aspect * np.cos(t), np.sin(t)])
                      @ np.array([[c, s], [-s, c]]))
    _assert_diameters_exact(clouds)


def test_diameter_collinear_and_coincident():
    line = np.outer(np.array([0.0, 3.0, 1.0, -2.0, 0.5]), [1.0, 2.0])
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert geo._max_distance(line) == pytest.approx(5.0 * np.sqrt(5.0), rel=1e-15)
    assert geo._max_distance(line[::-1]) == geo._max_distance(line)
    assert geo._max_distance(square) == np.sqrt(2.0)
    assert geo._max_distance(np.ones((4, 2))) == 0.0
    _assert_diameters_exact([line, square, np.ones((4, 2))])


def test_diameters_hold_no_quadratic_temporary():
    # a 4,096-vertex loop has 2**24 vertex pairs (128 MiB as float64); its
    # row blocks stay near 3 x 128 KiB
    curve = geo.PolyCurve([geo.make_circle((0.0, 0.0), 1.0, 4096)])
    tracemalloc.start()
    try:
        curve.diameters
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert curve.diameters[0] == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# point in polygon: the crossing test against the winding number and
# against every (point, edge) pair
# ---------------------------------------------------------------------------

def _winding(points, vertices):
    rel = vertices[None, :, :] - points[:, None, :]
    ang = np.arctan2(rel[..., 1], rel[..., 0])
    dang = np.diff(np.concatenate([ang, ang[:, :1]], axis=1), axis=1)
    dang = (dang + np.pi) % (2 * np.pi) - np.pi
    return np.rint(dang.sum(axis=1) / (2 * np.pi)).astype(int)


@ORACLE
@given(st.integers(3, 80), st.integers(0, 2**32 - 1), st.booleans())
def test_points_in_component_star_polygons(n, seed, clockwise):
    rng = np.random.default_rng(seed)
    ang = np.sort(rng.uniform(0, 2 * np.pi, n))
    rad = rng.uniform(0.2, 1.0, n)
    verts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    if clockwise:
        verts = verts[::-1]
    # random points plus points at every vertex height, where the half-open
    # rule decides whether the ray through a vertex counts once or not at all
    pts = np.vstack([rng.uniform(-1.1, 1.1, (200, 2)),
                     np.column_stack([rng.uniform(-1.1, 1.1, n), verts[:, 1]])])
    near = geo._point_segment_dist(pts[:, None, :], verts[None],
                                   np.roll(verts, -1, axis=0)[None]).min(axis=1)
    pts = pts[near > 1e-9]
    inside = geo.points_in_component(pts, verts)
    assert np.array_equal(inside, _winding(pts, verts) != 0)
    # grouped form: per-edge-group parity with a second, shifted copy
    other = verts + [0.5, 0.25]
    starts = np.vstack([verts, other])
    ends = np.vstack([np.roll(verts, -1, axis=0), np.roll(other, -1, axis=0)])
    grouped = geo.crossing_parity(pts, starts, ends, np.repeat([0, 1], n), 2)
    assert np.array_equal(grouped[:, 0], inside)
    assert np.array_equal(grouped[:, 1], _winding(pts, other) != 0)


def _histogram(rng, m, origin, scale):
    """An axis-aligned polygon, counter-clockwise: the region under a step
    function on m unit columns whose neighbouring heights differ, scaled and
    moved.  Half its edges are horizontal."""
    steps = rng.integers(1, 4, m - 1) * rng.choice([-1, 1], m - 1)
    h = np.concatenate([[0], np.cumsum(steps)])
    top = [(i + di, h[i] - h.min() + 1) for i in range(m - 1, -1, -1) for di in (1, 0)]
    return origin + np.array([(0, 0), (m, 0)] + top, dtype=float) * scale


@ORACLE
@given(st.integers(2, 20), st.integers(2, 20), st.integers(0, 2**32 - 1))
def test_crossing_parity_axis_aligned_polygons(m_a, m_b, seed):
    # a histogram and a transposed one, whose vertex heights every horizontal
    # edge and every vertical edge's end sit at: points at every vertex
    # height, on the vertices and at the vertical edges' abscissae are
    # decided by the half-open rule, and a horizontal edge holds no point,
    # so it divides by nothing; batches of 7 points split every set
    rng = np.random.default_rng(seed)
    a = _histogram(rng, m_a, rng.uniform(-1, 1, 2), rng.uniform(0.1, 1.0, 2))
    b = _histogram(rng, m_b, rng.uniform(-1, 1, 2), rng.uniform(0.1, 1.0, 2))[:, ::-1]
    starts = np.vstack([a, b])
    ends = np.vstack([np.roll(a, -1, axis=0), np.roll(b, -1, axis=0)])
    lo, hi = starts.min(axis=0) - 0.5, starts.max(axis=0) + 0.5
    xs = np.concatenate([rng.uniform(lo[0], hi[0], len(starts)), starts[:, 0]])
    pts = np.vstack([rng.uniform(lo, hi, (100, 2)), starts,
                     np.column_stack([rng.permutation(xs), np.tile(starts[:, 1], 2)])])
    group = np.repeat([0, 1], [len(a), len(b)])
    want = oracle.crossing_parity(pts, starts, ends, group, 2)
    single = oracle.crossing_parity(pts, starts, ends, np.zeros_like(group), 1)
    for chunk in (geo._PARITY_CHUNK, 7):
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="raise"):
            mp.setattr(geo, "_PARITY_CHUNK", chunk)
            assert np.array_equal(geo.crossing_parity(pts, starts, ends, group, 2), want)
            assert np.array_equal(geo.crossing_parity(pts, starts, ends), single)


# ---------------------------------------------------------------------------
# flattened segments: built once per curve, read-only
# ---------------------------------------------------------------------------

def test_segments_cached_and_read_only():
    curve = geo.PolyCurve([geo.make_circle((0.0, 0.0), 1.0, 16),
                           geo.make_circle((0.0, 0.0), 0.5, 12, orientation=-1)])
    first, second = curve.segments, curve.segments
    assert all(a is b for a, b in zip(first, second))
    starts, ends, comp_of, local_of = first
    assert np.array_equal(starts[16:], geo.make_circle((0.0, 0.0), 0.5, 12, orientation=-1))
    assert np.array_equal(ends[:16], np.roll(starts[:16], -1, axis=0))
    assert np.array_equal(comp_of, np.repeat([0, 1], [16, 12]))
    assert np.array_equal(local_of, np.concatenate([np.arange(16), np.arange(12)]))
    for arr in first:
        with pytest.raises(ValueError):
            arr[0] = arr[1]


def test_curve_geometry_read_only_and_shares_the_curve_arrays():
    # the samples of a run are evaluated on several threads that share
    # these arrays; the vertices and edge lengths are the curve's own, and
    # kappa and arc_positions, built on first read, are read-only too and
    # bit for bit their eager expressions
    curve = geo.PolyCurve([geo.make_circle((0.0, 0.0), 1.0, 16),
                           geo.make_circle((0.0, 0.0), 0.5, 12, orientation=-1)])
    geom = geo.build_geometry(curve)
    assert geom.vertices is curve.segments[0]
    assert geom.edge_lengths is curve.edge_lengths
    assert geom.layout is curve.layout
    arrays = ([getattr(geom, f.name) for f in dataclasses.fields(geom)
               if f.name not in ("curve", "layout")]
              + [geom.kappa, geom.arc_positions] + list(geom.layout))
    assert len(arrays) == 9 + 7
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = arr[-1]
    assert geom.kappa.tobytes() == oracle.turning_curvature(geom).tobytes()
    assert (geom.arc_positions.tobytes()
            == geo.cycle_arc(geom.edge_lengths, geom.layout)[0].tobytes())


# ---------------------------------------------------------------------------
# closest-point index against the dense all-segment minimum
# ---------------------------------------------------------------------------

def _star(rng, n, center, rmin, rmax, orientation=1):
    # jittered angles keep every gap below pi, so the polygon is simple and
    # star-shaped about its centre
    ang = 2 * np.pi * (np.arange(n) + 0.8 * rng.uniform(size=n)) / n
    rad = rng.uniform(rmin, rmax, n)
    v = np.asarray(center) + np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    return v[::-1] if orientation < 0 else v


def _check_index(curve, pts):
    index = geo.build_geometry(curve).index
    starts, ends, _, _ = curve.segments
    d, foot, seg, t = index.unsigned(pts)
    dense = geo._point_segment_dist(pts[:, None, :], starts[None], ends[None]).min(axis=1)
    assert np.all(np.abs(d - dense) <= 1e-15 * np.maximum(1.0, np.linalg.norm(pts, axis=1)))
    assert np.array_equal(d, np.linalg.norm(pts - foot, axis=1))
    assert np.array_equal(foot, starts[seg] + t[:, None] * (ends[seg] - starts[seg]))
    s, grad, _, _, _ = index.signed(pts)
    assert np.array_equal(np.abs(s), d)
    clear = d > 1e-9
    assert np.array_equal((s < 0)[clear], geo.crossing_parity(pts[clear], starts, ends)[:, 0])
    live = d > 1e-14 * max(1.0, index.hmax)
    assert np.all(np.abs(np.linalg.norm(grad[live], axis=1) - 1.0) <= 1e-12)


@ORACLE
@given(st.integers(8, 60), st.integers(8, 40), st.integers(0, 3),
       st.integers(0, 2**32 - 1))
def test_curve_index_star_forests(n_outer, n_hole, n_bubbles, seed):
    rng = np.random.default_rng(seed)
    comps = [_star(rng, n_outer, (0.0, 0.0), 0.6, 1.0),
             _star(rng, n_hole, (0.0, 0.0), 0.15, 0.4, orientation=-1)]
    for i, phi in enumerate(rng.uniform(0, 2 * np.pi, n_bubbles)):
        centre = (1.6 + 0.5 * i) * np.array([np.cos(phi), np.sin(phi)])
        comps.append(_star(rng, int(rng.integers(8, 25)), centre, 0.02, 0.08))
    curve = geo.PolyCurve(comps)
    starts, ends, _, _ = curve.segments
    lo, hi = starts.min(axis=0), starts.max(axis=0)
    # far points (bounding box inflated by three times its size) exercise
    # the growing-k retry; vertices, midpoints and points within 1e-13 of an
    # edge exercise ties and the rounding-level gradient
    u = rng.uniform(size=(len(starts), 1))
    jitter = rng.normal(size=starts.shape)
    near = (starts + u * (ends - starts)
            + 1e-13 * rng.uniform(-1, 1, (len(starts), 1)) * jitter
            / np.linalg.norm(jitter, axis=1)[:, None])
    pts = np.vstack([rng.uniform(lo - 3 * (hi - lo), hi + 3 * (hi - lo), (300, 2)),
                     starts, 0.5 * (starts + ends), near])
    _check_index(curve, pts)


def test_curve_index_coarse_vertices_on_fine_polygon():
    # every vertex of the 128-gon is a vertex of the 512-gon: the distance
    # is exactly zero and the gradient the vertex normal, whichever of the
    # two segments meeting there is returned
    fine = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 512)])
    coarse = geo.make_ellipse(2.0, 1.0, 128)
    s, grad, _, _, _ = geo.build_geometry(fine).index.signed(coarse)
    assert np.all(s == 0.0)
    assert np.array_equal(grad, geo.build_geometry(fine).nu[::4])
    # with the midpoints of the fine edges, where the distance is at rounding
    # level and only norm(point - foot) keeps |grad s| at 1
    starts, ends, _, _ = fine.segments
    _check_index(fine, np.vstack([coarse, 0.5 * (starts + ends)]))


def test_curve_index_vertex_foot_starts_its_segment():
    # outside each convex vertex of an octagon with integer vertices, the
    # two segments meeting there are exactly equally close (a + 1 * (v - a)
    # is v); the one starting at the vertex is returned, with t = 0
    octagon = np.array([[2.0, 0.0], [4.0, 0.0], [6.0, 2.0], [6.0, 4.0],
                        [4.0, 6.0], [2.0, 6.0], [0.0, 4.0], [0.0, 2.0]])
    curve = geo.PolyCurve([octagon])
    index = geo.build_geometry(curve).index
    pts = octagon + 0.5 * index.pseudo_nu
    d, foot, seg, t = index.unsigned(pts)
    assert np.array_equal(seg, np.arange(8))
    assert np.all(t == 0.0)
    assert np.array_equal(foot, octagon)


def test_curve_index_hierarchy_edge_cases():
    # component sizes that leave a short last run (8, 9, 17, 31), a tiny
    # far component in one group with a larger one, points exactly on every
    # run and group circle, and points far outside the bounding box
    rng = np.random.default_rng(7)
    curve = geo.PolyCurve([geo.make_circle((0.0, 0.0), 1.0, 31),
                           geo.make_circle((40.0, 25.0), 1e-3, 8),
                           geo.make_circle((0.0, 0.0), 0.5, 17, orientation=-1),
                           geo.make_circle((3.0, 0.0), 0.4, 9)])
    index = geo.build_geometry(curve).index
    shared = [np.unique(index.seg_comp[index.run_seg[runs]]) for runs in index.group_run]
    assert any(1 in comps and 2 in comps for comps in shared)
    circles = np.hstack([index.run_circle[:, :-1], index.group_circle])
    ang = rng.uniform(0.0, 2 * np.pi, (circles.shape[1], 4))
    on_circles = np.column_stack([
        (circles[0, :, None] + circles[2, :, None] * np.cos(ang)).ravel(),
        (circles[1, :, None] + circles[2, :, None] * np.sin(ang)).ravel()])
    starts = curve.segments[0]
    lo, hi = starts.min(axis=0), starts.max(axis=0)
    far = np.vstack([rng.uniform(lo - 1e3 * (hi - lo), hi + 1e3 * (hi - lo), (200, 2)),
                     [[1e8, 0.0], [-1e8, 1e8], [0.0, -1e12]]])
    _check_index(curve, np.vstack([on_circles, far, starts]))


# ---------------------------------------------------------------------------
# embeddedness against the brute-force segment clearance
# ---------------------------------------------------------------------------

def _tipped_star(rng, n, center, flip, rmin=0.5):
    # vertex 0 sits at distance 1 along +x (-x when flipped), every other
    # vertex within 0.9 of the centre: the tip is the component's unique
    # extreme point in that direction
    ang = 2 * np.pi * (np.arange(n) + 0.8 * rng.uniform(size=n)) / n
    ang[0] = 0.0
    rad = rng.uniform(rmin, 0.9, n)
    rad[0] = 1.0
    v = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    return np.asarray(center) + (-v if flip else v)


def _brute_pairs(curve):
    """Distances of all segment pairs (i, j), i < j, in (i, j) order, that
    are not cyclic neighbours."""
    starts, ends, comp_of, local_of = curve.segments
    i, j = np.triu_indices(len(starts), k=1)
    n = np.bincount(comp_of)[comp_of[i]]
    gap = np.abs(local_of[i] - local_of[j])
    adjacent = (comp_of[i] == comp_of[j]) & ((gap <= 1) | (gap >= n - 1))
    i, j = i[~adjacent], j[~adjacent]
    return i, j, geo._segment_segment_dist(starts[i], ends[i], starts[j], ends[j])


def _brute_clearance(curve):
    """Least distance over all segment pairs that are not cyclic neighbours."""
    return float(_brute_pairs(curve)[2].min())


@ORACLE
@given(st.integers(8, 40), st.integers(8, 40),
       st.sampled_from(["gap", "overlap", "twist", "none"]), st.integers(-14, -6),
       st.integers(0, 2), st.sampled_from([1e-3, 1e-2, 1e-1]), st.integers(0, 2**32 - 1))
def test_check_embedded_star_forests(n_a, n_b, inject, exponent, n_bubbles, radius, seed):
    rng = np.random.default_rng(seed)
    comps = [_tipped_star(rng, n_a, (0.0, 0.0), False)]
    if inject != "twist":
        # a second star faces the first tip to tip across a gap of
        # 10**exponent, or overlaps it by as much (a crossing)
        gap = {"none": 0.5, "gap": 10.0 ** exponent, "overlap": -10.0 ** exponent}[inject]
        comps.append(_tipped_star(rng, n_b, (2.0 + gap, 0.0), True))
    else:
        # vertices k and k + 2 swapped: the chords into and out of the
        # swapped pair interleave in angle, mostly a self-crossing
        v = comps[0]
        k = int(rng.integers(1, n_a - 2))
        v[[k, k + 2]] = v[[k + 2, k]]
    # bubbles of radius down to 1e-3, whose edges are far shorter than the
    # main loop's
    for i in range(n_bubbles):
        comps.append(_star(rng, int(rng.integers(8, 25)), (1.0, 2.0 + i), radius, 3 * radius))
    curve = geo.PolyCurve(comps)
    tol = geo.SIMPLICITY_TOL_REL * _brute_diameter(curve.segments[0])
    i, j, dist = _brute_pairs(curve)
    assume(dist.min() < 0.1 * tol or dist.min() > 10.0 * tol)
    if dist.min() < tol:
        # the first pair closer than tol, in (i, j) order, names the error
        _, _, comp_of, local_of = curve.segments
        b = np.argmax(dist < tol)
        ci, cj = comp_of[i[b]], comp_of[j[b]]
        message = (f"component {ci} self-intersects near segment {local_of[i[b]]}$"
                   if ci == cj else f"components {ci} and {cj} touch or cross")
        with pytest.raises(SelfIntersection, match=message):
            geo.check_embedded(curve)
    else:
        geo.check_embedded(curve)


def test_near_pair_found_at_any_offset():
    # two tips half the tolerance apart, the gap swept across one period of
    # twice the longest edge: a uniform grid of that cell size would split
    # the pair whenever a cell line falls inside the gap
    rng = np.random.default_rng(3)
    a = _tipped_star(rng, 24, (0.0, 0.0), False)
    b = _tipped_star(rng, 24, (2.0, 0.0), True)
    gap = 0.5 * geo.SIMPLICITY_TOL_REL * _brute_diameter(np.vstack([a, b]))
    cell = 2 * max(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).max() for v in (a, b))
    for f in np.linspace(0.0, 1.0, 9):
        shift = [(5 + f) * cell - 1.0 - 0.5 * gap, 0.0]
        curve = geo.PolyCurve([a + shift, b + [gap, 0.0] + shift])
        with pytest.raises(SelfIntersection, match="components 0 and 1 touch or cross"):
            geo.check_embedded(curve)


# ---------------------------------------------------------------------------
# bound-then-exact decisions: the box diagonal bounds the diameter, and
# only the exact diameter decides
# ---------------------------------------------------------------------------

@ORACLE
@given(st.integers(8, 200), st.floats(0.5, 2.0), st.floats(0.0, 2 * np.pi),
       st.integers(0, 2**32 - 1))
def test_edge_floor_decided_by_exact_diameter(n, factor, angle, seed):
    # a vertex inserted on the chord of edge 3, at factor * EDGE_FLOOR_REL
    # times the exact diameter from vertex 3, leaves the diameter as it is;
    # the rotation opens a gap of up to sqrt(2) between the diameter and the
    # box diagonal, inside which only the exact diameter decides
    rng = np.random.default_rng(seed)
    v = _star(rng, n, (0.0, 0.0), 0.5, 1.0)
    c, s = np.cos(angle), np.sin(angle)
    v = v @ np.array([[c, s], [-s, c]])
    diam = _brute_diameter(v)
    step = v[4] - v[3]
    v = np.insert(v, 4, v[3] + factor * geo.EDGE_FLOOR_REL * diam * step / np.linalg.norm(step),
                  axis=0)
    diam = _brute_diameter(v)
    shortest = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).min()
    if shortest <= geo.EDGE_FLOOR_REL * diam:
        with pytest.raises(DegenerateEdge):
            geo.PolyCurve([v])
    else:
        geo.PolyCurve([v])


@ORACLE
@given(st.integers(12, 40), st.integers(8, 40), st.sampled_from([0.8, 1.2]),
       st.integers(0, 3), st.floats(-np.pi / 8, np.pi / 8), st.integers(0, 2**32 - 1))
def test_clearance_decided_by_exact_diameter(n_a, n_b, factor, quarter, angle, seed):
    # a round star and one a tenth its size, tip to tip at factor times the
    # exact tolerance, turned so that the small star points near an axis:
    # then the box-diagonal tolerance lies above both gaps
    rng = np.random.default_rng(seed)
    angle += quarter * np.pi / 2
    a = _tipped_star(rng, n_a, (0.0, 0.0), False, rmin=0.8)
    b = [1.1, 0.0] + 0.1 * _tipped_star(rng, n_b, (0.0, 0.0), True)
    gap = factor * geo.SIMPLICITY_TOL_REL * _brute_diameter(np.vstack([a, b]))
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, s], [-s, c]])
    curve = geo.PolyCurve([a @ rot, (b + [gap, 0.0]) @ rot])
    starts = curve.segments[0]
    tol = geo.SIMPLICITY_TOL_REL * _brute_diameter(starts)
    clearance = _brute_clearance(curve)
    assert clearance < geo.SIMPLICITY_TOL_REL * np.linalg.norm(np.ptp(starts, axis=0))
    assert abs(clearance / tol - factor) < 0.01
    if clearance < tol:
        with pytest.raises(SelfIntersection):
            geo.check_embedded(curve)
    else:
        geo.check_embedded(curve)


@ORACLE
@given(st.floats(0.0, 2 * np.pi), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
       st.integers(0, 2**32 - 1))
def test_segment_pairs_within_keeps_collinear_gaps(angle, ox, oy, seed):
    # end to end collinear segments make the box bounds tight: gaps within
    # rounding of the reach must survive the sweep and the box filter
    # whenever their computed distance is below the reach
    rng = np.random.default_rng(seed)
    m, reach = 64, 1e-7
    u = np.array([np.cos(angle), np.sin(angle)])
    base = np.array([ox, oy]) + 3.0 * np.arange(m)[:, None] * [-u[1], u[0]]
    gap = reach - rng.uniform(0.0, 1e-12, m)
    starts = np.vstack([base, base + (1.0 + gap)[:, None] * u])
    ends = np.vstack([base + u, base + (2.0 + gap)[:, None] * u])
    pi, pj = geo._segment_pairs_within(starts, ends, reach)
    i, j = np.triu_indices(2 * m, k=1)
    near = geo._segment_segment_dist(starts[i], ends[i], starts[j], ends[j]) < reach
    assert set(zip(i[near], j[near])) <= set(zip(pi.tolist(), pj.tolist()))


def _sweep_candidates(monkeypatch, curve):
    """Candidate pairs the sweep lists for check_embedded, before the box filter."""
    seen = []
    overlapping = geo._overlapping

    def counted(lo, hi):
        pairs = overlapping(lo, hi)
        seen.append(len(pairs[0]))
        return pairs

    monkeypatch.setattr(geo, "_overlapping", counted)
    geo.check_embedded(curve)
    (count,) = seen
    return count


def test_sweep_stays_linear_on_straight_runs_and_circles(monkeypatch):
    # a sweep along a coordinate axis lists every pair of an axis-aligned
    # straight run; along SWEEP_DIRECTION each edge meets its two neighbours
    # and about one edge of the facing side
    n = 4096
    side = np.arange(n // 4) / (n // 4)
    zero, one = np.zeros(n // 4), np.ones(n // 4)
    square = np.vstack([np.column_stack([side, zero]), np.column_stack([one, side]),
                        np.column_stack([1.0 - side, one]), np.column_stack([zero, 1.0 - side])])
    for comp in (square, geo.make_circle((0.0, 0.0), 1.0, n)):
        assert _sweep_candidates(monkeypatch, geo.PolyCurve([comp])) <= 4 * n


# ---------------------------------------------------------------------------
# one stacked build: the list and the stacked constructor agree
# ---------------------------------------------------------------------------

def _forest(rng, n_bubbles):
    comps = [_star(rng, int(rng.integers(8, 60)), (0.0, 0.0), 0.6, 1.0),
             _star(rng, int(rng.integers(8, 40)), (0.0, 0.0), 0.15, 0.4, orientation=-1)]
    for i, phi in enumerate(rng.uniform(0, 2 * np.pi, n_bubbles)):
        centre = (1.6 + 0.5 * i) * np.array([np.cos(phi), np.sin(phi)])
        comps.append(_star(rng, int(rng.integers(8, 25)), centre, 0.02, 0.08))
    return comps


@ORACLE
@given(st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_list_and_stacked_builds_are_bit_identical(n_bubbles, seed):
    comps = _forest(np.random.default_rng(seed), n_bubbles)
    listed = geo.PolyCurve(comps)
    stacked = listed.with_vertices(np.vstack(comps))
    assert stacked.counts == tuple(len(c) for c in comps) == listed.counts
    assert np.array_equal(stacked.orientations, [1, -1] + [1] * n_bubbles)
    for a, b in zip(listed.segments, stacked.segments):
        assert np.array_equal(a, b)
    assert np.array_equal(listed.edge_lengths, stacked.edge_lengths)
    want, got = geo.build_geometry(listed), geo.build_geometry(stacked)
    for name in [f.name for f in dataclasses.fields(want)] + ["kappa", "arc_positions"]:
        if name not in ("curve", "layout"):
            assert np.array_equal(getattr(want, name), getattr(got, name)), name
    assert got.layout is want.layout
    # a second build reads recomputed shoelace terms, bit for bit the first's
    again = geo.build_geometry(stacked)
    assert np.array_equal(again.kappa, got.kappa) and np.array_equal(again.area, got.area)


def _bad_forests():
    """(name, [(vertices, orientation), ...]) of four curves construction rejects."""
    outer = geo.make_circle((0.0, 0.0), 2.0, 32)
    hole = geo.make_circle((0.0, 0.0), 1.0, 16, orientation=-1)
    nan = outer.copy()
    nan[5, 1] = np.nan
    short = outer.copy()
    short[10] = short[9] + 1e-15
    return [
        ("nan", [(nan, 1), (hole, -1)]),
        ("few", [(outer, 1), (geo.make_circle((0.0, 0.0), 1.0, 7, orientation=-1), -1)]),
        ("degenerate", [(short, 1), (hole, -1)]),
        ("area", [(geo.make_circle((5.0, 0.0), 1.0, 32), 1), (outer[::-2].copy(), -1)]),
    ]


def _raised(build):
    with pytest.raises((ValueError, DegenerateEdge)) as err:
        build()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("name, comps", _bad_forests(), ids=[n for n, _ in _bad_forests()])
def test_construction_paths_raise_alike(name, comps):
    # a listed build reads each orientation from the area, which matches the
    # one the stacked builds are given
    want = _raised(lambda: geo.PolyCurve([v for v, _ in comps]))
    vertices = np.vstack([v for v, _ in comps])
    counts, orientations = [len(v) for v, _ in comps], [o for _, o in comps]
    assert _raised(lambda: geo.PolyCurve(vertices=vertices, counts=counts,
                                         orientations=orientations)) == want
    if name != "few":
        # the same vertices given to a valid curve of the same layout
        valid = geo.PolyCurve([geo.make_circle((0.0, 0.0), 2.0, counts[0]),
                               geo.make_circle((0.0, 0.0), 1.0, counts[1], orientation=-1)])
        assert _raised(lambda: valid.with_vertices(vertices)) == want


def test_with_vertices_rejects_a_vertex_count_mismatch():
    # np.split gave the surplus or the deficit to the last component
    curve = geo.PolyCurve([geo.make_circle((0.0, 0.0), 1.0, 16),
                           geo.make_circle((0.0, 0.0), 0.5, 12, orientation=-1)])
    v = curve.vertices
    for rows in (np.vstack([v, v[:1]]), v[:-1]):
        with pytest.raises(ValueError, match=f"^{len(rows)} vertices given for components "
                                             r"of 16 \+ 12 = 28 vertices$"):
            curve.with_vertices(rows)


def test_stacked_vertices_are_a_read_only_view():
    v = geo.make_circle((0.0, 0.0), 1.0, 16)
    curve = geo.PolyCurve(vertices=v, counts=(16,), orientations=(1,))
    assert np.shares_memory(curve.vertices, v) and curve.segments[0] is curve.vertices
    assert v.flags.writeable and not curve.vertices.flags.writeable
    assert not np.split(curve.vertices, curve.layout.split)[0].flags.writeable


@ORACLE
@given(arrays(np.float64, st.tuples(st.integers(1, 50), st.just(2)),
              elements=st.floats(-1e300, 1e300, allow_subnormal=True)))
def test_row_norms_match_linalg_norm(a):
    with np.errstate(over="ignore"):
        assert np.array_equal(geo.row_norms(a), np.linalg.norm(a, axis=1))

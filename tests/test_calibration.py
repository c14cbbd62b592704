import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

from surfdiff import calibration as cb
from surfdiff import flow as fl
from surfdiff import geometry as geo
from surfdiff.errors import SelfIntersection, ZeroReach

import calibration_oracle
from calibration_oracle import MedialAxisProximity


# ---------------------------------------------------------------------------
# cutoff profiles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def prof():
    return cb.CutoffProfile(0.25)


class TestProfiles:
    delta = 0.25

    def test_plateau_closed_forms(self, prof):
        s = np.linspace(-self.delta / 2, self.delta / 2, 101)
        np.testing.assert_allclose(prof.zeta(s), 1 - s**2, atol=1e-14)
        s_pos = np.linspace(0, self.delta / 2, 51)
        np.testing.assert_allclose(prof.theta(s_pos), s_pos, atol=1e-14)
        assert prof.theta(np.array([self.delta * 2]))[0] == self.delta
        assert prof.theta(np.array([-self.delta * 2]))[0] == -self.delta

    def test_supports(self, prof):
        s = np.array([self.delta, self.delta * 1.5, -self.delta])
        np.testing.assert_allclose(prof.zeta(s), 0.0, atol=1e-14)
        assert prof.eta(np.array([self.delta]))[0] == 1.0
        assert prof.eta(np.array([2 * self.delta]))[0] == 0.0
        assert prof.eta(np.array([1.5 * self.delta]))[0] == pytest.approx(0.5)

    def test_ranges_and_monotonicity(self, prof):
        s = np.linspace(-3 * self.delta, 3 * self.delta, 4001)
        z = prof.zeta(s)
        assert np.all(z >= -1e-14) and np.all(z <= 1.0 + 1e-14)
        th = prof.theta(s)
        assert np.all(np.diff(th) >= -1e-12)
        e = prof.eta(s)
        assert np.all(e >= -1e-14) and np.all(e <= 1.0 + 1e-14)

    def test_even_odd_symmetry(self, prof):
        s = np.linspace(0, 3 * self.delta, 301)
        np.testing.assert_allclose(prof.zeta(s), prof.zeta(-s), atol=1e-15)
        np.testing.assert_allclose(prof.theta(s), -prof.theta(-s), atol=1e-15)
        np.testing.assert_allclose(prof.eta(s), prof.eta(-s), atol=1e-15)

    @pytest.mark.parametrize("func", ["zeta", "theta", "eta"])
    def test_c2_continuity_scan(self, prof, func):
        # second finite differences stay bounded and their jumps shrink with
        # the scan step: no curvature discontinuity at the transition knots
        f = getattr(prof, func)
        jumps = []
        for npts in (20001, 40001):
            x = np.linspace(-0.6, 0.6, npts)
            d2 = np.diff(f(x), 2) / (x[1] - x[0]) ** 2
            jumps.append(np.max(np.abs(np.diff(d2))))
        assert jumps[1] <= 0.75 * jumps[0]

    def test_zeta_prime_linear_bound(self, prof):
        s = np.linspace(1e-6, self.delta, 2001)
        ratio = np.abs(prof.zeta_prime(s)) / s
        assert np.all(np.isfinite(ratio))
        assert prof.zeta_prime(np.array([0.0]))[0] == 0.0
        # the slope bound on the construction's own scan grid is finite too
        grid = np.linspace(0.0, self.delta, 4001)[1:]
        assert np.isfinite(np.max(np.abs(prof.zeta_prime(grid)) / grid))

    def test_theta_moments_match_quadrature(self, prof):
        # the closed forms behind the bulk error's flux fields, on every
        # piece of theta and on both sides of zero
        for s in (0.05, 0.125, 0.2, 0.25, 0.7, -0.17, -0.6):
            m1, m2 = prof.theta_moments(np.array([s]))
            lo, hi = sorted((0.0, s))
            want = [quad(lambda r: float(prof.theta(r)) * r**k, lo, hi,
                         points=[p for p in (-0.25, -0.125, 0.125, 0.25) if lo < p < hi],
                         epsabs=1e-16)[0] * np.sign(s) for k in (0, 1)]
            assert m1[0] == pytest.approx(want[0], rel=1e-12, abs=1e-17)
            assert m2[0] == pytest.approx(want[1], rel=1e-12, abs=1e-17)

    def test_one_minus_zeta_dominates_square(self, prof):
        # needed by the tilt-excess comparison on the support of zeta
        s = np.linspace(0, self.delta, 2001)
        assert np.all(1.0 - prof.zeta(s) - s**2 >= -1e-12)


# ---------------------------------------------------------------------------
# signed distance and admissible width
# ---------------------------------------------------------------------------

def test_signed_distance_trivials(circle_calibration):
    calib = circle_calibration
    s, grad, foot = calibration_oracle.signed_distance(calib, np.array([2.0, 0.0]))
    assert s == pytest.approx(1.0)
    np.testing.assert_allclose(grad, [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(foot, [1.0, 0.0], atol=1e-14)
    s, _, _ = calibration_oracle.signed_distance(calib, np.array([0.0, 0.0]))
    assert s == pytest.approx(-1.0)
    # projection consistency close to the curve
    a = 0.03
    s, grad, foot = calibration_oracle.signed_distance(calib, np.array([1.0 + a, 0.0]))
    np.testing.assert_allclose(foot, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(np.array([1.0 + a, 0.0]) - s * grad, foot, atol=1e-12)


def test_admissible_delta_single_circle():
    ref = cb.AnalyticCircles([cb.CircleSpec((0, 0), 1.0)])
    assert ref.admissible_delta() == pytest.approx(0.25)


def test_admissible_delta_two_circles():
    ref = cb.AnalyticCircles([cb.CircleSpec((0, 0), 1.0),
                              cb.CircleSpec((4, 0), 1.0)])
    # boundary gap 2 -> 0.5; reach 1 -> 0.25
    assert ref.admissible_delta() == pytest.approx(0.25)


def test_admissible_delta_annulus():
    ref = cb.AnalyticCircles([cb.CircleSpec((0, 0), 2.0),
                              cb.CircleSpec((0, 0), 1.0, -1)])
    assert ref.admissible_delta() == pytest.approx(0.25)
    # brute-force cross check: sample boundary points of both circles
    t = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    outer = np.column_stack([2 * np.cos(t), 2 * np.sin(t)])
    inner = np.column_stack([np.cos(t), np.sin(t)])
    gap = np.min(np.linalg.norm(outer[:, None, :] - inner[None, :, :], axis=2))
    assert ref.admissible_delta() == pytest.approx(min(gap / 4, 1.0 / 4), rel=1e-3)


def test_facing_self_gap_matches_dense_oracle():
    # the acceptance bundle's flow reference at the times admissible_delta
    # reads, then wavy loops with bottlenecks, at vertex strides 1, 2 and 3
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.06, area_drift_abort=1e-3)
    traj = fl.make_reference(cfg, geo.PolyCurve([geo.make_ellipse(2, 1, 512)]),
                             np.linspace(0.0, 0.06, 12))
    ref = cb.PolygonReference(trajectory=traj)
    geoms = [ref.geometry_at(t) for t in traj.times]
    geoms += [geo.build_geometry(geo.PolyCurve([geo.make_wavy_circle(1.0, amp, mode, n)]))
              for amp, mode, n in [(0.3, 2, 200), (0.45, 2, 600), (0.2, 5, 900),
                                   (0.35, 3, 257)]]
    gaps = []
    for geom in geoms:
        gaps.append(cb._facing_self_gap(geom, 0))
        assert gaps[-1] == calibration_oracle.facing_self_gap(geom, 0)
    assert np.all(np.isfinite(gaps))


def _forest_with_gaps(seed):
    """A wavy loop, a hole inside it and, on odd seeds, a loop beside it, each
    0.01 to 0.2 from the wavy loop (0.6 to 0.8 on every fourth seed), with
    more vertices than one row block takes and its first vertex at a random
    place."""
    rng = np.random.default_rng(seed)
    gaps = (0.6, 0.8) if seed % 4 == 3 else (0.01, 0.2)
    n = rng.integers(40, 700, size=3)
    outer = geo.make_wavy_circle(3.0, rng.uniform(0.0, 0.2), int(rng.integers(2, 6)), n[0])
    centre = rng.uniform(-0.8, 0.8, size=2)
    room = geo._point_segment_dist(centre, outer, np.roll(outer, -1, axis=0)).min()
    comps = [outer, geo.make_circle(centre, room - rng.uniform(*gaps), n[1],
                                    orientation=-1)]
    if seed % 2:
        turn = rng.uniform(0.0, 2.0 * np.pi)
        u = np.array([np.cos(turn), np.sin(turn)])
        radius, amp = rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.3)
        along = np.max(outer @ u) + radius * (1.0 + amp) + rng.uniform(*gaps)
        comps.append(geo.make_wavy_circle(radius, amp, 3, n[2], center=along * u))
    return geo.PolyCurve([np.roll(c, rng.integers(len(c)), axis=0) for c in comps])


@pytest.mark.parametrize("seed", range(12))
def test_polygonal_delta_matches_all_pairs_oracle(seed):
    # the sweep's pairs give the least gap of all pairs of loops, bit for bit;
    # where the loops are near, that gap, not a loop's own reach, decides delta
    geom = geo.build_geometry(_forest_with_gaps(seed))
    delta = cb._admissible_delta_polygonal(geom)
    assert delta == calibration_oracle.admissible_delta(geom)
    k = geom.curve.ncomponents
    gap = min(calibration_oracle.polyline_gap(geom.curve, i, j)
              for i in range(k) for j in range(i + 1, k))
    assert (delta == gap / 4.0) == (seed % 4 != 3)


@pytest.mark.parametrize("loops", [1, 2])
def test_delta_scan_sweeps_segment_pairs_only_between_loops(loops, monkeypatch):
    # one loop has no pair of segments that joins two loops to list
    sweeps = []
    sweep = cb._segment_pairs_within

    def counting(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(cb, "_segment_pairs_within", counting)
    curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 128, center=(5.0 * k, 0.0))
                           for k in range(loops)])
    delta = cb._admissible_delta_polygonal(geo.build_geometry(curve))
    assert len(sweeps) == loops - 1
    assert delta == calibration_oracle.admissible_delta(geo.build_geometry(curve))


def test_touching_loops_fail_before_the_delta_scan(monkeypatch):
    scanned = []
    monkeypatch.setattr(cb, "_admissible_delta_polygonal", scanned.append)
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 64),
                           geo.make_circle((2.0, 0), 1.0, 64)])
    with pytest.raises(SelfIntersection, match="components 0 and 1 touch"):
        cb.PolygonReference(fl.Trajectory([0.0], [curve])).admissible_delta()
    assert scanned == []


def test_stationary_reference_builds_its_state_once(monkeypatch):
    # a one-sample trajectory has one state, whatever time it is asked at
    calls = {"build_geometry": 0, "CurveIndex": 0}
    build, init = cb.build_geometry, geo.CurveIndex.__init__

    def counting_build(curve):
        calls["build_geometry"] += 1
        return build(curve)

    def counting_init(self, geometry):
        calls["CurveIndex"] += 1
        init(self, geometry)

    monkeypatch.setattr(cb, "build_geometry", counting_build)
    monkeypatch.setattr(geo.CurveIndex, "__init__", counting_init)
    ref = cb.PolygonReference(fl.Trajectory([0.0], [geo.PolyCurve([
        geo.make_circle((0, 0), 1.0, 256)])]))
    pts = np.array([[0.5, 0.1], [1.2, -0.3], [0.0, 0.97]])
    first = ref.query(pts, 0.0)
    for t in np.linspace(0.01, 0.5, 11):
        assert all(np.array_equal(a, b) for a, b in zip(ref.query(pts, t), first))
    assert ref.geometry_at(0.3) is ref.geometry_at(0.0)
    assert calls == {"build_geometry": 1, "CurveIndex": 1}


def test_zero_reach_on_touching_circles():
    ref = cb.AnalyticCircles([cb.CircleSpec((0, 0), 1.0),
                              cb.CircleSpec((2.0, 0), 1.0)])
    with pytest.raises(ZeroReach):
        ref.admissible_delta()


def test_polygonal_delta_conservative():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 512)])
    ref = cb.PolygonReference(fl.Trajectory([0.0], [curve]))
    val = ref.admissible_delta()
    assert 0.2 <= val <= 0.25


def test_delta_above_bound_rejected():
    ref = cb.AnalyticCircles([cb.CircleSpec((0, 0), 1.0)])
    with pytest.raises(ValueError):
        cb.Calibration(ref, 0.3)


@pytest.mark.parametrize("radius, delta, message", [
    (1.0, np.nan, "delta nan is"), (1.0, -0.1, "delta -0.1 is"), (1.0, np.inf, "delta inf is"),
    (np.nan, None, "admissible bound nan is"), (np.nan, 0.25, "admissible bound nan is"),
    (-1.0, None, "admissible bound -0.25 is")])
def test_calibration_rejects_a_width_that_is_not_positive_and_finite(radius, delta, message):
    # a NaN width used to pass every comparison and fail late, at the
    # profile, with a message that named neither
    ref = cb.AnalyticCircles([cb.CircleSpec((0, 0), radius)])
    with pytest.raises(ValueError, match=message + " not a positive finite number"):
        cb.Calibration(ref, delta)


# ---------------------------------------------------------------------------
# tube fields
# ---------------------------------------------------------------------------

def test_xi_and_vartheta_pointwise(circle_calibration):
    calib = circle_calibration
    delta = calib.delta
    on_curve = np.array([[np.cos(0.4), np.sin(0.4)]])
    xi = calibration_oracle.xi_at(calib, on_curve)
    np.testing.assert_allclose(np.linalg.norm(xi, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(xi[0], on_curve[0], atol=1e-12)
    assert calib.vartheta_at(on_curve)[0] == pytest.approx(0.0, abs=1e-12)

    at_delta = np.array([[1.0 + delta, 0.0]])
    np.testing.assert_allclose(calibration_oracle.xi_at(calib, at_delta), 0.0, atol=1e-14)

    quarter = np.array([[1.0 + delta / 4, 0.0]])
    xi_q = calibration_oracle.xi_at(calib, quarter)
    assert xi_q[0, 0] == pytest.approx(1.0 - delta**2 / 16)
    assert calib.vartheta_at(quarter)[0] == pytest.approx(delta / 4)

    far = np.array([[5.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(calibration_oracle.xi_at(calib, far), 0.0, atol=1e-14)
    assert calib.vartheta_at(far)[0] == pytest.approx(delta)
    assert calib.vartheta_at(far)[1] == pytest.approx(-delta)

    assert np.max(np.abs(np.linalg.norm(calibration_oracle.xi_at(calib, 
        np.random.default_rng(0).uniform(-2, 2, (200, 2))), axis=1))) <= 1.0 + 1e-12


def test_div_xi_cases(circle_calibration):
    calib = circle_calibration
    prof = calib.profile
    on_curve = calibration_oracle.div_xi(calib, np.array([[1.0, 0.0]]))
    assert on_curve[0] == pytest.approx(1.0)
    # closed form 1/(1.1) for the level-set curvature at s = 0.1
    at_s = calibration_oracle.div_xi(calib, np.array([[1.1, 0.0]]))
    assert at_s[0] == pytest.approx(-0.2 + prof.zeta(np.array([0.1]))[0] / 1.1)
    # numeric oracle: centered 5-point laplacian of the exact distance field
    h = 1e-4
    x0 = np.array([1.1, 0.0])
    sd = lambda p: np.linalg.norm(p) - 1.0
    lap = (sd(x0 + [h, 0]) + sd(x0 - [h, 0]) + sd(x0 + [0, h]) + sd(x0 - [0, h])
           - 4 * sd(x0)) / h**2
    zp = prof.zeta_prime(np.array([0.1]))[0]
    z = prof.zeta(np.array([0.1]))[0]
    assert at_s[0] == pytest.approx(zp + z * lap, rel=1e-6)
    # outside the tube
    assert calibration_oracle.div_xi(calib, np.array([[2.0, 0.0]]))[0] == 0.0


def test_div_xi_flat_limit():
    # huge circle: locally straight, laplacian of the distance field vanishes
    ref = cb.AnalyticCircles([cb.CircleSpec((0, 0), 1e6)])
    calib = cb.Calibration(ref, 0.25)
    s0 = 0.1
    val = calibration_oracle.div_xi(calib, np.array([[1e6 + s0, 0.0]]))
    assert val[0] == pytest.approx(calib.profile.zeta_prime(np.array([s0]))[0],
                                   abs=2e-6)


def test_d_sstar_identities(circle_calibration):
    calib = circle_calibration
    pts = np.array([[1.05 * np.cos(0.8), 1.05 * np.sin(0.8)]])
    # tangential derivative of the signed distance vanishes
    def sdist(p):
        return calib.reference.query(p)[0]

    val = calibration_oracle.d_sstar(calib, sdist, pts)
    assert abs(val[0]) <= 1e-8
    # same for the cutoff composed with the distance
    val2 = calibration_oracle.d_sstar(calib, lambda p: calib.profile.zeta(sdist(p)), pts)
    assert abs(val2[0]) <= 1e-8


@pytest.mark.parametrize("s0", [0.1, -0.1, 0.05])
def test_d_sstar_projection_jacobian(circle_calibration, s0):
    # finite-difference oracle: |d pi*/ds*| = 1/(1 + s kappa_foot), which
    # equals 1 - s * (level-set curvature at the point)
    calib = circle_calibration
    pts = np.array([[(1 + s0) * np.cos(1.3), (1 + s0) * np.sin(1.3)]])
    jac = calibration_oracle.d_sstar(calib, lambda p: calibration_oracle.proj(calib, p), pts)
    mag = np.linalg.norm(jac[0])
    assert mag == pytest.approx(1.0 / (1.0 + s0), rel=1e-6)
    level = 1.0 / (1.0 + s0)
    assert mag == pytest.approx(1.0 - s0 * level, rel=1e-6)


def test_eikonal_and_idempotence(circle_calibration):
    calib = circle_calibration
    rng = np.random.default_rng(1)
    ang = rng.uniform(0, 2 * np.pi, 1000)
    rad = 1 + rng.uniform(-0.24, 0.24, 1000)
    pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    _, grad, _, _ = calib.reference.query(pts)
    assert np.max(np.abs(np.linalg.norm(grad, axis=1) - 1.0)) <= 1e-8
    proj = calibration_oracle.proj(calib, pts)
    again = calibration_oracle.proj(calib, proj)
    assert np.max(np.linalg.norm(again - proj, axis=1)) <= 1e-8 * calib.delta
    # projected points land on the reference
    assert np.max(np.abs(calib.reference.query(proj)[0])) <= 1e-8 * calib.delta


def test_eikonal_polygon_reference():
    pref = cb.PolygonReference(
        fl.Trajectory([0.0], [geo.PolyCurve([geo.make_circle((0, 0), 1.0, 512)])]))
    calib = cb.Calibration(pref)
    rng = np.random.default_rng(2)
    ang = rng.uniform(0, 2 * np.pi, 1000)
    rad = 1 + rng.uniform(-0.9, 0.9, 1000) * calib.delta
    pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    _, grad, _, _ = calib.reference.query(pts)
    assert np.max(np.abs(np.linalg.norm(grad, axis=1) - 1.0)) <= 1e-8


def test_medial_axis_detection(circle_calibration):
    calib = circle_calibration
    # the disk center is equidistant from everything: strict queries outside
    # the admissible tube refuse to pick a foot point
    with pytest.raises(MedialAxisProximity):
        calibration_oracle.signed_distance(calib, np.array([0.0, 0.0]), strict=True)
    # non-strict evaluation still reports the distance itself
    s, _, _ = calibration_oracle.signed_distance(calib, np.array([0.0, 0.0]), strict=False)
    assert s == pytest.approx(-1.0)
    # unambiguous far point passes the strict probe
    s, _, _ = calibration_oracle.signed_distance(calib, np.array([2.5, 0.0]), strict=True)
    assert s == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# pointwise tilt inequalities
# ---------------------------------------------------------------------------

def _assert_pointwise_matches_oracle(calib, geom):
    """The checker's float is the least of the oracle's per-vertex slacks,
    inf when no vertex lies within 2 delta; returns those slacks."""
    slacks = calibration_oracle.tilt_slacks(calib, geom)
    got = calib.pointwise_tilt_check(calib.sample(geom))
    assert got == np.min(slacks, initial=np.inf)
    return slacks


def test_pointwise_check_on_reference(circle_calibration, unit_circle_256):
    _, geom = unit_circle_256
    slacks = _assert_pointwise_matches_oracle(circle_calibration, geom)
    assert slacks.shape == (3, 256)
    assert slacks.min() >= -1e-12


def test_pointwise_check_translated_circle(circle_calibration):
    geom = geo.build_geometry(geo.PolyCurve([geo.make_circle((0.05, 0), 1.0, 256)]))
    slacks = _assert_pointwise_matches_oracle(circle_calibration, geom)
    assert slacks.shape == (3, 256)
    assert slacks.min() >= -1e-12


def test_pointwise_check_wavy_circle(circle_calibration):
    geom = geo.build_geometry(
        geo.PolyCurve([geo.make_wavy_circle(1.0, 0.05, 3, 256)]))
    assert _assert_pointwise_matches_oracle(circle_calibration, geom).min() >= -1e-12


def test_pointwise_check_counts_far_vertices(circle_calibration):
    calib = circle_calibration
    near, far = geo.make_circle((0, 0), 1.0, 64), geo.make_circle((4.0, 0), 0.2, 32)
    geom = geo.build_geometry(geo.PolyCurve([near, far]))
    assert _assert_pointwise_matches_oracle(calib, geom).shape == (3, 64)
    # the far vertices add nothing: the near circle alone reads the same
    # float, and the far one alone has no vertex to check
    alone = [geo.build_geometry(geo.PolyCurve([v])) for v in (near, far)]
    assert calib.pointwise_tilt_check(calib.sample(geom)) == calib.pointwise_tilt_check(
        calib.sample(alone[0]))
    assert calib.pointwise_tilt_check(calib.sample(alone[1])) == np.inf


def test_xi_alignment_product_bound(circle_calibration):
    # xi . (nu - xi) <= zeta (1 - zeta) vertexwise
    geom = geo.build_geometry(
        geo.PolyCurve([geo.make_wavy_circle(1.0, 0.08, 4, 256)]))
    slacks = _assert_pointwise_matches_oracle(circle_calibration, geom)
    assert slacks[2].min() >= -1e-12


class _YieldingDict(dict):
    """A dict that hands the interpreter to other threads after each store."""

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        time.sleep(1e-3)


def test_polygon_reference_state_on_two_threads():
    # a run's samples query one reference from several threads; 80 times
    # overflow the 64-entry state cache, so one thread clears it while the
    # other is between storing its state and returning it
    traj = fl.make_reference(fl.FlowConfig(dt=1e-4, end_time=0.002),
                             geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 64)]),
                             np.linspace(0.0, 0.002, 5))
    times = np.linspace(traj.times[0], traj.times[-1], 80)
    serial = cb.PolygonReference(trajectory=traj)
    want = {t: serial._state_at(t) for t in times}
    shared = cb.PolygonReference(trajectory=traj)
    shared._cache = _YieldingDict()
    with ThreadPoolExecutor(2) as pool:
        runs = [pool.submit(lambda ts: [(t, shared._state_at(t)) for t in ts], order)
                for order in (times, times[::-1])]
        got = [pair for run in runs for pair in run.result(timeout=60)]
    assert len(got) == 2 * len(times)
    for t, (geom, v) in got:
        ref_geom, ref_v = want[t]
        assert np.array_equal(geom.index.seg_start, ref_geom.index.seg_start)
        assert np.array_equal(geom.kappa, ref_geom.kappa)
        assert np.array_equal(v, ref_v)


def test_b_field_on_two_threads():
    # samples of one run ask the calibration for B from several threads; a
    # time asked on both at once may be built twice, but each caller gets a
    # field with the serial field's values
    traj = fl.make_reference(fl.FlowConfig(dt=1e-4, end_time=0.002),
                             geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 64)]),
                             np.linspace(0.0, 0.002, 5))
    times = np.linspace(traj.times[0], traj.times[-1], 6)
    serial = cb.Calibration(cb.PolygonReference(trajectory=traj))
    want = {t: serial.b_field(t) for t in times}
    shared = cb.Calibration(cb.PolygonReference(trajectory=traj))
    shared._b_fields = _YieldingDict()
    with ThreadPoolExecutor(2) as pool:
        runs = [pool.submit(lambda ts: [(t, shared.b_field(t)) for t in ts], order)
                for order in (times, times[::-1])]
        got = [pair for run in runs for pair in run.result(timeout=60)]
    assert len(got) == 2 * len(times)
    for t, b in got:
        assert np.array_equal(b.density, want[t].density)
        assert (b.div_sup, b.sup_norm, b.lipschitz) == (want[t].div_sup, want[t].sup_norm,
                                                        want[t].lipschitz)
    assert all(shared.b_field(t) is shared.b_field(t) for t in times)

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from surfdiff import calibration as cb
from surfdiff import flow as fl
from surfdiff import geometry as geo
from surfdiff.errors import ZeroReach

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
        assert prof.zeta_prime_slope < np.inf

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


def test_zero_reach_on_touching_circles():
    ref = cb.AnalyticCircles([cb.CircleSpec((0, 0), 1.0),
                              cb.CircleSpec((2.0, 0), 1.0)])
    with pytest.raises(ZeroReach):
        ref.admissible_delta()


def test_polygonal_delta_conservative():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 512)])
    ref = cb.PolygonReference(curve=curve)
    val = ref.admissible_delta()
    assert 0.2 <= val <= 0.25


def test_delta_above_bound_rejected():
    ref = cb.AnalyticCircles([cb.CircleSpec((0, 0), 1.0)])
    with pytest.raises(ValueError):
        cb.Calibration(ref, 0.3)


# ---------------------------------------------------------------------------
# tube fields
# ---------------------------------------------------------------------------

def test_xi_and_vartheta_pointwise(circle_calibration):
    calib = circle_calibration
    delta = calib.delta
    on_curve = np.array([[np.cos(0.4), np.sin(0.4)]])
    xi = calib.xi_at(on_curve)
    np.testing.assert_allclose(np.linalg.norm(xi, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(xi[0], on_curve[0], atol=1e-12)
    assert calib.vartheta_at(on_curve)[0] == pytest.approx(0.0, abs=1e-12)

    at_delta = np.array([[1.0 + delta, 0.0]])
    np.testing.assert_allclose(calib.xi_at(at_delta), 0.0, atol=1e-14)

    quarter = np.array([[1.0 + delta / 4, 0.0]])
    xi_q = calib.xi_at(quarter)
    assert xi_q[0, 0] == pytest.approx(1.0 - delta**2 / 16)
    assert calib.vartheta_at(quarter)[0] == pytest.approx(delta / 4)

    far = np.array([[5.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(calib.xi_at(far), 0.0, atol=1e-14)
    assert calib.vartheta_at(far)[0] == pytest.approx(delta)
    assert calib.vartheta_at(far)[1] == pytest.approx(-delta)

    assert np.max(np.abs(np.linalg.norm(calib.xi_at(
        np.random.default_rng(0).uniform(-2, 2, (200, 2))), axis=1))) <= 1.0 + 1e-12


def test_div_xi_cases(circle_calibration):
    calib = circle_calibration
    prof = calib.profile
    on_curve = calib.div_xi(np.array([[1.0, 0.0]]))
    assert on_curve[0] == pytest.approx(1.0)
    # closed form 1/(1.1) for the level-set curvature at s = 0.1
    at_s = calib.div_xi(np.array([[1.1, 0.0]]))
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
    assert calib.div_xi(np.array([[2.0, 0.0]]))[0] == 0.0


def test_div_xi_flat_limit():
    # huge circle: locally straight, laplacian of the distance field vanishes
    ref = cb.AnalyticCircles([cb.CircleSpec((0, 0), 1e6)])
    calib = cb.Calibration(ref, 0.25)
    s0 = 0.1
    val = calib.div_xi(np.array([[1e6 + s0, 0.0]]))
    assert val[0] == pytest.approx(calib.profile.zeta_prime(np.array([s0]))[0],
                                   abs=2e-6)


def test_d_sstar_identities(circle_calibration):
    calib = circle_calibration
    pts = np.array([[1.05 * np.cos(0.8), 1.05 * np.sin(0.8)]])
    # tangential derivative of the signed distance vanishes
    val = calib.d_sstar(lambda p: calib.sdist(p), pts)
    assert abs(val[0]) <= 1e-8
    # same for the cutoff composed with the distance
    val2 = calib.d_sstar(lambda p: calib.profile.zeta(calib.sdist(p)), pts)
    assert abs(val2[0]) <= 1e-8


@pytest.mark.parametrize("s0", [0.1, -0.1, 0.05])
def test_d_sstar_projection_jacobian(circle_calibration, s0):
    # finite-difference oracle: |d pi*/ds*| = 1/(1 + s kappa_foot), which
    # equals 1 - s * (level-set curvature at the point)
    calib = circle_calibration
    pts = np.array([[(1 + s0) * np.cos(1.3), (1 + s0) * np.sin(1.3)]])
    jac = calib.d_sstar(lambda p: calib.proj(p), pts)
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
    _, grad, _, _ = calib.query(pts)
    assert np.max(np.abs(np.linalg.norm(grad, axis=1) - 1.0)) <= 1e-8
    proj = calib.proj(pts)
    again = calib.proj(proj)
    assert np.max(np.linalg.norm(again - proj, axis=1)) <= 1e-8 * calib.delta
    # projected points land on the reference
    assert np.max(np.abs(calib.sdist(proj))) <= 1e-8 * calib.delta


def test_eikonal_polygon_reference():
    pref = cb.PolygonReference(curve=geo.PolyCurve([geo.make_circle((0, 0), 1.0, 512)]))
    calib = cb.Calibration(pref)
    rng = np.random.default_rng(2)
    ang = rng.uniform(0, 2 * np.pi, 1000)
    rad = 1 + rng.uniform(-0.9, 0.9, 1000) * calib.delta
    pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    _, grad, _, _ = calib.query(pts)
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

TEST_FUNCTIONS = [
    (lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1]),
     lambda p: np.column_stack([np.cos(p[:, 0]) * np.cos(p[:, 1]),
                                -np.sin(p[:, 0]) * np.sin(p[:, 1])])),
    (lambda p: p[:, 0] ** 2 - p[:, 1],
     lambda p: np.column_stack([2 * p[:, 0], -np.ones(len(p))])),
]


def test_pointwise_check_on_reference(circle_calibration, unit_circle_256):
    _, geom = unit_circle_256
    rep = circle_calibration.pointwise_tilt_check(circle_calibration.sample(geom),
                                                   test_functions=TEST_FUNCTIONS)
    assert rep.checked == 256
    assert rep.worst >= -1e-12


def test_pointwise_check_translated_circle(circle_calibration):
    geom = geo.build_geometry(geo.PolyCurve([geo.make_circle((0.05, 0), 1.0, 256)]))
    rep = circle_calibration.pointwise_tilt_check(circle_calibration.sample(geom),
                                                   test_functions=TEST_FUNCTIONS)
    assert rep.worst >= -1e-12
    assert rep.skipped == 0


def test_pointwise_check_random_lipschitz_fields(circle_calibration):
    rng = np.random.default_rng(3)
    geom = geo.build_geometry(
        geo.PolyCurve([geo.make_wavy_circle(1.0, 0.05, 3, 256)]))
    funcs = []
    for _ in range(5):
        a = rng.normal(size=4)
        funcs.append((
            lambda p, a=a: a[0] * np.sin(p[:, 0]) + a[1] * np.cos(2 * p[:, 1])
            + a[2] * p[:, 0] * p[:, 1] + a[3] * p[:, 1],
            lambda p, a=a: np.column_stack([
                a[0] * np.cos(p[:, 0]) + a[2] * p[:, 1],
                -2 * a[1] * np.sin(2 * p[:, 1]) + a[2] * p[:, 0] + a[3]]),
        ))
    rep = circle_calibration.pointwise_tilt_check(circle_calibration.sample(geom),
                                                   test_functions=funcs)
    assert rep.worst >= -1e-12


def test_pointwise_check_counts_far_vertices(circle_calibration):
    calib = circle_calibration
    geom = geo.build_geometry(geo.PolyCurve([
        geo.make_circle((0, 0), 1.0, 64),
        geo.make_circle((4.0, 0), 0.2, 32),
    ]))
    rep = calib.pointwise_tilt_check(calib.sample(geom))
    assert rep.skipped == 32
    assert rep.checked == 64


def test_xi_alignment_product_bound(circle_calibration):
    # xi . (nu - xi) <= zeta (1 - zeta) vertexwise
    geom = geo.build_geometry(
        geo.PolyCurve([geo.make_wavy_circle(1.0, 0.08, 4, 256)]))
    rep = circle_calibration.pointwise_tilt_check(circle_calibration.sample(geom))
    assert rep.slack_xi_product >= -1e-12


def test_analytic_boundary_built_once_per_resolution():
    ref = cb.AnalyticCircles([cb.CircleSpec((0.0, 0.0), 1.0)])
    assert ref.boundary_curve(0.0, 64) is ref.boundary_curve(0.3, 64)
    assert ref.boundary_curve(0.0, 128).components[0].n == 128
    # also when concurrent samples ask for it at once
    start = threading.Barrier(4)

    def build(t):
        start.wait(timeout=60)
        return ref.boundary_curve(t, 1 << 15)

    with ThreadPoolExecutor(4) as pool:
        runs = [pool.submit(build, 0.1 * k) for k in range(4)]
        curves = [run.result(timeout=60) for run in runs]
    assert all(c is curves[0] for c in curves)


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
                             sample_stride=5)
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
    for t, (geom, index, v) in got:
        ref_geom, ref_index, ref_v = want[t]
        assert np.array_equal(index.seg_start, ref_index.seg_start)
        assert np.array_equal(geom.kappa, ref_geom.kappa)
        assert np.array_equal(v, ref_v)

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from surfdiff import calibration as cb
from surfdiff import energy as en
from surfdiff import extension as ex
from surfdiff import flow as fl
from surfdiff import geometry as geo
from surfdiff import poisson as po
from surfdiff.errors import (
    BandExceeded,
    DegenerateInitialData,
    NonStationaryReference,
    ReferenceEnclosed,
)

import extension_oracle
from geometry_oracle import parts, poincare_ratio
from bulk_oracle import bulk_error_montecarlo, bulk_error_recursive
from conftest import vertex_angles


# ---------------------------------------------------------------------------
# relative energy
# ---------------------------------------------------------------------------

def test_energy_zero_on_reference(unit_circle_256, circle_calibration):
    _, geom = unit_circle_256
    assert en.relative_energy(circle_calibration.sample(geom)) <= 1e-10


def test_energy_order_h2_for_matching_polygon(circle_calibration):
    # polygon vertices on the reference circle: the only excess comes from
    # the normal mismatch of the discrete curve, O(h^2) per vertex
    vals = []
    for n in (128, 256, 512):
        geom = geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, n)]))
        vals.append(en.relative_energy(circle_calibration.sample(geom)))
    assert all(abs(v) <= 1e-3 for v in vals)


def test_energy_translated_circle_vs_dense_oracle(circle_calibration):
    eps = 0.05
    geom = geo.build_geometry(geo.PolyCurve([geo.make_circle((eps, 0), 1.0, 256)]))
    value = en.relative_energy(circle_calibration.sample(geom))
    # dense quadrature oracle with 10^4 points on the analytic shifted circle
    t = 2 * np.pi * np.arange(10**4) / 10**4
    pts = np.column_stack([eps + np.cos(t), np.sin(t)])
    nu = np.column_stack([np.cos(t), np.sin(t)])
    s = np.linalg.norm(pts, axis=1) - 1.0
    grad = pts / np.linalg.norm(pts, axis=1)[:, None]
    zeta = circle_calibration.profile.zeta(s)
    oracle = np.mean(1.0 - np.sum(nu * (zeta[:, None] * grad), axis=1)) * 2 * np.pi
    assert value == pytest.approx(oracle, rel=2e-3)
    assert value > 0
    assert value <= 10.0 * eps**2  # O(eps^2) tilt excess


def test_energy_far_bubble_adds_exact_length(circle_calibration):
    base = geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, 256)]))
    withb = geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, 256),
                                              geo.make_circle((3, 0), 0.1, 64)]))
    e_base = en.relative_energy(circle_calibration.sample(base))
    e_with = en.relative_energy(circle_calibration.sample(withb))
    assert e_with - e_base == pytest.approx(withb.length[1], abs=1e-14)


def test_energy_nonnegative_random_curves(circle_calibration):
    rng = np.random.default_rng(6)
    for _ in range(10):
        amp = rng.uniform(0, 0.1)
        mode = rng.integers(2, 6)
        geom = geo.build_geometry(
            geo.PolyCurve([geo.make_wavy_circle(1.0, amp, int(mode), 128)]))
        assert en.relative_energy(circle_calibration.sample(geom)) >= -1e-12


def test_energy_vanishes_iff_on_reference(circle_calibration):
    # forward: the reference polygon itself sits at the floor
    on_ref = geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, 256)]))
    assert abs(en.relative_energy(circle_calibration.sample(on_ref))) <= 1e-10
    # converse at discretization tolerance: any displaced or tilted curve
    # carries an excess well above the floor
    for curve in (geo.PolyCurve([geo.make_circle((0.02, 0), 1.0, 256)]),
                  geo.PolyCurve([geo.make_wavy_circle(1.0, 0.02, 3, 256)]),
                  geo.PolyCurve([geo.make_circle((0, 0), 1.03, 256)])):
        geom = geo.build_geometry(curve)
        assert en.relative_energy(circle_calibration.sample(geom)) >= 1e-5


# ---------------------------------------------------------------------------
# bulk error
# ---------------------------------------------------------------------------

def _bulk(curve, calib, t=0.0):
    return en.bulk_error(calib.sample(geo.build_geometry(curve), t), calib)


def test_bulk_error_identical_regions(circle_calibration):
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 1024)])
    f = _bulk(curve, circle_calibration)
    assert abs(f) <= 1e-10


def test_bulk_error_annulus_formula(circle_calibration):
    eps = 0.05
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0 + eps, 2048)])
    f = _bulk(curve, circle_calibration)
    exact = 2 * np.pi * (eps**2 / 2 + eps**3 / 3)
    assert abs(f - exact) / exact <= 1e-4


def test_bulk_error_shrunk_disk_sign(circle_calibration):
    eps = 0.04
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0 - eps, 1024)])
    f = _bulk(curve, circle_calibration)
    # region difference lies inside the reference where vartheta < 0 and
    # chi - chi* = -1: the product integrates to a positive value
    exact = 2 * np.pi * (eps**2 / 2 - eps**3 / 3)
    assert f == pytest.approx(exact, rel=1e-3)


def test_bulk_error_far_bubble_saturates(circle_calibration):
    base = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 1024)])
    withb = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 1024),
                           geo.make_circle((3, 0), 0.1, 128)])
    f0 = _bulk(base, circle_calibration)
    f1 = _bulk(withb, circle_calibration)
    v = geo.make_circle((3, 0), 0.1, 128)
    area = 0.5 * np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
    assert f1 - f0 == pytest.approx(area * 0.25, rel=1e-10)


def test_bulk_error_montecarlo_agreement(circle_calibration):
    eps = 0.05
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0 + eps, 512)])
    f = _bulk(curve, circle_calibration)
    f_mc, se = bulk_error_montecarlo(curve, circle_calibration,
                                        n_samples=2 * 10**5)
    assert abs(f_mc - f) <= 3.0 * se


def test_bulk_error_polygon_reference():
    pref = cb.PolygonReference(
        fl.Trajectory([0.0], [geo.PolyCurve([geo.make_circle((0, 0), 1.0, 512)])]))
    calib = cb.Calibration(pref)
    curve = geo.PolyCurve([geo.make_circle((0.05, 0), 1.0, 256)])
    f = _bulk(curve, calib)
    f_mc, se = bulk_error_montecarlo(curve, calib, n_samples=2 * 10**5)
    assert abs(f_mc - f) <= 3.0 * se
    assert f > 0


def test_bulk_error_clockwise_hole_subtracts(circle_calibration):
    # annulus 0.95 < r < 1.05 (outer boundary plus a clockwise hole) against
    # the unit disk: the hole's disk r < 0.95 lies in B \ A, where
    # (chi_A - chi_B) * vartheta = -theta(r - 1) > 0
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.05, 1024),
                           geo.make_circle((0, 0), 0.95, 1024, -1)])
    f = _bulk(curve, circle_calibration)
    theta = circle_calibration.profile.theta
    radial = lambda r: 2 * np.pi * r * float(theta(r - 1.0))
    exact = (quad(radial, 1.0, 1.05, epsabs=1e-14)[0]
             - quad(radial, 0.0, 0.95, points=[0.75, 0.875], epsabs=1e-14)[0])
    assert abs(f - exact) <= 1e-4 * exact
    f_mc, se = bulk_error_montecarlo(curve, circle_calibration, n_samples=4 * 10**5)
    assert abs(f_mc - f) <= 3.0 * se


# ---------------------------------------------------------------------------
# bulk error against the recursive reference implementation
# ---------------------------------------------------------------------------

def _star(center, radius, n, rng, amp, clockwise=False):
    ang = 2 * np.pi * np.arange(n) / n
    modes = np.arange(2, 5)
    coef = rng.uniform(-1, 1, len(modes))
    coef *= amp / max(np.abs(coef).sum(), 1e-12)
    phase = rng.uniform(0, 2 * np.pi, len(modes))
    r = radius * (1 + np.cos(np.outer(ang, modes) + phase) @ coef)
    v = np.asarray(center) + np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    return v[::-1] if clockwise else v


def _random_forest(seed):
    """A star-shaped body with one clockwise hole and up to three bubbles."""
    rng = np.random.default_rng(seed)
    comps = [_star(rng.uniform(-0.03, 0.03, 2), rng.uniform(0.94, 1.06),
                   int(rng.integers(96, 160)), rng, 0.08)]
    rho, phi = rng.uniform(0, 0.4), rng.uniform(0, 2 * np.pi)
    comps.append(_star((rho * np.cos(phi), rho * np.sin(phi)), rng.uniform(0.15, 0.35),
                       int(rng.integers(48, 96)), rng, 0.1, clockwise=True))
    for j in range(int(rng.integers(0, 4))):
        phi = 2 * np.pi * j / 3 + rng.uniform(-0.3, 0.3)
        dist = rng.uniform(1.3, 2.2)
        comps.append(_star((dist * np.cos(phi), dist * np.sin(phi)),
                           rng.uniform(0.02, 0.08), int(rng.integers(24, 33)), rng, 0.1))
    return geo.PolyCurve(comps)


_REFERENCES = {
    "circle": lambda: cb.Calibration(cb.AnalyticCircles([cb.CircleSpec((0.0, 0.0), 1.0)]), 0.25),
    "polygon": lambda: cb.Calibration(cb.PolygonReference(
        fl.Trajectory([0.0], [geo.PolyCurve([geo.make_ellipse(1.1, 0.9, 256)])]))),
}


# The line integral and the area-quadrature oracle are two discretizations.
# On the circle the line integral is exact up to its Gauss rule, and the
# oracle's cells are cut small where they straddle a joint of theta.  On the
# polygon the oracle reads vartheta of the polygon's exact distance, and the
# line integral a tube whose curvature is interpolated along the edges.
# Measured gaps: 5.2e-9 to 2.8e-8 on the circle (400 forests), 2.7e-6 to
# 5.3e-5 on the polygon (301 forests).
_ORACLE_TOLERANCE = {"circle": 1e-6, "polygon": 1e-4}


@pytest.mark.parametrize("reference", sorted(_REFERENCES))
@settings(max_examples=8, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bulk_error_matches_recursive_oracle(reference, seed):
    calib = _REFERENCES[reference]()
    curve = _random_forest(seed)
    f = _bulk(curve, calib)
    oracle = bulk_error_recursive(curve, calib, reference_resolution=512)
    assert abs(f - oracle) <= _ORACLE_TOLERANCE[reference] * abs(oracle) + 1e-14


def _subdivided(curve, k):
    """The same polygons with k - 1 points inserted evenly on every edge."""
    comps = []
    for v in np.split(curve.vertices, curve.layout.split):
        e = np.roll(v, -1, axis=0) - v
        frac = np.arange(k) / k
        comps.append((v[:, None, :] + frac[None, :, None] * e[:, None, :]).reshape(-1, 2))
    return geo.PolyCurve(comps)


@settings(max_examples=8, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=1432084463)   # a body across |s| = delta/2 with edges straddling it
def test_bulk_error_is_converged_in_the_edge_quadrature(seed):
    # against the analytic circle the only approximation is the Gauss rule
    # on each edge: doubling its points or cutting every edge in four moves
    # F at rounding level
    calib = _REFERENCES["circle"]()
    curve = _random_forest(seed)
    f = _bulk(curve, calib)
    x, w = np.polynomial.legendre.leggauss(12)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(en, "_BULK_X", 0.5 + 0.5 * x)
        mp.setattr(en, "_BULK_W", 0.5 * w)
        assert _bulk(curve, calib) == pytest.approx(f, rel=1e-11)
    assert _bulk(_subdivided(curve, 4), calib) == pytest.approx(f, rel=1e-11)


def test_bulk_error_equals_the_polar_integral_on_a_star(circle_calibration):
    # a star around the origin crossing |s| = delta/2: in polar coordinates
    # F = int G(rho(phi) - 1, 1) dphi, with rho the polygon's radius, a
    # 1-D integral adaptive quadrature resolves to rounding
    body = _star((0.01, -0.02), 1.06, 160, np.random.default_rng(5), 0.1)
    f = _bulk(geo.PolyCurve([body]), circle_calibration)

    def g(u):
        m1, m2 = circle_calibration.profile.theta_moments(np.array([u]))
        return float(m1[0] + m2[0])

    exact = 0.0
    for a, b in zip(body, np.roll(body, -1, axis=0)):
        d = b - a
        lo, hi = np.arctan2(a[1], a[0]), np.arctan2(b[1], b[0])
        hi += 2 * np.pi if hi < lo else 0.0
        rho = lambda phi: (a[0] * d[1] - a[1] * d[0]) / (np.cos(phi) * d[1] - np.sin(phi) * d[0])
        exact += quad(lambda phi: g(rho(phi) - 1.0), lo, hi, epsabs=1e-16, epsrel=1e-13,
                      limit=200)[0]
    s = circle_calibration.reference.query(body)[0]
    assert s.max() > 0.125 and s.min() < 0.0
    assert f == pytest.approx(exact, rel=1e-12)


def test_bulk_error_polygon_reference_converges_to_the_oracle():
    # a 128-gon of a 2:1 ellipse scaled by 1.02 against finer static
    # polygons of the ellipse: the line integral reads a tube with
    # interpolated curvature, the oracle the polygon's exact distance, and
    # the gap closes as the polygon refines (measured 1.6e-5, 5.4e-6, 2.2e-6)
    weak = geo.PolyCurve([geo.make_ellipse(2.04, 1.02, 128)])
    gaps = []
    for n in (512, 1024, 2048):
        calib = cb.Calibration(cb.PolygonReference(
            fl.Trajectory([0.0], [geo.PolyCurve([geo.make_ellipse(2.0, 1.0, n)])])), 0.125)
        oracle = bulk_error_recursive(weak, calib)
        gaps.append(abs(_bulk(weak, calib) - oracle) / oracle)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-5


def test_bulk_error_polygon_reference_cuts_edges_at_corner_bisectors():
    # grad s jumps across a polygon corner's bisector on the inside of the
    # turn and turns through the corner's angle within its narrow fan on
    # the outside; with the weak edges cut at the bisector lines, exact
    # subdivision moves F by 3.6e-8 (by 3.2e-5 without the cuts, and by
    # 1.3e-6 with cuts on the inside only)
    calib = _REFERENCES["polygon"]()
    curve = _random_forest(711562288)
    f = _bulk(curve, calib)
    assert _bulk(_subdivided(curve, 4), calib) == pytest.approx(f, rel=1e-6)


def test_bulk_error_classifies_coarse_components_by_their_quadrature_points(
        circle_calibration):
    # edges longer than their distance to the unit circle (delta = 0.25):
    # the bounds at the vertices alone reach |s| <= 0 and |s| >= 2 delta
    # on both shapes, the bounds at the quadrature points do not.  A 12-gon
    # of radius 1.2 around the circle (0.16 <= s <= 0.2) is a band
    # component; an 8-gon bubble reaching from s = 0.05 to 0.95 is clear
    for comp in (geo.make_circle((0, 0), 1.2, 12), geo.make_circle((1.5, 0), 0.45, 8)):
        curve = geo.PolyCurve([comp])
        oracle = bulk_error_recursive(curve, circle_calibration, reference_resolution=4096)
        assert _bulk(curve, circle_calibration) == pytest.approx(oracle, rel=1e-6)


def test_bulk_error_ring_around_reference_takes_the_face_term(circle_calibration):
    # the ring 1.1 < r < 1.4 encloses the unit disk: both of its loops are
    # band components, and on the face inside the disk they cancel while
    # the reference counts 1, so that face enters with c = -1
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.4, 4096),
                           geo.make_circle((0, 0), 1.1, 4096, -1)])
    f = _bulk(curve, circle_calibration)
    theta = circle_calibration.profile.theta
    radial = lambda r: 2 * np.pi * r * float(theta(r - 1.0))
    exact = (quad(radial, 1.1, 1.4, points=[1.125, 1.25], epsabs=1e-14)[0]
             - quad(radial, 0.0, 1.0, points=[0.75, 0.875], epsabs=1e-14)[0])
    assert abs(f - exact) <= 1e-5 * exact


def test_bulk_error_face_term_counts_the_reference_holes():
    # reference annulus 0.5 < r < 2 and a weak ring 1.9 < r < 2.1 around
    # its outer loop: the face between the outer loop and the hole enters
    # with c = -1, and its area and boundary flux need the hole's terms
    calib = cb.Calibration(cb.AnalyticCircles([cb.CircleSpec((0.0, 0.0), 2.0),
                                               cb.CircleSpec((0.0, 0.0), 0.5, -1)]), 0.125)
    curve = geo.PolyCurve([geo.make_circle((0, 0), 2.1, 4096),
                           geo.make_circle((0, 0), 1.9, 4096, -1)])
    f = _bulk(curve, calib)
    theta = calib.profile.theta
    ring = quad(lambda r: 2 * np.pi * r * float(theta(r - 2.0)), 1.9, 2.1,
                points=[2.0], epsabs=1e-14)[0]
    annulus = quad(lambda r: -2 * np.pi * r * float(theta(min(r - 0.5, 2.0 - r))), 0.5, 2.0,
                   points=[0.5625, 0.625, 1.25, 1.875, 1.9375], epsabs=1e-14)[0]
    exact = ring - annulus
    assert abs(f - exact) <= 1e-5 * exact


def test_bulk_error_far_loop_around_reference_is_rejected(circle_calibration):
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.8, 256)])
    with pytest.raises(ReferenceEnclosed):
        _bulk(curve, circle_calibration)


def test_bulk_error_component_leaving_the_band_is_rejected(circle_calibration):
    curve = geo.PolyCurve([geo.make_circle((0.6, 0), 1.0, 256)])
    with pytest.raises(BandExceeded):
        _bulk(curve, circle_calibration)


# ---------------------------------------------------------------------------
# dissipation report
# ---------------------------------------------------------------------------

def test_dissipation_report_stationary(unit_circle_256, circle_calibration):
    _, geom = unit_circle_256
    rep = en.dissipation_report(circle_calibration.sample(geom), circle_calibration,
                                None, np.zeros(256))
    assert rep.E <= 1e-6
    assert rep.F <= 1e-6
    assert rep.D_H <= 1e-6
    assert rep.D_V <= 1e-6
    assert rep.cross_v_xi <= 1e-6
    assert rep.cross_xi <= 1e-6
    assert rep.cross_h_b <= 1e-6


def test_dissipation_dh_matches_bruteforce(circle_calibration):
    curve = geo.PolyCurve([geo.make_wavy_circle(1.0, 0.05, 3, 256)])
    geom = geo.build_geometry(curve)
    rep = en.dissipation_report(circle_calibration.sample(geom), circle_calibration,
                                None, np.zeros(256))
    # independent quadrature loop
    n, kappa, w = 256, geom.kappa, geom.weights
    total = 0.0
    for i in range(n):
        ip, im = (i + 1) % n, (i - 1) % n
        grad = (kappa[ip] - kappa[im]) / (2 * w[i])
        total += w[i] * grad**2
    assert rep.D_H == pytest.approx(total, rel=1e-6)
    assert rep.D_H > 0


def test_dissipation_velocity_scaling(unit_circle_256, circle_calibration):
    _, geom = unit_circle_256
    theta = vertex_angles(geom)
    v1 = np.cos(2 * theta)
    v2 = 2 * np.cos(2 * theta)
    sample = circle_calibration.sample(geom)
    r1 = en.dissipation_report(sample, circle_calibration, None, v1)
    r2 = en.dissipation_report(sample, circle_calibration, None, v2)
    assert r2.D_V == pytest.approx(4.0 * r1.D_V, rel=1e-12)


# ---------------------------------------------------------------------------
# Gronwall verdicts
# ---------------------------------------------------------------------------

def _series(ts, es, fs):
    return [en.EnergyReport(t=t, E=e, F=f, L=1, A=1, D_H=0, D_V=0,
                            cross_v_xi=0, cross_xi=0, cross_h_b=0)
            for t, e, f in zip(ts, es, fs)]


def test_gronwall_decaying_series():
    ts = 0.05 * np.arange(15)
    reports = _series(ts, 0.01 * np.exp(-3 * ts), 0.002 * np.exp(-3 * ts))
    res = en.gronwall_verdict(reports)
    assert res.verdict == "PASS"
    assert res.c_fit <= 1.0 + 1e-9
    assert res.c_integral == 0.0


def test_gronwall_trivial_floor():
    ts = 0.05 * np.arange(12)
    reports = _series(ts, np.full(12, 1e-9), np.full(12, 1e-9))
    res = en.gronwall_verdict(reports)
    assert res.verdict == "PASS-TRIVIAL"


def test_gronwall_degenerate_growth():
    ts = 0.05 * np.arange(12)
    es = np.full(12, 1e-3)
    es[0] = 1e-9
    with pytest.raises(DegenerateInitialData):
        en.gronwall_verdict(_series(ts, es, np.zeros(12)))


def test_gronwall_exponential_growth_fits_rate():
    ts = 0.1 * np.arange(15)
    reports = _series(ts, 0.01 * np.exp(2.0 * ts), np.zeros(15))
    res = en.gronwall_verdict(reports)
    assert res.verdict == "PASS"
    assert 1.0 <= res.c_fit <= 2.5
    assert res.c_integral == pytest.approx(2.0, rel=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", [[0], [3], list(range(12))])
def test_gronwall_fails_a_series_that_is_not_finite(bad, where):
    # every comparison with NaN is false: [1, NaN, ...] once read PASS with
    # C_fit 1.0, an all-NaN series PASS, and a start at the floor PASS-TRIVIAL
    ts = 0.05 * np.arange(12)
    for start in (1e-2, 1e-9):
        es = np.full(12, start)
        es[where] = bad
        res = en.gronwall_verdict(_series(ts, es, np.zeros(12)))
        assert (res.verdict, res.c_fit) == ("FAIL", np.inf)


def test_gronwall_needs_ten_samples():
    ts = 0.1 * np.arange(5)
    with pytest.raises(ValueError):
        en.gronwall_verdict(_series(ts, np.ones(5), np.zeros(5)))


# ---------------------------------------------------------------------------
# component flux sums
# ---------------------------------------------------------------------------

def test_edge_flux_constant_field_exact(unit_circle_256):
    _, geom = unit_circle_256
    flux, = en.edge_flux(lambda p: np.tile([1.0, 0.0], (len(p), 1)), geom)
    assert abs(flux) <= 1e-14


def test_edge_flux_identity_field(unit_circle_256):
    # B(x) = x has divergence 2: flux = 2 * enclosed area exactly for polygons
    _, geom = unit_circle_256
    flux, = en.edge_flux(lambda p: p, geom)
    assert flux == pytest.approx(2.0 * geom.area[0], rel=1e-12)


def test_nu_dot_b_sums_zero_field(unit_circle_256, circle_calibration):
    _, geom = unit_circle_256

    class ZeroField:
        support_radius = 10.0
        div_sup = 0.0
        sup_norm = 0.0

        def at(self, pts):
            return np.zeros_like(np.atleast_2d(pts))

    rep = en.nu_dot_B_sums(geom, ZeroField(), circle_calibration,
                           circle_calibration.xi_grad_bound(), f_value=0.0, e_value=0.0)
    assert rep.sum_abs == 0.0
    assert rep.sum_scaled == 0.0


def test_nu_dot_b_sums_with_disk_field(circle_calibration):
    field, curve, geom = _build_disk_bundle()
    shifted = geo.PolyCurve([geo.make_circle((0.03, 0), 1.0, 256),
                             geo.make_circle((2.6, 0), 0.015, 24)])
    sgeom = geo.build_geometry(shifted)
    rep = en.nu_dot_B_sums(sgeom, field, circle_calibration,
                           circle_calibration.xi_grad_bound(),
                           f_value=_bulk(shifted, circle_calibration),
                           e_value=en.relative_energy(circle_calibration.sample(sgeom)))
    assert rep.slack_abs >= 0.0
    assert rep.slack_scaled >= 0.0
    assert rep.hypothesis_failures == 0


class _CountingField:
    """A BField that counts its ``at`` calls."""

    def __init__(self, field):
        self.field = field
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.field, name)

    def at(self, points):
        self.calls += 1
        return self.field.at(points)


def test_stacked_checkers_one_B_call_per_sample(circle_calibration):
    # a wavy loop and four bubbles in the damping band of the unit circle's field
    field, _, _ = _build_disk_bundle()
    ang = 0.5 * np.pi * np.arange(4) + 0.3
    rad = [1.2, 1.28, 1.35, 1.42]
    curve = geo.PolyCurve(
        [geo.make_wavy_circle(1.0, 0.03, 3, 128, center=(0.02, 0.0))]
        + [geo.make_circle((r * np.cos(a), r * np.sin(a)), 0.015, 24)
           for r, a in zip(rad, ang)])
    geom = geo.build_geometry(curve)
    sample = circle_calibration.sample(geom)
    counting = _CountingField(field)
    rep = en.dissipation_report(sample, circle_calibration, counting,
                                np.zeros(len(geom.vertices)))
    assert counting.calls == 1
    counting.calls = 0
    nb = en.nu_dot_B_sums(geom, counting, circle_calibration,
                          circle_calibration.xi_grad_bound(), f_value=rep.F, e_value=rep.E)
    assert counting.calls == 1

    seen = []

    def recording(points):
        seen.append(points)
        return field.at(points)

    fluxes = en.edge_flux(recording, geom)
    # the stacked call's B is the per-component calls' B, bit for bit
    comp_of = geom.curve.segments[2]
    gauss = seen[0].reshape(4, -1, 2)
    stacked_b = field.at(seen[0]).reshape(gauss.shape)
    for k in range(curve.ncomponents):
        own = gauss[:, comp_of == k]
        assert np.array_equal(field.at(own.reshape(-1, 2)).reshape(own.shape),
                              stacked_b[:, comp_of == k])
    # so the fluxes differ by summation order alone, bounded by the sum of
    # the magnitudes of each component's terms w_g |e| nu . B
    starts, ends, _, _ = geom.curve.segments
    e = ends - starts
    nu_e = np.column_stack([e[:, 1], -e[:, 0]]) / geom.edge_lengths[:, None]
    terms = np.abs(en._G4W[:, None] * geom.edge_lengths * np.sum(nu_e * stacked_b, axis=2))
    scale = np.add.reduceat(terms.sum(axis=0), geom.layout.first)
    want = np.array([extension_oracle.edge_flux(field.at, v)
                     for v in np.split(curve.vertices, curve.layout.split)])
    assert np.all(want[1:] != 0.0)
    assert np.all(np.abs(fluxes - want) <= 1e-15 * scale)
    assert abs(nb.sum_abs - np.sum(np.abs(want))) <= 1e-15 * np.sum(scale)

    stacked = po.nu_dot_B_potential(geom, field.at(geom.vertices))
    phis = extension_oracle.nu_dot_B_potentials(curve, field)
    for part, phi in zip(parts(geom), phis):
        assert np.max(np.abs(stacked[part] - phi)) <= 1e-15 * np.max(np.abs(phi))
    cross = np.sum(geo.integrate(geom, (geo.dds(geom, geom.kappa)
                                        - geo.dds(geom, np.concatenate(phis)))**2))
    assert rep.cross_h_b == pytest.approx(cross, rel=1e-15)


def test_sample_checkers_compute_each_diameter_once(monkeypatch, circle_calibration):
    # the small-component bound, the flux hypothesis count and the Poincare
    # ratio all read the diameters of one 9-component state: one maximum
    # per component, none over their union, each the largest vertex distance
    curve = geo.PolyCurve([geo.make_ellipse(1.2, 0.9, 128)]
                          + [geo.make_circle((3.0, -1.75 + 0.5 * k), 0.01, 24)
                             for k in range(8)])
    calls = []
    max_distance = geo._max_distance

    def counting(points):
        calls.append(len(points))
        return max_distance(points)

    monkeypatch.setattr(geo, "_max_distance", counting)
    sample = circle_calibration.sample(geo.build_geometry(curve))
    xi_bound = circle_calibration.xi_grad_bound()
    bubble = en.small_component_area_check(sample, xi_bound)
    field = SimpleNamespace(at=np.zeros_like, support_radius=3.0, div_sup=1.0, sup_norm=1.0)
    nb = en.nu_dot_B_sums(sample.geometry, field, circle_calibration, xi_bound,
                          f_value=1.0, e_value=1.0)
    poincare_ratio(sample.geometry, sample.s, 2)
    assert calls == list(curve.counts)
    one_by_one = [max_distance(v) for v in np.split(curve.vertices, curve.layout.split)]
    assert np.array_equal(curve.diameters, one_by_one)
    limit = 1.0 / (2.0 * xi_bound)
    applicable = _assert_bubble_slack_matches_oracle(bubble, sample, xi_bound)[1]
    assert list(applicable) == [d <= limit for d in one_by_one]
    small = sample.geometry.length <= 1.0
    assert nb.hypothesis_failures == sum(d > limit for d, k in zip(one_by_one, small) if k)


def _build_disk_bundle():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 128)])
    geom = geo.build_geometry(curve)
    field = ex.build_B(geom, np.cos(vertex_angles(geom)), 0.25)
    return field, curve, geom


# ---------------------------------------------------------------------------
# small-component area bound
# ---------------------------------------------------------------------------

def _bubble_slacks(sample, xi_grad_bound):
    """Oracle, per component: 34 int (1 - xi . nu) - length, the integral one
    dot product over its vertices, and whether its largest vertex distance,
    from every pair at once, is at most 1/(2 xi_grad_bound)."""
    geom = sample.geometry
    slacks, applicable = [], []
    for k, part in enumerate(parts(geom)):
        tilt = np.dot(geom.weights[part], 1.0 - np.sum(sample.xi[part] * geom.nu[part], axis=1))
        slacks.append(34.0 * tilt - geom.length[k])
        v = geom.vertices[part]
        diameter = np.max(np.linalg.norm(v[:, None] - v[None], axis=2))
        applicable.append(xi_grad_bound <= 0.0 or diameter <= 1.0 / (2.0 * xi_grad_bound))
    return np.array(slacks), np.array(applicable)


def _assert_bubble_slack_matches_oracle(got, sample, xi_grad_bound):
    """The checker's float is the oracle's least slack over the applicable
    components, inf when none is; returns the oracle's arrays."""
    slacks, applicable = _bubble_slacks(sample, xi_grad_bound)
    want = np.min(slacks[applicable], initial=np.inf)
    assert got == (pytest.approx(want, rel=1e-12) if np.isfinite(want) else want)
    return slacks, applicable


def test_bubble_lemma_constant_direction(unit_circle_256, circle_calibration):
    _, geom = unit_circle_256
    constant = replace(circle_calibration.sample(geom),
                       xi=np.tile([0.3, -0.5], (256, 1)))
    slack = en.small_component_area_check(constant, 0.0)
    assert _assert_bubble_slack_matches_oracle(slack, constant, 0.0)[1].all()
    assert slack >= 0.0
    # constant field: the tilt integral equals the length exactly at the
    # quadrature level, so the slack is 33x the length
    assert slack == pytest.approx(33 * geom.length[0], rel=1e-10)


def test_bubble_lemma_far_tiny_circle(circle_calibration):
    geom = geo.build_geometry(geo.PolyCurve([geo.make_circle((3, 0), 0.01, 24)]))
    sample, bound = circle_calibration.sample(geom), circle_calibration.xi_grad_bound()
    slack = en.small_component_area_check(sample, bound)
    assert _assert_bubble_slack_matches_oracle(slack, sample, bound)[1].all()
    assert slack >= 0.0


def test_bubble_lemma_randomized_in_tube(circle_calibration):
    rng = np.random.default_rng(9)
    bound = circle_calibration.xi_grad_bound()
    assert 1.0 / (2.0 * bound) > 0.03   # the radii below satisfy the hypothesis
    worst = np.inf
    for _ in range(100):
        ang = rng.uniform(0, 2 * np.pi)
        rad = 1.0 + rng.uniform(-0.2, 0.2)
        r_b = rng.uniform(0.004, 0.015)
        c = (rad * np.cos(ang), rad * np.sin(ang))
        geom = geo.build_geometry(geo.PolyCurve([geo.make_circle(c, r_b, 24)]))
        sample = circle_calibration.sample(geom)
        slack = en.small_component_area_check(sample, bound)
        assert _assert_bubble_slack_matches_oracle(slack, sample, bound)[1].all()
        worst = min(worst, slack)
    assert worst >= 0.0


# ---------------------------------------------------------------------------
# stationary gradient bound
# ---------------------------------------------------------------------------

def test_lemma32_on_reference(unit_circle_256, circle_calibration):
    _, geom = unit_circle_256
    rep = en.dissipation_report(circle_calibration.sample(geom), circle_calibration,
                                None, np.zeros(256))
    lhs = rep.cross_xi
    assert lhs <= 1e-6


def test_lemma32_ratio_bounded_over_sweep(circle_calibration):
    ratios = []
    for amp in (0.01, 0.02, 0.04):
        curve = geo.PolyCurve([geo.make_wavy_circle(1.0, amp, 3, 256)])
        geom = geo.build_geometry(curve)
        rep = en.dissipation_report(circle_calibration.sample(geom),
                                    circle_calibration, None, np.zeros(256))
        ratio = en.stationary_gradient_ratio(rep, circle_calibration)
        ratios.append(ratio)
    assert max(ratios) / min(ratios) <= 4.0


def test_lemma32_far_bubble_lowers_ratio(circle_calibration):
    def lhs_and_ratio(curve):
        geom = geo.build_geometry(curve)
        rep = en.dissipation_report(circle_calibration.sample(geom),
                                    circle_calibration, None, np.zeros(len(geom.vertices)))
        return rep.cross_xi, en.stationary_gradient_ratio(rep, circle_calibration)

    lhs0, ratio0 = lhs_and_ratio(geo.PolyCurve([geo.make_wavy_circle(1.0, 0.02, 3, 256)]))
    lhs1, ratio1 = lhs_and_ratio(geo.PolyCurve([
        geo.make_wavy_circle(1.0, 0.02, 3, 256),
        geo.make_circle((3, 0), 0.1, 64)]))
    assert lhs1 == pytest.approx(lhs0, rel=1e-10)   # xi vanishes on the bubble
    assert ratio1 < ratio0


def test_lemma32_rejects_moving_reference():
    curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 128)])
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.005)
    traj = fl.make_reference(cfg, curve, np.linspace(0.0, 0.005, 6))
    ref = cb.PolygonReference(trajectory=traj)
    calib = cb.Calibration(ref)
    weak = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 64)])
    rep = en.dissipation_report(calib.sample(geo.build_geometry(weak)), calib,
                                None, np.zeros(64))
    with pytest.raises(NonStationaryReference):
        en.stationary_gradient_ratio(rep, calib)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_reports_csv_roundtrip(tmp_path):
    ts = 0.05 * np.arange(12)
    reports = _series(ts, 0.01 * np.exp(-ts), 0.001 * np.exp(-ts))
    reports[0].verdicts["pointwise"] = "PASS"
    path = tmp_path / "reports.csv"
    en.reports_to_csv(reports, path)
    import csv as csvmod

    with open(path) as fh:
        rows = list(csvmod.reader(fh))
    assert rows[0] == en.CSV_COLUMNS
    assert len(rows) == 13
    assert float(rows[1][1]) == pytest.approx(0.01)
    assert "pointwise=PASS" in rows[1][-1]

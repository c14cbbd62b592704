from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from surfdiff import calibration as cb
from surfdiff import energy as en
from surfdiff import extension as ex
from surfdiff import geometry as geo
from surfdiff import poisson as po
from surfdiff.errors import DegenerateInitialData, NonStationaryReference

import extension_oracle
from geometry_oracle import parts
from bulk_oracle import bulk_error_montecarlo, bulk_error_recursive, clip_rect, shoelace
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
    assert en.relative_energy(circle_calibration.sample(on_ref)) <= 1e-10
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

def test_bulk_error_identical_regions(circle_calibration):
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 1024)])
    f = en.bulk_error(curve, circle_calibration, reference_resolution=1024)
    assert abs(f) <= 1e-10


def test_bulk_error_annulus_formula(circle_calibration):
    eps = 0.05
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0 + eps, 2048)])
    f = en.bulk_error(curve, circle_calibration)
    exact = 2 * np.pi * (eps**2 / 2 + eps**3 / 3)
    assert abs(f - exact) / exact <= 1e-4


def test_bulk_error_shrunk_disk_sign(circle_calibration):
    eps = 0.04
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0 - eps, 1024)])
    f = en.bulk_error(curve, circle_calibration, reference_resolution=1024)
    # region difference lies inside the reference where vartheta < 0 and
    # chi - chi* = -1: the product integrates to a positive value
    exact = 2 * np.pi * (eps**2 / 2 - eps**3 / 3)
    assert f == pytest.approx(exact, rel=1e-3)


def test_bulk_error_far_bubble_saturates(circle_calibration):
    base = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 1024)])
    withb = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 1024),
                           geo.make_circle((3, 0), 0.1, 128)])
    f0 = en.bulk_error(base, circle_calibration, reference_resolution=1024)
    f1 = en.bulk_error(withb, circle_calibration, reference_resolution=1024)
    area = withb.components[1].signed_area()
    assert f1 - f0 == pytest.approx(area * 0.25, rel=1e-10)


def test_bulk_error_montecarlo_agreement(circle_calibration):
    eps = 0.05
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0 + eps, 512)])
    f = en.bulk_error(curve, circle_calibration, reference_resolution=1024)
    f_mc, se = bulk_error_montecarlo(curve, circle_calibration,
                                        n_samples=2 * 10**5)
    assert abs(f_mc - f) <= 3.0 * se


def test_bulk_error_polygon_reference():
    pref = cb.PolygonReference(curve=geo.PolyCurve([geo.make_circle((0, 0), 1.0, 512)]))
    calib = cb.Calibration(pref)
    curve = geo.PolyCurve([geo.make_circle((0.05, 0), 1.0, 256)])
    f = en.bulk_error(curve, calib)
    f_mc, se = bulk_error_montecarlo(curve, calib, n_samples=2 * 10**5)
    assert abs(f_mc - f) <= 3.0 * se
    assert f > 0


def test_bulk_error_clockwise_hole_subtracts(circle_calibration):
    # annulus 0.95 < r < 1.05 (outer boundary plus a clockwise hole) against
    # the unit disk: the hole's disk r < 0.95 lies in B \ A, where
    # (chi_A - chi_B) * vartheta = -theta(r - 1) > 0
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.05, 1024),
                           geo.make_circle((0, 0), 0.95, 1024, -1)])
    f = en.bulk_error(curve, circle_calibration)
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

def _star(center, radius, n, rng, amp, orientation=1):
    ang = 2 * np.pi * np.arange(n) / n
    modes = np.arange(2, 5)
    coef = rng.uniform(-1, 1, len(modes))
    coef *= amp / max(np.abs(coef).sum(), 1e-12)
    phase = rng.uniform(0, 2 * np.pi, len(modes))
    r = radius * (1 + np.cos(np.outer(ang, modes) + phase) @ coef)
    v = np.asarray(center) + np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    return geo.Component(v if orientation > 0 else v[::-1], orientation)


def _random_forest(seed):
    """A star-shaped body with one clockwise hole and up to three bubbles."""
    rng = np.random.default_rng(seed)
    comps = [_star(rng.uniform(-0.03, 0.03, 2), rng.uniform(0.94, 1.06),
                   int(rng.integers(96, 160)), rng, 0.08)]
    rho, phi = rng.uniform(0, 0.4), rng.uniform(0, 2 * np.pi)
    comps.append(_star((rho * np.cos(phi), rho * np.sin(phi)), rng.uniform(0.15, 0.35),
                       int(rng.integers(48, 96)), rng, 0.1, orientation=-1))
    for j in range(int(rng.integers(0, 4))):
        phi = 2 * np.pi * j / 3 + rng.uniform(-0.3, 0.3)
        dist = rng.uniform(1.3, 2.2)
        comps.append(_star((dist * np.cos(phi), dist * np.sin(phi)),
                           rng.uniform(0.02, 0.08), int(rng.integers(24, 33)), rng, 0.1))
    return geo.PolyCurve(comps)


_REFERENCES = {
    "circle": lambda: cb.Calibration(cb.AnalyticCircles([cb.CircleSpec((0.0, 0.0), 1.0)]), 0.25),
    "polygon": lambda: cb.Calibration(cb.PolygonReference(
        curve=geo.PolyCurve([geo.make_ellipse(1.1, 0.9, 256)]))),
}


@pytest.mark.parametrize("reference", sorted(_REFERENCES))
@settings(max_examples=8, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bulk_error_matches_recursive_oracle(reference, seed):
    calib = _REFERENCES[reference]()
    curve = _random_forest(seed)
    f = en.bulk_error(curve, calib, reference_resolution=512)
    oracle = bulk_error_recursive(curve, calib, reference_resolution=512)
    assert abs(f - oracle) <= 1e-12 * abs(oracle) + 1e-14


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), clockwise=st.booleans())
def test_candidate_clip_equals_full_polygon_clip(seed, clockwise):
    rng = np.random.default_rng(seed)
    comp = _star((0, 0), 1.0, int(rng.integers(16, 513)), rng, 0.3,
                 orientation=-1 if clockwise else 1)
    # a clockwise loop is a hole: give it an enclosing outer boundary, whose
    # edges come first in the flattened arrays
    comps = [geo.make_circle((0, 0), 3.0, 64), comp] if clockwise else [comp]
    region = en._Region(geo.PolyCurve(comps), 1.0)
    mine = np.nonzero(region.comp_of == len(comps) - 1)[0]
    poly = comp.vertices
    for _ in range(10):
        ang = rng.uniform(0, 2 * np.pi)
        size = rng.uniform(0.005, 0.8)
        lo = rng.uniform(0.6, 1.2) * np.array([np.cos(ang), np.sin(ang)]) - rng.uniform(0, size, 2)
        hi = lo + size
        seg = mine[region.meets(mine, lo[None], hi[None])]
        full = clip_rect(poly, lo, hi)
        if len(seg) == 0:
            continue
        pts, gid, _ = en._candidate_polygons(region, np.zeros(len(seg), dtype=np.int64),
                                              seg, lo[None], hi[None])
        pts, _ = en._clip_polygons(pts, gid, lo[None], hi[None])
        assert len(pts) == len(full)
        if len(full):
            # the same vertices in the same cyclic order, from another start
            assert any(np.array_equal(np.roll(full, -k, axis=0), pts) for k in range(len(full)))
            area = abs(shoelace(full))
            assert abs(shoelace(pts) - shoelace(full)) <= 1e-14 * max(area, size**2)


# ---------------------------------------------------------------------------
# dissipation report
# ---------------------------------------------------------------------------

def test_dissipation_report_stationary(unit_circle_256, circle_calibration):
    curve, geom = unit_circle_256
    rep = en.dissipation_report(curve, circle_calibration.sample(geom), circle_calibration,
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
    rep = en.dissipation_report(curve, circle_calibration.sample(geom), circle_calibration,
                                None, None)
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
    curve, geom = unit_circle_256
    theta = vertex_angles(geom)
    v1 = np.cos(2 * theta)
    v2 = 2 * np.cos(2 * theta)
    sample = circle_calibration.sample(geom)
    r1 = en.dissipation_report(curve, sample, circle_calibration, None, v1)
    r2 = en.dissipation_report(curve, sample, circle_calibration, None, v2)
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
                           f_value=en.bulk_error(shifted, circle_calibration),
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
    rep = en.dissipation_report(curve, sample, circle_calibration, counting, None)
    assert counting.calls == 1
    counting.calls = 0
    nb = en.nu_dot_B_sums(geom, counting, circle_calibration,
                          circle_calibration.xi_grad_bound(), f_value=rep.F, e_value=rep.E)
    assert counting.calls == 1

    fluxes = en.edge_flux(field.at, geom)
    want = np.array([extension_oracle.edge_flux(field.at, c.vertices) for c in curve.components])
    assert np.all(want[1:] != 0.0)
    assert np.max(np.abs(fluxes - want)) <= 1e-15 * np.max(np.abs(want))
    assert nb.sum_abs == pytest.approx(np.sum(np.abs(want)), rel=1e-15)

    stacked = po.nu_dot_B_potential(geom, field.at(geom.vertices))
    phis = extension_oracle.nu_dot_B_potentials(curve, field)
    for part, phi in zip(parts(geom), phis):
        assert np.max(np.abs(stacked[part] - phi)) <= 1e-15 * np.max(np.abs(phi))
    cross = np.sum(geo.integrate(geom, (geo.dds(geom, geom.kappa)
                                        - geo.dds(geom, np.concatenate(phis)))**2))
    assert rep.cross_h_b == pytest.approx(cross, rel=1e-15)


def test_sample_checkers_make_one_caliper_pass_per_curve(monkeypatch, circle_calibration):
    # the small-component bound, the flux hypothesis count and the Poincare
    # ratio all read the diameters of one 9-component state: one caliper
    # call over its 9 component hulls and their union's, with every
    # component's diameter the same bits as a one-hull pass gives
    curve = geo.PolyCurve([geo.make_ellipse(1.2, 0.9, 128)]
                          + [geo.make_circle((3.0, -1.75 + 0.5 * k), 0.01, 24)
                             for k in range(8)])
    calls = []
    diameters = geo._diameters

    def counting_diameters(hulls):
        calls.append(len(hulls))
        return diameters(hulls)

    monkeypatch.setattr(geo, "_diameters", counting_diameters)
    sample = circle_calibration.sample(geo.build_geometry(curve))
    xi_bound = circle_calibration.xi_grad_bound()
    bubbles = en.small_component_area_check(sample, xi_bound)
    field = SimpleNamespace(at=np.zeros_like, support_radius=3.0, div_sup=1.0, sup_norm=1.0)
    nb = en.nu_dot_B_sums(sample.geometry, field, circle_calibration, xi_bound,
                          f_value=1.0, e_value=1.0)
    geo.poincare_ratio(sample.geometry, sample.s, 2)
    assert calls == [10]
    one_by_one = [diameters([geo._hull(c.vertices)])[0] for c in curve.components]
    assert np.array_equal(curve.diameters, one_by_one)
    limit = 1.0 / (2.0 * xi_bound)
    assert [b.applicable for b in bubbles] == [d <= limit for d in one_by_one]
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

def test_bubble_lemma_constant_direction(unit_circle_256, circle_calibration):
    _, geom = unit_circle_256
    constant = replace(circle_calibration.sample(geom),
                       xi=np.tile([0.3, -0.5], (256, 1)))
    verdicts = en.small_component_area_check(constant, 0.0)
    assert verdicts[0].applicable
    assert verdicts[0].slack >= 0.0
    # constant field: the tilt integral equals the length exactly at the
    # quadrature level, so the slack is 33x the length
    assert verdicts[0].slack == pytest.approx(33 * geom.length[0], rel=1e-10)


def test_bubble_lemma_far_tiny_circle(circle_calibration):
    geom = geo.build_geometry(geo.PolyCurve([geo.make_circle((3, 0), 0.01, 24)]))
    verdicts = en.small_component_area_check(
        circle_calibration.sample(geom), circle_calibration.xi_grad_bound())
    assert verdicts[0].applicable
    assert verdicts[0].slack >= 0.0


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
        verdicts = en.small_component_area_check(circle_calibration.sample(geom), bound)
        assert verdicts[0].applicable
        worst = min(worst, verdicts[0].slack)
    assert worst >= 0.0


# ---------------------------------------------------------------------------
# stationary gradient bound
# ---------------------------------------------------------------------------

def test_lemma32_on_reference(unit_circle_256, circle_calibration):
    curve, geom = unit_circle_256
    rep = en.dissipation_report(curve, circle_calibration.sample(geom), circle_calibration,
                                None, None)
    lhs = rep.cross_xi
    assert lhs <= 1e-6


def test_lemma32_ratio_bounded_over_sweep(circle_calibration):
    ratios = []
    for amp in (0.01, 0.02, 0.04):
        curve = geo.PolyCurve([geo.make_wavy_circle(1.0, amp, 3, 256)])
        geom = geo.build_geometry(curve)
        rep = en.dissipation_report(curve, circle_calibration.sample(geom),
                                    circle_calibration, None, None)
        ratio = en.stationary_gradient_ratio(rep, circle_calibration)
        ratios.append(ratio)
    assert max(ratios) / min(ratios) <= 4.0


def test_lemma32_far_bubble_lowers_ratio(circle_calibration):
    def lhs_and_ratio(curve):
        geom = geo.build_geometry(curve)
        rep = en.dissipation_report(curve, circle_calibration.sample(geom),
                                    circle_calibration, None, None)
        return rep.cross_xi, en.stationary_gradient_ratio(rep, circle_calibration)

    lhs0, ratio0 = lhs_and_ratio(geo.PolyCurve([geo.make_wavy_circle(1.0, 0.02, 3, 256)]))
    lhs1, ratio1 = lhs_and_ratio(geo.PolyCurve([
        geo.make_wavy_circle(1.0, 0.02, 3, 256),
        geo.make_circle((3, 0), 0.1, 64)]))
    assert lhs1 == pytest.approx(lhs0, rel=1e-10)   # xi vanishes on the bubble
    assert ratio1 < ratio0


def test_lemma32_rejects_moving_reference():
    from surfdiff import flow as fl

    curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 128)])
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.005)
    traj = fl.make_reference(cfg, curve, sample_stride=10)
    ref = cb.PolygonReference(trajectory=traj)
    calib = cb.Calibration(ref)
    weak = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 64)])
    rep = en.dissipation_report(weak, calib.sample(geo.build_geometry(weak)), calib,
                                None, None)
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

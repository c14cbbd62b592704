"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expensive runs are shared through session fixtures; every tolerance is
pinned here, nothing is deferred to calibration at runtime.
"""

import time

import numpy as np
import pytest

from surfdiff import calibration as cb
from surfdiff import cli
from surfdiff import energy as en
from surfdiff import extension as ex
from surfdiff import flow as fl
from surfdiff import geometry as geo
from surfdiff import poisson as po

import bulk_oracle
import extension_oracle
import geometry_oracle
from calibration_oracle import xi_at
from conftest import vertex_angles


def _line(num, ok, text):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def ellipse_run_512():
    curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 512)])
    cfg = fl.FlowConfig(dt=1e-4, end_time=3.0, area_drift_abort=1e-4)
    stop = lambda s: s.length() ** 2 / (4 * np.pi * abs(s.area())) <= 1.001
    return fl.run_flow(curve, cfg, sample_stride=20, stop_condition=stop)


@pytest.fixture(scope="session")
def stationary_scenario():
    """Perturbed circle against the analytic unit circle, delta = 0.25."""
    ref = cb.AnalyticCircles([cb.CircleSpec((0.0, 0.0), 1.0)])
    calib = cb.Calibration(ref, 0.25)
    curve = geo.PolyCurve([geo.make_wavy_circle(1.0, 0.05, 3, 256,
                                                normalize_area=True)])
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.5, area_drift_abort=1e-3)
    stop = lambda s: s.length() ** 2 / (4 * np.pi * abs(s.area())) <= 1.0001
    # the stop comes near t = 0.038: the times before it, then the final state
    run = fl.run_flow(curve, cfg, stop_condition=stop, times=np.linspace(0.0, 0.04, 14))
    summary = cli.evaluate_run(run.states, calib)
    return run, calib, ref, summary


@pytest.fixture(scope="session")
def weak_strong_bundle():
    """The 2D comparison: clean fine reference vs coarse bubbled runs.

    Returns {dt: {"reference": ..., "calib": ..., "runs": {k: (run, summary)}}}
    for the bubble-count sweep k in {0, 2, 4, 8} at two time steps.
    """
    horizon = 0.06
    out = {}
    rng = np.random.Generator(np.random.Philox(2024))
    # bubble centers shared across the sweep, sampled once outside the tube
    centers = []
    while len(centers) < 8:
        cand = rng.uniform(-3.2, 3.2, 2)
        r = 0.01
        s_to_ellipse = _ellipse_signed_distance(cand)
        if abs(s_to_ellipse) < 0.8 or abs(cand[0]) > 3.0 or abs(cand[1]) > 3.0:
            continue
        if any(np.hypot(*(cand - c)) < 0.2 for c in centers):
            continue
        centers.append(cand)

    times = np.linspace(0.0, horizon, 12)    # recorded and evaluated by every run
    for dt in (1e-4, 5e-5):
        cfg_ref = fl.FlowConfig(dt=dt, end_time=horizon, area_drift_abort=1e-3)
        traj = fl.make_reference(cfg_ref, geo.PolyCurve([geo.make_ellipse(2, 1, 512)]),
                                 times)
        reference = cb.PolygonReference(trajectory=traj)
        calib = cb.Calibration(reference)
        runs = {}
        for k in (0, 2, 4, 8):
            comps = [geo.make_ellipse(2.0, 1.0, 128)]
            comps += [geo.make_circle(tuple(c), 0.01, 24) for c in centers[:k]]
            weak = geo.PolyCurve(comps)
            cfg = fl.FlowConfig(dt=dt, end_time=horizon, area_drift_abort=1e-3)
            run = fl.run_flow(weak, cfg, times=times)
            summary = cli.evaluate_run(run.states, calib)
            runs[k] = (run, summary)
        out[dt] = {"reference": reference, "calib": calib, "runs": runs}
    return out


def _ellipse_signed_distance(point, a=2.0, b=1.0):
    t = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    boundary = np.column_stack([a * np.cos(t), b * np.sin(t)])
    d = np.min(np.linalg.norm(boundary - point, axis=1))
    inside = (point[0] / a) ** 2 + (point[1] / b) ** 2 < 1
    return -d if inside else d


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_circle_stationarity():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 256)])
    cfg = fl.FlowConfig(dt=1e-3, end_time=1.0)
    state = fl.FlowState.initial(curve)
    t0 = time.perf_counter()
    for _ in range(100):
        state = fl.step(state, cfg)
    elapsed = time.perf_counter() - t0
    deviation = np.max(np.abs(np.linalg.norm(state.curve.vertices, axis=1)
                              - np.linalg.norm(curve.vertices, axis=1)))
    _line(1, deviation <= 1e-6 and elapsed < 5.0,
          f"circle deviation {deviation:.2e} (<=1e-6), runtime {elapsed:.2f}s (<5s)")


def test_criterion_02_conservation_laws(ellipse_run_512):
    run = ellipse_run_512
    lengths = np.array(run.length_series)
    areas = np.array(run.area_series)
    iso_series = lengths**2 / (4 * np.pi * np.abs(areas))
    iso = iso_series[-1]
    drift = np.max(np.abs(areas - areas[0])) / abs(areas[0])
    monotone = bool(np.all(np.diff(lengths) <= 1e-13 * lengths[0]))
    iso_monotone = bool(np.all(np.diff(iso_series) <= 1e-9))
    _line(2, iso <= 1.001 and drift <= 1e-4 and monotone and iso_monotone,
          f"iso {iso:.6f} (<=1.001, monotone {iso_monotone}), "
          f"drift {drift:.2e} (<=1e-4), length monotone {monotone}")


def test_criterion_03_dissipation_identity_convergence():
    base = geo.make_ellipse(2.0, 1.0, 512)
    state = fl.FlowState.initial(geo.PolyCurve(
        [fl._resample_uniform(base, [len(base)], passes=4)]))
    warm = fl.FlowConfig(dt=1e-4, end_time=1.0)
    for _ in range(20):
        state = fl.step(state, warm, 1e-4)
    residuals = []
    for dt in (2e-3, 1e-3, 5e-4):
        after = fl.step(state, fl.FlowConfig(dt=dt, end_time=10.0), dt)
        residuals.append(fl.dissipation_identity_residual(state, after)[0])
    ratios = [fine / coarse for coarse, fine in zip(residuals[:-1], residuals[1:])]
    ok = all(0.35 <= r <= 0.65 for r in ratios)
    _line(3, ok, f"residuals {['%.3e' % r for r in residuals]}, "
          f"halving ratios {['%.3f' % r for r in ratios]} in [0.35, 0.65]")


def test_criterion_04_gauss_bonnet_everywhere(ellipse_run_512, stationary_scenario):
    run_s, _, _, _ = stationary_scenario
    worst = 0.0
    count = 0
    for state in (ellipse_run_512.states[-1], ellipse_run_512.states[0],
                  run_s.states[-1], run_s.states[0]):
        geo.jordan_decompose(state.curve)
        residuals = geometry_oracle.gauss_bonnet_residual(state.geometry)
        worst = max(worst, float(np.max(residuals)))
        count += len(residuals)
    _line(4, worst <= 1e-3,
          f"{count} Jordan components, worst residual {worst:.2e} (<=1e-3)")


def test_criterion_05_poisson_solver():
    errs = {}
    for n in (128, 256, 512):
        curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, n)])
        geom = geo.build_geometry(curve)
        theta = vertex_angles(geom)
        phi = po.solve_zero_average(geom, np.cos(3 * theta))
        errs[n] = np.sqrt(geo.integrate(geom, (phi + np.cos(3 * theta) / 9) ** 2))[0]
    order1 = np.log2(errs[128] / errs[256])
    order2 = np.log2(errs[256] / errs[512])
    ok = errs[256] <= 1e-3 and abs(order1 - 2) <= 0.4 and abs(order2 - 2) <= 0.4
    _line(5, ok, f"L2 err(256) {errs[256]:.2e} (<=1e-3), "
          f"orders {order1:.2f}, {order2:.2f} (2 +- 0.4)")


def test_criterion_06_extension_field():
    n = 128
    delta = 0.25
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, n)])
    geom = geo.build_geometry(curve)
    field = ex.build_B(geom, np.cos(vertex_angles(geom)), delta)
    ang = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    interior = []
    for d in (delta / 4, delta / 2, 0.8):
        interior.append(np.column_stack([(1 - d) * np.cos(ang),
                                         (1 - d) * np.sin(ang)]))
    div_int = float(np.max(np.abs(field.divergence(np.vstack(interior)))))
    slope, ratio = extension_oracle.divergence_decay_profile(field)
    ok = field.bc_residual <= 1e-2 and div_int <= 1e-6 and ratio <= 1.0
    _line(6, ok, f"sup|nu.B - V| {field.bc_residual:.2e} (<=1e-2), "
          f"interior |div| {div_int:.2e} (<=1e-6), ray ratio {ratio:.3f} bounded")


def test_criterion_07_bubble_lemma_randomized(circle_calibration):
    rng = np.random.Generator(np.random.Philox(99))
    calib = circle_calibration
    bound = calib.xi_grad_bound()
    assert 1.0 / (2.0 * bound) > 0.031
    violations = 0
    worst = np.inf
    for _ in range(1000):
        ang = rng.uniform(0, 2 * np.pi)
        rad = rng.uniform(0.3, 2.0)
        r_b = rng.uniform(0.004, 0.015)
        center = (rad * np.cos(ang), rad * np.sin(ang))
        geom = geo.build_geometry(geo.PolyCurve([geo.make_circle(center, r_b, 24)]))
        xi = xi_at(calib, geom.vertices)
        tilt = geo.integrate(geom, 1.0 - np.sum(xi * geom.nu, axis=1))[0]
        slack = 34.0 * tilt - geom.length[0]
        worst = min(worst, slack)
        violations += int(slack < 0)
    _line(7, violations == 0,
          f"1000 random small components, {violations} violations, "
          f"min slack {worst:.3e}")


def test_criterion_08_pointwise_inequalities(stationary_scenario,
                                             weak_strong_bundle,
                                             circle_calibration):
    worst = np.inf
    _, _, _, summary = stationary_scenario
    worst = min(worst, summary["worst_slacks"]["pointwise_slack"])
    for level in weak_strong_bundle.values():
        for _, s in level["runs"].values():
            worst = min(worst, s["worst_slacks"]["pointwise_slack"])
    shifted = geo.build_geometry(geo.PolyCurve([geo.make_circle((0.05, 0), 1.0, 256)]))
    worst = min(worst, circle_calibration.pointwise_tilt_check(circle_calibration.sample(shifted)))
    _line(8, worst >= -1e-12,
          f"worst pointwise slack over all scenarios {worst:.3e} (>= 0)")


def test_criterion_09_stationary_stability(stationary_scenario):
    run, calib, ref, summary = stationary_scenario
    iso = run.states[-1].length() ** 2 / (4 * np.pi * abs(run.states[-1].area()))
    gron = summary["gronwall"]
    series = gron["series"]
    decays = series[-1] <= series[0]
    # uniqueness clause: identical datum stays at the quadrature floor
    circle = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 256)])
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.02)
    run_u = fl.run_flow(circle, cfg, times=np.linspace(0.0, 0.02, 11))
    floor = 1e-7
    worst_u = 0.0
    for state in run_u.states:
        sample = calib.sample(state.geometry)
        worst_u = max(worst_u, en.relative_energy(sample) + en.bulk_error(sample, calib))
    ok = (iso <= 1.0001 and gron["verdict"] == "PASS"
          and np.isfinite(gron["C_fit"]) and decays and worst_u <= 10 * floor)
    _line(9, ok, f"iso {iso:.6f}, C_fit {gron['C_fit']:.3g} finite, "
          f"E+F {series[0]:.3e} -> {series[-1]:.3e} nonincreasing, "
          f"uniqueness floor {worst_u:.2e} (<= {10 * floor:.0e})")


def test_criterion_10_weak_strong_comparison(weak_strong_bundle):
    fits = {}
    initials = {}
    for dt, level in weak_strong_bundle.items():
        for k, (_, summary) in level["runs"].items():
            fits[(dt, k)] = summary["gronwall"]["C_fit"]
            series = summary["gronwall"]["series"]
            initials[(dt, k)] = series[0]
    # stability of the fitted constant under dt halving, per bubble count
    stable = all(
        np.isfinite(fits[(1e-4, k)]) and np.isfinite(fits[(5e-5, k)])
        and fits[(1e-4, k)] / max(fits[(5e-5, k)], 1e-30) <= 2.0
        and fits[(5e-5, k)] / max(fits[(1e-4, k)], 1e-30) <= 2.0
        for k in (0, 2, 4, 8))
    # E(0)+F(0) grows linearly in the number of seeded bubbles
    base = initials[(1e-4, 0)]
    increments = [(initials[(1e-4, k)] - base) / k for k in (2, 4, 8)]
    linear = max(increments) / min(increments) <= 1.25
    resolution_part = base
    _line(10, stable and linear and all(i > 0 for i in increments),
          f"C_fits {sorted(set(round(v, 3) for v in fits.values()))} stable 2x, "
          f"per-bubble increment {np.mean(increments):.4f} "
          f"(spread {max(increments) / min(increments):.3f} <= 1.25), "
          f"resolution gap {resolution_part:.2e}")


def test_criterion_11_component_flux_inequalities(weak_strong_bundle):
    worst_abs = np.inf
    worst_scaled = np.inf
    checked = 0
    for level in weak_strong_bundle.values():
        for _, summary in level["runs"].values():
            slacks = summary["worst_slacks"]
            if slacks["nu_dot_B_slack_abs"] is None:
                continue
            checked += 1
            worst_abs = min(worst_abs, slacks["nu_dot_B_slack_abs"])
            worst_scaled = min(worst_scaled, slacks["nu_dot_B_slack_scaled"])
    ok = checked == 8 and worst_abs >= 0.0 and worst_scaled >= 0.0
    _line(11, ok, f"{checked} scenarios with nonzero B, worst slacks "
          f"{worst_abs:.3e} / {worst_scaled:.3e} (>= 0)")


def test_criterion_12_wedge_closedness(circle_calibration):
    m = 512
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, m)])
    geom = geo.build_geometry(curve)
    field = ex.build_B(geom, np.cos(vertex_angles(geom)), 0.25)
    residuals = []
    for n in (128, 256, 512):
        wavy = geo.build_geometry(
            geo.PolyCurve([geo.make_wavy_circle(1.0, 0.05, 3, n)]))
        residuals.append(extension_oracle.gauss_wedge_residual(wavy, field, circle_calibration))
    ratios = [a / b for a, b in zip(residuals[:-1], residuals[1:])]
    ok = residuals[-1] <= 1e-2 and all(r >= 2.0 for r in ratios)
    _line(12, ok, f"residuals {['%.2e' % r for r in residuals]} "
          f"(last <= 1e-2), refinement ratios {['%.2f' % r for r in ratios]}")


def test_criterion_13_poincare_constant(circle_calibration):
    rng = np.random.Generator(np.random.Philox(5))

    def random_field(geom, rng):
        theta = np.arctan2(geom.vertices[:, 1] - geom.vertices[:, 1].mean(),
                           geom.vertices[:, 0] - geom.vertices[:, 0].mean())
        vals = np.zeros(len(theta))
        for k in range(1, 9):
            a, b = rng.normal(size=2)
            vals += a * np.cos(k * theta) + b * np.sin(k * theta)
        return vals

    shapes = {
        "circle": lambda n: geo.make_circle((0, 0), 1.0, n),
        "ellipse": lambda n: geo.make_ellipse(2.0, 1.0, n),
        "wavy": lambda n: geo.make_wavy_circle(1.0, 0.08, 4, n),
    }
    # calibration set: dense resolution, pure modes plus random superpositions
    c_cal = 0.0
    for make in shapes.values():
        geom = geo.build_geometry(geo.PolyCurve([make(1024)]))
        theta = np.arctan2(geom.vertices[:, 1], geom.vertices[:, 0])
        for k in range(1, 9):
            for vals in (np.cos(k * theta), np.sin(k * theta)):
                c_cal = max(c_cal, geometry_oracle.poincare_ratio(geom, vals, 2)[0])
        for _ in range(60):
            c_cal = max(c_cal, geometry_oracle.poincare_ratio(geom, random_field(geom, rng), 2)[0])
    bound = 1.05 * c_cal
    worst = 0.0
    for make in shapes.values():
        geom = geo.build_geometry(geo.PolyCurve([make(256)]))
        for _ in range(200):
            worst = max(worst, geometry_oracle.poincare_ratio(geom, random_field(geom, rng), 2)[0])
    # the exact value 1/4 for the first mode on the unit circle
    geom = geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, 256)]))
    exact = geometry_oracle.poincare_ratio(geom, np.cos(vertex_angles(geom)), 2)[0]
    ok = worst <= bound and abs(exact - 0.25) <= 1e-3
    _line(13, ok, f"600 random fields max ratio {worst:.4f} <= {bound:.4f}, "
          f"cos mode ratio {exact:.6f} (1/4 +- 1e-3)")


def test_criterion_14_bulk_error_oracles(circle_calibration, stationary_scenario):
    eps = 0.05
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0 + eps, 2048)])
    f = en.bulk_error(circle_calibration.sample(geo.build_geometry(curve)),
                      circle_calibration)
    exact = 2 * np.pi * (eps**2 / 2 + eps**3 / 3)
    rel = abs(f - exact) / exact
    f_mc, se = bulk_oracle.bulk_error_montecarlo(curve, circle_calibration,
                                        n_samples=10**6)
    sigma_annulus = abs(f_mc - f) / se
    # scenario states against their calibrations
    run, calib, _, _ = stationary_scenario
    worst_sigma = sigma_annulus
    for state in (run.states[0], run.states[-1]):
        fv = en.bulk_error(calib.sample(state.geometry), calib)
        fm, sm = bulk_oracle.bulk_error_montecarlo(state.curve, calib, n_samples=2 * 10**5)
        worst_sigma = max(worst_sigma, abs(fm - fv) / sm)
    ok = rel <= 1e-4 and worst_sigma <= 3.0
    _line(14, ok, f"annulus formula rel err {rel:.2e} (<=1e-4), "
          f"Monte Carlo worst deviation {worst_sigma:.2f} sigma (<=3)")

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from surfdiff import flow as fl
from surfdiff import geometry as geo
from surfdiff.errors import StepRejected, TopologyChange


@pytest.fixture(scope="module")
def ellipse_run():
    curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 256)])
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.03, area_drift_abort=1e-4)
    return fl.run_flow(curve, cfg, sample_stride=20)


def test_circle_is_stationary():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 256)])
    cfg = fl.FlowConfig(dt=1e-3, end_time=1.0)
    state = fl.FlowState.initial(curve)
    for _ in range(100):
        state = fl.step(state, cfg)
    radii = np.linalg.norm(state.curve.components[0].vertices, axis=1)
    radii0 = np.linalg.norm(curve.components[0].vertices, axis=1)
    assert np.max(np.abs(radii - radii0)) <= 1e-6


def test_circle_fixed_point_any_radius_and_resolution():
    for radius, n in ((0.3, 32), (2.5, 64)):
        curve = geo.PolyCurve([geo.make_circle((0.7, -0.2), radius, n)])
        cfg = fl.FlowConfig(dt=1e-3, end_time=1.0)
        state = fl.FlowState.initial(curve)
        for _ in range(50):
            state = fl.step(state, cfg)
        drift = np.max(np.linalg.norm(
            state.curve.components[0].vertices - curve.components[0].vertices, axis=1))
        assert drift <= 1e-8 * radius * state.time / max(state.time, 1e-30)


def test_two_disjoint_circles_stationary():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 64),
                           geo.make_circle((4, 0), 0.5, 48)])
    cfg = fl.FlowConfig(dt=1e-3, end_time=1.0)
    state = fl.FlowState.initial(curve)
    for _ in range(20):
        state = fl.step(state, cfg)
    for comp, ref in zip(state.curve.components, curve.components):
        assert np.max(np.linalg.norm(comp.vertices - ref.vertices, axis=1)) <= 1e-8


def test_ellipse_isoperimetric_monotone(ellipse_run):
    lengths = np.array(ellipse_run.length_series)
    areas = np.array(ellipse_run.area_series)
    iso = lengths**2 / (4 * np.pi * np.abs(areas))
    assert np.all(np.diff(lengths) <= 1e-13 * lengths[0])
    assert iso[-1] < iso[0]


def test_ellipse_area_conserved(ellipse_run):
    areas = np.array(ellipse_run.area_series)
    assert np.max(np.abs(areas - areas[0])) / areas[0] <= 1e-4
    assert fl.volume_drift(ellipse_run.trajectory) <= 1e-4


def test_wavy_circle_volume_drift():
    curve = geo.PolyCurve([geo.make_wavy_circle(1.0, 0.05, 3, 256,
                                                normalize_area=True)])
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.02, area_drift_abort=1e-4)
    run = fl.run_flow(curve, cfg, sample_stride=20)
    assert fl.volume_drift(run.trajectory) <= 1e-4


def test_volume_drift_within_bound_across_dt():
    # the time-discretization drift is removed exactly by the area-neutral
    # shift; what remains is the dt-independent redistribution residue, well
    # inside the configured bound at every step size
    curve = geo.PolyCurve([geo.make_wavy_circle(1.0, 0.05, 3, 128,
                                                normalize_area=True)])
    for dt in (4e-4, 1e-4):
        cfg = fl.FlowConfig(dt=dt, end_time=0.01, max_dt_growth=1.0,
                            area_drift_abort=1e-4)
        run = fl.run_flow(curve, cfg, sample_stride=1000)
        areas = np.array(run.area_series)
        assert np.max(np.abs(areas - areas[0])) / areas[0] <= 1e-4


def test_move_stage_exactly_area_neutral():
    curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 256)])
    state = fl.FlowState.initial(geo.PolyCurve([geo.Component(
        fl._resample_uniform(curve.components[0].vertices, passes=4), 1)]))
    cache = state.caches[0]
    for dt in (1e-3, 1e-4, 1e-5):
        w = fl._normal_velocity(cache, dt)
        w = fl._area_neutral_shift(cache.vertices, cache.nu, w, dt)
        moved = cache.vertices + dt * w[:, None] * cache.nu
        drift = abs(geo.Component(moved, 1).signed_area() - cache.area)
        assert drift <= 1e-12 * abs(cache.area)


def test_dissipation_residual_stationary():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 128)])
    cfg = fl.FlowConfig(dt=1e-3, end_time=1.0)
    s0 = fl.FlowState.initial(curve)
    s1 = fl.step(s0, cfg)
    assert fl.dissipation_identity_residual(s0, s1)[0] <= 1e-8


def test_dissipation_sign_every_step(ellipse_run):
    lengths = np.array(ellipse_run.length_series)
    assert np.all(np.diff(lengths) <= 0.0 + 1e-13 * lengths[0])


def test_dissipation_residual_halves_with_dt():
    base = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 512)])
    cfg_warm = fl.FlowConfig(dt=1e-4, end_time=1.0)
    state = fl.FlowState.initial(
        geo.PolyCurve([geo.Component(
            fl._resample_uniform(base.components[0].vertices, passes=4), 1)]))
    for _ in range(20):
        state = fl.step(state, cfg_warm, 1e-4)
    residuals = []
    for dt in (2e-3, 1e-3, 5e-4):
        cfg = fl.FlowConfig(dt=dt, end_time=10.0)
        after = fl.step(state, cfg, dt)
        residuals.append(fl.dissipation_identity_residual(state, after)[0])
    for coarse, fine in zip(residuals[:-1], residuals[1:]):
        assert 0.35 * coarse <= fine <= 0.65 * coarse


def test_half_weighted_residual_reported(ellipse_run):
    states = ellipse_run.states
    a, b = states[-2], states[-1]
    if b.normal_velocity is None:
        pytest.skip("no velocity on sample")
    full, half = fl.dissipation_identity_residual(a, b)
    assert np.isfinite(full) and np.isfinite(half)


def test_equivariance_under_rigid_motion():
    base = geo.PolyCurve([geo.make_wavy_circle(1.0, 0.05, 3, 128)])
    angle, shift = 0.7, np.array([1.3, -0.4])
    moved = base.rotated(angle).translated(shift)
    cfg = fl.FlowConfig(dt=1e-4, end_time=1.0)
    s_base = fl.step(fl.FlowState.initial(base), cfg)
    s_moved = fl.step(fl.FlowState.initial(moved), cfg)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    expected = s_base.curve.components[0].vertices @ rot.T + shift
    err = np.max(np.linalg.norm(s_moved.curve.components[0].vertices - expected,
                                axis=1))
    assert err <= 1e-10


def test_step_rejected_then_retried_at_smaller_dt():
    # a punishing per-step area budget forces halvings before acceptance
    curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 128)])
    cfg = fl.FlowConfig(dt=2e-3, end_time=2e-3, area_drift_abort=3e-5)
    run = fl.run_flow(curve, cfg, sample_stride=1000)
    assert run.rejected > 0
    assert run.final.time == pytest.approx(2e-3)


def test_topology_change_reported(monkeypatch):
    # a persisting intersection at the dt floor must surface as a topology
    # change, never as a silent repair
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 64)])
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.05)

    def always_intersecting(state, config, dt=None):
        raise StepRejected("self-intersection: injected")

    monkeypatch.setattr(fl, "step", always_intersecting)
    with pytest.raises(TopologyChange):
        fl.run_flow(curve, cfg, sample_stride=10)


def test_trajectory_interpolation_self_convergence():
    curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 128)])
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.02, max_dt_growth=1.0)
    coarse = fl.run_flow(curve, cfg, sample_stride=40).trajectory
    fine = fl.run_flow(curve, cfg, sample_stride=20).trajectory
    # midpoints of coarse strides after the initial transient: the linear
    # interpolation error scales with stride^2 times the state acceleration
    mids = 0.5 * (coarse.times[1:] + coarse.times[:-1])
    errs = []
    for tq in mids[mids > 0.5 * coarse.times[-1]]:
        ci = coarse.curve_at(tq).components[0].vertices
        fi = fine.curve_at(tq).components[0].vertices
        errs.append(np.max(np.linalg.norm(ci - fi, axis=1)))
    stride_dt = np.max(np.diff(coarse.times))
    assert max(errs) <= 100.0 * stride_dt**2


def test_make_reference_circle_constant():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 128)])
    cfg = fl.FlowConfig(dt=1e-3, end_time=0.02)
    traj = fl.make_reference(cfg, curve, sample_stride=5)
    for c in traj.curves:
        radii = np.linalg.norm(c.components[0].vertices, axis=1)
        assert np.max(np.abs(radii - radii[0])) <= 1e-8
    assert np.all(np.diff(traj.times) > 0)


def test_make_reference_ellipse_length_decreases():
    curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 128)])
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.01)
    traj = fl.make_reference(cfg, curve, sample_stride=5)
    lengths = [c.length() for c in traj.curves]
    assert all(b < a for a, b in zip(lengths[:-1], lengths[1:]))
    # velocity fields ride along
    assert len(traj.v_at(traj.times[-1])) == 1


def test_trajectory_export_roundtrip(tmp_path):
    curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 64)])
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.005)
    traj = fl.make_reference(cfg, curve, sample_stride=10)
    fl.export_trajectory(traj, tmp_path / "traj")
    back = fl.load_trajectory(tmp_path / "traj")
    np.testing.assert_array_equal(back.times, traj.times)
    for a, b in zip(traj.curves, back.curves):
        np.testing.assert_array_equal(a.components[0].vertices,
                                      b.components[0].vertices)


def test_flow_config_validation():
    with pytest.raises(ValueError):
        fl.FlowConfig(dt=-1.0, end_time=1.0)
    with pytest.raises(ValueError):
        fl.FlowConfig(dt=1e-3, end_time=1.0, max_dt_growth=1.5)
    with pytest.raises(ValueError):
        fl.FlowConfig(dt=1e-3, end_time=1.0, remesh_ratio_bounds=(1.2, 2.0))


# ---------------------------------------------------------------------------
# fast paths against dense or unfused references
# ---------------------------------------------------------------------------

def _dense_flow_operator(cache, dt):
    """I + dt L (L - diag kappa^2) and L kappa from a dense arc Laplacian."""
    n, h, w = cache.n, cache.edge_lengths, cache.weights
    lap = np.zeros((n, n))
    for i in range(n):
        lap[i, (i + 1) % n] += 1.0 / (h[i] * w[i])
        lap[i, (i - 1) % n] += 1.0 / (h[i - 1] * w[i])
        lap[i, i] -= (1.0 / h[i] + 1.0 / h[i - 1]) / w[i]
    kappa = -np.sum(cache.nu * (lap @ cache.vertices), axis=1)
    op = np.eye(n) + dt * lap @ (lap - np.diag(kappa**2))
    return op, lap @ kappa


@settings(max_examples=36, deadline=None, database=None)
@given(st.sampled_from([8, 24, 128, 512]), st.sampled_from([1e-6, 1e-4, 1e-3, 2e-2]),
       st.integers(0, 2**32 - 1))
def test_banded_flow_operator_matches_dense_solve(n, dt, seed):
    # a jittered mesh: edge ratios stay as bounded as the flow keeps them
    rng = np.random.default_rng(seed)
    t = 2 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    r = 1.0 + 0.2 * np.cos(3 * t + rng.uniform(0, 2 * np.pi))
    curve = geo.PolyCurve([geo.Component(np.column_stack([2 * r * np.cos(t),
                                                           r * np.sin(t)]), 1)])
    cache = geo.build_geometry(curve)[0]
    op, rhs = _dense_flow_operator(cache, dt)
    dense = np.linalg.solve(op, rhs)
    banded = fl._normal_velocity(cache, dt)
    # L kappa is a fourth difference and cond(op) reaches ~3e6 at n = 512,
    # dt = 1e-3, and grows in proportion to dt beyond (~3e7 at dt = 2e-2, the
    # largest step the 512-ellipse flow takes): the two solves differ by up
    # to ~1e-10 of max |w| at dt = 1e-3 and ~1.3e-9 at dt = 2e-2
    tol = 1e-9 * max(1.0, dt / 1e-3)
    assert np.max(np.abs(banded - dense)) <= tol * np.max(np.abs(dense))


def test_step_computes_diameter_once(monkeypatch):
    ellipse = geo.make_ellipse(2.0, 1.0, 128).vertices
    state = fl.FlowState.initial(geo.PolyCurve([geo.Component(
        fl._resample_uniform(ellipse, passes=4), 1)]))
    calls = []
    diameter = geo._diameter

    def counting(vertices):
        calls.append(len(vertices))
        return diameter(vertices)

    monkeypatch.setattr(geo, "_diameter", counting)
    fl.step(state, fl.FlowConfig(dt=1e-4, end_time=1.0))
    assert calls == [128]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_velocity_rejects_step(monkeypatch, bad):
    # a non-finite speed must come back as StepRejected, so that run_flow
    # retries at half dt instead of aborting on a bare ValueError
    state = fl.FlowState.initial(geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 64)]))
    monkeypatch.setattr(fl, "_normal_velocity",
                        lambda cache, dt: np.where(np.arange(cache.n) == 3, bad, 0.0))
    with pytest.raises(StepRejected):
        fl.step(state, fl.FlowConfig(dt=1e-4, end_time=1.0))


def test_resample_matches_per_coordinate_splines():
    v = geo.make_wavy_circle(1.0, 0.05, 3, 512).vertices
    closed = np.vstack([v, v[:1]])
    s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(closed, axis=0), axis=1))])
    s_new = s[-1] * np.arange(512) / 512
    expected = np.column_stack([
        CubicSpline(s, closed[:, k], bc_type="periodic")(s_new) for k in (0, 1)])
    np.testing.assert_array_equal(fl._resample_uniform(v), expected)

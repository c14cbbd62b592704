import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import flow_oracle
from geometry_oracle import parts, translated, turning_curvature
from surfdiff import flow as fl
from surfdiff import geometry as geo
from surfdiff.errors import (AreaDriftExceeded, DtFloorReached, SingularSystem, StepRejected,
                             TopologyChange)

from conftest import jittered_loop


def _resampled(components):
    """A curve of these components, each at its uniform arc-length fixed point."""
    return geo.PolyCurve([fl._resample_uniform(c, [len(c)], passes=4) for c in components])


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
    radii = np.linalg.norm(state.curve.vertices, axis=1)
    radii0 = np.linalg.norm(curve.vertices, axis=1)
    assert np.max(np.abs(radii - radii0)) <= 1e-6


def test_circle_fixed_point_any_radius_and_resolution():
    for radius, n in ((0.3, 32), (2.5, 64)):
        curve = geo.PolyCurve([geo.make_circle((0.7, -0.2), radius, n)])
        cfg = fl.FlowConfig(dt=1e-3, end_time=1.0)
        state = fl.FlowState.initial(curve)
        for _ in range(50):
            state = fl.step(state, cfg)
        drift = np.max(np.linalg.norm(
            state.curve.vertices - curve.vertices, axis=1))
        assert drift <= 1e-8 * radius * state.time / max(state.time, 1e-30)


def test_two_disjoint_circles_stationary():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 64),
                           geo.make_circle((4, 0), 0.5, 48)])
    cfg = fl.FlowConfig(dt=1e-3, end_time=1.0)
    state = fl.FlowState.initial(curve)
    for _ in range(20):
        state = fl.step(state, cfg)
    assert np.max(np.linalg.norm(state.curve.vertices - curve.vertices, axis=1)) <= 1e-8


def test_ellipse_isoperimetric_monotone(ellipse_run):
    lengths = np.array(ellipse_run.length_series)
    areas = np.array(ellipse_run.area_series)
    iso = lengths**2 / (4 * np.pi * np.abs(areas))
    assert np.all(np.diff(lengths) <= 1e-13 * lengths[0])
    assert iso[-1] < iso[0]


def test_ellipse_area_conserved(ellipse_run):
    areas = np.array(ellipse_run.area_series)
    assert np.max(np.abs(areas - areas[0])) / areas[0] <= 1e-4
    assert flow_oracle.volume_drift(ellipse_run.trajectory) <= 1e-4


def test_wavy_circle_volume_drift():
    curve = geo.PolyCurve([geo.make_wavy_circle(1.0, 0.05, 3, 256,
                                                normalize_area=True)])
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.02, area_drift_abort=1e-4)
    run = fl.run_flow(curve, cfg, sample_stride=20)
    assert flow_oracle.volume_drift(run.trajectory) <= 1e-4


def test_volume_drift_within_bound_across_dt():
    # the time-discretization drift is removed exactly by the area-neutral
    # shift; what remains is the dt-independent redistribution residue, well
    # inside the configured bound at every step size
    curve = geo.PolyCurve([geo.make_wavy_circle(1.0, 0.05, 3, 128,
                                                normalize_area=True)])
    for dt, steps in ((4e-4, 25), (1e-4, 100)):
        _, areas = flow_oracle.fixed_dt_run(curve, dt, steps, area_drift_abort=1e-4)
        areas = np.array(areas)
        assert np.max(np.abs(areas - areas[0])) / areas[0] <= 1e-4


def test_move_stage_exactly_area_neutral():
    geom = fl.FlowState.initial(_resampled([geo.make_ellipse(2.0, 1.0, 256)])).geometry
    for dt in (1e-3, 1e-4, 1e-5):
        w = fl._normal_velocity(geom.vertices, geom.nu, geom.edge_lengths, geom.weights,
                                [256], dt)
        w = fl._area_neutral_shift(geom.vertices, geom.nu, w, [256], dt)
        moved = geom.vertices + dt * w[:, None] * geom.nu
        drift = abs(0.5 * np.sum(moved[:, 0] * np.roll(moved[:, 1], -1)
                                 - np.roll(moved[:, 0], -1) * moved[:, 1]) - geom.area[0])
        assert drift <= 1e-12 * abs(geom.area[0])


def _shoelace(v):
    """Signed area about the first vertex, so that its rounding scales with the loop."""
    v = v - v[0]
    return 0.5 * np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])


@settings(max_examples=40, deadline=None, database=None)
@given(st.floats(0.0, 0.2), st.integers(2, 7), st.integers(32, 256), st.integers(8, 48),
       st.lists(st.tuples(st.floats(0.01, 0.3), st.integers(8, 48)), max_size=3),
       st.floats(-6.0, -2.0))
def test_closed_form_shift_matches_newton_oracle(amp, mode, n, hole, bubbles, log_dt):
    # a wavy loop, one clockwise hole inside it and bubbles to its right
    comps = ([geo.make_wavy_circle(1.0, amp, mode, n), geo.make_circle((0.1, 0.05), 0.2, hole, -1)]
             + [geo.make_circle((3.0 + k, 1.0), r, m) for k, (r, m) in enumerate(bubbles)])
    geom = fl.FlowState.initial(geo.PolyCurve(comps)).geometry
    x, nu, lengths = geom.vertices, geom.nu, geom.layout.counts
    dt = 10.0 ** log_dt
    w = fl._normal_velocity(x, nu, geom.edge_lengths, geom.weights, lengths, dt)
    shifted = fl._area_neutral_shift(x, nu, w, lengths, dt)
    for k, part in enumerate(parts(geom)):
        # the oracle runs Newton to its fixed point; lam is a weighted mean
        # of w, so its rounding scales with |w|
        want = flow_oracle.area_neutral_shift(x[part], nu[part], w[part], dt)
        got = shifted[part]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(w[part]))
        moved = x[part] + dt * got[:, None] * nu[part]
        assert abs(_shoelace(moved) - _shoelace(x[part])) <= 1e-12 * abs(geom.area[k])


def test_closed_form_shift_without_real_root_takes_vertex():
    # the rotation field nu = J x with w = 1 + cos 2t: the area change
    # c0 + c1 lam + c2 lam^2, fitted from three exact shoelace areas, has no
    # real root, and the shift is its vertex -c1 / (2 c2)
    x = geo.make_circle((0.0, 0.0), 1.0, 16)
    nu = np.column_stack([-x[:, 1], x[:, 0]])
    w = 1.0 + np.cos(2.0 * np.arctan2(x[:, 1], x[:, 0]))
    dt = 0.1
    change = [_shoelace(x + dt * (w - lam)[:, None] * nu) - _shoelace(x) for lam in (-1, 0, 1)]
    c0, c1, c2 = change[1], 0.5 * (change[2] - change[0]), 0.5 * (change[2] + change[0]) - change[1]
    assert c1 * c1 - 4.0 * c0 * c2 < -1e-3
    lam = w - fl._area_neutral_shift(x, nu, w, [16], dt)
    np.testing.assert_allclose(lam, -c1 / (2.0 * c2), rtol=1e-12)


def test_closed_form_shift_zero_when_area_does_not_depend_on_lam():
    # a constant nu translates the shifted loop, which leaves its area alone:
    # c1 = c2 = 0 exactly on this integer octagon, c0 does not vanish, and
    # the shift is 0
    x = np.array([[2, 0], [3, 1], [3, 2], [2, 3], [1, 3], [0, 2], [0, 1], [1, 0]], dtype=float)
    nu = np.tile([1.0, 0.0], (8, 1))
    w = np.array([1.0, 2.0, 0.0, -1.0, 3.0, 1.0, 0.0, 2.0])
    assert _shoelace(x + 0.5 * w[:, None] * nu) != _shoelace(x)
    np.testing.assert_array_equal(fl._area_neutral_shift(x, nu, w, [8], 0.5), w)


def test_run_flow_builds_one_cycle_layout():
    # every step of a run reads the same cached index arrays; a step that
    # rebuilt them for a new tuple would add misses
    curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 67), geo.make_circle((4.0, 0.0), 0.5, 29),
                           geo.make_circle((0.0, 3.0), 0.3, 23)])
    before = geo.cycle_layout.cache_info().misses
    run = fl.run_flow(curve, fl.FlowConfig(dt=1e-4, end_time=2e-3), sample_stride=5)
    assert run.accepted >= 10
    assert geo.cycle_layout.cache_info().misses - before <= 1


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
    cfg_warm = fl.FlowConfig(dt=1e-4, end_time=1.0)
    state = fl.FlowState.initial(_resampled([geo.make_ellipse(2.0, 1.0, 512)]))
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
    full, half = fl.dissipation_identity_residual(a, b)
    assert np.isfinite(full) and np.isfinite(half)


def test_equivariance_under_rigid_motion():
    base = geo.PolyCurve([geo.make_wavy_circle(1.0, 0.05, 3, 128)])
    angle, shift = 0.7, np.array([1.3, -0.4])
    moved = translated(base.rotated(angle), shift)
    cfg = fl.FlowConfig(dt=1e-4, end_time=1.0)
    s_base = fl.step(fl.FlowState.initial(base), cfg)
    s_moved = fl.step(fl.FlowState.initial(moved), cfg)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    expected = s_base.curve.vertices @ rot.T + shift
    err = np.max(np.linalg.norm(s_moved.curve.vertices - expected, axis=1))
    assert err <= 1e-10


def test_step_rejected_then_retried_at_smaller_dt():
    # a punishing per-step area budget forces halvings before acceptance
    curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 128)])
    cfg = fl.FlowConfig(dt=2e-3, end_time=2e-3, area_drift_abort=3e-5)
    run = fl.run_flow(curve, cfg, sample_stride=1000)
    assert run.rejected > 0
    assert run.states[-1].time == pytest.approx(2e-3)


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


def test_other_rejection_at_dt_floor_is_typed():
    # a per-step drift budget of 1e-13 of the area rejects every step down to
    # the dt floor; the reason and the time come with a typed error
    curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 256)])
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.002, area_drift_abort=1e-13)
    with pytest.raises(DtFloorReached,
                       match=r"dt floor \(t=0\): per-step area drift over budget") as err:
        fl.run_flow(curve, cfg)
    assert isinstance(err.value.__cause__, StepRejected)


def test_trajectory_interpolation_self_convergence():
    curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 128)])
    coarse, _ = flow_oracle.fixed_dt_run(curve, 1e-4, 200, sample_stride=40)
    fine, _ = flow_oracle.fixed_dt_run(curve, 1e-4, 200, sample_stride=20)
    # midpoints of coarse strides after the initial transient: the linear
    # interpolation error scales with stride^2 times the state acceleration
    mids = 0.5 * (coarse.times[1:] + coarse.times[:-1])
    errs = []
    for tq in mids[mids > 0.5 * coarse.times[-1]]:
        ci = coarse.curve_at(tq).vertices
        fi = fine.curve_at(tq).vertices
        errs.append(np.max(np.linalg.norm(ci - fi, axis=1)))
    stride_dt = np.max(np.diff(coarse.times))
    assert max(errs) <= 100.0 * stride_dt**2


def test_make_reference_circle_constant():
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 128)])
    cfg = fl.FlowConfig(dt=1e-3, end_time=0.02)
    traj = fl.make_reference(cfg, curve, sample_stride=5)
    for c in traj.curves:
        radii = np.linalg.norm(c.vertices, axis=1)
        assert np.max(np.abs(radii - radii[0])) <= 1e-8
    assert np.all(np.diff(traj.times) > 0)


def test_make_reference_ellipse_length_decreases():
    curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 128)])
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.01)
    traj = fl.make_reference(cfg, curve, sample_stride=5)
    lengths = [sum(geo.build_geometry(c).length) for c in traj.curves]
    assert all(b < a for a, b in zip(lengths[:-1], lengths[1:]))


def test_trajectory_export_roundtrip(tmp_path):
    curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 64)])
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.005)
    traj = fl.make_reference(cfg, curve, sample_stride=10)
    fl.export_trajectory(traj, tmp_path / "traj")
    back = fl.load_trajectory(tmp_path / "traj")
    np.testing.assert_array_equal(back.times, traj.times)
    for a, b in zip(traj.curves, back.curves):
        np.testing.assert_array_equal(a.vertices, b.vertices)


def test_load_trajectory_rejects_an_empty_index(tmp_path):
    (tmp_path / "index.csv").write_text("t,filename\n")
    with pytest.raises(ValueError, match="no samples"):
        fl.load_trajectory(tmp_path)


def test_flow_config_validation():
    with pytest.raises(ValueError):
        fl.FlowConfig(dt=-1.0, end_time=1.0)


# ---------------------------------------------------------------------------
# fast paths against dense or unfused references
# ---------------------------------------------------------------------------

@settings(max_examples=36, deadline=None, database=None)
@given(st.sampled_from([8, 24, 128, 512]), st.lists(st.sampled_from([8, 24, 128]), max_size=3),
       st.sampled_from([1e-6, 1e-4, 1e-3, 2e-2]), st.integers(0, 2**32 - 1))
def test_banded_flow_operator_matches_dense_solve(n, bubbles, dt, seed):
    # jittered meshes: edge ratios stay as bounded as the flow keeps them;
    # the bubbles, far apart, make the solve a stack of several cycles
    rng = np.random.default_rng(seed)
    curve = geo.PolyCurve([jittered_loop(rng, n, (0.0, 0.0), 1.0)]
                          + [jittered_loop(rng, m, (6.0 + 3.0 * k, 0.0), 0.2)
                             for k, m in enumerate(bubbles)])
    geom = geo.build_geometry(curve)
    # L kappa is a fourth difference and cond(op) reaches ~3e6 at n = 512,
    # dt = 1e-3, and grows in proportion to dt beyond (~3e7 at dt = 2e-2,
    # the largest step the 512-ellipse flow takes): the two solves differ
    # by up to ~1e-10 of max |w| at dt = 1e-3 and ~1.3e-9 at dt = 2e-2
    assert flow_oracle.flow_solve_gap(geom, dt) <= 1e-9 * max(1.0, dt / 1e-3)


def test_step_computes_no_diameter(monkeypatch):
    # validating a new state needs no diameter; the first read of the
    # component diameters takes one maximum per component, and the first
    # read of the curve's diameter, with several components, one more over
    # all vertices
    calls = []
    max_distance = geo._max_distance

    def counting(points):
        calls.append(len(points))
        return max_distance(points)

    for bubbles in (0, 4):
        state = fl.FlowState.initial(_resampled(
            [geo.make_ellipse(2.0, 1.0, 128)]
            + [geo.make_circle((3.0 + k, 2.0), 0.1, 24) for k in range(bubbles)]))
        monkeypatch.setattr(geo, "_max_distance", counting)
        new = fl.step(state, fl.FlowConfig(dt=1e-4, end_time=1.0))
        assert calls == []
        for _ in range(2):
            new.curve.diameters
            assert calls == list(new.curve.counts)
        union = [len(new.curve.vertices)] if bubbles else []
        for _ in range(2):
            new.curve.diameter
            assert calls == list(new.curve.counts) + union
        monkeypatch.undo()
        calls.clear()


def test_step_builds_no_curvature():
    # no step reads kappa or arc_positions, so the new state's geometry has
    # built neither; read afterwards, both are bit for bit their eager
    # expressions
    for bubbles in (0, 4):
        state = fl.FlowState.initial(_resampled(
            [geo.make_ellipse(2.0, 1.0, 128)]
            + [geo.make_circle((3.0 + k, 2.0), 0.1, 24) for k in range(bubbles)]))
        geom = fl.step(state, fl.FlowConfig(dt=1e-4, end_time=1.0)).geometry
        assert "kappa" not in vars(geom) and "arc_positions" not in vars(geom)
        assert geom.kappa.tobytes() == turning_curvature(geom).tobytes()
        assert (geom.arc_positions.tobytes()
                == geo.cycle_arc(geom.edge_lengths, geom.layout)[0].tobytes())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_velocity_rejects_step(monkeypatch, bad):
    # a non-finite speed out of the stacked solve must come back as
    # StepRejected, so that run_flow retries at half dt instead of aborting
    # on a bare ValueError
    state = fl.FlowState.initial(geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 64),
                                                geo.make_circle((4.0, 0.0), 0.5, 32)]))
    monkeypatch.setattr(fl, "_normal_velocity",
                        lambda *args: np.where(np.arange(96) == 70, bad, 0.0))
    with pytest.raises(StepRejected):
        fl.step(state, fl.FlowConfig(dt=1e-4, end_time=1.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_singular_band_system_rejects_step():
    # a zero edge length makes the flow operator non-finite: the band solve
    # raises SingularSystem, and step reports it as StepRejected
    state = fl.FlowState.initial(geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 64)]))
    h = state.geometry.edge_lengths.copy()
    h[5] = 0.0
    state.geometry = dataclasses.replace(state.geometry, edge_lengths=h)
    with pytest.raises(StepRejected, match="singular system: non-finite") as err:
        fl.step(state, fl.FlowConfig(dt=1e-4, end_time=1.0))
    assert isinstance(err.value.__cause__, SingularSystem)


def test_degenerate_edge_rejects_step(monkeypatch):
    # a new state failing the edge floor raises DegenerateEdge, a CurveError
    # and not a ValueError; it must still come back as StepRejected
    state = fl.FlowState.initial(geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 64)]))
    resample = fl._resample_uniform

    def repeating(x, lengths, passes=1):
        x = resample(x, lengths, passes)
        x[10] = x[9]
        return x

    monkeypatch.setattr(fl, "_resample_uniform", repeating)
    with pytest.raises(StepRejected, match="invalid geometry"):
        fl.step(state, fl.FlowConfig(dt=1e-4, end_time=1.0))


def test_rejection_reasons_counted():
    # a step far too large for a deep mode-7 wave is rejected for several
    # reasons on the way down and back up; each rejection is counted under
    # its reason up to the first ':'
    curve = geo.PolyCurve([geo.make_wavy_circle(1.0, 0.4, 7, 256)])
    run = fl.run_flow(curve, fl.FlowConfig(dt=1e-2, end_time=1e-2), sample_stride=1000)
    reasons = {"self-intersection", "invalid geometry",
               "resampling left edge ratios out of bounds", "length increased",
               "per-step area drift over budget",
               "cumulative area drift exceeded configured bound"}
    assert run.rejected > 0
    assert sum(run.rejections.values()) == run.rejected
    assert len(run.rejections) >= 2 and set(run.rejections) <= reasons


def test_area_drift_at_dt_floor_raises_specific_error(monkeypatch):
    # each spline resampling moves the area by an amount that does not shrink
    # with dt, so once the cumulative drift nears its bound every retry fails
    # and dt halves down to the floor
    real_step = fl.step
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(fl, "step", counted)
    curve = geo.PolyCurve([geo.make_wavy_circle(1.0, 0.3, 6, 64)])
    message = r"drift 1\.0\d+e-03 exceeds the bound 1\.000000e-03 at the dt floor \(t="
    with pytest.raises(AreaDriftExceeded, match=message) as err:
        fl.run_flow(curve, fl.FlowConfig(dt=1.0, end_time=5.0))
    assert isinstance(err.value.__cause__, StepRejected)
    assert len(calls) == 63


def test_resample_matches_per_coordinate_splines():
    # scipy's periodic CubicSpline per coordinate, in chord length, is the
    # oracle of the in-house spline resampling
    v = geo.make_wavy_circle(1.0, 0.05, 3, 512)
    closed = np.vstack([v, v[:1]])
    s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(closed, axis=0), axis=1))])
    s_new = s[-1] * np.arange(512) / 512
    expected = np.column_stack([
        CubicSpline(s, closed[:, k], bc_type="periodic")(s_new) for k in (0, 1)])
    got = fl._resample_uniform(v, [512])
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("dt", [1e-5, 1e-4, 1e-3, 1e-2])
def test_stacked_step_matches_per_component_step(dt):
    # a wavy loop and four bubbles of different sizes, stepped at once
    # against one component after another
    state = fl.FlowState.initial(_resampled(
        [geo.make_wavy_circle(1.0, 0.05, 3, 256)]
        + [geo.make_circle((2.0 + 0.5 * k, 1.5), 0.01 * (k + 1), 24 + 8 * k)
           for k in range(4)]))
    new = fl.step(state, fl.FlowConfig(dt=dt, end_time=1.0), dt)
    velocities, vertices = flow_oracle.step(state, dt)
    w_max = max(np.max(np.abs(w)) for w in velocities)
    x_max = max(np.max(np.abs(x)) for x in vertices)
    for got, w in zip(np.split(new.normal_velocity, new.curve.layout.split), velocities):
        assert np.max(np.abs(got - w)) <= 1e-12 * w_max
    for comp, x in zip(np.split(new.curve.vertices, new.curve.layout.split), vertices):
        assert np.max(np.abs(comp - x)) <= 1e-12 * x_max


def test_curve_at_rejects_a_blend_across_layouts(tmp_path):
    # index by index, a 16 + 12 curve and a 12 + 16 one blend into a wrong
    # 16 + 12 curve
    def pair(n, m, orientation=-1):
        return geo.PolyCurve([geo.make_circle((0.0, 0.0), 2.0, n),
                              geo.make_circle((0.0, 0.0), 1.0, m, orientation=orientation)])

    for later in (pair(12, 16), geo.PolyCurve([geo.make_circle((0.0, 0.0), 2.0, 16),
                                               geo.make_circle((5.0, 0.0), 1.0, 12)])):
        traj = fl.Trajectory(times=[0.0, 0.25, 1.0], curves=[pair(16, 12)] * 2 + [later])
        with pytest.raises(ValueError, match=r"t = 0\.25 and t = 1\.0"):
            traj.curve_at(0.5)
        # a trajectory whose topology changes still loads, and its samples read
        fl.export_trajectory(traj, tmp_path / "traj")
        back = fl.load_trajectory(tmp_path / "traj")
        assert back.curve_at(1.0).counts == later.counts
        assert back.curve_at(0.1).counts == (16, 12)


def test_step_makes_one_curve_and_one_geometry(monkeypatch):
    curve = _resampled([geo.make_ellipse(2.0, 1.0, 64), geo.make_circle((4.0, 0.0), 0.5, 24)])
    state = fl.FlowState.initial(curve)
    calls = {"PolyCurve": 0, "build_geometry": 0}
    init, build = geo.PolyCurve.__init__, fl.build_geometry

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(geo.PolyCurve, "__init__", counted("PolyCurve", init))
    monkeypatch.setattr(fl, "build_geometry", counted("build_geometry", build))
    new = fl.step(state, fl.FlowConfig(dt=1e-5, end_time=1.0))
    assert calls == {"PolyCurve": 1, "build_geometry": 1}
    assert new.geometry.vertices is new.curve.vertices

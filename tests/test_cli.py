import dataclasses
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import surfdiff
from surfdiff import calibration as cb
from surfdiff import cli
from surfdiff import energy as en
from surfdiff import flow as fl
from surfdiff import geometry as geo
from surfdiff.errors import NonStationaryReference

from conftest import gmres_steps


def test_every_exported_name_resolves():
    assert len(set(surfdiff.__all__)) == len(surfdiff.__all__)
    for name in surfdiff.__all__:
        assert getattr(surfdiff, name) is not None


STATIONARY_INI = """\
[scenario]
name = mini-stationary
seed = 7
delta = 0.25
end_time = 0.01
sample_count = 10

[reference]
kind = circles
circles = 0 0 1 1

[weak]
shape = circle 1
resolution = 128
perturb_amplitude = 0.04
perturb_mode = 3
dt = 1e-4
"""

BUBBLE_INI = """\
[scenario]
name = mini-bubbles
seed = 11
delta = 0.25
end_time = 0.004
sample_count = 10

[reference]
kind = circles
circles = 0 0 1 1

[weak]
shape = circle 1
resolution = 96
perturb_amplitude = 0.02
perturb_mode = 2
bubbles = auto 3 0.01
dt = 1e-4
"""


FLOW_REF_INI = """\
[scenario]
name = mini-flow
seed = 3
end_time = 0.002
sample_count = 10

[reference]
kind = flow
shape = ellipse 2 1
resolution = 256
dt = 5e-5

[weak]
resolution = 64
dt = 1e-4
area_drift_abort = 1e-13
"""


@pytest.fixture()
def stationary_cfg(tmp_path):
    path = tmp_path / "stat.ini"
    path.write_text(STATIONARY_INI)
    return path


def test_load_scenario(stationary_cfg):
    sc = cli.load_scenario(stationary_cfg)
    assert sc.name == "mini-stationary"
    assert sc.seed == 7
    assert sc.delta == 0.25
    assert sc.ref_kind == "circles"
    assert len(sc.ref_circles) == 1
    assert sc.weak_perturb_mode == 3


def test_load_scenario_missing_section(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nname = x\nend_time = 1\n")
    with pytest.raises(ValueError):
        cli.load_scenario(bad)


def test_load_scenario_missing_end_time(tmp_path):
    bad = tmp_path / "no_end.ini"
    bad.write_text(STATIONARY_INI.replace("end_time = 0.01\n", ""))
    with pytest.raises(ValueError, match="end_time"):
        cli.load_scenario(bad)


@pytest.mark.parametrize("section, shape", [("weak", "ellipse 2"), ("weak", "circle"),
                                            ("weak", "wavy 1 0.1"), ("reference", "ellipse 2")])
def test_load_scenario_rejects_a_shape_of_the_wrong_arity(tmp_path, section, shape):
    bad = tmp_path / "arity.ini"
    if section == "weak":
        bad.write_text(STATIONARY_INI.replace("shape = circle 1", f"shape = {shape}"))
    else:
        bad.write_text(FLOW_REF_INI.replace("shape = ellipse 2 1", f"shape = {shape}"))
    kind = shape.split()[0]
    with pytest.raises(ValueError, match=rf"arity\.ini: \[{section}\] 'shape' needs '{kind} "):
        cli.load_scenario(bad)


@pytest.mark.parametrize("count", [0, -3])
def test_load_scenario_rejects_sample_count_below_one(tmp_path, count):
    bad = tmp_path / "count.ini"
    bad.write_text(STATIONARY_INI.replace("sample_count = 10", f"sample_count = {count}"))
    with pytest.raises(ValueError, match=rf"count\.ini: \[scenario\] 'sample_count' must be "
                                         rf"at least 1, got {count}"):
        cli.load_scenario(bad)


@pytest.mark.parametrize("value", ["-0.1", "0", "nan", "inf"])
def test_load_scenario_rejects_a_delta_that_is_not_positive(tmp_path, value):
    # rejected on load, before the reference flow and the delta scan run
    bad = tmp_path / "delta.ini"
    bad.write_text(STATIONARY_INI.replace("delta = 0.25", f"delta = {value}"))
    with pytest.raises(ValueError, match=rf"delta\.ini: \[scenario\] 'delta': must be 'auto' "
                                         rf"or a positive number, got '{value}'"):
        cli.load_scenario(bad)


@pytest.mark.parametrize("section, line", [("scenario", "end_time = 0.002"),
                                           ("reference", "dt = 5e-5"), ("weak", "dt = 1e-4"),
                                           ("weak", "area_drift_abort = 1e-13")])
@pytest.mark.parametrize("value", ["-1e-4", "0", "nan", "inf"])
def test_simulate_rejects_a_time_or_bound_that_is_not_positive(tmp_path, monkeypatch,
                                                                section, line, value):
    # rejected on load, before the reference flow, the delta scan and the
    # weak run
    flows = []
    monkeypatch.setattr(fl, "make_reference", lambda *args, **kw: flows.append(args))
    monkeypatch.setattr(fl, "run_flow", lambda *args, **kw: flows.append(args))
    key = line.split()[0]
    bad = tmp_path / "bound.ini"
    bad.write_text(FLOW_REF_INI.replace(line, f"{key} = {value}"))
    with pytest.raises(ValueError, match=rf"bound\.ini: \[{section}\] '{key}': must be a "
                                         rf"positive number, got '{value}'"):
        cli.main(["simulate", str(bad), "--out", str(tmp_path / "out")])
    assert flows == []


@pytest.mark.parametrize("line", ["1.5 1.5", "auto 4"])
def test_load_scenario_short_bubble_line(tmp_path, line):
    bad = tmp_path / "short_bubble.ini"
    bad.write_text(STATIONARY_INI + f"bubbles = {line}\n")
    with pytest.raises(ValueError, match=line):
        cli.load_scenario(bad)


@pytest.mark.parametrize("base, old, new, message", [
    (STATIONARY_INI, "shape = circle 1", "shape = ellipse a b",
     r"\[weak\] 'shape': 'a' is not a number"),
    (FLOW_REF_INI, "shape = ellipse 2 1", "shape = wavy 1 0.1 3.5",
     r"\[reference\] 'shape': '3\.5' is not an integer"),
    (STATIONARY_INI, "sample_count = 10", "sample_count = ten",
     r"\[scenario\] 'sample_count': 'ten' is not an integer"),
    (STATIONARY_INI, "dt = 1e-4", "dt = fast", r"\[weak\] 'dt': 'fast' is not a number"),
    (STATIONARY_INI, "delta = 0.25", "delta = wide",
     r"\[scenario\] 'delta': 'wide' is not a number"),
    (STATIONARY_INI, "circles = 0 0 1 1", "circles = 0 0 one 1",
     r"\[reference\] 'circles' line '0 0 one 1': 'one' is not a number"),
    (STATIONARY_INI, "dt = 1e-4", "dt = 1e-4\nbubbles = auto four 0.01",
     r"\[weak\] 'bubbles' line 'auto four 0\.01': 'four' is not an integer"),
    (STATIONARY_INI, "dt = 1e-4", "dt = 1e-4\nbubbles = 1.5 1.5 0.1 2x",
     r"\[weak\] 'bubbles' line '1\.5 1\.5 0\.1 2x': '2x' is not an integer"),
])
def test_load_scenario_names_the_key_of_a_value_that_does_not_parse(tmp_path, base, old,
                                                                      new, message):
    bad = tmp_path / "value.ini"
    assert old in base
    bad.write_text(base.replace(old, new))
    with pytest.raises(ValueError, match=r"value\.ini: " + message):
        cli.load_scenario(bad)


def test_load_scenario_readme_example(tmp_path):
    # the INI block of the README, verbatim, inline ';' comments included
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    sc = cli.load_scenario(path)
    assert sc.name == "stationary-circle-perturbed"
    assert (sc.seed, sc.delta, sc.end_time, sc.sample_count) == (42, 0.25, 0.05, 12)
    assert sc.ref_kind == "circles"
    assert sc.ref_circles == [cb.CircleSpec((0.0, 0.0), 1.0, 1)]
    assert sc.weak_shape == ("circle", 1.0)
    assert (sc.weak_resolution, sc.weak_perturb_amplitude, sc.weak_perturb_mode) == (256, 0.05, 3)
    assert sc.weak_bubbles == [("auto", 4, 0.01)]
    assert sc.weak_dt == 1e-4


def test_load_scenario_rejects_unknown_key(tmp_path):
    bad = tmp_path / "typo.ini"
    bad.write_text(STATIONARY_INI + "max_dt_grwoth = 1.0\n")
    with pytest.raises(ValueError, match=r"typo\.ini: \[weak\] unknown key 'max_dt_grwoth'"):
        cli.load_scenario(bad)


def test_load_scenario_rejects_max_dt_growth(tmp_path):
    # the growth factor is the constant flow.MAX_DT_GROWTH, no longer a key
    bad = tmp_path / "growth.ini"
    bad.write_text(STATIONARY_INI + "max_dt_growth = 1.0\n")
    with pytest.raises(ValueError, match=r"growth\.ini: \[weak\] unknown key 'max_dt_growth'"):
        cli.load_scenario(bad)


@pytest.mark.parametrize("kind, key", [("flow", "shape"), ("file", "file"),
                                       ("circles", "circles")])
def test_load_scenario_rejects_reference_kind_without_its_key(tmp_path, kind, key):
    bad = tmp_path / "no_key.ini"
    bad.write_text(STATIONARY_INI.replace("kind = circles\ncircles = 0 0 1 1\n",
                                          f"kind = {kind}\n"))
    with pytest.raises(ValueError,
                       match=rf"no_key\.ini: \[reference\] kind = {kind} needs '{key}'"):
        cli.load_scenario(bad)


def test_load_scenario_rejects_unknown_reference_kind(tmp_path):
    bad = tmp_path / "kind.ini"
    bad.write_text(STATIONARY_INI.replace("kind = circles", "kind = polygon"))
    with pytest.raises(ValueError, match=r"\[reference\] 'kind' must be one of .*'polygon'"):
        cli.load_scenario(bad)


@pytest.mark.parametrize("base, edits, message", [
    (STATIONARY_INI, [("perturb_amplitude = 0.04", "perturb_amplitude = -0.04")],
     r"\[weak\] 'perturb_amplitude' must not be negative, got -0\.04"),
    (STATIONARY_INI, [("shape = circle 1", "shape = ellipse 2 1")],
     r"\[weak\] 'perturb_amplitude' perturbs only a circle, got shape 'ellipse'"),
    (STATIONARY_INI, [("shape = circle 1", "shape = wavy 1 0.1 3")],
     r"\[weak\] 'perturb_amplitude' perturbs only a circle, got shape 'wavy'"),
    (FLOW_REF_INI, [("resolution = 64", "resolution = 64\nperturb_amplitude = 0.1\n"
                                        "perturb_mode = 3")],
     r"\[weak\] 'perturb_amplitude' perturbs only a circle, got shape 'ellipse'"),
    (STATIONARY_INI, [("perturb_mode = 3", "perturb_mode = 0")],
     r"\[weak\] 'perturb_mode' must be at least 1 with a perturbation, got 0"),
    (STATIONARY_INI, [("kind = circles\ncircles = 0 0 1 1", "kind = file\nfile = ref.txt"),
                      ("shape = circle 1\n", "")],
     r"\[weak\] needs 'shape' with a file reference"),
])
def test_load_scenario_rejects_a_weak_datum_it_would_not_build(tmp_path, base, edits, message):
    # each of these used to run: the perturbation silently dropped, or the
    # file reference failing in the weak datum's build after the reference
    for old, new in edits:
        assert old in base
        base = base.replace(old, new)
    bad = tmp_path / "datum.ini"
    bad.write_text(base)
    with pytest.raises(ValueError, match=r"datum\.ini: " + message):
        cli.load_scenario(bad)


def test_simulate_stationary_end_to_end(stationary_cfg, tmp_path):
    out = tmp_path / "out"
    code = cli.main(["simulate", str(stationary_cfg), "--out", str(out)])
    assert code == 0
    run_dir = out / "stat"
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["gronwall"]["verdict"].startswith("PASS")
    assert summary["area_drift"] <= 1e-4
    assert "length_monotone" not in summary    # step rejects every length increase
    assert summary["worst_slacks"]["pointwise_slack"] >= -1e-12
    assert (run_dir / "reports.csv").exists()
    assert (run_dir / "trajectory" / "index.csv").exists()


def test_simulate_deterministic_outputs(stationary_cfg, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli.main(["simulate", str(stationary_cfg), "--out", str(out1)]) == 0
    assert cli.main(["simulate", str(stationary_cfg), "--out", str(out2)]) == 0
    for rel in ("stat/summary.json", "stat/reports.csv",
                "stat/trajectory/index.csv", "stat/trajectory/curve_00000.txt"):
        a = (out1 / rel).read_bytes()
        b = (out2 / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"


def test_simulate_bubbles_disjoint_and_recorded(tmp_path):
    path = tmp_path / "bub.ini"
    path.write_text(BUBBLE_INI)
    out = tmp_path / "out"
    code = cli.main(["simulate", str(path), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "bub" / "summary.json").read_text())
    assert len(summary["bubbles"]) == 3
    for cx, cy, r in summary["bubbles"]:
        # placed outside the tube: the distance to the unit circle exceeds 2 delta
        assert abs(np.hypot(cx, cy) - 1.0) > 2 * 0.25


def test_identical_initial_data_uniqueness(tmp_path):
    ini = STATIONARY_INI.replace("perturb_amplitude = 0.04",
                                 "perturb_amplitude = 0.0")
    ini = ini.replace("name = mini-stationary", "name = identical")
    path = tmp_path / "ident.ini"
    path.write_text(ini)
    out = tmp_path / "out"
    assert cli.main(["simulate", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "ident" / "summary.json").read_text())
    assert summary["gronwall"]["verdict"] == "PASS-TRIVIAL"


def test_simulate_jobs_flag_is_gone(stationary_cfg, tmp_path, capsys):
    # configs run one after another, each into its own directory; argparse
    # rejects the old flag that ran them in a process pool
    second = tmp_path / "stat2.ini"
    second.write_text(STATIONARY_INI.replace("name = mini-stationary",
                                             "name = mini-second"))
    out = tmp_path / "seq"
    assert cli.main(["simulate", str(stationary_cfg), str(second), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == ["PASS scenario mini-stationary",
                                                    "PASS scenario mini-second"]
    assert (out / "stat" / "summary.json").exists()
    assert (out / "stat2" / "summary.json").exists()
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", str(stationary_cfg), "--jobs", "2"])
    assert exc.value.code == 2


def test_verify_command_is_gone():
    # the invariant suite is tests/test_acceptance.py; argparse rejects the old command
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "geometry"])
    assert exc.value.code == 2


def test_flow_reference_ignores_weak_run_settings(tmp_path, monkeypatch):
    # [weak] area_drift_abort sets the weak run only: the reference flow
    # takes its own dt and the horizon
    path = tmp_path / "flow.ini"
    path.write_text(FLOW_REF_INI)
    scenario = cli.load_scenario(path)
    seen = []

    class Reached(Exception):
        pass

    def capture(config, initial, sample_stride=10):
        seen.append(config)
        raise Reached

    monkeypatch.setattr(fl, "make_reference", capture)
    with pytest.raises(Reached):
        cli.run_scenario(scenario, out_dir=str(tmp_path / "out"))
    assert seen == [fl.FlowConfig(dt=5e-5, end_time=0.002)]


@pytest.mark.parametrize("ref, error", [("ellipse", NonStationaryReference), ("circle", None)])
def test_file_reference_is_checked_before_the_weak_flow(tmp_path, monkeypatch, ref, error):
    # a file reference is stationary, and its stationary gradient ratio needs
    # a union of circles: any other curve fails before the weak flow starts
    comp = (geo.make_ellipse(2.0, 1.0, 256) if ref == "ellipse"
            else geo.make_circle((0.0, 0.0), 1.0, 256))
    geo.write_curve_file(geo.PolyCurve([comp]), tmp_path / "ref.txt")
    path = tmp_path / "file.ini"
    path.write_text(STATIONARY_INI.replace("delta = 0.25", "delta = auto").replace(
        "kind = circles\ncircles = 0 0 1 1\n", f"kind = file\nfile = {tmp_path / 'ref.txt'}\n"))

    class Reached(Exception):
        pass

    def weak_flow(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(fl, "run_flow", weak_flow)
    with pytest.raises(error or Reached, match="not constant per component" if error else None):
        cli.run_scenario(cli.load_scenario(path), out_dir=str(tmp_path / "out"))


def test_checkers_with_nothing_to_check_write_null(circle_calibration, tmp_path):
    # a circle 3 from the reference: no vertex within 2 delta, and too wide
    # for the small-component bound; both slacks are inf and read null
    curve = geo.PolyCurve([geo.make_circle((5.0, 0.0), 1.0, 64)])
    states = [fl.FlowState.initial(curve, 1e-3 * k, k) for k in range(10)]
    sample = circle_calibration.sample(states[0].geometry)
    assert np.min(np.abs(sample.s)) > 2.0 * circle_calibration.delta
    assert curve.diameters[0] > 1.0 / (2.0 * circle_calibration.xi_grad_bound())
    assert circle_calibration.pointwise_tilt_check(sample) == np.inf
    assert en.small_component_area_check(sample, circle_calibration.xi_grad_bound()) == np.inf
    cli.write_outputs(cli.evaluate_run(states, circle_calibration, 10), str(tmp_path))
    worst = json.loads((tmp_path / "summary.json").read_text())["worst_slacks"]
    assert worst["pointwise_slack"] is None and worst["bubble_slack"] is None


def test_evaluate_run_evaluates_each_sample_once(monkeypatch):
    # every checker reads one reference query of the sample's vertices, and
    # each residual pair builds its midpoint geometry once
    ref = cb.AnalyticCircles([cb.CircleSpec((0.0, 0.0), 1.0)])
    calib = cb.Calibration(ref, 0.25)
    curve = geo.PolyCurve([geo.make_wavy_circle(1.0, 0.04, 3, 64, normalize_area=True)])
    run = fl.run_flow(curve, fl.FlowConfig(dt=1e-4, end_time=0.002), sample_stride=1,
                      max_samples=40)
    vertex_sets = [state.curve.vertices for state in run.states]
    vertex_queries = []
    query = ref.query

    def counting_query(points, t=0.0):
        if any(np.array_equal(points, v) for v in vertex_sets):
            vertex_queries.append(t)
        return query(points, t)

    builds = []
    build = fl.build_geometry

    def counting_build(c):
        builds.append(c)
        return build(c)

    monkeypatch.setattr(ref, "query", counting_query)
    monkeypatch.setattr(fl, "build_geometry", counting_build)
    cli.evaluate_run(run.states, calib, 10)
    cli._flow_diagnostics(run)
    assert len(run.states) > 10
    assert len(vertex_queries) == len(set(vertex_queries)) == 10
    assert len(builds) == len(run.states) - 1 > 0


def test_evaluate_run_evaluates_samples_in_order_on_the_calling_thread(monkeypatch):
    traj = fl.make_reference(fl.FlowConfig(dt=1e-4, end_time=0.002),
                             geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 128)]),
                             sample_stride=5)
    calib = cb.Calibration(cb.PolygonReference(trajectory=traj))
    weak = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 32),
                          geo.make_circle((3.0, 0.0), 0.01, 12),
                          geo.make_circle((0.0, 2.0), 0.01, 12)])
    run = fl.run_flow(weak, fl.FlowConfig(dt=1e-4, end_time=0.002), sample_stride=1,
                      max_samples=40)
    evaluate_sample = cli._evaluate_sample
    calls = []

    def recorded(state, calib_):
        calls.append((threading.get_ident(), state.time))
        return evaluate_sample(state, calib_)

    monkeypatch.setattr(cli, "_evaluate_sample", recorded)
    summary = cli.evaluate_run(run.states, calib, 6)
    assert {ident for ident, _ in calls} == {threading.get_ident()}
    times = [t for _, t in calls]
    assert len(times) == 6 and times == sorted(times)
    assert [r.t for r in summary["_reports"]] == times
    assert summary["flux_constants_final"] is not None


@pytest.fixture(scope="module")
def short_flow_pair():
    """A 128-vertex ellipse flow trajectory and a 32-vertex weak run beside it,
    both to t = 0.002."""
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.002)
    traj = fl.make_reference(cfg, geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 128)]),
                             sample_stride=5)
    run = fl.run_flow(geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 32)]), cfg, sample_stride=1,
                      max_samples=40)
    return traj, run


def test_evaluate_run_builds_each_reference_time_once(short_flow_pair, monkeypatch):
    # a sample's reference state is interpolated once, and its closest-point
    # index serves both the tube query and B
    traj, run = short_flow_pair
    curve_at_times = []
    curve_at = fl.Trajectory.curve_at

    def counting_curve_at(self, t):
        curve_at_times.append(float(t))
        return curve_at(self, t)

    indexed = []
    init = geo.CurveIndex.__init__

    def counting_init(self, geometry):
        indexed.append(geometry)
        init(self, geometry)

    monkeypatch.setattr(fl.Trajectory, "curve_at", counting_curve_at)
    monkeypatch.setattr(geo.CurveIndex, "__init__", counting_init)
    calib = cb.Calibration(cb.PolygonReference(trajectory=traj))
    summary = cli.evaluate_run(run.states, calib, 6)
    sample_times = {report.t for report in summary["_reports"]}
    assert len(sample_times) == 6
    assert len(curve_at_times) == len(set(curve_at_times))
    assert sample_times <= set(curve_at_times)
    assert len(indexed) == len({id(g) for g in indexed}) == 6
    assert {id(g) for g in indexed} == {id(calib.reference.geometry_at(t))
                                        for t in sample_times}


def test_b_field_is_built_once_per_time(short_flow_pair, monkeypatch):
    # the calibration owns B: repeat calls and a second run evaluated with the
    # same calibration share each time's field
    traj, run = short_flow_pair
    built = []
    build_B = cb.build_B

    def counting_build(*args):
        built.append(build_B(*args))
        return built[-1]

    monkeypatch.setattr(cb, "build_B", counting_build)
    calib = cb.Calibration(cb.PolygonReference(trajectory=traj))
    first = cli.evaluate_run(run.states, calib, 6)
    times = [report.t for report in first["_reports"]]
    fields = [calib.b_field(t) for t in times]
    second = cli.evaluate_run(run.states, calib, 6)
    assert len(built) == 6
    assert all(calib.b_field(t) is b for t, b in zip(times, fields))
    assert {id(b) for b in fields} == {id(b) for b in built}
    assert second["flux_constants_final"] == first["flux_constants_final"]


def test_every_reference_build_converges_within_twenty_gmres_steps(short_flow_pair,
                                                                   monkeypatch):
    traj, run = short_flow_pair
    steps = gmres_steps(monkeypatch)
    cli.evaluate_run(run.states, cb.Calibration(cb.PolygonReference(trajectory=traj)), 6)
    assert len(steps) == 6 and all(1 <= k <= 20 for k in steps)


def test_b_field_is_none_on_analytic_circles():
    calib = cb.Calibration(cb.AnalyticCircles([cb.CircleSpec((0.0, 0.0), 1.0)]), 0.25)
    assert calib.b_field(0.0) is None
    assert calib.b_field(0.5) is None


def test_slack_a_hair_below_zero_passes(short_flow_pair, monkeypatch):
    # the nu . B verdict flag, the pointwise flag and the run's pass rule
    # all read one floor: a slack rounding to -1e-13 passes everywhere
    traj, run = short_flow_pair
    nu_dot_B_sums = en.nu_dot_B_sums

    def hair_below(*args, **kwargs):
        return dataclasses.replace(nu_dot_B_sums(*args, **kwargs), slack_abs=-1e-13)

    monkeypatch.setattr(en, "nu_dot_B_sums", hair_below)
    calib = cb.Calibration(cb.PolygonReference(trajectory=traj))
    summary = cli.evaluate_run(run.states, calib, 10)
    assert summary["worst_slacks"]["nu_dot_B_slack_abs"] == -1e-13
    assert summary["gronwall"]["verdict"].startswith("PASS")
    assert all(report.verdicts["nu_dot_B"] == "PASS" for report in summary["_reports"])
    assert cli.passed(summary)


def test_compare_command(tmp_path):
    strong_curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 256)])
    weak_curve = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 64)])
    cfg_s = fl.FlowConfig(dt=1e-4, end_time=0.01)
    cfg_w = fl.FlowConfig(dt=1e-4, end_time=0.01)
    strong = fl.make_reference(cfg_s, strong_curve, sample_stride=5)
    weak = fl.make_reference(cfg_w, weak_curve, sample_stride=5)
    fl.export_trajectory(strong, tmp_path / "strong")
    fl.export_trajectory(weak, tmp_path / "weak")
    code = cli.main(["compare", str(tmp_path / "weak"), str(tmp_path / "strong"),
                     "--out", str(tmp_path / "cmp")])
    assert code == 0
    summary = json.loads((tmp_path / "cmp" / "summary.json").read_text())
    assert summary["gronwall"]["verdict"].startswith("PASS")


@pytest.mark.parametrize("value, message", [
    ("abc", "'abc' is not a number"),
    ("0", "must be 'auto' or a positive number, got '0'"),
    ("-0.5", "must be 'auto' or a positive number, got '-0.5'"),
])
def test_compare_rejects_a_bad_delta_before_reading_a_file(tmp_path, capsys, value, message):
    # the trajectory directories do not exist: a value that parsed would
    # fail reading them instead
    missing = [str(tmp_path / "weak"), str(tmp_path / "strong")]
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", *missing, f"--delta={value}"])
    assert exc.value.code == 2
    assert f"argument --delta: tube width: {message}" in capsys.readouterr().err
    for good in ("auto", "0.1"):
        with pytest.raises(FileNotFoundError):
            cli.main(["compare", *missing, "--delta", good])


def _export_short_runs(tmp_path, weak_samples=None):
    """A strong and a weak ellipse trajectory over t <= 0.002, exported; the weak
    one cut to its first ``weak_samples`` samples."""
    cfg = fl.FlowConfig(dt=1e-4, end_time=0.002)
    strong = fl.make_reference(cfg, geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 128)]),
                               sample_stride=2)
    weak = fl.make_reference(cfg, geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 32)]),
                             sample_stride=1)
    if weak_samples is not None:
        weak = fl.Trajectory(times=weak.times[:weak_samples], curves=weak.curves[:weak_samples])
    fl.export_trajectory(strong, tmp_path / "strong")
    fl.export_trajectory(weak, tmp_path / "weak")
    return str(tmp_path / "weak"), str(tmp_path / "strong")


def test_compare_short_trajectory_is_skipped(tmp_path, capsys):
    # fewer than 10 samples allow no Gronwall fit: the verdict is written
    # and the command fails, as a short simulate run does
    weak, strong = _export_short_runs(tmp_path, weak_samples=5)
    assert cli.main(["compare", weak, strong, "--out", str(tmp_path / "cmp")]) == 1
    summary = json.loads((tmp_path / "cmp" / "summary.json").read_text())
    assert summary["gronwall"]["verdict"] == "SKIPPED-SHORT"
    assert "FAIL compare" in capsys.readouterr().out


def test_compare_reports_equal_direct_dissipation_reports(tmp_path):
    # each weak sample is evaluated with the PDE velocity d^2 kappa/ds^2 of
    # its recorded curve, the same bits as a direct dissipation report
    weak, strong = _export_short_runs(tmp_path)
    out = tmp_path / "cmp"
    cli.main(["compare", weak, strong, "--out", str(out)])
    rows = (out / "reports.csv").read_text().splitlines()[1:]
    reference = cb.PolygonReference(trajectory=fl.load_trajectory(strong))
    calib = cb.Calibration(reference)
    traj = fl.load_trajectory(weak)
    assert len(rows) == len(traj.times) >= 10
    for row, t, curve in zip(rows, traj.times, traj.curves):
        geom = geo.build_geometry(curve)
        rep = en.dissipation_report(calib.sample(geom, t), calib, calib.b_field(t),
                                    geo.d2ds2(geom, geom.kappa))
        t_, e, f, _, _, _, d_v = map(float, row.split(",")[:7])
        assert (t_, e, f, d_v) == (rep.t, rep.E, rep.F, rep.D_V)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["worst_slacks"]["pointwise_slack"] is not None
    assert (summary["flux_constants_final"]["bc_residual"]
            == calib.b_field(traj.times[-1]).bc_residual)


def test_simulate_first_sample_has_the_velocity_compare_gives_it(stationary_cfg, tmp_path):
    # the t = 0 state of a run had no step behind it; it carries the PDE
    # velocity d^2 kappa/ds^2 that compare gives every recorded curve, so
    # both read the same D_V for the exported first sample
    cli.main(["simulate", str(stationary_cfg), "--out", str(tmp_path / "out")])
    run = tmp_path / "out" / "stat"
    traj = str(run / "trajectory")
    cli.main(["compare", traj, traj, "--out", str(tmp_path / "cmp")])
    first = [dict(zip(en.CSV_COLUMNS, (path / "reports.csv").read_text().splitlines()[1]
                      .split(","))) for path in (run, tmp_path / "cmp")]
    assert float(first[0]["t"]) == float(first[1]["t"]) == 0.0
    assert float(first[0]["D_V"]) == float(first[1]["D_V"]) > 0.0
    assert float(first[0]["cross1"]) > 0.0


def test_report_command(stationary_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    cli.main(["simulate", str(stationary_cfg), "--out", str(out)])
    code = cli.main(["report", str(out / "stat")])
    assert code == 0
    captured = capsys.readouterr().out
    assert "gronwall" in captured
    assert "report samples" in captured


def test_report_missing_directory(tmp_path):
    assert cli.main(["report", str(tmp_path / "nothing")]) == 2


@pytest.mark.parametrize("module", ["scipy", "scipy.linalg", "numpy.f2py", "numpy.ma",
                                    "scipy.interpolate", "scipy.spatial", "scipy.sparse",
                                    "scipy.sparse.linalg", "concurrent.futures.process"])
def test_cli_import_leaves_module_unloaded(module):
    # the set-up of every run pays for what `import surfdiff.cli` loads:
    # LAPACK comes from scipy's _flapack extension file (no scipy package,
    # and no scipy.linalg with the numpy.f2py and numpy.ma its __init__
    # pulls in), the flow and the extension field fit the in-house periodic
    # spline (no scipy.interpolate), geometry takes its closest points from
    # its own code (no scipy.spatial), the extension field solves its
    # density by its own GMRES (no scipy.sparse.linalg), and no command
    # starts a process pool
    src = os.path.dirname(os.path.dirname(os.path.abspath(surfdiff.__file__)))
    code = f"import sys, surfdiff.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"

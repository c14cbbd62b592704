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


@pytest.mark.parametrize("line", ["1.5 1.5", "auto 4"])
def test_load_scenario_short_bubble_line(tmp_path, line):
    bad = tmp_path / "short_bubble.ini"
    bad.write_text(STATIONARY_INI + f"bubbles = {line}\n")
    with pytest.raises(ValueError, match=line):
        cli.load_scenario(bad)


def test_simulate_stationary_end_to_end(stationary_cfg, tmp_path):
    out = tmp_path / "out"
    code = cli.main(["simulate", str(stationary_cfg), "--out", str(out)])
    assert code == 0
    run_dir = out / "stat"
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["gronwall"]["verdict"].startswith("PASS")
    assert summary["length_monotone"] is True
    assert summary["area_drift"] <= 1e-4
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


def test_verify_suites_pass(capsys):
    for suite in ("geometry", "poisson", "calibration", "energy"):
        assert cli.run_suite(suite) == 0
    out = capsys.readouterr().out
    assert "PASS geometry/circle curvature" in out
    assert "FAIL" not in out


def test_verify_poisson_convergence(capsys):
    assert cli.run_suite("poisson-convergence") == 0
    out = capsys.readouterr().out
    assert "order-2 convergence" in out


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


def test_simulate_jobs_flag(stationary_cfg, tmp_path):
    second = tmp_path / "stat2.ini"
    second.write_text(STATIONARY_INI.replace("name = mini-stationary",
                                             "name = mini-second"))
    out = tmp_path / "par"
    code = cli.main(["simulate", str(stationary_cfg), str(second),
                     "--out", str(out), "--jobs", "2"])
    assert code == 0
    assert (out / "stat" / "summary.json").exists()
    assert (out / "stat2" / "summary.json").exists()


def test_verify_unknown_suite():
    assert cli.run_suite("nope") == 2
    assert cli.run_suite("") == 2


def test_verify_cli_exit_codes():
    assert cli.main(["verify", "geometry"]) == 0
    assert cli.main(["verify", "does-not-exist"]) == 2


def test_evaluate_run_evaluates_each_sample_once(monkeypatch):
    # every checker reads one reference query of the sample's vertices, and
    # each residual pair builds its midpoint geometry once
    ref = cb.AnalyticCircles([cb.CircleSpec((0.0, 0.0), 1.0)])
    calib = cb.Calibration(ref, 0.25)
    curve = geo.PolyCurve([geo.make_wavy_circle(1.0, 0.04, 3, 64, normalize_area=True)])
    run = fl.run_flow(curve, fl.FlowConfig(dt=1e-4, end_time=0.002), sample_stride=1,
                      max_samples=40)
    vertex_sets = [state.curve.components[0].vertices for state in run.states]
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
    cli.evaluate_run(run.states, calib, ref, 10)
    cli._flow_diagnostics(run)
    assert len(run.states) > 10
    assert len(vertex_queries) == len(set(vertex_queries)) == 10
    pairs = sum(state.normal_velocity is not None for state in run.states[1:])
    assert len(builds) == pairs > 0


def test_evaluate_run_same_bits_on_one_and_two_threads(monkeypatch, tmp_path):
    # samples are folded in sample order, so the number of CPUs the process
    # may use changes no bit of the summary or the reports
    traj = fl.make_reference(fl.FlowConfig(dt=1e-4, end_time=0.002),
                             geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 128)]),
                             sample_stride=5)
    ref = cb.PolygonReference(trajectory=traj)
    calib = cb.Calibration(ref)
    weak = geo.PolyCurve([geo.make_ellipse(2.0, 1.0, 32),
                          geo.make_circle((3.0, 0.0), 0.01, 12),
                          geo.make_circle((0.0, 2.0), 0.01, 12)])
    run = fl.run_flow(weak, fl.FlowConfig(dt=1e-4, end_time=0.002), sample_stride=1,
                      max_samples=40)
    evaluate_sample = cli._evaluate_sample
    outputs = []
    for cpus in ({0}, {0, 1}):
        threads = set()

        def on_thread(*args):
            threads.add(threading.get_ident())
            return evaluate_sample(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        monkeypatch.setattr(cli, "_evaluate_sample", on_thread)
        summary = cli.evaluate_run(run.states, calib, ref, 6)
        assert len(threads) == len(cpus)
        assert summary["flux_constants"] is not None
        path = tmp_path / f"reports_{len(cpus)}.csv"
        en.reports_to_csv(summary.pop("_reports"), path)
        outputs.append((json.dumps(summary, sort_keys=True, default=float),
                        path.read_bytes()))
    assert outputs[0] == outputs[1]


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
    provider = cli.make_b_provider(reference, calib.delta)
    traj = fl.load_trajectory(weak)
    assert len(rows) == len(traj.times) >= 10
    for row, t, curve in zip(rows, traj.times, traj.curves):
        geom = geo.build_geometry(curve)
        rep = en.dissipation_report(curve, calib.sample(geom, t), calib, provider(t),
                                    geo.d2ds2(geom, geom.kappa))
        t_, e, f, _, _, _, d_v = map(float, row.split(",")[:7])
        assert (t_, e, f, d_v) == (rep.t, rep.E, rep.F, rep.D_V)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["worst_slacks"]["pointwise_slack"] is not None
    assert summary["flux_constants"] is not None


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


def test_cli_import_leaves_scipy_interpolate_unloaded():
    # the flow and the extension field fit the in-house periodic spline, so
    # the set-up of every run no longer pays for importing scipy.interpolate
    src = os.path.dirname(os.path.dirname(os.path.abspath(surfdiff.__file__)))
    code = "import sys, surfdiff.cli; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"

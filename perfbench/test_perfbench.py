"""Tests of the benchmark's own code: tracer arithmetic, bindings, gates, verdicts.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from surfdiff import errors, flow, geometry  # noqa: E402


# -- self-time arithmetic -----------------------------------------------------

def test_self_times_subtract_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(tracer.self_times(spans)) == pytest.approx(10.0)


def test_self_times_count_overlapping_children_once():
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 3.0, 6.0, 0),
             ("c", 9.0, 12.0, 0)]
    # children cover [1, 6] and [9, 10] inside the root
    assert tracer.self_times(spans)[0] == pytest.approx(4.0)


def test_inclusive_times_do_not_double_count_recursion():
    spans = [("f", 0.0, 10.0, -1), ("f", 2.0, 5.0, 0), ("g", 6.0, 7.0, 0)]
    incl = tracer.inclusive_times(spans)
    assert incl["f"] == pytest.approx(10.0)
    assert incl["g"] == pytest.approx(1.0)


def test_summary_self_times_and_outside_add_up_to_wall():
    spans = [("r1", 1.0, 4.0, -1), ("x", 2.0, 3.0, 0), ("r2", 6.0, 9.5, -1)]
    summary = tracer.summarise(spans, {}, 0.0, 10.0)
    assert summary["outside_s"] == pytest.approx(3.5)
    assert summary["self_sum_s"] + summary["outside_s"] == pytest.approx(summary["wall_s"])
    assert summary["self_s"]["r1"] == pytest.approx(2.0)
    assert summary["calls"] == {"r1": 1, "x": 1, "r2": 1}


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracer.percentile(values, 50) == 50
    assert tracer.percentile(values, 99) == 99
    assert tracer.percentile([7.0], 99) == 7.0
    assert tracer.percentile([], 50) == 0.0


# -- installation covers every binding ----------------------------------------

@pytest.fixture
def installed():
    tr = tracer.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.restore()


def test_install_leaves_no_original_binding(installed):
    assert installed.unwrapped_bindings() == []
    import surfdiff

    # the re-exported bindings share the one wrapper
    assert flow.build_geometry is geometry.build_geometry
    assert surfdiff.build_geometry is geometry.build_geometry


def test_a_skipped_binding_is_reported(installed):
    flow.build_geometry = flow.build_geometry.__wrapped__
    assert installed.unwrapped_bindings() == ["surfdiff.flow.build_geometry"]


def test_restore_puts_originals_back():
    before = (geometry.build_geometry, geometry.PolyCurve.__init__, flow.step)
    tr = tracer.Tracer()
    tr.install()
    assert geometry.build_geometry is not before[0]
    tr.restore()
    assert (geometry.build_geometry, geometry.PolyCurve.__init__, flow.step) == before


def test_a_flow_step_is_counted_through_the_flow_binding(installed):
    state = flow.FlowState.initial(
        geometry.PolyCurve([geometry.make_circle((0.0, 0.0), 1.0, 64)]))
    first = len(installed.names)
    flow.step(state, flow.FlowConfig(dt=1e-4, end_time=1.0))
    everything = installed.spans()
    spans = everything[first:]
    names = [s[0] for s in spans]
    assert names.count("flow.step") == 1
    # step builds one PolyCurve and calls build_geometry once, through the
    # binding in flow; build_geometry calls check_embedded
    assert names.count("geometry.PolyCurve") == 1
    assert names.count("geometry.build_geometry") == 1
    parent_of = {name: everything[p][0] if p >= 0 else None for name, _, _, p in spans}
    assert parent_of["geometry.build_geometry"] == "flow.step"
    assert parent_of["geometry.check_embedded"] == "geometry.build_geometry"
    assert parent_of["flow.step"] is None


def test_raised_exceptions_are_counted():
    tr = tracer.Tracer()

    def reject():
        raise errors.StepRejected("length increased")

    wrapped = tr.wrap("flow.step", reject)
    with pytest.raises(errors.StepRejected):
        wrapped()
    assert tr.counts["flow.step.raised.StepRejected"] == 1
    assert tr.spans()[0][2] >= tr.spans()[0][1]


def test_rejections_are_read_from_run_flow():
    # run_flow also rejects steps that returned (cumulative area drift), so
    # the count is FlowRun.rejected, not the StepRejected raised by step
    tr = tracer.Tracer()
    step = tr.wrap("flow.step", lambda: None)
    run_flow = tr.wrap("flow.run_flow", lambda: SimpleNamespace(rejected=2),
                       "rejected", tracer._rejected_steps)
    for _ in range(5):
        step()
    run_flow()
    summary = tracer.summarise(tr.spans(), tr.counts, tr.starts[0], tr.ends[-1])
    metrics = tracer.layer_metrics(summary)
    assert metrics["flow.step.rejected"][0] == 2
    assert metrics["flow.step.accept_ratio"][0] == pytest.approx(3 / 5)


def test_rejections_agree_with_a_real_flow_run(installed):
    curve = geometry.PolyCurve([geometry.make_circle((0.0, 0.0), 1.0, 64)])
    run = flow.run_flow(curve, flow.FlowConfig(dt=1e-4, end_time=1e-3))
    summary = tracer.summarise(installed.spans(), installed.counts,
                               installed.starts[0], installed.ends[0])
    metrics = tracer.layer_metrics(summary)
    assert metrics["flow.step.rejected"][0] == run.rejected
    assert metrics["flow.step.calls"][0] == run.accepted + run.rejected


def test_point_counts(installed):
    from surfdiff import calibration

    ref = calibration.AnalyticCircles([calibration.CircleSpec((0.0, 0.0), 1.0)])
    ref.query(np.zeros((5, 2)))
    ref.query(points=np.ones((3, 2)))
    assert installed.counts["calibration.query.points"] == 8


# -- the benchmark's declared metrics -----------------------------------------

def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    empty = tracer.summarise([], {}, 0.0, 1.0)
    names = set(tracer.layer_metrics(empty)) | {"trace.untraced_wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- seeded inputs and the correctness gate -----------------------------------

def test_inputs_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 5) == workloads.make_inputs(name, 5)
    a = workloads.make_inputs("moving-ellipse", 5)["bubbles"]
    b = workloads.make_inputs("moving-ellipse", 6)["bubbles"]
    assert a != b and len(a) == 8
    for cx, cy, r, _ in workloads.make_inputs("stationary-bubbles", 5)["bubbles"]:
        assert np.hypot(cx, cy) - 1.0 > 2.5 * 0.25 + 2 * r


def _fake_outputs(tmp_path, verdict="PASS", slack=0.0, last_t=0.05):
    out = tmp_path / "outputs"
    (out / "trajectory").mkdir(parents=True)
    (out / "trajectory" / "index.csv").write_text(f"t,filename\n0.0,a\n{last_t!r},b\n")
    (out / "summary.json").write_text(json.dumps({"gronwall": {"verdict": verdict}}))
    (out / "reports.csv").write_text("t,E,F\n0.0,1e-3,2e-3\n0.05,5e-4,1e-3\n")
    result = {"gronwall": {"verdict": verdict},
              "worst_slacks": {"pointwise_slack": slack, "nu_dot_B_slack_abs": None}}
    return str(out), result


def test_gate_passes_good_outputs(tmp_path):
    out, result = _fake_outputs(tmp_path)
    inputs = workloads.make_inputs("stationary-bubbles", 1)
    failures, series = workloads.check("stationary-bubbles", inputs, result, out)
    assert failures == []
    assert series == {"E": [1e-3, 5e-4], "F": [2e-3, 1e-3]}


@pytest.mark.parametrize("kwargs", [{"verdict": "FAIL"}, {"slack": -1e-9},
                                    {"last_t": 0.04}])
def test_gate_fails_bad_outputs(tmp_path, kwargs):
    out, result = _fake_outputs(tmp_path, **kwargs)
    inputs = workloads.make_inputs("stationary-bubbles", 1)
    failures, _ = workloads.check("stationary-bubbles", inputs, result, out)
    assert failures


def test_digest_sees_a_flipped_byte(tmp_path):
    out, _ = _fake_outputs(tmp_path)
    before = workloads.digest(out)
    path = os.path.join(out, "reports.csv")
    data = bytearray(open(path, "rb").read())
    data[-3] ^= 1
    open(path, "wb").write(bytes(data))
    assert workloads.digest(out) != before


# -- comparison verdicts ------------------------------------------------------

def test_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v - 1.0 for v in parent]
    assert compare.verdict(parent, faster, 0.1)[0] == "improved"
    assert compare.verdict(parent, faster, 0.1)[1] == 1.0
    assert compare.verdict(parent, list(parent), 0.1)[0] == "no worse"
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, slower, 0.1)[0] == "worse"
    noisy = [5.0, 15.0, 5.0, 15.0, 10.0, 5.0, 15.0, 10.0, 5.0, 15.0]
    assert compare.verdict(noisy, list(noisy), 0.1)[0] == "unresolved"
    assert compare.verdict([1.0] * 10, [2.0] * 10, 0.1, lower_is_better=False)[0] == "improved"
    # fewer than ten pairs never claim a gain
    assert compare.verdict(parent[:4], faster[:4], 0.1)[0] == "no worse"
    # a change that fails the correctness gate gains nothing
    assert compare.verdict(parent, faster, 0.1, change_failed=1)[0] == "failed"


def test_max_rel_diff():
    a = {"E": [1.0, 2.0], "F": [0.0, 4.0]}
    assert compare.max_rel_diff(a, a) == 0.0
    b = {"E": [1.0, 2.0], "F": [0.0, 4.4]}
    assert compare.max_rel_diff(a, b) == pytest.approx(0.4 / 4.4)
    assert compare.max_rel_diff({}, {}) is None

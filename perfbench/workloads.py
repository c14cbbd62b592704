"""The benchmark's workloads: seeded inputs, the timed call, and output checks.

Each workload is one question the laboratory answers per run.  The benchmark
draws every random input from the workload seed itself and hands surfdiff
explicit inputs, so the program's own placement code never runs.

* ``stationary-bubbles``: the README scenario.  Analytic unit-circle
  reference, so ``extension`` and ``CurveIndex`` are never called; the time
  goes to ``energy.bulk_error`` and to ``geometry`` validating the 4096-gon
  reference boundary rebuilt for every sample.
* ``moving-ellipse``: one weak-strong evaluation of the acceptance bundle at
  dt = 1e-4, with 10 samples instead of 12.  A flow reference, so it is the
  only workload that exercises ``extension``, ``PolygonReference`` and
  ``CurveIndex``; its flow advances nine components (a 128-vertex ellipse,
  eight 24-vertex bubbles) instead of one 512-vertex ellipse.
* ``ellipse-relax``: flow only, a 512-vertex 2:1 ellipse relaxed to
  isoperimetric ratio <= 1.001.  No evaluation code runs, so a change to
  ``energy``, ``calibration`` or ``extension`` must leave it unchanged, while
  a ``flow`` or ``geometry`` change shows here undiluted.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

WORKLOADS = ("stationary-bubbles", "moving-ellipse", "ellipse-relax")

BUBBLE_RADIUS = 0.01
BUBBLE_VERTICES = 24
BOX = 2.9               # bubble centres lie in [-BOX, BOX]^2
# Two bubbles sit at opposite corners of the box for every seed.  bulk_error
# refines a quadtree over the bounding square of both curves, so its cell
# count jumps with that square's size; pinning the square keeps the work of
# one workload the same across seeds while the other bubbles move.
ANCHORS = ((-BOX, -BOX), (BOX, BOX))
BUBBLE_GAP = 0.2        # minimum distance between bubble centres
SLACK_FLOOR = -1e-12    # inequality slack below rounding fails the run
RELAX_ISO = 1.001


def _ellipse_distance(point, a=2.0, b=1.0):
    """Unsigned distance to the ellipse, sampled at 720 boundary points."""
    t = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    boundary = np.column_stack([a * np.cos(t), b * np.sin(t)])
    return float(np.min(np.linalg.norm(boundary - point, axis=1)))


def _draw_bubbles(rng, count, outside):
    """``count`` centres: the anchors, then random ones exterior to the
    reference and apart from each other."""
    centres = [np.array(a) for a in ANCHORS]
    while len(centres) < count:
        cand = rng.uniform(-BOX, BOX, 2)
        if not outside(cand):
            continue
        if any(np.hypot(*(cand - c)) < BUBBLE_GAP for c in centres):
            continue
        centres.append(cand)
    return [[float(c[0]), float(c[1]), BUBBLE_RADIUS, BUBBLE_VERTICES] for c in centres]


def make_inputs(name: str, seed: int) -> dict:
    """The explicit, JSON-serialisable inputs of one workload for one seed."""
    rng = np.random.Generator(np.random.Philox(seed))
    if name == "stationary-bubbles":
        delta = 0.25
        # outside the unit circle by more than the program's own placement
        # margin 2.5 delta + 2 r, so every bubble is clear of the tube
        margin = 2.5 * delta + 2.0 * BUBBLE_RADIUS
        return {
            "delta": delta, "end_time": 0.05, "sample_count": 12, "dt": 1e-4,
            "weak_resolution": 256, "perturb_amplitude": 0.05, "perturb_mode": 3,
            "bubbles": _draw_bubbles(rng, 4, lambda p: np.hypot(*p) - 1.0 > margin),
        }
    if name == "moving-ellipse":
        # as the acceptance bundle: 0.8 clear of the 2:1 ellipse, exterior only
        def outside(p):
            exterior = (p[0] / 2.0) ** 2 + p[1] ** 2 > 1.0
            return exterior and _ellipse_distance(p) >= 0.8
        # 10 samples, the fewest a Gronwall fit takes, where the bundle has
        # 12: each sample costs about 3 s, and two runs must fit in a set
        return {
            "delta": None, "end_time": 0.06, "sample_count": 10, "dt": 1e-4,
            "ref_resolution": 512, "weak_resolution": 128,
            "bubbles": _draw_bubbles(rng, 8, outside),
        }
    if name == "ellipse-relax":
        return {
            "resolution": 512, "dt": 1e-4, "end_time": 3.0, "area_drift_abort": 1e-4,
            "sample_stride": 20, "iso_stop": RELAX_ISO,
            "rotation": float(rng.uniform(0.0, np.pi)),
        }
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def prepare(name: str, seed: int, inputs: dict):
    """Build the surfdiff objects for one run; returns a zero-argument runner.

    The runner makes the timed call into surfdiff (export included) and
    writes the outputs under the directory it is given.
    """
    from surfdiff import calibration, cli, flow, geometry

    if name == "ellipse-relax":
        curve = geometry.PolyCurve(
            [geometry.make_ellipse(2.0, 1.0, inputs["resolution"])]
        ).rotated(inputs["rotation"])
        cfg = flow.FlowConfig(dt=inputs["dt"], end_time=inputs["end_time"],
                              area_drift_abort=inputs["area_drift_abort"])
        iso_stop = inputs["iso_stop"]

        def stop(state):
            return state.length() ** 2 / (4 * np.pi * abs(state.area())) <= iso_stop

        def runner(out_dir):
            run = flow.run_flow(curve, cfg, sample_stride=inputs["sample_stride"],
                                stop_condition=stop)
            flow.export_trajectory(run.trajectory, os.path.join(out_dir, "trajectory"))
            return run
        return runner

    common = dict(
        name=name, seed=seed, delta=inputs["delta"], end_time=inputs["end_time"],
        sample_count=inputs["sample_count"], out="", ref_file=None,
        weak_bubbles=[tuple(b) for b in inputs["bubbles"]], weak_dt=inputs["dt"],
    )
    if name == "stationary-bubbles":
        scenario = cli.Scenario(
            ref_kind="circles", ref_circles=[calibration.CircleSpec((0.0, 0.0), 1.0, 1)],
            ref_shape=None, ref_resolution=512, ref_dt=inputs["dt"],
            weak_shape=("circle", 1.0), weak_resolution=inputs["weak_resolution"],
            weak_perturb_amplitude=inputs["perturb_amplitude"],
            weak_perturb_mode=inputs["perturb_mode"], **common)
    else:
        scenario = cli.Scenario(
            ref_kind="flow", ref_circles=[], ref_shape=("ellipse", 2.0, 1.0),
            ref_resolution=inputs["ref_resolution"], ref_dt=inputs["dt"],
            weak_shape=("ellipse", 2.0, 1.0), weak_resolution=inputs["weak_resolution"],
            weak_perturb_amplitude=0.0, weak_perturb_mode=0, **common)

    def runner(out_dir):
        return cli.run_scenario(scenario, out_dir=out_dir, seed=seed)
    return runner


def digest(out_dir: str) -> str:
    """sha256 over every output file, in a fixed order."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(out_dir):
        dirs.sort()
        for fname in sorted(files):
            path = os.path.join(root, fname)
            h.update(os.path.relpath(path, out_dir).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check(name: str, inputs: dict, result, out_dir: str) -> tuple[list[str], dict]:
    """Correctness gate for one run: (failures, E/F series)."""
    failures = []
    if name == "ellipse-relax":
        lengths = np.array(result.length_series)
        areas = np.array(result.area_series)
        iso = lengths[-1] ** 2 / (4 * np.pi * abs(areas[-1]))
        if not iso <= inputs["iso_stop"]:
            failures.append(f"isoperimetric stop not reached: ratio {iso!r}")
        if not np.all(np.diff(lengths) <= 1e-13 * lengths[0]):
            failures.append("length increased during the flow")
        drift = float(np.max(np.abs(areas - areas[0])) / abs(areas[0]))
        if not drift <= inputs["area_drift_abort"]:
            failures.append(f"area drift {drift!r} over {inputs['area_drift_abort']}")
        return failures, {}

    verdict = str(result["gronwall"].get("verdict"))
    if not verdict.startswith("PASS"):
        failures.append(f"Gronwall verdict {verdict}")
    for key, slack in result["worst_slacks"].items():
        if slack is not None and not slack >= SLACK_FLOOR:
            failures.append(f"worst slack {key} = {slack!r} < {SLACK_FLOOR}")
    with open(os.path.join(out_dir, "trajectory", "index.csv"), newline="") as fh:
        last_t = float(list(csv.reader(fh))[-1][0])
    if not last_t >= inputs["end_time"] * (1.0 - 1e-12):
        failures.append(f"flow stopped at t = {last_t!r} before the horizon")
    with open(os.path.join(out_dir, "summary.json")) as fh:
        saved = json.load(fh)
    if saved["gronwall"].get("verdict") != result["gronwall"].get("verdict"):
        failures.append("summary.json disagrees with the returned verdict")
    with open(os.path.join(out_dir, "reports.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    series = {"E": [float(r["E"]) for r in rows], "F": [float(r["F"]) for r in rows]}
    if not rows:
        failures.append("reports.csv holds no samples")
    return failures, series

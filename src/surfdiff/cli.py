"""Scenario runner, trajectory comparison and run reports.

Scenarios are INI files (configparser sections as nested tables) describing
a reference (analytic circles, a curve file, or a fine flow run), a weak run
(resolution, perturbation, seeded bubbles), the tube width and the time
horizon; ``;`` starts an inline comment, and an unknown key, a missing
key of the reference kind or a weak perturbation that would go unused is
rejected when the file is loaded.
``simulate`` produces trajectory exports, an energy-report CSV and a JSON
verdict summary; ``compare`` evaluates a recorded weak trajectory against a
recorded strong one; ``report`` summarizes a finished output directory.
The invariant suite is the test suite (``pytest tests/test_acceptance.py``).

``simulate`` and ``compare`` share one evaluation path: the sampled weak
states go through :func:`evaluate_run`, the outputs through
:func:`write_outputs`, and :func:`passed` decides the exit status.  Only
``simulate`` has a flow run, so only its summary holds the flow diagnostics
(area drift, dissipation-identity residuals).

Outputs are bit-identical across repeated runs with the same config and
seed: randomness flows from a single 64-bit seed through a counter-based
generator and floats are serialized with repr.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import calibration as cblib
from . import energy as enlib
from . import flow as fllib
from . import geometry as geo
from .errors import DegenerateInitialData


# ---------------------------------------------------------------------------
# scenario description
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    name: str
    seed: int
    delta: float | None          # None means "auto"
    end_time: float
    sample_count: int
    out: str
    ref_kind: str                # circles | file | flow
    ref_circles: list
    ref_file: str | None
    ref_shape: tuple | None
    ref_resolution: int
    ref_dt: float
    weak_shape: tuple | None     # None means "same datum as the reference"
    weak_resolution: int
    weak_perturb_amplitude: float
    weak_perturb_mode: int
    weak_bubbles: list           # ("auto", count, radius) or explicit (cx, cy, r, n)
    weak_dt: float
    area_drift_abort: float = 1e-3


# the parameters each shape kind takes
SHAPE_PARAMS = {"circle": "R", "ellipse": "a b", "wavy": "R amp mode"}


def _number(convert, text: str, where: str):
    """``int(text)`` or ``float(text)``; an error names ``where``."""
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ValueError(f"{where}: {text!r} is not {kind}") from None


def _tube_width(text: str, where: str) -> float | None:
    """None for 'auto', else a positive number; an error names ``where``."""
    delta = None if text.strip() == "auto" else _number(float, text, where)
    if delta is not None and not 0.0 < delta < np.inf:
        raise ValueError(f"{where}: must be 'auto' or a positive number, got {text!r}")
    return delta


def _parse_shape(text: str, where: str) -> tuple:
    """A shape line; ``where`` names its file, section and key in the errors."""
    kind, *vals = text.split()
    if kind not in SHAPE_PARAMS:
        raise ValueError(f"{where}: unknown shape {text!r}")
    if len(vals) != len(SHAPE_PARAMS[kind].split()):
        raise ValueError(f"{where} needs '{kind} {SHAPE_PARAMS[kind]}', got {text!r}")
    types = (float, float, int) if kind == "wavy" else (float,) * len(vals)
    return (kind, *(_number(convert, v, where) for convert, v in zip(types, vals)))


# the keys each section may hold, and the key each reference kind needs
SECTION_KEYS = {
    "scenario": {"name", "seed", "delta", "end_time", "sample_count", "out"},
    "reference": {"kind", "circles", "file", "shape", "resolution", "dt"},
    "weak": {"shape", "resolution", "perturb_amplitude", "perturb_mode", "bubbles", "dt",
             "area_drift_abort"},
}
KIND_KEY = {"circles": "circles", "file": "file", "flow": "shape"}


def load_scenario(path) -> Scenario:
    """Read a scenario file.

    Unknown keys, a reference kind without its key, a file reference without
    a weak shape, a perturbation the weak datum cannot take (negative, of
    a datum that is not a circle, or of mode below 1) and an ``end_time``,
    ``dt`` or ``area_drift_abort`` that is not a positive finite number are
    errors.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(path)
    try:
        sc = cp["scenario"]
        ref = cp["reference"]
        weak = cp["weak"]
    except KeyError as exc:
        raise ValueError(f"{path}: missing section {exc}") from exc
    for section, known in SECTION_KEYS.items():
        for key in cp[section]:
            if key not in known:
                raise ValueError(f"{path}: [{section}] unknown key {key!r}")
    kind = ref.get("kind")
    if kind not in KIND_KEY:
        raise ValueError(f"{path}: [reference] 'kind' must be one of "
                         f"{', '.join(KIND_KEY)}, got {kind!r}")
    if not ref.get(KIND_KEY[kind]):
        raise ValueError(f"{path}: [reference] kind = {kind} needs {KIND_KEY[kind]!r}")

    def number(section, key, convert, default=None):
        raw = cp[section].get(key)
        return default if raw is None else _number(convert, raw, f"{path}: [{section}] {key!r}")

    def positive(section, key, default=None):
        value = number(section, key, float, default)
        if not 0.0 < value < np.inf:
            raise ValueError(f"{path}: [{section}] {key!r}: must be a positive number, "
                             f"got {cp[section][key]!r}")
        return value

    if sc.get("end_time") is None:
        raise ValueError(f"{path}: [scenario] needs 'end_time'")
    sample_count = number("scenario", "sample_count", int, 12)
    if sample_count < 1:
        raise ValueError(f"{path}: [scenario] 'sample_count' must be at least 1, "
                         f"got {sample_count}")
    delta = _tube_width(sc.get("delta", "auto"), f"{path}: [scenario] 'delta'")
    circles = []
    for line in ref.get("circles", "").strip().splitlines():
        vals = line.split()
        if len(vals) != 4:
            raise ValueError(f"{path}: circle line needs 'cx cy R orient': {line!r}")
        cx, cy, r, o = (_number(convert, v, f"{path}: [reference] 'circles' line {line!r}")
                        for convert, v in zip((float, float, float, int), vals))
        circles.append(cblib.CircleSpec((cx, cy), r, o))
    bubbles = []
    braw = weak.get("bubbles", "").strip()
    if braw:
        for line in braw.splitlines():
            vals = line.split()
            where = f"{path}: [weak] 'bubbles' line {line!r}"
            if len(vals) not in (3, 4) or (vals[0] == "auto" and len(vals) != 3):
                raise ValueError(
                    f"{path}: bubble line needs 'auto count r' or 'cx cy r [n]': {line!r}")
            if vals[0] == "auto":
                bubbles.append(("auto", _number(int, vals[1], where),
                                _number(float, vals[2], where)))
            else:
                bubbles.append((*(_number(float, v, where) for v in vals[:3]),
                                _number(int, vals[3], where) if len(vals) > 3 else 24))

    ref_shape = (_parse_shape(ref["shape"], f"{path}: [reference] 'shape'")
                 if ref.get("shape") else None)
    weak_shape = (_parse_shape(weak["shape"], f"{path}: [weak] 'shape'")
                  if weak.get("shape") else None)
    if kind == "file" and weak_shape is None:
        raise ValueError(f"{path}: [weak] needs 'shape' with a file reference")
    # the weak datum: its own shape, else the flow reference's, else a circle
    datum = weak_shape or (ref_shape if kind == "flow" else ("circle",))
    amplitude = number("weak", "perturb_amplitude", float, 0.0)
    mode = number("weak", "perturb_mode", int, 0)
    if not amplitude >= 0.0:
        raise ValueError(f"{path}: [weak] 'perturb_amplitude' must not be negative, "
                         f"got {amplitude}")
    if amplitude > 0.0 and datum[0] != "circle":
        raise ValueError(f"{path}: [weak] 'perturb_amplitude' perturbs only a circle, "
                         f"got shape {datum[0]!r}")
    if amplitude > 0.0 and mode < 1:
        raise ValueError(f"{path}: [weak] 'perturb_mode' must be at least 1 with a "
                         f"perturbation, got {mode}")

    return Scenario(
        name=sc.get("name", os.path.splitext(os.path.basename(path))[0]),
        seed=number("scenario", "seed", int, 0),
        delta=delta,
        end_time=positive("scenario", "end_time"),
        sample_count=sample_count,
        out=sc.get("out", ""),
        ref_kind=kind,
        ref_circles=circles,
        ref_file=ref.get("file", None),
        ref_shape=ref_shape,
        ref_resolution=number("reference", "resolution", int, 512),
        ref_dt=positive("reference", "dt", 1e-4),
        weak_shape=weak_shape,
        weak_resolution=number("weak", "resolution", int, 128),
        weak_perturb_amplitude=amplitude,
        weak_perturb_mode=mode,
        weak_bubbles=bubbles,
        weak_dt=positive("weak", "dt", 1e-4),
        area_drift_abort=positive("weak", "area_drift_abort", 1e-3),
    )


def _build_shape(shape: tuple, n: int, amplitude=0.0, mode=0) -> np.ndarray:
    kind = shape[0]
    if kind == "circle":
        if amplitude > 0 and mode > 0:
            return geo.make_wavy_circle(shape[1], amplitude, mode, n,
                                        normalize_area=True)
        return geo.make_circle((0.0, 0.0), shape[1], n)
    if kind == "ellipse":
        return geo.make_ellipse(shape[1], shape[2], n)
    if kind == "wavy":
        return geo.make_wavy_circle(shape[1], shape[2], shape[3], n,
                                    normalize_area=True)
    raise ValueError(f"unknown shape kind {kind}")


def _place_bubbles(rng, spec_list, reference, delta, existing: geo.PolyCurve):
    """Seeded disjoint bubble placement outside the calibration tube."""
    comps = np.split(existing.vertices, existing.layout.split)
    placed = []
    verts = existing.segments[0]
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    span = hi - lo
    for entry in spec_list:
        if entry[0] == "auto":
            _, count, radius = entry
            want = [(None, None, radius, 24)] * count
        else:
            want = [entry]
        for cx, cy, radius, nseg in want:
            if cx is not None:
                comps.append(geo.make_circle((cx, cy), radius, nseg))
                placed.append((cx, cy, radius))
                continue
            for _ in range(2000):
                cand = lo - 0.5 * span + rng.random(2) * 2.0 * span
                s = reference.query(cand[None, :], 0.0)[0][0]
                if abs(s) < 2.5 * delta + 2.0 * radius:
                    continue
                ok = True
                for (px, py, pr) in placed:
                    if np.hypot(cand[0] - px, cand[1] - py) < 4.0 * (radius + pr):
                        ok = False
                        break
                if ok and np.min(geo.row_norms(verts - cand)) > 2.5 * delta:
                    comps.append(geo.make_circle(tuple(cand), radius, 24))
                    placed.append((cand[0], cand[1], radius))
                    break
            else:
                raise RuntimeError("could not place a bubble disjointly")
    return geo.PolyCurve(comps), placed


# ---------------------------------------------------------------------------
# the scenario pipeline
# ---------------------------------------------------------------------------

# the lowest inequality slack that passes: exact algebraic identities may
# round a hair below zero
SLACK_FLOOR = -1e-12


def run_scenario(scenario: Scenario, out_dir: str | None = None,
                 seed: int | None = None) -> dict:
    """Run one scenario end to end; returns the summary dictionary."""
    if seed is None:
        seed = scenario.seed
    rng = np.random.Generator(np.random.Philox(seed))
    out = out_dir or scenario.out or os.path.join("runs", scenario.name)

    # reference
    if scenario.ref_kind == "circles":
        reference = cblib.AnalyticCircles(scenario.ref_circles)
        ref_datum = None
    elif scenario.ref_kind == "file":
        curve = geo.read_curve_file(scenario.ref_file)
        reference = cblib.PolygonReference(fllib.Trajectory([0.0], [curve]))
        # every sample's stationary gradient ratio needs a union of circles:
        # reject any other curve before the weak flow runs
        enlib.require_constant_curvature(reference.geometry_at(0.0))
        ref_datum = None
    elif scenario.ref_kind == "flow":
        datum = _build_shape(scenario.ref_shape, scenario.ref_resolution)
        # the reference takes only its dt and the horizon, never [weak] settings
        cfg = fllib.FlowConfig(dt=scenario.ref_dt, end_time=scenario.end_time)
        traj = fllib.make_reference(cfg, geo.PolyCurve([datum]), sample_stride=5)
        reference = cblib.PolygonReference(trajectory=traj)
        ref_datum = scenario.ref_shape
    else:
        raise ValueError(f"unknown reference kind {scenario.ref_kind!r}")

    calib = cblib.Calibration(reference, scenario.delta)

    # weak initial datum
    weak_shape = scenario.weak_shape or ref_datum
    if weak_shape is None and scenario.ref_kind == "circles":
        c0 = scenario.ref_circles[0]
        weak_shape = ("circle", c0.radius)
    main = _build_shape(weak_shape, scenario.weak_resolution,
                        scenario.weak_perturb_amplitude,
                        scenario.weak_perturb_mode)
    weak_curve = geo.PolyCurve([main])
    bubbles_placed = []
    if scenario.weak_bubbles:
        weak_curve, bubbles_placed = _place_bubbles(
            rng, scenario.weak_bubbles, reference, calib.delta, weak_curve)

    cfg = fllib.FlowConfig(dt=scenario.weak_dt, end_time=scenario.end_time,
                           area_drift_abort=scenario.area_drift_abort)
    run = fllib.run_flow(weak_curve, cfg, sample_stride=1,
                         max_samples=4 * scenario.sample_count)

    summary = evaluate_run(run.states, calib, scenario.sample_count)
    summary.update(_flow_diagnostics(run))
    summary["scenario"] = scenario.name
    summary["seed"] = seed
    summary["bubbles"] = [list(map(float, b)) for b in bubbles_placed]
    summary["delta"] = calib.delta
    summary["accepted_steps"] = run.accepted
    summary["rejected_steps"] = run.rejected

    fllib.export_trajectory(run.trajectory, os.path.join(out, "trajectory"))
    write_outputs(summary, out)
    return summary


def write_outputs(summary: dict, out: str) -> None:
    """Write ``reports.csv`` and ``summary.json``; pops the reports off the summary."""
    os.makedirs(out, exist_ok=True)
    enlib.reports_to_csv(summary.pop("_reports"), os.path.join(out, "reports.csv"))
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def passed(summary: dict) -> bool:
    """A PASS Gronwall verdict and no worst slack below SLACK_FLOOR."""
    ok = str(summary["gronwall"]["verdict"]).startswith("PASS")
    return ok and all(v is None or v >= SLACK_FLOOR for v in summary["worst_slacks"].values())


def _quadrature_floor(geom, reference) -> float:
    """Resolution floor for E+F between nominally identical regions.

    A polygon inscribed in the reference keeps a bulge band of width about
    h^2/8 per edge; the distance-weighted volume of those slivers bounds the
    unavoidable bulk-error residue.
    """
    h = float(np.max(geom.edge_lengths))
    bulge = h * h / 8.0
    if not isinstance(reference, cblib.AnalyticCircles):
        h = float(np.max(reference.geometry_at(0.0).edge_lengths))
        bulge += h * h / 8.0
    return 2.0 * float(sum(geom.length)) * bulge ** 2 + 1e-10


def _evaluate_sample(state, calib):
    """Energy report, worst slacks, flux constants and stationary ratio of one state.

    A slack with nothing to check is inf; the flux constants exist only
    with B, the ratio only on a stationary reference.
    """
    t = state.time
    b_field = calib.b_field(t)
    sample = calib.sample(state.geometry, t)
    rep = enlib.dissipation_report(sample, calib, b_field, state.normal_velocity)
    pointwise = calib.pointwise_tilt_check(sample)
    rep.verdicts["pointwise"] = "PASS" if pointwise >= SLACK_FLOOR else "FAIL"
    xi_bound = calib.xi_grad_bound(t)
    nb = flux_constants = None
    if b_field is not None:
        nb = enlib.nu_dot_B_sums(state.geometry, b_field, calib, xi_bound,
                                 f_value=rep.F, e_value=rep.E)
        rep.verdicts["nu_dot_B"] = ("PASS" if min(nb.slack_abs, nb.slack_scaled) >= SLACK_FLOOR
                                    else "FAIL")
        flux_constants = {
            "support_radius": b_field.support_radius,
            "div_sup": b_field.div_sup,
            "sup_norm": b_field.sup_norm,
            "lipschitz": b_field.lipschitz,
            "prefactor_abs": 2.0 * b_field.support_radius / calib.delta
                             * b_field.div_sup,
            "small_component_factor": 34.0 * b_field.div_sup,
            "length_threshold": (1.0 / b_field.sup_norm
                                 if b_field.sup_norm > 0 else None),
            "bc_residual": b_field.bc_residual,
        }
    slacks = {
        "pointwise_slack": pointwise,
        "bubble_slack": enlib.small_component_area_check(sample, xi_bound),
        "nu_dot_B_slack_abs": np.inf if nb is None else nb.slack_abs,
        "nu_dot_B_slack_scaled": np.inf if nb is None else nb.slack_scaled,
    }
    ratio = (enlib.stationary_gradient_ratio(rep, calib) if calib.reference.stationary
             else None)
    return rep, slacks, flux_constants, ratio


def evaluate_run(states: list, calib, sample_count: int) -> dict:
    """Energy reports, inequality verdicts and the Gronwall fit of sampled states.

    ``states`` are ``flow.FlowState``s in time order, each with the normal
    velocity its D_V terms read; at most ``sample_count`` of them, spread
    evenly, are evaluated against ``calib``, one after another in time
    order.  ``flux_constants_final`` holds the B-field constants of the last
    sample, while each worst slack is the minimum over all samples.
    """
    floor = _quadrature_floor(states[0].geometry, calib.reference)
    if len(states) > sample_count:
        # points more than 1 apart floor to distinct indices; np.unique would
        # import numpy.ma inside the run
        pick = np.linspace(0, len(states) - 1, sample_count).astype(int)
        states = [states[i] for i in pick]

    reports, slacks, fluxes, ratios = zip(*(_evaluate_sample(state, calib)
                                             for state in states))

    try:
        gron = enlib.gronwall_verdict(list(reports), floor=floor)
        gron_info = {
            "C_fit": gron.c_fit, "C_integral": gron.c_integral,
            "verdict": gron.verdict, "initial": gron.initial,
            "series": gron.series,
        }
    except DegenerateInitialData as exc:
        gron_info = {"verdict": "FAIL-DEGENERATE", "detail": str(exc)}
    except ValueError as exc:
        gron_info = {"verdict": "SKIPPED-SHORT", "detail": str(exc)}

    worst = {key: min(s[key] for s in slacks) for key in slacks[0]}
    return {
        "_reports": list(reports),
        "gronwall": gron_info,
        "worst_slacks": {k: float(v) if np.isfinite(v) else None for k, v in worst.items()},
        "flux_constants_final": fluxes[-1],
        "stationary_gradient_ratio_max": None if ratios[0] is None else max(ratios),
    }


def _flow_diagnostics(run: fllib.FlowRun) -> dict:
    """Area drift and the mean dissipation-identity residuals of a run.

    The residuals pair neighbouring recorded states, which are as many
    accepted steps apart as the run's sample stride when they were recorded.
    """
    residuals = []
    residuals_half = []
    for a, b in zip(run.states[:-1], run.states[1:]):
        full, half = fllib.dissipation_identity_residual(a, b)
        residuals.append(full)
        residuals_half.append(half)
    return {
        "area_drift": float(np.max(np.abs(np.array(run.area_series)
                                          - run.area_series[0]))
                            / abs(run.area_series[0])),
        "dissipation_residual_mean": float(np.mean(residuals)) if residuals else None,
        "dissipation_residual_half_mean": (float(np.mean(residuals_half))
                                           if residuals_half else None),
    }


# ---------------------------------------------------------------------------
# compare and report
# ---------------------------------------------------------------------------

def run_compare(weak_dir: str, strong_dir: str, delta: float | None, out: str | None) -> int:
    """Evaluate a recorded weak trajectory against a recorded strong one.

    Every weak sample is a flow state whose velocity is the PDE velocity
    d^2 kappa/ds^2 of its recorded curve; the states go through
    :func:`evaluate_run` and the outputs through :func:`write_outputs`, as a
    ``simulate`` run's do; ``delta`` None takes the largest admissible tube
    width.  Returns 0 when the run passes, else 1.
    """
    weak = fllib.load_trajectory(weak_dir)
    reference = cblib.PolygonReference(trajectory=fllib.load_trajectory(strong_dir))
    calib = cblib.Calibration(reference, delta)
    states = [fllib.FlowState.initial(curve, float(t), k)
              for k, (t, curve) in enumerate(zip(weak.times, weak.curves))]
    summary = evaluate_run(states, calib, len(states))
    summary["delta"] = calib.delta
    write_outputs(summary, out or "compare_out")
    ok = passed(summary)
    print(f"{'PASS' if ok else 'FAIL'} compare: gronwall {summary['gronwall']['verdict']}")
    return 0 if ok else 1


def run_report(directory: str) -> int:
    summary_path = os.path.join(directory, "summary.json")
    csv_path = os.path.join(directory, "reports.csv")
    if not os.path.exists(summary_path):
        print(f"no summary.json in {directory}", file=sys.stderr)
        return 2
    with open(summary_path) as fh:
        summary = json.load(fh)
    print(json.dumps(summary, indent=2, sort_keys=True))
    if os.path.exists(csv_path):
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        print(f"{len(rows) - 1} report samples; columns: {', '.join(rows[0])}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _delta_option(text: str) -> float | None:
    """``--delta`` read by :func:`_tube_width`; a bad value is a parser error."""
    try:
        return _tube_width(text, "tube width")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="surfdiff",
                                     description="surface diffusion laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run scenario config files")
    p_sim.add_argument("configs", nargs="+")
    p_sim.add_argument("--out", default=None, help="output root override")
    p_sim.add_argument("--seed", type=int, default=None)

    p_cmp = sub.add_parser("compare", help="weak vs strong trajectory")
    p_cmp.add_argument("weak")
    p_cmp.add_argument("strong")
    p_cmp.add_argument("--delta", type=_delta_option, default=None,
                       help="tube width: 'auto' (the default) or a positive number")
    p_cmp.add_argument("--out", default=None)

    p_rep = sub.add_parser("report", help="summarize an output directory")
    p_rep.add_argument("directory")

    args = parser.parse_args(argv)

    if args.command == "compare":
        return run_compare(args.weak, args.strong, args.delta, args.out)
    if args.command == "report":
        return run_report(args.directory)

    ok_all = True
    for path in args.configs:
        out = None
        if args.out:
            base = os.path.splitext(os.path.basename(path))[0]
            out = os.path.join(args.out, base)
        scenario = load_scenario(path)
        ok = passed(run_scenario(scenario, out_dir=out, seed=args.seed))
        print(f"{'PASS' if ok else 'FAIL'} scenario {scenario.name}")
        ok_all &= ok
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())

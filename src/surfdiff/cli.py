"""Scenario runner, trajectory comparison and run reports.

Scenarios are INI files (configparser sections as nested tables) describing
a reference (analytic circles, a curve file, or a fine flow run), a weak run
(resolution, perturbation, seeded bubbles), the tube width and the time
horizon; ``;`` starts an inline comment.  One table, :data:`KEYS`, gives
every key's field, domain and default, and a value outside its domain is
rejected, naming its key, when the file is loaded.
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
    area_drift_abort: float = fllib.FlowConfig.area_drift_abort


# the domains of scenario values: each reads the text of one value, or raises
# a ValueError that says what the value must be and quotes the text

def _domain(what: str, convert, within):
    """A reader of ``convert(text)``, a value for which ``within`` holds."""
    def read(text: str):
        try:
            if within(value := convert(text)):
                return value
        except ValueError:
            pass
        raise ValueError(f"must be {what}, got {text!r}")
    return read


NUMBER = _domain("a finite number", float, np.isfinite)
POSITIVE = _domain("a positive number", float, lambda v: 0.0 < v < np.inf)
NON_NEGATIVE = _domain("a non-negative number", float, lambda v: 0.0 <= v < np.inf)
NON_NEGATIVE_INT = _domain("an integer >= 0", int, lambda v: v >= 0)
COUNT = _domain("an integer >= 1", int, lambda v: v >= 1)
VERTICES = _domain("an integer >= 8", int, lambda v: v >= 8)
SIGN = _domain("1 or -1", int, lambda v: v in (1, -1))
TUBE_WIDTH = _domain("'auto' or a positive number",
                     lambda text: None if text.strip() == "auto" else float(text),
                     lambda v: v is None or 0.0 < v < np.inf)
# the key each reference kind needs
KIND_KEY = {"circles": "circles", "file": "file", "flow": "shape"}
KIND = _domain("one of " + ", ".join(KIND_KEY), str, KIND_KEY.__contains__)


def _fields(words: list, text: str, form: str, domains: tuple) -> tuple:
    """``words`` of ``text`` read by ``domains``, one each; ``form`` names the layout."""
    if len(words) != len(domains):
        raise ValueError(f"must be '{form}', got {text!r}")
    try:
        return tuple(read(word) for read, word in zip(domains, words))
    except ValueError as exc:
        raise ValueError(f"{exc} in {text!r}") from None


# each shape kind: its layout and the domains of its parameters
SHAPES = {"circle": ("circle R>0", (POSITIVE,)),
          "ellipse": ("ellipse a>0 b>0", (POSITIVE, POSITIVE)),
          "wavy": ("wavy R>0 amp>=0 mode>=1", (POSITIVE, NON_NEGATIVE, COUNT))}


def _shape(text: str) -> tuple:
    kind, *words = text.split() or [""]
    if kind not in SHAPES:
        raise ValueError(f"must be {' | '.join(form for form, _ in SHAPES.values())}, "
                         f"got {text!r}")
    return (kind, *_fields(words, text, *SHAPES[kind]))


def _circle(line: str) -> cblib.CircleSpec:
    fields = _fields(line.split(), line, "cx cy R>0 ±1", (NUMBER, NUMBER, POSITIVE, SIGN))
    return cblib.CircleSpec(fields[:2], *fields[2:])


def _bubble(line: str) -> tuple:
    words = line.split()
    if words[0] == "auto":
        return ("auto", *_fields(words[1:], line, "auto count>=1 r>0", (COUNT, POSITIVE)))
    words += ["24"] * (len(words) == 3)     # 24 vertices unless given
    return _fields(words, line, "cx cy r>0 [n>=8]", (NUMBER, NUMBER, POSITIVE, VERTICES))


def _lines(read):
    """A reader of one record per non-blank line."""
    return lambda text: [read(line) for line in text.splitlines() if line.strip()]


REQUIRED = object()    # the default of a key the file must give
# every key of a scenario file: (section, key) -> (Scenario field, domain,
# default).  A default is text the domain reads, or None for a field left None
# (for ``name``, the file's stem).
KEYS = {
    ("scenario", "name"): ("name", str, None),
    ("scenario", "seed"): ("seed", NON_NEGATIVE_INT, "0"),
    ("scenario", "delta"): ("delta", TUBE_WIDTH, "auto"),
    ("scenario", "end_time"): ("end_time", POSITIVE, REQUIRED),
    ("scenario", "sample_count"): ("sample_count", COUNT, "12"),
    ("scenario", "out"): ("out", str, ""),
    ("reference", "kind"): ("ref_kind", KIND, REQUIRED),
    ("reference", "circles"): ("ref_circles", _lines(_circle), ""),
    ("reference", "file"): ("ref_file", str, None),
    ("reference", "shape"): ("ref_shape", _shape, None),
    ("reference", "resolution"): ("ref_resolution", VERTICES, "512"),
    ("reference", "dt"): ("ref_dt", POSITIVE, "1e-4"),
    ("weak", "shape"): ("weak_shape", _shape, None),
    ("weak", "resolution"): ("weak_resolution", VERTICES, "128"),
    ("weak", "perturb_amplitude"): ("weak_perturb_amplitude", NON_NEGATIVE, "0"),
    ("weak", "perturb_mode"): ("weak_perturb_mode", NON_NEGATIVE_INT, "0"),
    ("weak", "bubbles"): ("weak_bubbles", _lines(_bubble), ""),
    ("weak", "dt"): ("weak_dt", POSITIVE, "1e-4"),
    ("weak", "area_drift_abort"): ("area_drift_abort", POSITIVE,
                                   repr(fllib.FlowConfig.area_drift_abort)),
}


def load_scenario(path) -> Scenario:
    """Read a scenario file against :data:`KEYS`.

    An unknown section or key, a key given twice, a missing section or
    required key and a value outside its domain are errors, and so are four
    rules between keys: a reference kind needs its key, a file reference
    needs a weak shape, a perturbation applies only to a circle datum, with
    a mode of at least 1 and below half the weak resolution, and a wavy
    shape's mode is below half of each resolution it is built at.  Each
    error is a ValueError that names the file, the section and the key (a
    line that is no key, its number).
    """
    def rejected(section, key, problem):
        return ValueError(f"{path}: [{section}] {key!r}: {problem}")

    cp = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    try:
        if not cp.read(path):
            raise FileNotFoundError(f"{path}: no such file")
    except configparser.DuplicateOptionError as exc:
        raise rejected(exc.section, exc.option, f"is given twice (line {exc.lineno})") from None
    except configparser.DuplicateSectionError as exc:
        raise ValueError(f"{path}: [{exc.section}] is given twice (line {exc.lineno})") from None
    except configparser.ParsingError as exc:
        # the first line read as neither; a ParsingError holds its repr
        lineno, line = (getattr(exc, "errors", None) or [(exc.lineno, repr(exc.line))])[0]
        raise ValueError(f"{path}: line {lineno}: must be '[section]' or, below one, "
                         f"'key = value', got {line}") from None
    if set(cp.sections()) != {section for section, _ in KEYS}:
        raise ValueError(f"{path}: has sections {cp.sections()}, not scenario, reference, weak")

    for section, key in ((s, k) for s in cp.sections() for k in cp[s]):
        if (section, key) not in KEYS:
            raise rejected(section, key, "unknown key")
    fields = {}
    for (section, key), (field, read, default) in KEYS.items():
        text = cp[section].get(key, default)
        if text is REQUIRED:
            raise rejected(section, key, "must be given")
        try:
            fields[field] = None if text is None else read(text)
        except ValueError as exc:
            raise rejected(section, key, exc) from None
    fields["name"] = fields["name"] or os.path.splitext(os.path.basename(path))[0]

    kind = fields["ref_kind"]
    if not fields[KEYS["reference", KIND_KEY[kind]][0]]:
        raise rejected("reference", KIND_KEY[kind], f"must be given with kind = {kind}")
    if kind == "file" and fields["weak_shape"] is None:
        raise rejected("weak", "shape", "must be given with kind = file")
    # the weak datum: its own shape, else the flow reference's, else a circle
    ref_shape = fields["ref_shape"] if kind == "flow" else None
    datum = fields["weak_shape"] or ref_shape or ("circle",)
    weak_key = "weak" if fields["weak_shape"] else "reference"    # where the datum is given
    for key, shape, at, n in (("reference", ref_shape, "reference", fields["ref_resolution"]),
                              (weak_key, datum, "weak", fields["weak_resolution"])):
        if shape and shape[0] == "wavy" and not shape[3] < n / 2:
            raise rejected(key, "shape", f"must have a mode below half the [{at}] "
                           f"resolution {n}, got {shape[3]}")
    amplitude, mode = fields["weak_perturb_amplitude"], fields["weak_perturb_mode"]
    if amplitude > 0.0 and datum[0] != "circle":
        raise rejected("weak", "perturb_amplitude", f"must be 0 on a datum that is not "
                       f"a circle, got {amplitude} on shape {datum[0]!r}")
    if amplitude > 0.0 and not 1 <= mode < fields["weak_resolution"] / 2:
        raise rejected("weak", "perturb_mode", f"must be an integer >= 1 and below half "
                       f"the weak resolution with a perturbation, got {mode}")
    return Scenario(**fields)


def _build_shape(shape: tuple, n: int, amplitude=0.0, mode=0) -> np.ndarray:
    kind = shape[0]
    if kind == "circle":
        if amplitude > 0 and mode > 0:
            return geo.make_wavy_circle(shape[1], amplitude, mode, n,
                                        normalize_area=True)
        return geo.make_circle((0.0, 0.0), shape[1], n)
    if kind == "ellipse":
        return geo.make_ellipse(shape[1], shape[2], n)
    return geo.make_wavy_circle(shape[1], shape[2], shape[3], n, normalize_area=True)


def _place_bubbles(rng, spec_list, reference, delta, existing: geo.PolyCurve):
    """Seeded disjoint bubble placement outside the calibration tube."""
    comps = np.split(existing.vertices, existing.layout.split)
    placed = []
    verts = existing.segments[0]
    lo, span = verts.min(axis=0), np.ptp(verts, axis=0)
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
                ok = all(np.hypot(cand[0] - px, cand[1] - py) >= 4.0 * (radius + pr)
                         for px, py, pr in placed)
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

    # the weak run and a flow reference both record the sample times
    times = np.linspace(0.0, scenario.end_time, scenario.sample_count)
    # reference
    if scenario.ref_kind == "circles":
        reference = cblib.AnalyticCircles(scenario.ref_circles)
    elif scenario.ref_kind == "file":
        curve = geo.read_curve_file(scenario.ref_file)
        reference = cblib.PolygonReference(fllib.Trajectory([0.0], [curve]))
        # every sample's stationary gradient ratio needs a union of circles:
        # reject any other curve before the weak flow runs
        enlib.require_constant_curvature(reference.geometry_at(0.0))
    else:                                 # flow
        datum = _build_shape(scenario.ref_shape, scenario.ref_resolution)
        # the reference takes only its dt and the horizon, never [weak] settings
        cfg = fllib.FlowConfig(dt=scenario.ref_dt, end_time=scenario.end_time)
        traj = fllib.make_reference(cfg, geo.PolyCurve([datum]), times)
        reference = cblib.PolygonReference(trajectory=traj)

    calib = cblib.Calibration(reference, scenario.delta)

    # weak initial datum: its own shape, else the flow reference's, else a
    # circle of the first reference circle's radius (a file reference has a shape)
    weak_shape = scenario.weak_shape or (scenario.ref_shape if scenario.ref_kind == "flow"
                                         else ("circle", scenario.ref_circles[0].radius))
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
    run = fllib.run_flow(weak_curve, cfg, times=times)

    summary = evaluate_run(run.states, calib)
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
    """A PASS Gronwall verdict and no worst slack below SLACK_FLOOR or NaN."""
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
        flux_constants = {name: getattr(b_field, name) for name in
                          ("support_radius", "div_sup", "sup_norm", "lipschitz", "bc_residual")}
        flux_constants.update(
            prefactor_abs=2.0 * b_field.support_radius / calib.delta * b_field.div_sup,
            small_component_factor=34.0 * b_field.div_sup,
            length_threshold=1.0 / b_field.sup_norm if b_field.sup_norm > 0 else None)
    slacks = {
        "pointwise_slack": pointwise,
        "bubble_slack": enlib.small_component_area_check(sample, xi_bound),
        "nu_dot_B_slack_abs": np.inf if nb is None else nb.slack_abs,
        "nu_dot_B_slack_scaled": np.inf if nb is None else nb.slack_scaled,
    }
    ratio = (enlib.stationary_gradient_ratio(rep, calib) if calib.reference.stationary
             else None)
    return rep, slacks, flux_constants, ratio


def evaluate_run(states: list, calib) -> dict:
    """Energy reports, inequality verdicts and the Gronwall fit of sampled states.

    ``states`` are ``flow.FlowState``s in time order, each with the normal
    velocity its D_V terms read; each is evaluated against ``calib``, one
    after another in time order.  ``flux_constants_final`` holds the B-field
    constants of the last sample, while each worst slack is the minimum over
    all samples: NaN if any sample's is, and None only if every sample's is
    inf.
    """
    floor = _quadrature_floor(states[0].geometry, calib.reference)
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

    worst = {key: np.min([s[key] for s in slacks]) for key in slacks[0]}
    return {
        "_reports": list(reports),
        "gronwall": gron_info,
        "worst_slacks": {k: None if v == np.inf else float(v) for k, v in worst.items()},
        "flux_constants_final": fluxes[-1],
        "stationary_gradient_ratio_max": None if ratios[0] is None else max(ratios),
    }


def _flow_diagnostics(run: fllib.FlowRun) -> dict:
    """Area drift and the mean dissipation-identity residuals of a run.

    Each residual is that of the one accepted step that landed on a recorded
    time; a run that landed on none has None for both means.
    """
    means = (np.mean([fllib.dissipation_identity_residual(a, b) for a, b in run.landings],
                     axis=0).tolist() if run.landings else [None, None])
    areas = np.array(run.area_series)
    return {
        "area_drift": float(np.max(np.abs(areas - areas[0])) / abs(areas[0])),
        "dissipation_residual_mean": means[0],
        "dissipation_residual_half_mean": means[1],
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
    width.  The reference interpolates between its recorded times;
    ``max_time_gap`` is the largest distance from a weak sample time to the
    nearest of them.  Returns 0 when the run passes, else 1.
    """
    weak = fllib.load_trajectory(weak_dir)
    strong = fllib.load_trajectory(strong_dir)
    calib = cblib.Calibration(cblib.PolygonReference(trajectory=strong), delta)
    states = [fllib.FlowState.initial(curve, float(t), k)
              for k, (t, curve) in enumerate(zip(weak.times, weak.curves))]
    summary = evaluate_run(states, calib)
    summary["delta"] = calib.delta
    summary["max_time_gap"] = float(np.abs(weak.times[:, None] - strong.times).min(axis=1).max())
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

def _option(read):
    """An option read by a scenario domain; a value outside it is a usage error."""
    def parse(text: str):
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="surfdiff",
                                     description="surface diffusion laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run scenario config files")
    p_sim.add_argument("configs", nargs="+")
    p_sim.add_argument("--out", default=None, help="output root override")
    p_sim.add_argument("--seed", type=_option(NON_NEGATIVE_INT), default=None)

    p_cmp = sub.add_parser("compare", help="weak vs strong trajectory")
    p_cmp.add_argument("weak")
    p_cmp.add_argument("strong")
    p_cmp.add_argument("--delta", type=_option(TUBE_WIDTH), default=None,
                       help="tube width: 'auto' (the default) or a positive number")
    p_cmp.add_argument("--out", default=None)

    p_rep = sub.add_parser("report", help="summarize an output directory")
    p_rep.add_argument("directory")

    args = parser.parse_args(argv)

    if args.command == "compare":
        return run_compare(args.weak, args.strong, args.delta, args.out)
    if args.command == "report":
        return run_report(args.directory)

    try:
        scenarios = [load_scenario(path) for path in args.configs]
    except (OSError, ValueError) as exc:
        print(f"surfdiff: {exc}", file=sys.stderr)
        return 1
    ok_all = True
    for path, scenario in zip(args.configs, scenarios):
        base = os.path.splitext(os.path.basename(path))[0]
        out = os.path.join(args.out, base) if args.out else None
        ok = passed(run_scenario(scenario, out_dir=out, seed=args.seed))
        print(f"{'PASS' if ok else 'FAIL'} scenario {scenario.name}")
        ok_all &= ok
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())

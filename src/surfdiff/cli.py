"""Scenario runner and verification harness.

Scenarios are INI files (configparser sections as nested tables) describing
a reference (analytic circles, a curve file, or a fine flow run), a weak run
(resolution, perturbation, seeded bubbles), the tube width and the time
horizon.  ``simulate`` produces trajectory exports, an energy-report CSV and
a JSON verdict summary; ``verify`` runs a named invariant suite without any
flow; ``compare`` evaluates a recorded weak trajectory against a recorded
strong one; ``report`` summarizes a finished output directory.

``simulate`` and ``compare`` share one evaluation path: the sampled weak
states go through :func:`evaluate_run`, the outputs through
:func:`write_outputs`, and :func:`passed` decides the exit status.  Only
``simulate`` has a flow run, so only its summary holds the flow diagnostics
(length monotonicity, area drift, dissipation-identity residuals).

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import calibration as cblib
from . import energy as enlib
from . import extension as exlib
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
    max_dt_growth: float = 1.2
    area_drift_abort: float = 1e-3


def _parse_shape(text: str) -> tuple:
    parts = text.split()
    kind = parts[0]
    if kind == "circle":
        return ("circle", float(parts[1]))
    if kind == "ellipse":
        return ("ellipse", float(parts[1]), float(parts[2]))
    if kind == "wavy":
        return ("wavy", float(parts[1]), float(parts[2]), int(parts[3]))
    raise ValueError(f"unknown shape {text!r}")


def load_scenario(path) -> Scenario:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(path)
    try:
        sc = cp["scenario"]
        ref = cp["reference"]
        weak = cp["weak"]
    except KeyError as exc:
        raise ValueError(f"{path}: missing section {exc}") from exc

    if sc.get("end_time") is None:
        raise ValueError(f"{path}: [scenario] needs 'end_time'")
    delta_raw = sc.get("delta", "auto").strip()
    circles = []
    for line in ref.get("circles", "").strip().splitlines():
        vals = line.split()
        if len(vals) != 4:
            raise ValueError(f"{path}: circle line needs 'cx cy R orient': {line!r}")
        circles.append(cblib.CircleSpec((float(vals[0]), float(vals[1])),
                                        float(vals[2]), int(vals[3])))
    bubbles = []
    braw = weak.get("bubbles", "").strip()
    if braw:
        for line in braw.splitlines():
            vals = line.split()
            if len(vals) not in (3, 4) or (vals[0] == "auto" and len(vals) != 3):
                raise ValueError(
                    f"{path}: bubble line needs 'auto count r' or 'cx cy r [n]': {line!r}")
            if vals[0] == "auto":
                bubbles.append(("auto", int(vals[1]), float(vals[2])))
            else:
                bubbles.append((float(vals[0]), float(vals[1]), float(vals[2]),
                                int(vals[3]) if len(vals) > 3 else 24))

    return Scenario(
        name=sc.get("name", os.path.splitext(os.path.basename(path))[0]),
        seed=sc.getint("seed", 0),
        delta=None if delta_raw == "auto" else float(delta_raw),
        end_time=sc.getfloat("end_time"),
        sample_count=sc.getint("sample_count", 12),
        out=sc.get("out", ""),
        ref_kind=ref.get("kind"),
        ref_circles=circles,
        ref_file=ref.get("file", None),
        ref_shape=_parse_shape(ref["shape"]) if ref.get("shape") else None,
        ref_resolution=ref.getint("resolution", 512),
        ref_dt=ref.getfloat("dt", 1e-4),
        weak_shape=_parse_shape(weak["shape"]) if weak.get("shape") else None,
        weak_resolution=weak.getint("resolution", 128),
        weak_perturb_amplitude=weak.getfloat("perturb_amplitude", 0.0),
        weak_perturb_mode=weak.getint("perturb_mode", 0),
        weak_bubbles=bubbles,
        weak_dt=weak.getfloat("dt", 1e-4),
        max_dt_growth=weak.getfloat("max_dt_growth", 1.2),
        area_drift_abort=weak.getfloat("area_drift_abort", 1e-3),
    )


def _build_shape(shape: tuple, n: int, amplitude=0.0, mode=0) -> geo.Component:
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
    comps = list(existing.components)
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
                comp = geo.make_circle((cx, cy), radius, nseg)
                comps.append(comp)
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
                if ok and np.min(np.linalg.norm(verts - cand, axis=1)) > 2.5 * delta:
                    comp = geo.make_circle(tuple(cand), radius, 24)
                    comps.append(comp)
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
        reference = cblib.PolygonReference(curve=curve)
        ref_datum = None
    elif scenario.ref_kind == "flow":
        datum = _build_shape(scenario.ref_shape, scenario.ref_resolution)
        cfg = fllib.FlowConfig(dt=scenario.ref_dt, end_time=scenario.end_time,
                               max_dt_growth=scenario.max_dt_growth,
                               area_drift_abort=scenario.area_drift_abort)
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
                           max_dt_growth=scenario.max_dt_growth,
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
    rep = enlib.dissipation_report(state.curve, sample, calib, b_field,
                                   state.normal_velocity)
    check = calib.pointwise_tilt_check(sample)
    rep.verdicts["pointwise"] = "PASS" if check.worst >= SLACK_FLOOR else "FAIL"
    xi_bound = calib.xi_grad_bound(t)
    bubbles = enlib.small_component_area_check(sample, xi_bound)
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
        }
    slacks = {
        "pointwise_slack": check.worst,
        "bubble_slack": min((b.slack for b in bubbles if b.applicable), default=np.inf),
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
        pick = np.unique(np.linspace(0, len(states) - 1, sample_count).astype(int))
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
    """Length monotonicity, area drift and the mean dissipation-identity residuals of a run.

    The residuals pair neighbouring recorded states, which are as many
    accepted steps apart as the run's sample stride when they were recorded.
    """
    residuals = []
    residuals_half = []
    for a, b in zip(run.states[:-1], run.states[1:]):
        if b.normal_velocity is None:
            continue
        full, half = fllib.dissipation_identity_residual(a, b)
        residuals.append(full)
        residuals_half.append(half)
    return {
        "length_monotone": bool(np.all(np.diff(run.length_series)
                                       <= 1e-13 * run.length_series[0])),
        "area_drift": float(np.max(np.abs(np.array(run.area_series)
                                          - run.area_series[0]))
                            / abs(run.area_series[0])),
        "dissipation_residual_mean": float(np.mean(residuals)) if residuals else None,
        "dissipation_residual_half_mean": (float(np.mean(residuals_half))
                                           if residuals_half else None),
    }


# ---------------------------------------------------------------------------
# verification suites (no flow)
# ---------------------------------------------------------------------------

def _suite_geometry():
    checks = []
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, 256)])
    geom = geo.build_geometry(curve)
    checks.append(("circle curvature", float(np.max(np.abs(geom.kappa - 1.0))) <= 1e-3,
                   f"max|kappa-1| = {np.max(np.abs(geom.kappa - 1.0)):.2e}"))
    residual = float(geo.gauss_bonnet_residual(geom)[0])
    checks.append(("gauss-bonnet", residual <= 1e-3, f"residual = {residual:.2e}"))
    ann = geo.PolyCurve([geo.make_circle((0, 0), 2.0, 256),
                         geo.make_circle((0, 0), 1.0, 256, -1)])
    forest = geo.jordan_decompose(ann)
    checks.append(("jordan annulus", forest.boundaries == [(0, 1), (1, -1)],
                   str(forest.boundaries)))
    per = abs(forest.total_perimeter(ann) - ann.length())
    checks.append(("perimeter additivity", per == 0.0, f"diff = {per:.1e}"))
    theta = np.arctan2(geom.vertices[:, 1], geom.vertices[:, 0])
    ratio = float(geo.poincare_ratio(geom, np.cos(theta), 2)[0])
    checks.append(("poincare cos", abs(ratio - 0.25) <= 1e-3, f"ratio = {ratio:.6f}"))
    f = np.sin(3 * geom.arc_positions)
    tele = abs(float(geo.integrate(geom, geo.dds(geom, f))[0]))
    checks.append(("closed-curve derivative sum", tele <= 1e-12, f"{tele:.1e}"))
    return checks


def _flow_solve_gap(geom, dt):
    """Largest relative gap between the flow step's band solve and a dense solve."""
    lay = geom.layout
    banded = fllib._normal_velocity(geom.vertices, geom.nu, geom.edge_lengths, geom.weights,
                                    lay.counts, dt)
    worst = 0.0
    for a, n in zip(lay.first, lay.counts):
        part = slice(a, a + n)
        h, w = geom.edge_lengths[part], geom.weights[part]
        hm = np.roll(h, 1)
        i = np.arange(n)
        lap = np.zeros((n, n))
        lap[i, (i + 1) % n] = 1.0 / (h * w)
        lap[i, i - 1] = 1.0 / (hm * w)
        lap[i, i] = -(1.0 / h + 1.0 / hm) / w
        kappa = -np.sum(geom.nu[part] * (lap @ geom.vertices[part]), axis=1)
        dense = np.linalg.solve(np.eye(n) + dt * lap @ (lap - np.diag(kappa**2)), lap @ kappa)
        worst = max(worst, float(np.max(np.abs(banded[part] - dense)) / np.max(np.abs(dense))))
    return worst


def _suite_poisson(convergence=False):
    from . import poisson as po

    def cos3_error(geom):
        theta = np.arctan2(geom.vertices[:, 1], geom.vertices[:, 0])
        phi = po.solve_zero_average(geom, np.cos(3 * theta))
        return float(np.sqrt(geo.integrate(geom, (phi + np.cos(3 * theta) / 9) ** 2))[0])

    checks = []
    geom = geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, 256)]))
    err = cos3_error(geom)
    checks.append(("manufactured cos3", err <= 1e-3, f"L2 err = {err:.2e}"))
    bubbly = geo.PolyCurve(
        [geo.make_ellipse(2.0, 1.0, 128)]
        + [geo.make_wavy_circle(0.1, 0.02, 3, 24, (3.0 + 0.5 * k, 2.0)) for k in range(4)])
    stacked = po.solve_zero_average(geo.build_geometry(bubbly), bubbly.segments[0][:, 0] ** 3)
    alone = [po.solve_zero_average(geo.build_geometry(geo.PolyCurve([c])), c.vertices[:, 0] ** 3)
             for c in bubbly.components]
    gap = max(float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
              for a, b in zip(np.split(stacked, bubbly.layout.split), alone))
    checks.append(("stacked = per-component solves", gap <= 1e-12, f"rel gap = {gap:.1e}"))
    gap = _flow_solve_gap(geo.build_geometry(bubbly), 1e-3)
    checks.append(("flow band solve = dense solve", gap <= 1e-9, f"rel gap = {gap:.1e}"))
    rng = np.random.default_rng(3)
    u, v = rng.normal(size=256), rng.normal(size=256)
    lhs = geo.integrate(geom, geo.d2ds2(geom, u) * v)[0]
    rhs = geo.integrate(geom, u * geo.d2ds2(geom, v))[0]
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-30)
    checks.append(("self-adjointness", rel <= 1e-10, f"rel = {rel:.1e}"))
    if convergence:
        errs = []
        for n in (64, 128, 256):
            uu = 2 * np.pi * np.arange(n) / n
            th = uu + 0.3 * np.sin(uu)
            comp = geo.Component(np.column_stack([np.cos(th), np.sin(th)]), 1)
            errs.append(cos3_error(geo.build_geometry(geo.PolyCurve([comp]))))
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        ok = 3.2 <= r1 <= 4.8 and 3.2 <= r2 <= 4.8
        checks.append(("order-2 convergence", ok, f"ratios = {r1:.2f}, {r2:.2f}"))
    return checks


def _suite_calibration():
    checks = []
    ref = cblib.AnalyticCircles([cblib.CircleSpec((0, 0), 1.0)])
    calib = cblib.Calibration(ref, 0.25)
    rng = np.random.default_rng(5)
    ang = rng.uniform(0, 2 * np.pi, 1000)
    rad = 1 + rng.uniform(-0.24, 0.24, 1000)
    pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    _, grad, _, _ = calib.query(pts)
    eik = float(np.max(np.abs(np.linalg.norm(grad, axis=1) - 1)))
    checks.append(("eikonal", eik <= 1e-8, f"max deviation = {eik:.1e}"))
    proj = calib.proj(pts)
    idem = float(np.max(np.linalg.norm(calib.proj(proj) - proj, axis=1)))
    checks.append(("projection idempotence", idem <= 1e-8 * calib.delta,
                   f"max = {idem:.1e}"))
    geom = geo.build_geometry(geo.PolyCurve([geo.make_wavy_circle(1.0, 0.05, 3, 256)]))
    rep = calib.pointwise_tilt_check(calib.sample(geom))
    checks.append(("pointwise tilt inequalities", rep.worst >= -1e-12,
                   f"worst slack = {rep.worst:.2e}"))
    return checks


def _suite_extension():
    checks = []
    n = 128
    curve = geo.PolyCurve([geo.make_circle((0, 0), 1.0, n)])
    geom = geo.build_geometry(curve)
    b = exlib.build_B(geom, np.cos(np.arctan2(geom.vertices[:, 1], geom.vertices[:, 0])), 0.25)
    checks.append(("boundary condition", b.bc_residual <= 1e-2,
                   f"sup residual = {b.bc_residual:.2e}"))
    interior = np.array([[0.0, 0.0], [0.5, 0.3], [0.9375, 0.0]])
    div = float(np.max(np.abs(b.divergence(interior))))
    checks.append(("interior harmonicity", div <= 1e-6, f"max |div| = {div:.1e}"))
    ref = cblib.AnalyticCircles([cblib.CircleSpec((0, 0), 1.0)])
    calib = cblib.Calibration(ref, 0.25)
    wav = geo.build_geometry(geo.PolyCurve([geo.make_wavy_circle(1.0, 0.05, 3, 256)]))
    res = exlib.gauss_wedge_residual(wav, b, calib)
    checks.append(("closed-form flux identity", res <= 1e-2, f"residual = {res:.2e}"))
    return checks


def _suite_energy():
    checks = []
    ref = cblib.AnalyticCircles([cblib.CircleSpec((0, 0), 1.0)])
    calib = cblib.Calibration(ref, 0.25)
    sample = calib.sample(geo.build_geometry(geo.PolyCurve([geo.make_circle((0, 0), 1.0, 256)])))
    e0 = enlib.relative_energy(sample)
    checks.append(("tilt energy vanishes on reference", abs(e0) <= 1e-10,
                   f"E = {e0:.1e}"))
    eps = 0.05
    big = geo.PolyCurve([geo.make_circle((0, 0), 1.0 + eps, 1024)])
    f = enlib.bulk_error(calib.sample(geo.build_geometry(big)), calib)
    f_exact = 2 * np.pi * (eps**2 / 2 + eps**3 / 3)
    rel = abs(f - f_exact) / f_exact
    checks.append(("annulus bulk formula", rel <= 1e-3, f"rel err = {rel:.1e}"))
    # xi replaced by a constant unit field: the tilt integral is the length
    unit = replace(sample, xi=np.tile([1.0, 0.0], (256, 1)))
    verd = enlib.small_component_area_check(unit, 0.0)
    checks.append(("small-component area bound", verd[0].slack >= 0,
                   f"slack = {verd[0].slack:.2f}"))
    return checks


SUITES = {
    "geometry": _suite_geometry,
    "poisson": lambda: _suite_poisson(False),
    "poisson-convergence": lambda: _suite_poisson(True),
    "calibration": _suite_calibration,
    "extension": _suite_extension,
    "energy": _suite_energy,
}


def run_suite(name: str) -> int:
    if name not in SUITES:
        print(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}",
              file=sys.stderr)
        return 2
    failures = 0
    for label, ok, detail in SUITES[name]():
        print(f"{'PASS' if ok else 'FAIL'} {name}/{label} ({detail})")
        failures += 0 if ok else 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# compare and report
# ---------------------------------------------------------------------------

def run_compare(weak_dir: str, strong_dir: str, delta: str, out: str | None) -> int:
    """Evaluate a recorded weak trajectory against a recorded strong one.

    Every weak sample is a flow state whose velocity is the PDE velocity
    d^2 kappa/ds^2 of its recorded curve; the states go through
    :func:`evaluate_run` and the outputs through :func:`write_outputs`, as a
    ``simulate`` run's do.  Returns 0 when the run passes, else 1.
    """
    weak = fllib.load_trajectory(weak_dir)
    reference = cblib.PolygonReference(trajectory=fllib.load_trajectory(strong_dir))
    calib = cblib.Calibration(reference, None if delta == "auto" else float(delta))
    states = []
    for k, (t, curve) in enumerate(zip(weak.times, weak.curves)):
        geom = geo.build_geometry(curve)
        states.append(fllib.FlowState(curve=curve, time=float(t), step_index=k, geometry=geom,
                                      normal_velocity=geo.d2ds2(geom, geom.kappa)))
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

def _simulate_one(args_tuple):
    path, out, seed = args_tuple
    scenario = load_scenario(path)
    return scenario.name, passed(run_scenario(scenario, out_dir=out, seed=seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="surfdiff",
                                     description="surface diffusion laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run scenario config files")
    p_sim.add_argument("configs", nargs="+")
    p_sim.add_argument("--out", default=None, help="output root override")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--jobs", type=int, default=1)

    p_ver = sub.add_parser("verify", help="run a named invariant suite")
    p_ver.add_argument("suite")

    p_cmp = sub.add_parser("compare", help="weak vs strong trajectory")
    p_cmp.add_argument("weak")
    p_cmp.add_argument("strong")
    p_cmp.add_argument("--delta", default="auto")
    p_cmp.add_argument("--out", default=None)

    p_rep = sub.add_parser("report", help="summarize an output directory")
    p_rep.add_argument("directory")

    args = parser.parse_args(argv)

    if args.command == "verify":
        return run_suite(args.suite)
    if args.command == "compare":
        return run_compare(args.weak, args.strong, args.delta, args.out)
    if args.command == "report":
        return run_report(args.directory)

    jobs = []
    for path in args.configs:
        out = None
        if args.out:
            base = os.path.splitext(os.path.basename(path))[0]
            out = os.path.join(args.out, base)
        jobs.append((path, out, args.seed))
    ok_all = True
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for name, ok in pool.map(_simulate_one, jobs):
                print(f"{'PASS' if ok else 'FAIL'} scenario {name}")
                ok_all &= ok
    else:
        for job in jobs:
            name, ok = _simulate_one(job)
            print(f"{'PASS' if ok else 'FAIL'} scenario {name}")
            ok_all &= ok
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())

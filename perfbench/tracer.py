"""Outside-in tracer for surfdiff: spans and counts from wrapped public functions.

The tracer never edits the program.  It replaces each listed function with a
wrapper in every ``surfdiff`` module that binds it (``from .geometry import
build_geometry`` leaves a second binding in ``flow``, ``calibration`` and the
package itself), and replaces each listed method on its class.  Spans
(name, start, end, parent) and counts stay in memory; the caller reads them
once, when the run has ended.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _points(args, kwargs, result):
    """Number of query points passed to a ``method(self, points, ...)``."""
    pts = kwargs["points"] if "points" in kwargs else args[1]
    shape = getattr(pts, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return int(shape[0])


def _bytes_under(args, kwargs, result):
    """Bytes written by ``export_trajectory(traj, directory)``."""
    directory = kwargs["directory"] if "directory" in kwargs else args[1]
    return sum(entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())


def _rejected_steps(args, kwargs, result):
    """Steps a finished ``run_flow`` rejected, as its ``FlowRun.rejected``.

    This counts the StepRejected raised inside ``step`` and the cumulative
    area-drift rejections that ``run_flow`` raises around it.
    """
    return result.rejected


PACKAGE = "surfdiff"

# (span name, module, attribute path, counter name, counter function).  These
# are the layer boundaries whose metrics the benchmark reports, plus the two
# entry points (run_scenario, run_flow) that root every span tree.
TARGETS = (
    ("geometry.PolyCurve", "geometry", "PolyCurve.__init__", None, None),
    ("geometry.build_geometry", "geometry", "build_geometry", None, None),
    ("geometry.check_embedded", "geometry", "check_embedded", None, None),
    ("geometry.points_in_component", "geometry", "points_in_component", None, None),
    ("geometry.CurveIndex.signed", "geometry", "CurveIndex.signed", "points", _points),
    ("flow.run_flow", "flow", "run_flow", "rejected", _rejected_steps),
    ("flow.step", "flow", "step", None, None),
    ("flow.make_reference", "flow", "make_reference", None, None),
    ("flow.dissipation_identity_residual", "flow", "dissipation_identity_residual",
     None, None),
    ("flow.export_trajectory", "flow", "export_trajectory", "bytes", _bytes_under),
    ("poisson.solve_zero_average", "poisson", "solve_zero_average", None, None),
    ("poisson.velocity_potential", "poisson", "velocity_potential", None, None),
    ("poisson.nu_dot_B_potential", "poisson", "nu_dot_B_potential", None, None),
    ("calibration.query", "calibration", "AnalyticCircles.query", "points", _points),
    ("calibration.query", "calibration", "PolygonReference.query", "points", _points),
    ("calibration.vartheta_at", "calibration", "Calibration.vartheta_at", "points", _points),
    ("calibration.pointwise_tilt_check", "calibration", "Calibration.pointwise_tilt_check",
     None, None),
    ("extension.build_B", "extension", "build_B", None, None),
    ("extension.BField.at", "extension", "BField.at", "points", _points),
    ("extension.BField.divergence", "extension", "BField.divergence", None, None),
    ("energy.bulk_error", "energy", "bulk_error", None, None),
    ("energy.dissipation_report", "energy", "dissipation_report", None, None),
    ("energy.nu_dot_B_sums", "energy", "nu_dot_B_sums", None, None),
    ("energy.relative_energy", "energy", "relative_energy", None, None),
    ("cli.run_scenario", "cli", "run_scenario", None, None),
    ("cli.evaluate_run", "cli", "evaluate_run", None, None),
)


class Tracer:
    """Span and count recorder; ``install`` wraps the targets, ``restore`` undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, count_name=None, count_fn=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter()
                stack.pop()
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if count_fn is not None:
                counts[f"{name}.{count_name}"] += count_fn(args, kwargs, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _modules(self):
        return [mod for key, mod in sorted(sys.modules.items())
                if mod is not None
                and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def install(self) -> None:
        for name, module, path, count_name, count_fn in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[attr]
                bindings = [(owner, attr)]
            else:
                original = getattr(mod, attr)
                bindings = [(other, key) for other in self._modules()
                            for key, value in list(vars(other).items())
                            if value is original]
            self._originals[id(original)] = original
            wrapper = self.wrap(name, original, count_name, count_fn)
            for owner, key in bindings:
                self._patched.append((owner, key, original))
                setattr(owner, key, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _is_original(self, value) -> bool:
        return id(value) in self._originals and self._originals[id(value)] is value

    def unwrapped_bindings(self) -> list[str]:
        """Module or class attributes that still hold an original target."""
        missed = []
        for mod in self._modules():
            for key, value in vars(mod).items():
                if self._is_original(value):
                    missed.append(f"{mod.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    missed += [f"{mod.__name__}.{value.__qualname__}.{attr}"
                               for attr, member in vars(value).items()
                               if self._is_original(member)]
        return missed

    # -- read-out ------------------------------------------------------------

    def spans(self):
        """(name, start, end, parent) tuples in call order."""
        return list(zip(self.names, self.starts, self.ends, self.parents))


def union_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        clipped = [(max(lo, start), min(hi, end)) for lo, hi in children[idx]
                   if hi > start and lo < end]
        out.append((end - start) - union_length(clipped))
    return out


def inclusive_times(spans) -> dict[str, float]:
    """Per-name duration, counting a span only if no ancestor has its name."""
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            totals[name] += end - start
    return totals


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def summarise(spans, counts, wall_start: float, wall_end: float) -> dict:
    """Per-name calls, inclusive and self seconds, durations and counts.

    ``outside_s`` is the part of [wall_start, wall_end] no span covers, so the
    self times of all spans plus ``outside_s`` add up to the wall time.
    """
    selfs = self_times(spans)
    inclusive = inclusive_times(spans)
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for (name, start, end, _), s in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += s
        durations[name].append(end - start)
    roots = [(max(start, wall_start), min(end, wall_end))
             for name, start, end, parent in spans if parent < 0]
    wall = wall_end - wall_start
    return {
        "calls": dict(calls),
        "s": dict(inclusive),
        "self_s": dict(self_s),
        "durations": dict(durations),
        "counts": dict(counts),
        "wall_s": wall,
        "self_sum_s": sum(selfs),
        "outside_s": wall - union_length(roots),
    }


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics the benchmark reports, as name -> (value, unit).

    A layer that did not run reads 0.  ``.s`` is inclusive seconds,
    ``.self_s`` inclusive seconds minus the time covered by child spans.
    """
    calls, incl, selfs = summary["calls"], summary["s"], summary["self_s"]
    counts, durations = summary["counts"], summary["durations"]
    samples = calls.get("calibration.pointwise_tilt_check", 0)
    step_calls = calls.get("flow.step", 0)
    # every step run_flow rejects, drift rejections included, so that the
    # count agrees with FlowRun.rejected and summary.json's rejected_steps
    rejected = counts.get("flow.run_flow.rejected", 0)
    out: dict[str, tuple[float, str]] = {}

    def per_name(name, *fields):
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = (float(calls.get(name, 0)), "count")
            elif field == "s":
                out[f"{name}.s"] = (incl.get(name, 0.0), "s")
            elif field == "self_s":
                out[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
            else:
                out[f"{name}.{field}"] = (float(counts.get(f"{name}.{field}", 0)),
                                          "B" if field == "bytes" else "count")

    per_name("geometry.PolyCurve", "calls", "self_s")
    per_name("geometry.build_geometry", "calls", "self_s")
    per_name("geometry.check_embedded", "self_s")
    per_name("geometry.points_in_component", "calls", "self_s")
    per_name("geometry.CurveIndex.signed", "points", "s")
    per_name("flow.run_flow", "calls", "self_s")
    per_name("flow.step", "calls", "self_s")
    out["flow.step.rejected"] = (float(rejected), "count")
    out["flow.step.accept_ratio"] = (
        (step_calls - rejected) / step_calls if step_calls else 0.0, "ratio")
    step_ms = [1e3 * d for d in durations.get("flow.step", [])]
    out["flow.step_ms.p50"] = (percentile(step_ms, 50), "ms")
    out["flow.step_ms.p99"] = (percentile(step_ms, 99), "ms")
    per_name("flow.make_reference", "s")
    per_name("flow.dissipation_identity_residual", "s")
    per_name("flow.export_trajectory", "s", "bytes")
    per_name("poisson.solve_zero_average", "calls", "self_s")
    per_name("poisson.velocity_potential", "s")
    per_name("poisson.nu_dot_B_potential", "s")
    per_name("calibration.query", "points", "self_s")
    query_points = counts.get("calibration.query.points", 0)
    out["calibration.query_points_per_sample"] = (
        query_points / samples if samples else 0.0, "count/sample")
    per_name("calibration.vartheta_at", "points")
    per_name("calibration.pointwise_tilt_check", "calls", "s")
    per_name("extension.build_B", "calls", "self_s")
    per_name("extension.BField.at", "points", "self_s")
    per_name("extension.BField.divergence", "s")
    per_name("energy.bulk_error", "calls", "self_s")
    bulk_ms = [1e3 * d for d in durations.get("energy.bulk_error", [])]
    out["energy.bulk_error.ms_per_call.p50"] = (percentile(bulk_ms, 50), "ms")
    per_name("energy.dissipation_report", "s")
    per_name("energy.nu_dot_B_sums", "s")
    per_name("energy.relative_energy", "s")
    per_name("cli.run_scenario", "self_s")
    per_name("cli.evaluate_run", "s")
    out["cli.evaluate_run.ms_per_sample"] = (
        1e3 * incl.get("cli.evaluate_run", 0.0) / samples if samples else 0.0, "ms")
    out["trace.wall_s"] = (summary["wall_s"], "s")
    out["trace.self_sum_s"] = (summary["self_sum_s"], "s")
    out["trace.outside_s"] = (summary["outside_s"], "s")
    return out

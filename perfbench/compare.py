"""Parent-vs-change comparison with identical benchmark code on both sides.

    python3 perfbench/compare.py --parent ../parent-checkout --change . \\
        --workload all --pairs 10 --seed 1 --out compare.json

Each side is the root of a source checkout.  The benchmark in this directory
runs against both: for pair i it measures both sides on seed ``seed + i``,
alternating which side goes first.  It then prints one row per workload and
end-to-end metric (each side's median and quartiles, the change's win
fraction, and a verdict), the largest relative difference of the E and F
series between the two sides, and the per-layer deltas of one traced run per
side.  Claim a gain on a development seed, then check it again with
``--seed 1001``, a seed kept back while the change was written.

Verdicts follow the choosing-metrics rule: ``failed`` when any run of the
change failed the correctness gate (the exit code is then 1); ``improved``
when at least ten pairs ran, the change wins at least nine tenths of them
and the medians differ by more than the parent's quartile spread;
``unresolved`` when the parent's own spread is wider than the metric's bound
and not every change run beats every parent run; ``worse`` when the change's
median is worse than the parent's by more than the bound; otherwise
``no worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import quartiles  # noqa: E402

BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
PAIR_TIMEOUT_S = 900
MIN_PAIRS = 10          # fewest pairs on which a gain may be claimed


def run_side(root: str, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run against the checkout at ``root``; RECORD plus result.

    A run whose outputs failed the correctness gate still returns its
    result, with ``failed`` > 0; a run that gave no result raises.
    """
    # no --seconds: run.py takes run_seconds from BENCHMARK.json
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=PAIR_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    records = [json.loads(line[len("RECORD "):]) for line in lines if line.startswith("RECORD ")]
    if not records:
        raise RuntimeError(f"benchmark failed in {root}:\n{proc.stderr[-4000:]}")
    return {"record": records[0], "result": json.loads(lines[-1])}


def verdict(parent: list[float], change: list[float], bound: float,
            lower_is_better: bool = True, change_failed: int = 0) -> tuple[str, float]:
    """(verdict, win fraction) for paired runs of one metric.

    A change with any run that failed the correctness gate is ``failed``,
    whatever its timings.
    """
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    win_frac = wins / len(parent)
    if change_failed:
        return "failed", win_frac
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    spread = p_q3 - p_q1
    if len(parent) >= MIN_PAIRS and win_frac >= 0.9 and sign * (p_med - c_med) > spread:
        return "improved", win_frac
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound * abs(p_med) and not all_better:
        return "unresolved", win_frac
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse", win_frac
    return "no worse", win_frac


def max_rel_diff(a: dict, b: dict) -> float | None:
    """Largest relative difference between the E and F series of two runs."""
    worst = None
    for key in ("E", "F"):
        xs, ys = a.get(key), b.get(key)
        if not xs or not ys:
            continue
        if len(xs) != len(ys):
            return float("inf")
        for x, y in zip(xs, ys):
            scale = max(abs(x), abs(y))
            d = 0.0 if scale == 0.0 else abs(x - y) / scale
            worst = d if worst is None else max(worst, d)
    return worst


def fmt_q(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def compare_workload(args, workload: str, spec: dict) -> dict:
    sides = {"parent": args.parent, "change": args.change}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: run_side(sides[side], workload, args.seed + i, 0)
                for side in order}
        pairs.append(pair)
        print(f"  pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    traced = {side: run_side(root, workload, args.seed, 1)
              for side, root in sides.items()}
    runs = {side: [p[side] for p in pairs] + [traced[side]] for side in sides}
    failed = {side: sum(r["result"]["failed"] for r in runs[side]) for side in sides}
    attempted = {side: sum(r["result"]["attempted"] for r in runs[side]) for side in sides}

    print(f"\nworkload {workload}  ({args.pairs} pairs, seeds {args.seed}.."
          f"{args.seed + args.pairs - 1})")
    print(f"  {'metric':<14} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'wins':>5}  verdict")
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        v, win = verdict(parent, change, metric["bound"], metric["better"] == "lower",
                         failed["change"])
        rows.append({"metric": name, "parent": parent, "change": change,
                     "verdict": v, "win_frac": win})
        print(f"  {name:<14} {fmt_q(parent):<32} {fmt_q(change):<32} {win:>5.2f}  {v}")
    for side in sides:
        print(f"  failed_frac {side}: {failed[side] / attempted[side]:.3g} "
              f"({failed[side]} of {attempted[side]} runs)")
    diffs = [max_rel_diff(p["parent"]["record"]["series"], p["change"]["record"]["series"])
             for p in pairs]
    diffs = [d for d in diffs if d is not None]
    same = sum(1 for p in pairs
               if p["parent"]["record"]["digests"][0] == p["change"]["record"]["digests"][0])
    if diffs:
        print(f"  largest relative difference of E and F: {max(diffs):.3e}")
    print(f"  byte-identical outputs in {same} of {len(pairs)} pairs")

    print(f"  {'per-layer metric (traced, seed ' + str(args.seed) + ')':<42} "
          f"{'parent':>12} {'change':>12} {'delta':>12}")
    layers = {}
    pm = traced["parent"]["result"]["metrics"]
    cm = traced["change"]["result"]["metrics"]
    for name in pm:
        a, b = pm[name]["value"], cm.get(name, {}).get("value", float("nan"))
        layers[name] = {"parent": a, "change": b, "unit": pm[name]["unit"]}
        print(f"  {name:<42} {a:>12.5g} {b:>12.5g} {b - a:>+12.4g} {pm[name]['unit']}")
    return {"rows": rows, "failed": failed, "attempted": attempted,
            "ef_max_rel_diff": max(diffs) if diffs else None,
            "identical_pairs": same, "layers": layers, "pairs": pairs, "traced": traced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", help="write every run's record to this JSON file")
    args = ap.parse_args(argv)
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    args.parent = os.path.abspath(args.parent)
    args.change = os.path.abspath(args.change)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: compare_workload(args, name, spec) for name in names}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
    failed = sum(r["failed"]["change"] for r in results.values())
    if failed:
        print(f"\nerror: {failed} run(s) of the change failed the correctness gate",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

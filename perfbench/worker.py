"""One benchmark process: set up a workload, optionally run it, write result.json.

Started by ``run.py`` as a fresh interpreter for every measurement, so that
set-up time and peak memory belong to that measurement alone.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
        --spawned-at T --mode setup|run|trace

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process; on Linux the clock is system-wide, so ``setup_s`` includes the
interpreter start, the imports and the input build.
"""

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracer import Tracer, summarise  # noqa: E402


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)

    # set-up: import surfdiff (and scipy with it) and build the inputs
    inputs = workloads.make_inputs(args.workload, args.seed)
    runner = workloads.prepare(args.workload, args.seed, inputs)
    setup_s = time.monotonic() - args.spawned_at
    record = {"mode": args.mode, "setup_s": setup_s}
    if args.mode == "setup":
        record.update(inputs=inputs, environment=_environment())
    else:
        outputs = os.path.join(args.out, "outputs")
        os.makedirs(outputs)
        tracer = None
        if args.mode == "trace":
            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        result = runner(outputs)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.restore()
            record["trace"] = summarise(tracer.spans(), tracer.counts, t0, t1)
        failures, series = workloads.check(args.workload, inputs, result, outputs)
        record.update(
            wall_s=t1 - t0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            digest=workloads.digest(outputs),
            failures=failures,
            series=series,
        )
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

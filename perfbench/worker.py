"""One measuring process: set up a workload, run whole passes, report.

Started by ``perfbench/run.py`` in a fresh interpreter with a pinned
environment, so no memo, cache or earlier workload can bias it::

    python3 perfbench/worker.py --workload paper-grid --seed 1 \\
        --seconds 5 --trace 0 --spawned-at <time.time() of the parent>

The last line of standard output is one JSON object with the raw
samples and checks; ``run.py`` aggregates several workers into the
benchmark's metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import numpy


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="report the set-up time and exit")
    parser.add_argument("--spans-out", default=None,
                        help="write the traced run's spans here (.tsv.gz)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    from perfbench import workloads
    from perfbench.tracer import RECORDER

    if args.trace:
        from perfbench import layers

        layers.install()
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed)
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from repro.obs.registry import REGISTRY

    registry_before = REGISTRY.snapshot()["timers"]
    ops = workload.pass_ops()
    outcomes_all = []
    #: first-pass outcome of each operation (None: it raised)
    first_pass = []
    attempted = failed = 0
    errors = []
    passes = 0
    request = 0
    deadline = time.perf_counter() + args.seconds
    finished = False
    while not finished:
        for index, op in enumerate(ops):
            # an untraced worker may stop mid-pass; the traced one keeps
            # whole passes, because its counts are per pass
            if passes and not args.trace and time.perf_counter() >= deadline:
                finished = True
                break
            request += 1
            RECORDER.request = request
            attempted += 1
            try:
                outcome = op.run()
            except Exception:  # a failed operation is counted, not fatal
                failed += 1
                errors.append(f"{op.label}: {traceback.format_exc(limit=3)}")
                outcome = None
            if passes == 0:
                first_pass.append(outcome)
            if outcome is None:
                continue
            reference = first_pass[index]
            if reference is not None and outcome.digest != reference.digest:
                outcome.errors.append(
                    f"{op.label}: simulated outputs differ between passes"
                )
            if outcome.errors:
                failed += 1
                errors.extend(outcome.errors)
            outcomes_all.append((op.label, outcome))
        else:
            passes += 1
            finished = time.perf_counter() >= deadline
        RECORDER.request = 0

    result = {
        "numpy": numpy.__version__,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        # key: the operation and the sample's place in it, so run.py
        # can take each operation's fastest repeat
        "samples": [
            [f"{label}#{index}", *s]
            for label, o in outcomes_all
            for index, s in enumerate(o.samples)
        ],
        "digest": None,
        "values": {},
    }
    if None not in first_pass:
        result["digest"] = workloads.digest_of(first_pass)
        result["values"] = workload.summarize(first_pass)
        result["values"].update(
            workload.host_values([o for _, o in outcomes_all])
        )
    if args.trace:
        from perfbench import layers

        after = REGISTRY.snapshot()["timers"]
        delta = {
            name: entry["total_s"]
            - registry_before.get(name, {"total_s": 0.0})["total_s"]
            for name, entry in after.items()
        }
        RECORDER.enabled = False
        result["per_layer"] = layers.per_layer_metrics(RECORDER, passes, delta)
        if args.spans_out:
            result["spans"] = RECORDER.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

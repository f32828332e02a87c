"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite-serial --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  Metric names,
units and workloads come from ``BENCHMARK.json``.  Times are reference
seconds, corrected for the host's speed at the moment they were taken
(see ``speed.py``); the wall-clock figures are printed too.  The human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Any output that fails its correctness check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one timed set-up sample in a fresh interpreter.
    parser.add_argument("--probe-setup", choices=workloads, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.probe_setup is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)

    from perfbench import workloads

    if args.probe_setup:
        workloads.probe_setup(args.probe_setup)
        return 0

    if args.workload == "served-routed":
        tally, tracer, service = workloads.run_served(args.seed, args.seconds, bool(args.trace))
    else:
        tally, tracer = workloads.run_in_process(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
        service = None

    if args.trace:
        table = spec["per_layer"]
        values = workloads.layer_metrics(tracer, tally, service)
    else:
        table = spec["end_to_end"]
        values = tally.end_to_end()

    print(
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
        f" trace={args.trace} nproc={workloads.nproc()}"
        f" python={platform.python_version()}"
    )
    for metric in table:
        print(f"{metric['name']:<34} {values[metric['name']]:>14.4f} {metric['unit']}")
    if not args.trace:
        for name, value in tally.wall_clock().items():
            print(f"{'wall_clock.' + name:<34} {value:>14.4f} (not speed-corrected)")
        for kind in ("dyn", "static"):
            removed = 100.0 - values[f"{kind}_mem_ops_remaining_pct"]
            print(f"{kind + '_mem_ops_removed_pct':<34} {removed:>14.4f} %")
    lat = tally.latencies_ms
    beyond = sum(1 for v in lat if v > workloads.percentile(sorted(lat), 95))
    print(f"{'latency_samples':<34} {len(lat):>14d} count ({beyond} beyond p95)")
    error_rate = tally.failed / max(tally.attempted, 1)
    print(f"{'error_rate':<34} {error_rate:>14.4f} ratio")
    if tracer is not None:
        print(f"{'pipeline.unaccounted_ms':<34} {tracer.unaccounted_ms():>14.6f} ms")
    for problem in tally.mismatches:
        print(f"MISMATCH {problem}")

    correct = not tally.mismatches
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in table
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

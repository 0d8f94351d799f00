"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-figs --seed 2024 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
workload untraced and then traced and prints the per-layer metrics.
The second-to-last stdout line is a JSON record of the host, the source
digest and the result digests; the last line is the result::

    {"correct": true, "attempted": 13, "failed": 0, "metrics": {...}}

The exit code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-figs", "massive-flows", "sharded-flows", "serve-mixed")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(workload: str, outcome, trace: bool) -> dict:
    """The final JSON object: every catalog metric, with its unit.

    A metric the workload should have measured but did not raises; only
    the other family's per-layer metrics (see ``catalog``) read 0.  A run
    that failed may stop before measuring and prints 0 in their place.
    """
    from perfbench.catalog import END_TO_END, PER_LAYER, measured_layers

    values = dict(outcome.metrics)
    if not trace:
        attempted = max(outcome.attempted, 1)
        values["success_ratio"] = 1.0 - outcome.failed / attempted
    catalog = PER_LAYER if trace else END_TO_END
    expected = measured_layers(workload) if trace else frozenset(END_TO_END)
    if set(values) != expected and not (outcome.failed and set(values) < expected):
        raise RuntimeError(
            f"{workload} measured {sorted(set(values) - expected)} it should "
            f"not and missed {sorted(expected - set(values))}"
        )
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in catalog.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "tests" / "golden").is_dir():
        print(
            f"error: {ROOT} has no src/repro or tests/golden; run the "
            "benchmark from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import serve, sim
    from perfbench.host import provenance

    trace = bool(args.trace)
    record = provenance(args.workload, args.seed, args.seconds, trace)
    if args.workload == "serve-mixed":
        outcome = serve.run(args.seed, args.seconds, trace)
    else:
        outcome = sim.run(args.workload, args.seed, args.seconds, trace)
    record["digests"] = outcome.digests
    record["problems"] = outcome.problems
    result = result_line(args.workload, outcome, trace)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Run as a script, this directory heads sys.path; its module names
    # (host, sim, serve, ...) must not shadow top-level imports.
    sys.path = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "perfbench"]
    sys.exit(main())

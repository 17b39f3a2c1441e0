"""The measured process: one workload, set up cold, timed, checked.

Started by ``run.py``, one process per run: it sets up the workload, runs
whole rounds until ``--seconds`` have passed, checks the outputs, and
prints one JSON object as its last line of standard output. With
``--trace 1`` it then runs one more round with the outside-in tracer
installed and reports per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

from tracing import Tracer
from workloads import WORKLOADS, ServeJsonl, clock

#: Per-layer metrics, in report order, with their units.
LAYER_METRICS: dict[str, str] = {
    "generation.busy_s": "s",
    "generation.quartets": "count",
    "ingest.parse_s": "s",
    "ingest.rows": "count",
    "ingest.batch_s": "s",
    "ingest.sanitize_s": "s",
    "ingest.dropped": "count",
    "learning.observe_s": "s",
    "learning.quartets": "count",
    "learning.table_s": "s",
    "learning.tables": "count",
    "fold.busy_s": "s",
    "fold.pairs": "count",
    "passive.busy_s": "s",
    "passive.quartets": "count",
    "passive.bad": "count",
    "background.busy_s": "s",
    "background.probes": "count",
    "tracking.busy_s": "s",
    "probing.busy_s": "s",
    "probing.probes": "count",
    "probing.denied": "count",
    "probing.useful_ratio": "ratio",
    "localization.busy_s": "s",
    "traceroute.probes": "count",
    "traceroute.busy_s": "s",
    "shard.wait_s": "s",
    "shard.fold_s": "s",
    "shard.runs": "count",
    "transport.bytes": "bytes",
    "store.save_s": "s",
    "store.saves": "count",
    "store.bytes": "bytes",
    "store.archive_s": "s",
    "daemon.steps": "count",
    "daemon.alerts": "count",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

#: Tracer layer → busy-time metric.
_BUSY = {
    "generation": "generation.busy_s",
    "ingest": "ingest.batch_s",
    "sanitize": "ingest.sanitize_s",
    "learning": "learning.observe_s",
    "learning.table": "learning.table_s",
    "fold": "fold.busy_s",
    "passive": "passive.busy_s",
    "background": "background.busy_s",
    "tracking": "tracking.busy_s",
    "probing": "probing.busy_s",
    "localization": "localization.busy_s",
    "traceroute": "traceroute.busy_s",
    "store": "store.save_s",
    "store.archive": "store.archive_s",
}


def layer_metrics(tracer: Tracer, traced, untraced_wall: float) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    values = {
        name: 0 if unit in ("count", "bytes") else 0.0
        for name, unit in LAYER_METRICS.items()
    }
    for layer, seconds in tracer.self_seconds().items():
        values[_BUSY[layer]] += seconds
    values.update(tracer.counts)
    extra = dict(traced.layer)
    # Worker-side layers of the sharded run, from the workers' own spans;
    # the workers generate and blame every quartet the report counts.
    if "worker.generation_s" in extra:
        values["generation.busy_s"] += extra.pop("worker.generation_s")
        values["passive.busy_s"] += extra.pop("worker.passive_s")
        values["generation.quartets"] += traced.report.total_quartets
        values["passive.quartets"] += traced.report.total_quartets
        values["passive.bad"] += traced.report.bad_quartets
    extra.pop("workers", None)
    values.update(extra)
    values["unattributed_s"] = (
        traced.wall_s - tracer.root_seconds() - values["shard.wait_s"]
    )
    values["trace.wall_s"] = traced.wall_s
    values["trace.overhead_s"] = traced.wall_s - untraced_wall
    return values


def host_steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine's CPUs
    (``steal`` in /proc/stat); 0.0 where that is not available."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--days", type=int, required=True)
    parser.add_argument("--world-seed", type=int, required=True)
    parser.add_argument("--work", type=pathlib.Path, required=True)
    parser.add_argument("--feed", type=pathlib.Path)
    parser.add_argument(
        "--spawned-at", type=float, required=True,
        help="time.monotonic() of the parent just before it started this process",
    )
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    common = (args.seed, args.days, args.world_seed, args.work)
    workload = cls(*common, feed=args.feed) if cls is ServeJsonl else cls(*common)
    try:
        workload.setup()
        workload.prepare()
        # From this process's start: interpreter, imports and set-up, less
        # the benchmark's own check of its input file.
        setup_s = time.monotonic() - args.spawned_at - getattr(workload, "check_s", 0.0)
        rounds = []
        begin = clock()
        while not rounds or clock() - begin < args.seconds:
            if rounds:
                workload.prepare()
            stolen = host_steal_s()
            rounds.append(workload.run_round())
            print(
                f"{args.workload}: round {len(rounds)} took {rounds[-1].wall_s:.3f} s; "
                f"the host took {host_steal_s() - stolen:.3f} CPU-s from this machine",
                file=sys.stderr,
            )
        metrics = workload.end_to_end(rounds)
        metrics["setup_s"] = (setup_s, "s")
        checked = list(rounds)
        if args.trace:
            workload.prepare()
            tracer = Tracer().install()
            try:
                traced = workload.run_round(traced=True)
            finally:
                tracer.uninstall()
            checked.append(traced)
            tracer.write(args.work / f"trace-{args.workload}-seed{args.seed}.jsonl")
            values = layer_metrics(
                tracer, traced, statistics.median(r.wall_s for r in rounds)
            )
            metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
        errors = workload.check(checked)
    finally:
        workload.close()
    for error in errors:
        print(f"{args.workload}: CHECK FAILED: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r.operations for r in checked),
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

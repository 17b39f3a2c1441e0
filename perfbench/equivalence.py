"""Show that the serve-jsonl daemon's report equals a batch run's.

Runs the ``serve-jsonl`` workload's daemon over its JSONL feed, then the
sequential pipeline's batch ``run()`` over the same range, with the same
config, warm-up and seeds, generating the buckets itself. Prints both
report digests and exits 0 when they are equal::

    python3 perfbench/equivalence.py --seed 1 --days 4

The feed is written first unless ``perfbench/.work`` already holds the
one for these seeds.
"""

from __future__ import annotations

import argparse
import pathlib
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.core.config import BlameItConfig  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.sim.scenario import Scenario  # noqa: E402
from repro.store import CheckpointStore  # noqa: E402

import checks  # noqa: E402
import loadgen  # noqa: E402
from run import DAYS, WORLD_SEED, feed_is_current  # noqa: E402
from workloads import SERVE_WARMUP_STRIDE, ServeJsonl, sequential_pipeline  # noqa: E402


def compare(seed: int, days: int, work: pathlib.Path) -> tuple[str, str]:
    """Digests of the daemon's report and of the batch run's."""
    feed = work / "serve-jsonl.jsonl"
    if not feed_is_current(seed, days, WORLD_SEED, feed):
        loadgen.generate(feed, seed, days, WORLD_SEED)
    serve = ServeJsonl(seed, days, WORLD_SEED, work, feed=feed)
    try:
        serve.setup()
        serve.prepare()
        daemon_report = serve.run_round().report
    finally:
        serve.close()
    store_dir = work / "store-batch"
    shutil.rmtree(store_dir, ignore_errors=True)
    store = CheckpointStore(store_dir)
    try:
        pipeline = sequential_pipeline(
            Scenario.from_world(serve.world),
            config=BlameItConfig(history_days=1),
            metrics=MetricsRegistry(),
            store=store,
            seed=seed,
        )
        pipeline.warmup(0, serve.start, stride=SERVE_WARMUP_STRIDE)
        batch_report = pipeline.run(serve.start, serve.end)
    finally:
        store.close()
        shutil.rmtree(store_dir, ignore_errors=True)
    return checks.report_digest(daemon_report), checks.report_digest(batch_report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--days", type=int, default=DAYS["serve-jsonl"])
    parser.add_argument("--work", type=pathlib.Path, default=HERE / ".work")
    args = parser.parse_args(argv)
    daemon, batch = compare(args.seed, args.days, args.work)
    print(f"daemon report {daemon}\nbatch report  {batch}")
    if daemon != batch:
        print("the daemon's report differs from the batch run's", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

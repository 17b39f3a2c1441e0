"""Load generator for the ``serve-jsonl`` workload.

Writes the JSON-lines quartet feed the daemon ingests, from the same
world seed and quartet seed the measured process uses, and records
beside it what the daemon's report must say about it:

* ``rows``: quartets written (the report's ``total_quartets``);
* ``bad``: rows that meet the paper's badness rule, counted as they are
  written (at least ``min_quartet_samples`` samples and a mean RTT at or
  above ``scenario.rtt_target_ms(region, mobile)``; the report's
  ``bad_quartets``);
* ``sha256``: a checksum of the file, which the measured process checks
  before it starts its clock.

Bucket ``t`` is drawn from a generator seeded by ``(seed, t)``, the same
per-bucket seeding the pipeline uses, so the feed is a pure function of
the two seeds. Run it on its own to make the file anew::

    python3 perfbench/loadgen.py --seed 1 --out perfbench/.work/serve-jsonl.jsonl
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.core.config import BlameItConfig  # noqa: E402
from repro.perf.batch import BatchQuartetGenerator  # noqa: E402
from repro.serve.source import write_quartets_jsonl  # noqa: E402
from repro.sim.scenario import Scenario  # noqa: E402

import checks  # noqa: E402
from run import DAYS, WORLD_SEED  # noqa: E402
from workloads import serve_range, world_for  # noqa: E402


def meta_path(path: pathlib.Path) -> pathlib.Path:
    """Where the counts and checksum of a feed are recorded."""
    return path.with_name(path.name + ".meta.json")


def generate(
    path: pathlib.Path, seed: int, days: int, world_seed: int = WORLD_SEED
) -> dict:
    """Write the feed for ``days`` served days and its meta record."""
    scenario = Scenario.from_world(world_for(world_seed, days))
    generator = BatchQuartetGenerator(scenario)
    min_samples = BlameItConfig().min_quartet_samples
    start, end = serve_range(days)
    bad = 0

    def rows():
        nonlocal bad
        for time in range(start, end):
            batch = generator.generate(time, rng=np.random.default_rng((seed, time)))
            for quartet in batch.to_quartets():
                if quartet.n_samples >= min_samples and (
                    quartet.mean_rtt_ms
                    >= scenario.rtt_target_ms(quartet.region, quartet.mobile)
                ):
                    bad += 1
                yield quartet

    path.parent.mkdir(parents=True, exist_ok=True)
    # A feed without its meta record is never taken for a finished one.
    meta_path(path).unlink(missing_ok=True)
    written = write_quartets_jsonl(path, rows())
    meta = {
        "world_seed": world_seed,
        "seed": seed,
        "days": days,
        "start": start,
        "end": end,
        "rows": written,
        "bad": bad,
        "bytes": path.stat().st_size,
        "sha256": checks.file_sha256(path),
    }
    meta_path(path).write_text(json.dumps(meta, indent=1), encoding="utf-8")
    return meta


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="quartet seed")
    parser.add_argument("--world-seed", type=int, default=WORLD_SEED)
    parser.add_argument("--days", type=int, default=DAYS["serve-jsonl"], help="served days")
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    meta = generate(args.out, args.seed, args.days, args.world_seed)
    print(json.dumps(meta), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

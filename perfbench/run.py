"""BlameIt benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload month-seq --seed 1 --seconds 5 --trace 0

Run from the root of a checkout. Workloads (see README.md):

* ``month-seq``     30 days through the sequential pipeline;
* ``month-sharded`` the same month through ``ShardedPipeline``, one worker
  per CPU;
* ``serve-jsonl``   4 days through the streaming daemon, fed a JSONL file.

For ``serve-jsonl`` the load generator (``loadgen.py``) first writes the
feed in a process of its own. The workload itself runs in a fresh
process (``measure.py``), whose start is the zero of ``setup_s``. The
last line of standard output is the result::

    {"correct": true, "attempted": 8640, "failed": 0, "metrics": {...}}

The exit code is 0 when the run finished and its outputs checked out.
Inputs, traces and scratch files go to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
FEED = WORK / "serve-jsonl.jsonl"

WORKLOADS = ("month-seq", "month-sharded", "serve-jsonl")
#: Days each workload serves after its warm-up day (``--days`` overrides,
#: for the tests).
DAYS = {"month-seq": 30, "month-sharded": 30, "serve-jsonl": 4}
#: The world every workload runs on (default size, 824 slots).
WORLD_SEED = 2026
#: Every run, load generation included, ends within this many seconds.
DEADLINE_S = 170.0


def _run(cmd: list[str], env: dict, deadline: float, **kwargs) -> subprocess.CompletedProcess:
    """Run a child in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        # Reap anything the child left behind in its group (pool workers).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return subprocess.CompletedProcess(cmd, proc.returncode, out, None)


def feed_is_current(seed: int, days: int, world_seed: int, feed: pathlib.Path = FEED) -> bool:
    """Whether ``feed`` was written for these seeds and days."""
    meta = feed.with_name(feed.name + ".meta.json")
    if not (feed.exists() and meta.exists()):
        return False
    recorded = json.loads(meta.read_text(encoding="utf-8"))
    return (recorded["seed"], recorded["days"], recorded["world_seed"]) == (
        seed, days, world_seed
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="quartet seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="run whole rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced round and report per-layer metrics")
    parser.add_argument("--days", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--world-seed", type=int, default=WORLD_SEED)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no BlameIt source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    days = args.days or DAYS[args.workload]
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Scratch files the program makes (shipped tables) stay in the checkout.
    env["TMPDIR"] = str(WORK / "tmp")

    if args.workload == "serve-jsonl" and not feed_is_current(
        args.seed, days, args.world_seed
    ):
        gen = _run(
            [sys.executable, str(HERE / "loadgen.py"), "--seed", str(args.seed),
             "--days", str(days), "--world-seed", str(args.world_seed),
             "--out", str(FEED)],
            env, deadline,
        )
        if gen.returncode != 0:
            print("error: the load generator failed", file=sys.stderr)
            return 1

    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--days", str(days), "--world-seed", str(args.world_seed),
        "--work", str(WORK), "--feed", str(FEED),
    ]
    spawned_at = time.monotonic()
    result = _run(cmd + ["--spawned-at", repr(spawned_at)], env, deadline,
                  stdout=subprocess.PIPE, text=True)
    lines = result.stdout.strip().splitlines()
    if not lines:
        print(f"error: {args.workload} printed no result", file=sys.stderr)
        return result.returncode or 1
    print(lines[-1])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())

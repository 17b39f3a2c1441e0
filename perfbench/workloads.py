"""The three workloads: what each builds, runs, times and checks.

Each workload has a set-up (timed once per process, cold, as
``setup_s``), rounds (the timed part; every round is the same job on the
same inputs and must give the same report), and checks made apart from
the pipeline. Drivers are reached only through their public entry
points. The one constructor argument beyond the defaults is per-bucket
seeding (``rng_per_bucket=True``) on the sequential pipeline, set in
:func:`sequential_pipeline` alone: the checkpoint store needs it, and it
makes the sequential driver draw the same quartets as the sharded one.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BlameItConfig
from repro.core.pipeline import BlameItPipeline, PipelineReport
from repro.core.thresholds import ExpectedRTTLearner
from repro.obs import MetricsRegistry
from repro.perf.sharded import ShardedPipeline
from repro.serve import BlameItDaemon, JsonlSource
from repro.serve.source import BucketSource
from repro.sim.scenario import BUCKETS_PER_DAY, Scenario, ScenarioParams, build_world
from repro.store import CheckpointStore

import checks

#: Warm-up strides: the month benches' (every 6th bucket) and the
#: ``serve`` verb's (every 3rd).
MONTH_WARMUP_STRIDE = 6
SERVE_WARMUP_STRIDE = 3

clock = time.perf_counter


def world_for(world_seed: int, days: int):
    """The default world, long enough for a warm-up day plus ``days``."""
    return build_world(ScenarioParams(seed=world_seed, duration_days=days + 1))


def serve_range(days: int) -> tuple[int, int]:
    """Buckets served after the warm-up day."""
    return BUCKETS_PER_DAY, BUCKETS_PER_DAY + days * BUCKETS_PER_DAY


def sequential_pipeline(scenario: Scenario, **kwargs) -> BlameItPipeline:
    """The sequential driver with per-bucket seeding (see module doc)."""
    return BlameItPipeline(scenario, rng_per_bucket=True, **kwargs)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or of the largest reaped child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Round:
    """One timed round: wall seconds, the report, and what it covered."""

    wall_s: float
    report: PipelineReport
    operations: int
    layer: dict = field(default_factory=dict)


class Workload:
    """Set-up, rounds and checks shared by the three workloads."""

    name = ""

    def __init__(self, seed: int, days: int, world_seed: int, work: pathlib.Path):
        self.seed = seed
        self.days = days
        self.world_seed = world_seed
        self.work = work
        self.start, self.end = serve_range(days)

    def setup(self) -> None:
        """Set-up done once per process, before the first :meth:`prepare`."""

    def prepare(self) -> None:
        """Build what the next round consumes, from the world up, so that
        every round starts as cold as a run of the CLI does. Untimed,
        except that the first call is part of set-up."""

    def run_round(self, traced: bool = False) -> Round:
        raise NotImplementedError

    def check(self, rounds: list[Round]) -> list[str]:
        """Errors in the outputs; every round must give one report."""
        digests = {checks.report_digest(r.report) for r in rounds}
        if len(digests) > 1:
            return [f"{len(digests)} different reports from {len(rounds)} rounds"]
        return []

    def end_to_end(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        # Medians over rounds: a round that the host slowed counts once.
        rate = statistics.median(r.report.total_quartets / r.wall_s for r in rounds)
        per_step = statistics.median(1000.0 * r.wall_s / r.operations for r in rounds)
        return {
            "quartets_per_s": (rate, "quartets/s"),
            "peak_rss_mb": (self.peak_rss_mb(), "MB"),
            # A batch run has no per-bucket latency a user waits for; the
            # step figures are its wall time per bucket (see README).
            "step_p50_ms": (per_step, "ms"),
            "step_p90_ms": (per_step, "ms"),
        }

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        """Release what set-up made (files under the work directory)."""


class MonthSeq(Workload):
    """30 days through the sequential pipeline against a fixed table."""

    name = "month-seq"

    def prepare(self) -> None:
        self.world = world_for(self.world_seed, self.days)
        self.scenario = Scenario.from_world(self.world)
        learner = ExpectedRTTLearner()
        sequential_pipeline(self.scenario, learner=learner).warmup(
            0, self.start, stride=MONTH_WARMUP_STRIDE
        )
        self.table = learner.table()

    def run_round(self, traced: bool = False) -> Round:
        begin = clock()
        pipeline = sequential_pipeline(
            self.scenario, fixed_table=self.table, seed=self.seed
        )
        report = pipeline.run(self.start, self.end)
        wall = clock() - begin
        return Round(wall, report, self.end - self.start, _active_layer(pipeline, report))

    def check(self, rounds: list[Round]) -> list[str]:
        errors = super().check(rounds)
        stored = checks.Expected(self.work, self.world_seed, self.days, self.seed)
        expected = checks.Recount.from_dict(
            stored.get(
                "recount",
                lambda: checks.recount(
                    self.world, self.seed, self.start, self.end
                ).to_dict(),
            )
        )
        report = rounds[0].report
        errors += checks.check_against_recount(report, expected)
        sequential = stored.get("sequential", lambda: self.sequential_digest(report))
        if sequential != checks.report_digest(report):
            errors.append(f"{self.name} report differs from the sequential driver's")
        return errors

    def sequential_digest(self, report: PipelineReport) -> str:
        """Digest of the sequential driver's report for this month."""
        return checks.report_digest(report)


class MonthSharded(MonthSeq):
    """The same month through ``ShardedPipeline``, one worker per CPU."""

    name = "month-sharded"

    def run_round(self, traced: bool = False) -> Round:
        workers = len(os.sched_getaffinity(0))
        begin = clock()
        pipeline = ShardedPipeline(
            self.scenario,
            fixed_table=self.table,
            seed=self.seed,
            n_workers=workers,
            # Worker-side layers are read from the workers' own spans.
            metrics=MetricsRegistry() if traced else None,
        )
        try:
            report = pipeline.run(self.start, self.end)
        finally:
            pipeline.close()
        wall = clock() - begin
        layer = _active_layer(pipeline.pipeline, report)
        spans = (report.metrics or {}).get("spans", {})
        counters = (report.metrics or {}).get("counters", {})
        layer.update(
            {
                "shard.wait_s": pipeline.stage_seconds["shard_wait"],
                "shard.fold_s": pipeline.stage_seconds["fold"],
                "shard.runs": counters.get("shard.runs", 0),
                "transport.bytes": pipeline.transport_stats["shm_bytes"]
                + pipeline.transport_stats["pickle_bytes"],
                "worker.generation_s": spans.get("phase.generation", {}).get("total", 0.0),
                "worker.passive_s": spans.get("passive.vectorized", {}).get("total", 0.0),
                "workers": workers,
            }
        )
        return Round(wall, report, self.end - self.start, layer)

    def sequential_digest(self, report: PipelineReport) -> str:
        return checks.report_digest(
            sequential_pipeline(
                self.scenario, fixed_table=self.table, seed=self.seed
            ).run(self.start, self.end)
        )

    def peak_rss_mb(self) -> float:
        return max(peak_rss_mb(), peak_rss_mb(children=True))


class StepClock(BucketSource):
    """Source wrapper that notes when the daemon asks for each bucket."""

    def __init__(self, inner: BucketSource) -> None:
        self.inner = inner
        self.asks: list[float] = []

    def next_batch(self, time_):
        self.asks.append(clock())
        return self.inner.next_batch(time_)

    def replay(self, times):
        return self.inner.replay(times)


class ServeJsonl(Workload):
    """The daemon over a JSONL feed, configured as the ``serve`` verb is."""

    name = "serve-jsonl"

    def __init__(self, *args, feed: pathlib.Path, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.feed = feed
        self.meta = json.loads(
            feed.with_name(feed.name + ".meta.json").read_text(encoding="utf-8")
        )
        self.check_s = 0.0
        self.parse_s = 0.0
        self.steps: list[float] = []
        self._round = 0

    def setup(self) -> None:
        # Checked before the clock counts: this is the benchmark's work.
        begin = clock()
        self.feed_errors = checks.check_feed(self.feed, self.meta)
        if (self.meta["seed"], self.meta["world_seed"], self.meta["days"]) != (
            self.seed, self.world_seed, self.days
        ):
            self.feed_errors.append(f"feed was written for other seeds: {self.meta}")
        self.check_s = clock() - begin
        begin = clock()
        self.source = JsonlSource(self.feed)
        self.parse_s = clock() - begin

    def prepare(self) -> None:
        self.world = world_for(self.world_seed, self.days)
        self._round += 1
        self.store_dir = self.work / f"store-{os.getpid()}-{self._round}"
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.store = CheckpointStore(self.store_dir)
        self.alerts_path = self.work / f"alerts-{os.getpid()}-{self._round}.jsonl"
        self.alerts_file = open(self.alerts_path, "w", encoding="utf-8")
        pipeline = sequential_pipeline(
            Scenario.from_world(self.world),
            config=BlameItConfig(history_days=1),
            metrics=MetricsRegistry(),
            store=self.store,
            seed=self.seed,
        )
        pipeline.warmup(0, self.start, stride=SERVE_WARMUP_STRIDE)
        self.clock = StepClock(self.source)
        self.alert_count = 0

        def sink(alert) -> None:
            self.alerts_file.write(json.dumps(checks.alert_row(alert)) + "\n")
            self.alerts_file.flush()
            self.alert_count += 1

        self.daemon = BlameItDaemon(
            pipeline,
            self.start,
            self.end,
            source=self.clock,
            checkpoint_every=BUCKETS_PER_DAY,
            retention_days=1,
            alert_sink=sink,
        )

    def run_round(self, traced: bool = False) -> Round:
        begin = clock()
        report = self.daemon.run()
        done = clock()
        self.alerts_file.close()
        self.store.close()
        asks = self.clock.asks
        self.steps.extend(np.diff(np.array(asks + [done])).tolist())
        pipeline = self.daemon.pipeline
        layer = _active_layer(pipeline, report)
        layer.update(
            {
                "daemon.steps": len(asks),
                "daemon.alerts": self.alert_count,
                "store.bytes": _tree_bytes(self.store_dir),
                "ingest.parse_s": self.parse_s,
            }
        )
        self.last_alerts = [
            json.loads(line)
            for line in self.alerts_path.read_text(encoding="utf-8").splitlines()
        ]
        return Round(done - begin, report, len(asks), layer)

    def check(self, rounds: list[Round]) -> list[str]:
        return (
            self.feed_errors
            + super().check(rounds)
            + checks.check_serve(rounds[0].report, self.meta, self.last_alerts)
        )

    def end_to_end(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        metrics = super().end_to_end(rounds)
        steps_ms = 1000.0 * np.array(self.steps)
        metrics["step_p50_ms"] = (float(np.percentile(steps_ms, 50)), "ms")
        metrics["step_p90_ms"] = (float(np.percentile(steps_ms, 90)), "ms")
        return metrics

    def close(self) -> None:
        for path in self.work.glob(f"store-{os.getpid()}-*"):
            shutil.rmtree(path, ignore_errors=True)
        for path in self.work.glob(f"alerts-{os.getpid()}-*.jsonl"):
            path.unlink()


def _active_layer(pipeline: BlameItPipeline, report: PipelineReport) -> dict:
    """Counts the program already keeps for the active and probing layers."""
    on_demand = report.probes_on_demand
    useful = sum(
        1
        for item in report.localized
        if item.category == "middle" and item.verdict is not None
        and item.verdict.asn is not None
    )
    return {
        "background.probes": report.probes_background,
        "probing.probes": on_demand,
        "probing.denied": pipeline.on_demand.budget.denied_total,
        "probing.useful_ratio": useful / on_demand if on_demand else 0.0,
    }


def _tree_bytes(root: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


WORKLOADS = {cls.name: cls for cls in (MonthSeq, MonthSharded, ServeJsonl)}

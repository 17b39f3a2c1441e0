"""Output checks, computed apart from the pipeline under test.

Every run checks its outputs before its timings count:

* :func:`recount` regenerates the run's buckets from the seeds and counts,
  with plain NumPy, the quartets and the quartets that meet the paper's
  badness rule, per day. The batch workloads' reports must match it.
* :func:`report_digest` hashes a report without its metrics, so two
  drivers (or two rounds) can be held to one report.
* :func:`check_feed` and :func:`check_serve` hold the daemon to the load
  generator's own counts and its streamed alerts to the final report.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BlameItConfig
from repro.core.pipeline import PipelineReport
from repro.io import report_to_dict
from repro.perf.batch import BatchQuartetGenerator
from repro.sim.scenario import BUCKETS_PER_DAY, Scenario, World

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@dataclass
class Recount:
    """Quartet and bad-quartet counts of a bucket range."""

    total: int = 0
    bad: int = 0
    bad_by_day: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"total": self.total, "bad": self.bad,
                "bad_by_day": {str(d): n for d, n in self.bad_by_day.items()}}

    @classmethod
    def from_dict(cls, data: dict) -> "Recount":
        return cls(data["total"], data["bad"],
                   {int(d): n for d, n in data["bad_by_day"].items()})


def recount(world: World, seed: int, start: int, end: int) -> Recount:
    """Count buckets ``[start, end)`` regenerated from ``(seed, bucket)``.

    A quartet counts when its fields are valid input (finite positive
    RTT, at least one sample, non-negative users); it is bad when it
    also has at least ``min_quartet_samples`` samples and a mean RTT at
    or above its region's target.
    """
    scenario = Scenario.from_world(world)
    generator = BatchQuartetGenerator(scenario)
    min_samples = BlameItConfig().min_quartet_samples
    result = Recount()
    targets: dict[tuple, np.ndarray] = {}
    for time in range(start, end):
        batch = generator.generate(time, rng=np.random.default_rng((seed, time)))
        if batch.regions not in targets:
            targets[batch.regions] = np.array(
                [
                    [scenario.rtt_target_ms(region, mobile) for region in batch.regions]
                    for mobile in (False, True)
                ]
            )
        rtt = batch.mean_rtt_ms
        valid = (
            np.isfinite(rtt) & (rtt > 0) & (batch.n_samples >= 1) & (batch.users >= 0)
        )
        target = targets[batch.regions][batch.mobile.astype(int), batch.region_index]
        bad = valid & (batch.n_samples >= min_samples) & (rtt >= target)
        result.total += int(valid.sum())
        n_bad = int(bad.sum())
        result.bad += n_bad
        day = time // BUCKETS_PER_DAY
        result.bad_by_day[day] = result.bad_by_day.get(day, 0) + n_bad
    return result


def source_fingerprint(src: pathlib.Path = SRC) -> str:
    """SHA-256 over the program's source files, names and contents."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Expected:
    """Results of the checks' own computations, kept per seeds and source.

    The two month workloads check against the same recount and the same
    sequential report; whichever runs first on a seed computes them and
    the other reads them, keyed by the program's source fingerprint so a
    changed program never meets a stale answer.
    """

    def __init__(self, work: pathlib.Path, world_seed: int, days: int, seed: int):
        key = f"{world_seed}-{days}-{seed}-{source_fingerprint()[:16]}"
        self.path = work / "expected" / f"{key}.json"
        self._values = (
            json.loads(self.path.read_text(encoding="utf-8"))
            if self.path.exists() else {}
        )

    def get(self, name: str, compute):
        """The stored value of ``name``, computed and stored if missing."""
        if name not in self._values:
            self._values[name] = compute()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(self._values), encoding="utf-8")
        return self._values[name]


def check_against_recount(report: PipelineReport, expected: Recount) -> list[str]:
    """Errors where a batch report disagrees with the recount."""
    errors = []
    if report.total_quartets != expected.total:
        errors.append(
            f"total_quartets {report.total_quartets} != recount {expected.total}"
        )
    if report.bad_quartets != expected.bad:
        errors.append(f"bad_quartets {report.bad_quartets} != recount {expected.bad}")
    for day, bad in sorted(expected.bad_by_day.items()):
        blamed = sum(report.blame_counts_by_day.get(day, {}).values())
        if blamed != bad:
            errors.append(f"day {day}: {blamed} quartets blamed != recount {bad}")
    return errors


def report_digest(report: PipelineReport) -> str:
    """SHA-256 of a report's content, its metrics left out."""
    summary = report_to_dict(report)
    summary.pop("metrics", None)
    summary["blame_counts_by_day"] = {
        str(day): {str(blame): n for blame, n in sorted(counts.items(), key=str)}
        for day, counts in sorted(report.blame_counts_by_day.items())
    }
    summary["segment_issues"] = [
        [str(i.blame), i.location_id, i.culprit_asn, i.first_seen, i.duration]
        for i in report.closed_cloud + report.closed_client
    ]
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def file_sha256(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_feed(path: pathlib.Path, meta: dict) -> list[str]:
    """Errors when the feed on disk is not the one its meta describes."""
    sha256 = file_sha256(path)
    if sha256 != meta["sha256"]:
        return [f"{path.name}: checksum {sha256[:12]} != recorded {meta['sha256'][:12]}"]
    return []


def alert_key(row: dict) -> tuple:
    return (
        row["blame"],
        row["location_id"],
        tuple(row["middle"]),
        row["first_seen"],
        row["duration"],
    )


def alert_row(alert) -> dict:
    """One streamed alert as a JSON row (the alerts sink format)."""
    return {
        "blame": str(alert.blame),
        "location_id": alert.location_id,
        "middle": list(alert.middle),
        "culprit_asn": alert.culprit_asn,
        "first_seen": alert.first_seen,
        "duration": alert.duration,
    }


def check_serve(report: PipelineReport, meta: dict, alerts: list[dict]) -> list[str]:
    """Errors where a daemon report disagrees with the load generator's
    counts, or a streamed alert names no issue of the final report."""
    errors = []
    if report.total_quartets != meta["rows"]:
        errors.append(
            f"total_quartets {report.total_quartets} != rows written {meta['rows']}"
        )
    if report.bad_quartets != meta["bad"]:
        errors.append(
            f"bad_quartets {report.bad_quartets} != bad rows written {meta['bad']}"
        )
    issues = {
        ("middle", i.location_id, tuple(i.middle), i.first_seen, i.duration)
        for i in report.closed_middle
    }
    issues.update(
        (str(i.blame), i.location_id, (), i.first_seen, i.duration)
        for i in report.closed_cloud + report.closed_client
    )
    missing = [row for row in alerts if alert_key(row) not in issues]
    if missing:
        errors.append(
            f"{len(missing)} of {len(alerts)} streamed alerts name no issue "
            f"in the report, first {missing[0]}"
        )
    if not alerts:
        errors.append("no alert was streamed")
    return errors

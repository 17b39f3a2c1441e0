"""Tests of the benchmark itself, at a one-day horizon.

Each workload runs through the same code and checks as a full run, and
each correctness check is shown to fail on a wrong input.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import loadgen  # noqa: E402
from run import WORLD_SEED  # noqa: E402
from workloads import MonthSeq  # noqa: E402

from repro.perf.sharded import ShardedPipeline  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--days", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_checks(workload, trace):
    code, result, stderr = run_bench(workload, trace)
    assert code == 0, stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    group = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_attributes_the_serve_layers():
    code, result, stderr = run_bench("serve-jsonl", 1)
    assert code == 0, stderr
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["daemon.steps"] == 288
    assert values["ingest.rows"] == values["passive.quartets"] > 0
    assert values["learning.quartets"] == values["ingest.rows"]
    # The daemon ingests; it does not generate.
    assert values["generation.quartets"] == 0
    assert values["unattributed_s"] < values["trace.wall_s"]


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    begin = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "month-seq",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert time.monotonic() - begin < 60


@pytest.fixture(scope="module")
def month_day():
    """One served day of the month workload, set up and run once."""
    workload = MonthSeq(seed=3, days=1, world_seed=WORLD_SEED, work=BENCH / ".work")
    workload.setup()
    workload.prepare()
    return workload, workload.run_round().report


def test_recount_matches_report(month_day):
    workload, report = month_day
    expected = checks.recount(workload.world, 3, workload.start, workload.end)
    assert checks.check_against_recount(report, expected) == []


def test_recount_catches_count_off_by_one(month_day):
    workload, report = month_day
    expected = checks.recount(workload.world, 3, workload.start, workload.end)
    report.total_quartets += 1
    try:
        assert checks.check_against_recount(report, expected)
    finally:
        report.total_quartets -= 1
    expected.bad_by_day[1] += 1
    assert any("day 1" in e for e in checks.check_against_recount(report, expected))


def test_digest_catches_sharded_report_from_other_seed(month_day):
    workload, report = month_day
    args = (workload.scenario,)
    kwargs = dict(fixed_table=workload.table, n_workers=2)
    same = ShardedPipeline(*args, seed=3, **kwargs)
    other = ShardedPipeline(*args, seed=4, **kwargs)
    try:
        same_report = same.run(workload.start, workload.end)
        other_report = other.run(workload.start, workload.end)
    finally:
        same.close()
        other.close()
    assert checks.report_digest(same_report) == checks.report_digest(report)
    assert checks.report_digest(other_report) != checks.report_digest(report)


def test_feed_with_a_row_removed_is_refused(tmp_path):
    feed = tmp_path / "serve-jsonl.jsonl"
    meta = loadgen.generate(feed, seed=3, days=1)
    assert meta["rows"] > 0 and 0 < meta["bad"] < meta["rows"]
    assert checks.check_feed(feed, meta) == []
    lines = feed.read_text(encoding="utf-8").splitlines(keepends=True)
    feed.write_text("".join(lines[:10] + lines[11:]), encoding="utf-8")
    assert checks.check_feed(feed, meta)
    # Even with its checksum re-recorded, the shorter feed fails the
    # daemon's count check in the measured process.
    meta["sha256"] = checks.file_sha256(feed)
    loadgen.meta_path(feed).write_text(json.dumps(meta), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "measure.py"), "--workload", "serve-jsonl",
         "--seed", "3", "--seconds", "0", "--days", "1",
         "--world-seed", str(WORLD_SEED), "--work", str(tmp_path),
         "--feed", str(feed), "--spawned-at", repr(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env={"PYTHONPATH": f"{ROOT / 'src'}", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
    assert "rows written" in proc.stderr


def test_alert_naming_no_issue_is_refused(month_day):
    _, report = month_day
    meta = {"rows": report.total_quartets, "bad": report.bad_quartets}
    issue = report.closed_middle[0]
    good = {"blame": "middle", "location_id": issue.location_id,
            "middle": list(issue.middle), "first_seen": issue.first_seen,
            "duration": issue.duration}
    assert checks.check_serve(report, meta, [good]) == []
    wrong = dict(good, duration=good["duration"] + 1)
    assert checks.check_serve(report, meta, [good, wrong])



def test_daemon_report_equals_batch_run(tmp_path):
    import equivalence

    daemon, batch = equivalence.compare(seed=3, days=1, work=tmp_path)
    assert daemon == batch

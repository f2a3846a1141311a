"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They use the cheap ladder rows and cheap zoo scenarios, so they take
seconds, not a full benchmark run.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT_DIR, "src"))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

CHEAP_LADDER = ("klein-regular", "s3-regular", "a4-points4")


def _ladder_run(names=CHEAP_LADDER, trace=False) -> run.Run:
    r = run.Run("torus-ladder", 0, 0.0, trace)
    r.items = [item for item in W.ladder_items(0) if item.name in names]
    return r


def test_same_seed_gives_identical_inputs(tmp_path):
    assert [i.payload for i in W.zoo_stream_items(7)] == [i.payload for i in W.zoo_stream_items(7)]
    assert [i.payload for i in W.zoo_stream_items(7)] != [i.payload for i in W.zoo_stream_items(8)]
    assert [i.payload for i in W.ladder_items(1)] == [i.payload for i in W.ladder_items(2)]
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    W.audit_items(1, str(first))
    W.audit_items(1, str(second))
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second)) and len(names) == len(W.AUDIT_ROWS)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_correct_answers_pass_the_check():
    r = _ladder_run()
    r.measure()
    r.check()
    assert r.attempted == len(r.passes) * len(CHEAP_LADDER) >= run.MIN_PASSES * len(CHEAP_LADDER)
    assert r.failed == 0, r.failures


def test_planted_wrong_reference_counts_as_failed_op():
    r = _ladder_run()
    r.measure()
    planted = W.load_references()
    planted["torus-ladder"]["klein-regular"]["factors"] = [4]
    r.check(planted)
    # one failed op per pass, for the one planted row
    assert r.failed == len(r.passes)
    assert all("klein-regular" in line for line in r.failures)


def test_raised_answer_counts_as_failed_op():
    r = _ladder_run(names=("klein-regular",))
    r.items[0].payload = "{not json"
    r.measure()
    r.check()
    assert r.failed == r.attempted == len(r.passes)


def test_end_to_end_times_are_scaled_to_the_reference_speed():
    r = _ladder_run(names=("klein-regular", "s3-regular"))
    r.setup_times = [0.5]
    r.measure()
    assert len(r.calibration) == r.attempted
    speed = r.speed()
    metrics, tail = r.end_to_end()
    assert metrics["setup_s"]["value"] == pytest.approx(0.5 * speed)
    assert metrics["pass_s"]["value"] == pytest.approx(sum(r.scenario_best()) * speed)
    assert metrics["max_scenario_s"]["value"] == pytest.approx(max(r.scenario_best()) * speed)
    assert set(tail) == {"latency_p90_ms"}


def test_zoo_check_catches_a_wrong_answer(monkeypatch):
    r = run.Run("zoo-stream", 3, 0.0, False)
    r.items = [i for i in W.zoo_stream_items(3) if i.group_order <= 4][:6]
    r.measure()
    r.check()
    assert r.failed == 0, r.failures
    monkeypatch.setattr(W, "zoo_reference", lambda item, shortcut: (97,))
    r.check()
    assert r.failed == r.attempted


def test_self_time_subtracts_child_spans():
    spans = [
        ["scenario", 0.0, 10.0, -1, "a", None],
        ["engine.defect", 1.0, 9.0, 0, "a", None],
        ["linalg.smith_normal_form", 2.0, 5.0, 1, "a", {"rows": 3, "cols": 4, "out_bits": 2}],
        ["linalg.smith_normal_form", 6.0, 8.0, 1, "a", {"rows": 5, "cols": 2, "out_bits": 7}],
        ["scenario", 10.0, 12.0, -1, "b", None],
    ]
    agg = tracing.aggregate(spans)
    assert agg["scenario"] == {"calls": 2, "total_s": 12.0, "self_s": 4.0}
    assert agg["engine.defect"] == {"calls": 1, "total_s": 8.0, "self_s": 3.0}
    assert agg["linalg.smith_normal_form"] == {
        "calls": 2, "total_s": 5.0, "self_s": 5.0, "max_rows": 5, "max_cols": 4, "max_out_bits": 7}
    assert tracing.aggregate(spans, 4, 5) == {"scenario": {"calls": 1, "total_s": 2.0, "self_s": 2.0}}


def test_traced_self_times_sum_to_traced_pass_within_overhead():
    r = run.Run("zoo-stream", 5, 0.0, True)
    r.items = [i for i in W.zoo_stream_items(5) if i.group_order <= 4]
    while len(r.passes) < 6:
        r.passes.append(r._one_pass(traced=len(r.passes) % 2 == 1))
    overhead = r.per_layer()[run.OVERHEAD_METRIC]["value"]
    untraced_s = statistics.median(p["wall_s"] for p in r.passes if not p["traced"])
    # the loop's own bookkeeping between scenario spans is not traced
    slack_s = max(overhead, 0.0) * untraced_s + 1e-3 * len(r.items)
    for p in (p for p in r.passes if p["traced"]):
        start, end = p["spans"]
        spans = r.tracer.spans[start:end]
        self_s = sum(entry["self_s"] for entry in tracing.aggregate(r.tracer.spans, start, end).values())
        roots_s = sum(rec[2] - rec[1] for rec in spans if rec[3] == -1)
        assert self_s == pytest.approx(roots_s, rel=1e-9)
        assert 0.0 <= p["wall_s"] - self_s <= slack_s


def test_traced_passes_leave_the_program_unpatched():
    from wadefect import engine, linalg

    defect, snf, solve = engine.defect, linalg.smith_normal_form, linalg.ColumnSolver.solve
    r = _ladder_run(names=("klein-regular",), trace=True)
    r.measure()
    assert engine.defect is defect and linalg.smith_normal_form is snf
    assert linalg.ColumnSolver.solve is solve
    names = {rec[0] for rec in r.tracer.spans}
    assert {"scenario", "scenario_io.parse_scenario", "engine.defect", "modules.free_cover",
            "linalg.smith_normal_form", "linalg.ColumnSolver.solve"} <= names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT_DIR, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "torus-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("row", W.LADDER, ids=[row[0] for row in W.LADDER])
def test_every_ladder_row_has_a_reference(row):
    refs = W.load_references()
    assert row[0] in refs["torus-ladder"]
    if row[0] in W.AUDIT_ROWS:
        assert refs["oracle-audit"][row[0]]["exit"] == 0

"""Smoke tests of the benchmark at its tiny sizes.

    python3 -m pytest bench -q

They check that every metric named in ``BENCHMARK.json`` is printed with its
unit, that a wrong output is counted as a failure rather than crashing the
run, that the traced self times add up to the traced wall time, and that the
benchmark refuses to run without the package.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = workloads.WORKLOADS["tiny"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_workload_names_match_the_record():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS["full"])
    assert list(TINY) == list(workloads.WORKLOADS["full"])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_printed_with_its_unit(name, trace, section):
    done = bench("--size", "tiny", "--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if section == "end_to_end":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def _append_byte(path: Path) -> None:
    with open(path, "ab") as handle:
        handle.write(b"\n")


def _claim_a_matching(path: Path) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["exists"] = True
    path.write_text(json.dumps(payload), encoding="utf-8")


@pytest.mark.parametrize(
    "name,corrupt",
    [("hunt-blockers", _append_byte), ("solve-latin", _claim_a_matching)],
)
def test_corrupted_cli_output_counts_as_failure(name, corrupt, tmp_path):
    class CorruptingWorkload:
        def __getattr__(self, attr):
            return getattr(TINY[name], attr)

        def call(self, ctx):
            code = TINY[name].call(ctx)
            corrupt(ctx.output_path)
            return code

    runner = run.Runner(CorruptingWorkload(), 0, tmp_path)
    runner.set_up(1)
    run.end_to_end(runner, 0.1)
    tally = runner.tally()
    assert tally["correct"] is False
    assert tally["failed"] == tally["attempted"] >= 1


def test_wrong_max_answer_and_exceptions_count_as_failures(monkeypatch, tmp_path):
    runner = run.Runner(TINY["max-latin"], 0, tmp_path)
    runner.set_up(1)
    solver = runner.ctx.solver
    real_max = solver.max_rainbow_matching

    def overlapping(graph):
        size, witness = real_max(graph)
        first = min(witness)
        clash = next(
            i
            for i, e in enumerate(graph.edges)
            if i not in witness and {e.u, e.v} & {graph.edges[first].u, graph.edges[first].v}
        )
        return size, (witness - {first}) | {clash}

    monkeypatch.setattr(solver, "max_rainbow_matching", overlapping)
    runner.run_pass(False, "overlapping witness")

    def broken(graph):
        raise RuntimeError("broken solver")

    monkeypatch.setattr(solver, "max_rainbow_matching", broken)
    runner.run_pass(False, "exception")
    assert [p.error is not None for p in runner.passes] == [True, True]
    assert "broken solver" in runner.passes[1].error


@pytest.mark.parametrize("name", list(TINY))
def test_traced_self_times_add_up_to_traced_wall_time(name, tmp_path):
    runner = run.Runner(TINY[name], 0, tmp_path)
    runner.set_up(1)
    metrics = run.per_layer(runner, 0.1, tmp_path / "spans.jsonl")
    assert runner.tally()["correct"] is True
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    traced_wall = min(p.wall_s for p in runner.passes if p.spans is not None)
    assert 0 < metrics["trace.wall_s"] <= traced_wall
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert spans and all(s["end"] >= s["start"] for s in spans)


def test_latin_square_isotopy():
    order = 6
    identity = workloads.latin_square_edges(order, 0)
    assert identity == [(i, order + j, (i + j) % order) for i in range(order) for j in range(order)]
    shuffled = workloads.latin_square_edges(order, 5)
    assert shuffled == workloads.latin_square_edges(order, 5)
    assert shuffled != identity
    cells = {(u, v): c for u, v, c in shuffled}
    assert len(cells) == order * order
    for k in range(order):
        assert {cells[(k, order + j)] for j in range(order)} == set(range(order))
        assert {cells[(i, order + k)] for i in range(order)} == set(range(order))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "traces"))
    done = bench("--workload", "solve-latin", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""

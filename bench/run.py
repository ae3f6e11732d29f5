"""Benchmark for rainbowmatch: exhaustive hunts and Latin-square solves.

Run from the repository root:

    python3 bench/run.py --workload hunt-blockers --seed 0 --seconds 40 --trace 0

The run is a closed loop in one process: set-up, then one pass after another
until the next pass would end past ``--seconds`` (at least one pass).  Every
pass checks its own output; a wrong exit code, a wrong answer, a witness that
does not verify, an output that differs from the reference or an exception
counts as a failed operation and the run goes on.  Before each pass a fixed
pure-Python loop is timed (``env.calib_s``), so a slower shared machine can
be told apart from a slower program.

``--trace 0`` prints the end-to-end metrics: the median over the passes of
each pass's wall time divided by the calibration loop timed just before it,
the peak resident memory, the median set-up time (five set-ups before the
first pass, one before each pass after it) and the share of passes that
succeeded.  The pass time is reported in calibration loops because on a
shared machine the speed of the host moves the raw wall time of whole runs by
15-20%, and moves the loop by the same share.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
pass with the median wall time, and the raw median wall and CPU times of the
untraced passes; the spans are written to ``bench/traces/``.  The last line
of standard output is one JSON object.
Exit codes: 0 when every pass was correct, 1 when some pass failed, 2 when
the set-up failed (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, layer_metrics, write_spans  # noqa: E402
from workloads import BENCH_DIR, PACKAGE, WORKLOADS, SetupError, import_package  # noqa: E402

SETUPS_AT_START = 5
SETUPS_PER_PASS = 1
CALIBRATION_LOOPS = 200_000

END_TO_END_UNITS = {
    "wall_over_calib": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "hunting.candidates": "count",
    "hunting.orbits": "count",
    "hunting.results": "count",
    "hunting.orbit_yield": "ratio",
    "hunting.canonical.calls": "count",
    "hunting.canonical.self_s": "s",
    "hunting.canonical.us_per_call": "us",
    "hunting.generate.self_s": "s",
    "hunting.max_unit_share": "ratio",
    "solver.find.calls": "count",
    "solver.find.self_s": "s",
    "solver.find.nodes": "count",
    "solver.find.us_per_node": "us",
    "solver.max.calls": "count",
    "solver.max.self_s": "s",
    "solver.brute.calls": "count",
    "solver.brute.self_s": "s",
    "solver.brute.combinations": "count",
    "hypergraphs.convert.self_s": "s",
    "hypergraphs.degree_stats.self_s": "s",
    "hypergraphs.gap_pass_ratio": "ratio",
    "graphs.build.self_s": "s",
    "graphs.from_json.self_s": "s",
    "graphs.to_json.self_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "env.calib_s": "s",
    "env.wall_s": "s",
    "env.cpu_s": "s",
}


def calibrate() -> float:
    """Time a fixed pure-Python loop: the speed of the machine right now."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return perf_counter() - start


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    calib_s: float
    error: str | None
    output_bytes: int = 0
    spans: list | None = None


class Runner:
    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.passes: list[Pass] = []
        self.setup_times: list[float] = []
        self.ctx = None

    def set_up(self, repeats: int) -> None:
        """Import the package, build the instance and read the reference, ``repeats`` times.

        The passes that follow use the last set-up; what earlier passes
        recorded for later ones to compare against is carried over.
        """
        for _ in range(repeats):
            start = perf_counter()
            modules = import_package()
            ctx = self.workload.prepare(modules, self.workdir, self.seed)
            self.setup_times.append(perf_counter() - start)
        if self.ctx is not None:
            ctx.nodes = self.ctx.nodes
        self.ctx = ctx

    def run_pass(self, traced: bool, label: str) -> Pass:
        ctx = self.ctx
        calib_s = calibrate()
        if ctx.output_path is not None:
            ctx.output_path.unlink(missing_ok=True)
        tracer = Tracer(ctx.modules, PACKAGE) if traced else None
        error = answer = None
        cpu0 = cpu_seconds()
        start = perf_counter()
        try:
            if tracer is None:
                answer = self.workload.call(ctx)
            else:
                with tracer:
                    answer = self.workload.call(ctx)
        except Exception:
            error = "exception: " + traceback.format_exc().strip().splitlines()[-1]
        wall_s = perf_counter() - start
        cpu_s = cpu_seconds() - cpu0
        if error is None:
            try:
                error = self.workload.verify(ctx, answer)
            except Exception:
                error = "output check raised: " + traceback.format_exc().strip().splitlines()[-1]
        result = Pass(wall_s, cpu_s, calib_s, error, ctx.output_bytes(), tracer.spans if tracer else None)
        self.passes.append(result)
        status = "ok" if error is None else f"FAILED: {error}"
        print(
            f"{label}: wall {wall_s:.3f} s, cpu {cpu_s:.3f} s, calib {calib_s:.4f} s, {status}",
            file=sys.stderr,
            flush=True,
        )
        return result

    def loop(self, seconds: float, one_round) -> None:
        """Run rounds until the next one would end past ``seconds`` (at least one)."""
        start = perf_counter()
        costs: list[float] = []
        while not costs or perf_counter() - start + statistics.median(costs) <= seconds:
            round_start = perf_counter()
            one_round(len(costs) + 1)
            costs.append(perf_counter() - round_start)

    def tally(self) -> dict:
        failed = sum(1 for p in self.passes if p.error is not None)
        return {"correct": failed == 0, "attempted": len(self.passes), "failed": failed}


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    # Set-ups are spread over the run, before every pass, so that their
    # median samples the machine as long as the passes do.  Peak memory is
    # read after the first pass, so that it does not depend on how many
    # passes fit into the run.
    peak: list[float] = []

    def one_round(i: int) -> None:
        runner.set_up(SETUPS_PER_PASS)
        runner.run_pass(False, f"pass {i}")
        if i == 1:
            peak.append(peak_rss_mb())

    runner.loop(seconds, one_round)
    tally = runner.tally()
    return {
        "wall_over_calib": statistics.median(p.wall_s / p.calib_s for p in runner.passes),
        "peak_rss_mb": peak[0],
        "setup_s": statistics.median(runner.setup_times),
        "success_ratio": (tally["attempted"] - tally["failed"]) / tally["attempted"],
    }


def per_layer(runner: Runner, seconds: float, trace_path: Path) -> dict[str, float]:
    untraced: list[Pass] = []
    traced: list[Pass] = []

    def one_round(i: int) -> None:
        untraced.append(runner.run_pass(False, f"round {i} untraced"))
        traced.append(runner.run_pass(True, f"round {i} traced"))

    runner.loop(seconds, one_round)
    ordered = sorted(traced, key=lambda p: p.wall_s)
    chosen = ordered[(len(ordered) - 1) // 2]
    metrics = layer_metrics(chosen.spans)
    metrics["cli.output_bytes"] = chosen.output_bytes
    metrics["trace.overhead_ratio"] = statistics.median(p.wall_s for p in traced) / statistics.median(
        p.wall_s for p in untraced
    )
    metrics["env.calib_s"] = statistics.median(p.calib_s for p in runner.passes)
    metrics["env.wall_s"] = statistics.median(p.wall_s for p in untraced)
    metrics["env.cpu_s"] = statistics.median(p.cpu_s for p in untraced)
    write_spans(chosen.spans, trace_path)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--size", choices=sorted(WORKLOADS), default="full", help="tiny runs the smoke-test sizes"
    )
    args = parser.parse_args(argv)
    workloads = WORKLOADS[args.size]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH_DIR))
    try:
        runner = Runner(workloads[args.workload], args.seed, workdir)
        try:
            runner.set_up(SETUPS_AT_START)
        except SetupError as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            trace_path = BENCH_DIR / "traces" / f"{args.workload}-{args.size}-seed{args.seed}.jsonl"
            metrics = per_layer(runner, args.seconds, trace_path)
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(runner, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = runner.tally()
    result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

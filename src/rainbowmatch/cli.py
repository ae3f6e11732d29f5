"""Batch command-line interface.

Exit codes: 0 = success (for solve/check: a matching exists); 3 = solve or
check completed and certified that no matching exists; 1 = usage or
operational error, or an unexpected fault; 2 = malformed or invalid
instance, or a malformed hunt record in a --resume file.  The distinct code
for a certified negative lets shell pipelines branch on the mathematical
outcome instead of treating it as a failure.

All output is newline-terminated JSON (or JSON-lines for hunt); human tables
sit behind --pretty.  The environment variable RAINBOW_BRUTE_LIMIT overrides
the brute-force enumeration guard of solve --method brute only.  A hunt
certifies its finds under the default guard, which no unit below 51 edges
can exceed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Optional, Sequence

from . import families, hunting, hypergraphs, solver
from .graphs import (
    ColouredMultigraph,
    InvalidInstanceError,
    colour_stats,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    is_bipartite,
    max_degree,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_NO_MATCHING = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here reserves 2 for
    # invalid instances, so remap.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _dumps(obj: object) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _read_input(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_output(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _write_graph(args: argparse.Namespace, graph: ColouredMultigraph) -> None:
    """Write a graph in the ``--format`` of ``gen`` or ``convert``."""
    text = graph_to_dot(graph) if args.format == "dot" else _dumps(graph_to_json(graph))
    _write_output(args.output, text)


class _MalformedJSONError(ValueError):
    """Instance input that is not UTF-8 JSON within the parser's limits."""


def _load_instance(path: Optional[str]):
    """Parse a graph or hypergraph JSON instance, detected by its fields."""
    try:
        text = _read_input(path)
    except UnicodeDecodeError as exc:
        raise _MalformedJSONError(exc) from exc
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise _MalformedJSONError("nested too deeply") from exc
    except ValueError as exc:
        # a syntax error, or an integer with more digits than int() converts
        raise _MalformedJSONError(exc) from exc
    if isinstance(data, dict) and "triples" in data:
        return hypergraphs.hypergraph_from_json(data)
    return graph_from_json(data)


def _brute_limit() -> int:
    raw = os.environ.get("RAINBOW_BRUTE_LIMIT")
    if raw is None:
        return solver.DEFAULT_BRUTE_LIMIT
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"RAINBOW_BRUTE_LIMIT must be an integer, got {raw!r}") from exc


# --- subcommands --------------------------------------------------------------

# family name -> (the option holding its size, its generator)
_FAMILIES = {
    "double-star": ("m", families.double_star_family),
    "constant-defeater": ("c", families.constant_defeater),
    "cyclic-latin": ("n", families.cyclic_latin_square),
}


def _cmd_gen(args: argparse.Namespace) -> int:
    option, generate = _FAMILIES[args.family]
    size = getattr(args, option)
    if size is None:
        raise ValueError(f"gen --family {args.family} requires --{option}")
    _write_graph(args, generate(size))
    return EXIT_OK


def _cmd_convert(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    if isinstance(instance, hypergraphs.TripartiteHypergraph):
        _write_graph(args, hypergraphs.as_coloured_graph(instance))
    else:
        if args.format == "dot":
            raise ValueError("dot output applies to graphs; converting a graph yields a hypergraph")
        hypergraph = hypergraphs.from_coloured_graph(instance)
        _write_output(args.output, _dumps(hypergraphs.hypergraph_to_json(hypergraph)))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    graph = hypergraphs.as_coloured_graph(_load_instance(args.input))
    if args.method == "brute":
        outcome, count = solver.brute_force_full_rainbow(graph, _brute_limit())
    else:
        outcome, count = solver.find_full_rainbow_matching(graph), None
    payload = {
        "exists": outcome.matching is not None,
        "witness": sorted(outcome.matching) if outcome.matching is not None else None,
        "nodes_explored": outcome.nodes_explored,
        "exhaustive": outcome.exhaustive,
        "method": args.method,
    }
    if count is not None:
        payload["matchings_counted"] = count
    _write_output(args.output, _dumps(payload))
    return EXIT_OK if outcome.matching is not None else EXIT_NO_MATCHING


def _cmd_check(args: argparse.Namespace) -> int:
    graph = hypergraphs.as_coloured_graph(_load_instance(args.input))
    report = families.conjecture_report(graph)
    if args.pretty:
        _write_output(args.output, _format_report(report))
    else:
        _write_output(args.output, _dumps(families.report_to_json(report)))
    return EXIT_OK if report.full_rainbow_exists else EXIT_NO_MATCHING


def _format_report(report: families.ConjectureReport) -> str:
    lines = [
        f"max degree            {report.max_degree}",
        f"min colour class      {report.min_colour_multiplicity}",
        f"delta(V1)             {report.delta_v1}",
        f"Delta(V2 u V3)        {report.delta_max_rest}",
        f"bipartite             {'yes' if report.bipartite else 'no'}",
        f"full rainbow matching {'exists' if report.full_rainbow_exists else 'none (certified)'}",
        "",
        f"{'statement':<16} {'hypothesis':<11} {'conclusion':<11} counterexample",
    ]
    for key in families.STATEMENTS:
        outcome = report.statements[key]
        lines.append(
            f"{key:<16} {str(outcome.hypothesis_holds):<11} "
            f"{str(outcome.conclusion_holds):<11} {outcome.is_counterexample}"
        )
    for key, note in report.notes.items():
        lines.append(f"{key}: {note}")
    return "\n".join(lines) + "\n"


def _cmd_stats(args: argparse.Namespace) -> int:
    instance = hypergraphs.as_coloured_graph(_load_instance(args.input))
    stats = colour_stats(instance)
    degree = max_degree(instance)
    # the hypergraph's delta(V1) and Delta(V2 u V3), read off the graph
    payload = {
        "vertices": instance.vertex_count,
        "colours": instance.colour_count,
        "edges": instance.edge_count,
        "max_degree": degree,
        "colour_multiplicities": [stats.multiplicities[c] for c in range(instance.colour_count)],
        "min_colour_multiplicity": stats.minimum,
        "bipartite": is_bipartite(instance),
        "delta_v1": stats.minimum,
        "delta_max_rest": degree,
    }
    _write_output(args.output, _dumps(payload))
    return EXIT_OK


def _cmd_hunt(args: argparse.Namespace) -> int:
    spec = hunting.SearchSpec(
        max_edges=args.max_edges,
        colour_class_size=args.class_size,
        require_bipartite=args.bipartite,
        require_delta_gap=args.require_gap,
        class_size_is_minimum=args.min_class_size,
        stop_after=args.stop_after,
    )
    skip: set[str] = set()
    if args.resume is not None:
        overwrites = args.output not in (None, "-") and os.path.exists(args.output)
        if overwrites and os.path.samefile(args.resume, args.output):
            raise ValueError(f"--output would overwrite the --resume file {args.resume}")
        with open(args.resume, "r", encoding="utf-8") as handle:
            skip = hunting.read_certified_forms(handle)
    outcome = hunting.hunt(spec, jobs=args.jobs, skip_forms=skip)
    lines = [hunting.result_line(result) for result in outcome.results]
    lines.append(_dumps(hunting.summary_record(outcome, spec)))
    _write_output(args.output, "".join(lines))
    return EXIT_OK


# --- parser -------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="rainbowmatch", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def add_io(sub: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            sub.add_argument("input", nargs="?", default=None, help="instance file (default: stdin)")
        sub.add_argument("-o", "--output", default=None, help="output file (default: stdout)")

    gen = commands.add_parser("gen", parents=[], help="generate a family instance")
    gen.add_argument("--family", choices=list(_FAMILIES), required=True)
    gen.add_argument("--m", type=int, help="component count for double-star (even, >= 2)")
    gen.add_argument("--c", type=int, help="multiplicity margin for constant-defeater (>= 1)")
    gen.add_argument("--n", type=int, help="order of the cyclic-latin square (>= 1)")
    gen.add_argument("--format", choices=["json", "dot"], default="json")
    add_io(gen, with_input=False)
    gen.set_defaults(func=_cmd_gen)

    convert = commands.add_parser("convert", help="map graph JSON <-> hypergraph JSON")
    convert.add_argument("--format", choices=["json", "dot"], default="json")
    add_io(convert)
    convert.set_defaults(func=_cmd_convert)

    solve = commands.add_parser("solve", help="decide full rainbow / V1-matching existence")
    solve.add_argument("--method", choices=["backtracking", "brute"], default="backtracking")
    add_io(solve)
    solve.set_defaults(func=_cmd_solve)

    check = commands.add_parser("check", help="evaluate the instance against each conjecture")
    check.add_argument("--pretty", action="store_true", help="human-readable table")
    add_io(check)
    check.set_defaults(func=_cmd_check)

    stats = commands.add_parser("stats", help="degree and colour statistics")
    add_io(stats)
    stats.set_defaults(func=_cmd_stats)

    hunt = commands.add_parser("hunt", help="exhaustively hunt small blocked instances")
    hunt.add_argument("--bipartite", action="store_true", help="restrict to even cycles")
    hunt.add_argument("--class-size", type=int, required=True, help="edges per colour")
    hunt.add_argument(
        "--min-class-size",
        action="store_true",
        help="treat --class-size as a lower bound instead of exact",
    )
    hunt.add_argument("--max-edges", type=int, required=True)
    hunt.add_argument(
        "--require-gap",
        action="store_true",
        help="only emit instances with delta(V1) > Delta(V2 u V3)",
    )
    hunt.add_argument("--stop-after", type=int, default=None)
    hunt.add_argument("--jobs", type=int, default=1)
    hunt.add_argument("--resume", default=None, help="skip canonical forms certified in this file")
    add_io(hunt, with_input=False)
    hunt.set_defaults(func=_cmd_hunt)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidInstanceError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except _MalformedJSONError as exc:
        print(f"malformed JSON: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except hunting.MalformedRecordError as exc:
        print(f"malformed record: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except solver.BruteForceLimitError as exc:
        print(f"{exc} (RAINBOW_BRUTE_LIMIT raises it for solve --method brute)", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a fault of the program, not of its input: still one line
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    code = run(sys.argv[1:])
    # a Ctrl-C while the interpreter exits would end it with a traceback, or
    # killed by the signal; the command has finished, and its code stands
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sys.exit(code)


if __name__ == "__main__":
    main()

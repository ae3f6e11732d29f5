import io
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from rainbowmatch import cli, graph_from_json, graph_to_json, is_full_rainbow
from rainbowmatch.graphs import build_graph


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_single_edge(tmp_path):
    path = tmp_path / "single.json"
    path.write_text(json.dumps(graph_to_json(build_graph(2, 1, [(0, 1, 0)]))))
    return str(path)


def test_gen_double_star_json(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "double-star", "--m", "6")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == 48
    assert data["colours"] == 7
    assert len(data["edges"]) == 42
    assert out.endswith("\n")


def test_gen_constant_defeater(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "constant-defeater", "--c", "1")
    assert code == 0
    assert json.loads(out)["colours"] == 5  # m = 2c+2 = 4


def test_gen_dot_format(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "double-star", "--m", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("graph G {")
    assert 'color=blue, label="0"' in out


def test_gen_usage_errors(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "double-star")
    assert code == 1
    assert "--m" in err
    code, _, err = run_cli(capsys, "gen", "--family", "double-star", "--m", "5")
    assert code == 1


def test_gen_cyclic_latin_pipes_into_solve(capsys, monkeypatch):
    # the order-10 square has no transversal: exit 3 after an exhaustive search
    code, out, _ = run_cli(capsys, "gen", "--family", "cyclic-latin", "--n", "10")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, solved, _ = run_cli(capsys, "solve")
    assert code == 3
    data = json.loads(solved)
    assert data["exists"] is False and data["exhaustive"] is True
    assert data["nodes_explored"] == 11271
    for n in (1, 5, 9):
        code, out, _ = run_cli(capsys, "gen", "--family", "cyclic-latin", "--n", str(n))
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, solved, _ = run_cli(capsys, "solve", "-")
        assert code == 0
        assert is_full_rainbow(graph_from_json(json.loads(out)), json.loads(solved)["witness"])


def test_gen_cyclic_latin_usage_errors(capsys):
    code, out, err = run_cli(capsys, "gen", "--family", "cyclic-latin", "--n", "0")
    assert (code, out) == (1, "")
    assert err == "error: n must be a positive integer, got 0\n"
    code, _, err = run_cli(capsys, "gen", "--family", "cyclic-latin")
    assert code == 1
    assert err == "error: gen --family cyclic-latin requires --n\n"


def test_unknown_command_and_help(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys, "--help")[0] == 0


def test_stats_double_star(capsys, tmp_path):
    path = tmp_path / "g6.json"
    assert cli.run(["gen", "--family", "double-star", "--m", "6", "-o", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "stats", str(path))
    assert code == 0
    assert json.loads(out) == {
        "vertices": 48,
        "colours": 7,
        "edges": 42,
        "max_degree": 4,
        "colour_multiplicities": [6, 6, 6, 6, 6, 6, 6],
        "min_colour_multiplicity": 6,
        "bipartite": True,
        "delta_v1": 6,
        "delta_max_rest": 4,
    }


def test_solve_exit_codes(capsys, tmp_path):
    single = write_single_edge(tmp_path)
    code, out, _ = run_cli(capsys, "solve", single)
    assert code == 0
    assert json.loads(out)["witness"] == [0]
    g6 = tmp_path / "g6.json"
    cli.run(["gen", "--family", "double-star", "--m", "6", "-o", str(g6)])
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "solve", str(g6))
    assert code == 3
    data = json.loads(out)
    assert data["exists"] is False
    assert data["witness"] is None
    assert data["exhaustive"] is True


def test_solve_brute_method(capsys, tmp_path):
    g4 = tmp_path / "g4.json"
    cli.run(["gen", "--family", "double-star", "--m", "4", "-o", str(g4)])
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "solve", "--method", "brute", str(g4))
    assert code == 3
    data = json.loads(out)
    assert data["matchings_counted"] == 0
    assert data["nodes_explored"] == 4**5


def test_brute_limit_env(capsys, tmp_path, monkeypatch):
    g4 = tmp_path / "g4.json"
    cli.run(["gen", "--family", "double-star", "--m", "4", "-o", str(g4)])
    capsys.readouterr()
    monkeypatch.setenv("RAINBOW_BRUTE_LIMIT", "100")
    code, _, err = run_cli(capsys, "solve", "--method", "brute", str(g4))
    assert code == 1
    assert "1024" in err
    monkeypatch.setenv("RAINBOW_BRUTE_LIMIT", "2000")
    assert run_cli(capsys, "solve", "--method", "brute", str(g4))[0] == 3


def test_solve_brute_method_huge_vertex_ids(capsys, tmp_path):
    # the oracle's masks must not be as wide as the largest vertex id
    path = tmp_path / "instance.json"
    path.write_text(
        json.dumps({"vertices": 10**12, "colours": 1, "edges": [{"u": 0, "v": 10**12 - 1, "colour": 0}]})
    )
    code, out, _ = run_cli(capsys, "solve", "--method", "brute", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["witness"] == [0]
    assert data["matchings_counted"] == 1


def test_solve_reads_stdin(capsys, monkeypatch):
    payload = json.dumps(graph_to_json(build_graph(2, 1, [(0, 1, 0)])))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run_cli(capsys, "solve", "-")
    assert code == 0
    assert json.loads(out)["exists"] is True


def test_solve_hypergraph_input(capsys, tmp_path):
    g6 = tmp_path / "g6.json"
    h6 = tmp_path / "h6.json"
    cli.run(["gen", "--family", "double-star", "--m", "6", "-o", str(g6)])
    assert cli.run(["convert", str(g6), "-o", str(h6)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "solve", str(h6))
    assert code == 3
    assert json.loads(out)["exists"] is False


def test_merged_pool_hypergraph_inputs(capsys, tmp_path):
    # a triangle's hypergraph: valid input for every command, and convert
    # gives back the triangle on its pool
    merged = tmp_path / "merged.json"
    merged.write_text(
        '{"v1":3,"v2":3,"v3":0,"tripartite":false,'
        '"triples":[[0,0,1],[1,1,2],[2,0,2]]}'
    )
    code, out, _ = run_cli(capsys, "solve", str(merged))
    assert code == 3
    assert json.loads(out)["exists"] is False
    code, out, _ = run_cli(capsys, "solve", "--method", "brute", str(merged))
    assert code == 3
    assert json.loads(out)["matchings_counted"] == 0
    code, out, _ = run_cli(capsys, "stats", str(merged))
    assert code == 0
    data = json.loads(out)
    assert data["bipartite"] is False
    assert data["max_degree"] == 2
    assert run_cli(capsys, "check", str(merged))[0] == 3
    code, out, _ = run_cli(capsys, "convert", str(merged))
    assert code == 0
    assert graph_from_json(json.loads(out)) == build_graph(
        3, 3, [(0, 1, 0), (1, 2, 1), (0, 2, 2)]
    )


def test_solve_many_colours(capsys, tmp_path):
    # 1,200 disjoint edges of distinct colours: one search level per colour
    n = 1200
    path = tmp_path / "wide.json"
    graph = build_graph(2 * n, n, [(2 * i, 2 * i + 1, i) for i in range(n)])
    path.write_text(json.dumps(graph_to_json(graph)))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["exists"] is True
    assert data["witness"] == list(range(n))


def test_import_leaves_multiprocessing_out():
    # only a hunt with --jobs > 1 needs them; importing them costs about 1 MB
    probe = (
        "import sys, rainbowmatch.cli;"
        " print('multiprocessing' in sys.modules, 'concurrent.futures.process' in sys.modules)"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert result.stdout.strip() == "False False"


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the workers must inherit the patched _examine_unit",
)
def test_hunt_ends_when_a_worker_dies():
    # a worker that dies on the (5,) unit ends the hunt with exit 1 and one
    # line, instead of leaving it waiting for a result that never comes
    probe = """
import os, sys
from rainbowmatch import cli, hunting

examine, parent = hunting._examine_unit, os.getpid()

def dying(args):
    if args[1] == (5,) and os.getpid() != parent:
        os._exit(1)
    return examine(args)

hunting._examine_unit = dying
sys.exit(cli.run(["hunt", "--class-size", "1", "--max-edges", "8", "--jobs", "2"]))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: BrokenProcessPool"), result.stderr


def test_convert_round_trips_are_stable(capsys, tmp_path):
    g6 = tmp_path / "g6.json"
    cli.run(["gen", "--family", "double-star", "--m", "6", "-o", str(g6)])
    capsys.readouterr()
    # graph -> hypergraph -> graph normalises labels; after that the
    # composition is the identity on bytes
    _, hyper, _ = run_cli(capsys, "convert", str(g6))
    (tmp_path / "h.json").write_text(hyper)
    _, graph1, _ = run_cli(capsys, "convert", str(tmp_path / "h.json"))
    (tmp_path / "g1.json").write_text(graph1)
    _, hyper2, _ = run_cli(capsys, "convert", str(tmp_path / "g1.json"))
    assert hyper2 == hyper
    (tmp_path / "h2.json").write_text(hyper2)
    _, graph2, _ = run_cli(capsys, "convert", str(tmp_path / "h2.json"))
    assert graph2 == graph1


def test_convert_validates_instances(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices":2,"colours":1,"edges":[{"u":0,"v":0,"colour":0}]}')
    code, _, err = run_cli(capsys, "convert", str(bad))
    assert code == 2
    assert "self-loop" in err
    bad.write_text("{broken")
    assert run_cli(capsys, "convert", str(bad))[0] == 2
    # a merged-pool hypergraph converts to the graph on its pool
    bad.write_text('{"v1":1,"v2":3,"v3":0,"tripartite":false,"triples":[[0,0,1]]}')
    code, out, _ = run_cli(capsys, "convert", str(bad))
    assert code == 0
    assert graph_from_json(json.loads(out)) == build_graph(3, 1, [(0, 1, 0)])


def test_check_report_and_exit(capsys, tmp_path):
    g6 = tmp_path / "g6.json"
    cli.run(["gen", "--family", "double-star", "--m", "6", "-o", str(g6)])
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "check", str(g6))
    assert code == 3
    data = json.loads(out)
    assert data["statements"]["ABCHS-6.1"]["is_counterexample"] is True
    assert data["statements"]["AB-Thm-2.6"]["is_counterexample"] is False
    code, out, _ = run_cli(capsys, "check", "--pretty", str(g6))
    assert code == 3
    assert "counterexample" in out
    single = write_single_edge(tmp_path)
    assert run_cli(capsys, "check", single)[0] == 0


def test_hunt_stream_and_exit(capsys):
    code, out, _ = run_cli(
        capsys, "hunt", "--bipartite", "--class-size", "2", "--max-edges", "4"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["type"] == "result"
    assert lines[0]["canonical"] == "4:0,1,0,1"
    assert lines[-1]["type"] == "summary"
    assert lines[-1]["exhausted"] is True


def test_hunt_resume(capsys, tmp_path):
    first = tmp_path / "first.jsonl"
    assert (
        cli.run(
            ["hunt", "--bipartite", "--class-size", "2", "--max-edges", "4", "-o", str(first)]
        )
        == 0
    )
    capsys.readouterr()
    code, out, _ = run_cli(
        capsys,
        "hunt",
        "--bipartite",
        "--class-size",
        "2",
        "--max-edges",
        "4",
        "--resume",
        str(first),
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [r["type"] for r in lines] == ["summary"]
    assert lines[0]["skipped_known"] == 1


@pytest.mark.parametrize(
    "line, message",
    [
        ("not json", "line 2 is not JSON: Expecting value"),
        ("[1]", "line 2 is not a JSON object"),
        ("7", "line 2 is not a JSON object"),
        ('{"type": "result"}', 'line 2 is a result record without a string "canonical"'),
        ('{"type": "result", "canonical": 7}', 'line 2 is a result record without a string "canonical"'),
        ('{"type": "result", "canonical": ["4:0,1,0,1"]}', 'line 2 is a result record without a string "canonical"'),
    ],
)
def test_hunt_resume_rejects_malformed_records(capsys, tmp_path, line, message):
    resume = tmp_path / "resume.jsonl"
    resume.write_text('{"type": "summary"}\n' + line + "\n")
    code, out, err = run_cli(
        capsys, "hunt", "--class-size", "2", "--max-edges", "4", "--resume", str(resume)
    )
    assert code == 2
    assert out == ""
    assert err == f"malformed record: {message}\n"


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        ([command, "DEEP"], 2, "malformed JSON: nested too deeply")
        for command in ("solve", "check", "stats", "convert")
    ]
    + [
        (
            ["hunt", "--class-size", "2", "--max-edges", "4", "--resume", "DEEP"],
            2,
            "malformed record: line 1 is not JSON: nested too deeply",
        ),
        # the string generator would recurse once per edge, so a bound on
        # max_edges below the recursion limit rejects the spec up front
        (
            ["hunt", "--class-size", "3000", "--max-edges", "3100"],
            1,
            "error: max_edges must be at most",
        ),
    ],
)
def test_deep_recursion_ends_with_one_line(capsys, tmp_path, argv, code, prefix):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = [str(deep) if arg == "DEEP" else arg for arg in argv]
    exit_code, out, err = run_cli(capsys, *argv)
    assert (exit_code, out) == (code, "")
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b'\xff\xfe{"vertices": 2}', id="not-utf8"),
        pytest.param(
            b'{"vertices": ' + b"9" * 5000 + b', "colours": 1, "edges": []}',
            id="long-integer",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="this Python converts integers of any length",
            ),
        ),
    ],
)
@pytest.mark.parametrize(
    "argv, prefix",
    [([command, "FILE"], "malformed JSON: ") for command in ("solve", "check", "stats", "convert")]
    + [(["hunt", "--class-size", "2", "--max-edges", "4", "--resume", "FILE"], "malformed record: ")],
    ids=["solve", "check", "stats", "convert", "hunt-resume"],
)
def test_unreadable_json_ends_with_exit_2(capsys, tmp_path, content, argv, prefix):
    path = tmp_path / "instance.json"
    path.write_bytes(content)
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["stats", "check", "convert"])
def test_huge_vertex_count_allocates_nothing_per_vertex(capsys, tmp_path, command):
    path = tmp_path / "instance.json"
    path.write_text(
        json.dumps({"vertices": 10**12, "colours": 1, "edges": [{"u": 0, "v": 10**12 - 1, "colour": 0}]})
    )
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, command, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 5 * 2**20
    if command == "convert":
        # the isolated vertices are dropped
        assert out == '{"v1":1,"v2":1,"v3":1,"tripartite":true,"triples":[[0,0,0]]}\n'
        return
    data = json.loads(out)
    stats = data if command == "stats" else data["stats"]
    assert stats["max_degree"] == 1
    assert stats["bipartite"] is True
    assert stats["delta_v1"] == stats["delta_max_rest"] == 1
    if command == "stats":
        assert data["vertices"] == 10**12
        assert data["colour_multiplicities"] == [1]
    else:
        assert data["full_rainbow_exists"] is True


def test_dot_conversion_allocates_nothing_per_isolated_vertex(capsys, tmp_path):
    path = tmp_path / "hypergraph.json"
    path.write_text(
        json.dumps({"v1": 1, "v2": 10**12, "v3": 1, "tripartite": True, "triples": [[0, 0, 0]]})
    )
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "convert", "--format", "dot", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 5 * 2**20
    assert out.splitlines() == [
        "graph G {",
        f"  // {10**12 - 1} isolated vertices",
        "  0;",
        f"  {10**12};",
        f'  0 -- {10**12} [color=blue, label="0"];',
        "}",
    ]


def test_unexpected_error_ends_with_one_line(capsys, monkeypatch):
    def failing_hunt(*args, **kwargs):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(cli.hunting, "hunt", failing_hunt)
    code, out, err = run_cli(capsys, "hunt", "--class-size", "2", "--max-edges", "4")
    assert (code, out) == (1, "")
    assert err == "error: RuntimeError: first line second line\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_hunt_rejects_fewer_than_one_job(capsys, jobs):
    code, out, err = run_cli(capsys, "hunt", "--class-size", "2", "--max-edges", "4", "--jobs", jobs)
    assert (code, out, err) == (1, "", "error: jobs must be at least 1\n")


def test_hunt_jobs_byte_identical(capsys):
    argv = ["hunt", "--bipartite", "--class-size", "2", "--max-edges", "8"]
    code1, out1, _ = run_cli(capsys, *argv, "--jobs", "1")
    code2, out2, _ = run_cli(capsys, *argv, "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


RESULTS = Path(__file__).resolve().parents[1] / "results"


@pytest.mark.parametrize(
    "archive, argv",
    [
        ("small_blockers.jsonl", ["--bipartite", "--class-size", "2", "--max-edges", "8"]),
        (
            "delta_gap_hunt.jsonl",
            ["--bipartite", "--class-size", "3", "--max-edges", "12", "--require-gap"],
        ),
    ],
)
def test_hunt_reproduces_archives(capsys, archive, argv):
    # the commands the README gives for the archives in results/
    code, out, _ = run_cli(capsys, "hunt", *argv)
    assert code == 0
    assert out.encode("utf-8") == (RESULTS / archive).read_bytes()


EDGE = {"u": 0, "v": 1, "colour": 0}
TRIPLE_INSTANCE = {"v1": 1, "v2": 1, "v3": 1, "tripartite": True, "triples": [[0, 0, 0]]}


@pytest.mark.parametrize(
    "instance",
    [
        {"vertices": True, "colours": 0, "edges": []},
        {"vertices": 2, "colours": True, "edges": [EDGE]},
        {"vertices": 2, "colours": 1, "edges": [dict(EDGE, u=False)]},
        {"vertices": 2, "colours": 1, "edges": [dict(EDGE, v=True)]},
        {"vertices": 2, "colours": 1, "edges": [dict(EDGE, colour=False)]},
        dict(TRIPLE_INSTANCE, v1=True),
        dict(TRIPLE_INSTANCE, v2=True),
        dict(TRIPLE_INSTANCE, v3=True),
        dict(TRIPLE_INSTANCE, triples=[[False, 0, 0]]),
        dict(TRIPLE_INSTANCE, triples=[[0, False, 0]]),
        dict(TRIPLE_INSTANCE, triples=[[0, 0, False]]),
    ],
)
def test_solve_rejects_json_booleans(capsys, tmp_path, instance):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("invalid instance:")


@pytest.mark.parametrize(
    "instance, message",
    [
        ({"vertices": 2, "colours": 10**12, "edges": []}, "colour 0 appears on no edge"),
        (dict(TRIPLE_INSTANCE, v1=10**12), "V1 vertex 1 occurs in no triple"),
    ],
)
def test_solve_rejects_huge_class_count(capsys, tmp_path, instance, message):
    # every colour (V1 vertex) needs an edge (triple), so the count is
    # rejected before anything of that size is allocated
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert message in err

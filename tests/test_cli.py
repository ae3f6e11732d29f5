import io
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import random_bipartite_graph, random_graph
from rainbowmatch import (
    cli,
    degree_stats,
    from_coloured_graph,
    graph_from_json,
    graph_to_json,
    hunting,
    hypergraph_to_json,
    is_full_rainbow,
)
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
    # a limit that is not an integer is refused before any work, in one line
    monkeypatch.setenv("RAINBOW_BRUTE_LIMIT", "1e3")
    code, out, err = run_cli(capsys, "solve", "--method", "brute", str(g4))
    assert (code, out) == (1, "")
    assert err == "error: RAINBOW_BRUTE_LIMIT must be an integer, got '1e3'\n"
    # a hunt certifies under the default guard and never reads the variable
    argv = ["hunt", "--class-size", "2", "--max-edges", "8"]
    monkeypatch.delenv("RAINBOW_BRUTE_LIMIT")
    code, expected, _ = run_cli(capsys, *argv)
    assert (code, len(expected)) == (0, 10913)
    for raw in ("1", "x"):
        monkeypatch.setenv("RAINBOW_BRUTE_LIMIT", raw)
        assert run_cli(capsys, *argv) == (0, expected, "")


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


INTERRUPTED_HUNT = """
import sys, time
from rainbowmatch import cli, hunting

examine = hunting._examine_unit

def slow(args):
    # the (8,) unit keeps one worker busy while the other waits for work
    if args[1] == (8,):
        time.sleep(30)
    return examine(args)

if sys.argv[2] == "idle":
    hunting._examine_unit = slow
print("ready", flush=True)
sys.exit(cli.run(["hunt", "--class-size", sys.argv[3], "--max-edges", sys.argv[4], "--jobs", sys.argv[1]]))
"""


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
@pytest.mark.parametrize(
    "jobs, workers, class_size, max_edges",
    [
        ("1", "busy", "3", "15"),
        ("2", "busy", "3", "15"),
        pytest.param(
            "2", "idle", "2", "8",
            marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork",
                reason="the workers must inherit the patched _examine_unit",
            ),
        ),
    ],
)
def test_interrupted_hunt_ends_with_one_line(jobs, workers, class_size, max_edges):
    # Ctrl-C in a terminal sends SIGINT to the whole foreground process
    # group, workers included, whether they are running a unit or waiting
    # for one: the hunt ends with exit 1, one line on stderr and no process
    # of its group left
    src = str(Path(cli.__file__).resolve().parents[1])
    process = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED_HUNT, jobs, workers, class_size, max_edges],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        start_new_session=True,
    )
    try:
        assert process.stdout.readline() == "ready\n"
        # each hunt takes several seconds; by now it is under way
        time.sleep(1)
        os.killpg(process.pid, signal.SIGINT)
        out, err = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    assert (process.returncode, out, err) == (1, "", "interrupted\n")
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.1)
    else:
        pytest.fail("a process of the interrupted hunt is still running")


SIGNALLED_AT_EXIT = """
import atexit, os, signal, sys
from rainbowmatch import cli

# Ctrl-C after the command has finished, while the interpreter exits
atexit.register(os.kill, os.getpid(), signal.SIGINT)
sys.argv = ["rainbowmatch", "stats", sys.argv[1]]
cli.main()
"""


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX signals")
def test_interrupt_while_exiting_keeps_the_exit_code(tmp_path):
    # the command's output and exit code stand, with nothing on stderr
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", SIGNALLED_AT_EXIT, write_single_edge(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["edges"] == 1


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
    # converting a graph yields a hypergraph, which has no dot form
    code, out, err = run_cli(capsys, "convert", "--format", "dot", write_single_edge(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: dot output applies to graphs") and err.count("\n") == 1


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


def test_hunt_refuses_to_write_over_its_resume_file(capsys, tmp_path, monkeypatch):
    # the new run's output leaves out the finds it skips, so writing it over
    # the resumed file would lose them
    records = tmp_path / "records.jsonl"
    assert cli.run(["hunt", "--class-size", "2", "--max-edges", "6", "-o", str(records)]) == 0
    before = records.read_bytes()
    os.link(records, tmp_path / "link.jsonl")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(hunting, "hunt", lambda *args, **kwargs: pytest.fail("the sweep started"))
    capsys.readouterr()
    for output in (str(records), "records.jsonl", "link.jsonl"):
        code, out, err = run_cli(
            capsys, "hunt", "--class-size", "2", "--max-edges", "8", "--resume", str(records), "-o", output
        )
        assert (code, out) == (1, "")
        assert err == f"error: --output would overwrite the --resume file {records}\n"
    assert records.read_bytes() == before


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


def test_stats_and_check_report_degree_stats_of_any_instance(capsys, tmp_path):
    # a graph and its hypergraph have the same degree_stats, and stats and
    # check report them for either file
    rng = random.Random(3030)
    graphs = [random_graph(rng) for _ in range(40)] + [random_bipartite_graph(rng) for _ in range(40)]
    path = tmp_path / "instance.json"
    for g in graphs:
        hypergraph = from_coloured_graph(g)
        expected = degree_stats(g)
        assert degree_stats(hypergraph) == expected
        for data in (graph_to_json(g), hypergraph_to_json(hypergraph)):
            path.write_text(json.dumps(data))
            for command in ("stats", "check"):
                code, out, _ = run_cli(capsys, command, str(path))
                assert code in (0, 3)
                data = json.loads(out)
                stats = data if command == "stats" else data["stats"]
                assert (stats["delta_v1"], stats["delta_max_rest"]) == expected


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


def test_a_wrong_witness_ends_solve_with_one_line(capsys, tmp_path, monkeypatch, four_cycle):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(graph_to_json(four_cycle)))
    # edges 0 and 1 share vertex 1
    monkeypatch.setattr(cli.solver, "_walk", lambda *args, **kwargs: ([0, 1], 1))
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (1, "")
    assert err == "error: RuntimeError: the engine returned an invalid witness [0, 1]\n"


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

"""Property tests of the command-line contract.

Whatever the input, a command ends with exit 0 or 3 and JSON output, or with
exit 1 or 2, no output and exactly one line on stderr, and never lets an
exception escape.
"""

import contextlib
import copy
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rainbowmatch import cli  # noqa: E402

# deterministic, and nothing written to the working directory
CONTRACT = settings(max_examples=150, deadline=None, derandomize=True, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

# integers at the edges of what the instance fields accept
integers = st.integers(-3, 8) | st.sampled_from([-(2**63), 2**31, 10**12, 10**18]) | st.integers()

VALID = [
    # a 6-cycle in two colours: a full rainbow matching exists
    {
        "vertices": 6,
        "colours": 2,
        "edges": [{"u": i, "v": (i + 1) % 6, "colour": i % 2} for i in range(6)],
    },
    # two parallel edges of one colour and an isolated vertex
    {"vertices": 3, "colours": 1, "edges": [{"u": 0, "v": 1, "colour": 0}] * 2},
    {"v1": 2, "v2": 2, "v3": 2, "tripartite": True, "triples": [[0, 0, 1], [1, 1, 0], [0, 1, 1]]},
    {"v1": 1, "v2": 3, "v3": 0, "tripartite": False, "triples": [[0, 0, 2]]},
]


@st.composite
def mutated_instances(draw):
    """A valid instance with one to three of its values replaced, deleted or
    duplicated."""
    instance = copy.deepcopy(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(1, 3))):
        slots = []

        def collect(node):
            keys = list(node) if isinstance(node, dict) else range(len(node))
            for key in keys:
                slots.append((node, key))
                if isinstance(node[key], (dict, list)):
                    collect(node[key])

        collect(instance)
        node, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["value", "integer", "delete", "duplicate"]))
        if action == "value":
            node[key] = draw(json_values)
        elif action == "integer":
            node[key] = draw(integers)
        elif action == "delete":
            del node[key]
        elif isinstance(node, list):
            node.append(copy.deepcopy(node[key]))
    return instance


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        saved, cli.sys.stdin = cli.sys.stdin, io.StringIO(stdin)
        try:
            code = cli.run(argv)
        finally:
            cli.sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err):
    if code in (0, 3):
        assert out.endswith("\n")
        for line in out.splitlines():
            json.loads(line)
    else:
        assert code in (1, 2), code
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["convert", "solve", "check", "stats"])
@CONTRACT
@given(text=st.one_of(json_values.map(json.dumps), mutated_instances().map(json.dumps), st.text()))
def test_instance_commands_keep_the_contract(command, text):
    assert_contract(*run([command, "-"], stdin=text))


@CONTRACT
@given(lines=st.lists(st.one_of(st.text(), json_values.map(json.dumps)), max_size=5))
def test_hunt_resume_keeps_the_contract(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "resume.jsonl"
    path.write_text("\n".join(lines), encoding="utf-8", errors="surrogatepass")
    argv = ["hunt", "--class-size", "2", "--max-edges", "4", "--resume", str(path)]
    assert_contract(*run(argv))

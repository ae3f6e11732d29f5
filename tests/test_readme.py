"""The README's library example runs as written and prints what it says."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _first_python_block(text: str, heading: str) -> str:
    after = text[text.index(heading) :]
    opening = after.index("```python\n") + len("```python\n")
    return after[opening : after.index("```", opening)]


def test_library_quick_start_runs():
    code = _first_python_block(README.read_text(encoding="utf-8"), "## Library quick start")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    assert printed.getvalue().splitlines() == [
        "('AB-2.5/Conj2', 'Conj1-bipartite', 'ABCHS-6.1', 'ABCHS-5.4/6.2')",
        "['4,4,4:0,1,0,1|0,2,1,3|2,3,2,3']",
    ]

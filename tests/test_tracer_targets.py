"""The benchmark's tracer finds every package function it wraps."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_function_exists():
    # bench/tracer.py looks its targets up by name only when a traced pass
    # starts, so a removed or renamed function would fail there and nowhere
    # in this suite; the file is loaded, not changed
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for _, module, function, _ in tracer.TARGETS:
        found = getattr(importlib.import_module(f"rainbowmatch.{module}"), function, None)
        assert callable(found), (module, function)

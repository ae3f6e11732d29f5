import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import rainbowmatch
from rainbowmatch import (
    AbsenceCertificate,
    ConjectureReport,
    DegreeStats,
    HuntOutcome,
    SearchResult,
    SolveOutcome,
    StatementOutcome,
    STATEMENTS,
    build_graph,
    conjecture_report,
    double_star_family,
)

GRAPH = build_graph(2, 1, [(0, 1, 0)])
GRAPH_REPR = "ColouredMultigraph(vertex_count=2, colour_count=1, edges=(Edge(u=0, v=1, colour=0),))"

# (record, its fields in order, its exact repr)
RECORDS = [
    (
        SolveOutcome(matching=frozenset({0, 2}), nodes_explored=3, exhaustive=False),
        ("matching", "nodes_explored", "exhaustive"),
        "SolveOutcome(matching=frozenset({0, 2}), nodes_explored=3, exhaustive=False)",
    ),
    (
        DegreeStats(2, 3),
        ("delta_v1", "delta_max_rest"),
        "DegreeStats(delta_v1=2, delta_max_rest=3)",
    ),
    (
        AbsenceCertificate(combinations=4, matchings=0),
        ("combinations", "matchings"),
        "AbsenceCertificate(combinations=4, matchings=0)",
    ),
    (
        SearchResult(GRAPH, (2,), DegreeStats(1, 1), AbsenceCertificate(1, 0), "2:0,0"),
        ("instance", "shape", "stats", "certificate", "canonical_form"),
        f"SearchResult(instance={GRAPH_REPR}, shape=(2,), "
        "stats=DegreeStats(delta_v1=1, delta_max_rest=1), "
        "certificate=AbsenceCertificate(combinations=1, matchings=0), canonical_form='2:0,0')",
    ),
    (
        HuntOutcome((), 5, 2, 0, True),
        ("results", "candidates_examined", "orbits_examined", "skipped_known", "exhausted"),
        "HuntOutcome(results=(), candidates_examined=5, orbits_examined=2, skipped_known=0, "
        "exhausted=True)",
    ),
    (
        StatementOutcome(hypothesis_holds=True, conclusion_holds=False),
        ("hypothesis_holds", "conclusion_holds"),
        "StatementOutcome(hypothesis_holds=True, conclusion_holds=False)",
    ),
    (
        ConjectureReport(2, 1, 1, 2, True, False, {"AB-2.5/Conj2": StatementOutcome(False, False)}, {}),
        (
            "max_degree",
            "min_colour_multiplicity",
            "delta_v1",
            "delta_max_rest",
            "bipartite",
            "full_rainbow_exists",
            "statements",
            "notes",
        ),
        "ConjectureReport(max_degree=2, min_colour_multiplicity=1, delta_v1=1, delta_max_rest=2, "
        "bipartite=True, full_rainbow_exists=False, statements={'AB-2.5/Conj2': "
        "StatementOutcome(hypothesis_holds=False, conclusion_holds=False)}, notes={})",
    ),
]


@pytest.mark.parametrize(
    "record, fields, text", RECORDS, ids=[type(record).__name__ for record, _, _ in RECORDS]
)
def test_record_is_an_immutable_named_tuple(record, fields, text):
    kind = type(record)
    assert kind._fields == fields
    values = tuple(getattr(record, name) for name in fields)
    assert tuple(record) == values
    assert kind(**dict(zip(fields, values))) == record
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    # the hunt's worker pool ships records between processes
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is kind and back == record


def test_records_keep_their_derived_answers():
    assert StatementOutcome(True, False).is_counterexample
    assert not StatementOutcome(True, True).is_counterexample
    assert not StatementOutcome(False, False).is_counterexample
    report = conjecture_report(double_star_family(4))
    assert set(report.statements) == set(STATEMENTS)
    assert report.counterexamples() == ("AB-2.5/Conj2", "Conj1-bipartite")
    assert pickle.loads(pickle.dumps(report)).counterexamples() == report.counterexamples()


def test_every_dataclass_validates_when_built():
    # a record that checks nothing is a named tuple: creating a dataclass
    # costs the package's import several times as much
    found = []
    for info in pkgutil.iter_modules(rainbowmatch.__path__):
        module = importlib.import_module(f"rainbowmatch.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                if dataclasses.is_dataclass(value):
                    found.append(value.__name__)
                    assert "__post_init__" in vars(value), value.__name__
    assert found

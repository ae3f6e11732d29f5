"""The hunt's JSON-lines records: one line per blocked instance, a summary
record, and the canonical forms a ``--resume`` file has already certified.

:mod:`rainbowmatch.hunting` re-exports every name here.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .hunting import HuntOutcome, SearchResult, SearchSpec


def result_line(result: SearchResult) -> str:
    """The result's JSON record as one line, byte for byte ``json.dumps`` with
    compact separators but built without a dict: every value is a non-negative
    int and the canonical form holds only digits and ``,|:``, so nothing is escaped."""
    graph, stats, certificate = result.instance, result.stats, result.certificate
    return (
        '{"type":"result","canonical":"%s","shape":[%s],"edges_total":%d,'
        '"delta_v1":%d,"delta_max_rest":%d,"certificate":{"combinations":%d,"matchings":%d},'
        '"instance":{"vertices":%d,"colours":%d,"edges":[%s]}}\n'
    ) % (
        result.canonical_form, ",".join(map(str, result.shape)), sum(result.shape),
        stats.delta_v1, stats.delta_max_rest, certificate.combinations, certificate.matchings,
        graph.vertex_count, graph.colour_count,
        ",".join(['{"u":%d,"v":%d,"colour":%d}' % edge for edge in graph.edges]),
    )


def summary_record(outcome: HuntOutcome, spec: SearchSpec) -> dict:
    return {
        "type": "summary",
        "max_edges": spec.max_edges,
        "colour_class_size": spec.colour_class_size,
        "class_size_is_minimum": spec.class_size_is_minimum,
        "require_bipartite": spec.require_bipartite,
        "require_delta_gap": spec.require_delta_gap,
        "results": len(outcome.results),
        "candidates_examined": outcome.candidates_examined,
        "orbits_examined": outcome.orbits_examined,
        "skipped_known": outcome.skipped_known,
        "exhausted": outcome.exhausted,
    }


class MalformedRecordError(ValueError):
    """A hunt record stream has a line that is not a record of the hunt's form."""


def read_certified_forms(lines: Iterator[str]) -> set[str]:
    """Canonical forms of already-certified results in a JSON-lines stream.

    Raises :class:`MalformedRecordError`, naming the line, for a line that is
    not a JSON object and for a result record whose ``canonical`` is missing
    or not a string, and, naming no line, for a stream of bytes that is not
    UTF-8 (it is decoded in chunks, so the line is not known).
    """
    forms = set()
    try:
        for number, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecordError(f"line {number} is not JSON: {exc.msg}") from exc
            except RecursionError as exc:
                raise MalformedRecordError(f"line {number} is not JSON: nested too deeply") from exc
            except ValueError as exc:
                # an integer with more digits than int() converts
                raise MalformedRecordError(f"line {number} is not JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise MalformedRecordError(f"line {number} is not a JSON object")
            if record.get("type") == "result":
                form = record.get("canonical")
                if not isinstance(form, str):
                    raise MalformedRecordError(
                        f"line {number} is a result record without a string \"canonical\""
                    )
                forms.add(form)
    except UnicodeDecodeError as exc:
        raise MalformedRecordError(f"not UTF-8: {exc.reason}") from exc
    return forms

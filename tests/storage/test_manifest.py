"""Manifest parsers: parsed once per metadata string, shared safely.

The four ``*_from_meta`` parsers are memoized on the raw string, so one
parse is handed to every caller that ever asks — it must be immutable —
and an unreadable manifest must still degrade to None (the part stays
scannable, it only loses the prune).
"""

import pytest

from repro.perf import PERF
from repro.storage import manifest

PARSERS = [
    (manifest.stats_from_meta, '{"t":[0.0,9.0],"p":[1.0,2.0,false],"s":null}'),
    (manifest.columns_from_meta, '["t","p","s"]'),
    (manifest.spans_from_meta, "[[0.0,20],[1.0,30]]"),
    (manifest.replaces_from_meta, '["d/part-00000000.rcf","d/part-00000001.rcf"]'),
]


@pytest.fixture(autouse=True)
def cold_memos():
    for parser, _ in PARSERS:
        parser.cache_clear()


def test_round_trip_values():
    stats, columns, spans, replaces = (parser(raw) for parser, raw in PARSERS)
    assert dict(stats) == {"t": (0.0, 9.0), "p": (1.0, 2.0, False), "s": None}
    assert columns == ("t", "p", "s")
    assert spans == ((0.0, 20), (1.0, 30))
    assert replaces == ("d/part-00000000.rcf", "d/part-00000001.rcf")
    assert manifest.oldest_span_epoch(PARSERS[2][1]) == 0.0


@pytest.mark.parametrize("parser,raw", PARSERS)
def test_each_string_is_parsed_once(parser, raw):
    parses0 = PERF.counter("manifest.parses")
    first = parser(raw)
    assert PERF.counter("manifest.parses") - parses0 == 1
    assert parser(raw) is first
    assert parser(str(raw)) is first
    assert PERF.counter("manifest.parses") - parses0 == 1


def test_shared_parses_cannot_be_mutated():
    stats, columns, spans, replaces = (parser(raw) for parser, raw in PARSERS)
    with pytest.raises(TypeError):
        stats["t"] = (5.0, 6.0)
    with pytest.raises(TypeError):
        del stats["p"]
    for shared in (columns, spans, replaces, spans[0], stats["t"]):
        assert isinstance(shared, tuple)
    assert dict(PARSERS[0][0](PARSERS[0][1]))["t"] == (0.0, 9.0)


@pytest.mark.parametrize("parser,_", PARSERS)
@pytest.mark.parametrize("raw", [None, "", "{not json", "42", '"text"'])
def test_absent_or_mangled_metadata_is_none(parser, _, raw):
    assert parser(raw) is None


def test_wrong_shape_is_none():
    assert manifest.stats_from_meta('["a","b"]') is None
    assert manifest.columns_from_meta('{"a":1}') is None
    assert manifest.replaces_from_meta('{"a":1}') is None
    assert manifest.spans_from_meta("[[0.0,20],[1.0]]") is None
    assert manifest.spans_from_meta("[[0.0,20],7]") is None
    assert manifest.oldest_span_epoch("[]") is None
    assert manifest.oldest_span_epoch(None) is None

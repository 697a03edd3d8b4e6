"""Unit and property tests for the N-Triples reader/writer."""

from __future__ import annotations

import io
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParseError
from repro.io import ntriples
from repro.model import RDFGraph, blank, lit, uri
from repro.model.graph import isomorphic_by_labels
from repro.model.rdf import graph_from_triples


class TestParseLine:
    def test_simple_triple(self):
        triple = ntriples.parse_line('<http://a> <http://p> <http://b> .')
        assert triple == (uri("http://a"), uri("http://p"), uri("http://b"))

    def test_literal_object(self):
        triple = ntriples.parse_line('<http://a> <http://p> "hello" .')
        assert triple[2] == lit("hello")

    def test_language_tag(self):
        triple = ntriples.parse_line('<http://a> <http://p> "hi"@en-GB .')
        assert triple[2] == lit("hi", language="en-GB")

    def test_datatype(self):
        triple = ntriples.parse_line('<a> <p> "5"^^<http://int> .')
        assert triple[2] == lit("5", datatype="http://int")

    def test_blank_nodes(self):
        triple = ntriples.parse_line("_:x <p> _:y .")
        assert triple == (blank("x"), uri("p"), blank("y"))

    def test_escapes_in_literal(self):
        triple = ntriples.parse_line(r'<a> <p> "tab\there\nnl \"q\" \\" .')
        assert triple[2] == lit('tab\there\nnl "q" \\')

    def test_unicode_escapes(self):
        triple = ntriples.parse_line(r'<a> <p> "é\U0001F600" .')
        assert triple[2] == lit("é😀")

    def test_comment_and_empty_lines(self):
        assert ntriples.parse_line("# comment") is None
        assert ntriples.parse_line("   ") is None

    @pytest.mark.parametrize(
        "bad",
        [
            "<a> <p> <b>",  # missing dot
            '<a> <p> "unterminated .',
            "<a <p> <b> .",
            "<a> <p> .",
            '"lit" <p> <b> .',  # literal subject
            "<a> _:b <c> .",  # blank predicate
            "<a> <p> <b> . trailing",
            r'<a> <p> "\q" .',  # unknown escape
            r'<a> <p> "\u12" .',  # truncated escape
            "_: <p> <b> .",  # empty blank label
            '<a> <p> "x"@ .',  # empty language
        ],
    )
    def test_malformed_lines_raise(self, bad):
        with pytest.raises(ParseError) as scanned:
            ntriples.parse_line(bad)
        with pytest.raises(ParseError) as loaded:
            ntriples.loads(bad)
        assert str(loaded.value) == str(scanned.value)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as excinfo:
            ntriples.parse_line("<a> <p> <b>", line_number=42)
        assert excinfo.value.line_number == 42
        assert "42" in str(excinfo.value)


class TestDocumentIO:
    def test_loads_skips_comments(self):
        text = "# header\n<a> <p> <b> .\n\n<a> <p> \"x\" .\n"
        graph = ntriples.loads(text)
        assert graph.num_edges == 2

    def test_load_stream(self):
        stream = io.StringIO("<a> <p> <b> .\n")
        assert ntriples.load(stream).num_edges == 1

    def test_dumps_sorted_and_deterministic(self):
        g = RDFGraph()
        g.add(uri("b"), uri("p"), lit("x"))
        g.add(uri("a"), uri("p"), lit("x"))
        out = ntriples.dumps(g)
        assert out.index("<a>") < out.index("<b>")
        assert out == ntriples.dumps(g)

    def test_dump_and_load_path(self, tmp_path, figure1_graphs):
        v1, __ = figure1_graphs
        path = tmp_path / "v1.nt"
        ntriples.dump_path(v1, path)
        loaded = ntriples.load_path(path)
        loaded.validate()
        assert isomorphic_by_labels(v1, loaded)

    def test_empty_graph_serializes_to_empty(self):
        assert ntriples.dumps(RDFGraph()) == ""


class TestRoundTrip:
    def test_figure1_round_trip(self, figure1_graphs):
        for graph in figure1_graphs:
            text = ntriples.dumps(graph)
            again = ntriples.loads(text)
            assert isomorphic_by_labels(graph, again)
            assert ntriples.dumps(again) == text

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs",)),
                max_size=20,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_literal_values_round_trip(self, values):
        g = RDFGraph()
        for index, value in enumerate(values):
            g.add(uri(f"s{index}"), uri("p"), lit(value))
        again = ntriples.loads(ntriples.dumps(g))
        assert {t[2] for t in again.triples() if isinstance(t[2], type(lit("")))} == {
            lit(v) for v in values
        }

    def test_format_term_rejects_non_terms(self):
        with pytest.raises(TypeError):
            ntriples.format_term(42)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# The line-pattern fast path of ``load`` against the character scanner
# ----------------------------------------------------------------------
def _outcome(parse):
    """``("ok", value)`` or ``("error", message, line number)``."""
    try:
        return ("ok", parse())
    except ParseError as error:
        return ("error", str(error), error.line_number)


def _graph_state(graph):
    return list(graph.labels().items()), set(graph.edges()), dict(graph.out_index())


def _assert_load_matches_scanner(text):
    """``load`` builds what the scanner path builds, or fails the same way."""

    def scanned():
        return _graph_state(graph_from_triples(ntriples.iter_triples(io.StringIO(text))))

    def loaded():
        graph = ntriples.loads(text)
        graph.validate()
        stored = {node: node for node in graph.labels()}
        for edge in graph.edges():
            assert all(stored[term] is term for term in edge), edge
        for subject, pairs in graph.out_index().items():
            assert stored[subject] is subject
            assert all(stored[p] is p and stored[o] is o for p, o in pairs)
        return _graph_state(graph)

    assert _outcome(loaded) == _outcome(scanned), text


def _assert_pattern_matches_scanner(line):
    """On a backslash-free line the pattern accepts what the scanner does."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#") or "\\" in stripped:
        return
    match = ntriples._TRIPLE_LINE.fullmatch(stripped)
    scanned = _outcome(lambda: ntriples.parse_line(line))
    if match is None:
        assert scanned[0] == "error", (line, scanned)
    else:
        tokens = tuple(ntriples._token_term(token) for token in match.groups())
        assert scanned == ("ok", tokens), line


#: Pieces of well- and ill-formed lines; random concatenations of them
#: reach the scanner's error branches as well as valid triples.
_FRAGMENTS = [
    "<", ">", "<http://x/a>", "<p>", "<>", "_:", "_:b1", "b", "1", ".", "-",
    " ", "\t", '"', '"v"', '""', "@", "en", "^^", "<dt>", "#", "\\", "u0041",
    '\\"', "é", "日本", "_", "x", " ", "²",
]

_WS = st.text(alphabet=" \t", max_size=2)
_URI = st.text(
    alphabet=st.characters(blacklist_characters=">\\\n\r", blacklist_categories=("Cs",)),
    max_size=8,
).map(lambda value: f"<{value}>")
_BLANK = st.text(
    alphabet=st.one_of(
        st.characters(whitelist_categories=("L", "N"), blacklist_categories=("Cs",)),
        st.sampled_from("-_."),
    ),
    min_size=1,
    max_size=6,
).map(lambda label: f"_:{label}")
_TAG = st.text(
    alphabet=st.one_of(st.characters(whitelist_categories=("L", "N")), st.just("-")),
    min_size=1,
    max_size=5,
)
_LITERAL = st.tuples(
    st.text(
        alphabet=st.characters(blacklist_characters='"\\\n\r', blacklist_categories=("Cs",)),
        max_size=8,
    ),
    st.one_of(st.just(""), _TAG.map(lambda tag: f"@{tag}"), _URI.map(lambda u: f"^^{u}")),
).map(lambda parts: f'"{parts[0]}"{parts[1]}')
_VALID_LINE = st.tuples(
    _WS, st.one_of(_URI, _BLANK), _WS, _URI, _WS,
    st.one_of(_URI, _BLANK, _LITERAL), _WS, _WS,
).map(lambda p: f"{p[0]}{p[1]}{p[2]}{p[3]}{p[4]}{p[5]}{p[6]}.{p[7]}")


@st.composite
def _mutated_line(draw):
    """A valid line with one fragment inserted or one character cut."""
    line = draw(_VALID_LINE)
    at = draw(st.integers(min_value=0, max_value=len(line)))
    if draw(st.booleans()):
        return line[:at] + draw(st.sampled_from(_FRAGMENTS)) + line[at:]
    return line[:at] + line[at + 1:]


_ANY_LINE = st.one_of(
    _VALID_LINE,
    _mutated_line(),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join),
)


class TestLinePatternAgainstScanner:
    @pytest.mark.parametrize(
        "line",
        [
            "<s> <p> _:b1.",  # the label is "b1.", so the final dot is missing
            "<s> <p> _:b1. .",  # accepted, blank label "b1."
            "_:b.<p><o>.",
            "_:a<p><o>.",
            "<s>\t<p>\t<o>\t.",
            "<s><p>\"x\".",
            "<a b> <p> <c\"d> .",
            "<> <p> \"\" .",
            "_:bé1 <p> _:日本-2 .",
            '<s> <p> "x"@日本語-x2 .',
            '<s> <p> "x"@ .',
            '<s> <p> "x"@',
            '<s> <p> "x"@_ .',
            '<s> <p> "x"@en^^<dt> .',
            '<s> <p> "5"^^<http://int> .',
            '<s> <p> "5"^^http .',
            '<s> <p> "x\\"y" .',
            '<s> <p> "\\u00e9" .',
            '<\\u0073> <p> <o> .',
            '"lit" <p> <o> .',
            "<s> _:b <o> .",
            "<s> <p> <o> . # comment",
            "<s> <p> <o>",
            "<s> <p> <o> . .",
            "<s> <p> <o> .",
            "_: <p> <o> .",
            "<s> <p> _:.",
        ],
    )
    def test_cases(self, line):
        _assert_pattern_matches_scanner(line)
        _assert_load_matches_scanner(line)
        _assert_load_matches_scanner(f"<s> <p> <o> .\n# note\n\n{line}\n")

    @settings(max_examples=300, deadline=None)
    @given(line=_ANY_LINE)
    def test_single_line(self, line):
        _assert_pattern_matches_scanner(line)
        _assert_load_matches_scanner(line)

    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(st.one_of(_VALID_LINE, _VALID_LINE, _ANY_LINE), max_size=8))
    def test_document(self, lines):
        _assert_load_matches_scanner("\n".join(lines))

    def test_malformed_error_text_and_line_number(self):
        text = "<s> <p> <o> .\n\n<s> <p> _:b1.\n"
        with pytest.raises(ParseError) as loaded:
            ntriples.loads(text)
        with pytest.raises(ParseError) as scanned:
            ntriples.parse_line("<s> <p> _:b1.", line_number=3)
        assert loaded.value.line_number == 3
        assert str(loaded.value) == str(scanned.value)

    def test_escaped_and_plain_spellings_share_one_node(self):
        graph = ntriples.loads('<\\u0061> <p> "\\u0078" .\n<a> <p> "x" .\n<a> <q> <b> .\n')
        assert graph.num_nodes == 5 and graph.num_edges == 2
        (node,) = (n for n in graph.nodes() if n == uri("a"))
        assert all(edge[0] is node for edge in graph.edges())

    def test_character_classes_match_the_scanner_tests(self):
        """``[^\\W_]`` is ``str.isalnum`` and ``[\\w.-]`` the blank-label test."""
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        alnum = "".join(char for char in chars if char.isalnum())
        assert "".join(re.findall(r"[^\W_]", chars)) == alnum
        label = "".join(char for char in chars if char.isalnum() or char in "-_.")
        assert "".join(re.findall(r"[\w.-]", chars)) == label

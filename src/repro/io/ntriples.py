"""N-Triples reader and writer.

The environment has no rdflib, so this module implements the W3C N-Triples
format from scratch — enough of it to store and exchange the evolving-graph
versions the alignment algorithms consume:

* URIs ``<http://...>`` with ``\\u``/``\\U`` escapes,
* blank nodes ``_:name``,
* literals ``"..."`` with string escapes, optional language tag ``@en`` or
  datatype ``^^<uri>``,
* ``#`` comment lines and blank lines.

The reader is line-oriented (as the format requires).  :func:`load` matches
each line once against one compiled full-line pattern and writes the
triple straight into the graph's indexes, interning every distinct term
token once per document, so all edges share one object per term.  Lines
the pattern rejects and lines with a backslash (escapes) go through
:func:`parse_line`, the character scanner, which is the only error and
escape path: malformed input raises the same :class:`ParseError`, with
column and line number, either way.
"""

from __future__ import annotations

import io
import os
import re
from typing import Iterable, Iterator, TextIO

from ..exceptions import ParseError
from ..model.labels import BLANK, Literal, URI
from ..model.rdf import BlankNode, RDFGraph, Term

_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}

_REVERSE_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


class _LineScanner:
    """A cursor over one N-Triples line."""

    __slots__ = ("text", "pos", "line_number")

    def __init__(self, text: str, line_number: int) -> None:
        self.text = text
        self.pos = 0
        self.line_number = line_number

    def error(self, message: str) -> ParseError:
        return ParseError(f"{message} (column {self.pos + 1})", self.line_number)

    def skip_whitespace(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        if self.at_end():
            raise self.error("unexpected end of line")
        return self.text[self.pos]

    def expect(self, char: str) -> None:
        if self.at_end() or self.text[self.pos] != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    # -- terms ---------------------------------------------------------
    def read_uri(self) -> URI:
        self.expect("<")
        end = self.text.find(">", self.pos)
        if end < 0:
            raise self.error("unterminated URI")
        raw = self.text[self.pos:end]
        self.pos = end + 1
        return URI(_unescape(raw, self))

    def read_blank(self) -> BlankNode:
        self.expect("_")
        self.expect(":")
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "-_."
        ):
            self.pos += 1
        if self.pos == start:
            raise self.error("empty blank node label")
        return BlankNode(self.text[start:self.pos])

    def read_literal(self) -> Literal:
        self.expect('"')
        chunks: list[str] = []
        while True:
            if self.at_end():
                raise self.error("unterminated literal")
            char = self.text[self.pos]
            if char == '"':
                self.pos += 1
                break
            if char == "\\":
                self.pos += 1
                chunks.append(self._read_escape())
            else:
                chunks.append(char)
                self.pos += 1
        value = "".join(chunks)
        language: str | None = None
        datatype: str | None = None
        if not self.at_end() and self.text[self.pos] == "@":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "-"
            ):
                self.pos += 1
            if self.pos == start:
                raise self.error("empty language tag")
            language = self.text[start:self.pos]
        elif self.text[self.pos:self.pos + 2] == "^^":
            self.pos += 2
            datatype = self.read_uri().value
        return Literal(value, language=language, datatype=datatype)

    def _read_escape(self) -> str:
        if self.at_end():
            raise self.error("dangling backslash")
        char = self.text[self.pos]
        self.pos += 1
        if char in _ESCAPES:
            return _ESCAPES[char]
        if char == "u":
            return self._read_hex(4)
        if char == "U":
            return self._read_hex(8)
        raise self.error(f"unknown escape \\{char}")

    def _read_hex(self, width: int) -> str:
        digits = self.text[self.pos:self.pos + width]
        if len(digits) < width:
            raise self.error("truncated unicode escape")
        try:
            code_point = int(digits, 16)
        except ValueError:
            raise self.error(f"bad unicode escape \\u{digits}") from None
        self.pos += width
        return chr(code_point)

    def read_term(self, *, allow_literal: bool, allow_blank: bool) -> Term:
        self.skip_whitespace()
        char = self.peek()
        if char == "<":
            return self.read_uri()
        if char == "_":
            if not allow_blank:
                raise self.error("blank node not allowed here")
            return self.read_blank()
        if char == '"':
            if not allow_literal:
                raise self.error("literal not allowed here")
            return self.read_literal()
        raise self.error(f"unexpected character {char!r}")


def _unescape(raw: str, scanner: _LineScanner) -> str:
    if "\\" not in raw:
        return raw
    inner = _LineScanner(raw, scanner.line_number)
    chunks: list[str] = []
    while not inner.at_end():
        char = inner.text[inner.pos]
        inner.pos += 1
        if char == "\\":
            chunks.append(inner._read_escape())
        else:
            chunks.append(char)
    return "".join(chunks)


def parse_line(line: str, line_number: int = 1) -> tuple[Term, Term, Term] | None:
    """Parse one N-Triples line into a term triple (or None for comments)."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    return _scan_triple(stripped, line_number)


def _scan_triple(stripped: str, line_number: int) -> tuple[Term, Term, Term]:
    """Scan one stripped, non-comment line; raises :class:`ParseError`."""
    scanner = _LineScanner(stripped, line_number)
    subject = scanner.read_term(allow_literal=False, allow_blank=True)
    predicate = scanner.read_term(allow_literal=False, allow_blank=False)
    obj = scanner.read_term(allow_literal=True, allow_blank=True)
    scanner.skip_whitespace()
    scanner.expect(".")
    scanner.skip_whitespace()
    if not scanner.at_end():
        raise scanner.error("trailing content after '.'")
    return subject, predicate, obj


def iter_triples(stream: TextIO) -> Iterator[tuple[Term, Term, Term]]:
    """Yield term triples from an N-Triples stream."""
    for line_number, line in enumerate(stream, start=1):
        triple = parse_line(line, line_number)
        if triple is not None:
            yield triple


def loads(text: str) -> RDFGraph:
    """Parse an N-Triples document from a string into an :class:`RDFGraph`."""
    return load(io.StringIO(text))


#: One well-formed, escape-free N-Triples line (after ``str.strip``): the
#: subject, predicate and object tokens are groups 1-3.  It accepts exactly
#: the backslash-free lines :func:`parse_line` accepts.  Blank labels end
#: in a lookahead because the scanner reads them maximally (``_:b1.`` is
#: the label ``b1.``, never ``b1`` plus the final dot); ``[^\W_]`` is
#: :meth:`str.isalnum`, the scanner's language-tag test.
_TRIPLE_LINE = re.compile(
    r"(<[^>]*>|_:[\w.-]+(?![\w.-]))[ \t]*"
    r"(<[^>]*>)[ \t]*"
    r'(<[^>]*>|_:[\w.-]+(?![\w.-])|"[^"]*"(?:@(?:[^\W_]|-)+|\^\^<[^>]*>)?)'
    r"[ \t]*\."
)


def _token_term(token: str) -> Term:
    """The term of one token matched by :data:`_TRIPLE_LINE`."""
    head = token[0]
    if head == "<":
        return URI(token[1:-1])
    if head == "_":
        return BlankNode(token[2:])
    close = token.index('"', 1)
    suffix = token[close + 1:]
    if suffix.startswith("@"):
        return Literal(token[1:close], language=suffix[1:])
    if suffix:
        return Literal(token[1:close], datatype=suffix[3:-1])
    return Literal(token[1:close])


def load(stream: TextIO) -> RDFGraph:
    """Parse an N-Triples document from a file object.

    Builds the same graph as ``graph_from_triples(iter_triples(stream))``,
    down to the order of ``labels()``, but every node is one object: each
    edge references the very term that keys the graph's labels.
    """
    graph = RDFGraph()
    labels = graph._labels
    edges = graph._edges
    out = graph._out
    # token text -> term; blank handle -> the one handle the graph stores.
    tokens: dict[str, Term] = {}
    blanks: dict[BlankNode, BlankNode] = {}

    def intern(term: Term) -> Term:
        if isinstance(term, BlankNode):
            stored = blanks.setdefault(term, term)
            if stored is term:
                labels[term] = BLANK
            return stored
        return graph.term(term)  # type: ignore[return-value]

    def from_token(token: str) -> Term:
        term = tokens[token] = intern(_token_term(token))
        return term

    match_line = _TRIPLE_LINE.fullmatch
    for line_number, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        match = None if "\\" in stripped else match_line(stripped)
        if match is None:
            subject, predicate, obj = map(intern, _scan_triple(stripped, line_number))
        else:
            subject_token, predicate_token, obj_token = match.groups()
            subject = tokens.get(subject_token) or from_token(subject_token)
            predicate = tokens.get(predicate_token) or from_token(predicate_token)
            obj = tokens.get(obj_token) or from_token(obj_token)
        before = len(edges)
        edges.add((subject, predicate, obj))
        if len(edges) != before:
            pairs = out.get(subject)
            if pairs is None:
                out[subject] = pairs = set()
            pairs.add((predicate, obj))
    return graph


def load_path(path: str | os.PathLike) -> RDFGraph:
    """Parse the N-Triples file at *path*."""
    with open(path, "r", encoding="utf-8") as handle:
        return load(handle)


def _escape_literal(value: str) -> str:
    return "".join(_REVERSE_ESCAPES.get(char, char) for char in value)


def format_term(term: Term) -> str:
    """Render one term in N-Triples syntax."""
    if isinstance(term, URI):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.name}"
    if isinstance(term, Literal):
        rendered = f'"{_escape_literal(term.value)}"'
        if term.language is not None:
            rendered += f"@{term.language}"
        elif term.datatype is not None:
            rendered += f"^^<{term.datatype}>"
        return rendered
    raise TypeError(f"not an RDF term: {term!r}")


def format_triple(triple: tuple[Term, Term, Term]) -> str:
    """Render one triple as an N-Triples line (without newline)."""
    subject, predicate, obj = triple
    return f"{format_term(subject)} {format_term(predicate)} {format_term(obj)} ."


def dumps(graph: RDFGraph, *, sort: bool = True) -> str:
    """Serialize *graph* to an N-Triples string.

    With ``sort=True`` (default) the lines are sorted so that output is
    deterministic — important for diffable archives of graph versions.
    """
    lines = [format_triple(triple) for triple in graph.triples()]
    if sort:
        lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")


def dump(graph: RDFGraph, stream: TextIO, *, sort: bool = True) -> None:
    """Serialize *graph* to a file object."""
    stream.write(dumps(graph, sort=sort))


def dump_path(graph: RDFGraph, path: str | os.PathLike, *, sort: bool = True) -> None:
    """Serialize *graph* to the file at *path* (atomic: temp + rename)."""
    from .atomic import atomic_open

    with atomic_open(path) as handle:
        dump(graph, handle, sort=sort)

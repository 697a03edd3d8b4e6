"""Unit tests for RDFGraph well-formedness (repro.model.rdf)."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError, RDFWellFormednessError
from repro.model.graph import TripleGraph
from repro.model.labels import BLANK, Literal, URI
from repro.model.rdf import BlankNode, RDFGraph, blank, graph_from_triples, lit, uri


class TestTermFactories:
    def test_factories(self):
        assert uri("a") == URI("a")
        assert lit("a") == Literal("a")
        assert lit("a", language="en").language == "en"
        assert blank("b") == BlankNode("b")

    def test_blank_repr(self):
        assert repr(blank("x")) == "_:x"


class TestAdd:
    def test_label_uniqueness_by_construction(self):
        g = RDFGraph()
        g.add(uri("a"), uri("p"), lit("x"))
        g.add(uri("a"), uri("q"), lit("x"))
        # 'a' and "x" were each created once
        assert g.num_nodes == 4  # a, p, q, "x"

    def test_literal_subject_rejected(self):
        g = RDFGraph()
        with pytest.raises(RDFWellFormednessError):
            g.add(lit("x"), uri("p"), uri("a"))

    def test_blank_predicate_rejected(self):
        g = RDFGraph()
        with pytest.raises(RDFWellFormednessError):
            g.add(uri("a"), blank("b"), uri("c"))

    def test_literal_predicate_rejected(self):
        g = RDFGraph()
        with pytest.raises(RDFWellFormednessError):
            g.add(uri("a"), lit("p"), uri("c"))

    def test_non_term_rejected(self):
        g = RDFGraph()
        with pytest.raises(RDFWellFormednessError):
            g.term("not a term")  # type: ignore[arg-type]

    def test_blank_nodes_distinct_by_name(self):
        g = RDFGraph()
        g.add(blank("b1"), uri("p"), lit("x"))
        g.add(blank("b2"), uri("p"), lit("x"))
        assert len(g.blanks()) == 2

    def test_same_value_uri_and_literal_coexist(self):
        g = RDFGraph()
        g.add(uri("a"), uri("p"), lit("a"))
        assert g.num_nodes == 3

    def test_edges_share_one_object_per_uri_and_literal(self):
        g = RDFGraph()
        g.add(uri("a"), uri("p"), lit("x"))
        g.add(uri("b"), uri("p"), uri("a"))
        g.add(uri("a"), uri("q"), lit("x"))
        stored = {node: node for node in g.nodes()}
        for edge in g.edges():
            assert all(stored[term] is term for term in edge)
        assert g.term(uri("a")) is stored[uri("a")]

    def test_term_keeps_an_existing_label(self):
        g = RDFGraph()
        g.add_node(uri("a"), lit("not a"))  # through the lower-level API
        with pytest.raises(GraphError):
            g.add(uri("a"), uri("p"), lit("x"))

    def test_add_all_and_graph_from_triples(self):
        triples = [
            (uri("a"), uri("p"), lit("x")),
            (uri("a"), uri("p"), blank("b")),
        ]
        g = graph_from_triples(triples)
        assert g.num_edges == 2
        assert g.has_uri("a") and not g.has_uri("zzz")


class TestValidate:
    def test_validate_accepts_well_formed(self, figure1_graphs):
        v1, v2 = figure1_graphs
        v1.validate()
        v2.validate()

    def test_validate_catches_duplicate_labels(self):
        # Build through the low-level API to bypass construction guarantees.
        g = RDFGraph()
        g.add_node("n1", URI("a"))
        g.add_node("n2", URI("a"))
        with pytest.raises(RDFWellFormednessError):
            g.validate()

    def test_validate_catches_literal_subject(self):
        g = RDFGraph()
        g.add_node("s", Literal("x"))
        g.add_node("p", URI("p"))
        g.add_node("o", URI("o"))
        g.add_edge("s", "p", "o")
        with pytest.raises(RDFWellFormednessError):
            g.validate()

    def test_validate_catches_blank_predicate(self):
        g = RDFGraph()
        g.add_node("s", URI("s"))
        g.add_node("p", BLANK)
        g.add_node("o", URI("o"))
        g.add_edge("s", "p", "o")
        with pytest.raises(RDFWellFormednessError):
            g.validate()

    def test_copy_preserves_type_and_content(self):
        g = RDFGraph()
        g.add(uri("a"), uri("p"), lit("x"))
        clone = g.copy()
        assert isinstance(clone, RDFGraph)
        assert clone.num_edges == 1
        clone.add(uri("b"), uri("p"), lit("y"))
        assert g.num_edges == 1


class TestTriples:
    def test_triples_iterates_terms(self):
        g = RDFGraph()
        g.add(uri("a"), uri("p"), blank("b"))
        (triple,) = list(g.triples())
        assert triple == (uri("a"), uri("p"), blank("b"))

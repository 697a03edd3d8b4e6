"""Unit tests for CombinedGraph (repro.model.union)."""

from __future__ import annotations

import pytest

from repro.exceptions import AlignmentError, GraphError
from repro.model import RDFGraph, blank, combine, combine_many, lit, uri
from repro.model.graph import TripleGraph
from repro.model.union import SOURCE, TARGET


@pytest.fixture
def versions() -> tuple[RDFGraph, RDFGraph]:
    g1 = RDFGraph()
    g1.add(uri("a"), uri("p"), lit("x"))
    g2 = RDFGraph()
    g2.add(uri("a"), uri("p"), lit("y"))
    return g1, g2


class TestDisjointness:
    def test_same_labels_stay_distinct(self, versions):
        union = combine(*versions)
        assert union.num_nodes == 6
        assert union.num_edges == 2

    def test_side_tracking(self, versions):
        union = combine(*versions)
        n = union.from_source(uri("a"))
        m = union.from_target(uri("a"))
        assert n != m
        assert union.side(n) == SOURCE
        assert union.side(m) == TARGET
        assert union.original(n) == uri("a")

    def test_side_node_sets_partition_nodes(self, versions):
        union = combine(*versions)
        assert union.source_nodes | union.target_nodes == set(union.nodes())
        assert not union.source_nodes & union.target_nodes
        assert union.side_nodes(SOURCE) == union.source_nodes
        assert union.side_nodes(TARGET) == union.target_nodes

    def test_labels_preserved(self, versions):
        union = combine(*versions)
        assert union.label(union.from_source(lit("x"))) == lit("x")

    def test_source_target_accessors(self, versions):
        g1, g2 = versions
        union = combine(g1, g2)
        assert union.source is g1
        assert union.target is g2


class TestErrors:
    def test_unknown_node_side(self, versions):
        union = combine(*versions)
        with pytest.raises(AlignmentError):
            union.side("nope")

    def test_from_source_rejects_target_only_node(self, versions):
        union = combine(*versions)
        with pytest.raises(AlignmentError):
            union.from_source(lit("y"))

    def test_bad_side_constant(self, versions):
        union = combine(*versions)
        with pytest.raises(AlignmentError):
            union.side_nodes(3)

    def test_edge_endpoint_missing_from_labels(self):
        graph = TripleGraph()
        graph.add_node("a", uri("a"))
        graph._edges.add(("a", "a", "ghost"))  # bypasses add_edge's check
        with pytest.raises(GraphError, match="ghost"):
            combine(RDFGraph(), graph)


class TestBulkBuild:
    def test_matches_per_edge_construction(self, figure1_graphs):
        """Same labels (in order), edges, out-index and side sets as
        building the union one ``add_node``/``add_edge`` at a time."""
        v1, v2 = figure1_graphs
        v2.add(uri("ss"), uri("knows"), uri("ed-uni"))
        reference = TripleGraph()
        for side, graph in ((SOURCE, v1), (TARGET, v2)):
            for node in graph.nodes():
                reference.add_node((side, node), graph.label(node))
        for side, graph in ((SOURCE, v1), (TARGET, v2)):
            for subject, predicate, obj in graph.edges():
                reference.add_edge((side, subject), (side, predicate), (side, obj))
        union = combine(v1, v2)
        assert list(union.labels().items()) == list(reference.labels().items())
        assert list(union.edges()) == list(reference.edges())
        assert union.out_index() == reference.out_index()
        assert list(union.out_index()) == list(reference.out_index())
        assert union.source_nodes == {(SOURCE, n) for n in v1.nodes()}
        assert union.target_nodes == {(TARGET, n) for n in v2.nodes()}

    def test_edges_share_the_lifted_node_tuples(self, figure1_graphs):
        union = combine(*figure1_graphs)
        stored = {node: node for node in union.nodes()}
        for edge in union.edges():
            assert all(stored[node] is node for node in edge)
        for node in union.source_nodes | union.target_nodes:
            assert stored[node] is node


class TestCombineMany:
    def test_consecutive_pairs(self):
        graphs = []
        for i in range(4):
            g = RDFGraph()
            g.add(uri(f"a{i}"), uri("p"), lit(f"x{i}"))
            graphs.append(g)
        unions = combine_many(graphs)
        assert len(unions) == 3
        assert unions[0].source is graphs[0]
        assert unions[2].target is graphs[3]

    def test_blanks_both_sides(self):
        g1 = RDFGraph()
        g1.add(blank("b"), uri("p"), lit("x"))
        g2 = RDFGraph()
        g2.add(blank("b"), uri("p"), lit("x"))
        union = combine(g1, g2)
        assert len(union.blanks()) == 2

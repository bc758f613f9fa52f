import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oatgraph import (
    Graph,
    GraphFormatError,
    SizeBudgetError,
    adjacency_square,
    clique_attachment,
    complement_components,
    connected_components,
    find_comparable_pair,
    format_graph,
    parse_graph,
)

from conftest import random_graph


def graphs(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph(n, picked)

    return build()


def is_clique(g, verts):
    return all(g.has_edge(a, b) for a, b in itertools.combinations(verts, 2))


class TestConstruction:
    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            Graph(0)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_edges_sorted_unique(self):
        g = Graph(3, [(2, 0), (0, 1), (1, 0)])
        assert g.edges() == [(0, 1), (0, 2)]
        assert g.edge_count == 2

    def test_adjacency_is_read_only(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.adj[0, 1] = False

    def test_from_adjacency_validates(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph.from_adjacency(np.array([[0, 1], [0, 0]], dtype=bool))
        with pytest.raises(ValueError, match="diagonal"):
            Graph.from_adjacency(np.eye(2, dtype=bool))

    def test_induced_relabels_in_sorted_order(self):
        g = Graph(4, [(0, 2), (2, 3)])
        h = g.induced([3, 2, 0])
        assert h.n == 3
        assert h.edges() == [(0, 1), (1, 2)]


class TestParsing:
    def test_round_trip(self):
        text = "3 2\n0 1\n1 2\n"
        g = parse_graph(text)
        assert format_graph(g) == text

    def test_blank_lines_ignored(self):
        g = parse_graph("\n2 1\n\n0 1\n\n")
        assert g.edges() == [(0, 1)]

    def test_refuses_vertex_count_beyond_memory_before_allocating(self):
        with pytest.raises(SizeBudgetError, match="physical memory"):
            parse_graph("1000000 0\n")

    def test_header_errors_carry_line_number(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_graph("two 1\n0 1\n")

    def test_rejects_duplicate_edge_with_line(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_graph("2 2\n0 1\n0 1\n")

    def test_rejects_unsorted_endpoint_pair(self):
        with pytest.raises(GraphFormatError):
            parse_graph("2 1\n1 0\n")

    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            parse_graph("2 1\n1 1\n")

    def test_rejects_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            parse_graph("2 2\n0 1\n")

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("2 1\n0 5\n")

    @given(graphs())
    @settings(max_examples=60)
    def test_format_parse_round_trip(self, g):
        assert parse_graph(format_graph(g)) == g

    def test_allocates_no_container_per_edge(self):
        # Per-edge tuples would trigger (and lengthen) cyclic-GC passes that
        # get charged to whatever parses a large graph.
        text = format_graph(random_graph(150, 0.5, 3))
        passes = []

        def count(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        gc.callbacks.append(count)
        try:
            g = parse_graph(text)
        finally:
            gc.callbacks.remove(count)
        assert g.edge_count > 5000
        assert len(passes) <= 1


class TestComponents:
    def test_single_vertex(self):
        assert connected_components(Graph(1)) == ((0,),)

    def test_ordering_by_smallest_vertex(self):
        g = Graph(5, [(1, 3), (0, 4)])
        assert connected_components(g) == ((0, 4), (1, 3), (2,))

    def test_complement_components(self):
        # complete bipartite graph: complement splits into the two sides
        g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert complement_components(g) == ((0, 1), (2, 3))

    @given(graphs())
    @settings(max_examples=60)
    def test_components_partition_and_are_maximal(self, g):
        parts = connected_components(g)
        seen = [v for p in parts for v in p]
        assert sorted(seen) == list(range(g.n))
        for p in parts:
            for q in parts:
                if p is not q:
                    assert not any(g.has_edge(u, v) for u in p for v in q)


class TestAdjacencySquare:
    @given(graphs())
    @settings(max_examples=60)
    def test_equals_matrix_square(self, g):
        a2 = adjacency_square(g)
        want = g.adj.astype(np.int64) @ g.adj.astype(np.int64)
        assert np.array_equal(a2, want)
        assert np.array_equal(a2.diagonal(), g.adj.sum(axis=1))
        assert a2.dtype == np.int64 and not a2.flags.writeable


class TestComparablePair:
    def brute(self, g):
        for flat in range(g.n * g.n):
            u, v = divmod(flat, g.n)
            if u != v and not g.has_edge(u, v):
                if set(g.neighbours(u)) <= set(g.neighbours(v)):
                    return (u, v)
        return None

    @given(graphs())
    @settings(max_examples=100)
    def test_matches_direct_scan(self, g):
        assert find_comparable_pair(g) == self.brute(g)
        assert find_comparable_pair(g, adjacency_square(g)) == self.brute(g)

    def test_isolated_vertex_is_comparable(self):
        g = Graph(3, [(1, 2)])
        assert find_comparable_pair(g) == (0, 1)

    def test_none_on_c5(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert find_comparable_pair(g) is None


class TestCliqueAttachment:
    def brute(self, g):
        # first cut vertex (ascending: its removal adds a component) whose
        # removal leaves a qualifying clique component (components ordered
        # by minimum vertex)
        for z in range(g.n):
            rest = [u for u in range(g.n) if u != z]
            if not rest:
                continue
            sub = g.induced(rest)
            if len(connected_components(sub)) <= len(connected_components(g)):
                continue
            for comp in connected_components(sub):
                verts = tuple(rest[i] for i in comp)
                if is_clique(g, verts) and all(g.has_edge(z, q) for q in verts):
                    return (z, verts)
        return None

    @given(graphs())
    @settings(max_examples=120)
    def test_matches_cut_vertex_scan(self, g):
        got = clique_attachment(g)
        want = self.brute(g)
        assert got == want
        if got is not None:
            z, q = got
            assert all(g.has_edge(z, x) for x in q)
            assert is_clique(g, q)
            for x in q:
                assert set(g.neighbours(x)) == (set(q) - {x}) | {z}

    def test_clique_graph_returns_none(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert clique_attachment(g) is None

    def test_path_pendant(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert clique_attachment(g) == (1, (0,))

    def test_triangle_hanging_off_a_path(self):
        # 0 carries both a triangle {1,2,3} and a P2 {4,5}
        g = Graph(
            6,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 5)],
        )
        assert clique_attachment(g) == (0, (1, 2, 3))

    def test_none_on_square(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert clique_attachment(g) is None


def test_random_graph_helper_is_deterministic():
    assert random_graph(8, 0.4, 3) == random_graph(8, 0.4, 3)

import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from oatgraph import (
    SizeBudgetError,
    brute_chi,
    classic,
    fixture,
    p4_sparse_third_op,
    random_oat,
    recognize,
    replay,
    tree_to_json,
    validate,
)


class TestClassic:
    def test_path(self):
        assert classic("path", 3).edges() == [(0, 1), (1, 2)]
        assert classic("path", 1).edges() == []

    def test_cycle(self):
        g = classic("cycle", 5)
        assert g.edge_count == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_complete(self):
        assert classic("complete", 4).edge_count == 6

    def test_complete_bipartite_minus_matching(self):
        g = classic("complete_bipartite_minus_matching", 3)
        assert g.n == 6
        assert g.edge_count == 6
        # side vertex i is non-adjacent to its opposite i and to its own side
        for i in range(3):
            assert not g.has_edge(i, 3 + i)
            for j in range(3):
                if i != j:
                    assert g.has_edge(i, 3 + j)
                    assert not g.has_edge(i, j)
                    assert not g.has_edge(3 + i, 3 + j)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            classic("path", 0)
        with pytest.raises(ValueError):
            classic("cycle", 2)
        with pytest.raises(ValueError):
            classic("complete", 0)
        with pytest.raises(ValueError):
            classic("complete_bipartite_minus_matching", 0)
        with pytest.raises(ValueError, match="unknown family"):
            classic("torus", 3)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: classic("complete", 10**11), id="complete"),
        pytest.param(lambda: p4_sparse_third_op(10**11, None, "pendant"), id="p4_sparse"),
        pytest.param(lambda: random_oat(10**11, 0), id="random_oat"),
    ],
)
def test_refuses_oversized_family_before_building(build):
    tracemalloc.start()
    try:
        with pytest.raises(SizeBudgetError, match="physical memory"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestFixtures:
    def test_edge_lists_bit_exact(self):
        want = {
            "domino": [(0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (2, 3), (4, 5)],
            "house": [(0, 1), (0, 3), (1, 2), (2, 3), (2, 4), (3, 4)],
            "gem": [(0, 1), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)],
            "fig2_imperfect": [(0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (2, 3), (3, 4), (4, 5)],
            "fig4_dh_not_oat": [
                (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (2, 5),
                (3, 4), (3, 5), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
            ],
        }
        for name, edges in want.items():
            f = fixture(name)
            assert f.name == name
            assert f.graph.edges() == edges

    def test_expectations_match_reality(self):
        for name in ("domino", "house", "gem", "fig2_imperfect", "fig4_dh_not_oat"):
            f = fixture(name)
            assert recognize(f.graph).is_oat == f.expected_oat
            assert brute_chi(f.graph) == f.expected_chi

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown fixture"):
            fixture("pentagon")


class TestRandomOat:
    def test_single_vertex(self):
        t = random_oat(1, 123)
        assert replay(t).n == 1

    def test_deterministic(self):
        assert random_oat(5, 7) == random_oat(5, 7)
        assert random_oat(9, 0) == random_oat(9, 0)

    def test_seeds_differ(self):
        trees = {random_oat(9, s) for s in range(10)}
        assert len(trees) > 1

    def test_labels_are_contiguous(self):
        t = random_oat(8, 42)
        g = replay(t)
        assert g.n == 8
        assert validate(t, g)
        assert recognize(g).is_oat

    @given(st.integers(1, 25), st.integers(0, 1000))
    @settings(max_examples=80, deadline=None)
    def test_always_replayable_and_recognised(self, n, seed):
        t = random_oat(n, seed)
        g = replay(t)
        assert g.n == n
        assert validate(t, g)
        assert recognize(g).is_oat


class TestP4Sparse:
    def test_pendant_base_case_is_p4(self):
        g = p4_sparse_third_op(1, None, "pendant")
        assert g.n == 4
        assert g.edges() == [(0, 3), (1, 2), (2, 3)]
        degs = sorted(g.degree(v) for v in range(4))
        assert degs == [1, 1, 2, 2]

    def test_anti_base_case(self):
        g = p4_sparse_third_op(1, None, "anti")
        assert g.n == 4
        assert g.edges() == [(0, 2), (1, 3), (2, 3)]

    def test_layout(self):
        r = classic("path", 2)
        g = p4_sparse_third_op(2, r, "pendant")
        # V1 = {0,1}, v = 2, K = {3,4,5}, v' = 3, r on {6,7}
        assert g.n == 8
        assert g.neighbours(2) == (3,)
        assert g.has_edge(3, 4) and g.has_edge(3, 5) and g.has_edge(4, 5)
        assert g.has_edge(0, 4) and g.has_edge(1, 5)
        assert not g.has_edge(0, 3) and not g.has_edge(0, 5)
        assert g.has_edge(6, 7)
        for x in (6, 7):
            assert g.has_edge(x, 3) and g.has_edge(x, 4) and g.has_edge(x, 5)
            assert not g.has_edge(x, 2)

    def test_anti_neighbourhoods(self):
        g = p4_sparse_third_op(2, None, "anti")
        # v = 2 sees K minus v'; x in V1 sees K minus its matched vertex
        assert g.neighbours(2) == (4, 5)
        assert g.neighbours(0) == (3, 5)
        assert g.neighbours(1) == (3, 4)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="case"):
            p4_sparse_third_op(1, None, "sideways")
        with pytest.raises(ValueError, match="nonempty"):
            p4_sparse_third_op(0, None, "pendant")

    def test_outputs_recognised(self):
        for case in ("pendant", "anti"):
            for v1 in (1, 2, 4):
                for r in (None, classic("complete", 3), replay(random_oat(5, 2))):
                    g = p4_sparse_third_op(v1, r, case)
                    assert recognize(g).is_oat, (case, v1)


def test_random_oat_needs_no_recursion_room(shallow_stack):
    for seed in range(3):
        assert random_oat(1000, seed).verts == (1 << 1000) - 1


def test_random_oat_trees_are_pinned():
    # SHA-256 over the JSON text of each tree: every existing seed keeps its
    # tree, so the rng draws and the labels they pick must not move.
    digest = hashlib.sha256()
    for n in (*range(1, 60), 325, 1000):
        for seed in range(3):
            digest.update(json.dumps(tree_to_json(random_oat(n, seed))).encode())
    assert digest.hexdigest() == "362c1a43401b61ee1f943ec7901810a888b6002e314fab772171ab187ab31179"

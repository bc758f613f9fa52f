import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from oatgraph import (
    CliqueAttach,
    Comparable,
    Graph,
    Join,
    StepConsistencyError,
    Union,
    brute_is_oat,
    chi_omega,
    classic,
    clique_attachment,
    complement_components,
    connected_components,
    find_comparable_pair,
    fixture,
    p4_sparse_third_op,
    random_oat,
    recognition,
    recognize,
    replay,
    tree_to_json,
    validate,
    walk_postorder,
)

from conftest import random_graph
from test_recognition_golden import CASES as GOLDEN_CASES


def _relabelled(g: Graph, rng: random.Random) -> tuple[Graph, list[int]]:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]), perm


def _nested_join_splits(tree) -> int:
    """Most join splits nested on one root-to-leaf path.  A split folds its
    parts into a run of Joins, and no part's own tree is a Join, so each
    Join whose parent is not a Join tops one split."""
    most = 0
    stack = [(tree, False, 0)]
    while stack:
        t, under_join, splits = stack.pop()
        is_join = isinstance(t, Join)
        splits += is_join and not under_join
        most = max(most, splits)
        if isinstance(t, (Union, Join)):
            stack += [(t.left, is_join, splits), (t.right, is_join, splits)]
        elif isinstance(t, (Comparable, CliqueAttach)):
            stack.append((t.child, False, splits))
    return most


def _verified_on_a2(g: Graph):
    """recognize(g, verify_a2=True) with A@A built whatever g's mean degree,
    so that verify_a2 checks every task's block as well as its index."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recognition, "_SPARSE_DEGREE", 0)
        return recognize(g, verify_a2=True)


class TestA2AfterStep:
    """recognize's A@A, less each task's shift, against the recomputation
    verify_a2 runs for every new task."""

    @given(st.integers(2, 40), st.integers(0, 500), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_scratch_recomputation_along_recognition(self, n, seed, relabelled):
        g = replay(random_oat(n, seed))
        if relabelled:
            g, _ = _relabelled(g, random.Random(seed))
        out = _verified_on_a2(g)
        assert out.is_oat
        assert out.a2_checks > 0

    @pytest.mark.parametrize(
        "g, node",
        [
            (classic("path", 4), Comparable),
            (classic("complete", 2), Join),
            (Graph(3, [(0, 1)]), Union),
            (Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (3, 5), (4, 5)]), CliqueAttach),
        ],
        ids=["comparable", "join", "union", "clique"],
    )
    def test_each_move_is_checked(self, g, node):
        out = _verified_on_a2(g)
        assert out.is_oat
        assert any(isinstance(t, node) for t in walk_postorder(out.tree))
        assert out.a2_checks > 0

    @pytest.mark.parametrize(
        "g",
        [
            _relabelled(replay(random_oat(300, 0)), random.Random(300))[0],
            p4_sparse_third_op(40, classic("path", 10), "anti"),
        ],
        ids=["permuted_random_oat_300_0", "p4_sparse_anti_40_path_10"],
    )
    def test_nested_join_shifts_are_checked(self, g):
        out = _verified_on_a2(g)
        assert out.is_oat
        assert _nested_join_splits(out.tree) >= 2  # so the tasks' shifts stack

    def test_verify_checks_the_comparable_index(self, monkeypatch):
        # The index's pick is compared with a fresh scan, the reference.
        monkeypatch.setattr(recognition, "first_comparable", lambda a2: None)
        with pytest.raises(StepConsistencyError):
            recognize(replay(random_oat(30, 1)), verify_a2=True)

    def test_verify_checks_every_dominator_the_masks_give(self, monkeypatch):
        # A refresh that drops the dominators it reads off the masks leaves
        # the pick to the unrefreshed rows; the index check sees the drift.
        g = _relabelled(classic("path", 30), random.Random(30))[0]
        assert recognize(g, verify_a2=True).is_oat
        monkeypatch.setattr(recognition, "_mask_dominator", lambda masks, alive, w: -1)
        with pytest.raises(StepConsistencyError, match="comparable index drifted"):
            recognize(g, verify_a2=True)


def _three_ways(g: Graph) -> list[tuple]:
    """recognize(g, verify_a2=True) on A@A with every refresh on its rows, on
    the masks alone, and at the default constants: the tree JSON or the
    stuck vertices of each, how often the masks were read, and how often
    recognition built A@A of g itself (verify_a2 squares induced copies)."""
    runs = []
    for sparse, light in (
        (0, 0),  # no mean degree is below 0
        (g.n, recognition._LIGHT_REFRESH),  # every mean degree is below n
        (recognition._SPARSE_DEGREE, recognition._LIGHT_REFRESH),
    ):
        reads, builds = [], []
        read, square = recognition._mask_dominator, recognition.adjacency_square

        def squared(h):
            builds.append(h is g)
            return square(h)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recognition, "_SPARSE_DEGREE", sparse)
            mp.setattr(recognition, "_LIGHT_REFRESH", light)
            mp.setattr(recognition, "_mask_dominator", lambda *a: reads.append(a) or read(*a))
            mp.setattr(recognition, "adjacency_square", squared)
            out = recognize(g, verify_a2=True)
        result = tree_to_json(out.tree) if out.is_oat else out.stuck_vertices
        runs.append((result, len(reads), sum(builds)))
    return runs


class TestRefreshSides:
    """The comparable index kept on A@A rows and on the masks."""

    @given(st.integers(2, 40), st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_members_agree(self, n, seed):
        g = _relabelled(replay(random_oat(n, seed)), random.Random(seed))[0]
        (rows, read_at_0, built), (masks, _, unbuilt), (default, _, _) = _three_ways(g)
        assert read_at_0 == 0 and built == 1 and unbuilt == 0
        assert isinstance(rows, dict) and rows == masks == default

    @given(st.integers(2, 12), st.sampled_from([0.2, 0.35, 0.5, 0.7]), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs_agree(self, n, p, seed):
        (rows, read_at_0, built), (masks, _, unbuilt), (default, _, _) = _three_ways(
            random_graph(n, p, seed)
        )
        assert read_at_0 == 0 and built == 1 and unbuilt == 0
        assert rows == masks == default

    def test_a_deep_member_reads_the_masks_at_every_move(self):
        g = _relabelled(classic("path", 60), random.Random(60))[0]
        (rows, read_at_0, _), (masks, reads, _), (default, read_at_default, built) = _three_ways(g)
        # 57 comparable moves, each refreshing at least one row
        assert read_at_0 == 0 and reads >= 57 and read_at_default == reads
        assert built == 0  # a path is sparse
        assert rows == masks == default


class TestMaskRegime:
    """Graphs of low mean degree recognised with no A@A at all."""

    @pytest.mark.parametrize(
        "g",
        [
            _relabelled(classic("path", 300), random.Random(300))[0],
            GOLDEN_CASES["permuted_sparse_chain_250"](),
            Graph(5),
            Graph(1),
        ],
        ids=["permuted_path_300", "permuted_sparse_chain_250", "edgeless_5", "single_vertex"],
    )
    def test_gives_the_tree_of_the_a2_regime(self, monkeypatch, g):
        want = tree_to_json(_verified_on_a2(g).tree)

        def refuse(h):
            raise AssertionError("recognize built A@A")

        monkeypatch.setattr(recognition, "adjacency_square", refuse)
        out = recognize(g)
        assert out.is_oat and tree_to_json(out.tree) == want

    @pytest.mark.parametrize("k, builds", [(8, 0), (9, 1)])
    def test_a2_from_mean_degree_8(self, monkeypatch, k, builds):
        # Five disjoint copies of K_k: mean degree k - 1.
        cliques = itertools.combinations(range(k), 2)
        g = Graph(5 * k, [(i + a, i + b) for a, b in cliques for i in range(0, 5 * k, k)])
        made, square = [], recognition.adjacency_square
        monkeypatch.setattr(recognition, "adjacency_square", lambda h: made.append(h) or square(h))
        assert recognize(g).is_oat
        assert len(made) == builds


class TestRecognize:
    def test_single_vertex(self):
        out = recognize(Graph(1))
        assert out.is_oat and out.tree is not None
        assert validate(out.tree, Graph(1))

    def test_fixture_expectations(self):
        for name in ("domino", "house", "gem", "fig2_imperfect", "fig4_dh_not_oat"):
            f = fixture(name)
            out = recognize(f.graph)
            assert out.is_oat == f.expected_oat, name
            if out.is_oat:
                assert validate(out.tree, f.graph)
                assert chi_omega(out.tree)[0] == f.expected_chi

    def test_c5_stuck_subgraph_is_whole_graph(self):
        g = classic("cycle", 5)
        out = recognize(g)
        assert not out.is_oat
        assert out.tree is None
        assert out.stuck_vertices == (0, 1, 2, 3, 4)
        assert out.stuck.edge_count == 5

    def test_stuck_subgraph_is_irreducible(self):
        out = recognize(fixture("fig4_dh_not_oat").graph)
        sub = out.stuck
        assert len(connected_components(sub)) == 1
        assert len(complement_components(sub)) == 1
        assert find_comparable_pair(sub) is None
        assert clique_attachment(sub) is None

    def test_stuck_vertices_use_original_labels(self):
        # C5 on shifted labels inside a larger disconnected graph
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        out = recognize(g)
        assert not out.is_oat
        assert out.stuck_vertices == (1, 2, 3, 4, 5)

    def test_exhaustive_n4_matches_brute(self):
        pairs = list(itertools.combinations(range(4), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(4, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            assert recognize(g).is_oat == brute_is_oat(g)

    @given(st.integers(1, 30), st.integers(0, 500))
    @settings(max_examples=100, deadline=None)
    def test_accepts_every_replayed_tree_with_valid_certificate(self, n, seed):
        t = random_oat(n, seed)
        g = replay(t)
        out = recognize(g)
        assert out.is_oat
        assert validate(out.tree, g)

    @given(st.integers(4, 9), st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_agree_with_brute(self, n, seed):
        g = random_graph(n, 0.5, seed)
        assert recognize(g).is_oat == brute_is_oat(g)


def test_3000_random_graphs_n7_to_9_agree_with_brute(gnp):
    for seed in range(3000):
        g = gnp(7 + seed % 3, 0.5, seed)
        assert recognize(g).is_oat == brute_is_oat(g), (g.n, seed)


class TestScale:
    def test_path_memory_is_quadratic(self):
        # A path is sparse, so recognition builds no A@A: the peak is the
        # neighbourhood masks (n^2 / 8 bytes), the comparable index and the
        # tree, about 0.16 and 0.054 of one n x n eight-byte matrix at
        # n = 400 and 2000.  A@A alone would be one such matrix; keeping
        # one induced copy per level, as a recursive descent does, needs
        # about 160 of them.
        for n in (400, 2000):
            g = classic("path", n)
            tracemalloc.start()
            try:
                out = recognize(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.is_oat
            assert peak < 0.25 * (8 * n * n), n

    def test_dense_memory_peak(self):
        # Building A@A holds two n x n eight-byte matrices; the masks, the
        # index and one move's rows fit in the last quarter.  Per-vertex
        # neighbour tuples, an int object per edge end, would not.
        n = 1000
        g = replay(random_oat(n, 0))
        tracemalloc.start()
        try:
            out = recognize(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.is_oat
        assert peak < 2.25 * (8 * n * n)

    def test_needs_no_recursion_room(self, monkeypatch):
        # 600 levels of moves under a 400-frame limit that cannot be raised.
        g = classic("path", 600)
        set_limit, old = sys.setrecursionlimit, sys.getrecursionlimit()

        def refuse(limit):
            raise AssertionError(f"recognition asked for recursion limit {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        set_limit(400)
        try:
            out = recognize(g)
        finally:
            set_limit(old)
        assert out.is_oat
        assert validate(out.tree, g)


@pytest.mark.parametrize(
    "g",
    [
        classic("path", 40),
        replay(random_oat(80, 3)),
        p4_sparse_third_op(12, replay(random_oat(10, 1)), "anti"),
        p4_sparse_third_op(20, None, "pendant"),
    ],
    ids=["path", "random_oat", "p4_sparse_anti", "p4_sparse_pendant"],
)
def test_builds_no_neighbour_tuples(monkeypatch, g):
    # Comparable moves read N(u) off the bitmasks recognition already holds.
    def refuse(self, v):
        raise AssertionError(f"recognize asked for the neighbours of {v}")

    monkeypatch.setattr(Graph, "neighbours", refuse)
    out = recognize(g)
    assert out.is_oat
    assert "Comparable(" in repr(out.tree)


def test_members_are_accepted_under_every_relabelling():
    members = [replay(random_oat(n, seed)) for n, seed in ((12, 1), (25, 2), (40, 3), (60, 4))]
    members += [
        p4_sparse_third_op(3, classic("path", 3), "pendant"),
        p4_sparse_third_op(4, classic("path", 3), "anti"),
    ]
    rng = random.Random("relabel")
    for g in members:
        chi = chi_omega(recognize(g).tree)[0]
        for _ in range(34):
            h, perm = _relabelled(g, rng)
            out = recognize(h)
            assert out.is_oat, perm
            assert validate(out.tree, h)
            assert chi_omega(out.tree)[0] == chi

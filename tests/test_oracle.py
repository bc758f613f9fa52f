import hashlib
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from oatgraph import (
    ColouringError,
    Graph,
    Palette,
    SizeBudgetError,
    brute_chi,
    brute_is_oat,
    brute_omega,
    build_reconfig,
    classic,
    is_frozen,
    random_colouring,
    random_oat,
    reconfig_stats,
    replay,
)
from oatgraph._util import iter_bits
from oatgraph.colouring import Colouring

from conftest import random_graph


class TestBuildReconfig:
    def test_p2_three_colours(self):
        r = build_reconfig(classic("path", 2), Palette.default(3))
        assert r.node_count == 6
        st_ = reconfig_stats(r)
        assert st_.connected and st_.diameter == 3
        assert st_.frozen == ()

    def test_p2_two_colours_is_two_isolated_nodes(self):
        r = build_reconfig(classic("path", 2), Palette.default(2))
        st_ = reconfig_stats(r)
        assert st_.nodes == 2
        assert not st_.connected
        assert st_.diameter is None
        assert st_.component_diameters == (0, 0)
        assert st_.frozen_count == 2

    def test_k3_three_colours_all_frozen(self):
        r = build_reconfig(classic("complete", 3), Palette.default(3))
        st_ = reconfig_stats(r)
        assert st_.nodes == 6 and st_.frozen_count == 6 and not st_.connected

    def test_c6_three_colours_one_component_and_six_frozen(self):
        # a disconnected space whose first component has more than one node,
        # so the numbering of components (in order of their first node) shows
        st_ = reconfig_stats(build_reconfig(classic("cycle", 6), Palette.default(3)))
        assert st_.nodes == 66
        assert not st_.connected
        assert st_.diameter is None
        assert st_.component_diameters == (9, 0, 0, 0, 0, 0, 0)
        assert st_.frozen_count == 6

    def test_nodes_lexicographic(self):
        r = build_reconfig(Graph(2), Palette((1, 2)))
        assert r.nodes == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_node_count_equals_direct_filter(self):
        g = random_graph(5, 0.5, 11)
        S = Palette.default(3)
        r = build_reconfig(g, S)
        direct = 0
        for a in itertools.product(S.colours, repeat=g.n):
            if all(a[u] != a[v] for u, v in g.edges()):
                direct += 1
        assert r.node_count == direct

    def test_adjacency_is_single_vertex_moves(self):
        r = build_reconfig(classic("path", 3), Palette.default(3))
        for i, a in enumerate(r.nodes):
            for j in r.adjacency[i]:
                b = r.nodes[j]
                assert sum(x != y for x, y in zip(a, b)) == 1

    def test_budget_error_carries_bound(self):
        with pytest.raises(SizeBudgetError) as info:
            build_reconfig(classic("path", 30), Palette.default(4))
        assert info.value.bound == 4**30
        assert str(4**30) in str(info.value)

    def test_recolourings_past_the_budget_are_refused_before_any_node(self):
        g, S = Graph(1), Palette.default(100_000)
        tracemalloc.start()
        try:
            with pytest.raises(SizeBudgetError) as info:
                build_reconfig(g, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.bound == 100_000 * 99_999
        assert str(info.value) == (
            "100000^1 * 1 * 99999 = 9999900000 recolourings exceed the budget of 2000000"
        )
        assert peak < 1 << 20

    def test_census_past_its_bfs_budget_is_refused_after_the_build(self):
        r = build_reconfig(Graph(8), Palette.default(3))
        assert r.node_count == 6561 and len(r.frozen) == 0
        with pytest.raises(SizeBudgetError) as info:
            reconfig_stats(r)
        assert info.value.bound == 6561 * (6561 + 6561 * 8)

    def test_distance_and_membership(self):
        r = build_reconfig(classic("path", 2), Palette.default(3))
        assert r.distance((1, 2), (2, 1)) == 3
        assert r.distance((1, 2), (1, 2)) == 0
        with pytest.raises(ColouringError):
            r.index_of((1, 1))


class TestFrozen:
    def test_predicate_agrees_with_isolated_nodes(self):
        for n, p, seed in ((3, 0.6, 1), (4, 0.5, 2), (4, 0.8, 3), (5, 0.4, 4)):
            g = random_graph(n, p, seed)
            S = Palette.default(3)
            r = build_reconfig(g, S)
            frozen_direct = {
                a for a in r.nodes if is_frozen(g, Colouring(a, S))
            }
            frozen_isolated = {r.nodes[i] for i in range(r.node_count) if not r.adjacency[i]}
            assert frozen_direct == frozen_isolated

    def test_k3_colouring_is_frozen(self):
        g = classic("complete", 3)
        assert is_frozen(g, Colouring((1, 2, 3), Palette.default(3)))
        assert not is_frozen(g, Colouring((1, 2, 3), Palette.default(4)))


class TestBruteChiOmega:
    def test_known_values(self):
        assert brute_chi(Graph(1)) == 1
        assert brute_chi(classic("path", 4)) == 2
        assert brute_chi(classic("cycle", 5)) == 3
        assert brute_chi(classic("cycle", 6)) == 2
        assert brute_chi(classic("complete", 5)) == 5
        assert brute_omega(classic("cycle", 5)) == 2
        assert brute_omega(classic("complete", 5)) == 5
        assert brute_omega(Graph(3)) == 1

    def test_c5_separates_chi_from_omega(self):
        g = classic("cycle", 5)
        assert brute_chi(g) == 3 and brute_omega(g) == 2

    def test_size_caps(self):
        with pytest.raises(SizeBudgetError):
            brute_chi(Graph(17))
        with pytest.raises(SizeBudgetError):
            brute_omega(Graph(17))
        with pytest.raises(SizeBudgetError):
            brute_is_oat(Graph(11))

    @given(st.integers(2, 8), st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_chi_at_least_omega(self, n, seed):
        g = random_graph(n, 0.5, seed)
        assert brute_chi(g) >= brute_omega(g)


class TestRandomColouring:
    def test_proper_and_deterministic(self):
        g = classic("cycle", 6)
        S = Palette.default(3)
        a = random_colouring(g, S, 5)
        assert a.is_proper(g)
        assert a == random_colouring(g, S, 5)

    def test_different_seeds_reach_different_colourings(self):
        g = classic("path", 6)
        S = Palette.default(3)
        seen = {random_colouring(g, S, s).assignment for s in range(12)}
        assert len(seen) > 1

    def test_impossible_palette_raises(self):
        with pytest.raises(ColouringError):
            random_colouring(classic("complete", 3), Palette.default(2), 0)

    def test_deep_path_under_shallow_stack(self, shallow_stack):
        g = classic("path", 1500)
        assert random_colouring(g, Palette.default(3), 1).is_proper(g)

    def test_same_colourings_as_the_recursive_search(self):
        # SHA-256 of the colourings the one-frame-per-vertex backtrack gave;
        # chi + 1 colours up to n = 16 makes 14 of those searches back up
        digest = hashlib.sha256()
        for n in range(5, 31):
            for s in range(5):
                t = random_oat(n, s)
                g = replay(t)
                for k in [2 * t.chi] + ([t.chi + 1] if n <= 16 else []):
                    col = random_colouring(g, Palette.default(k), s)
                    digest.update(repr(col.assignment).encode())
        assert digest.hexdigest() == (
            "09ed2f000ba5444669f924f3b478f755993f9d93f89e0e6014ab1498856cf469"
        )


def _parts(adj: list[int], verts: int, complement: bool) -> list[int]:
    """Components (or co-components) of the graph induced on verts, as masks."""
    parts = []
    left = verts
    while left:
        comp = frontier = left & -left
        while frontier:
            x = frontier.bit_length() - 1
            frontier ^= 1 << x
            reach = verts & ~adj[x] & ~(1 << x) if complement else verts & adj[x]
            frontier |= reach & ~comp
            comp |= reach
        left &= ~comp
        parts.append(comp)
    return parts


def _moves(adj: list[int], verts: int):
    """Every move on the graph induced on verts, each as the vertex sets it
    leaves: a union or join split into any two groups of its components or
    co-components, a comparable vertex u (N(u) within N(v) for a
    non-neighbour v) deleted, or a pendant clique Q (N[q] = Q + z for every
    q in Q) detached."""
    for complement in (False, True):
        parts = _parts(adj, verts, complement)
        # the last part always stays on the far side, so each split comes once
        for pick in range(1, 1 << (len(parts) - 1)):
            side = 0
            for i in iter_bits(pick):
                side |= parts[i]
            yield (side, verts & ~side)
    for u in iter_bits(verts):
        strangers = verts & ~adj[u] & ~(1 << u)
        if any(not adj[u] & verts & ~adj[v] for v in iter_bits(strangers)):
            yield (verts & ~(1 << u),)
    for z in iter_bits(verts):
        for comp in _parts(adj, verts & ~(1 << z), False):
            if all(adj[q] & verts == (comp | 1 << z) & ~(1 << q) for q in iter_bits(comp)):
                yield (verts & ~comp,)


class TestEveryMoveKeepsMembers:
    """The premise behind greedy recognition, in recognize and in
    brute_is_oat: any move from a member leaves only members, so the first
    move found is as good as any.  Membership here is by the definition,
    trying every move, and shares no decomposition code with either."""

    @staticmethod
    def check(g: Graph) -> None:
        adj = g.neighbour_masks
        memo: dict[int, bool] = {}

        def member(verts: int) -> bool:
            if verts not in memo:
                memo[verts] = verts & (verts - 1) == 0 or any(
                    all(member(p) for p in left) for left in _moves(adj, verts)
                )
            return memo[verts]

        full = (1 << g.n) - 1
        assert member(full) == brute_is_oat(g), g.edges()
        if memo[full]:
            for left in _moves(adj, full):
                assert all(member(p) for p in left), (g.edges(), left)

    def test_every_graph_up_to_five_vertices(self):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                self.check(Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]))

    def test_seeded_sample_of_six_vertex_graphs(self):
        for seed in range(3000):
            self.check(random_graph(6, 0.5, seed))

import copy
import dataclasses
import itertools
import json
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oatgraph import (
    CliqueAttach,
    Comparable,
    Graph,
    Join,
    Leaf,
    MalformedTreeError,
    Palette,
    PaletteError,
    SizeBudgetError,
    Union,
    brute_chi,
    brute_omega,
    canonical_colouring,
    chi_omega,
    random_oat,
    recognize,
    replay,
    tree_from_json,
    tree_to_json,
    validate,
    walk_postorder,
)
from oatgraph.buildtree import _tree_text

from conftest import ladder_tree, path_tree

P3_TREE = Join(Union(Leaf(0), Leaf(2)), Leaf(1))
EDGE = Join(Leaf(0), Leaf(1))

# Well-formed tree JSON nodes, one per operation.
L0, L1 = {"op": "leaf", "v": 0}, {"op": "leaf", "v": 1}
UNION = {"op": "union", "left": L0, "right": L1}
JOIN = {"op": "join", "left": L0, "right": L1}
COMPARABLE = {"op": "comparable", "child": JOIN, "u": 2, "v": 0, "X": [1]}
CLIQUE = {"op": "clique", "child": L0, "z": 0, "Q": [1, 2]}


class TestNodeValidation:
    def test_labels_become_plain_ints(self):
        i = np.int64
        base = CliqueAttach(Join(Leaf(i(0)), Leaf(i(1))), i(0), [i(2)])
        t = Comparable(base, i(3), i(0), [i(1)])
        labels = [t.u, t.v, *t.X, base.z, *base.Q, base.child.left.v]
        assert all(type(x) is int for x in labels)
        assert tree_from_json(json.loads(json.dumps(tree_to_json(t)))) == t

    def test_rejects_non_integer_label(self):
        with pytest.raises(TypeError):
            Leaf(1.5)

    def test_union_rejects_overlap(self):
        with pytest.raises(MalformedTreeError):
            Union(Leaf(0), Leaf(0))

    def test_comparable_rejects_new_vertex_in_child(self):
        with pytest.raises(MalformedTreeError):
            Comparable(Leaf(0), 0, 0, ())

    def test_comparable_rejects_anchor_outside_child(self):
        with pytest.raises(MalformedTreeError):
            Comparable(Leaf(0), 1, 2, ())

    def test_comparable_rejects_anchor_in_neighbourhood(self):
        with pytest.raises(MalformedTreeError):
            Comparable(Leaf(0), 1, 0, (0,))

    def test_comparable_sorts_neighbourhood(self):
        t = Comparable(Join(Leaf(0), Leaf(1)), 2, 0, (1,))
        assert t.X == (1,)

    def test_clique_rejects_anchor_outside_child(self):
        with pytest.raises(MalformedTreeError):
            CliqueAttach(Leaf(0), 1, (2,))

    def test_clique_rejects_reused_vertex(self):
        with pytest.raises(MalformedTreeError):
            CliqueAttach(Leaf(0), 0, (0,))

    def test_clique_rejects_empty(self):
        with pytest.raises(MalformedTreeError):
            CliqueAttach(Leaf(0), 0, ())

    def test_clique_keeps_stored_order(self):
        t = CliqueAttach(Leaf(0), 0, (2, 1))
        assert t.Q == (2, 1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Leaf(),
            lambda: Leaf(0, 1),
            lambda: Union(Leaf(0)),
            lambda: Comparable(Leaf(0), 1, 0),
            lambda: CliqueAttach(Leaf(0), 0, (1,), ()),
            lambda: Leaf(0, v=0),
            lambda: Comparable(Leaf(0), 1, 0, X=(), u=1),
            lambda: Leaf(w=0),
            lambda: Join(Leaf(0), right=Leaf(1), middle=Leaf(2)),
        ],
        ids=[
            "too-few",
            "too-many",
            "binary-too-few",
            "comparable-too-few",
            "clique-too-many",
            "repeated",
            "repeated-by-keyword",
            "unknown",
            "unknown-beside-known",
        ],
    )
    def test_refuses_wrong_arity_and_names_with_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    @pytest.mark.parametrize(
        "node",
        [
            Leaf(0),
            Union(Leaf(0), Leaf(1)),
            EDGE,
            Comparable(EDGE, 2, 0, (1,)),
            CliqueAttach(EDGE, 1, (2,)),
        ],
        ids=lambda node: type(node).__name__,
    )
    def test_fields_are_frozen(self, node):
        for f in (*node._kids, *node._own, "verts", "chi", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, f, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, f)
        assert node == tree_from_json(tree_to_json(node))

    # One fault per construction, each named by the node's op at the start of
    # its message; a label beyond the dense budget is in TestNodeData.
    @pytest.mark.parametrize(
        "make, op",
        [
            (lambda: Leaf(-1), "leaf"),
            (lambda: Comparable(Leaf(0), -1, 0, ()), "comparable"),
            (lambda: Comparable(EDGE, 1, 0, ()), "comparable"),
            (lambda: Comparable(EDGE, 2, 3, ()), "comparable"),
            (lambda: Comparable(EDGE, 2, 0, (0,)), "comparable"),
            (lambda: Comparable(EDGE, 2, 0, (3,)), "comparable"),
            (lambda: Comparable(EDGE, 2, 0, (1, 1)), "comparable"),
            (lambda: CliqueAttach(Leaf(0), 0, (1, -2)), "clique"),
            (lambda: CliqueAttach(Leaf(0), 0, (1, 2, 1)), "clique"),
            (lambda: CliqueAttach(EDGE, 0, (2, 1)), "clique"),
            (lambda: CliqueAttach(EDGE, 3, (2,)), "clique"),
            (lambda: CliqueAttach(Leaf(0), 0, ()), "clique"),
            (lambda: Union(EDGE, Leaf(1)), "union"),
            (lambda: Join(Leaf(1), EDGE), "join"),
        ],
        ids=[
            "leaf-negative",
            "comparable-negative",
            "comparable-new-in-child",
            "comparable-anchor-outside-child",
            "comparable-anchor-in-X",
            "comparable-X-outside-child",
            "comparable-X-repeated",
            "clique-negative",
            "clique-repeated",
            "clique-new-in-child",
            "clique-anchor-outside-child",
            "clique-empty",
            "union-overlap",
            "join-overlap",
        ],
    )
    def test_each_fault_raises_naming_its_op(self, make, op):
        with pytest.raises(MalformedTreeError) as err:
            make()
        assert str(err.value).startswith(f"{op} ")


class TestNodeData:
    def test_verts_bitmask_and_chi(self):
        assert P3_TREE.verts == 0b111 and P3_TREE.chi == 2
        assert P3_TREE.left.verts == 0b101 and P3_TREE.left.chi == 1
        t = CliqueAttach(Comparable(P3_TREE, 3, 1, (0,)), 3, (5, 4))
        assert t.child.verts == 0b1111 and t.child.chi == 2
        assert t.verts == 0b111111 and t.chi == 3

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Leaf(10**12),
            lambda: Comparable(Leaf(0), 10**12, 0, ()),
            lambda: CliqueAttach(Leaf(0), 0, (1, 10**12)),
            lambda: tree_from_json({"op": "leaf", "v": 10**12}),
            lambda: tree_from_json(
                {"op": "clique", "child": {"op": "leaf", "v": 0}, "z": 0, "Q": [10**12]}
            ),
        ],
    )
    def test_refuses_label_beyond_dense_budget_before_allocating(self, make):
        tracemalloc.start()
        try:
            with pytest.raises(SizeBudgetError, match="physical memory"):
                make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    # Comparable's X check reads each label off the child's bitmask: a label
    # far beyond the dense budget or a negative one is outside the child, not
    # a shift that builds a huge int.
    @pytest.mark.parametrize("label", [10**12, -1])
    def test_refuses_neighbour_outside_child_before_allocating(self, label):
        tracemalloc.start()
        try:
            with pytest.raises(MalformedTreeError, match="X reaches outside child"):
                Comparable(Leaf(0), 1, 0, (label,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestDeepTrees:
    N = 3000

    def test_equal_chains_compare_and_hash_equal(self, path_chain):
        a, b = path_chain(self.N), path_chain(self.N)
        assert a == b
        assert hash(a) == hash(b)

    def test_one_changed_label_compares_unequal(self, path_chain):
        n = self.N
        t = Join(Union(Leaf(n - 3), Leaf(n - 1)), Leaf(n - 2))
        for u in range(n - 4, -1, -1):
            # same vertices and chi, one X label moved deep in the chain
            t = Comparable(t, u, u + 2, (u + 3,) if u == 5 else (u + 1,))
        assert t != path_chain(n)
        assert path_chain(n) != t

    def test_chain_repr_under_shallow_stack(self, path_chain, shallow_stack):
        text = repr(path_chain(self.N))
        assert text.startswith("Comparable(child=Comparable(child=")
        assert text.endswith(", u=1, v=3, X=(2,)), u=0, v=2, X=(1,))")
        assert text.count("Comparable(") == self.N - 3

    @pytest.mark.parametrize(
        "make", [lambda: path_tree(5000), lambda: ladder_tree(200)], ids=["path", "ladder"]
    )
    def test_pickle_and_copy_round_trip_under_shallow_stack(self, make, shallow_stack):
        t = make()
        for clone in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
            assert type(clone) is type(t) and clone == t
            assert clone.verts == t.verts and clone.chi == t.chi

    def test_copy_is_the_tree_itself_under_shallow_stack(self, shallow_stack):
        t = path_tree(5000)
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert copy.deepcopy([t, t]) == [t, t]

    def test_path_chain_holds_under_2_mib(self, path_chain):
        tracemalloc.start()
        try:
            t = path_chain(2000)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert t.verts == (1 << 2000) - 1
        assert held < 2 * 2**20


class TestRepr:
    def test_reads_like_the_constructor_call(self):
        assert repr(Comparable(Leaf(0), 1, 0, ())) == "Comparable(child=Leaf(v=0), u=1, v=0, X=())"
        assert repr(P3_TREE) == "Join(left=Union(left=Leaf(v=0), right=Leaf(v=2)), right=Leaf(v=1))"
        assert repr(CliqueAttach(Leaf(0), 0, (2, 1))) == "CliqueAttach(child=Leaf(v=0), z=0, Q=(2, 1))"

    @pytest.mark.parametrize("seed", range(4))
    def test_evaluates_back_to_an_equal_tree(self, seed):
        t = random_oat(40, seed)
        assert eval(repr(t)) == t


class TestText:
    """The node table's one pre-order writer, as the tree JSON's text against
    json.dumps(tree_to_json(t)), and as repr against eval where Python's
    parser reads it: it refuses more than 200 nested brackets, so the deep
    trees check the shared walk through the JSON text alone."""

    @given(st.integers(1, 59), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_random_members_and_the_trees_recognised_from_them(self, n, seed):
        t = random_oat(n, seed)
        perm = random.Random(seed).sample(range(n), n)
        h = Graph(n, [(perm[u], perm[v]) for u, v in replay(t).edges()])
        for tree in (t, recognize(h).tree):
            assert _tree_text(tree) == json.dumps(tree_to_json(tree))
            assert eval(repr(tree)) == tree

    @pytest.mark.parametrize(
        "t", [path_tree(600), ladder_tree(100)], ids=["path_600", "ladder_100"]
    )
    def test_deep_trees(self, t):
        assert _tree_text(t) == json.dumps(tree_to_json(t))

    def test_deep_chain_under_shallow_stack(self, shallow_stack):
        text = _tree_text(path_tree(1500))
        assert text.startswith('{"op": "comparable", "child": {"op": "comparable", "child": ')
        assert text.endswith(', "u": 1, "v": 3, "X": [2]}, "u": 0, "v": 2, "X": [1]}')
        assert text.count('"op": "comparable"') == 1497


class TestReplay:
    def test_join_makes_all_cross_edges(self):
        g = replay(Join(Union(Leaf(0), Leaf(1)), Leaf(2)))
        assert g.edges() == [(0, 2), (1, 2)]

    def test_comparable_adds_only_listed_edges(self):
        t = Comparable(Join(Leaf(0), Leaf(1)), 2, 0, (1,))
        assert replay(t).edges() == [(0, 1), (1, 2)]

    def test_comparable_rejects_edge_outside_anchor_neighbourhood(self):
        t = Comparable(Union(Leaf(0), Leaf(1)), 2, 0, (1,))
        with pytest.raises(MalformedTreeError):
            replay(t)

    def test_clique_attach_edges(self):
        g = replay(CliqueAttach(Leaf(0), 0, (1, 2)))
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_rejects_label_gap(self):
        with pytest.raises(MalformedTreeError):
            replay(Union(Leaf(0), Leaf(2)))

    def test_validate(self):
        assert validate(P3_TREE, Graph(3, [(0, 1), (1, 2)]))
        assert not validate(P3_TREE, Graph(3, [(0, 1)]))
        assert not validate(Union(Leaf(0), Leaf(2)), Graph(2))

    @pytest.mark.parametrize("n", [1, 2, 9, 30, 60])
    def test_adjacency_is_a_read_only_simple_graph(self, n):
        # replay builds its Graph without from_adjacency's checks, so pin
        # what they would check, on generated and on recognised trees
        rng = random.Random(f"replay-{n}")
        for seed in range(3):
            t = random_oat(n, seed)
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph(n, [(perm[u], perm[v]) for u, v in replay(t).edges()])
            for tree in (t, recognize(h).tree):
                g = replay(tree)
                assert not g.adj.flags.writeable
                assert np.array_equal(g.adj, g.adj.T)
                assert not g.adj.diagonal().any()
                assert Graph.from_adjacency(g.adj) == g

    @given(st.integers(1, 80), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_kept_masks_agree_with_the_matrix(self, n, seed):
        # replay keeps the bitmasks it unpacked its matrix from
        g = replay(random_oat(n, seed))
        assert g.neighbour_masks == Graph.from_adjacency(g.adj).neighbour_masks

    def test_kept_masks_agree_with_the_matrix_on_a_deep_path(self):
        g = replay(path_tree(2000))
        assert g.neighbour_masks == Graph.from_adjacency(g.adj).neighbour_masks
        assert g.edges() == [(u, u + 1) for u in range(1999)]

    def test_walk_postorder_children_first(self):
        seen = list(walk_postorder(P3_TREE))
        assert seen[-1] is P3_TREE
        assert isinstance(seen[0], Leaf)


def defined_neighbours(t) -> list[tuple[int, ...]]:
    """Each vertex's neighbours in t's graph, ascending, from the four
    definitions, each node adding its own edges: a join links every left
    vertex to every right one, a comparable u meets exactly X, and an
    attached clique Q is complete and meets z."""
    verts: dict[int, set[int]] = {}  # each subtree's vertices, by the id of its root
    edges = set()
    for node in walk_postorder(t):
        if isinstance(node, Leaf):
            own = {node.v}
        elif isinstance(node, (Union, Join)):
            left, right = verts.pop(id(node.left)), verts.pop(id(node.right))
            if isinstance(node, Join):
                edges.update(itertools.product(left, right))
            own = left | right
        elif isinstance(node, Comparable):
            edges.update((node.u, x) for x in node.X)
            own = verts.pop(id(node.child)) | {node.u}
        else:
            edges.update(itertools.combinations([node.z, *node.Q], 2))
            own = verts.pop(id(node.child)) | set(node.Q)
        verts[id(node)] = own
    nbrs = [set() for _ in range(t.verts.bit_count())]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return [tuple(sorted(s)) for s in nbrs]


def neighbours(g: Graph) -> list[tuple[int, ...]]:
    """Each vertex's neighbours, read off its own bitmask: an edge set at
    one end only shows."""
    return [g.neighbours(v) for v in range(g.n)]


class TestEdgeRules:
    """replay's neighbourhoods against defined_neighbours, on generated,
    recognised and deep trees; each TestReplay case checks one small tree."""

    @given(st.integers(1, 60), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_random_members_and_the_trees_recognised_from_them(self, n, seed):
        t = random_oat(n, seed)
        g = replay(t)
        assert neighbours(g) == defined_neighbours(t)
        perm = random.Random(seed).sample(range(n), n)
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        found = recognize(h).tree
        assert neighbours(replay(found)) == defined_neighbours(found) == neighbours(h)

    @pytest.mark.parametrize(
        "t", [path_tree(600), ladder_tree(100)], ids=["path_600", "ladder_100"]
    )
    def test_deep_trees(self, t):
        assert neighbours(replay(t)) == defined_neighbours(t)


class TestChiOmega:
    def test_rules(self):
        assert chi_omega(Leaf(0)) == (1, 1)
        assert chi_omega(Union(Leaf(0), Leaf(1))) == (1, 1)
        assert chi_omega(Join(Leaf(0), Leaf(1))) == (2, 2)
        assert chi_omega(P3_TREE) == (2, 2)
        t = Comparable(P3_TREE, 3, 1, (0,))
        assert chi_omega(t) == (2, 2)
        assert chi_omega(CliqueAttach(Leaf(0), 0, (1, 2))) == (3, 3)
        # attached clique smaller than the child's clique number
        base = Join(Join(Leaf(0), Leaf(1)), Leaf(2))
        assert chi_omega(CliqueAttach(base, 0, (3,))) == (3, 3)

    @given(st.integers(1, 10), st.integers(0, 200))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_on_replay(self, n, seed):
        t = random_oat(n, seed)
        g = replay(t)
        chi, omega = chi_omega(t)
        assert chi == omega
        assert chi == brute_chi(g)
        assert omega == brute_omega(g)


class TestCanonical:
    def test_join_splits_palette(self):
        assert canonical_colouring(Join(Leaf(0), Leaf(1)), Palette((1, 2))).assignment == (1, 2)

    def test_union_reuses_prefix(self):
        assert canonical_colouring(P3_TREE, Palette((1, 2))).assignment == (1, 2, 1)

    def test_comparable_copies_anchor(self):
        t = Comparable(P3_TREE, 3, 1, (0,))
        assert canonical_colouring(t, Palette((1, 2))).assignment == (1, 2, 1, 2)

    def test_clique_takes_first_free_colours_in_stored_order(self):
        t = CliqueAttach(Leaf(0), 0, (1, 2))
        assert canonical_colouring(t, Palette((1, 2, 3))).assignment == (1, 2, 3)
        t = CliqueAttach(Leaf(0), 0, (2, 1))
        assert canonical_colouring(t, Palette((1, 2, 3))).assignment == (1, 3, 2)

    def test_respects_palette_order_not_value(self):
        assert canonical_colouring(Join(Leaf(0), Leaf(1)), Palette((7, 3))).assignment == (7, 3)

    def test_needs_exactly_chi_colours(self):
        with pytest.raises(PaletteError):
            canonical_colouring(Join(Leaf(0), Leaf(1)), Palette((1,)))
        with pytest.raises(PaletteError):
            canonical_colouring(Join(Leaf(0), Leaf(1)), Palette((1, 2, 3)))

    @given(st.integers(1, 10), st.integers(0, 200))
    @settings(max_examples=80, deadline=None)
    def test_canonical_colouring_is_proper_and_uses_chi_colours(self, n, seed):
        t = random_oat(n, seed)
        g = replay(t)
        chi, _ = chi_omega(t)
        col = canonical_colouring(t, Palette.default(chi))
        assert col.is_proper(g)
        assert len(set(col.assignment)) == chi


class TestJson:
    def test_shape(self):
        t = Comparable(CliqueAttach(Leaf(0), 0, (2, 1)), 3, 0, (1, 2))
        doc = tree_to_json(t)
        assert doc == {
            "op": "comparable",
            "child": {"op": "clique", "child": {"op": "leaf", "v": 0}, "z": 0, "Q": [2, 1]},
            "u": 3,
            "v": 0,
            "X": [1, 2],
        }

    def test_text_fixes_key_order(self):
        t = Comparable(CliqueAttach(Leaf(0), 0, (2, 1)), 3, 0, (1, 2))
        assert json.dumps(tree_to_json(t)) == (
            '{"op": "comparable", "child": {"op": "clique", "child": {"op": "leaf", "v": 0},'
            ' "z": 0, "Q": [2, 1]}, "u": 3, "v": 0, "X": [1, 2]}'
        )

    @given(st.integers(1, 12), st.integers(0, 300))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, n, seed):
        t = random_oat(n, seed)
        assert tree_from_json(tree_to_json(t)) == t
        assert tree_from_json(json.loads(json.dumps(tree_to_json(t)))) == t

    def test_rejects_unknown_op(self):
        with pytest.raises(MalformedTreeError):
            tree_from_json({"op": "frob", "v": 0})

    def test_rejects_missing_field(self):
        with pytest.raises(MalformedTreeError):
            tree_from_json({"op": "leaf"})

    def test_rejects_extra_field(self):
        with pytest.raises(MalformedTreeError):
            tree_from_json({"op": "leaf", "v": 0, "w": 1})

    def test_rejects_boolean_vertex(self):
        with pytest.raises(MalformedTreeError):
            tree_from_json({"op": "leaf", "v": True})

    def test_rejects_non_object(self):
        with pytest.raises(MalformedTreeError):
            tree_from_json([1, 2])

    def test_rejects_unhashable_op(self):
        with pytest.raises(MalformedTreeError, match=r"unknown tree op \[\]"):
            tree_from_json({"op": []})

    def test_accepts_one_node_of_each_op(self):
        for doc in (UNION, JOIN, COMPARABLE, CLIQUE):
            assert tree_to_json(tree_from_json(doc)) == doc

    # The exact wording of each message is pinned, not only its type.
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"op": "union", "left": L0}, "union node missing fields ['right']"),
            ({**UNION, "w": 1}, "union node has unexpected fields ['w']"),
            ({**UNION, "right": 3}, "tree node must be an object, got int"),
            ({"op": "join", "right": L1}, "join node missing fields ['left']"),
            ({**JOIN, "w": 1}, "join node has unexpected fields ['w']"),
            ({**JOIN, "left": [L0]}, "tree node must be an object, got list"),
            ({"op": "comparable", "child": JOIN, "u": 2, "v": 0}, "comparable node missing fields ['X']"),
            ({**COMPARABLE, "w": 1}, "comparable node has unexpected fields ['w']"),
            (
                {**COMPARABLE, "X": 1},
                "comparable node field 'X' must be a list of integers, got 1",
            ),
            ({**COMPARABLE, "u": "2"}, "comparable node field 'u' must be an integer, got '2'"),
            ({"op": "clique", "child": L0, "Q": [1, 2]}, "clique node missing fields ['z']"),
            ({**CLIQUE, "w": 1}, "clique node has unexpected fields ['w']"),
            (
                {**CLIQUE, "Q": [1, True]},
                "clique node field 'Q' must be a list of integers, got [1, True]",
            ),
        ],
    )
    def test_rejects_malformed_node_with_message(self, doc, message):
        with pytest.raises(MalformedTreeError) as err:
            tree_from_json(doc)
        assert str(err.value) == message

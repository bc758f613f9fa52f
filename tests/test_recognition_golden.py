"""Recognition outputs pinned byte for byte.

Each case's digest is the SHA-256 of the sorted-key `tree_to_json` document
for a member, or of the stuck vertices and stuck edges for a non-member.
The digests were recorded from the recursive recogniser that the work-stack
loop replaced, and those of the three deep relabelled cases from the
recogniser with one A@A copy per task that the shared, label-indexed A@A
replaced.  The sparse chain's digest was recorded from the recogniser
that refreshed its comparable index from A@A rows only, before it read
dominators off neighbourhood bitmasks.  So any change to a tree's shape,
its tie-breaking or the reported stuck subgraph shows up here.
"""

import hashlib
import json
import random

import pytest

from oatgraph import (
    CliqueAttach,
    Comparable,
    Graph,
    Join,
    Leaf,
    classic,
    fixture,
    p4_sparse_third_op,
    random_oat,
    recognize,
    replay,
    tree_to_json,
)


def relabel(g: Graph, seed: str) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def sparse_chain(n: int, seed: str) -> Graph:
    """A member grown from K2, as the benchmark's sparse chains are: 3 in 4
    steps add a comparable vertex on one or two of an anchor's neighbours,
    the rest attach a clique of one to three vertices to a vertex."""
    grow = random.Random(seed)
    nbrs: list[set[int]] = [{1}, {0}]
    tree = Join(Leaf(0), Leaf(1))
    while len(nbrs) < n:
        new = len(nbrs)
        if grow.random() < 0.75:
            v = grow.randrange(new)
            xs = grow.sample(sorted(nbrs[v]), min(len(nbrs[v]), grow.choice((1, 1, 2))))
            nbrs.append(set(xs))
            for x in xs:
                nbrs[x].add(new)
            tree = Comparable(tree, new, v, tuple(xs))
        else:
            z = grow.randrange(new)
            q = range(new, new + min(grow.randint(1, 3), n - new))
            for a in q:
                nbrs.append({z, *q} - {a})
                nbrs[z].add(a)
            tree = CliqueAttach(tree, z, tuple(q))
    return replay(tree)


def c5_with_tail(tail: int) -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(4 + i, 5 + i) for i in range(tail)]
    return Graph(5 + tail, edges)


def disjoint(*graphs: Graph) -> Graph:
    edges, offset = [], 0
    for g in graphs:
        edges += [(offset + u, offset + v) for u, v in g.edges()]
        offset += g.n
    return Graph(offset, edges)


def joined(a: Graph, b: Graph) -> Graph:
    edges = a.edges() + [(a.n + u, a.n + v) for u, v in b.edges()]
    edges += [(u, a.n + v) for u in range(a.n) for v in range(b.n)]
    return Graph(a.n + b.n, edges)


CASES = {
    "path_1": lambda: classic("path", 1),
    "path_2": lambda: classic("path", 2),
    "path_57": lambda: classic("path", 57),
    "path_150": lambda: classic("path", 150),
    "complete_9": lambda: classic("complete", 9),
    "random_oat_12_1": lambda: replay(random_oat(12, 1)),
    "random_oat_40_3": lambda: replay(random_oat(40, 3)),
    "random_oat_75_7": lambda: replay(random_oat(75, 7)),
    "random_oat_120_11": lambda: replay(random_oat(120, 11)),
    "random_oat_150_0": lambda: replay(random_oat(150, 0)),
    "p4_sparse_pendant_6": lambda: p4_sparse_third_op(6, None, "pendant"),
    "p4_sparse_anti_5_r": lambda: p4_sparse_third_op(5, replay(random_oat(8, 2)), "anti"),
    "p4_sparse_pendant_4_r": lambda: p4_sparse_third_op(4, classic("path", 5), "pendant"),
    "permuted_random_oat_90_5": lambda: relabel(replay(random_oat(90, 5)), "golden-90"),
    "permuted_path_64": lambda: relabel(classic("path", 64), "golden-path"),
    "permuted_p4_sparse_anti_7": lambda: relabel(p4_sparse_third_op(7, None, "anti"), "golden-p4"),
    # Deep or wide and relabelled, so that labels and build order disagree
    # all the way down; trees stay within json.dumps's nesting limit.
    "permuted_path_300": lambda: relabel(classic("path", 300), "golden-path-300"),
    "permuted_random_oat_325_0": lambda: relabel(replay(random_oat(325, 0)), "golden-325"),
    "permuted_p4_sparse_anti_40_r": lambda: relabel(
        p4_sparse_third_op(40, classic("path", 10), "anti"), "golden-p4-40"
    ),
    # Degree-1 and degree-2 comparable vertices mixed with pendant cliques
    # of one to three vertices down a chain about 250 moves deep.
    "permuted_sparse_chain_250": lambda: relabel(
        sparse_chain(250, "golden-sparse-chain"), "golden-sparse-chain-250"
    ),
    "c5_with_tail_6": lambda: c5_with_tail(6),
    "permuted_c5_with_tail_20": lambda: relabel(c5_with_tail(20), "golden-c5"),
    "member_then_two_c5": lambda: disjoint(
        replay(random_oat(30, 4)), classic("cycle", 5), classic("cycle", 5)
    ),
    "member_joined_to_c5_with_tail": lambda: joined(replay(random_oat(10, 9)), c5_with_tail(3)),
    "fixture_domino": lambda: fixture("domino").graph,
    "fixture_house": lambda: fixture("house").graph,
    "fixture_gem": lambda: fixture("gem").graph,
    "fixture_fig2_imperfect": lambda: fixture("fig2_imperfect").graph,
    "fixture_fig4_dh_not_oat": lambda: fixture("fig4_dh_not_oat").graph,
}


def digest(g: Graph) -> str:
    out = recognize(g)
    if out.is_oat:
        doc = {"tree": tree_to_json(out.tree)}
    else:
        verts = out.stuck_vertices
        doc = {
            "stuck_vertices": list(verts),
            "stuck_edges": [[verts[u], verts[v]] for u, v in out.stuck.edges()],
        }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


GOLDEN = {
    "c5_with_tail_6": "6b469870fc031729b6e9",
    "complete_9": "b796d1b989aa7c552013",
    "fixture_domino": "3b016c60f5c3dc82a589",
    "fixture_fig2_imperfect": "96c3b0736c58eb52f5c5",
    "fixture_fig4_dh_not_oat": "fc094ba867ad6b7cd0bc",
    "fixture_gem": "d8fab2b2c8480e90fe44",
    "fixture_house": "5e3fc8f5b51c747a05b5",
    "member_joined_to_c5_with_tail": "4db7cf10ed496e3038b4",
    "member_then_two_c5": "af4fb44a153703c873c2",
    "p4_sparse_anti_5_r": "cd836265e2713ffa0212",
    "p4_sparse_pendant_4_r": "11e86aabe664e62c8ff2",
    "p4_sparse_pendant_6": "2a1f235b9a7a8bb5fa9a",
    "path_1": "14d10032324b6a8ce9a9",
    "path_150": "31a17a7c4c60392f6759",
    "path_2": "8aa2f4c5dea094946f9e",
    "path_57": "f2bb4982023bfccc34d9",
    "permuted_c5_with_tail_20": "2fa6631504fd327eaafe",
    "permuted_p4_sparse_anti_7": "7d441509565dc3ea7587",
    "permuted_p4_sparse_anti_40_r": "20245bf68a126d3cb4d6",
    "permuted_path_300": "d07e74f0553363f1d5b6",
    "permuted_random_oat_325_0": "20f9fe2f45f24bc3ef2a",
    "permuted_sparse_chain_250": "b55dbb1c8e8d06f9f622",
    "permuted_path_64": "992d2e351a35d49aac76",
    "permuted_random_oat_90_5": "c8143037fa16599f7f36",
    "random_oat_120_11": "3e179fda9049bf29be5f",
    "random_oat_12_1": "0861b9a4a431a6b7b992",
    "random_oat_150_0": "f4a9dd7ba95ec791bb09",
    "random_oat_40_3": "116166d96f7a7b5152e2",
    "random_oat_75_7": "dcbe1d398d5a3870e732",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_recognition_output_is_pinned(name):
    assert digest(CASES[name]()) == GOLDEN[name]


"""Recolouring outputs pinned step for step.

Each case's digest is the SHA-256 of the sorted-key `sequence_to_json`
documents of one `find_path` call between two colourings drawn by
`moved_colouring` (conftest.py) and of one `to_canonical` call from the
first of them onto a target palette that is not a prefix of the working
palette.  The digests were recorded from the walk that scanned every
active mirror and guard on each step, before the hooks were indexed by
anchor, so any change to the order in which hooks fire, to a tie-break in
a rename or to the junction peeling shows up here.
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
    Palette,
    Union,
    chi_omega,
    classic,
    find_path,
    fixture,
    p4_sparse_third_op,
    random_oat,
    recognize,
    replay,
    sequence_to_json,
    to_canonical,
)


def relabel(g: Graph, seed: str) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def shared_anchor_tree():
    """Anchor 0 carries an inner twin 2, a guarded clique {3, 4} and an
    outer twin 5, whose own twin 9 cascades; a join above renames them all."""
    base = Join(Union(Leaf(0), Leaf(6)), Leaf(1))
    inner = Comparable(base, 2, 0, (1,))
    guarded = CliqueAttach(inner, 0, (3, 4))
    outer = Comparable(guarded, 5, 0, (1, 3))
    cascade = Comparable(outer, 9, 5, (3,))
    return Join(cascade, Union(Leaf(7), Leaf(8)))


def member(g: Graph):
    out = recognize(g)
    assert out.is_oat
    return out.tree


CASES = {
    "path_1": lambda: member(classic("path", 1)),
    "path_2": lambda: member(classic("path", 2)),
    "path_57": lambda: member(classic("path", 57)),
    "path_150": lambda: member(classic("path", 150)),
    "random_oat_12_1": lambda: random_oat(12, 1),
    "random_oat_40_3": lambda: random_oat(40, 3),
    "random_oat_75_7": lambda: random_oat(75, 7),
    "random_oat_120_11": lambda: random_oat(120, 11),
    "recognised_random_oat_40_3": lambda: member(replay(random_oat(40, 3))),
    "permuted_random_oat_40_3": lambda: member(relabel(replay(random_oat(40, 3)), "walk-40")),
    "permuted_random_oat_90_5": lambda: member(relabel(replay(random_oat(90, 5)), "walk-90")),
    "p4_sparse_pendant_6": lambda: member(p4_sparse_third_op(6, None, "pendant")),
    "p4_sparse_anti_7": lambda: member(p4_sparse_third_op(7, None, "anti")),
    "p4_sparse_anti_5_r": lambda: member(
        p4_sparse_third_op(5, replay(random_oat(8, 2)), "anti")
    ),
    "p4_sparse_pendant_4_r": lambda: member(p4_sparse_third_op(4, classic("path", 5), "pendant")),
    "fixture_domino": lambda: member(fixture("domino").graph),
    "fixture_house": lambda: member(fixture("house").graph),
    "fixture_gem": lambda: member(fixture("gem").graph),
    "fixture_fig2_imperfect": lambda: member(fixture("fig2_imperfect").graph),
    "shared_anchor": shared_anchor_tree,
}


def digest(name: str, moved) -> str:
    tree = CASES[name]()
    g = replay(tree)
    chi = chi_omega(tree)[0]
    S = Palette.default(chi + 1 + len(name) % 2)
    alpha = moved(tree, g, S, f"{name}-alpha", 4 * g.n)
    beta = moved(tree, g, S, f"{name}-beta", 4 * g.n)
    target = tuple(reversed(S.colours[-chi:]))
    doc = {
        "find_path": sequence_to_json(find_path(tree, alpha, beta, S)),
        "to_canonical": sequence_to_json(to_canonical(tree, alpha, S, target)),
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


GOLDEN = {
    "fixture_domino": "f980147b2ff9b6005af7",
    "fixture_fig2_imperfect": "fea095232d217d0b69a6",
    "fixture_gem": "bb20654dad0f08f1e3c4",
    "fixture_house": "dbe48d4399912040927a",
    "p4_sparse_anti_5_r": "5fe3830b73e959a931ff",
    "p4_sparse_anti_7": "219e34f6808674b3e599",
    "p4_sparse_pendant_4_r": "49c4e7674728ea6ed545",
    "p4_sparse_pendant_6": "2557653b6f292e29dd8d",
    "path_1": "ae356dd5c08223cc3890",
    "path_150": "0c12c8ba86252ea33e4f",
    "path_2": "e42604080909f5c98c9e",
    "path_57": "e12e1cf970fd45e29ac9",
    "permuted_random_oat_40_3": "22e7bdc432b1c1c92014",
    "permuted_random_oat_90_5": "cc7c838b0991db543ade",
    "random_oat_120_11": "33b8393fd3c43dfccfc5",
    "random_oat_12_1": "7bba0ac99abc59e8830b",
    "random_oat_40_3": "6644a4cc63fb2bfd1fc4",
    "random_oat_75_7": "86ac754d35e02f2850d5",
    "recognised_random_oat_40_3": "335826246b48d98a1f25",
    "shared_anchor": "47be3bb3ea7490bb7ed5",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_recolouring_output_is_pinned(name, moved):
    assert digest(name, moved) == GOLDEN[name]

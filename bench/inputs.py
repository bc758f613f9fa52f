"""Seeded benchmark inputs: graph families, planted non-members and colourings.

Every input is a `Case`: the graph as edge-list text (the only thing a timed
job hands to the library), plus what its generator knows, so that each
output can be checked: membership, chi, the planted stuck vertex set, and a
build tree that only seeds the colouring sampler.

Generators take a `random.Random` last and use it only to relabel the graph
by a permutation; shapes come from their own arguments.  Colourings are
drawn from a second `random.Random`.  The same seeds give the same graphs,
labels and colourings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from oatgraph import (
    BuildTree,
    CliqueAttach,
    Colouring,
    Comparable,
    Graph,
    Join,
    Leaf,
    Palette,
    canonical_colouring,
    chi_omega,
    format_graph,
    p4_sparse_third_op,
    random_oat,
    replay,
    tree_from_json,
    tree_to_json,
)


@dataclass
class Case:
    """One generated input graph and what its generator knows about it."""

    family: str
    graph: Graph = field(repr=False)
    text: str = field(repr=False)
    member: bool
    chi: int | None = None
    stuck: frozenset[int] | None = None
    tree: BuildTree | None = field(default=None, repr=False)
    colourings: list[Colouring] = field(default_factory=list, repr=False)

    @property
    def n(self) -> int:
        return self.graph.n


def relabel_tree(tree: BuildTree, perm: list[int]) -> BuildTree:
    """The same build tree with every vertex label v replaced by perm[v]."""
    doc = tree_to_json(tree)
    stack = [doc]
    while stack:
        node = stack.pop()
        for key in ("v", "u", "z"):
            if key in node:
                node[key] = perm[node[key]]
        for key in ("X", "Q"):
            if key in node:
                node[key] = [perm[x] for x in node[key]]
        stack.extend(node[k] for k in ("left", "right", "child") if k in node)
    return tree_from_json(doc)


def _case(
    family: str,
    n: int,
    edges,
    rng: random.Random,
    *,
    tree: BuildTree | None = None,
    chi: int | None = None,
    stuck=None,
) -> Case:
    """Relabel a generated graph by a seeded permutation and wrap it."""
    perm = list(range(n))
    rng.shuffle(perm)
    g = Graph(n, [(perm[u], perm[v]) for u, v in edges])
    return Case(
        family=family,
        graph=g,
        text=format_graph(g),
        member=tree is not None,
        chi=chi,
        stuck=None if stuck is None else frozenset(perm[v] for v in stuck),
        tree=None if tree is None else relabel_tree(tree, perm),
    )


def path(n: int, rng: random.Random) -> Case:
    """P_n: every recognition move is a comparable tail move."""
    tree: BuildTree = Join(Leaf(0), Leaf(1))
    for k in range(2, n):
        tree = Comparable(tree, k, k - 2, (k - 1,))
    return _case("path", n, [(i, i + 1) for i in range(n - 1)], rng, tree=tree, chi=2)


def sparse_chain(n: int, shape: int, rng: random.Random) -> Case:
    """A connected member grown from K2 by comparable vertices with one or two
    neighbours and by attached cliques of at most three vertices, so chi <= 4.
    The growth is drawn from `shape`; `rng` only relabels.
    """
    grow = random.Random(f"sparse-chain-{n}-{shape}")
    adj: list[set[int]] = [{1}, {0}]
    tree: BuildTree = Join(Leaf(0), Leaf(1))
    chi = 2
    while len(adj) < n:
        new = len(adj)
        if grow.random() < 0.75:
            v = grow.randrange(new)
            nbrs = sorted(adj[v])
            xs = grow.sample(nbrs, min(len(nbrs), grow.choice((1, 1, 2))))
            adj.append(set(xs))
            for x in xs:
                adj[x].add(new)
            tree = Comparable(tree, new, v, tuple(xs))
        else:
            z = grow.randrange(new)
            q = list(range(new, new + min(grow.randint(1, 3), n - new)))
            for a in q:
                adj.append({z, *q} - {a})
                adj[z].add(a)
            tree = CliqueAttach(tree, z, tuple(q))
            chi = max(chi, len(q) + 1)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return _case("sparse_chain", n, edges, rng, tree=tree, chi=chi)


def cycle_with_tail(n: int, rng: random.Random) -> Case:
    """Planted non-member: C5 on 0..4 and a path of n-5 vertices hung off 0.

    The recogniser peels the tail one comparable move at a time and must get
    stuck on exactly the five cycle vertices.
    """
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(0, 5)] + [(i, i + 1) for i in range(5, n - 1)]
    return _case("cycle_tail", n, edges, rng, stuck=range(5))


def oat(n: int, shape: int, rng: random.Random) -> Case:
    """The member `random_oat(n, shape)`: wide union and join splits."""
    tree = random_oat(n, shape)
    return _case("random_oat", n, replay(tree).edges(), rng, tree=tree, chi=chi_omega(tree)[0])


def oat_join_cycle(m: int, shape: int, rng: random.Random) -> Case:
    """Planted non-member: `random_oat(m, shape)` joined to a C5 on m..m+4."""
    tree = random_oat(m, shape)
    cyc = range(m, m + 5)
    edges = replay(tree).edges()
    edges += [(m + i, m + (i + 1) % 5) for i in range(5)]
    edges += [(a, b) for a in range(m) for b in cyc]
    return _case("oat_join_cycle", m + 5, edges, rng, stuck=cyc)


def p4_sparse(v1: int, r_size: int, case: str, rng: random.Random) -> Case:
    """`p4_sparse_third_op(v1, r, case)` with r = `random_oat(r_size, 0)`,
    together with a hand-built tree for the same layout.
    """
    r_tree = random_oat(r_size, 0)
    g = p4_sparse_third_op(v1, replay(r_tree), case)
    v = v1
    clique = list(range(v1 + 1, 2 * v1 + 2))
    vprime, matched = clique[0], clique[1:]
    offset = 2 * v1 + 2
    shifted = relabel_tree(r_tree, list(range(offset, offset + r_size)))
    tree: BuildTree = Join(CliqueAttach(Leaf(vprime), vprime, tuple(matched)), shifted)
    if case == "pendant":
        for x in range(v1):
            tree = CliqueAttach(tree, matched[x], (x,))
        tree = CliqueAttach(tree, vprime, (v,))
    else:
        tree = Comparable(tree, v, vprime, tuple(matched))
        for x in range(v1):
            tree = Comparable(tree, x, matched[x], tuple(c for c in clique if c != matched[x]))
    chi = len(clique) + chi_omega(r_tree)[0]
    return _case(f"p4_sparse_{case}", g.n, g.edges(), rng, tree=tree, chi=chi)


def sample_colourings(case: Case, rng: random.Random, count: int) -> list[Colouring]:
    """`count` proper colourings of a member over 1..chi+1.

    Starts from the canonical colouring over the first chi colours and, for
    each sample, tries 20n seeded single-vertex moves to a random palette
    colour, keeping those that stay proper.  `seen[v][c]` counts the
    neighbours of v coloured c, so a try costs O(1) and a kept move O(deg),
    and the sampler is polynomial however dense the graph is.  Fewer tries
    leave dense members so close to canonical that walk lengths split into
    two clusters depending on whether one rare move happened.
    """
    g, chi = case.graph, case.chi
    palette = Palette.default(chi + 1)
    cur = list(canonical_colouring(case.tree, palette.colours[:chi]).assignment)
    nbrs = [np.flatnonzero(row).tolist() for row in g.adj]
    seen = [[0] * (chi + 2) for _ in range(g.n)]
    for v, ws in enumerate(nbrs):
        for w in ws:
            seen[v][cur[w]] += 1
    out = []
    for _ in range(count):
        for _ in range(20 * g.n):
            v = rng.randrange(g.n)
            c = rng.randint(1, chi + 1)
            if c != cur[v] and not seen[v][c]:
                for w in nbrs[v]:
                    seen[w][cur[v]] -= 1
                    seen[w][c] += 1
                cur[v] = c
        col = Colouring(tuple(cur), palette)
        if not col.is_proper(g):
            raise RuntimeError(f"sampler produced an improper colouring of {case.family}")
        out.append(col)
    return out

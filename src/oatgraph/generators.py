"""Deterministic graph construction: classic families, shipped fixtures,
seeded random build trees, and the P4-sparse composition.
"""

from __future__ import annotations

import importlib.resources
import itertools
import json
import random
from dataclasses import dataclass

from ._util import iter_bits
from .buildtree import BuildTree, CliqueAttach, Comparable, Join, Leaf, Union
from .graph import Graph, _check_dense_budget, parse_graph

FIXTURE_NAMES = ("domino", "house", "gem", "fig2_imperfect", "fig4_dh_not_oat")

CLASSIC_FAMILIES = ("path", "cycle", "complete", "complete_bipartite_minus_matching")


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: Graph
    expected_oat: bool
    expected_chi: int | None


def classic(family: str, param: int) -> Graph:
    """A named classic graph: path(n), cycle(n), complete(n), or
    complete_bipartite_minus_matching(a) with sides 0..a-1 and a..2a-1
    where side vertex i is unmatched to opposite vertex i.

    A size over the dense budget is refused before any edge exists.
    """
    if family == "path":
        if param < 1:
            raise ValueError(f"path needs n >= 1, got {param}")
        return Graph(param, ((i, i + 1) for i in range(param - 1)))
    if family == "cycle":
        if param < 3:
            raise ValueError(f"cycle needs n >= 3, got {param}")
        ring = itertools.chain(((i, i + 1) for i in range(param - 1)), [(0, param - 1)])
        return Graph(param, ring)
    if family == "complete":
        if param < 1:
            raise ValueError(f"complete needs n >= 1, got {param}")
        _check_dense_budget(param)  # combinations copies its whole input
        return Graph(param, itertools.combinations(range(param), 2))
    if family == "complete_bipartite_minus_matching":
        if param < 1:
            raise ValueError(f"complete_bipartite_minus_matching needs a >= 1, got {param}")
        edges = ((i, param + j) for i in range(param) for j in range(param) if i != j)
        return Graph(2 * param, edges)
    raise ValueError(f"unknown family {family!r}; choose from {', '.join(CLASSIC_FAMILIES)}")


def fixture(name: str) -> Fixture:
    """A shipped fixture graph with its expected properties."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; choose from {', '.join(FIXTURE_NAMES)}")
    data = importlib.resources.files("oatgraph") / "data"
    manifest = json.loads((data / "manifest.json").read_text())
    entry = manifest[name]
    graph = parse_graph((data / f"{name}.graph").read_text())
    return Fixture(name, graph, bool(entry["expected_oat"]), entry.get("expected_chi"))


def random_oat(n: int, seed: int) -> BuildTree:
    """A seeded random build tree on vertices 0..n-1.

    Operations are drawn with weights union 0.2 / join 0.3 / comparable 0.3 /
    clique 0.2; split sizes, anchors, and attached-clique sizes are uniform
    over the valid range, and comparable neighbourhoods take each eligible
    edge independently with probability one half.  Deterministic per (n, seed).

    A size over the dense budget is refused before any label is handed out.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_dense_budget(n)  # the graph this tree replays to must fit, checked before any label
    rng = random.Random(f"random-oat-{n}-{seed}")
    nbrs: dict[int, int] = {}  # neighbour bitmasks in build order, as replay keeps them

    def build(size: int) -> BuildTree:
        # Labels are handed out in build order: the next one is len(nbrs), and
        # a subtree's vertices are range(start, len(nbrs)) once it is built.
        start = len(nbrs)
        if size == 1:
            node = Leaf(start)
        else:
            op = rng.choices((Union, Join, Comparable, CliqueAttach), (0.2, 0.3, 0.3, 0.2))[0]
            if op is Union or op is Join:
                left_size = rng.randint(1, size - 1)
                node = op(build(left_size), build(size - left_size))
            elif op is Comparable:
                child = build(size - 1)
                v = rng.choice(range(start, len(nbrs)))
                x = tuple(w for w in iter_bits(nbrs[v]) if rng.random() < 0.5)
                node = Comparable(child, len(nbrs), v, x)
            else:
                q_size = rng.randint(1, size - 1)
                child = build(size - q_size)
                z = rng.choice(range(start, len(nbrs)))
                node = CliqueAttach(child, z, tuple(range(len(nbrs), len(nbrs) + q_size)))
        node._apply(nbrs)
        return node

    return build(n)


def p4_sparse_third_op(v1_size: int, r: Graph | None, case: str) -> Graph:
    """Compose an edgeless part V1 with a pendant-or-antipendant gadget.

    Layout: V1 = 0..v1_size-1, the apex vertex v = v1_size, the clique
    K = v1_size+1..2*v1_size+1 (so |K| = |V1| + 1), v' = min(K), and the
    optional graph r relabelled to follow, joined completely to K and kept
    non-adjacent to v.  In the pendant case v sees only v' and each x in V1
    is matched to its own clique vertex; in the anti case v sees K minus v'
    and each x in V1 sees all of K except its matched vertex.
    """
    if case not in ("pendant", "anti"):
        raise ValueError(f"case must be 'pendant' or 'anti', got {case!r}")
    if v1_size < 1:
        raise ValueError(f"V1 must be nonempty so that |K| = |V1| + 1 >= 2, got size {v1_size}")
    offset = 2 * v1_size + 2
    r_n = r.n if r is not None else 0
    _check_dense_budget(offset + r_n)  # before the clique's labels are listed
    v = v1_size
    clique = list(range(v1_size + 1, offset))
    vprime = clique[0]
    matched = clique[1:]
    parts = [itertools.combinations(clique, 2)]
    if case == "pendant":
        parts.append([(v, vprime)])
        parts.append((x, matched[x]) for x in range(v1_size))
    else:
        parts.append((v, b) for b in matched)
        parts.append((x, z) for x in range(v1_size) for z in clique if z != matched[x])
    if r is not None:
        parts.append((offset + a, offset + b) for a, b in r.edges())
        parts.append((b, offset + i) for b in clique for i in range(r_n))
    return Graph(offset + r_n, itertools.chain(*parts))

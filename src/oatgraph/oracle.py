"""Brute-force ground truth at desk scale.

Everything here is deliberately naive and coded independently of the main
algorithms so it can serve as a cross-check: explicit reconfiguration graphs
with exhaustive BFS, backtracking chromatic number, branch-and-bound clique
number, and an exhaustive membership test that shares no decomposition code
with the recogniser.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

from .colouring import Colouring, Palette
from .errors import ColouringError, SizeBudgetError
from .graph import Graph


class ReconfigGraph:
    """The graph whose nodes are all proper colourings over a palette.

    Nodes are assignment tuples in lexicographic order; two nodes are
    adjacent when they differ on exactly one vertex.
    """

    def __init__(
        self,
        graph: Graph,
        palette: Palette,
        nodes: tuple[tuple[int, ...], ...],
        adjacency: tuple[tuple[int, ...], ...],
        index: dict[tuple[int, ...], int],
    ):
        self.graph = graph
        self.palette = palette
        self.nodes = nodes
        self.adjacency = adjacency
        self._index = index

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def index_of(self, colouring: Colouring | Sequence[int]) -> int:
        key = tuple(colouring.assignment if isinstance(colouring, Colouring) else colouring)
        try:
            return self._index[key]
        except KeyError:
            raise ColouringError(f"{key} is not a node (not proper, or colours off-palette)")

    def bfs_from(self, start: int) -> list[int]:
        """Distances from a node index; -1 marks unreachable nodes."""
        dist = [-1] * len(self.nodes)
        dist[start] = 0
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in self.adjacency[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    def distance(self, a: Colouring | Sequence[int], b: Colouring | Sequence[int]) -> int | None:
        d = self.bfs_from(self.index_of(a))[self.index_of(b)]
        return None if d < 0 else d

    @property
    def frozen(self) -> tuple[tuple[int, ...], ...]:
        """The isolated nodes: colourings no single-vertex move leaves."""
        return tuple(a for a, nbrs in zip(self.nodes, self.adjacency) if not nbrs)


_NODE_BUDGET = 2_000_000


def _check_node_budget(n: int, k: int) -> None:
    """Raise SizeBudgetError when the k^n assignments build_reconfig would
    enumerate, or the k^n * n * (k-1) recolourings it would try from them,
    exceed _NODE_BUDGET; callable before any palette exists."""
    bound = k**n
    if bound > _NODE_BUDGET:
        # a count of thousands of digits says no more than k^n, and str() refuses it
        shown = f" = {bound}" if bound < 10**40 else ""
        raise SizeBudgetError(
            f"{k}^{n}{shown} assignments exceed the budget of {_NODE_BUDGET}", bound=bound
        )
    moves = bound * n * (k - 1)
    if k > 1 and moves > _NODE_BUDGET:
        raise SizeBudgetError(
            f"{k}^{n} * {n} * {k - 1} = {moves} recolourings exceed the budget of {_NODE_BUDGET}",
            bound=moves,
        )


# reconfig_stats runs one BFS from each of N colourings over E moves, about
# N (N + E) steps.  On a 2-vCPU x86 VM it ran 12-18 million steps a second
# (edgeless graphs on 6 and 7 vertices over 3 colours, the domino over 4),
# so this budget is a few seconds of BFS; an edgeless 8-vertex graph over 3
# colours, 6,561 colourings and 387 million steps, took 22.7 s.
_STATS_BUDGET = 40_000_000


def build_reconfig(g: Graph, S: Palette) -> ReconfigGraph:
    """Materialise the full reconfiguration graph; refuses oversized inputs."""
    _check_node_budget(g.n, len(S))
    colours = sorted(S.colours)
    edges = g.edges()
    nodes = tuple(
        a for a in itertools.product(colours, repeat=g.n) if all(a[u] != a[v] for u, v in edges)
    )
    index = {a: i for i, a in enumerate(nodes)}
    adjacency: list[list[int]] = [[] for _ in nodes]
    for i, a in enumerate(nodes):
        for v in range(g.n):
            for c in colours:
                # only upward moves: the partner with the smaller colour adds both ends
                if c <= a[v]:
                    continue
                j = index.get(a[:v] + (c,) + a[v + 1 :])
                if j is not None:
                    adjacency[i].append(j)
                    adjacency[j].append(i)
    return ReconfigGraph(g, S, nodes, tuple(tuple(sorted(nbrs)) for nbrs in adjacency), index)


@dataclass(frozen=True)
class ReconfigStats:
    """Connectivity census of a reconfiguration graph.

    diameter is None when the graph is disconnected or empty; per-component
    diameters are always available.  frozen lists the isolated nodes (no
    single-vertex move applies at all).
    """

    nodes: int
    connected: bool
    diameter: int | None
    component_diameters: tuple[int, ...]
    frozen: tuple[tuple[int, ...], ...]

    @property
    def frozen_count(self) -> int:
        return len(self.frozen)

    def to_json(self) -> dict[str, Any]:
        return {
            "nodes": self.nodes,
            "connected": self.connected,
            "diameter": self.diameter,
            "frozen_count": self.frozen_count,
        }


def reconfig_stats(r: ReconfigGraph) -> ReconfigStats:
    """Exact connectivity, diameters, and frozen nodes by BFS from every node.

    Components are numbered in order of their first node: a node that no
    earlier node's BFS reached starts the next one.  A census of more than
    _STATS_BUDGET BFS steps is refused with SizeBudgetError before the
    first BFS.
    """
    total = len(r.nodes)
    moves = sum(map(len, r.adjacency)) // 2
    steps = total * (total + moves)
    if steps > _STATS_BUDGET:
        raise SizeBudgetError(
            f"a BFS from each of {total} colourings over {moves} moves, "
            f"{steps} steps, exceeds the census budget of {_STATS_BUDGET}",
            bound=steps,
        )
    comp_ids = [-1] * total
    comp_diam: list[int] = []
    for i in range(total):
        dist = r.bfs_from(i)
        if comp_ids[i] < 0:
            for j, d in enumerate(dist):
                if d >= 0:
                    comp_ids[j] = len(comp_diam)
            comp_diam.append(0)
        cid = comp_ids[i]
        comp_diam[cid] = max(comp_diam[cid], max(dist))
    connected = len(comp_diam) <= 1
    diameter = comp_diam[0] if connected and total else None
    return ReconfigStats(total, connected, diameter, tuple(comp_diam), r.frozen)


def is_frozen(g: Graph, colouring: Colouring) -> bool:
    """True when no vertex can move: every other palette colour is blocked."""
    for v in range(g.n):
        seen = {colouring[w] for w in g.neighbours(v)}
        for c in colouring.palette:
            if c != colouring[v] and c not in seen:
                return False
    return True


def brute_chi(g: Graph) -> int:
    """Exact chromatic number by backtracking.

    Vertices are tried in descending-degree order and each vertex may only
    use a colour index at most one above the largest used so far, which
    kills the colour-permutation symmetry.
    """
    if g.n > 16:
        raise SizeBudgetError(f"chromatic search capped at n = 16, got {g.n}", bound=16)
    n = g.n
    order = sorted(range(n), key=lambda v: -g.degree(v))
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[pos[w] for w in g.neighbours(v) if pos[w] < pos[v]] for v in order]
    colour = [-1] * n

    def feasible(i: int, used: int, k: int) -> bool:
        if i == n:
            return True
        taken = {colour[j] for j in earlier[i]}
        for c in range(min(used + 1, k)):
            if c in taken:
                continue
            colour[i] = c
            if feasible(i + 1, max(used, c + 1), k):
                colour[i] = -1
                return True
            colour[i] = -1
        return False

    for k in range(1, n + 1):
        if feasible(0, 0, k):
            return k
    return n


def brute_omega(g: Graph) -> int:
    """Exact clique number by bitmask branch and bound."""
    if g.n > 16:
        raise SizeBudgetError(f"clique search capped at n = 16, got {g.n}", bound=16)
    masks = g.neighbour_masks
    best = 0

    def expand(cand: int, size: int):
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand ^= 1 << v
            expand(cand & masks[v], size + 1)

    expand((1 << g.n) - 1, 0)
    return best


def brute_is_oat(g: Graph) -> bool:
    """Membership by exhaustive deconstruction, independent of the recogniser.

    Works on vertex subsets with plain set arithmetic: split components,
    split complement components, delete any comparable vertex, detach any
    clique hanging off a single vertex.  Removal order does not affect the
    answer, so the first applicable move is always taken.
    """
    if g.n > 10:
        raise SizeBudgetError(f"exhaustive membership capped at n = 10, got {g.n}", bound=10)
    adj = [set(g.neighbours(v)) for v in range(g.n)]
    memo: dict[frozenset[int], bool] = {}

    def split(verts: frozenset[int], complement: bool) -> list[frozenset[int]]:
        left = set(verts)
        parts = []
        while left:
            seed = min(left)
            comp = {seed}
            stack = [seed]
            while stack:
                x = stack.pop()
                reach = (verts - adj[x] - {x}) if complement else (adj[x] & verts)
                for y in reach:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            left -= comp
            parts.append(frozenset(comp))
        return parts

    def solve(verts: frozenset[int]) -> bool:
        if len(verts) == 1:
            return True
        cached = memo.get(verts)
        if cached is not None:
            return cached
        result = _solve(verts)
        memo[verts] = result
        return result

    def _solve(verts: frozenset[int]) -> bool:
        parts = split(verts, complement=False)
        if len(parts) > 1:
            return all(solve(p) for p in parts)
        parts = split(verts, complement=True)
        if len(parts) > 1:
            return all(solve(p) for p in parts)
        for u in sorted(verts):
            nu = adj[u] & verts
            for v in sorted(verts):
                if v != u and v not in adj[u] and nu <= adj[v]:
                    return solve(verts - {u})
        for z in sorted(verts):
            for comp in split(verts - {z}, complement=False):
                if all(comp - {q} <= adj[q] and z in adj[q] for q in comp):
                    return solve(verts - comp)
        return False

    return solve(frozenset(range(g.n)))


def random_colouring(g: Graph, S: Palette, seed: int) -> Colouring:
    """A seeded random proper colouring, found by backtracking.

    Each vertex tries the palette in its own shuffled order, so different
    seeds reach different corners of the colouring space.
    """
    rng = random.Random(f"colouring-{seed}")
    colours = list(S.colours)
    orders = [rng.sample(colours, len(colours)) for _ in range(g.n)]
    assign = [0] * g.n
    tried = [0] * g.n  # how many of orders[i] vertex i has been through
    i = 0
    while 0 <= i < g.n:
        order = orders[i]
        j = tried[i]
        while j < len(order) and any(assign[w] == order[j] for w in g.neighbours(i) if w < i):
            j += 1
        if j == len(order):  # no colour left for i: back up to i - 1
            tried[i] = 0
            i -= 1
        else:
            assign[i] = order[j]
            tried[i] = j + 1
            i += 1
    if i < 0:
        raise ColouringError(f"graph has no proper colouring over {len(S)} colours")
    return Colouring(tuple(assign), S)

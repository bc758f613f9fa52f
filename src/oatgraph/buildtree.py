"""Build-tree certificates.

A build tree records how a graph was assembled from single vertices by four
operations: disjoint union, join, adding a vertex comparable to an existing
one, and attaching a clique at an anchor.  The tree is a certificate: replay
reconstructs the graph, chi_omega reads off the chromatic and clique numbers,
and canonical_colouring produces the reference colouring every recolouring
path is routed through.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from .colouring import Colouring, Palette
from .errors import MalformedTreeError, PaletteError
from .graph import Graph


@dataclass(frozen=True)
class Leaf:
    v: int
    verts: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "v", operator.index(self.v))
        if self.v < 0:
            raise MalformedTreeError(f"leaf vertex must be non-negative, got {self.v}")
        object.__setattr__(self, "verts", frozenset((self.v,)))


@dataclass(frozen=True)
class Union:
    left: BuildTree
    right: BuildTree
    verts: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        overlap = self.left.verts & self.right.verts
        if overlap:
            raise MalformedTreeError(f"union children share vertices {sorted(overlap)}")
        object.__setattr__(self, "verts", self.left.verts | self.right.verts)


@dataclass(frozen=True)
class Join:
    left: BuildTree
    right: BuildTree
    verts: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        overlap = self.left.verts & self.right.verts
        if overlap:
            raise MalformedTreeError(f"join children share vertices {sorted(overlap)}")
        object.__setattr__(self, "verts", self.left.verts | self.right.verts)


@dataclass(frozen=True)
class Comparable:
    """Add vertex u, non-adjacent to anchor v, with neighbours X ⊆ N(v)."""

    child: BuildTree
    u: int
    v: int
    X: tuple[int, ...]
    verts: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "u", operator.index(self.u))
        object.__setattr__(self, "v", operator.index(self.v))
        X = tuple(map(operator.index, self.X))
        if len(set(X)) != len(X):
            raise MalformedTreeError(f"comparable node ({self.u}, {self.v}): X has duplicates {X}")
        X = tuple(sorted(X))
        object.__setattr__(self, "X", X)
        if self.u < 0:
            raise MalformedTreeError(f"comparable vertex must be non-negative, got {self.u}")
        cverts = self.child.verts
        if self.u in cverts:
            raise MalformedTreeError(f"comparable node: new vertex {self.u} already in child")
        if self.v not in cverts:
            raise MalformedTreeError(f"comparable node: anchor {self.v} not in child")
        if self.v in X:
            raise MalformedTreeError(
                f"comparable node ({self.u}, {self.v}): anchor cannot appear in X"
            )
        stray = set(X) - cverts
        if stray:
            raise MalformedTreeError(
                f"comparable node ({self.u}, {self.v}): X reaches outside child: {sorted(stray)}"
            )
        object.__setattr__(self, "verts", cverts | {self.u})


@dataclass(frozen=True)
class CliqueAttach:
    """Attach clique Q (in stored order) with every edge to anchor z."""

    child: BuildTree
    z: int
    Q: tuple[int, ...]
    verts: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "z", operator.index(self.z))
        Q = tuple(map(operator.index, self.Q))
        object.__setattr__(self, "Q", Q)
        if not Q:
            raise MalformedTreeError("clique node: Q must be non-empty")
        if len(set(Q)) != len(Q):
            raise MalformedTreeError(f"clique node at {self.z}: Q has duplicates {Q}")
        if min(Q) < 0:
            raise MalformedTreeError(f"clique node at {self.z}: negative vertex in {Q}")
        cverts = self.child.verts
        if self.z not in cverts:
            raise MalformedTreeError(f"clique node: anchor {self.z} not in child")
        overlap = set(Q) & cverts
        if overlap:
            raise MalformedTreeError(
                f"clique node at {self.z}: Q overlaps child vertices {sorted(overlap)}"
            )
        object.__setattr__(self, "verts", cverts | set(Q))


BuildTree = Leaf | Union | Join | Comparable | CliqueAttach


def walk_postorder(t: BuildTree) -> Iterator[BuildTree]:
    """Yield every node, children before parents."""
    stack: list[tuple[BuildTree, bool]] = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        stack.append((node, True))
        if isinstance(node, (Union, Join)):
            stack.append((node.right, False))
            stack.append((node.left, False))
        elif isinstance(node, (Comparable, CliqueAttach)):
            stack.append((node.child, False))


def chi_omega_map(t: BuildTree) -> dict[int, tuple[int, int]]:
    """(chromatic number, clique number) for every node, keyed by id(node)."""
    out: dict[int, tuple[int, int]] = {}
    for node in walk_postorder(t):
        if isinstance(node, Leaf):
            val = (1, 1)
        elif isinstance(node, Union):
            l, r = out[id(node.left)], out[id(node.right)]
            val = (max(l[0], r[0]), max(l[1], r[1]))
        elif isinstance(node, Join):
            l, r = out[id(node.left)], out[id(node.right)]
            val = (l[0] + r[0], l[1] + r[1])
        elif isinstance(node, Comparable):
            val = out[id(node.child)]
        else:
            c = out[id(node.child)]
            k = len(node.Q) + 1
            val = (max(c[0], k), max(c[1], k))
        out[id(node)] = val
    return out


def chi_omega(t: BuildTree) -> tuple[int, int]:
    """Chromatic and clique number of the built graph; these always agree."""
    return chi_omega_map(t)[id(t)]


def replay(t: BuildTree) -> Graph:
    """Materialise the graph the tree describes.

    Vertex labels must come out as 0..n-1 and every comparable node's X must
    sit inside the anchor's neighbourhood at the time the node applies; both
    are checked here because they depend on the replayed edges, not just the
    tree's shape.
    """
    adjsets: dict[int, set[int]] = {}
    for node in walk_postorder(t):
        if isinstance(node, Leaf):
            adjsets[node.v] = set()
        elif isinstance(node, Union):
            pass
        elif isinstance(node, Join):
            left, right = node.left.verts, node.right.verts
            for a in left:
                adjsets[a] |= right
            for b in right:
                adjsets[b] |= left
        elif isinstance(node, Comparable):
            missing = set(node.X) - adjsets[node.v]
            if missing:
                raise MalformedTreeError(
                    f"comparable node ({node.u}, {node.v}): X must lie in the anchor's"
                    f" neighbourhood, missing {sorted(missing)}"
                )
            adjsets[node.u] = set(node.X)
            for x in node.X:
                adjsets[x].add(node.u)
        else:
            clique = {node.z, *node.Q}
            for q in node.Q:
                adjsets[q] = clique - {q}
            adjsets[node.z].update(node.Q)
    n = len(adjsets)
    if set(adjsets) != set(range(n)):
        raise MalformedTreeError(f"tree vertices {sorted(adjsets)} are not 0..{n - 1}")
    rows = np.repeat(np.arange(n), [len(adjsets[v]) for v in range(n)])
    cols = np.fromiter(itertools.chain.from_iterable(adjsets[v] for v in range(n)), np.intp)
    adj = np.zeros((n, n), dtype=bool)
    adj[rows, cols] = True
    return Graph.from_adjacency(adj)


def validate(t: BuildTree, g: Graph) -> bool:
    """True iff replaying the tree reproduces g exactly."""
    try:
        built = replay(t)
    except MalformedTreeError:
        return False
    return built == g


def canonical_assignment(t: BuildTree, colours: Sequence[int]) -> dict[int, int]:
    """The canonical colouring as a vertex → colour map.

    Each node uses the first chi(node) colours of the palette handed to it:
    union children take prefixes, join children split the palette, a
    comparable vertex copies its anchor, and an attached clique takes the
    first |Q| colours that remain after removing the anchor's colour.
    """
    chiom = chi_omega_map(t)
    out: dict[int, int] = {}
    work: list[tuple[str, BuildTree, tuple[int, ...]]] = [("colour", t, tuple(colours))]
    while work:
        kind, node, c = work.pop()
        if kind == "echo":
            out[node.u] = out[node.v]
            continue
        if kind == "fill":
            cstar = out[node.z]
            avail = [x for x in c if x != cstar]
            for q, col in zip(node.Q, avail):
                out[q] = col
            continue
        chi = chiom[id(node)][0]
        if len(c) < chi:
            raise PaletteError(f"need at least {chi} colours at this node, got {len(c)}")
        c = c[:chi]
        if isinstance(node, Leaf):
            out[node.v] = c[0]
        elif isinstance(node, Union):
            work.append(("colour", node.right, c[: chiom[id(node.right)][0]]))
            work.append(("colour", node.left, c[: chiom[id(node.left)][0]]))
        elif isinstance(node, Join):
            split = chiom[id(node.left)][0]
            work.append(("colour", node.right, c[split:]))
            work.append(("colour", node.left, c[:split]))
        elif isinstance(node, Comparable):
            work.append(("echo", node, ()))
            work.append(("colour", node.child, c))
        else:
            work.append(("fill", node, c))
            work.append(("colour", node.child, c[: chiom[id(node.child)][0]]))
    return out


def canonical_colouring(t: BuildTree, colours: Palette | Sequence[int]) -> Colouring:
    """The canonical colouring over an ordered palette of exactly chi colours."""
    pal = colours if isinstance(colours, Palette) else Palette(tuple(colours))
    chi, _ = chi_omega(t)
    if len(pal) != chi:
        raise PaletteError(f"canonical colouring needs exactly {chi} colours, got {len(pal)}")
    n = len(t.verts)
    if t.verts != frozenset(range(n)):
        raise MalformedTreeError(f"tree vertices {sorted(t.verts)} are not 0..{n - 1}")
    assign = canonical_assignment(t, pal.colours)
    return Colouring(tuple(assign[v] for v in range(n)), pal)


def tree_to_json(t: BuildTree) -> dict[str, Any]:
    built: dict[int, dict[str, Any]] = {}
    for node in walk_postorder(t):
        if isinstance(node, Leaf):
            obj: dict[str, Any] = {"op": "leaf", "v": node.v}
        elif isinstance(node, Union):
            obj = {"op": "union", "left": built[id(node.left)], "right": built[id(node.right)]}
        elif isinstance(node, Join):
            obj = {"op": "join", "left": built[id(node.left)], "right": built[id(node.right)]}
        elif isinstance(node, Comparable):
            obj = {
                "op": "comparable",
                "child": built[id(node.child)],
                "u": node.u,
                "v": node.v,
                "X": list(node.X),
            }
        else:
            obj = {"op": "clique", "child": built[id(node.child)], "z": node.z, "Q": list(node.Q)}
        built[id(node)] = obj
    return built[id(t)]


_NODE_FIELDS = {
    "leaf": {"op", "v"},
    "union": {"op", "left", "right"},
    "join": {"op", "left", "right"},
    "comparable": {"op", "child", "u", "v", "X"},
    "clique": {"op", "child", "z", "Q"},
}


def _json_int(d: dict[str, Any], key: str, op: str) -> int:
    val = d[key]
    if not isinstance(val, int) or isinstance(val, bool):
        raise MalformedTreeError(f"{op} node field {key!r} must be an integer, got {val!r}")
    return val


def _json_int_list(d: dict[str, Any], key: str, op: str) -> tuple[int, ...]:
    val = d[key]
    if not isinstance(val, list) or any(not isinstance(x, int) or isinstance(x, bool) for x in val):
        raise MalformedTreeError(f"{op} node field {key!r} must be a list of integers, got {val!r}")
    return tuple(val)


def tree_from_json(obj: Any) -> BuildTree:
    done: list[BuildTree] = []
    work: list[tuple[Any, bool]] = [(obj, False)]
    while work:
        d, expanded = work.pop()
        if not expanded:
            if not isinstance(d, dict):
                raise MalformedTreeError(f"tree node must be an object, got {type(d).__name__}")
            op = d.get("op")
            if op not in _NODE_FIELDS:
                raise MalformedTreeError(f"unknown tree op {op!r}")
            fields = _NODE_FIELDS[op]
            missing = fields - set(d)
            if missing:
                raise MalformedTreeError(f"{op} node missing fields {sorted(missing)}")
            extra = set(d) - fields
            if extra:
                raise MalformedTreeError(f"{op} node has unexpected fields {sorted(extra)}")
            work.append((d, True))
            if op in ("union", "join"):
                work.append((d["right"], False))
                work.append((d["left"], False))
            elif op in ("comparable", "clique"):
                work.append((d["child"], False))
            continue
        op = d["op"]
        if op == "leaf":
            done.append(Leaf(_json_int(d, "v", op)))
        elif op in ("union", "join"):
            right = done.pop()
            left = done.pop()
            done.append((Union if op == "union" else Join)(left, right))
        elif op == "comparable":
            child = done.pop()
            done.append(
                Comparable(
                    child,
                    _json_int(d, "u", op),
                    _json_int(d, "v", op),
                    _json_int_list(d, "X", op),
                )
            )
        else:
            child = done.pop()
            done.append(CliqueAttach(child, _json_int(d, "z", op), _json_int_list(d, "Q", op)))
    return done[0]

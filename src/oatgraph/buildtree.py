"""Build-tree certificates.

A build tree records how a graph was assembled from single vertices by four
operations: disjoint union, join, adding a vertex comparable to an existing
one, and attaching a clique at an anchor.  The tree is a certificate: replay
reconstructs the graph, chi_omega reads off the chromatic and clique numbers,
and canonical_colouring produces the reference colouring every recolouring
path is routed through.

Each node carries its chromatic number chi and its vertex set as an int
bitmask verts, both computed once when it is made.  Listing the vertices in
the order the operations add them, children before parents, makes every
subtree's vertices one contiguous run of that build order, which is how
replay and the recolouring walk find a join's two sides.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from ._util import iter_bits
from .colouring import Colouring, Palette
from .errors import MalformedTreeError, PaletteError
from .graph import Graph, _check_dense_budget


def _has(verts: int, v: int) -> bool:
    return v >= 0 and verts >> v & 1 == 1


@dataclass(frozen=True, eq=False)
class _Node:
    """What every node computes once when it is made: its vertex set as an
    int bitmask (bit v set means vertex v) and its chromatic number.

    Equality and hashing do not recurse, so deep trees compare too: two
    trees are equal when their postorders agree node by node on type and on
    each node's own fields.
    """

    verts: int = field(init=False, repr=False)
    chi: int = field(init=False, repr=False)
    _own = ()

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        for a, b in itertools.zip_longest(walk_postorder(self), walk_postorder(other)):
            if type(a) is not type(b) or any(getattr(a, f) != getattr(b, f) for f in a._own):
                return False
        return True

    def __hash__(self):
        return hash((type(self), self.verts, self.chi))


@dataclass(frozen=True, eq=False)
class Leaf(_Node):
    v: int
    _own = ("v",)

    def __post_init__(self):
        object.__setattr__(self, "v", operator.index(self.v))
        if self.v < 0:
            raise MalformedTreeError(f"leaf vertex must be non-negative, got {self.v}")
        _check_dense_budget(self.v + 1)  # before 1 << v
        object.__setattr__(self, "verts", 1 << self.v)
        object.__setattr__(self, "chi", 1)


@dataclass(frozen=True, eq=False)
class Union(_Node):
    left: BuildTree
    right: BuildTree

    def __post_init__(self):
        overlap = self.left.verts & self.right.verts
        if overlap:
            raise MalformedTreeError(f"union children share vertices {list(iter_bits(overlap))}")
        object.__setattr__(self, "verts", self.left.verts | self.right.verts)
        object.__setattr__(self, "chi", max(self.left.chi, self.right.chi))


@dataclass(frozen=True, eq=False)
class Join(_Node):
    left: BuildTree
    right: BuildTree

    def __post_init__(self):
        overlap = self.left.verts & self.right.verts
        if overlap:
            raise MalformedTreeError(f"join children share vertices {list(iter_bits(overlap))}")
        object.__setattr__(self, "verts", self.left.verts | self.right.verts)
        object.__setattr__(self, "chi", self.left.chi + self.right.chi)


@dataclass(frozen=True, eq=False)
class Comparable(_Node):
    """Add vertex u, non-adjacent to anchor v, with neighbours X ⊆ N(v)."""

    child: BuildTree
    u: int
    v: int
    X: tuple[int, ...]
    _own = ("u", "v", "X")

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
        if _has(cverts, self.u):
            raise MalformedTreeError(f"comparable node: new vertex {self.u} already in child")
        if not _has(cverts, self.v):
            raise MalformedTreeError(f"comparable node: anchor {self.v} not in child")
        if self.v in X:
            raise MalformedTreeError(
                f"comparable node ({self.u}, {self.v}): anchor cannot appear in X"
            )
        stray = [x for x in X if not _has(cverts, x)]
        if stray:
            raise MalformedTreeError(
                f"comparable node ({self.u}, {self.v}): X reaches outside child: {stray}"
            )
        _check_dense_budget(self.u + 1)
        object.__setattr__(self, "verts", cverts | 1 << self.u)
        object.__setattr__(self, "chi", self.child.chi)


@dataclass(frozen=True, eq=False)
class CliqueAttach(_Node):
    """Attach clique Q (in stored order) with every edge to anchor z."""

    child: BuildTree
    z: int
    Q: tuple[int, ...]
    _own = ("z", "Q")

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
        if not _has(cverts, self.z):
            raise MalformedTreeError(f"clique node: anchor {self.z} not in child")
        _check_dense_budget(max(Q) + 1)
        qverts = sum(1 << q for q in Q)
        if qverts & cverts:
            raise MalformedTreeError(
                f"clique node at {self.z}: Q overlaps child vertices"
                f" {list(iter_bits(qverts & cverts))}"
            )
        object.__setattr__(self, "verts", cverts | qverts)
        object.__setattr__(self, "chi", max(self.child.chi, len(Q) + 1))


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


def _build_order(t: BuildTree) -> list[int]:
    """Every vertex in the order the tree adds it, children before parents:
    a subtree's vertices are one slice, a union's or join's left side first."""
    order: list[int] = []
    for node in walk_postorder(t):
        if isinstance(node, Leaf):
            order.append(node.v)
        elif isinstance(node, Comparable):
            order.append(node.u)
        elif isinstance(node, CliqueAttach):
            order.extend(node.Q)
    return order


def chi_omega(t: BuildTree) -> tuple[int, int]:
    """Chromatic and clique number of the built graph; these always agree."""
    return t.chi, t.chi


def replay(t: BuildTree) -> Graph:
    """Materialise the graph the tree describes.

    Vertex labels must come out as 0..n-1 and every comparable node's X must
    sit inside the anchor's neighbourhood at the time the node applies; both
    are checked here because they depend on the replayed edges, not just the
    tree's shape.
    """
    nbrs: dict[int, int] = {}  # each vertex's neighbours as a bitmask, in build order
    for node in walk_postorder(t):
        if isinstance(node, Leaf):
            nbrs[node.v] = 0
        elif isinstance(node, Union):
            pass
        elif isinstance(node, Join):
            # nbrs ends with the join's right side, and before that its left
            newest = reversed(nbrs)
            for b in itertools.islice(newest, node.right.verts.bit_count()):
                nbrs[b] |= node.left.verts
            for a in itertools.islice(newest, node.left.verts.bit_count()):
                nbrs[a] |= node.right.verts
        elif isinstance(node, Comparable):
            missing = [x for x in node.X if not nbrs[node.v] >> x & 1]
            if missing:
                raise MalformedTreeError(
                    f"comparable node ({node.u}, {node.v}): X must lie in the anchor's"
                    f" neighbourhood, missing {missing}"
                )
            u_bit, x_bits = 1 << node.u, 0
            for x in node.X:
                x_bits |= 1 << x
                nbrs[x] |= u_bit
            nbrs[node.u] = x_bits
        else:
            clique = (node.verts & ~node.child.verts) | 1 << node.z  # Q and z
            for q in node.Q:
                nbrs[q] = clique & ~(1 << q)
            nbrs[node.z] |= clique & ~(1 << node.z)
    n = len(nbrs)
    if t.verts != (1 << n) - 1:
        raise MalformedTreeError(f"tree vertices {sorted(nbrs)} are not 0..{n - 1}")
    width = (n + 7) // 8
    rows = np.frombuffer(b"".join(nbrs[v].to_bytes(width, "little") for v in range(n)), np.uint8)
    adj = np.unpackbits(rows.reshape(n, width), axis=1, count=n, bitorder="little").astype(bool)
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
        if len(c) < node.chi:
            raise PaletteError(f"need at least {node.chi} colours at this node, got {len(c)}")
        c = c[: node.chi]
        if isinstance(node, Leaf):
            out[node.v] = c[0]
        elif isinstance(node, Union):
            work.append(("colour", node.right, c[: node.right.chi]))
            work.append(("colour", node.left, c[: node.left.chi]))
        elif isinstance(node, Join):
            work.append(("colour", node.right, c[node.left.chi :]))
            work.append(("colour", node.left, c[: node.left.chi]))
        elif isinstance(node, Comparable):
            work.append(("echo", node, ()))
            work.append(("colour", node.child, c))
        else:
            work.append(("fill", node, c))
            work.append(("colour", node.child, c[: node.child.chi]))
    return out


def canonical_colouring(t: BuildTree, colours: Palette | Sequence[int]) -> Colouring:
    """The canonical colouring over an ordered palette of exactly chi colours."""
    pal = colours if isinstance(colours, Palette) else Palette(tuple(colours))
    if len(pal) != t.chi:
        raise PaletteError(f"canonical colouring needs exactly {t.chi} colours, got {len(pal)}")
    n = t.verts.bit_count()
    if t.verts != (1 << n) - 1:
        raise MalformedTreeError(f"tree vertices {list(iter_bits(t.verts))} are not 0..{n - 1}")
    assign = canonical_assignment(t, pal.colours)
    return Colouring(tuple(assign[v] for v in range(n)), pal)


def tree_to_json(t: BuildTree) -> dict[str, Any]:
    built: list[dict[str, Any]] = []  # finished subtrees, the latest last
    for node in walk_postorder(t):
        if isinstance(node, Leaf):
            obj: dict[str, Any] = {"op": "leaf", "v": node.v}
        elif isinstance(node, Union):
            right, left = built.pop(), built.pop()
            obj = {"op": "union", "left": left, "right": right}
        elif isinstance(node, Join):
            right, left = built.pop(), built.pop()
            obj = {"op": "join", "left": left, "right": right}
        elif isinstance(node, Comparable):
            obj = {
                "op": "comparable",
                "child": built.pop(),
                "u": node.u,
                "v": node.v,
                "X": list(node.X),
            }
        else:
            obj = {"op": "clique", "child": built.pop(), "z": node.z, "Q": list(node.Q)}
        built.append(obj)
    return built.pop()


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

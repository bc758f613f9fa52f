"""Build-tree certificates.

A build tree records how a graph was assembled from single vertices by four
operations: disjoint union, join, adding a vertex comparable to an existing
one, and attaching a clique at an anchor.  The tree is a certificate: replay
reconstructs the graph, chi_omega reads off the chromatic and clique numbers,
and canonical_colouring produces the reference colouring every recolouring
path is routed through.

Each operation is declared once, on its node class: its JSON name and its
child and label fields, their only declaration.  A tree's flat form, its
postorder of (node class, *labels) entries, makes the trees of recognize and
tree_from_json and carries equality and pickle; nothing here recurses.  One
pre-order writer over the same fields writes a tree's repr and its JSON text.
Nodes are immutable, so a copy of a tree is the tree itself.  Each node
holds its chromatic number chi and its vertex bitmask verts.

Each node class holds its edge rule, _apply, beside its label rule: one
update of the vertices' neighbour bitmasks, which replay and random_oat
call node by node.  Those bitmasks are kept in the order the operations
add the vertices, children before parents, so every subtree's vertices are
one contiguous run of that build order: a join finds its two sides as the
newest runs, and replay hands the bitmasks to the graph it returns and the
order to the recolouring walk.  A tree is replayed once: its first
successful replay keeps those bitmasks and that order on the root, where
replay, validate, find_path and to_canonical read them back.  The kept
replay is no field, so equality, hashing, repr and pickle never see it.
"""

from __future__ import annotations

import itertools
import json
import operator
from typing import Any, Callable, Iterable, Iterator, Sequence

from ._util import Frozen, is_int, iter_bits
from .colouring import Colouring, Palette
from .errors import MalformedTreeError, PaletteError
from .graph import Graph, _check_dense_budget


class _Node(Frozen):
    """What every node computes once when it is made: its vertex set as an
    int bitmask (bit v set means vertex v) and its chromatic number.

    Each subclass declares its operation, its fields' only declaration: _op,
    its name in the tree JSON; _kids, its child fields; _own, its label
    fields, each with its JSON type (int, or list or sorted for a list of
    ints kept in order or sorted).  The constructor binds those names by
    position or name, and the subclass's _rule checks the labels and returns
    verts and chi, and its _apply adds its edges.  Construction in recognize
    and tree_from_json, equality and pickling read postorder entries and
    never recurse.
    """

    _kids = ()
    _own = {}

    def __init__(self, *args: Any, **kwargs: Any):
        names = (*self._kids, *self._own)
        if kwargs or len(args) != len(names):
            fields = dict(zip(names, args), **kwargs)
            if not len(args) + len(kwargs) == len(fields) == len(names) or kwargs.keys() - names:
                raise TypeError(f"{type(self).__name__}() takes each of the fields {names} once")
            args = [fields[f] for f in names]
        set_field = object.__setattr__  # field by field, as a dataclass: nodes stay compact
        for f, val in zip(names, args):
            kind = self._own.get(f)  # None for a child
            if kind is int:
                val = operator.index(val)
            elif kind:
                val = tuple(kind(map(operator.index, val)))
            set_field(self, f, val)
        verts, chi = self._rule()
        set_field(self, "verts", verts)
        set_field(self, "chi", chi)

    def _apply(self, nbrs: dict[int, int]) -> None:
        """Add this node's edges to nbrs, the bitmasks so far in build order; a union adds none."""

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return all(a == b for a, b in itertools.zip_longest(_postorder(self), _postorder(other)))

    def __hash__(self):
        return hash((type(self), self.verts, self.chi))

    def __reduce__(self):
        return _fold, (list(_postorder(self)),)

    def __copy__(self):
        return self  # immutable, as a tuple is

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        # The constructor call by name, e.g. Comparable(child=Leaf(v=0), u=1, v=0, X=())
        return _text(self, "{0.__class__.__name__}(", "{}=", repr, ")")


def _added(op: str, child: int, *labels: int) -> int:
    """The bitmask of the labels a node adds to a child whose vertex bitmask
    is child.  Each label must be non-negative, within the dense budget, and
    new: not repeated and not in the child."""
    bits = 0
    for x in labels:
        if x < 0:
            raise MalformedTreeError(f"{op} node: new vertex {x} is negative")
        _check_dense_budget(x + 1)  # before 1 << x
        bit = 1 << x
        if bit & bits:
            raise MalformedTreeError(f"{op} node: new vertex {x} is repeated")
        if bit & child:
            raise MalformedTreeError(f"{op} node: new vertex {x} already in child")
        bits |= bit
    return bits


def _anchor(op: str, child: int, a: int) -> None:
    """Refuse anchor a unless it is a vertex of the child bitmask."""
    if a < 0 or not child >> a & 1:
        raise MalformedTreeError(f"{op} node: anchor {a} not in child")


class Leaf(_Node):
    _op = "leaf"
    _own = {"v": int}

    def _rule(self):
        return _added(self._op, 0, self.v), 1

    def _apply(self, nbrs):
        nbrs[self.v] = 0


class _Binary(_Node):
    """Two vertex-disjoint children; a subclass names its _op and _chi rule."""

    _kids = ("left", "right")

    def _rule(self):
        overlap = self.left.verts & self.right.verts
        if overlap:
            raise MalformedTreeError(
                f"{self._op} children share vertices {list(iter_bits(overlap))}"
            )
        return self.left.verts | self.right.verts, self._chi(self.left.chi, self.right.chi)


class Union(_Binary):
    _op = "union"
    _chi = max


class Join(_Binary):
    _op = "join"
    _chi = operator.add

    def _apply(self, nbrs):
        # nbrs ends with the right side, and before that the left
        newest = reversed(nbrs)
        for b in itertools.islice(newest, self.right.verts.bit_count()):
            nbrs[b] |= self.left.verts
        for a in itertools.islice(newest, self.left.verts.bit_count()):
            nbrs[a] |= self.right.verts


class Comparable(_Node):
    """Add vertex u, non-adjacent to anchor v, with neighbours X ⊆ N(v)."""

    _op = "comparable"
    _kids = ("child",)
    _own = {"u": int, "v": int, "X": sorted}

    def _rule(self):
        cverts, u, v, X = self.child.verts, self.u, self.v, self.X
        bit = _added(self._op, cverts, u)
        _anchor(self._op, cverts, v)
        if v in X:
            raise MalformedTreeError(f"comparable node ({u}, {v}): anchor cannot appear in X")
        if len(set(X)) != len(X):
            raise MalformedTreeError(f"comparable node ({u}, {v}): X has duplicates {X}")
        stray = [x for x in X if x < 0 or not cverts >> x & 1]
        if stray:
            raise MalformedTreeError(
                f"comparable node ({u}, {v}): X reaches outside child: {stray}"
            )
        return cverts | bit, self.child.chi

    def _apply(self, nbrs):
        u_bit, x_bits = 1 << self.u, 0
        for x in self.X:
            x_bits |= 1 << x
            nbrs[x] |= u_bit
        missing = x_bits & ~nbrs[self.v]  # a failed replay's nbrs is dropped
        if missing:
            raise MalformedTreeError(
                f"comparable node ({self.u}, {self.v}): X must lie in the anchor's"
                f" neighbourhood, missing {list(iter_bits(missing))}"
            )
        nbrs[self.u] = x_bits


class CliqueAttach(_Node):
    """Attach clique Q (in stored order) with every edge to anchor z."""

    _op = "clique"
    _kids = ("child",)
    _own = {"z": int, "Q": list}

    def _rule(self):
        if not self.Q:
            raise MalformedTreeError("clique node: Q must be non-empty")
        cverts = self.child.verts
        qverts = _added(self._op, cverts, *self.Q)
        _anchor(self._op, cverts, self.z)
        return cverts | qverts, max(self.child.chi, len(self.Q) + 1)

    def _apply(self, nbrs):
        clique = (self.verts & ~self.child.verts) | 1 << self.z  # Q and z
        for q in self.Q:
            nbrs[q] = clique & ~(1 << q)
        nbrs[self.z] |= clique & ~(1 << self.z)


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
        for f in reversed(node._kids):
            stack.append((getattr(node, f), False))


def _text(t: BuildTree, head: str, key: str, label: Callable[[Any], str], close: str) -> str:
    """t's text, node by node in pre-order from a stack of pending text and
    nodes: head.format(node), then its fields, children first, joined by
    ", ", each as key.format(name) and the child's text or label(value),
    then close."""
    out: list[str] = []
    todo: list[Any] = [t]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        parts = [head.format(item)]
        for i, f in enumerate((*item._kids, *item._own)):
            val = getattr(item, f)
            parts += [(", " if i else "") + key.format(f), val if f in item._kids else label(val)]
        parts.append(close)
        todo.extend(reversed(parts))
    return "".join(out)


def _postorder(t: BuildTree) -> Iterator[tuple]:
    """t's flat form: per node, children first, its class and own labels."""
    for node in walk_postorder(t):
        yield (type(node), *(getattr(node, f) for f in node._own))


def _fold(entries: Iterable[tuple]) -> BuildTree:
    """The tree whose flat form is entries: each node takes the len(_kids) newest trees."""
    done: list[BuildTree] = []
    for cls, *own in entries:
        first = len(done) - len(cls._kids)
        done[first:] = [cls(*done[first:], *own)]
    (tree,) = done
    return tree


def chi_omega(t: BuildTree) -> tuple[int, int]:
    """Chromatic and clique number of the built graph; these always agree."""
    return t.chi, t.chi


def _vertex_count(t: BuildTree) -> int:
    """t's vertex count n; its vertices must be 0..n-1."""
    n = t.verts.bit_count()
    if t.verts != (1 << n) - 1:
        raise MalformedTreeError(f"tree vertices {list(iter_bits(t.verts))} are not 0..{n - 1}")
    return n


def _replay(t: BuildTree) -> tuple[Graph, tuple[int, ...]]:
    """replay's graph, and every vertex in the order the tree adds it: a
    subtree's vertices are one slice, a union's or join's left side first.

    The first replay of t that succeeds is kept on t, its bitmasks and build
    order, so each later call reads it back; each call's graph holds its own
    copy of the mask list.  A tree that fails to replay keeps nothing.  The
    replay depends on t alone, so calls that race keep equal replays."""
    kept = t.__dict__.get("_replayed")
    if kept is None:
        nbrs: dict[int, int] = {}
        for node in walk_postorder(t):
            node._apply(nbrs)
        n = _vertex_count(t)
        kept = t.__dict__["_replayed"] = ([nbrs[v] for v in range(n)], tuple(nbrs))
    masks, order = kept
    # each _apply sets both ends of an edge and never a vertex's own bit: masks fit _from_masks
    return Graph._from_masks(list(masks)), order


def replay(t: BuildTree) -> Graph:
    """Materialise the graph the tree describes.

    Vertex labels must come out as 0..n-1 and every comparable node's X must
    sit inside the anchor's neighbourhood at the time the node applies; both
    are checked here because they depend on the replayed edges, not just the
    tree's shape.
    """
    return _replay(t)[0]


def validate(t: BuildTree, g: Graph) -> bool:
    """True iff replaying the tree reproduces g exactly."""
    try:
        built = replay(t)
    except MalformedTreeError:
        return False
    return built == g


def canonical_colouring(t: BuildTree, colours: Palette | Sequence[int]) -> Colouring:
    """The canonical colouring over an ordered palette of exactly chi colours.

    Each node colours with the first chi(node) colours handed down to it:
    union children share the palette, join children split it, a
    comparable vertex copies its anchor, and an attached clique takes the
    first |Q| colours that remain after removing the anchor's colour.
    """
    pal = colours if isinstance(colours, Palette) else Palette(tuple(colours))
    if len(pal) != t.chi:
        raise PaletteError(f"canonical colouring needs exactly {t.chi} colours, got {len(pal)}")
    n = _vertex_count(t)
    out = [0] * n
    work: list[tuple[str, BuildTree, tuple[int, ...]]] = [("colour", t, pal.colours)]
    while work:
        kind, node, c = work.pop()
        if kind == "echo":
            out[node.u] = out[node.v]
        elif kind == "fill":
            cstar = out[node.z]
            avail = (x for x in c if x != cstar)
            for q, col in zip(node.Q, avail):
                out[q] = col
        elif isinstance(node, Leaf):
            out[node.v] = c[0]
        elif isinstance(node, Union):
            work.append(("colour", node.right, c))
            work.append(("colour", node.left, c))
        elif isinstance(node, Join):
            work.append(("colour", node.right, c[node.left.chi :]))
            work.append(("colour", node.left, c))
        elif isinstance(node, Comparable):
            work.append(("echo", node, ()))
            work.append(("colour", node.child, c))
        else:
            work.append(("fill", node, c))
            work.append(("colour", node.child, c))
    return Colouring(tuple(out), pal)


def tree_to_json(t: BuildTree) -> dict[str, Any]:
    built: list[dict[str, Any]] = []  # finished subtrees, the latest last
    for node in walk_postorder(t):
        obj: dict[str, Any] = {"op": node._op}
        for f in node._kids:
            obj[f] = None  # the children come off built last first; keep their key order
        for f in reversed(node._kids):
            obj[f] = built.pop()
        for f, kind in node._own.items():
            val = getattr(node, f)
            obj[f] = val if kind is int else list(val)
        built.append(obj)
    return built.pop()


def _tree_text(t: BuildTree) -> str:
    """json.dumps(tree_to_json(t)), byte for byte, written from the nodes at
    any depth, with no dict made per node."""
    return _text(t, '{{"op": "{0._op}", ', '"{}": ', json.dumps, "}")


# Each JSON op name, with its node class and the fields its object holds.
_OPS = {
    cls._op: (cls, frozenset({"op", *cls._kids, *cls._own}))
    for cls in (Leaf, Union, Join, Comparable, CliqueAttach)
}


def _json_postorder(obj: Any) -> Iterator[tuple]:
    """A tree JSON object's flat form, each node checked as the walk reaches it."""
    work: list[tuple[Any, Any]] = [(obj, None)]  # an object, and its class once expanded
    while work:
        d, cls = work.pop()
        if cls is None:
            if not isinstance(d, dict):
                raise MalformedTreeError(f"tree node must be an object, got {type(d).__name__}")
            op = d.get("op")
            if not isinstance(op, str) or op not in _OPS:
                raise MalformedTreeError(f"unknown tree op {op!r}")
            cls, fields = _OPS[op]
            missing = fields - d.keys()
            if missing:
                raise MalformedTreeError(f"{op} node missing fields {sorted(missing)}")
            extra = d.keys() - fields
            if extra:
                raise MalformedTreeError(f"{op} node has unexpected fields {sorted(extra)}")
            work.append((d, cls))
            for f in reversed(cls._kids):
                work.append((d[f], None))
            continue
        for f, kind in cls._own.items():
            x = d[f]
            if not (is_int(x) if kind is int else isinstance(x, list) and all(map(is_int, x))):
                want = "an integer" if kind is int else "a list of integers"
                raise MalformedTreeError(f"{cls._op} node field {f!r} must be {want}, got {x!r}")
        yield (cls, *(d[f] for f in cls._own))


def tree_from_json(obj: Any) -> BuildTree:
    return _fold(_json_postorder(obj))

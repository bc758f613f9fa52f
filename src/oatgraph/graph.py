"""Undirected graphs and the structural scans used throughout.

A graph is its vertex count n and one neighbourhood bitmask per vertex: an
int with bit u set for each neighbour u of v.  Components, pendant cliques,
properness, replay and ``edges`` work on those bitmasks alone; the scans
that want arrays (A@A, ``format_graph`` and the read-only ``Graph.adj``)
unpack them when they run.  Recognition and ``induced`` can work either
way, and one rule, ``_on_masks``, picks the side: the bitmasks for a graph
of mean degree below 8, and, while numpy is not yet imported, for one of
at most 4,096 edges, whose arrays would save less than the import costs;
arrays otherwise.  This module alone converts between bitmasks and arrays
(``_pack``, ``_unpack``, ``_labels``, ``_indicator``, ``_mask``).  numpy
is imported inside the functions that build arrays, when they first run,
so importing this module, or oatgraph, loads none: a command that needs no
array never pays for the import.

``Graph(n, edges)`` and the plain edge-list reader take their edges as a
whole, as two int64 endpoint arrays checked with array operations, so no
Python bytecode runs per edge unless an edge is faulty.  Both hand their
endpoint arrays to one fill (``_fill``): two fancy-index stores into a
boolean matrix, packed into the bitmasks and dropped.  An edge-list text
has two readers.  A text in the writer's form (ASCII lines ``u v`` of
digits and one space, every line ended by ``\\n`` or ``\\r\\n``) is read
by one digit deletion and one ``np.fromstring`` over its bytes, once
numpy is loaded or when the text is long.  Every other text, and every
faulty one, goes through the general reader, one line at a time:
``str.split`` and ``int`` read each line, and each edge end sets its bit
by one big-int OR, with no array at all.  It is the only reader that
words a format error.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

from ._util import iter_bits
from .errors import GraphFormatError, SizeBudgetError

if TYPE_CHECKING:
    import numpy as np

# A graph of n vertices is refused when _DENSE_FOOTPRINT_FACTOR * 9 n^2
# bytes, 36 n^2, exceed physical memory.  Measured under tracemalloc on
# random_oat members of 500 to 2000 vertices, recognition peaks at 8-14 n^2
# bytes: building A@A holds two n x n four-byte matrices (the float32
# adjacency and its product, then the product and its int32 copy), and a
# refresh holds A@A, its stale rows and their gathered columns.  Reading a
# dense member's edge list in the writer's form peaks at 6-10 n^2 bytes:
# the text's bytes, its endpoint values and _fill's n x n boolean matrix.
# At 4 the budget sits well above both peaks; a lower factor would admit
# larger graphs, a change to the budget itself.
_DENSE_FOOTPRINT_FACTOR = 4

# A graph whose mean degree is below this is worked on its bitmasks alone:
# recognition builds no A@A and reads its whole index off the masks, and
# induced builds the subgraph's masks directly.  A mask read costs one
# big-int AND per neighbour, so that side grows with the degree, while A@A
# is one BLAS product up front and one row compare per refresh.
# Recognising relabelled graphs with masks alone, against A@A, on a 2-vCPU
# x86 VM with one BLAS thread (minimum of 5-7 runs), took 0.41-0.75 of the
# time on the benchmark's paths and sparse chains (mean degree 2.0-2.9),
# and 0.61-0.76 on unions of small random_oat members (n = 300) and on
# p4_sparse members of mean degree 3.3-7.8.  From 8 to 25 it took
# 0.54-1.35, depending on the shape, and from 28.5 up 0.95-5.8 (1.27-5.8 on
# the benchmark's random_oat members).  So below 8 the masks were faster on
# every shape measured, and they hold no n x n matrix: relabelled P_2000
# peaks at 1.5 MiB under tracemalloc against 61 MiB with A@A.  P_2000's
# induced subgraph on all its vertices took 2.6 ms on masks, against
# 19.7 ms on arrays (minimum of 7).
_SPARSE_DEGREE = 8

# While numpy is not yet imported, a graph of at most this many edges is
# worked on its bitmasks whatever its degree: the arrays would save less
# than importing numpy costs, 66-103 ms (-X importtime).  On a 2-vCPU x86
# VM with one BLAS thread (in-process, minimum of 5 runs), recognition on
# masks took 0.6-33 ms on the graphs of at most 4,096 edges tried, against
# 0.4-5.5 ms on A@A: random_oat(n, s) for n = 80-190 and s < 4, p4_sparse
# members with 20 and 40 pendant vertices, K_90 and G(n, p) for
# (100, .5), (128, .5), (100, .8) and (180, .25).  The slowest,
# random_oat(100, 1), took 32.7 ms against 5.5 ms, so the masks led A@A
# and the import by 38 ms or more.  From 4,100 to 8,400 edges the masks
# took up to 61 ms (random_oat(170, 2), 8.6 ms on A@A), a lead of 14 ms
# at the import's fastest, so the cap stays at 4,096.
_MASK_EDGE_CAP = 1 << 12


def _on_masks(n: int, ends: int, sparse_degree: int = _SPARSE_DEGREE) -> bool:
    """Whether a graph of n vertices and ``ends`` edge ends, twice its edge
    count, is worked on its bitmasks rather than on arrays: when its mean
    degree is below sparse_degree, or when numpy is not yet imported and
    the graph has at most _MASK_EDGE_CAP edges."""
    if ends < sparse_degree * n:
        return True
    return "numpy" not in sys.modules and ends <= 2 * _MASK_EDGE_CAP


# Graph(n, edges) takes its edges this many at a time, so that a lazy edge
# stream is never held whole: as tuples it would take several times the
# memory of the adjacency matrix.
_EDGE_CHUNK = 1 << 16


class Graph:
    """Undirected graph on vertices 0..n-1, held as its neighbourhood bitmasks."""

    __slots__ = ("n", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        _check_dense_budget(n)
        self.n: int = n
        self._masks: list[int] = _fill(n, _endpoints(edges, n))

    @classmethod
    def from_adjacency(cls, adj: np.ndarray) -> Graph:
        import numpy as np

        adj = np.asarray(adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {adj.shape}")
        if adj.shape[0] < 1:
            raise ValueError("graph needs at least one vertex")
        if adj.diagonal().any():
            raise ValueError("adjacency matrix has a self-loop on its diagonal")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency matrix must be symmetric")
        return cls._from_masks(_pack(adj))

    @classmethod
    def _from_masks(cls, masks: list[int]) -> Graph:
        """The graph whose neighbour_masks is masks, kept as given.  masks
        must be symmetric, with no vertex its own neighbour; a symmetric
        boolean matrix with a clear diagonal gives them through _pack."""
        g = object.__new__(cls)
        g.n = len(masks)
        g._masks = masks
        return g

    @property
    def adj(self) -> np.ndarray:
        """The adjacency matrix, read-only, unpacked from the bitmasks at each read."""
        return _unpack(self._masks, self.n)

    @property
    def neighbour_masks(self) -> list[int]:
        """Per-vertex neighbourhood bitmasks (bit v set means adjacent to v)."""
        return self._masks

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self._masks)) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending lexicographic."""
        return [(u, v) for u, m in enumerate(self._masks) for v in iter_bits(m >> u << u)]

    def _vertex(self, v: int) -> int:
        """v as a plain int; a vertex outside 0..n-1 is refused."""
        v = operator.index(v)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return v

    def degree(self, v: int) -> int:
        return self._masks[self._vertex(v)].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._masks[self._vertex(u)] >> self._vertex(v) & 1)

    def neighbours(self, v: int) -> tuple[int, ...]:
        """v's neighbours, ascending."""
        return tuple(iter_bits(self._masks[self._vertex(v)]))

    def induced(self, verts: Iterable[int]) -> Graph:
        """Induced subgraph on the given vertices, relabelled by their sort order.

        Each kept row is ANDed with the kept vertices' mask, and _on_masks
        decides on the subgraph's own size and edge ends.  On the masks
        side each row's bits move to their new labels one at a time, with
        no array, so a sparse or small subgraph is built without numpy;
        otherwise the rows are unpacked, their kept columns gathered and
        packed again, which on a dense subgraph of a hundred or more
        vertices is the faster (random_oat(300, 0) on all its vertices:
        0.49 ms, against 5.5 ms on masks).
        """
        idx = sorted(set(map(operator.index, verts)))
        if not idx:
            raise ValueError("induced subgraph needs at least one vertex")
        if idx[0] < 0 or idx[-1] >= self.n:
            raise ValueError(f"vertices {idx} out of range for n={self.n}")
        keep = sum(1 << v for v in idx)
        rows = [self._masks[v] & keep for v in idx]
        if not _on_masks(len(idx), sum(map(int.bit_count, rows))):
            return Graph._from_masks(_pack(_unpack(rows, self.n)[:, idx]))
        new = {v: 1 << i for i, v in enumerate(idx)}
        return Graph._from_masks([sum(map(new.__getitem__, iter_bits(r))) for r in rows])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._masks == other._masks

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _pack(adj: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as a bitmask: bit j of row i is adj[i, j]."""
    import numpy as np

    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _unpack(masks: Sequence[int], n: int) -> np.ndarray:
    """The bitmasks, each below 2**n, as the rows of a read-only boolean matrix."""
    import numpy as np

    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), width), axis=1, count=n, bitorder="little")
    rows = bits.view(bool)
    rows.setflags(write=False)
    return rows


def _labels(mask: int) -> np.ndarray:
    """The set bits of mask as an ascending label array, unpacked in C."""
    import numpy as np

    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return np.flatnonzero(np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little"))


def _indicator(mask: int, n: int) -> np.ndarray:
    """mask's bits 0..n-1 as a 0/1 uint8 array over all n labels."""
    import numpy as np

    raw = mask.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, np.uint8), count=n, bitorder="little")


def _mask(labels: np.ndarray) -> int:
    """_labels' inverse, summed in Python: most arrays turned back hold 0-2 labels."""
    return sum(1 << w for w in labels.tolist())


def mask_components(masks: Sequence[int], unseen: int, *, complement: bool = False) -> list[int]:
    """Connected parts, as bitmasks, of the graph on the vertex set ``unseen``.

    masks[v] is v's neighbourhood and may have bits outside ``unseen``; with
    complement=True the parts are those of the complement graph.  Parts come
    out ordered by their smallest vertex because seeds are taken ascending;
    several callers rely on that order.  Each vertex is expanded at most once
    and a part stops growing as soon as no vertex is left to reach, which
    makes co-components of sparse graphs a handful of mask operations.
    """
    parts = []
    while unseen:
        comp = frontier = unseen & -unseen
        unseen ^= comp
        while frontier and unseen:
            low = frontier & -frontier
            frontier ^= low
            reach = masks[low.bit_length() - 1]
            new = unseen & ~reach if complement else unseen & reach
            if new:
                unseen ^= new
                comp |= new
                frontier |= new
        parts.append(comp)
    return parts


def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the connected components, ordered by smallest vertex."""
    parts = mask_components(g.neighbour_masks, (1 << g.n) - 1)
    return tuple(tuple(iter_bits(p)) for p in parts)


def complement_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Connected components of the complement graph, ordered by smallest vertex."""
    parts = mask_components(g.neighbour_masks, (1 << g.n) - 1, complement=True)
    return tuple(tuple(iter_bits(p)) for p in parts)


def adjacency_square(g: Graph) -> np.ndarray:
    """A@A, read-only int32: entry (u, v) counts common neighbours.

    The product runs in float32 through BLAS.  Every count, and every
    partial sum on the way to it, is an integer of at most n - 1, and
    float32 holds each integer up to 2**24 exactly, so the product is exact
    for n <= 2**24; the dense budget admits no n near that, and a larger
    one is refused here.
    """
    if g.n > 1 << 24:
        raise SizeBudgetError(
            f"A@A in float32 is exact up to n = 2**24, got n = {g.n}", bound=1 << 24
        )
    import numpy as np

    a = g.adj.astype(np.float32)
    m = a @ a
    del a  # so that no more than two n x n four-byte matrices are alive
    m = m.astype(np.int32)
    m.setflags(write=False)
    return m


def find_comparable_pair(g: Graph, a2: np.ndarray | None = None) -> tuple[int, int] | None:
    """Smallest (u, v), row-major, with u != v and N(u) a subset of N(v);
    a2, when given, is g's A@A.

    |N(u) & N(v)| = (A@A)[u, v], so the subset test is one comparison per
    pair.  It also rules out u adjacent to v: then v is in N(u) but not in
    N(v), so the count falls short of deg(u).  An isolated u qualifies
    against every other vertex.
    """
    import numpy as np

    if a2 is None:
        a2 = adjacency_square(g)
    everyone = np.arange(g.n)
    dom = _dominators(a2, a2.diagonal(), everyone, everyone)
    u = int((dom >= 0).argmax())
    return (u, int(dom[u])) if dom[u] >= 0 else None


def _dominators(
    block: np.ndarray, diag: np.ndarray, rows: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """For each row u, the smallest label v != u with N(u) a subset of N(v),
    or -1.  block[i] counts row i's common neighbours with each of labels,
    and diag[i] with itself, its degree."""
    import numpy as np

    cand = block == diag[:, None]
    cand &= labels != rows[:, None]
    return np.where(cand.any(axis=1), labels[cand.argmax(axis=1)], -1)


def pendant_clique(masks: Sequence[int], alive: int) -> tuple[int, tuple[int, ...]] | None:
    """Smallest (z, Q) in the graph induced on ``alive`` such that every q in
    Q satisfies N[q] = Q + {z}.

    Vertices with the same closed neighbourhood are pairwise adjacent, so
    grouping by closed-neighbourhood mask finds every candidate Q at once: a
    group is valid exactly when its shared mask has one extra bit, and that
    bit is the anchor z.  Ties break on (z, min Q).
    """
    groups: dict[int, list[int]] = {}
    for v in iter_bits(alive):
        groups.setdefault((masks[v] & alive) | (1 << v), []).append(v)
    best: tuple[tuple[int, int], tuple[int, tuple[int, ...]]] | None = None
    for mask, q in groups.items():
        extra = mask
        for v in q:
            extra ^= 1 << v
        if extra == 0 or extra & (extra - 1):
            continue
        z = extra.bit_length() - 1
        key = (z, q[0])
        if best is None or key < best[0]:
            best = (key, (z, tuple(q)))
    return None if best is None else best[1]


def clique_attachment(g: Graph) -> tuple[int, tuple[int, ...]] | None:
    """Smallest (z, Q) such that every q in Q satisfies N[q] = Q + {z}."""
    return pendant_clique(g.neighbour_masks, (1 << g.n) - 1)


@functools.cache
def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_dense_budget(n: int) -> None:
    """Raise SizeBudgetError, before anything is allocated, when n vertices'
    dense matrices would not fit in the machine's physical memory."""
    need = _DENSE_FOOTPRINT_FACTOR * 9 * n * n
    have = _physical_memory()
    if have is not None and need > have:
        raise SizeBudgetError(
            f"n = {n} needs about {need / 2**30:.1f} GiB for its dense matrices, "
            f"more than the {have / 2**30:.1f} GiB of physical memory",
            bound=have,
        )


def _endpoints(edges: Iterable[tuple[int, int]], n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Graph(n, edges)'s edges as checked endpoint arrays, _EDGE_CHUNK at a time."""
    import numpy as np

    stream = iter(edges)
    while chunk := list(itertools.islice(stream, _EDGE_CHUNK)):
        if set(map(len, chunk)) != {2}:
            item = next(e for e in chunk if len(e) != 2)
            raise ValueError(f"edge {item!r} is not a (u, v) pair")
        flat = list(map(operator.index, itertools.chain.from_iterable(chunk)))
        try:
            ends = np.array(flat, dtype=np.int64)
        except OverflowError:  # beyond int64 is out of range for any n: clip it, keeping its side
            ends = np.array(flat, dtype=object).clip(-1, n).astype(np.int64)
        us, vs = ends[0::2], ends[1::2]
        wrong = np.flatnonzero((us < 0) | (us >= n) | (vs < 0) | (vs >= n) | (us == vs))
        if len(wrong):
            u, v = chunk[wrong[0]]
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            raise ValueError(f"self-loop at vertex {u}")
        yield us, vs


def _fill(n: int, chunks: Iterable[tuple[np.ndarray, np.ndarray]]) -> list[int]:
    """n vertices' bitmasks with each chunk's checked edges: the one n x n fill."""
    import numpy as np

    adj = np.zeros((n, n), dtype=bool)
    for us, vs in chunks:
        adj[us, vs] = True
        adj[vs, us] = True
    return _pack(adj)


# parse_graph reads a text of at most this many characters with the
# general reader while numpy is not yet imported: it then costs less than
# the import it spares.  At this cap, on a 2-vCPU x86 VM (minimum of 15
# runs, a range over separate runs), the general reader read P_6775
# (65,533 characters) in 5.5-12 ms and random_oat(171, 0) (52,357) in
# 5.7-12 ms, against 66-103 ms for importing numpy (-X importtime); with
# numpy loaded, _parse_plain read them in 15-18 ms (its n x n fill) and
# 0.52-0.53 ms.
_LINE_READ_CAP = 1 << 16


def _parse_plain(text: str) -> Graph | None:
    """The graph of a fault-free edge list in format_graph's form, else None.

    That form is ASCII lines of two digit runs joined by one space, every
    line ended by ``\\n`` or ``\\r\\n``, the last included.  It is checked
    with no array per byte: with ``\\r\\n`` made ``\\n`` and the digits
    deleted, only ``" \\n"`` pairs may be left, and the text must end in
    ``\\n``.  Every line is then ``D D`` with each D a run of zero or
    more digits and one space between.  ``np.fromstring`` finding two
    values per line means that no run is empty; the final ``\\n`` is
    needed for that, since a run after the last break would make up for
    an empty field.  On such a text ``str.splitlines``, ``str.split`` and
    ``int`` see exactly the fields that ``np.fromstring`` reads.  Below
    int64's maximum, where ``np.fromstring`` saturates, ``int`` reads each
    the same unless the field has more digits than
    ``sys.get_int_max_str_digits()`` allows, at least 640 when set; such a
    field holds a run of 20 zeros, which the writer never writes, so a
    text holding one is given up.  Any other text, and any fault, gives
    None, so that the general reader decides and words the error; a vertex
    count beyond the dense budget raises the general reader's
    SizeBudgetError.
    """
    import numpy as np

    if not text.isascii():
        return None
    raw = text.encode("ascii")
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")
    if b"0" * 20 in raw:  # a field int may refuse for its length
        return None
    skel = raw.translate(None, b"0123456789")
    lines = skel.count(b" \n")
    if not lines or 2 * lines != len(skel) or not raw.endswith(b"\n"):
        return None
    values = np.fromstring(raw, dtype=np.int64, sep=" ")
    if len(values) != 2 * lines or values.max() == np.iinfo(np.int64).max:
        return None
    n, m = int(values[0]), int(values[1])
    us, vs = values[2::2], values[3::2]
    if n < 1 or m != len(us):
        return None
    _check_dense_budget(n)  # the general reader raises the same here
    if m and not ((us < vs).all() and (vs < n).all()):
        return None
    g = Graph._from_masks(_fill(n, [(us, vs)]))
    return g if g.edge_count == m else None  # else a duplicate edge


def parse_graph(text: str) -> Graph:
    """Parse the plain edge-list format: a header 'n m' then m lines 'u v'.

    Lines are those of ``str.splitlines`` and fields those of ``str.split``;
    blank lines are skipped and each field is read by ``int``.

    There are two readers, which give the same graph for any text both
    accept.  Once numpy is imported, or when the text is longer than
    _LINE_READ_CAP characters, a text in format_graph's form (ASCII lines
    of two digit runs and one space, each ended by ``\\n`` or ``\\r\\n``,
    with no run of 20 zeros) is read by deleting its digits, checking the
    skeleton left and one ``np.fromstring`` (``_parse_plain``), which gives
    up on any other text and on any fault.  Every other text, and every one it gives up on,
    goes through the general reader (``_parse_general``), which reads one
    line at a time with no array, so that a small graph is read without
    importing numpy.  It words every error; the fast reader raises only
    the general one's SizeBudgetError, at the same step.

    The header and the count of non-blank lines after it are checked
    first.  Then errors name the first faulty edge line, and within one
    line the faults rank: field count, integers, range, order, duplicate.
    A duplicate repeats an earlier line's edge.
    """
    if len(text) > _LINE_READ_CAP or "numpy" in sys.modules:
        g = _parse_plain(text)
        if g is not None:
            return g
    return _parse_general(text)


def _parse_general(text: str) -> Graph:
    """parse_graph for any text; it raises parse_graph's errors.

    Each edge line is read on its own, by ``str.split`` and ``int``, and
    checked for range, the order u < v and a repeat before the next line
    is read, so the first faulty line is the one named.  Each edge end
    sets its bit in the bitmasks by one big-int OR, and a repeat is an edge
    whose bit is already set: no container per edge outlives its line's
    split, so the cyclic garbage collector has none to count and traverse.
    """
    lines = text.splitlines()
    for lineno, header in enumerate(lines, 1):
        header = header.strip()
        if header:
            break
    else:
        raise GraphFormatError("empty input")
    fields = header.split()
    if len(fields) != 2:
        raise GraphFormatError(f"header must be 'n m', got {header!r}", lineno)
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphFormatError(f"header must be two integers, got {header!r}", lineno) from None
    if n < 1:
        raise GraphFormatError(f"vertex count must be positive, got {n}", lineno)
    if m < 0:
        raise GraphFormatError(f"edge count must be non-negative, got {m}", lineno)
    _check_dense_budget(n)
    body = lines[lineno:]
    found = sum(1 for line in body if line.strip())
    if found != m:
        raise GraphFormatError(f"header promises {m} edges, found {found} edge lines")
    masks = [0] * n
    for lineno, line in enumerate(body, lineno + 1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 2:
            raise GraphFormatError(f"edge line must be 'u v', got {line.strip()!r}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(
                f"edge line must be two integers, got {line.strip()!r}", lineno
            ) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u}, {v}) out of range for n={n}", lineno)
        if u >= v:
            raise GraphFormatError(f"edge must satisfy u < v, got ({u}, {v})", lineno)
        if masks[u] >> v & 1:
            raise GraphFormatError(f"duplicate edge ({u}, {v})", lineno)
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph._from_masks(masks)


def format_graph(g: Graph) -> str:
    """Serialise to the plain edge-list format, edges ascending."""
    import numpy as np

    us, vs = np.nonzero(np.triu(g.adj))
    lines = [f"{g.n} {len(us)}", *map("{} {}".format, us.tolist(), vs.tolist())]
    return "\n".join(lines) + "\n"

"""Greedy deconstruction: decide membership and emit a build-tree certificate.

The recogniser peels a graph apart by trying, in a fixed order, the inverse
of each construction operation: split connected components, split complement
components, delete a comparable vertex, detach a pendant clique.  Success
yields a build tree over the original labels; failure yields the irreducible
induced subgraph it got stuck on.

It is one loop over an explicit work stack, so its depth is not bounded by
the interpreter's.  A task is the bitmask of its original labels.
Comparable and clique moves are tail moves: nothing reads the larger graph
again, so they shrink the task where it stands and leave a pending
Comparable or CliqueAttach wrapper, applied once the task's subtree is
built.  Only union and join splits push work: the parts go on in reverse
order above a fold marker, so the first part is explored first and its tree
folded in first.

Whether common neighbours are counted at all is chosen once per graph,
from its mean degree.  A dense graph counts them in one n x n A@A for the
whole run, indexed by original label.  Tasks on the stack have disjoint
vertex sets, so each owns the block of its labels, and each tail move
patches that block in place, at the move, instead of paying an extra
factor n to recompute it.  Splits write nothing.  A union's parts share no
neighbours; a join's other parts are common neighbours of every pair in a
part, so a join leaves the part's block one constant too high, the task's
shift, summed over the joins above it.  Every dominance test compares a
row's entries with its diagonal inside one block, so the shift changes no
pick; only verify_a2 subtracts it.  A sparse graph builds no A@A and
patches nothing: it reads every dominator off the masks.
dom[u] indexes the comparable moves: the smallest v != u in u's task with
N(u) a subset of N(v), or -1; has_dom is the bitmask of the labels with
dom[u] >= 0.  A task's next comparable move removes the lowest bit of
has_dom & alive, the pair first_comparable would pick from the task's
block.  Splits leave the index valid, since a vertex and its dominator
share a co-component, and a component too unless the vertex is isolated;
a union clears an isolated vertex's entry, for it becomes a leaf.  A tail
move clears the entries of the labels it removes, so that only live rows
can point at a label, and refreshes only the rows it patched and the rows
whose dominator it removed, found by one compare over dom.  (A clique move
comes only when no vertex of the task has a dominator, so it refreshes
its anchor's row alone.)  Two refreshes give the same dominators.  A row
w read off the masks is the task's labels other than w, ANDed with the
neighbourhood of every neighbour of w: that leaves exactly the v with N(w)
a subset of N(v), and the lowest is the dominator, for one big-int AND per
neighbour.  A sparse graph reads its initial index so, and every refresh;
a refresh's rows have fewer than 2m < 8n neighbours between them, so each
of the at most n moves costs O(n^2) word operations.  A dense graph reads
the masks only when the stale rows have few neighbours in the task between
them.  Otherwise, as after most moves on wide dense tasks, whose stale rows
have dozens to hundreds of neighbours, the rows of A@A are compared with
their diagonals over the task's labels, unpacked from its bitmask for that
compare only.
The patch runs at every move either way, so the matrix is current for any
later compare.  Memory is that one A@A, the index and the rows refreshed
by one move, O(n^2), on a dense graph, and the masks, n^2 bits, and the
index on a sparse one.  verify_a2 checks the first task's index before any
move, then every new task's block, less its shift, where there is a
matrix, and every dominator of its labels and every index pick, against a
fresh recomputation, the reference.

Components, co-components and pendant cliques are read off neighbourhood
bitmasks over the original labels, intersected with the task's vertex set.
Removing a comparable vertex or a pendant clique keeps a connected graph
connected (a path through u reroutes through v, whose neighbourhood
contains u's; a pendant clique meets the rest only at its anchor), so after
a tail move only the co-component scan reruns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import iter_bits
from .buildtree import BuildTree, CliqueAttach, Comparable, Join, Leaf, Union
from .errors import StepConsistencyError
from .graph import Graph, adjacency_square, first_comparable, mask_components, pendant_clique

# A dense graph's tail move reads its stale rows off the neighbourhood
# masks when they have at most this many neighbours in the task between
# them, and compares them as rows of A@A otherwise.  On a 2-vCPU x86 VM at
# n = 300, a mask read costs about 0.25 us per neighbour and an A@A compare
# 26-31 us whatever the rows, so they break even near 100 neighbours.  32
# sits well below that; 85% of the 433 refreshes one cycle of the
# benchmark's wide dense inputs makes are heavier and compare rows.
_LIGHT_REFRESH = 32

# A graph whose mean degree is below this builds no A@A: its whole index is
# read off the masks.  A mask read costs one big-int AND per neighbour, so
# that side grows with the degree, while A@A is one BLAS product up front
# and one row compare per heavy refresh.  Recognising relabelled graphs
# with masks alone, against A@A, on a 2-vCPU x86 VM with one BLAS thread
# (minimum of 5-7 runs), took 0.41-0.75 of the time on the benchmark's
# paths and sparse chains (mean degree 2.0-2.9), and 0.61-0.76 on unions
# of small random_oat members (n = 300) and on p4_sparse members of mean
# degree 3.3-7.8.  From 8 to 25 it took 0.54-1.35, depending on the shape,
# and from 28.5 up 0.95-5.8 (1.27-5.8 on the benchmark's random_oat
# members).  So below 8 the masks were faster on every shape measured, and
# they hold no n x n matrix: relabelled P_2000 peaks at 1.5 MiB under
# tracemalloc against 61 MiB with A@A.
_SPARSE_DEGREE = 8


@dataclass(frozen=True)
class RecognitionOutcome:
    """Either a build-tree certificate or the subgraph no operation applied to."""

    tree: BuildTree | None
    stuck: Graph | None
    stuck_vertices: tuple[int, ...] | None
    a2_checks: int = 0

    @property
    def is_oat(self) -> bool:
        return self.tree is not None


@dataclass
class _Task:
    alive: int  # the task's original labels as a bitmask
    connected: bool  # known to induce a connected subgraph
    shift: int  # how far every entry of its A@A block sits above the true count


@dataclass(frozen=True)
class _Fold:
    """Fold the top `parts` results with `binary`, then apply `wrappers`."""

    binary: type[Union] | type[Join]
    parts: int
    wrappers: list[tuple]


def _wrap(tree: BuildTree, wrappers: list[tuple]) -> BuildTree:
    # The first tail move taken is the outermost node.
    for node, *args in reversed(wrappers):
        tree = node(tree, *args)
    return tree


def _labels(mask: int) -> np.ndarray:
    """The set bits of mask as an ascending label array, unpacked in C."""
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return np.flatnonzero(np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little"))


def _dominators(
    block: np.ndarray, diag: np.ndarray, rows: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """For each row u, the smallest label v != u with N(u) a subset of N(v),
    or -1.  block[i] counts row i's common neighbours with each of labels,
    and diag[i] with itself, its degree."""
    cand = block == diag[:, None]
    cand &= labels != rows[:, None]
    return np.where(cand.any(axis=1), labels[cand.argmax(axis=1)], -1)


def _mask_dominator(masks: list[int], alive: int, w: int) -> int:
    """The smallest v != w in alive with N(w) a subset of N(v), both taken
    inside alive, or -1: the lowest bit left of alive once it is ANDed with
    the neighbourhood of every neighbour of w."""
    cand = alive & ~(1 << w)
    near = masks[w] & alive
    while near and cand:
        low = near & -near
        cand &= masks[low.bit_length() - 1]
        near ^= low
    return (cand & -cand).bit_length() - 1


def recognize(g: Graph, *, verify_a2: bool = False) -> RecognitionOutcome:
    """Decide membership; the positive answer carries a replayable tree.

    verify_a2 recomputes the common-neighbour matrix from scratch for the
    first task and every new one, compares it with the task's block where
    the graph keeps an A@A, checks with it every dominator of the
    comparable index and the pick at every scan, and fails loudly on any
    drift; the outcome's a2_checks counts how many comparisons ran.
    """
    masks = g.neighbour_masks
    checks = 0
    full = (1 << g.n) - 1
    m = None  # no A@A on a sparse graph: every dominator comes off the masks
    if sum(map(int.bit_count, masks)) < _SPARSE_DEGREE * g.n:
        dom = np.array([_mask_dominator(masks, full, w) for w in range(g.n)])
    else:
        m = adjacency_square(g)
        m.setflags(write=True)  # a fresh array nothing else holds: the shared buffer
        everyone = np.arange(g.n)
        dom = _dominators(m, m.diagonal(), everyone, everyone)
    has_dom = sum(1 << w for w in np.flatnonzero(dom >= 0).tolist())

    def check(task: _Task) -> None:
        nonlocal checks
        if verify_a2:
            labels = _labels(task.alive)
            fresh = adjacency_square(g.induced(labels.tolist()))
            if m is not None and not np.array_equal(
                fresh, m[np.ix_(labels, labels)] - task.shift
            ):
                raise StepConsistencyError(
                    "incrementally patched A@A drifted from the recomputed matrix"
                )
            at = np.arange(len(labels))
            want = _dominators(fresh, fresh.diagonal(), at, at)
            want = np.where(want >= 0, labels[want], -1)
            flags = sum(1 << w for w in labels[want >= 0].tolist())
            if not np.array_equal(dom[labels], want) or has_dom & task.alive != flags:
                raise StepConsistencyError(
                    "comparable index drifted from the dominators a fresh A@A gives"
                )
            checks += 2 if m is not None else 1

    def split(
        task: _Task, binary: type[Union] | type[Join], parts: list[int], wrappers: list[tuple]
    ) -> None:
        nonlocal has_dom
        # Parts arrive ordered by smallest vertex and are folded
        # left-associatively, so the first part must come off the stack first.
        stack.append(_Fold(binary, len(parts), wrappers))
        children = []
        size = task.alive.bit_count()
        for part in parts:
            shift = task.shift
            if binary is Join:  # the other parts were common neighbours of every pair
                shift += size - part.bit_count()
            elif part & (part - 1) == 0:
                # An isolated vertex, dominated by any other, becomes a leaf.
                dom[part.bit_length() - 1] = -1
                has_dom &= ~part
            children.append(_Task(part, binary is Union, shift))
            check(children[-1])
        stack.extend(reversed(children))

    root = _Task(full, False, 0)
    check(root)
    stack: list[_Task | _Fold] = [root]
    done: list[BuildTree] = []
    while stack:
        task = stack.pop()
        if isinstance(task, _Fold):
            trees = done[-task.parts :]
            del done[-task.parts :]
            out = trees[0]
            for t in trees[1:]:
                out = task.binary(out, t)
            done.append(_wrap(out, task.wrappers))
            continue
        wrappers = []
        while True:
            alive = task.alive
            if alive & (alive - 1) == 0:
                done.append(_wrap(Leaf(alive.bit_length() - 1), wrappers))
                break
            if not task.connected:
                parts = mask_components(masks, alive)
                if len(parts) > 1:
                    split(task, Union, parts, wrappers)
                    break
                task.connected = True
            parts = mask_components(masks, alive, complement=True)
            if len(parts) > 1:
                split(task, Join, parts, wrappers)
                break
            pick = has_dom & alive
            u = (pick & -pick).bit_length() - 1
            if verify_a2:
                labels = _labels(alive)
                pair = (u, int(dom[u])) if pick else None
                fresh = first_comparable(adjacency_square(g.induced(labels.tolist())))
                if pair != (None if fresh is None else tuple(labels[list(fresh)].tolist())):
                    raise StepConsistencyError(
                        f"comparable index picked {pair}, a fresh scan picks {fresh}"
                    )
                checks += 1
            if pick:
                # Only pairs inside N(u) lose u as a common neighbour
                # (diagonal included: those degrees drop by 1).
                near = masks[u] & alive
                xs = tuple(iter_bits(near))
                if m is not None:
                    rows = np.array(xs)
                    m[rows[:, None], rows] -= 1
                wrappers.append((Comparable, u, int(dom[u]), xs))
                alive ^= 1 << u
                has_dom ^= 1 << u
                dom[u] = -1
                stale = near
                for w in (dom == u).nonzero()[0].tolist():
                    stale |= 1 << w
            else:
                found = pendant_clique(masks, iter_bits(alive), alive)
                if found is None:
                    labels = list(iter_bits(alive))
                    return RecognitionOutcome(
                        tree=None,
                        stuck=g.induced(labels),
                        stuck_vertices=tuple(labels),
                        a2_checks=checks,
                    )
                # Q touched only itself and z: only z's degree drops, by |Q|.
                # No vertex of the task has a dominator, so none loses one.
                z, removed = found
                if m is not None:
                    m[z, z] -= len(removed)
                wrappers.append((CliqueAttach, z, removed))
                for q in removed:
                    alive ^= 1 << q
                stale = 1 << z
            # A tail move: the task shrinks where it stands, still connected.
            # Splits keep every vertex's dominator, but here the rows just
            # written, and those whose dominator left, are stale.
            weight = 0  # with no matrix, every refresh reads the masks
            if m is not None:
                for w in iter_bits(stale):
                    weight += (masks[w] & alive).bit_count()
                    if weight > _LIGHT_REFRESH:
                        break
            kept = 0  # the stale rows that still have a dominator
            if weight <= _LIGHT_REFRESH:
                for w in iter_bits(stale):
                    dom[w] = d = _mask_dominator(masks, alive, w)
                    if d >= 0:
                        kept |= 1 << w
            else:
                rows = _labels(stale)
                labels = _labels(alive)
                new = _dominators(m[rows][:, labels], m[rows, rows], rows, labels)
                dom[rows] = new
                kept = sum(1 << w for w in rows[new >= 0].tolist())
            has_dom = has_dom & ~stale | kept
            task.alive = alive
            check(task)
    (tree,) = done
    return RecognitionOutcome(tree=tree, stuck=None, stuck_vertices=None, a2_checks=checks)

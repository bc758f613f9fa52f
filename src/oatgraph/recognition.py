"""Greedy deconstruction: decide membership and emit a build-tree certificate.

The recogniser peels a graph apart by trying, in a fixed order, the inverse
of each construction operation: split connected components, split complement
components, delete a comparable vertex, detach a pendant clique.  Success
yields a build tree over the original labels; failure yields the irreducible
induced subgraph it got stuck on.

It is one loop over an explicit work stack, so its depth is not bounded by
the interpreter's.  The stack holds tasks, each the bitmask of its original
labels, and the nodes still to be made, each as its class and its own
fields.  Popped, an entry joins the leaves in one list, the tree's
postorder, which _fold makes into the tree at the end.  Comparable
and clique moves are tail moves: nothing reads the larger graph again, so
they push their Comparable or CliqueAttach entry and shrink the task where
it stands.  A union or join split pushes its parts with the first on top,
and a Union or Join entry below each later part, so the first part is
explored first and the parts fold left-associatively as they finish.

Whether common neighbours are counted at all is chosen once per graph,
by graph._on_masks: a graph of mean degree below 8, or one of at most
4,096 edges while numpy is not yet imported, is worked on its masks, and
every other graph, a dense one, on A@A.  A dense graph counts them in one
n x n int32 A@A for the whole run, indexed by original label.  Tasks on
the stack have disjoint vertex sets, so each owns the block of its labels, and each tail
move patches that block in place, at the move, instead of paying an extra
factor n to recompute it.  A comparable move takes 1 off every pair in
N(u) x N(u).  When N(u) is wide, more than n / _WIDE_MOVE labels, it
subtracts the outer product of N(u)'s 0/1 indicator from the whole matrix
at once: the product is zero outside N(u) x N(u), and N(u) lies in u's
task, so no other task's block changes.  A narrower move patches the
N(u) x N(u) block by fancy indexing.  Splits write nothing.  A union's
parts share no neighbours; a join's other parts are common neighbours of
every pair in a part, so a join leaves the part's block one constant too
high, the task's shift, summed over the joins above it.  Every dominance
test compares a row's entries with its diagonal inside one block, so the
shift changes no pick; only verify_a2 subtracts it.  On the masks side a
graph builds no A@A and patches nothing: it reads every dominator off the
masks.
dom[u] indexes the comparable moves: the smallest v != u in u's task with
N(u) a subset of N(v), or -1, in a Python list; has_dom is the bitmask of
the labels with dom[u] >= 0, and dominated[v] that of the labels w with
dom[w] == v.  A task's next comparable move removes the lowest bit of
has_dom & alive, the pair find_comparable_pair picks from the task's
block.  Splits leave the index valid, since a vertex and its dominator
share a co-component, and a component too unless the vertex is isolated;
a union clears an isolated vertex's entry, for it becomes a leaf.  A tail
move clears the entries of the labels it removes, so that only live rows
can point at a label, and refreshes only the rows it patched and the rows
whose dominator it removed, read off dominated.  (A clique move
comes only when no vertex of the task has a dominator, so it refreshes
its anchor's row alone.)  Each regime refreshes by one rule, and the two
rules give the same dominators.  On the masks side each stale row w is
read off the masks: the task's labels other than w, ANDed with the
neighbourhood of every neighbour of w, leave exactly the v with N(w) a
subset of N(v), and the lowest is the dominator, for one big-int AND per
neighbour.  The initial index is read so too; a refresh's rows have at
most 2m neighbours between them, fewer than 8n on a sparse graph and at
most 8,192 on a small one, so each of the at most n moves costs O(n^2)
word operations.  A dense graph compares the stale rows of A@A with their
diagonals over the task's labels, the rows gathered whole and their
columns compressed by the task's 0/1 indicator for that compare only; the
move has patched the matrix just before, so the compare reads current
counts.  Memory is that one A@A, the index and the rows refreshed by one
move, O(n^2), on a dense graph, and the masks, n^2 bits, and the index on
the masks side.  numpy is imported only by the A@A regime, verify_a2 and
an induced subgraph built on arrays, so a graph on the masks side is
recognised without it, and so is its stuck subgraph unless that has mean
degree 8 or more and over 4,096 edges.  verify_a2 checks the first
task's index before any move, then every new task's block, less its
shift, where there is a matrix, and every dominator of its labels and
every index pick, against a fresh recomputation, the reference, and every
dominated set against the labels dom points at it.

Components, co-components and pendant cliques are read off neighbourhood
bitmasks over the original labels, intersected with the task's vertex set.
Removing a comparable vertex or a pendant clique keeps a connected graph
connected (a path through u reroutes through v, whose neighbourhood
contains u's; a pendant clique meets the rest only at its anchor), so after
a tail move only the co-component scan reruns.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ._util import iter_bits
from .buildtree import BuildTree, CliqueAttach, Comparable, Join, Leaf, Union, _fold
from .errors import StepConsistencyError
from .graph import Graph, _dominators, _indicator, _labels, _mask, _on_masks, adjacency_square
from .graph import _SPARSE_DEGREE, find_comparable_pair, mask_components, pendant_clique

# A comparable move patches A@A with one whole-matrix subtract of N(u)'s
# outer product when _WIDE_MOVE |N(u)| > n, else with a fancy-indexed
# N(u) x N(u) patch.  The subtract costs the same at any |N(u)|, while the
# patch grows with |N(u)|^2 at several times the cost per entry.  The outer
# product of a uint8 indicator is n^2 bytes; at n = 2000 its subtract took
# 1.9 ms, an int32 one 4.2 ms.  Swept on a 2-vCPU x86 VM with one BLAS
# thread (minimum of 3-7 runs), the dense benchmark's inputs took 71.8 ms in
# all with no subtract, 68.8, 69.4 and 71.1 ms at 4, 8 and 16, and 72.1 ms
# with a subtract at every move; random_oat(2000, 0) took 2.94 s with no
# subtract, 1.55, 1.48-1.58, 1.43 and 1.49 s at 4, 8, 16 and 32, and 1.64 s
# with a subtract at every move, and random_oat(500, 11) 103, 57-60 and
# 57 ms with none, at 8 and at every move.  Between 4 and 32 the choice is
# within the noise; at either end it is not.
_WIDE_MOVE = 8


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
    comparable index and the pick at every scan, checks each label's
    dominated set against the labels whose dominator it is, and fails
    loudly on any drift; the outcome's a2_checks counts how many
    comparisons ran.
    """
    masks = g.neighbour_masks
    checks = 0
    full = (1 << g.n) - 1
    m = None  # no A@A on the masks side: every dominator comes off the masks
    # _SPARSE_DEGREE is passed from this module's globals, so that setting
    # it here moves recognition's regime and not induced's.
    if _on_masks(g.n, sum(map(int.bit_count, masks)), _SPARSE_DEGREE):
        first = [_mask_dominator(masks, full, w) for w in range(g.n)]
    else:
        import numpy as np

        m = adjacency_square(g)
        m.setflags(write=True)  # a fresh array nothing else holds: the shared buffer
        everyone = np.arange(g.n)
        first = _dominators(m, m.diagonal(), everyone, everyone).tolist()
    dom = [-1] * g.n
    dominated = [0] * g.n  # dominated[v]: the labels w with dom[w] == v, as a bitmask
    has_dom = 0

    def point(rows: Iterable[int], new: Iterable[int]) -> None:
        """dom[w] = d for each w, d of rows and new, with dominated and
        has_dom kept in step."""
        nonlocal has_dom
        for w, d in zip(rows, new):
            old = dom[w]
            if old == d:
                continue
            dom[w] = d
            bit = 1 << w
            if old >= 0:
                dominated[old] ^= bit
            if d >= 0:
                dominated[d] |= bit
                has_dom |= bit
            else:
                has_dom &= ~bit

    point(range(g.n), first)

    def check(task: _Task) -> None:
        nonlocal checks
        if verify_a2:
            import numpy as np

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
            flags = _mask(labels[want >= 0])
            if [dom[w] for w in labels.tolist()] != want.tolist() or has_dom & task.alive != flags:
                raise StepConsistencyError(
                    "comparable index drifted from the dominators a fresh A@A gives"
                )
            inverse = [0] * g.n
            for w, d in enumerate(dom):
                if d >= 0:
                    inverse[d] |= 1 << w
            if inverse != dominated:
                raise StepConsistencyError(
                    "dominated sets drifted from the labels whose dominator each label is"
                )
            checks += 2 if m is not None else 1

    def split(task: _Task, binary: type[Union] | type[Join], parts: list[int]) -> None:
        # Parts arrive ordered by smallest vertex and fold left-associatively:
        # in postfix order each later part is followed by the entry that folds
        # it in, and the stack takes them in reverse, the first part on top.
        postfix = []
        size = task.alive.bit_count()
        for part in parts:
            shift = task.shift
            if binary is Join:  # the other parts were common neighbours of every pair
                shift += size - part.bit_count()
            elif part & (part - 1) == 0:
                # An isolated vertex, dominated by any other, becomes a leaf.
                point([part.bit_length() - 1], [-1])
            child = _Task(part, binary is Union, shift)
            check(child)
            postfix += [child, (binary,)] if postfix else [child]
        stack.extend(reversed(postfix))

    root = _Task(full, False, 0)
    check(root)
    stack: list[_Task | tuple] = [root]
    entries: list[tuple] = []  # the tree's flat form, folded at the end
    while stack:
        task = stack.pop()
        if isinstance(task, tuple):  # a node's entry: (its class, *its own fields)
            entries.append(task)
            continue
        while True:
            alive = task.alive
            if alive & (alive - 1) == 0:
                entries.append((Leaf, alive.bit_length() - 1))
                break
            if not task.connected:
                parts = mask_components(masks, alive)
                if len(parts) > 1:
                    split(task, Union, parts)
                    break
                task.connected = True
            parts = mask_components(masks, alive, complement=True)
            if len(parts) > 1:
                split(task, Join, parts)
                break
            pick = has_dom & alive
            u = (pick & -pick).bit_length() - 1
            if verify_a2:
                labels = _labels(alive)
                pair = (u, dom[u]) if pick else None
                fresh = find_comparable_pair(g.induced(labels.tolist()))
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
                if m is not None and _WIDE_MOVE * near.bit_count() > g.n:
                    b = _indicator(near, g.n)
                    np.subtract(m, np.multiply.outer(b, b), out=m)
                elif m is not None:
                    rows = _labels(near)
                    m[rows[:, None], rows] -= 1
                stack.append((Comparable, u, dom[u], xs))
                alive ^= 1 << u
                point([u], [-1])
                stale = near | dominated[u]
            else:
                found = pendant_clique(masks, alive)
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
                stack.append((CliqueAttach, z, removed))
                for q in removed:
                    alive ^= 1 << q
                stale = 1 << z
            # A tail move: the task shrinks where it stands, still connected.
            # Splits keep every vertex's dominator, but here the rows just
            # written, and those whose dominator left, are stale.
            if m is None:
                rows = list(iter_bits(stale))
                new = [_mask_dominator(masks, alive, w) for w in rows]
            else:
                at = _labels(stale)
                cols = _indicator(alive, g.n).view(bool)
                block = np.compress(cols, m[at], axis=1)
                rows = at.tolist()
                new = _dominators(block, m[at, at], at, np.flatnonzero(cols)).tolist()
            point(rows, new)
            task.alive = alive
            check(task)
    tree = _fold(entries)
    return RecognitionOutcome(tree=tree, stuck=None, stuck_vertices=None, a2_checks=checks)

"""Greedy deconstruction: decide membership and emit a build-tree certificate.

The recogniser peels a graph apart by trying, in a fixed order, the inverse
of each construction operation: split connected components, split complement
components, delete a comparable vertex, detach a pendant clique.  Success
yields a build tree over the original labels; failure yields the irreducible
induced subgraph it got stuck on.

It is one loop over an explicit work stack, so its depth is not bounded by
the interpreter's.  A task is an ascending array of original labels.
Comparable and clique moves are tail moves: nothing reads the larger graph
again, so they shrink the task where it stands and leave a pending
Comparable or CliqueAttach wrapper, applied once the task's subtree is
built.  Only union and join splits push work: the parts go on in reverse
order above a fold marker, so the first part is explored first and its tree
folded in first.

Common neighbours are counted in one n x n A@A for the whole run, indexed
by original label.  Tasks on the stack have disjoint vertex sets, so each
owns the block of its labels, and each tail move patches that block in
place, at the move, instead of paying an extra factor n to recompute it.
Splits write nothing.  A union's parts share no neighbours; a join's other
parts are common neighbours of every pair in a part, so a join leaves the
part's block one constant too high, the task's shift, summed over the
joins above it.  Every dominance test compares a row's entries with its
diagonal inside one block, so the shift changes no pick; only verify_a2
subtracts it.
dom[u] indexes the comparable moves: the smallest v != u in u's task with
N(u) a subset of N(v), or -1.  A task's next comparable move removes its
smallest u with dom[u] >= 0, the pair first_comparable would pick from the
task's block.  Splits leave the index valid, since a vertex and its
dominator share a co-component, and a component too unless the vertex is
isolated and so becomes a leaf.  A tail move refreshes only the rows it
patched and the rows whose dominator it removed.  Memory is that one A@A,
the index and the rows refreshed by one move, O(n^2).  verify_a2 checks
every new task's block, less its shift, and every index pick against a
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
    labels: np.ndarray  # ascending original labels
    alive: int  # labels as a bitmask
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


def recognize(g: Graph, *, verify_a2: bool = False) -> RecognitionOutcome:
    """Decide membership; the positive answer carries a replayable tree.

    verify_a2 recomputes the common-neighbour matrix from scratch for every
    new task, and the comparable pair from it at every scan, and fails
    loudly on any drift; the outcome's a2_checks counts how many
    comparisons ran.
    """
    masks = g.neighbour_masks
    checks = 0
    m = adjacency_square(g)
    m.setflags(write=True)  # a fresh array nothing else holds: the shared buffer
    gone = np.zeros(g.n, dtype=bool)  # labels taken away by tail moves

    def dominators(block: np.ndarray, rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """For each row u, the smallest label v != u with N(u) a subset of
        N(v), or -1; block is m[rows][:, labels]."""
        cand = block == m[rows, rows][:, None]
        cand &= labels != rows[:, None]
        return np.where(cand.any(axis=1), labels[cand.argmax(axis=1)], -1)

    everyone = np.arange(g.n)
    dom = dominators(m, everyone, everyone)

    def check(task: _Task) -> None:
        nonlocal checks
        if verify_a2:
            labels = task.labels
            fresh = adjacency_square(g.induced(labels.tolist()))
            if not np.array_equal(fresh, m[np.ix_(labels, labels)] - task.shift):
                raise StepConsistencyError(
                    "incrementally patched A@A drifted from the recomputed matrix"
                )
            checks += 1

    def split(
        task: _Task, binary: type[Union] | type[Join], parts: list[int], wrappers: list[tuple]
    ) -> None:
        # Parts arrive ordered by smallest vertex and are folded
        # left-associatively, so the first part must come off the stack first.
        stack.append(_Fold(binary, len(parts), wrappers))
        children = []
        for part in parts:
            labels = np.fromiter(iter_bits(part), np.intp)
            shift = task.shift
            if binary is Join:  # the other parts were common neighbours of every pair
                shift += len(task.labels) - len(labels)
            children.append(_Task(labels, part, binary is Union, shift))
            check(children[-1])
        stack.extend(reversed(children))

    stack: list[_Task | _Fold] = [_Task(everyone, (1 << g.n) - 1, False, 0)]
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
            labels = task.labels
            if len(labels) == 1:
                done.append(_wrap(Leaf(int(labels[0])), wrappers))
                break
            if not task.connected:
                parts = mask_components(masks, task.alive)
                if len(parts) > 1:
                    split(task, Union, parts, wrappers)
                    break
                task.connected = True
            parts = mask_components(masks, task.alive, complement=True)
            if len(parts) > 1:
                split(task, Join, parts, wrappers)
                break
            has = dom[labels] >= 0
            i = int(has.argmax())
            pair = (int(labels[i]), int(dom[labels[i]])) if has[i] else None
            if verify_a2:
                fresh = first_comparable(adjacency_square(g.induced(labels.tolist())))
                if pair != (None if fresh is None else tuple(labels[list(fresh)].tolist())):
                    raise StepConsistencyError(
                        f"comparable index picked {pair}, a fresh scan picks {fresh}"
                    )
                checks += 1
            if pair is not None:
                # Only pairs inside N(u) lose u as a common neighbour
                # (diagonal included: those degrees drop by 1).
                u, v = pair
                rows = np.fromiter(iter_bits(masks[u] & task.alive), np.intp)
                m[rows[:, None], rows] -= 1
                wrappers.append((Comparable, u, v, tuple(rows.tolist())))
                removed = (u,)
            else:
                found = pendant_clique(masks, labels.tolist(), task.alive)
                if found is None:
                    return RecognitionOutcome(
                        tree=None,
                        stuck=g.induced(labels.tolist()),
                        stuck_vertices=tuple(labels.tolist()),
                        a2_checks=checks,
                    )
                # Q touched only itself and z: only z's degree drops, by |Q|.
                z, removed = found
                m[z, z] -= len(removed)
                rows = [z]
                wrappers.append((CliqueAttach, z, removed))
            # A tail move: the smaller task replaces this one, still connected.
            # Splits keep every vertex's dominator, but here the rows just
            # written, and those whose dominator left, are stale.
            gone[list(removed)] = True
            labels = labels[~gone[labels]]
            d = dom[labels]
            rows = np.concatenate((rows, labels[(d >= 0) & gone[d]]))
            dom[rows] = dominators(m[rows][:, labels], rows, labels)
            task = _Task(labels, task.alive ^ sum(1 << w for w in removed), True, task.shift)
            check(task)
    (tree,) = done
    return RecognitionOutcome(tree=tree, stuck=None, stuck_vertices=None, a2_checks=checks)

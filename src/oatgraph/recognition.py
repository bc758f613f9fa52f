"""Greedy deconstruction: decide membership and emit a build-tree certificate.

The recogniser peels a graph apart by trying, in a fixed order, the inverse
of each construction operation: split connected components, split complement
components, delete a comparable vertex, detach a pendant clique.  Success
yields a build tree over the original labels; failure yields the irreducible
induced subgraph it got stuck on.

It is one loop over an explicit work stack, so its depth is not bounded by
the interpreter's.  A task is an ascending array of original labels with
its own common-neighbour matrix A@A.  Comparable and clique moves are tail
moves: nothing reads the larger graph again, so they shrink the task where
it stands and leave a pending Comparable or CliqueAttach wrapper, applied
once the task's subtree is built.  Only union and join splits push work:
the parts go on in reverse order above a fold marker, so the first part is
explored first and its tree folded in first.  Memory is one A@A's worth of
tasks plus the move being made, O(n^2).

Recomputing A@A from scratch at every move would cost an extra factor n, so
each move patches it in O(n^2) instead; the four patch rules are encoded in
a2_after_step.  Components, co-components and pendant cliques are read off
neighbourhood bitmasks over the original labels, intersected with the
task's vertex set.  Removing a comparable vertex or a pendant clique keeps a
connected graph connected (a path through u reroutes through v, whose
neighbourhood contains u's; a pendant clique meets the rest only at its
anchor), so after a tail move only the co-component scan reruns.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from ._util import iter_bits
from .buildtree import BuildTree, CliqueAttach, Comparable, Join, Leaf, Union
from .errors import StepConsistencyError
from .graph import (
    AdjSquare,
    Graph,
    adjacency_square,
    first_comparable,
    mask_components,
    pendant_clique,
)


@dataclass(frozen=True)
class DeconstructionStep:
    """One deconstruction move, in the current graph's labelling.

    keep/removed partition the current vertex set.  For a comparable move,
    neighbours is the removed vertex's neighbourhood; for a clique move,
    anchor is the vertex the clique was attached to.
    """

    op: str
    keep: tuple[int, ...]
    removed: tuple[int, ...]
    anchor: int | None = None
    neighbours: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "keep", tuple(self.keep))
        object.__setattr__(self, "removed", tuple(self.removed))
        object.__setattr__(self, "neighbours", tuple(self.neighbours))
        if self.op not in ("union", "join", "comparable", "clique"):
            raise StepConsistencyError(f"unknown step op {self.op!r}")
        if not self.keep:
            raise StepConsistencyError("step must keep at least one vertex")
        if any(map(operator.ge, self.keep, self.keep[1:])):
            raise StepConsistencyError(f"kept vertices must be strictly ascending: {self.keep}")
        if not self.removed:
            raise StepConsistencyError("step must remove at least one vertex")
        if len(set(self.removed)) != len(self.removed):
            raise StepConsistencyError(f"removed vertices have duplicates: {self.removed}")
        if set(self.keep) & set(self.removed):
            raise StepConsistencyError("kept and removed vertices overlap")
        if self.op == "comparable":
            if len(self.removed) != 1:
                raise StepConsistencyError("comparable step removes exactly one vertex")
            if len(set(self.neighbours)) != len(self.neighbours):
                raise StepConsistencyError("comparable neighbours have duplicates")
            if not set(self.neighbours) <= set(self.keep):
                raise StepConsistencyError("comparable neighbours must all be kept")
        else:
            if self.neighbours:
                raise StepConsistencyError(f"{self.op} step takes no neighbour list")
        if self.op == "clique":
            if self.anchor is None:
                raise StepConsistencyError("clique step needs an anchor")
            if self.anchor not in self.keep:
                raise StepConsistencyError(f"clique anchor {self.anchor} must be kept")
        elif self.anchor is not None:
            raise StepConsistencyError(f"{self.op} step takes no anchor")


def a2_after_step(a2: AdjSquare, step: DeconstructionStep) -> AdjSquare:
    """Patch the common-neighbour matrix across one deconstruction move.

    Union: removed vertices see nothing in the kept part, plain submatrix.
    Join: every removed vertex was adjacent to every kept one, so every
    entry loses exactly |removed| common neighbours.
    Comparable: only pairs inside the removed vertex's neighbourhood lose
    it as a common neighbour (diagonal included: those degrees drop by 1).
    Clique: each clique vertex touched only the clique and the anchor, so
    only the anchor's degree entry drops, by |Q|.
    """
    n = a2.n
    # keep and removed are disjoint and duplicate-free, so they partition
    # 0..n-1 exactly when their sizes add up and both lie inside the range.
    lo, hi = min(step.keep[0], *step.removed), max(step.keep[-1], *step.removed)
    if len(step.keep) + len(step.removed) != n or lo < 0 or hi >= n:
        raise StepConsistencyError(
            f"step does not partition 0..{n - 1}: keep={step.keep} removed={step.removed}"
        )
    keep = np.asarray(step.keep, dtype=np.intp)
    sub = _submatrix(a2.matrix, keep, step.removed)
    if step.op == "join":
        sub -= len(step.removed)
    elif step.op == "comparable":
        pos = np.searchsorted(keep, np.asarray(step.neighbours, dtype=np.intp))
        sub[np.ix_(pos, pos)] -= 1
    elif step.op == "clique":
        z = int(np.searchsorted(keep, step.anchor))
        sub[z, z] -= len(step.removed)
    sub.setflags(write=False)
    return AdjSquare(sub)


def _submatrix(m: np.ndarray, keep: np.ndarray, removed: tuple[int, ...]) -> np.ndarray:
    """m[np.ix_(keep, keep)], where keep and removed partition m's indices.

    After a tail move only one to three indices go, so keep is a few runs
    of consecutive indices; copying one block per pair of runs is several
    times faster than gathering entry by entry.
    """
    if len(removed) > 3:
        return m[np.ix_(keep, keep)]
    gaps = [-1, *sorted(removed), m.shape[0]]
    runs, at = [], 0
    for a, b in zip(gaps, gaps[1:]):
        if b - a > 1:
            runs.append((slice(at, at + b - a - 1), slice(a + 1, b)))
            at += b - a - 1
    out = np.empty((at, at), dtype=m.dtype)
    for dst_rows, src_rows in runs:
        for dst_cols, src_cols in runs:
            out[dst_rows, dst_cols] = m[src_rows, src_cols]
    return out


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
    a2: AdjSquare  # A@A of the subgraph induced on labels, in label order
    alive: int  # labels as a bitmask
    connected: bool  # known to induce a connected subgraph


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

    verify_a2 recomputes the common-neighbour matrix from scratch after
    every incremental patch and fails loudly on any drift; the outcome's
    a2_checks counts how many comparisons ran.
    """
    masks = g.neighbour_masks
    checks = 0

    def patch(task: _Task, op: str, keep: np.ndarray, removed: list[int], **kw) -> AdjSquare:
        """A@A of the subgraph induced on task.labels[keep] (local positions)."""
        nonlocal checks
        a2 = a2_after_step(task.a2, DeconstructionStep(op, keep.tolist(), removed, **kw))
        if verify_a2:
            fresh = adjacency_square(g.induced(task.labels[keep].tolist()))
            if not np.array_equal(fresh.matrix, a2.matrix):
                raise StepConsistencyError(
                    "incrementally patched A@A drifted from the recomputed matrix"
                )
            checks += 1
        return a2

    def split(task: _Task, op: str, parts: list[int], wrappers: list[tuple]) -> None:
        # Parts arrive ordered by smallest vertex and are folded
        # left-associatively, so the first part must come off the stack first.
        stack.append(_Fold(Union if op == "union" else Join, len(parts), wrappers))
        children = []
        for part in parts:
            keep = np.searchsorted(task.labels, np.fromiter(iter_bits(part), np.intp))
            others = np.ones(len(task.labels), dtype=bool)
            others[keep] = False
            a2 = patch(task, op, keep, np.flatnonzero(others).tolist())
            children.append(_Task(task.labels[keep], a2, part, op == "union"))
        stack.extend(reversed(children))

    stack: list[_Task | _Fold] = [
        _Task(np.arange(g.n), adjacency_square(g), (1 << g.n) - 1, False)
    ]
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
            k = len(labels)
            if k == 1:
                done.append(_wrap(Leaf(int(labels[0])), wrappers))
                break
            if not task.connected:
                parts = mask_components(masks, task.alive)
                if len(parts) > 1:
                    split(task, "union", parts, wrappers)
                    break
                task.connected = True
            parts = mask_components(masks, task.alive, complement=True)
            if len(parts) > 1:
                split(task, "join", parts, wrappers)
                break
            pair = first_comparable(task.a2.matrix)
            if pair is not None:
                u, v = pair
                lu = int(labels[u])
                # u's row of the input graph's neighbour lists, built once
                # per graph (verify_sequence reads the same lists later).
                x = tuple(w for w in g.neighbours(lu) if task.alive >> w & 1)
                keep = np.delete(np.arange(k), u)
                nbrs = np.searchsorted(labels, x).tolist()
                a2 = patch(task, "comparable", keep, [u], neighbours=nbrs)
                wrappers.append((Comparable, lu, int(labels[v]), x))
                gone = 1 << lu
            else:
                found = pendant_clique(masks, labels.tolist(), task.alive)
                if found is None:
                    return RecognitionOutcome(
                        tree=None,
                        stuck=g.induced(labels.tolist()),
                        stuck_vertices=tuple(labels.tolist()),
                        a2_checks=checks,
                    )
                z, q = found
                pos = np.searchsorted(labels, q)
                keep = np.delete(np.arange(k), pos)
                anchor = int(np.searchsorted(labels, z))
                a2 = patch(task, "clique", keep, pos.tolist(), anchor=anchor)
                wrappers.append((CliqueAttach, z, q))
                gone = sum(1 << w for w in q)
            # A tail move: the smaller task replaces this one, still connected.
            task = _Task(labels[keep], a2, task.alive ^ gone, True)
    (tree,) = done
    return RecognitionOutcome(tree=tree, stuck=None, stuck_vertices=None, a2_checks=checks)

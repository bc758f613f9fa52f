"""Constructive recolouring over a build tree.

Three layers. rename moves between two colourings with the same colour
classes, touching each vertex at most twice. to_canonical walks a build tree
and drives any proper colouring to the canonical one, touching each vertex
at most 2n times. find_path concatenates a forward transformation with a
reversed one to connect two arbitrary proper colourings.

A step of a vertex that no hook watches is recorded directly.  The rest go
through one work stack that carries two kinds of hooks while the tree walk
is inside the relevant node.  A mirror keeps a comparable vertex locked to
its anchor: whenever the anchor moves, the twin immediately follows.  A
guard shields an attached clique: when the anchor is about to take colour
c, the one clique vertex holding c is evicted to a colour free on its
closed neighbourhood first.  Routing every hooked step through that stack
is what keeps nested hooks correct when inner renames touch an outer hook's
anchor.  Hooks are indexed by anchor, each anchor holding a stack of its
own, so a step pays only for the hooks on the vertex that moves.

Every rename, of two colourings, of a join's two sides or of an attached
clique, is one plan given a set of vertices and a map of colours: the plan
groups the vertices by the colour they hold and moves each class onto its
colour's image, at most twice per vertex.

to_canonical and find_path share one entry check (room in the working
palette, then each end proper and on it), which reads the certificate's
replay and so also its vertices in build order; find_path shares both
between its two halves.  A tree is replayed on the first call that reads it
and keeps that replay, so every later call on the same tree reuses it.  A
join reads its vertices as a slice of that order, and its rename maps the
palettes its two sides were made canonical over onto its own palette, so it
needs no further pass over the certificate.  The walk and the hooks keep
explicit work stacks, so tree depth never meets the recursion limit.  A
sequence is its initial colouring plus two int columns, the vertices and
their new colours: the walk, rename and the JSON reader fill them directly,
verification and serialisation read them, and a Step is made only when
.steps is read.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from ._util import Frozen, is_int
from .buildtree import (
    BuildTree,
    CliqueAttach,
    Comparable,
    Join,
    Leaf,
    Union,
    _replay,
)
from .colouring import Colouring, Palette, colouring_from_json, colouring_to_json
from .errors import ColouringError, PaletteError, PaletteTooSmallError, PartitionError
from .graph import Graph


class Step(NamedTuple):
    v: int
    c: int


def _as_steps(pairs: Iterable[tuple[int, int]]) -> tuple[Step, ...]:
    """Steps from (v, c) pairs of checked plain ints, made in C without
    NamedTuple's Python-level __new__."""
    return tuple(map(tuple.__new__, repeat(Step), pairs))


class RecolouringSequence(Frozen):
    """A start colouring plus single-vertex recolouring steps.

    The steps are kept as two columns of plain ints, step i moving vertex
    _vs[i] to colour _cs[i]; `steps` builds the Step tuples on first read.
    Instances are read-only, and compare, hash and print as the frozen pair
    (initial, steps).
    """

    def __init__(self, initial: Colouring, steps: Iterable[tuple[int, int]]):
        index = operator.index  # a float step is refused, not truncated
        vs: list[int] = []
        cs: list[int] = []
        for v, c in steps:
            vs.append(index(v))
            cs.append(index(c))
        self.__dict__.update(initial=initial, _vs=vs, _cs=cs)

    @classmethod
    def _from_columns(cls, initial: Colouring, vs: list[int], cs: list[int]) -> RecolouringSequence:
        """Take over two equally long lists of plain ints, unchecked."""
        seq = object.__new__(cls)
        seq.__dict__.update(initial=initial, _vs=vs, _cs=cs)
        return seq

    @cached_property
    def steps(self) -> tuple[Step, ...]:
        return _as_steps(zip(self._vs, self._cs))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.initial == other.initial and self._vs == other._vs and self._cs == other._cs

    def __hash__(self) -> int:
        # a Step hashes as the plain (v, c) tuple
        return hash((self.initial, tuple(zip(self._vs, self._cs))))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(initial={self.initial!r}, steps={self.steps!r})"

    def __len__(self) -> int:
        return len(self._vs)

    def final(self) -> Colouring:
        cur = list(self.initial.assignment)
        for v, c in zip(self._vs, self._cs):
            cur[v] = c
        return Colouring(tuple(cur), self.initial.palette)

    def recolour_counts(self) -> dict[int, int]:
        return dict(Counter(self._vs))


@dataclass(frozen=True)
class SequenceReport:
    valid: bool
    length: int
    max_recolourings: int
    first_invalid_step: int | None = None
    reason: str | None = None


def _rename_plan(
    verts: Iterable[int],
    colour: Sequence[int],
    to: dict[int, int],
    palette: Iterable[int],
    move: Callable[[list[int], int], None],
):
    """Move each colour class of verts to its colour's image under to, ≤ 2
    moves per vertex; move(cls, c) moves the vertices of cls to c in order.

    Classes are verts grouped by colour[v], each class ascending, classes
    ordered by their smallest vertex.  Requires to to be injective on the
    colours held, every colour inside palette, and |palette| > the number of
    classes; the headroom colour breaks cycles of mutually blocked classes.
    Class j blocks class i when it holds i's target, and since holders and
    wanters are unique per colour the blocking relation is a disjoint set of
    paths and cycles.
    """
    classes: dict[int, list[int]] = {}
    for v in sorted(verts):
        classes.setdefault(colour[v], []).append(v)
    held = set(classes)
    # The classes that must move, by the colour they hold, in class order,
    # with their targets; a class leaves when it lands on its target.
    pending = {c: to[c] for c in classes if to[c] != c}
    wants = {t: c for c, t in pending.items()}

    def land(c: int) -> int | None:
        """Move the class holding c onto its free target; the class that
        wants c next, if any."""
        t = pending.pop(c)
        move(classes[c], t)
        held.remove(c)
        held.add(t)
        return wants.get(c)

    # Unblocked classes first: moving one frees its old colour, which may
    # unblock the class wanting exactly that colour, and so on down the path.
    for c in list(pending):
        while c in pending and pending[c] not in held:
            c = land(c)
    # Only cycles remain.  Park the first class of a cycle on the smallest
    # colour absent from the whole current colouring, walk the rest of the
    # cycle, then land the parked class on its now-free target.
    while pending:
        c0, t0 = next(iter(pending.items()))
        spare = min(x for x in palette if x not in held)
        del pending[c0]
        move(classes[c0], spare)
        held.remove(c0)
        held.add(spare)
        c = wants.get(c0)
        while c in pending:
            c = land(c)
        move(classes[c0], t0)
        held.remove(spare)
        held.add(t0)


def rename(alpha: Colouring, beta: Colouring, S: Palette) -> RecolouringSequence:
    """Transform alpha into beta when they induce the same colour classes."""
    if alpha.n != beta.n:
        raise PartitionError(f"colourings cover {alpha.n} and {beta.n} vertices")
    part_a = alpha.colour_classes()
    if set(part_a.values()) != set(beta.colour_classes().values()):
        raise PartitionError("colourings do not share their colour classes")
    _check_on_palette(set(alpha.assignment) | set(beta.assignment), S)
    if len(S) <= len(part_a):
        raise PaletteTooSmallError(
            f"renaming {len(part_a)} classes needs more than {len(S)} colours"
        )
    vs: list[int] = []
    cs: list[int] = []

    def move(cls: list[int], c: int):
        # Without hooks each class holds one colour, never its destination,
        # so every vertex of it makes a step.
        vs.extend(cls)
        cs.extend(repeat(c, len(cls)))

    _rename_plan(
        range(alpha.n), alpha.assignment, dict(zip(alpha.assignment, beta.assignment)), S, move
    )
    return RecolouringSequence._from_columns(Colouring(alpha.assignment, S), vs, cs)


def to_canonical(
    t: BuildTree, alpha: Colouring, S: Palette, C: Palette | Sequence[int]
) -> RecolouringSequence:
    """Drive alpha to the canonical colouring over C, ≤ 2n moves per vertex.

    The walk mirrors the tree.  Union sides are independent.  Join sides are
    first confined to disjoint sub-palettes (the side already using more than
    its share of colours goes first, freeing one up for the other), made
    canonical locally, then one rename lands the prescribed palette split.
    A comparable vertex snaps to its anchor and mirrors it afterwards.  An
    attached clique is guarded while the rest is processed, then renamed onto
    the colours the canonical rule assigns it.
    """
    order = _start(t, S, alpha)
    cpal = C if isinstance(C, Palette) else Palette(tuple(C))
    if len(cpal) != t.chi:
        raise PaletteError(f"target palette needs exactly {t.chi} colours, got {len(cpal)}")
    stray = [c for c in cpal if c not in S]
    if stray:
        raise PaletteError(f"target colours {stray} outside working palette {S.colours}")
    vs, cs, _ = _walk(t, order, alpha, S, cpal.colours)
    return RecolouringSequence._from_columns(Colouring(alpha.assignment, S), vs, cs)


def _check_on_palette(colours: Iterable[int], S: Palette) -> None:
    for col in colours:
        if col not in S:
            raise PaletteError(f"colour {col} outside working palette {S.colours}")


def _start(t: BuildTree, S: Palette, *ends: Colouring) -> tuple[int, ...]:
    """The build order of t, once S has room for a walk and each end is a
    proper colouring of t's graph over S."""
    if len(S) < t.chi + 1:
        raise PaletteTooSmallError(f"need at least {t.chi + 1} working colours, got {len(S)}")
    g, order = _replay(t)
    for end, name in zip(ends, ("starting", "target")):
        if not end.is_proper(g):  # raises if end covers other than g.n vertices
            raise ColouringError(f"{name} colouring is not proper")
        _check_on_palette(set(end.assignment), S)
    return order


def _walk(
    t: BuildTree,
    order: tuple[int, ...],
    alpha: Colouring,
    S: Palette,
    c_root: tuple[int, ...],
) -> tuple[list[int], list[int], list[int]]:
    """The steps of to_canonical, for a start and palettes already checked,
    as three int columns: step i moves vertex vs[i] from colour ps[i] to
    cs[i].  order is the tree's build order."""
    n = alpha.n
    state = list(alpha.assignment)
    vs: list[int] = []
    cs: list[int] = []
    ps: list[int] = []
    # Per anchor, outermost hook first: the twins that mirror it, and the
    # guarded cliques with their evasion palettes.
    mirrors: list[list[int]] = [[] for _ in range(n)]
    guards: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = [[] for _ in range(n)]

    def recolour(verts: Iterable[int], c: int):
        """Move each of verts to c in turn, each once its predecessor's
        hooks have all fired."""
        for v in verts:
            if state[v] == c:
                continue
            if mirrors[v] or guards[v]:
                hooked(v, c)
                continue
            vs.append(v)
            cs.append(c)
            ps.append(state[v])
            state[v] = c

    def hooked(v: int, c: int):
        # Moves to make, next one last, as (v, c, hook): hook None moves v
        # to c, a guard (Q, palette) of v runs before v takes c, and () makes
        # the step.  Guards and twins go on top, so they finish first.
        todo: list[tuple[int, int, Any]] = [(v, c, None)]
        pop, push = todo.pop, todo.append
        while todo:
            v, c, hook = pop()
            if hook is None:
                if state[v] == c:
                    continue
                if guards[v]:
                    push((v, c, ()))
                    # innermost guard last, so it runs first
                    todo.extend([(v, c, guard) for guard in guards[v]])
                    continue
            elif hook:
                # Evict the clique vertex that clashes with the colour its
                # anchor v is about to take.  Only neighbours inside the
                # guard's own scope constrain the evasion colour; clashes with
                # enclosing scopes resolve through their own guards and mirrors.
                q_verts, avail = hook
                clash = [q for q in q_verts if state[q] == c]
                if clash:
                    q = min(clash)
                    blocked = {state[x] for x in q_verts if x != q} | {state[v], c}
                    push((q, min(x for x in avail if x not in blocked), None))
                continue
            vs.append(v)
            cs.append(c)
            ps.append(state[v])
            state[v] = c
            # A twin follows its anchor, outermost mirror first, cascading.
            for twin in reversed(mirrors[v]):
                push((twin, c, None))

    def walk(node: BuildTree, lo: int, s_node: tuple[int, ...], c_node: tuple[int, ...]):
        """Make the subtree at node, from order[lo], canonical over c_node[: node.chi]."""
        if isinstance(node, Leaf):
            recolour((node.v,), c_node[0])
        elif isinstance(node, Union):
            mid = lo + node.left.verts.bit_count()
            work.append((walk, node.right, mid, s_node, c_node))
            work.append((walk, node.left, lo, s_node, c_node))
        elif isinstance(node, Join):
            left, right = node.left, node.right
            mid = lo + left.verts.bit_count()
            hi = mid + right.verts.bit_count()
            used_l = set(map(state.__getitem__, order[lo:mid]))
            used_r = set(map(state.__getitem__, order[mid:hi]))
            c_left = tuple(sorted(used_l)[: left.chi])
            c_right = tuple(sorted(used_r)[: right.chi])
            sides = [(left, lo, used_l, c_left), (right, mid, used_r, c_right)]
            if len(used_l) == left.chi and len(used_r) > right.chi:
                sides.reverse()
            # Hooks only move vertices added above their anchor, so a side's
            # walk moves no vertex of the other side and leaves its own on
            # exactly c_side: both palettes follow from the colours held now.
            held = used_l | used_r
            walks = []
            for idx, (side, side_lo, used, c_side) in enumerate(sides):
                s_side = set(used)
                if idx == 1 or len(used) == side.chi:
                    # a colour no vertex of the whole join holds
                    s_side.add(min(x for x in s_node if x not in held))
                walks.append((walk, side, side_lo, tuple(sorted(s_side)), c_side))
                held = set(c_side) | sides[1][2]
            # Both sides end canonical over side-local palettes, so the join
            # already has the canonical colour classes; one rename fixes their
            # names, the canonical rule splitting c_node as left then right.
            to = dict(zip(c_left + c_right, c_node))
            work.append((_rename_plan, order[lo:hi], state, to, s_node, recolour))
            work.extend(reversed(walks))
        elif isinstance(node, Comparable):
            recolour((node.u,), state[node.v])
            mirrors[node.v].append(node.u)
            work.append((mirrors[node.v].pop,))
            work.append((walk, node.child, lo, s_node, c_node))
        else:
            guards[node.z].append((node.Q, s_node))
            work.append((clique_done, node, s_node, c_node))
            work.append((walk, node.child, lo, s_node, c_node))

    def clique_done(node: CliqueAttach, s_node: tuple[int, ...], c_node: tuple[int, ...]):
        guards[node.z].pop()
        cstar = state[node.z]
        to = dict(zip([state[q] for q in node.Q], (c for c in c_node if c != cstar)))
        _rename_plan(node.Q, state, to, tuple(x for x in s_node if x != cstar), recolour)

    # Each entry is a function and its arguments, the next one last.
    work: list[tuple[Any, ...]] = [(walk, t, 0, S.colours, c_root)]
    while work:
        fn, *args = work.pop()
        fn(*args)
    # walk refers to itself through its closure cell; without this the
    # mirror and guard lists would wait for the cyclic collector.
    del walk
    return vs, cs, ps


def find_path(
    t: BuildTree, alpha: Colouring, beta: Colouring, S: Palette
) -> RecolouringSequence:
    """A proper-step sequence from alpha to beta of length ≤ 4n².

    Route both endpoints to the canonical colouring over the first chi
    colours of S, then traverse the second sequence backwards, each reversed
    step restoring the colour its vertex held before the original step.
    Mutually undoing steps at the junction are peeled off.  Both halves
    share one replay of the certificate and one build order.
    """
    order = _start(t, S, alpha, beta)
    c_root = S.colours[: t.chi]
    fv, fc, fp = _walk(t, order, alpha, S, c_root)
    bv, _, bp = _walk(t, order, beta, S, c_root)
    # Peel the junction: the last kept forward step and the first kept
    # reversed step cancel when the reversed one puts the same vertex back on
    # the colour the forward one replaced.  f and b steps of each half stay.
    f, b = len(fv), len(bv)
    while f and b and fv[f - 1] == bv[b - 1] and fp[f - 1] == bp[b - 1]:
        f -= 1
        b -= 1
    # The kept forward steps, then the kept backward ones last to first.
    del fv[f:], fc[f:], bv[b:], bp[b:]
    bv.reverse()
    bp.reverse()
    fv += bv
    fc += bp
    return RecolouringSequence._from_columns(Colouring(alpha.assignment, S), fv, fc)


def verify_sequence(g: Graph, seq: RecolouringSequence) -> SequenceReport:
    """Replay a sequence against a graph, checking every step.

    Valid means: the initial colouring is proper, every step changes exactly
    one vertex to a different palette colour, and properness holds after
    every step.  The report carries the first offending step index (None if
    the initial colouring itself is at fault).

    Each palette colour keeps a bitmask of the vertices holding it, so a
    step costs one AND of two n-bit masks: the moving vertex's neighbours
    and the holders of its new colour.
    """
    n = g.n
    counts = [0] * n

    def report(valid: bool, idx: int | None = None, reason: str | None = None) -> SequenceReport:
        return SequenceReport(valid, len(seq), max(counts), idx, reason)

    if seq.initial.n != n:
        return report(False, None, f"initial covers {seq.initial.n} vertices, graph has {n}")
    if not seq.initial.is_proper(g):
        return report(False, None, "initial colouring is not proper")
    pal = seq.initial.palette
    cur = list(seq.initial.assignment)
    held = dict.fromkeys(pal.colours, 0)
    for v, c in enumerate(cur):
        held[c] |= 1 << v
    masks = g.neighbour_masks
    for idx, (v, c) in enumerate(zip(seq._vs, seq._cs)):
        if not 0 <= v < n:
            return report(False, idx, f"vertex {v} out of range")
        if c not in held:
            return report(False, idx, f"colour {c} outside palette {pal.colours}")
        old = cur[v]
        if old == c:
            return report(False, idx, f"step does not change vertex {v}")
        cur[v] = c
        counts[v] += 1
        if masks[v] & held[c]:
            return report(False, idx, f"recolouring vertex {v} to {c} breaks properness")
        bit = 1 << v
        held[old] ^= bit
        held[c] |= bit
    return report(True)


def sequence_to_json(seq: RecolouringSequence) -> dict[str, Any]:
    return {
        "initial": colouring_to_json(seq.initial),
        "steps": [{"v": v, "c": c} for v, c in zip(seq._vs, seq._cs)],
    }


def sequence_from_json(obj: Any) -> RecolouringSequence:
    if not isinstance(obj, dict):
        raise ColouringError(f"sequence JSON must be an object, got {type(obj).__name__}")
    extra = set(obj) - {"initial", "steps"}
    if extra:
        raise ColouringError(f"unexpected sequence keys: {sorted(extra)}")
    if "initial" not in obj or "steps" not in obj:
        raise ColouringError("sequence JSON needs 'initial' and 'steps'")
    initial = colouring_from_json(obj["initial"])
    raw = obj["steps"]
    if not isinstance(raw, list):
        raise ColouringError("sequence steps must be a list")
    vs: list[int] = []
    cs: list[int] = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or set(item) != {"v", "c"}:
            raise ColouringError(f"step {i} must be an object with keys 'v' and 'c'")
        v, c = item["v"], item["c"]
        if not (is_int(v) and is_int(c)):
            raise ColouringError(f"step {i} fields must be integers")
        vs.append(v)
        cs.append(c)
    return RecolouringSequence._from_columns(initial, vs, cs)

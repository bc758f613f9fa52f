import dataclasses
import gc
import hashlib
import json
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oatgraph import (
    CliqueAttach,
    Colouring,
    ColouringError,
    Graph,
    Join,
    Leaf,
    MalformedTreeError,
    Palette,
    PaletteError,
    PaletteTooSmallError,
    PartitionError,
    RecolouringSequence,
    SequenceReport,
    Step,
    Union,
    build_reconfig,
    canonical_colouring,
    chi_omega,
    classic,
    find_path,
    p4_sparse_third_op,
    random_colouring,
    random_oat,
    recognize,
    rename,
    replay,
    sequence_from_json,
    sequence_to_json,
    to_canonical,
    tree_from_json,
    tree_to_json,
    validate,
    verify_sequence,
)
from oatgraph import buildtree, recolouring

from conftest import ladder_tree, moved_colouring, path_tree
from test_recolouring_golden import GOLDEN, digest as golden_digest, shared_anchor_tree

S3 = Palette((1, 2, 3))
S4 = Palette((1, 2, 3, 4))


def permuted_classes(alpha: Colouring, S: Palette, seed: int) -> Colouring:
    """Same colour classes as alpha, classes renamed by a seeded injection."""
    rng = random.Random(f"perm-{seed}")
    classes = alpha.colour_classes()
    targets = rng.sample(sorted(S.colours), len(classes))
    mapping = dict(zip(sorted(classes), targets))
    return Colouring(tuple(mapping[c] for c in alpha.assignment), S)


class TestRename:
    def test_identity_is_empty(self):
        a = Colouring((1, 2), S3)
        assert len(rename(a, a, S3)) == 0

    def test_swap_on_edge(self):
        a = Colouring((1, 2), S3)
        b = Colouring((2, 1), S3)
        seq = rename(a, b, S3)
        assert list(seq.steps) == [(0, 3), (1, 1), (0, 2)]
        assert seq.final() == b

    def test_rotation_on_triangle_breaks_cycle_once(self):
        a = Colouring((1, 2, 3), S4)
        b = Colouring((2, 3, 1), S4)
        seq = rename(a, b, S4)
        assert len(seq) == 4
        assert seq.final() == b
        counts = seq.recolour_counts()
        assert sorted(counts.values()) == [1, 1, 2]
        rep = verify_sequence(classic("complete", 3), seq)
        assert rep.valid and rep.max_recolourings == 2

    def test_rejects_partition_mismatch(self):
        with pytest.raises(PartitionError):
            rename(Colouring((1, 1), S3), Colouring((1, 2), S3), S3)

    def test_rejects_tight_palette(self):
        a = Colouring((1, 2), S3)
        b = Colouring((2, 1), S3)
        with pytest.raises(PaletteTooSmallError):
            rename(a, b, Palette((1, 2)))

    def test_rejects_stray_colours(self):
        a = Colouring((1, 2), S3)
        b = Colouring((2, 4), S4)
        with pytest.raises(PaletteError):
            rename(a, b, S3)

    @given(st.integers(2, 10), st.integers(0, 300), st.integers(0, 50))
    @settings(max_examples=120, deadline=None)
    def test_random_class_permutations(self, n, seed, perm_seed):
        t = random_oat(n, seed)
        g = replay(t)
        chi, _ = chi_omega(t)
        S = Palette.default(chi + 1)
        a = random_colouring(g, S, seed)
        classes = len(a.colour_classes())
        wide = Palette.default(classes + 1)
        a = Colouring(a.assignment, wide)
        b = permuted_classes(a, wide, perm_seed)
        seq = rename(a, b, wide)
        rep = verify_sequence(g, seq)
        assert rep.valid, (rep.reason, rep.first_invalid_step)
        assert seq.final().assignment == b.assignment
        assert rep.max_recolourings <= 2


class TestToCanonical:
    def test_join_example(self):
        t = Join(Leaf(0), Leaf(1))
        seq = to_canonical(t, Colouring((2, 3), S3), S3, Palette((1, 2)))
        assert seq.final().assignment == (1, 2)
        assert verify_sequence(replay(t), seq).valid

    def test_clique_example(self):
        t = CliqueAttach(Leaf(0), 0, (1, 2))
        seq = to_canonical(t, Colouring((3, 1, 2), S4), S4, Palette((1, 2, 3)))
        assert seq.final().assignment == (1, 2, 3)
        rep = verify_sequence(replay(t), seq)
        assert rep.valid and rep.max_recolourings <= 6

    def test_already_canonical_is_stable(self):
        t = Join(Leaf(0), Leaf(1))
        gamma = canonical_colouring(t, Palette((1, 2)))
        seq = to_canonical(t, Colouring(gamma.assignment, S3), S3, Palette((1, 2)))
        assert seq.final().assignment == gamma.assignment

    def test_rejects_improper_start(self):
        t = Join(Leaf(0), Leaf(1))
        with pytest.raises(ColouringError):
            to_canonical(t, Colouring((1, 1), S3), S3, Palette((1, 2)))

    def test_rejects_tight_working_palette(self):
        t = Join(Leaf(0), Leaf(1))
        with pytest.raises(PaletteTooSmallError):
            to_canonical(t, Colouring((1, 2), Palette((1, 2))), Palette((1, 2)), Palette((1, 2)))

    def test_rejects_wrong_target_size(self):
        t = Join(Leaf(0), Leaf(1))
        with pytest.raises(PaletteError):
            to_canonical(t, Colouring((1, 2), S3), S3, Palette((1, 2, 3)))

    def test_checks_palette_room_before_the_start(self):
        # as find_path does: an improper start on a tight palette is refused for the palette
        t = Join(Leaf(0), Leaf(1))
        S2 = Palette((1, 2))
        with pytest.raises(PaletteTooSmallError):
            to_canonical(t, Colouring((1, 1), S2), S2, S2)

    @given(st.integers(1, 12), st.integers(0, 300), st.integers(0, 20))
    @settings(max_examples=150, deadline=None)
    def test_lands_on_canonical_within_budget(self, n, seed, col_seed):
        t = random_oat(n, seed)
        g = replay(t)
        chi, _ = chi_omega(t)
        S = Palette.default(chi + 1)
        alpha = random_colouring(g, S, col_seed)
        seq = to_canonical(t, alpha, S, S.prefix(chi))
        rep = verify_sequence(g, seq)
        assert rep.valid, (rep.reason, rep.first_invalid_step)
        assert rep.max_recolourings <= 2 * n
        assert seq.final().assignment == canonical_colouring(t, S.prefix(chi)).assignment


class TestFindPath:
    def test_swap_on_edge(self):
        t = recognize(classic("path", 2)).tree
        a = Colouring((1, 2), S3)
        b = Colouring((2, 1), S3)
        seq = find_path(t, a, b, S3)
        assert list(seq.steps) == [(0, 3), (1, 1), (0, 2)]
        assert seq.final() == b

    def test_identical_endpoints_cancel_fully(self):
        t = recognize(classic("path", 4)).tree
        a = Colouring((1, 2, 1, 2), S3)
        assert len(find_path(t, a, a, S3)) == 0

    def test_rejects_tight_palette(self):
        t = recognize(classic("path", 2)).tree
        a = Colouring((1, 2), Palette((1, 2)))
        with pytest.raises(PaletteTooSmallError):
            find_path(t, a, a, Palette((1, 2)))

    @given(st.integers(2, 10), st.integers(0, 300), st.integers(0, 20))
    @settings(max_examples=120, deadline=None)
    def test_valid_on_target_within_budget(self, n, seed, col_seed):
        t = random_oat(n, seed)
        g = replay(t)
        chi, _ = chi_omega(t)
        S = Palette.default(chi + 1)
        a = random_colouring(g, S, col_seed * 2)
        b = random_colouring(g, S, col_seed * 2 + 1)
        seq = find_path(t, a, b, S)
        rep = verify_sequence(g, seq)
        assert rep.valid, (rep.reason, rep.first_invalid_step)
        assert seq.initial.assignment == a.assignment
        assert seq.final().assignment == b.assignment
        assert len(seq) <= 4 * n * n

    def test_never_shorter_than_oracle_distance(self):
        for n, seed in ((3, 0), (4, 1), (5, 2), (6, 3)):
            t = random_oat(n, seed)
            g = replay(t)
            chi, _ = chi_omega(t)
            S = Palette.default(chi + 1)
            r = build_reconfig(g, S)
            a = random_colouring(g, S, seed)
            b = random_colouring(g, S, seed + 99)
            seq = find_path(t, a, b, S)
            assert len(seq) >= r.distance(a, b)

    def test_rejects_improper_end(self):
        t = recognize(classic("path", 3)).tree
        with pytest.raises(ColouringError):
            find_path(t, Colouring((1, 2, 1), S3), Colouring((1, 1, 2), S3), S3)

    @pytest.mark.parametrize("short_end", ["alpha", "beta"])
    def test_rejects_end_of_wrong_length(self, short_end):
        t = recognize(classic("path", 3)).tree
        ends = {"alpha": Colouring((1, 2, 1), S3), "beta": Colouring((1, 2, 1), S3)}
        ends[short_end] = Colouring((1, 2), S3)
        with pytest.raises(ColouringError, match=r"^colouring covers 2 vertices, graph has 3$"):
            find_path(t, ends["alpha"], ends["beta"], S3)

    def test_rejects_end_outside_working_palette(self):
        t = recognize(classic("path", 2)).tree
        with pytest.raises(PaletteError):
            find_path(t, Colouring((1, 2), S3), Colouring((1, 4), S4), S3)


def reversed_half(seq: RecolouringSequence) -> list[Step]:
    """seq's steps backwards, each restoring the colour its vertex held
    before the step."""
    cur = list(seq.initial.assignment)
    back = []
    for v, c in seq.steps:
        back.append(Step(v, cur[v]))
        cur[v] = c
    return back[::-1]


class TestJunctionPeel:
    """find_path is the forward half with its last `cut` steps dropped,
    then the reversed backward half without its first `cut`, where `cut`
    counts the junction steps peeled as mutually undoing."""

    @pytest.mark.parametrize(
        "tree, extra, seed",
        [
            pytest.param(shared_anchor_tree, 2, 2, id="shared_anchor-2"),
            pytest.param(shared_anchor_tree, 2, 3, id="shared_anchor-3"),
            pytest.param(lambda: path_tree(40), 1, 1, id="path_40-1"),
            pytest.param(lambda: path_tree(40), 1, 2, id="path_40-2"),
        ],
    )
    def test_halves_meet_at_the_peeled_junction(self, tree, extra, seed, moved):
        t = tree()
        g = replay(t)
        chi = chi_omega(t)[0]
        S = Palette.default(chi + extra)
        alpha = moved(t, g, S, f"peel-a-{seed}", 4 * g.n)
        beta = moved(t, g, S, f"peel-b-{seed}", 4 * g.n)
        fwd = to_canonical(t, alpha, S, S.prefix(chi))
        bwd = to_canonical(t, beta, S, S.prefix(chi))
        back = reversed_half(bwd)
        pre = [step.c for step in reversed_half(fwd)][::-1]  # colour each step replaced
        cut = 0
        f = len(fwd)
        while f > cut and cut < len(back):
            nxt = back[cut]
            if fwd.steps[f - 1 - cut].v != nxt.v or pre[f - 1 - cut] != nxt.c:
                break
            cut += 1
        assert cut > 0
        seq = find_path(t, alpha, beta, S)
        assert list(seq.steps) == list(fwd.steps[: f - cut]) + back[cut:]
        assert len(seq) == len(fwd) + len(bwd) - 2 * cut
        assert verify_sequence(g, seq).valid and seq.final() == beta


def canonical_and_swapped(t, S: Palette) -> tuple[Colouring, Colouring]:
    """t's canonical colouring over the first chi colours of S, and the same
    colouring with colours 1 and 2 swapped: chi classes, so rename has room."""
    canon = canonical_colouring(t, S.prefix(chi_omega(t)[0])).assignment
    swapped = tuple({1: 2, 2: 1}.get(c, c) for c in canon)
    return Colouring(canon, S), Colouring(swapped, S)


def all_steps_of(t, S: Palette) -> list[tuple[str, RecolouringSequence]]:
    g = replay(t)
    chi = chi_omega(t)[0]
    alpha = moved_colouring(t, g, S, "types-a", 4 * g.n)
    beta = moved_colouring(t, g, S, "types-b", 4 * g.n)
    return [
        ("find_path", find_path(t, alpha, beta, S)),
        ("to_canonical", to_canonical(t, alpha, S, S.colours[-chi:])),
        ("rename", rename(*canonical_and_swapped(t, S), S)),
    ]


@pytest.mark.parametrize(
    "tree",
    [
        pytest.param(shared_anchor_tree, id="shared_anchor"),
        pytest.param(lambda: random_oat(40, 3), id="random_oat_40_3"),
        pytest.param(
            lambda: Join(Union(Leaf(np.int64(0)), Leaf(np.int64(2))), Leaf(np.int64(1))),
            id="numpy_labels",
        ),
    ],
)
def test_every_step_is_a_step_of_plain_ints(tree):
    t = tree()
    S = Palette(tuple(np.arange(1, chi_omega(t)[0] + 3)))
    for name, seq in all_steps_of(t, S):
        assert len(seq) > 0, name
        for step in seq.steps:
            assert type(step) is Step and type(step.v) is int and type(step.c) is int, name


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda t, a, b, S: find_path(t, a, b, S), id="find_path"),
        pytest.param(lambda t, a, b, S: to_canonical(t, a, S, S.colours[1:]), id="to_canonical"),
        pytest.param(lambda t, a, b, S: rename(*canonical_and_swapped(t, S), S), id="rename"),
        pytest.param(lambda t, a, b, S: recognize(replay(t)), id="recognize"),
        pytest.param(lambda t, a, b, S: replay(t), id="replay"),
        pytest.param(lambda t, a, b, S: tree_from_json(tree_to_json(t)), id="tree_json"),
    ],
)
def test_leaves_no_cyclic_garbage(call, moved):
    """Each call frees everything it made by reference counting alone, so
    no walk waits for the cyclic collector."""
    t = random_oat(200, 0)
    g = replay(t)
    S = Palette.default(chi_omega(t)[0] + 1)
    alpha, beta = moved(t, g, S, "gc-a", 4 * g.n), moved(t, g, S, "gc-b", 4 * g.n)
    gc.collect()
    gc.disable()
    try:
        call(t, alpha, beta, S)
        assert gc.collect() == 0
    finally:
        gc.enable()


EDGE = Join(Leaf(0), Leaf(1))  # chi = 2
S2 = Palette((1, 2))
OFF = "colour 4 outside working palette (1, 2, 3)"
SHORT = "colouring covers 1 vertices, graph has 2"
TIGHT = "need at least 3 working colours, got 2"


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: rename(Colouring((1, 2), S3), Colouring((2, 1), S3), S2),
            PaletteTooSmallError,
            "renaming 2 classes needs more than 2 colours",
            id="rename-tight",
        ),
        pytest.param(
            lambda: rename(Colouring((1, 2), S3), Colouring((2,), S3), S3),
            PartitionError,
            "colourings cover 2 and 1 vertices",
            id="rename-length",
        ),
        pytest.param(
            lambda: rename(Colouring((1, 4), S4), Colouring((4, 1), S4), S3),
            PaletteError,
            OFF,
            id="rename-off-palette",
        ),
        pytest.param(
            lambda: rename(Colouring((1, 1), S3), Colouring((1, 2), S3), S3),
            PartitionError,
            "colourings do not share their colour classes",
            id="rename-classes",
        ),
        pytest.param(
            lambda: to_canonical(EDGE, Colouring((1, 2), S2), S2, S2),
            PaletteTooSmallError,
            TIGHT,
            id="to_canonical-tight",
        ),
        pytest.param(
            lambda: to_canonical(EDGE, Colouring((1, 1), S3), S3, S2),
            ColouringError,
            "starting colouring is not proper",
            id="to_canonical-improper",
        ),
        pytest.param(
            lambda: to_canonical(EDGE, Colouring((1,), S3), S3, S2),
            ColouringError,
            SHORT,
            id="to_canonical-length",
        ),
        pytest.param(
            lambda: to_canonical(EDGE, Colouring((1, 4), S4), S3, S2),
            PaletteError,
            OFF,
            id="to_canonical-off-palette",
        ),
        pytest.param(
            lambda: to_canonical(EDGE, Colouring((1, 2), S3), S3, S3),
            PaletteError,
            "target palette needs exactly 2 colours, got 3",
            id="to_canonical-target-size",
        ),
        pytest.param(
            lambda: to_canonical(EDGE, Colouring((1, 2), S3), S3, Palette((1, 4))),
            PaletteError,
            "target colours [4] outside working palette (1, 2, 3)",
            id="to_canonical-target-off-palette",
        ),
        pytest.param(
            lambda: find_path(EDGE, Colouring((1, 2), S2), Colouring((2, 1), S2), S2),
            PaletteTooSmallError,
            TIGHT,
            id="find_path-tight",
        ),
        pytest.param(
            lambda: find_path(EDGE, Colouring((1, 1), S3), Colouring((1, 2), S3), S3),
            ColouringError,
            "starting colouring is not proper",
            id="find_path-improper-alpha",
        ),
        pytest.param(
            lambda: find_path(EDGE, Colouring((1, 2), S3), Colouring((2, 2), S3), S3),
            ColouringError,
            "target colouring is not proper",
            id="find_path-improper-beta",
        ),
        pytest.param(
            lambda: find_path(EDGE, Colouring((1,), S3), Colouring((1, 2), S3), S3),
            ColouringError,
            SHORT,
            id="find_path-length-alpha",
        ),
        pytest.param(
            lambda: find_path(EDGE, Colouring((1, 2), S3), Colouring((1,), S3), S3),
            ColouringError,
            SHORT,
            id="find_path-length-beta",
        ),
        pytest.param(
            lambda: find_path(EDGE, Colouring((1, 4), S4), Colouring((1, 2), S3), S3),
            PaletteError,
            OFF,
            id="find_path-off-palette-alpha",
        ),
        pytest.param(
            lambda: find_path(EDGE, Colouring((1, 2), S3), Colouring((4, 1), S4), S3),
            PaletteError,
            OFF,
            id="find_path-off-palette-beta",
        ),
    ],
)
def test_single_fault_refusal(call, error, message):
    """Each single fault of a walk's or rename's input raises its own type
    with its exact message."""
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


class TestOneCertificatePass:
    """find_path and to_canonical replay the certificate once per call,
    however many joins the walk renames."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"replay": 0}

        def counting(*args):
            calls["replay"] += 1
            return buildtree._replay(*args)

        monkeypatch.setattr(recolouring, "_replay", counting)
        return calls

    @pytest.fixture
    def walk_input(self, moved):
        t = random_oat(40, 3)
        g = replay(t)
        S = Palette.default(chi_omega(t)[0] + 1)
        return t, moved(t, g, S, "one-pass-a", 4 * g.n), moved(t, g, S, "one-pass-b", 4 * g.n), S

    def test_find_path(self, walk_input, counted):
        t, alpha, beta, S = walk_input
        assert len(find_path(t, alpha, beta, S)) > 0
        assert counted == {"replay": 1}

    def test_to_canonical(self, walk_input, counted):
        t, alpha, _, S = walk_input
        chi = len(S) - 1
        assert len(to_canonical(t, alpha, S, S.colours[-chi:])) > 0
        assert counted == {"replay": 1}


class TestStoredReplay:
    """A tree keeps its first successful replay, so later calls on it apply
    no operation again; a pickled copy carries no kept replay and replays
    afresh, so it gives what a first call gives."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"ops": 0}

        def counting(apply):
            def counted_apply(node, nbrs):
                calls["ops"] += 1
                return apply(node, nbrs)

            return counted_apply

        for cls in (Leaf, Union, Join, buildtree.Comparable, CliqueAttach):
            monkeypatch.setattr(cls, "_apply", counting(cls._apply))
        return calls

    @pytest.fixture
    def walk_input(self, moved):
        t = random_oat(40, 3)
        g = replay(t)
        S = Palette.default(chi_omega(t)[0] + 1)
        alpha, beta = (moved(t, g, S, seed, 4 * g.n) for seed in ("kept-a", "kept-b"))
        return pickle.loads(pickle.dumps(t)), g, alpha, beta, S

    def calls(self, g, alpha, beta, S):
        chi = len(S) - 1
        return {
            "find_path": lambda tree: find_path(tree, alpha, beta, S),
            "to_canonical": lambda tree: to_canonical(tree, alpha, S, S.colours[-chi:]),
            "validate": lambda tree: validate(tree, g),
            "replay": replay,
        }

    @pytest.mark.parametrize("name", ["find_path", "to_canonical", "validate", "replay"])
    def test_a_second_call_replays_nothing(self, walk_input, counted, name):
        t, *rest = walk_input
        call = self.calls(*rest)[name]
        first = call(t)
        ops = counted["ops"]
        assert ops == len(list(buildtree.walk_postorder(t)))
        second = call(t)
        assert counted["ops"] == ops
        assert second == first == call(pickle.loads(pickle.dumps(t)))
        assert counted["ops"] == 2 * ops  # the copy replays afresh

    def test_every_call_after_the_first_reads_the_kept_replay(self, walk_input, counted):
        t, *rest = walk_input
        calls = self.calls(*rest)
        replay(t)
        ops = counted["ops"]
        results = {name: call(t) for name, call in calls.items()}
        assert counted["ops"] == ops
        fresh = pickle.loads(pickle.dumps(t))
        assert results == {name: call(fresh) for name, call in calls.items()}

    @pytest.mark.parametrize(
        "tree",
        [
            # X = [1] is no neighbour of the anchor 0
            buildtree.Comparable(Union(Leaf(0), Leaf(1)), u=2, v=0, X=[1]),
            # vertices 0 and 2, not 0..1
            Union(Leaf(0), Leaf(2)),
        ],
        ids=["x_outside_anchor", "gap_in_labels"],
    )
    def test_a_malformed_tree_raises_on_every_call(self, tree, counted):
        S = Palette.default(tree.chi + 1)
        colouring = Colouring((1,) * tree.verts.bit_length(), S)
        for _ in range(2):
            for call in (
                lambda: replay(tree),
                lambda: find_path(tree, colouring, colouring, S),
                lambda: to_canonical(tree, colouring, S, S.colours[: tree.chi]),
            ):
                ops = counted["ops"]
                with pytest.raises(MalformedTreeError):
                    call()
                assert counted["ops"] > ops  # replayed again, nothing kept
            assert not validate(tree, Graph(tree.verts.bit_length()))

    def test_mutating_a_replayed_graph_changes_no_later_result(self, walk_input):
        t, g, alpha, beta, S = walk_input
        path = find_path(t, alpha, beta, S)
        mutated = replay(t)
        mutated.neighbour_masks[0] ^= 1 << 1
        mutated.neighbour_masks.reverse()
        assert mutated != g
        assert replay(t) == g
        assert validate(t, g)
        assert not validate(t, mutated)
        assert find_path(t, alpha, beta, S) == path

    def test_the_kept_replay_never_shows(self, walk_input):
        t = walk_input[0]
        before = (repr(t), hash(t), pickle.dumps(t))
        replay(t)
        fresh = pickle.loads(pickle.dumps(t))
        assert (repr(t), hash(t), pickle.dumps(t)) == before
        assert t == fresh and fresh == t
        assert hash(fresh) == hash(t)
        assert pickle.dumps(fresh) == before[2]


class TestDeepCertificate:
    """Deep certificates walked under a 400-frame recursion limit that
    cannot be raised: a 600-deep comparable chain, the tree recognize gives
    P_600, and a 401-deep ladder of joins and comparable nodes."""

    @pytest.fixture
    def walk_inputs(self, path_chain, moved):
        inputs = []
        # A try on the ladder's dense graph reads about 400 neighbours, so it
        # gets 2n tries where the path gets 20n.
        for t, tries in ((path_chain(600), 20), (ladder_tree(200), 2)):
            g = replay(t)
            chi = chi_omega(t)[0]
            S = Palette.default(chi + 1)
            alpha, beta = (moved(t, g, S, seed, tries * g.n) for seed in ("deep-a", "deep-b"))
            inputs.append((t, g, S, chi, alpha, beta))
        return inputs

    def test_to_canonical(self, walk_inputs, shallow_stack):
        for t, g, S, chi, alpha, _ in walk_inputs:
            seq = to_canonical(t, alpha, S, S.colours[:chi])
            assert verify_sequence(g, seq).valid
            assert seq.final().assignment == canonical_colouring(t, S.prefix(chi)).assignment
            assert len(seq) <= 4 * g.n**2

    def test_find_path(self, walk_inputs, shallow_stack):
        for t, g, S, _, alpha, beta in walk_inputs:
            seq = find_path(t, alpha, beta, S)
            assert verify_sequence(g, seq).valid
            assert seq.final() == beta
            assert len(seq) <= 4 * g.n**2


def relabelled(g: Graph, seed: str) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def tampered(g: Graph, seq: RecolouringSequence, i: int) -> list[RecolouringSequence]:
    """seq with step i replaced, once by each fault in turn: a neighbour's
    colour, the vertex's own colour, a colour off the palette, and a vertex
    out of range."""
    cur = list(seq.initial.assignment)
    for v, c in seq.steps[:i]:
        cur[v] = c
    v = seq.steps[i].v
    w = g.neighbours(v)[0]
    faults = [
        Step(v, cur[w]),
        Step(v, cur[v]),
        Step(v, max(seq.initial.palette) + 1),
        Step(g.n, cur[v]),
    ]
    head, tail = seq.steps[:i], seq.steps[i + 1 :]
    return [RecolouringSequence(seq.initial, head + (f,) + tail) for f in faults]


class TestGuaranteesAtScale:
    """The paper's bounds at n in the hundreds: each to_canonical half moves
    a vertex at most 2n times, and find_path takes at most 4n^2 steps."""

    @pytest.mark.parametrize(
        "build, digest",
        [
            pytest.param(
                lambda: classic("path", 300),
                "508d5e34ea8c96a606054ce5d33d4cf03fd4709cae87e2fd48b4ee36a4633134",
                id="path_300",
            ),
            pytest.param(
                lambda: relabelled(replay(random_oat(250, 0)), "scale-250"),
                "8c05b8bb3ce254b88c6a1c32e81b6d3dbdb8abe024fd7a11b10abb530f6a432f",
                id="relabelled_random_oat_250",
            ),
            pytest.param(
                lambda: p4_sparse_third_op(40, classic("path", 10), "anti"),
                "a66ee3b45b82cf11994cdd406d296284a0cb0b16b4f2d80cbf3a94d46a973160",
                id="p4_sparse_anti_40",
            ),
        ],
    )
    def test_bounds(self, build, digest, moved):
        g = build()
        t = recognize(g).tree
        n = g.n
        chi = chi_omega(t)[0]
        S = Palette.default(chi + 1)
        ends = [moved(t, g, S, f"scale-{n}-{k}", 20 * n) for k in range(2)]
        for end in ends:
            half = to_canonical(t, end, S, S.prefix(chi))
            assert max(half.recolour_counts().values(), default=0) <= 2 * n
            assert half.final().assignment == canonical_colouring(t, S.prefix(chi)).assignment
        seq = find_path(t, ends[0], ends[1], S)
        rep = verify_sequence(g, seq)
        assert rep.valid, (rep.reason, rep.first_invalid_step)
        assert seq.final() == ends[1]
        assert len(seq) <= 4 * n * n
        # The reports of the walk and of its tampered copies, pinned
        # field for field.
        reports = [rep] + [verify_sequence(g, bad) for bad in tampered(g, seq, len(seq) // 2)]
        h = hashlib.sha256(repr([dataclasses.astuple(r) for r in reports]).encode())
        assert h.hexdigest() == digest


FAULTS = (None, "off_palette", "no_op", "out_of_range", "clash")


def random_walk(n: int, seed: int, fault: str | None) -> tuple[Graph, RecolouringSequence]:
    """A seeded random graph on n vertices and a walk of proper single-vertex
    moves over a palette of 1-5 colours, from a greedy (possibly improper)
    start.  Unless fault is None, or is a clash and the drawn vertex has no
    neighbour, the step at a random index (possibly one past the end) is
    replaced by that fault."""
    rng = random.Random(f"walk-{n}-{seed}")
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
    pal = Palette(tuple(rng.sample(range(-3, 10), rng.randint(1, 5))))
    cur = []
    for v in range(n):
        taken = {cur[w] for w in g.neighbours(v) if w < v}
        free = [c for c in pal if c not in taken]
        cur.append(rng.choice(free or pal.colours))
    initial = Colouring(tuple(cur), pal)
    steps = []
    for _ in range(rng.randint(0, 12)):
        v = rng.randrange(n)
        taken = {cur[w] for w in g.neighbours(v)}
        free = [c for c in pal if c != cur[v] and c not in taken]
        if free:
            cur[v] = rng.choice(free)
            steps.append(Step(v, cur[v]))
    i = rng.randint(0, len(steps))
    cur = list(initial.assignment)
    for v, c in steps[:i]:
        cur[v] = c
    v = rng.randrange(n)
    if fault == "off_palette":
        bad = Step(v, rng.choice([c for c in range(-5, 12) if c not in pal]))
    elif fault == "no_op":
        bad = Step(v, cur[v])
    elif fault == "out_of_range":
        bad = Step(rng.choice([-2, -1, n, n + 3]), rng.choice(pal.colours + (99,)))
    elif fault == "clash" and g.neighbours(v):
        bad = Step(v, cur[rng.choice(g.neighbours(v))])
    else:
        return g, RecolouringSequence(initial, tuple(steps))
    return g, RecolouringSequence(initial, tuple(steps[:i] + [bad] + steps[i + 1 :]))


def reference_report(g: Graph, seq: RecolouringSequence) -> SequenceReport:
    """verify_sequence's verdict, got by applying each step and testing the
    whole colouring for properness."""
    counts = [0] * g.n

    def report(valid, idx=None, reason=None):
        return SequenceReport(valid, len(seq.steps), max(counts), idx, reason)

    if seq.initial.n != g.n:
        return report(False, None, f"initial covers {seq.initial.n} vertices, graph has {g.n}")
    if not seq.initial.is_proper(g):
        return report(False, None, "initial colouring is not proper")
    pal = seq.initial.palette
    cur = list(seq.initial.assignment)
    for idx, (v, c) in enumerate(seq.steps):
        if v not in range(g.n):
            return report(False, idx, f"vertex {v} out of range")
        if c not in pal.colours:
            return report(False, idx, f"colour {c} outside palette {pal.colours}")
        if cur[v] == c:
            return report(False, idx, f"step does not change vertex {v}")
        cur[v] = c
        counts[v] += 1
        if not Colouring(tuple(cur), pal).is_proper(g):
            return report(False, idx, f"recolouring vertex {v} to {c} breaks properness")
    return report(True)


class TestVerifySequence:
    def g(self):
        return classic("path", 2)

    def report(self, steps, initial=(1, 2)):
        return verify_sequence(self.g(), RecolouringSequence(Colouring(initial, S3), steps))

    def test_accepts_valid(self):
        rep = self.report((Step(0, 3),))
        assert rep == SequenceReport(True, 1, 1)

    def test_rejects_improper_initial(self):
        rep = self.report((), initial=(1, 1))
        assert rep == SequenceReport(False, 0, 0, None, "initial colouring is not proper")

    def test_rejects_wrong_vertex_count(self):
        rep = self.report((Step(0, 3),), initial=(1,))
        assert rep == SequenceReport(False, 1, 0, None, "initial covers 1 vertices, graph has 2")

    def test_rejects_clash_with_step_index(self):
        rep = self.report((Step(0, 3), Step(1, 3)))
        assert rep == SequenceReport(False, 2, 1, 1, "recolouring vertex 1 to 3 breaks properness")

    def test_clashing_step_is_counted(self):
        rep = self.report((Step(1, 3), Step(1, 1), Step(0, 2)))
        assert rep == SequenceReport(False, 3, 2, 1, "recolouring vertex 1 to 1 breaks properness")

    def test_rejects_no_op_step(self):
        rep = self.report((Step(0, 1),))
        assert rep == SequenceReport(False, 1, 0, 0, "step does not change vertex 0")

    def test_no_op_step_is_not_counted(self):
        rep = self.report((Step(0, 3), Step(0, 3)))
        assert rep == SequenceReport(False, 2, 1, 1, "step does not change vertex 0")

    def test_rejects_off_palette_step(self):
        rep = self.report((Step(0, 9),))
        assert rep == SequenceReport(False, 1, 0, 0, "colour 9 outside palette (1, 2, 3)")

    def test_rejects_out_of_range_vertex(self):
        for v in (7, 2, -1):
            rep = self.report((Step(0, 3), Step(v, 3)))
            assert rep == SequenceReport(False, 2, 1, 1, f"vertex {v} out of range")

    def test_range_is_checked_before_palette(self):
        rep = self.report((Step(7, 9),))
        assert rep == SequenceReport(False, 1, 0, 0, "vertex 7 out of range")

    @given(st.integers(1, 9), st.integers(0, 10**6), st.sampled_from(FAULTS))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_step_by_step_reference(self, n, seed, fault):
        g, seq = random_walk(n, seed, fault)
        assert verify_sequence(g, seq) == reference_report(g, seq)


class TestSequenceJson:
    def test_walk_on_numpy_labelled_tree_serialises(self):
        t = Join(Leaf(np.int64(0)), Leaf(np.int64(1)))
        seq = find_path(t, Colouring((1, 2), S3), Colouring((2, 1), S3), S3)
        assert json.loads(json.dumps(sequence_to_json(seq)))["steps"][0] == {"v": 0, "c": 3}

    def test_user_steps_are_normalised(self):
        seq = RecolouringSequence(Colouring((1, 2), S3), [(np.int64(0), np.int64(3))])
        assert seq.steps == (Step(0, 3),)
        step = seq.steps[0]
        assert type(step) is Step and type(step.v) is int and type(step.c) is int

    def test_round_trip(self):
        seq = RecolouringSequence(Colouring((1, 2), S3), (Step(0, 3), Step(1, 1)))
        doc = sequence_to_json(seq)
        assert doc == {
            "initial": {"palette": [1, 2, 3], "assignment": [1, 2]},
            "steps": [{"v": 0, "c": 3}, {"v": 1, "c": 1}],
        }
        back = sequence_from_json(json.loads(json.dumps(doc)))
        assert back.initial == seq.initial
        assert back.steps == seq.steps
        assert back == seq

    def test_walk_round_trips(self):
        seq = column_walk()
        assert sequence_from_json(json.loads(json.dumps(sequence_to_json(seq)))) == seq

    def test_rejects_boolean_step_fields(self):
        initial = {"palette": [1, 2, 3], "assignment": [1, 2]}
        for step in ({"v": True, "c": 3}, {"v": 0, "c": False}):
            with pytest.raises(ColouringError):
                sequence_from_json({"initial": initial, "steps": [step]})

    def test_refuses_float_step(self):
        with pytest.raises(TypeError):
            RecolouringSequence(Colouring((1, 2), S3), [(0, 3.0)])

    def test_rejects_missing_steps(self):
        with pytest.raises(ColouringError):
            sequence_from_json({"initial": {"palette": [1], "assignment": [1]}})

    def test_rejects_malformed_step(self):
        with pytest.raises(ColouringError):
            sequence_from_json(
                {"initial": {"palette": [1], "assignment": [1]}, "steps": [{"v": 0}]}
            )


def column_walk() -> RecolouringSequence:
    """A find_path walk over the shared-anchor tree, its columns filled by
    the walk itself."""
    t = shared_anchor_tree()
    g = replay(t)
    S = Palette.default(chi_omega(t)[0] + 1)
    alpha = moved_colouring(t, g, S, "columns-a", 4 * g.n)
    beta = moved_colouring(t, g, S, "columns-b", 4 * g.n)
    return find_path(t, alpha, beta, S)


class TestColumns:
    """A sequence keeps its steps as two int columns, yet compares, hashes,
    prints and refuses assignment as the frozen (initial, steps) pair."""

    def test_equals_and_hashes_as_the_constructed_sequence(self):
        seq = column_walk()
        steps = [(d["v"], d["c"]) for d in sequence_to_json(seq)["steps"]]
        built = RecolouringSequence(seq.initial, steps)
        assert seq == built and hash(seq) == hash(built)
        # the hash of the frozen pair, as a dataclass computes it
        assert hash(seq) == hash((seq.initial, tuple(map(Step._make, steps))))
        v, c = steps[-1]
        other = RecolouringSequence(seq.initial, steps[:-1] + [(v, c + 1)])
        assert seq != other and seq != (seq.initial, seq.steps)

    def test_repr(self):
        seq = RecolouringSequence(Colouring((1, 2), S3), [(0, 3), (1, 1)])
        assert repr(seq) == (
            "RecolouringSequence(initial=Colouring(assignment=(1, 2), "
            "palette=Palette(colours=(1, 2, 3))), steps=(Step(v=0, c=3), Step(v=1, c=1)))"
        )
        walk = column_walk()
        assert repr(walk) == repr(RecolouringSequence(walk.initial, walk.steps))

    @pytest.mark.parametrize("name", ["initial", "steps", "_vs", "other"])
    def test_attributes_are_read_only(self, name):
        seq = column_walk()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(seq, name, ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(seq, name)


def refuse_steps(pairs):
    raise AssertionError("a Step was made")


# Walks pinned by the SHA-256 of their sorted-key sequence_to_json documents,
# as recorded when every kept step was made a Step.
NO_STEP_WALKS = {
    "relabelled_path_300": (
        lambda: relabelled(classic("path", 300), "no-step-300"),
        "5808c2e6b49eb4ba84a2cc69eb42eaa17db99432f672e6cbeab0c70f1ccf9169",
    ),
    "random_oat_200_0": (
        lambda: random_oat(200, 0),
        "d5b3f1a271d26c9ce65f336bc5b9ef0cfa5ed9456acccb97f8f190c5d9331fe5",
    ),
}


@pytest.mark.parametrize("name", sorted(NO_STEP_WALKS))
def test_walk_makes_no_step_until_steps_is_read(name, moved, monkeypatch):
    """find_path, serialisation, verification, final, recolour_counts and
    len read the columns; .steps then gives the walk, digest for digest,
    that the Step-per-step sequence gave."""
    build, digest = NO_STEP_WALKS[name]
    made = build()
    if isinstance(made, Graph):
        g, t = made, recognize(made).tree
    else:
        t, g = made, replay(made)
    S = Palette.default(chi_omega(t)[0] + 1)
    alpha, beta = moved(t, g, S, f"{name}-a", 4 * g.n), moved(t, g, S, f"{name}-b", 4 * g.n)

    def sha(doc) -> str:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    monkeypatch.setattr(recolouring, "_as_steps", refuse_steps)
    seq = find_path(t, alpha, beta, S)
    doc = sequence_to_json(seq)
    rep = verify_sequence(g, seq)
    assert rep.valid and rep.length == len(seq) == len(doc["steps"])
    assert seq.final() == beta
    assert max(seq.recolour_counts().values()) == rep.max_recolourings
    assert sha(doc) == digest
    assert "steps" not in vars(seq)
    monkeypatch.undo()
    steps = seq.steps
    assert all(type(s) is Step and type(s.v) is int and type(s.c) is int for s in steps)
    assert sha({"initial": doc["initial"], "steps": [s._asdict() for s in steps]}) == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_walks_make_no_step(name, moved, monkeypatch):
    monkeypatch.setattr(recolouring, "_as_steps", refuse_steps)
    assert golden_digest(name, moved) == GOLDEN[name]

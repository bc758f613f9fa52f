import json
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
    Palette,
    PaletteError,
    PaletteTooSmallError,
    PartitionError,
    RecolouringSequence,
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
    verify_sequence,
)
from oatgraph import buildtree, recolouring

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

    def test_rejects_end_outside_working_palette(self):
        t = recognize(classic("path", 2)).tree
        with pytest.raises(PaletteError):
            find_path(t, Colouring((1, 2), S3), Colouring((1, 4), S4), S3)


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


class TestDeepCertificate:
    """A 600-deep comparable chain, the tree recognize gives P_600, walked
    under a 400-frame recursion limit that cannot be raised."""

    N = 600

    @pytest.fixture
    def walk_input(self, path_chain, moved):
        t = path_chain(self.N)
        g = replay(t)
        S = Palette.default(3)
        return t, g, S, moved(t, g, S, "deep-a", 20 * g.n), moved(t, g, S, "deep-b", 20 * g.n)

    def test_to_canonical(self, walk_input, shallow_stack):
        t, g, S, alpha, _ = walk_input
        seq = to_canonical(t, alpha, S, S.colours[:2])
        assert verify_sequence(g, seq).valid
        assert seq.final().assignment == canonical_colouring(t, S.prefix(2)).assignment
        assert len(seq) <= 4 * self.N**2

    def test_find_path(self, walk_input, shallow_stack):
        t, g, S, alpha, beta = walk_input
        seq = find_path(t, alpha, beta, S)
        assert verify_sequence(g, seq).valid
        assert seq.final() == beta
        assert len(seq) <= 4 * self.N**2


def relabelled(g: Graph, seed: str) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestGuaranteesAtScale:
    """The paper's bounds at n in the hundreds: each to_canonical half moves
    a vertex at most 2n times, and find_path takes at most 4n^2 steps."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: classic("path", 300),
            lambda: relabelled(replay(random_oat(250, 0)), "scale-250"),
            lambda: p4_sparse_third_op(40, classic("path", 10), "anti"),
        ],
        ids=["path_300", "relabelled_random_oat_250", "p4_sparse_anti_40"],
    )
    def test_bounds(self, build, moved):
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


class TestVerifySequence:
    def g(self):
        return classic("path", 2)

    def test_accepts_valid(self):
        seq = RecolouringSequence(Colouring((1, 2), S3), (Step(0, 3),))
        rep = verify_sequence(self.g(), seq)
        assert rep.valid and rep.length == 1 and rep.max_recolourings == 1

    def test_rejects_improper_initial(self):
        seq = RecolouringSequence(Colouring((1, 1), S3), ())
        rep = verify_sequence(self.g(), seq)
        assert not rep.valid and rep.first_invalid_step is None

    def test_rejects_wrong_vertex_count(self):
        seq = RecolouringSequence(Colouring((1,), S3), ())
        assert not verify_sequence(self.g(), seq).valid

    def test_rejects_clash_with_step_index(self):
        seq = RecolouringSequence(Colouring((1, 2), S3), (Step(0, 3), Step(1, 3)))
        rep = verify_sequence(self.g(), seq)
        assert not rep.valid and rep.first_invalid_step == 1

    def test_rejects_no_op_step(self):
        seq = RecolouringSequence(Colouring((1, 2), S3), (Step(0, 1),))
        rep = verify_sequence(self.g(), seq)
        assert not rep.valid and rep.first_invalid_step == 0

    def test_rejects_off_palette_step(self):
        seq = RecolouringSequence(Colouring((1, 2), S3), (Step(0, 9),))
        assert not verify_sequence(self.g(), seq).valid

    def test_rejects_out_of_range_vertex(self):
        seq = RecolouringSequence(Colouring((1, 2), S3), (Step(7, 3),))
        assert not verify_sequence(self.g(), seq).valid


class TestSequenceJson:
    def test_walk_on_numpy_labelled_tree_serialises(self):
        t = Join(Leaf(np.int64(0)), Leaf(np.int64(1)))
        seq = find_path(t, Colouring((1, 2), S3), Colouring((2, 1), S3), S3)
        assert json.loads(json.dumps(sequence_to_json(seq)))["steps"][0] == {"v": 0, "c": 3}

    def test_user_steps_are_normalised(self):
        seq = RecolouringSequence(Colouring((1, 2), S3), [(np.int64(0), np.int64(3))])
        assert seq.steps == (Step(0, 3),)
        assert type(seq.steps[0]) is Step and type(seq.steps[0].v) is int

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

import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from oatgraph import (
    Colouring,
    Graph,
    Palette,
    classic,
    colouring_to_json,
    fixture,
    format_graph,
    parse_graph,
    find_path,
    random_oat,
    recognize,
    replay,
    sequence_from_json,
    sequence_to_json,
    tree_from_json,
    tree_to_json,
    verify_sequence,
)
from oatgraph import canonical_colouring, chi_omega, p4_sparse_third_op
from oatgraph import cli, graph
from oatgraph.cli import main
from oatgraph.graph import _MASK_EDGE_CAP

from edge_list_cases import ACCEPTED, MALFORMED


def write_graph(tmp_path, g, name="g.graph"):
    p = tmp_path / name
    p.write_text(format_graph(g))
    return str(p)


def write_colouring(tmp_path, assignment, palette, name):
    p = tmp_path / name
    p.write_text(json.dumps(colouring_to_json(Colouring(assignment, palette))))
    return str(p)


class TestRecognize:
    def test_accepts_fixture_with_round_trip_tree(self, tmp_path, capsys):
        g = fixture("fig2_imperfect").graph
        path = write_graph(tmp_path, g)
        assert main(["recognize", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format_version"] == 1
        assert doc["oat"] is True and doc["chi"] == 3
        assert replay(tree_from_json(doc["tree"])) == g

    def test_tree_out_is_loadable(self, tmp_path, capsys):
        g = fixture("domino").graph
        out = tmp_path / "tree.json"
        assert main(["recognize", write_graph(tmp_path, g), "--tree-out", str(out)]) == 0
        assert replay(tree_from_json(json.loads(out.read_text()))) == g
        assert "chi = omega = 2" in capsys.readouterr().out

    def test_tree_outputs_match_json_dumps(self, tmp_path, capsys):
        g = fixture("fig2_imperfect").graph
        out = tmp_path / "tree.json"
        assert main(["recognize", write_graph(tmp_path, g), "--json", "--tree-out", str(out)]) == 0
        line = capsys.readouterr().out
        doc = json.loads(line)
        assert line == json.dumps(doc) + "\n"
        assert out.read_text() == json.dumps(doc["tree"]) + "\n"

    def test_deep_tree_outputs_under_shallow_stack(self, tmp_path, capsys, shallow_stack):
        # P_600's certificate is a comparable chain 597 nodes deep
        path = write_graph(tmp_path, classic("path", 600))
        out = tmp_path / "tree.json"
        assert main(["recognize", path, "--json", "--tree-out", str(out)]) == 0
        line = capsys.readouterr().out
        assert line.startswith('{"format_version": 1, "oat": true, "chi": 2, "omega": 2, "tree": ')
        assert line.count('"op": "comparable"') == 597
        text = out.read_text()
        assert text.count('"op": "comparable"') == 597
        # the file holds the line's tree verbatim, in size linear in the depth
        assert text.endswith("\n") and line.endswith(', "tree": ' + text[:-1] + "}\n")
        assert len(text.encode()) < 50_000

    @pytest.mark.parametrize(
        "flags, encodes",
        [([], 0), (["--json"], 1), (["--tree-out"], 1), (["--json", "--tree-out"], 1)],
    )
    def test_tree_encoded_once_and_only_when_asked(
        self, tmp_path, capsys, monkeypatch, flags, encodes
    ):
        texts = []
        encode = cli._tree_text
        monkeypatch.setattr(cli, "_tree_text", lambda t: texts.append(encode(t)) or texts[-1])
        argv = ["recognize", write_graph(tmp_path, fixture("domino").graph)]
        for flag in flags:
            argv += [flag, str(tmp_path / "tree.json")] if flag == "--tree-out" else [flag]
        assert main(argv) == 0
        assert sum('"op": ' in text for text in texts) == encodes

    def test_rejects_fig4_with_stuck_edges(self, tmp_path, capsys):
        g = fixture("fig4_dh_not_oat").graph
        assert main(["recognize", write_graph(tmp_path, g), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["oat"] is False
        assert doc["stuck_vertices"]
        assert doc["stuck_edges"]

    def test_malformed_file_exits_2_with_line(self, tmp_path, capsys):
        p = tmp_path / "bad.graph"
        p.write_text("2 1\n1 1\n")
        assert main(["recognize", str(p)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["recognize", str(tmp_path / "nope.graph")]) == 2

    def test_oversized_vertex_count_exits_2_with_one_line(self, tmp_path, capsys):
        p = tmp_path / "huge.graph"
        p.write_text("1000000 0\n")
        assert main(["recognize", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n = 1000000 needs about")
        assert captured.err.count("\n") == 1


class TestRecolor:
    def test_swap_round_trips_through_verify(self, tmp_path, capsys):
        g = classic("path", 2)
        gp = write_graph(tmp_path, g)
        S = Palette.default(3)
        a = write_colouring(tmp_path, (1, 2), S, "a.json")
        b = write_colouring(tmp_path, (2, 1), S, "b.json")
        assert main(["recolor", gp, "--from", a, "--to", b, "--k", "2"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["format_version"] == 1
        seq = sequence_from_json({"initial": doc["initial"], "steps": doc["steps"]})
        rep = verify_sequence(g, seq)
        assert rep.valid
        assert seq.final().assignment == (2, 1)
        assert "budget 16" in captured.err
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(captured.out)
        assert main(["verify", gp, str(seq_file)]) == 0

    @pytest.mark.parametrize(
        "n, alpha, beta, length",
        [
            pytest.param(2, lambda i: 1 + i, lambda i: 2 - i, 3, id="P_2-swap"),
            # 22,650 steps, written in six slices
            pytest.param(300, lambda i: 1 + i % 2, lambda i: 1 + i % 3, 22650, id="P_300"),
        ],
    )
    def test_output_is_the_json_of_the_sequence(self, tmp_path, capsys, n, alpha, beta, length):
        """The steps are written from the sequence's columns, a slice at a
        time, as the text json.dumps gives for sequence_to_json."""
        g = classic("path", n)
        S = Palette.default(3)
        ends = [Colouring(tuple(map(f, range(n))), S) for f in (alpha, beta)]
        files = [write_colouring(tmp_path, e.assignment, S, f"{k}.json") for k, e in enumerate(ends)]
        assert main(["recolor", write_graph(tmp_path, g), "--from", files[0], "--to", files[1]]) == 0
        seq = find_path(recognize(g).tree, *ends, S)
        assert len(seq) == length
        doc = {"format_version": 1, **sequence_to_json(seq)}
        assert capsys.readouterr().out == json.dumps(doc) + "\n"

    def test_defaults_k_to_chromatic_number(self, tmp_path, capsys):
        g = classic("path", 2)
        gp = write_graph(tmp_path, g)
        S = Palette.default(3)
        a = write_colouring(tmp_path, (1, 2), S, "a.json")
        b = write_colouring(tmp_path, (2, 1), S, "b.json")
        assert main(["recolor", gp, "--from", a, "--to", b]) == 0

    def test_identical_endpoints_give_empty_sequence(self, tmp_path, capsys):
        g = classic("path", 2)
        gp = write_graph(tmp_path, g)
        a = write_colouring(tmp_path, (1, 2), Palette.default(3), "a.json")
        assert main(["recolor", gp, "--from", a, "--to", a]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["steps"] == []

    def test_reads_canonical_output(self, tmp_path, capsys):
        gp = write_graph(tmp_path, fixture("domino").graph)
        assert main(["canonical", gp]) == 0
        cp = tmp_path / "c.json"
        cp.write_text(capsys.readouterr().out)
        assert main(["recolor", gp, "--from", str(cp), "--to", str(cp)]) == 0
        assert json.loads(capsys.readouterr().out)["steps"] == []

    @pytest.mark.parametrize("version", [2, True, 1.0])
    def test_unsupported_colouring_version_exits_2_with_one_line(self, tmp_path, capsys, version):
        gp = write_graph(tmp_path, classic("path", 2))
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"format_version": version, "palette": [1, 2, 3], "assignment": [1, 2]}))
        assert main(["recolor", gp, "--from", str(a), "--to", str(a)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unsupported format version {version!r}\n"

    def test_huge_k_exits_2_before_building_the_palette(self, tmp_path, capsys):
        gp = write_graph(tmp_path, classic("path", 2))
        a = write_colouring(tmp_path, (1, 2), Palette.default(3), "a.json")
        tracemalloc.start()
        try:
            assert main(["recolor", gp, "--from", a, "--to", a, "--k", "1000000"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: k = 1000000 ")
        assert captured.err.count("\n") == 1
        # no graph this machine holds has a million vertices, so no palette that long
        assert peak < 1 << 20

    def test_palette_too_small_exits_2(self, tmp_path, capsys):
        g = classic("complete", 2)
        gp = write_graph(tmp_path, g)
        a = write_colouring(tmp_path, (1, 2), Palette.default(2), "a.json")
        assert main(["recolor", gp, "--from", a, "--to", a, "--k", "1"]) == 2

    def test_improper_colouring_exits_2(self, tmp_path, capsys):
        g = classic("complete", 2)
        gp = write_graph(tmp_path, g)
        a = write_colouring(tmp_path, (1, 1), Palette.default(3), "a.json")
        b = write_colouring(tmp_path, (1, 2), Palette.default(3), "b.json")
        assert main(["recolor", gp, "--from", a, "--to", b, "--k", "2"]) == 2

    def test_unrecognised_graph_exits_1(self, tmp_path, capsys):
        g = classic("cycle", 5)
        gp = write_graph(tmp_path, g)
        a = write_colouring(tmp_path, (1, 2, 1, 2, 3), Palette.default(4), "a.json")
        assert main(["recolor", gp, "--from", a, "--to", a, "--k", "3"]) == 1


class TestOracle:
    def test_p2_stats(self, tmp_path, capsys):
        gp = write_graph(tmp_path, classic("path", 2))
        assert main(["oracle", gp, "--k", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "format_version": 1,
            "nodes": 6,
            "connected": True,
            "diameter": 3,
            "frozen_count": 0,
        }

    def test_k3_frozen_listing(self, tmp_path, capsys):
        gp = write_graph(tmp_path, classic("complete", 3))
        assert main(["oracle", gp, "--k", "3", "--frozen"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["frozen_count"] == 6
        assert [1, 2, 3] in doc["frozen"]

    def test_budget_exceeded_exits_2_with_bound(self, tmp_path, capsys):
        gp = write_graph(tmp_path, classic("path", 30))
        assert main(["oracle", gp, "--k", "4"]) == 2
        assert str(4**30) in capsys.readouterr().err

    def test_huge_k_exits_2_before_building_the_palette(self, tmp_path, capsys):
        gp = write_graph(tmp_path, classic("path", 6))
        tracemalloc.start()
        try:
            assert main(["oracle", gp, "--k", "1000000"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 1000000^6 = ")
        assert captured.err.count("\n") == 1
        # a million-colour palette alone would take tens of MiB
        assert peak < 1 << 20

    def test_many_colours_on_one_vertex_exit_2_with_one_line(self, tmp_path, capsys):
        gp = write_graph(tmp_path, Graph(1))
        assert main(["oracle", gp, "--k", "1000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 1000000^1 * 1 * 999999 = ")
        assert captured.err.count("\n") == 1
        assert main(["oracle", gp, "--k", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["nodes"] == 3

    def test_census_past_its_bfs_budget_exits_2_but_frozen_answers(self, tmp_path, capsys):
        # 3^8 = 6,561 colourings are within the build budget, but a BFS from
        # each takes 387,420,489 steps; --frozen runs no BFS.
        gp = write_graph(tmp_path, Graph(8))
        assert main(["oracle", gp, "--k", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: a BFS from each of 6561 colourings over 52488 moves, "
            "387420489 steps, exceeds the census budget of 40000000\n"
        )
        assert main(["oracle", gp, "--k", "3", "--frozen"]) == 0
        assert json.loads(capsys.readouterr().out)["frozen_count"] == 0

    def test_census_within_its_bfs_budget_answers(self, tmp_path, capsys):
        # 729 colourings, each vertex recoloured at most once on a shortest walk
        gp = write_graph(tmp_path, Graph(6))
        assert main(["oracle", gp, "--k", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "format_version": 1,
            "nodes": 729,
            "connected": True,
            "diameter": 6,
            "frozen_count": 0,
        }

    def test_budget_message_names_a_huge_count_by_its_power(self, tmp_path, capsys):
        # 4^8000 has 4,817 digits, more than str() of an int will write
        gp = tmp_path / "p8000.graph"
        gp.write_text("8000 7999\n" + "".join(f"{i} {i + 1}\n" for i in range(7999)))
        assert main(["oracle", str(gp), "--k", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 4^8000 assignments exceed the budget")
        assert captured.err.count("\n") == 1


class TestGen:
    def test_path(self, capsys):
        assert main(["gen", "path", "5"]) == 0
        g = parse_graph(capsys.readouterr().out)
        assert g == classic("path", 5)

    def test_fixture_matches_library(self, capsys):
        assert main(["gen", "domino"]) == 0
        assert parse_graph(capsys.readouterr().out) == fixture("domino").graph

    def test_random_oat_deterministic_with_tree(self, tmp_path, capsys):
        tree_file = tmp_path / "t.json"
        assert main(["gen", "random_oat", "8", "--seed", "42", "--tree-out", str(tree_file)]) == 0
        text = capsys.readouterr().out
        g = parse_graph(text)
        assert g == replay(random_oat(8, 42))
        assert replay(tree_from_json(json.loads(tree_file.read_text()))) == g
        assert tree_file.read_text() == json.dumps(tree_to_json(random_oat(8, 42))) + "\n"

    def test_p4_sparse(self, capsys):
        assert main(["gen", "p4_sparse", "1", "--case", "anti"]) == 0
        g = parse_graph(capsys.readouterr().out)
        assert g.n == 4

    def test_unknown_family_exits_2(self, capsys):
        assert main(["gen", "moebius", "5"]) == 2

    def test_missing_param_exits_2(self, capsys):
        assert main(["gen", "path"]) == 2

    def test_bad_param_exits_2(self, capsys):
        assert main(["gen", "cycle", "2"]) == 2

    def test_oversized_path_exits_2_with_one_line(self, capsys):
        tracemalloc.start()
        try:
            assert main(["gen", "path", "1000000"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n = 1000000 needs about")
        assert captured.err.count("\n") == 1
        # refused by the budget check before any edge or matrix exists
        assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv, n",
    [
        pytest.param(["complete", "100000000000"], 10**11, id="complete"),
        pytest.param(["p4_sparse", "100000000000"], 2 * 10**11 + 2, id="p4_sparse"),
    ],
)
def test_oversized_family_exits_2_with_one_line(capsys, argv, n):
    tracemalloc.start()
    try:
        assert main(["gen", *argv]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: n = {n} needs about")
    assert captured.err.count("\n") == 1
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv, line",
    [
        pytest.param([], "the following arguments are required: command", id="no-command"),
        pytest.param(["gen"], "the following arguments are required: family", id="gen-no-family"),
        pytest.param(
            ["recolor", "G"],
            "the following arguments are required: --from, --to",
            id="recolor-no-ends",
        ),
        pytest.param(
            ["oracle", "G", "--k", "abc"], "argument --k: invalid int value: 'abc'", id="oracle-k"
        ),
        # the list of choices that follows is worded by the Python version
        pytest.param(
            ["frobnicate"], "argument command: invalid choice: 'frobnicate' (", id="unknown-command"
        ),
    ],
)
def test_usage_error_exits_2_with_one_line(capsys, argv, line):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {line}")
    assert captured.err.count("\n") == 1


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["gen", "--help"])
    assert exited.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: oatgraph gen ")
    assert captured.err == ""


@pytest.mark.parametrize(
    "command, target",
    [
        (["recognize", "GRAPH"], "DIR"),
        (["recognize", "GRAPH"], "FILE/x"),
        (["gen", "random_oat", "5"], "DIR"),
        (["gen", "random_oat", "5"], "FILE/x"),
        (["recognize", "GRAPH"], ""),
        (["gen", "random_oat", "5"], ""),
    ],
)
def test_unwritable_tree_out_exits_2_with_one_line(tmp_path, capsys, command, target):
    # a directory, a path through a regular file, or the empty path
    graph = write_graph(tmp_path, classic("path", 4))
    target = target.replace("DIR", str(tmp_path)).replace("FILE", graph)
    command = [graph if arg == "GRAPH" else arg for arg in command]
    assert main([*command, "--tree-out", target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command", [["recognize", "BIN"], ["gen", "p4_sparse", "2", "--r-file", "BIN"]]
)
def test_undecodable_graph_file_exits_2_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "bin.graph"
    path.write_bytes(b"\xff\xfe3 0\n")
    assert main([str(path) if arg == "BIN" else arg for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: ")
    assert captured.err.count("\n") == 1


def test_empty_r_file_exits_2_with_one_line(capsys):
    # the empty path is a path to read, not a missing option
    assert main(["gen", "p4_sparse", "2", "--r-file", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read : ")
    assert captured.err.count("\n") == 1


# Every refusal a command makes itself, after its arguments parse: exit 2,
# nothing on stdout, exactly this one line on stderr and no file written.
# The recolor cases run on P_3 (chi 2) with a proper colouring in GOOD, a
# 2-vertex one in SHORT and an improper one in BAD.  An empty path is named
# as such: Path("") would be the current directory.
@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["recolor", "G", "--from", "GOOD", "--to", "GOOD", "--k", "1"],
            "k = 1 is below the chromatic number 2",
        ),
        (
            ["recolor", "G", "--from", "GOOD", "--to", "GOOD", "--k", "1000000000"],
            "k = 1000000000 asks for more colours than any graph this machine can hold",
        ),
        (
            ["recolor", "G", "--from", "SHORT", "--to", "GOOD"],
            "--from colours 2 vertices, graph has 3",
        ),
        (
            ["recolor", "G", "--from", "GOOD", "--to", "SHORT"],
            "--to colours 2 vertices, graph has 3",
        ),
        (["recolor", "G", "--from", "BAD", "--to", "GOOD"], "--from colouring is not proper"),
        (["recolor", "G", "--from", "GOOD", "--to", "BAD"], "--to colouring is not proper"),
        (["gen", "path"], "path needs a size parameter"),
        (["gen", "random_oat"], "random_oat needs a vertex count"),
        (["gen", "p4_sparse"], "p4_sparse needs the size of the edgeless part"),
        (
            ["gen", "moebius", "5"],
            "unknown family 'moebius'; choose from path, cycle, complete,"
            " complete_bipartite_minus_matching, domino, house, gem, fig2_imperfect,"
            " fig4_dh_not_oat, random_oat, p4_sparse",
        ),
        (["recognize", "G", "--tree-out", ""], "cannot write : the path is empty"),
        (["gen", "random_oat", "5", "--tree-out", ""], "cannot write : the path is empty"),
        (["gen", "p4_sparse", "2", "--r-file", ""], "cannot read : the path is empty"),
        *(
            (
                ["gen", *argv, "--tree-out", "OUT"],
                f"--tree-out is for random_oat only; {argv[0]} has no build tree",
            )
            for argv in (["path", "3"], ["domino"], ["p4_sparse", "2"], ["moebius", "5"])
        ),
        *(
            (
                ["gen", *argv, "--r-file", "G"],
                f"--r-file is for p4_sparse only; {argv[0]} has no joined part",
            )
            for argv in (["path", "3"], ["domino"], ["random_oat", "5"], ["moebius", "5"])
        ),
        (["gen", "domino", "5"], "domino is a fixture and takes no size parameter"),
        (["gen", "gem", "0"], "gem is a fixture and takes no size parameter"),
        *(
            (
                ["gen", *argv, "--seed", "5"],
                f"--seed is for random_oat only; {argv[0]} takes no seed",
            )
            for argv in (["path", "3"], ["domino"], ["p4_sparse", "2"], ["moebius", "5"])
        ),
        *(
            (
                ["gen", *argv, "--case", "anti"],
                f"--case is for p4_sparse only; {argv[0]} has no cases",
            )
            for argv in (["path", "3"], ["domino"], ["random_oat", "5"], ["moebius", "5"])
        ),
    ],
)
def test_refusal_exits_2_with_its_one_line(tmp_path, capsys, argv, line):
    files = {
        "G": write_graph(tmp_path, classic("path", 3)),
        "GOOD": write_colouring(tmp_path, (1, 2, 1), Palette.default(3), "good.json"),
        "SHORT": write_colouring(tmp_path, (1, 2), Palette.default(3), "short.json"),
        "BAD": write_colouring(tmp_path, (1, 1, 2), Palette.default(3), "bad.json"),
        "OUT": str(tmp_path / "out.json"),
    }
    assert main([files.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"
    assert not (tmp_path / "out.json").exists()


class TestCanonical:
    def test_edge(self, tmp_path, capsys):
        gp = write_graph(tmp_path, classic("complete", 2))
        assert main(["canonical", gp]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["assignment"] == [1, 2]
        assert doc["palette"] == [1, 2]

    def test_unrecognised_exits_1(self, tmp_path, capsys):
        gp = write_graph(tmp_path, classic("cycle", 5))
        assert main(["canonical", gp]) == 1


class TestVerify:
    def test_tampered_sequence_exits_1_with_step(self, tmp_path, capsys):
        g = classic("path", 2)
        gp = write_graph(tmp_path, g)
        doc = {
            "initial": {"palette": [1, 2, 3], "assignment": [1, 2]},
            "steps": [{"v": 0, "c": 3}, {"v": 1, "c": 3}],
        }
        sp = tmp_path / "seq.json"
        sp.write_text(json.dumps(doc))
        assert main(["verify", gp, str(sp)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is False
        assert out["first_invalid_step"] == 1

    def test_boolean_step_exits_2_with_one_line(self, tmp_path, capsys):
        gp = write_graph(tmp_path, classic("path", 2))
        doc = {
            "initial": {"palette": [1, 2, 3], "assignment": [1, 2]},
            "steps": [{"v": True, "c": 3}],
        }
        sp = tmp_path / "seq.json"
        sp.write_text(json.dumps(doc))
        assert main(["verify", gp, str(sp)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        gp = write_graph(tmp_path, classic("path", 2))
        sp = tmp_path / "seq.json"
        sp.write_text("{not json")
        assert main(["verify", gp, str(sp)]) == 2


@pytest.mark.parametrize("command", ["verify", "recolor"])
def test_deeply_nested_json_exits_2_with_one_line(tmp_path, capsys, command):
    gp = write_graph(tmp_path, classic("path", 2))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    if command == "verify":
        argv = ["verify", gp, str(deep)]
    else:
        a = write_colouring(tmp_path, (1, 2), Palette.default(3), "a.json")
        argv = ["recolor", gp, "--from", str(deep), "--to", a]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "nested too deeply" in captured.err
    assert captured.err.count("\n") == 1


def test_closed_stdout_exits_2_with_one_line(tmp_path):
    # P_400's walk between these 3-colourings is 79,800 steps, far more text
    # than a pipe holds, so recolor is still writing when the reader closes.
    n = 400
    gp = write_graph(tmp_path, classic("path", n))
    S = Palette.default(3)
    a = write_colouring(tmp_path, tuple(1 + i % 3 for i in range(n)), S, "a.json")
    b = write_colouring(tmp_path, tuple([1, 3, 2][i % 3] for i in range(n)), S, "b.json")
    argv = [sys.executable, "-m", "oatgraph", "recolor", gp, "--from", a, "--to", b]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert head.startswith(b'{"format_version": 1, "initial": ')
    assert code == 2
    assert err == "error: cannot write to stdout: its reader closed it\n"


def test_console_script_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "oatgraph", "gen", "cycle", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    g = parse_graph(proc.stdout)
    assert g.n == 6 and g.edge_count == 6
    proc = subprocess.run(
        [sys.executable, "-m", "oatgraph", "recognize", "/dev/stdin"],
        input=format_graph(classic("cycle", 6)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1


# A child that runs one CLI command through cli.main, with numpy imported
# first or not, and writes on the last line of stderr whether numpy was
# loaded by the end and how many threads OpenBLAS runs (None where numpy is
# not loaded or its OpenBLAS cannot be asked).
_CHILD = r"""
import ctypes, glob, os, sys
from pathlib import Path

def blas_threads():
    if "numpy" not in sys.modules:
        return None
    root = Path(sys.modules["numpy"].__file__).parent
    for path in glob.glob(str(root.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None

if sys.argv.pop(1) == "numpy-first":
    import numpy
from oatgraph.cli import main
try:
    code = main()
finally:
    report = ["numpy" in sys.modules, blas_threads(), os.environ.get("OPENBLAS_NUM_THREADS")]
    print(*report, file=sys.stderr)
sys.exit(code)
"""


def cycle_with_tail(n):
    """C5 on 0..4 with a path of n - 5 vertices hung off 0: stuck on the C5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    return Graph(n, edges + [(0, 5)] + [(i, i + 1) for i in range(5, n - 1)])


def run_child(argv, numpy_first=False, env=None):
    """(exit code, stdout, whether numpy was loaded, OpenBLAS threads or
    None, OPENBLAS_NUM_THREADS at the end, the command's own stderr) of one
    command in a new process."""
    first = "numpy-first" if numpy_first else "plain"
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, first, *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    *stderr, report = proc.stderr.splitlines(keepends=True)
    loaded, threads, setting = report.split()
    threads = None if threads == "None" else int(threads)
    return proc.returncode, proc.stdout, loaded == "True", threads, setting, "".join(stderr)


class TestStartWithoutNumpy:
    """A command that needs no array does not import numpy, and whether
    numpy was imported first changes no byte of any output."""

    def test_import_oatgraph_loads_no_numpy(self):
        code = "import sys, oatgraph; print([m for m in sys.modules if m.startswith('numpy')])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_path_commands_import_no_numpy_and_write_the_same_bytes(self, tmp_path):
        n = 60
        gp = write_graph(tmp_path, classic("path", n))
        S = Palette.default(3)
        a = write_colouring(tmp_path, tuple(1 + i % 3 for i in range(n)), S, "a.json")
        b = write_colouring(tmp_path, tuple([1, 3, 2][i % 3] for i in range(n)), S, "b.json")
        walk = tmp_path / "walk.json"
        runs = []
        for numpy_first in (False, True):
            tree = tmp_path / f"tree-{numpy_first}.json"
            recognized = run_child(
                ["recognize", gp, "--json", "--tree-out", str(tree)], numpy_first
            )
            recoloured = run_child(["recolor", gp, "--from", a, "--to", b], numpy_first)
            walk.write_text(recoloured[1])
            verified = run_child(["verify", gp, str(walk)], numpy_first)
            for code, out, loaded, *_ in (recognized, recoloured, verified):
                assert (code, loaded) == (0, numpy_first)
                assert out.startswith('{"format_version": 1')
            runs.append((recognized[1], recoloured[1], verified[1], tree.read_bytes()))
        assert runs[0] == runs[1]

    def test_dense_member_gives_the_same_bytes_either_way(self, tmp_path):
        # Mean degree above 8 and more edges than the masks take while
        # numpy is unloaded: recognition imports numpy for A@A, after the
        # text (45.7 kB) was read without it.
        g = replay(random_oat(150, 0))
        assert 2 * g.edge_count >= 8 * g.n and g.edge_count > _MASK_EDGE_CAP
        gp = write_graph(tmp_path, g)
        runs = []
        for numpy_first in (False, True):
            tree = tmp_path / f"tree-{numpy_first}.json"
            recognized = run_child(
                ["recognize", gp, "--json", "--tree-out", str(tree)], numpy_first
            )
            canonical = run_child(["canonical", gp], numpy_first)
            runs.append((recognized[:3], canonical[:3], tree.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0][0] == 0 and runs[0][0][2] is True

    @pytest.mark.parametrize(
        "make, loads",
        [
            (lambda: replay(random_oat(120, 0)), False),
            (lambda: p4_sparse_third_op(12, replay(random_oat(6, 0)), "pendant"), False),
            (lambda: classic("cycle", 40), False),
            (lambda: cycle_with_tail(40), False),
            (lambda: replay(random_oat(109, 108)), False),  # 4,096 edges, the cap
            (lambda: replay(random_oat(127, 16)), True),  # 4,097 edges
        ],
        ids=[
            "random_oat_120",
            "p4_sparse_pendant_12_6",
            "cycle_40",
            "cycle_with_tail_40",
            "at_the_edge_cap",
            "past_the_edge_cap",
        ],
    )
    def test_small_dense_and_stuck_graphs_on_masks(self, tmp_path, make, loads):
        # recognize, recolor and canonical work on the masks, importing no
        # numpy, on a member of mean degree 8 or more and at most
        # _MASK_EDGE_CAP edges, and on a non-member with its stuck
        # subgraph; one edge more and A@A is built.  Either way no byte of
        # any output depends on whether numpy was imported first.
        g = make()
        assert (g.edge_count > _MASK_EDGE_CAP) == loads
        out = recognize(g)
        gp = write_graph(tmp_path, g)
        if out.is_oat:
            S = Palette.default(chi_omega(out.tree)[0])
            first = canonical_colouring(out.tree, S).assignment
            swapped = tuple({1: 2, 2: 1}.get(c, c) for c in first)
        else:
            S, first, swapped = Palette.default(2), (1,) * g.n, (2,) * g.n
        a = write_colouring(tmp_path, first, S, "a.json")
        b = write_colouring(tmp_path, swapped, S, "b.json")
        runs = []
        for numpy_first in (False, True):
            tree = tmp_path / f"tree-{numpy_first}.json"
            commands = [
                ["recognize", gp, "--json", "--tree-out", str(tree)],
                ["recolor", gp, "--from", a, "--to", b],
                ["canonical", gp],
            ]
            results = []
            for argv in commands:
                code, stdout, loaded, _, _, err = run_child(argv, numpy_first)
                assert (code, loaded) == (0 if out.is_oat else 1, numpy_first or loads), err
                results.append((stdout, err))
            runs.append((results, tree.read_bytes() if out.is_oat else tree.exists()))
        assert runs[0] == runs[1]
        if not out.is_oat:
            stuck = json.loads(runs[0][0][0][0])["stuck_vertices"]
            assert stuck == list(out.stuck_vertices)

    @pytest.mark.parametrize(
        "text, argv, code",
        [
            # one field written +2: not plain, so the general reader takes it
            ("8 7\n0 1\n1 +2\n2 3\n3 4\n4 5\n5 6\n6 7\n", ["recognize", "--json"], 0),
            ("4 3\n0 1\n1 2\n1 2\n", ["recognize"], 2),
            (format_graph(classic("path", 8)), ["oracle", "--k", "3"], 0),
            (format_graph(classic("path", 8)), ["oracle", "--k", "3", "--frozen"], 0),
        ],
        ids=["plus_sign", "duplicate_edge", "oracle", "oracle_frozen"],
    )
    def test_small_commands_import_no_numpy_and_write_the_same_bytes(
        self, tmp_path, text, argv, code
    ):
        gp = tmp_path / "g.graph"
        gp.write_text(text)
        command = [argv[0], str(gp), *argv[1:]]
        runs = []
        for numpy_first in (False, True):
            got, out, loaded, _, _, err = run_child(command, numpy_first)
            assert (got, loaded) == (code, numpy_first), err
            runs.append((out, err))
        assert runs[0] == runs[1]
        if code == 2:
            assert runs[0] == ("", "error: line 4: duplicate edge (1, 2)\n")


class TestBlasThreads:
    """The CLI runs OpenBLAS on one thread unless OPENBLAS_NUM_THREADS says otherwise."""

    def dense_graph(self, tmp_path):
        # more edges than the masks take while numpy is unloaded: A@A is built
        return write_graph(tmp_path, replay(random_oat(150, 0)))

    def test_one_thread_by_default(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        argv = ["recognize", self.dense_graph(tmp_path)]
        code, _, loaded, threads, setting, _ = run_child(argv, env=env)
        assert (code, loaded, setting) == (0, True, "1")
        assert threads in (1, None)

    def test_the_callers_setting_wins(self, tmp_path):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
        argv = ["recognize", self.dense_graph(tmp_path)]
        code, _, loaded, threads, setting, _ = run_child(argv, env=env)
        assert (code, loaded, setting) == (0, True, "2")
        # OpenBLAS caps the count at the CPUs it sees, so the reference is
        # what it reports with numpy imported before the command.
        *_, reference, _, _ = run_child(["gen", "path", "2"], numpy_first=True, env=env)
        assert threads == reference


def _crlf_cases():
    cases = [(name, text) for name, text, *_ in MALFORMED + ACCEPTED]
    members = {
        "path_60": classic("path", 60),
        "random_oat_80": replay(random_oat(80, 0)),
        "p4_sparse_pendant_12_6": p4_sparse_third_op(12, replay(random_oat(6, 0)), "pendant"),
        "cycle_with_tail_40": cycle_with_tail(40),
    }
    cases += [(name, format_graph(g)) for name, g in members.items()]
    return [pytest.param(text, id=name) for name, text in cases]


class TestLineEnds:
    """A graph file is read with its line ends as written: a command answers
    a text with \\r\\n or lone \\r ends as it answers the same text with \\n
    ends, which is how universal newlines would have handed it on."""

    @pytest.mark.parametrize("text", _crlf_cases())
    def test_crlf_copy_answers_as_lf(self, tmp_path, capsys, text):
        crlf = re.sub(r"\r?\n", "\r\n", text)  # a lone \r stays one
        runs = []
        for body in (crlf, re.sub(r"\r\n?", "\n", crlf)):
            gp = tmp_path / "g.graph"
            gp.write_bytes(body.encode("utf-8"))
            code = main(["recognize", str(gp), "--json"])
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]

    def test_crlf_text_reaches_the_plain_reader(self, tmp_path, monkeypatch):
        # numpy is loaded here, so parse_graph tries the plain reader first,
        # and it reads the \r\n ends as written.
        g = replay(random_oat(30, 0))
        gp = tmp_path / "g.graph"
        gp.write_bytes(format_graph(g).replace("\n", "\r\n").encode("ascii"))
        read, seen = graph._parse_plain, []
        monkeypatch.setattr(graph, "_parse_plain", lambda text: seen.append(text) or read(text))
        monkeypatch.setattr(graph, "_parse_general", None)  # never called
        assert cli._read_graph(str(gp)) == g
        assert seen == [gp.read_bytes().decode("ascii")]

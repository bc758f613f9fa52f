import gc
import itertools
import random
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oatgraph import (
    Graph,
    GraphFormatError,
    SizeBudgetError,
    adjacency_square,
    clique_attachment,
    complement_components,
    connected_components,
    find_comparable_pair,
    format_graph,
    parse_graph,
)
from oatgraph.buildtree import replay
from oatgraph.generators import classic, p4_sparse_third_op, random_oat
from oatgraph import graph
from oatgraph.graph import _LINE_READ_CAP, _MASK_EDGE_CAP, _check_dense_budget, _on_masks
from oatgraph.graph import _parse_general, _parse_plain

from conftest import random_graph
from edge_list_cases import ACCEPTED, MALFORMED


def graphs(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph(n, picked)

    return build()


def reference_graph(n, edges):
    """A per-edge construction through a boolean matrix, written apart from
    Graph(n, edges), kept as the reference that it must agree with."""
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adj[u, v] = adj[v, u] = True
    return Graph.from_adjacency(adj)


def reference_parse_graph(text):
    """A per-line edge-list parser written apart from parse_graph, kept as
    the reference that parse_graph's readers must agree with."""
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
    found = sum(1 for ln in body if ln.strip())
    if found != m:
        raise GraphFormatError(f"header promises {m} edges, found {found} edge lines")
    seen = set()
    edges = []
    for lineno, ln in enumerate(body, lineno + 1):
        ln = ln.strip()
        if not ln:
            continue
        fields = ln.split()
        if len(fields) != 2:
            raise GraphFormatError(f"edge line must be 'u v', got {ln!r}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(f"edge line must be two integers, got {ln!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u}, {v}) out of range for n={n}", lineno)
        if u >= v:
            raise GraphFormatError(f"edge must satisfy u < v, got ({u}, {v})", lineno)
        if u * n + v in seen:
            raise GraphFormatError(f"duplicate edge ({u}, {v})", lineno)
        seen.add(u * n + v)
        edges.append((u, v))
    return reference_graph(n, edges)


def outcome(parse, text):
    """The graph a parser returns, or the type, text and line of its error."""
    try:
        return parse(text)
    except (GraphFormatError, SizeBudgetError) as exc:
        return type(exc), str(exc), getattr(exc, "lineno", None)


# Tokens int() rejects, spellings it accepts, and values beyond any range;
# then tokens np.fromstring could misread: signs inside or alone, zero
# padding, 18 digits, int64's maximum, where np.fromstring saturates, and
# the first value beyond it, and a vertical tab, a line break to
# str.splitlines.
JUNK_TOKENS = ["x", "1.0", "-1", "+1", "1_0", "\u0663", "99999999999999999999", "7", "0", "\xa0"]
JUNK_TOKENS += ["1-2", "+-1", "-", "+", "1+", "-0", "007", "999999999999999999"]
JUNK_TOKENS += ["9223372036854775807", "9223372036854775808", "\x0b"]


@st.composite
def mutated_edge_lists(draw):
    """format_graph output with lines swapped, dropped or duplicated, edges
    reversed, junk tokens put in or added, a line's fields split onto lines
    of their own or two lines merged, and blank lines, CRLF, tabs or
    trailing blanks; the header's edge count is mostly made to match, so
    that most texts reach the per-line checks."""
    g = draw(graphs(max_n=7))
    lines = format_graph(g).splitlines()
    header = lines[0]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split()
        kinds = ["swap", "drop", "duplicate", "reverse", "junk", "extra", "blank", "split", "merge"]
        kind = draw(st.sampled_from(kinds))
        if kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        elif kind == "reverse":
            lines[i] = " ".join(reversed(fields))
        elif kind == "junk" and fields:
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(JUNK_TOKENS))
            lines[i] = " ".join(fields)
        elif kind == "extra":
            lines[i] += " " + draw(st.sampled_from(JUNK_TOKENS))
        elif kind == "blank":
            lines.insert(j, draw(st.sampled_from(["", " ", "\t"])))
        elif kind == "split" and len(fields) > 1:
            lines[i : i + 1] = fields
        elif kind == "merge" and i + 1 < len(lines):
            lines[i : i + 2] = [lines[i] + " " + lines[i + 1]]
    if draw(st.integers(0, 3)) and lines[0] == header:
        lines[0] = f"{g.n} {sum(1 for ln in lines[1:] if ln.strip())}"
    ending = draw(st.sampled_from(["\n", "\r\n", " \n", "\t\r\n", "\r", "\x0b"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


# Faulty texts of digits, spaces, signs and line breaks: an odd field
# count, tokens that still pair up (an edge's fields on two lines, two
# edges on one line, the header and an edge on one line), a negative vertex
# that numpy indexing would wrap round, signs inside a token or alone
# (np.fromstring reads a lone sign as 0), then texts whose skeleton, with
# the digits deleted, is one " \n" per line while their fields are not two
# digit runs a line: a run after the last break making up for an empty
# field, an empty first field, and a run after a complete text; last, a
# field below int64's maximum zero-padded past int's default digit limit.
PLAIN_BYTE_FAULTS = [
    ("odd_field_count", "3 2\n0 2\n1\n"),
    ("edge_over_two_lines", "3 2\n0\n1\n1 2\n"),
    ("two_edges_one_line", "3 2\n0 1 1 2\n"),
    ("header_and_edge_one_line", "3 2 0 1\n1 2\n"),
    ("negative_vertex_wraps", "3 2\n-1 0\n1 2\n"),
    *((f"sign_{token}", f"3 1\n0 {token}\n") for token in ["1-2", "+-1", "-", "+", "1+"]),
    ("sign_as_edge_count", "3 -\n"),
    ("run_after_last_break_fills_empty_field", "1 \n0"),
    ("empty_first_field", "3 1\n 1\n"),
    ("run_after_complete_text", "3 1\n0 1\n2"),
    ("field_past_int_digit_limit", "3 1\n0 " + "0" * 4300 + "1\n"),
]


@st.composite
def plain_edge_lists(draw):
    """format_graph output respelled with leading zeros, in half the
    texts also with blank lines, tabs, repeated blanks, \\r line ends and
    no final line end, in the others kept in the writer's form with \\n
    or \\r\\n line ends; then mostly given one fault: a field zero-padded
    to 17-19 digits, an edge with u >= v or v >= n, a repeated edge, a
    wrong edge count, n over the dense budget, a non-ASCII digit, or \\x0b
    or \\x0c, which str.split takes as blanks and str.splitlines as line
    breaks."""
    g = draw(graphs(max_n=9))
    rows = [line.split() for line in format_graph(g).splitlines()]
    fault = draw(
        st.sampled_from(
            ["none", "digits", "order", "range", "repeat", "count", "budget", "unicode", "vt_ff"]
        )
    )
    edge = draw(st.integers(1, len(rows) - 1)) if len(rows) > 1 else None
    if fault == "digits":
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, 1))
        rows[i][j] = rows[i][j].zfill(draw(st.sampled_from([17, 18, 19])))
    elif fault == "order" and edge:
        u, v = rows[edge]
        rows[edge] = draw(st.sampled_from([[v, u], [u, u], [v, v]]))
    elif fault == "range" and edge:
        rows[edge][1] = str(g.n + draw(st.integers(0, 2)))
    elif fault == "repeat" and edge:
        rows.insert(draw(st.integers(1, len(rows))), rows[edge])
        rows[0][1] = str(len(rows) - 1)
    elif fault == "count":
        rows[0][1] = str(len(rows) - 1 + draw(st.sampled_from([-1, 1])))
    elif fault == "budget":
        rows[0][0] = draw(st.sampled_from(["1000000", "9" * 18, "9" * 19]))
    spaced = draw(st.booleans())
    pad = st.sampled_from(["", " ", "\t", "  ", " \t "]) if spaced else st.just("")
    zeros = st.sampled_from(["", "", "0", "00"])
    lines = []
    for fields in rows:
        for _ in range(draw(st.integers(0, int(spaced)))):
            lines.append(draw(pad))  # a blank line
        fields = [draw(zeros) + f if len(f) < 17 else f for f in fields]
        gap = draw(pad) or " "
        lines.append(draw(pad) + gap.join(fields) + draw(pad))
    breaks = ["\n", "\r\n", "\r"] if spaced else ["\n", "\r\n"]
    ends = [draw(st.sampled_from(breaks)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if spaced and not draw(st.integers(0, 4)):
        text = text.rstrip("\r\n")
    if fault in ("unicode", "vt_ff") and text:
        at = draw(st.integers(0, len(text) - 1))
        new = "\u0663" if fault == "unicode" else draw(st.sampled_from(["\x0b", "\x0c"]))
        if fault == "unicode" or text[at] in " \t\r\n":
            text = text[:at] + new + text[at + 1 :]
    return text


def per_reader(cases):
    """Each recorded case through parse_graph under its own id, then
    through the general reader under its id with '-general' appended:
    most accepted texts are plain, and parse_graph never shows them to
    the general reader."""
    readers = [(parse_graph, ""), (_parse_general, "-general")]
    return [
        pytest.param(parse, *case[1:], id=case[0] + suffix)
        for parse, suffix in readers
        for case in cases
    ]


def is_clique(g, verts):
    return all(g.has_edge(a, b) for a, b in itertools.combinations(verts, 2))


class TestConstruction:
    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            Graph(0)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_edges_sorted_unique(self):
        g = Graph(3, [(2, 0), (0, 1), (1, 0)])
        assert g.edges() == [(0, 1), (0, 2)]
        assert g.edge_count == 2

    def test_adjacency_is_read_only(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.adj[0, 1] = False

    def test_from_adjacency_validates(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph.from_adjacency(np.array([[0, 1], [0, 0]], dtype=bool))
        with pytest.raises(ValueError, match="diagonal"):
            Graph.from_adjacency(np.eye(2, dtype=bool))

    def test_reports_first_faulty_edge(self):
        with pytest.raises(ValueError) as exc:
            Graph(3, [(0, 1), (2, 2), (0, 3)])
        assert str(exc.value) == "self-loop at vertex 2"
        with pytest.raises(ValueError) as exc:
            Graph(3, [(0, 1), (-1, 2), (2, 2)])
        assert str(exc.value) == "edge (-1, 2) out of range for n=3"
        with pytest.raises(ValueError) as exc:
            Graph(3, [(2**70, 1), (0, 1)])
        assert str(exc.value) == f"edge ({2**70}, 1) out of range for n=3"
        # Edges are checked in stream order, whatever the fault's kind.
        with pytest.raises(ValueError) as exc:
            Graph(3, [(0, 5), (1,)])
        assert str(exc.value) == "edge (0, 5) out of range for n=3"
        with pytest.raises(ValueError) as exc:
            Graph(3, [(0, 1), (1,), (0, 5)])
        assert str(exc.value) == "edge (1,) is not a (u, v) pair"

    @pytest.mark.parametrize("items", [[(0, 1, 2)], [(0,)], [()], [(0, 1), (1,)], [5], [(0, 1.5)]])
    def test_refuses_items_that_are_not_pairs_of_integers(self, items):
        with pytest.raises((TypeError, ValueError)):
            Graph(3, items)

    def test_takes_a_lazy_stream_longer_than_a_chunk(self):
        # 400 * 399 / 2 = 79,800 edges from a generator, read once; the
        # fault comes after all of them.
        n = 400
        assert Graph(n, itertools.combinations(range(n), 2)) == Graph.from_adjacency(
            ~np.eye(n, dtype=bool)
        )
        bad = itertools.chain(itertools.combinations(range(n), 2), [(3, 3), (0, n)])
        with pytest.raises(ValueError, match="^self-loop at vertex 3$"):
            Graph(n, bad)

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=12)
            )
        )
    )
    @settings(max_examples=200)
    def test_agrees_with_per_edge_reference(self, case):
        n, edges = case
        try:
            want = reference_graph(n, edges)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Graph(n, edges)
            assert str(got.value) == str(exc)
        else:
            assert Graph(n, edges) == want

    def test_induced_relabels_in_sorted_order(self):
        g = Graph(4, [(0, 2), (2, 3)])
        h = g.induced([3, 2, 0])
        assert h.n == 3
        assert h.edges() == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_accessors_refuse_a_vertex_out_of_range(self, bad):
        # -1 is not read as vertex n-1, and n is refused like -1
        g = Graph(3, [(0, 1), (1, 2)])
        calls = (g.neighbours, g.degree, lambda v: g.has_edge(v, 1), lambda v: g.has_edge(1, v))
        for call in calls:
            with pytest.raises(ValueError, match=f"^vertex {bad} out of range for n=3$"):
                call(bad)


def check_against_matrix(g, n, edges, rng):
    """Every reader of g against a boolean matrix built here from edges."""
    want = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        want[u, v] = want[v, u] = True
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if want[u, v]]
    assert g.n == n
    assert g.adj.dtype == bool and np.array_equal(g.adj, want)
    assert g.edges() == pairs
    assert g.edge_count == len(pairs)
    assert [g.degree(v) for v in range(n)] == want.sum(axis=1).tolist()
    assert [[g.has_edge(u, v) for v in range(n)] for u in range(n)] == want.tolist()
    assert format_graph(g) == "".join(f"{u} {v}\n" for u, v in [(n, len(pairs)), *pairs])
    sub = sorted(rng.sample(range(n), rng.randint(1, n)))
    assert np.array_equal(g.induced(sub).adj, want[np.ix_(sub, sub)])
    assert g == Graph.from_adjacency(want) == Graph(n, pairs)
    if n > 1:
        u, v = sorted(rng.sample(range(n), 2))
        flipped = want.copy()
        flipped[u, v] = flipped[v, u] = not want[u, v]
        assert g != Graph.from_adjacency(flipped)
    assert g != Graph(n + 1, pairs)


class TestMasksOnly:
    """A graph holds only its bitmasks; what it reports must match the
    matrix of its edge list."""

    @pytest.mark.parametrize("parse, text, n, edges", per_reader(ACCEPTED))
    def test_accepted_texts(self, parse, text, n, edges):
        check_against_matrix(parse(text), n, edges, random.Random(text))

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 64, 65, 130])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_seeded_gnp(self, n, p):
        for seed in range(2):
            rng = random.Random(f"masks-{n}-{p}-{seed}")
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            rng.shuffle(edges)
            check_against_matrix(Graph(n, edges), n, edges, rng)
            check_against_matrix(parse_graph(format_graph(Graph(n, edges))), n, edges, rng)


def induced_both_ways(g, verts):
    """g.induced(verts) built on the masks side, then on the arrays side."""
    got = []
    for side in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_on_masks", lambda n, ends: side)
            got.append(g.induced(verts))
    return got


def induced_reference(g, verts):
    idx = sorted(set(verts))
    pairs = itertools.combinations(range(len(idx)), 2)
    return Graph(len(idx), [(i, j) for i, j in pairs if g.has_edge(idx[i], idx[j])])


class TestInducedSides:
    """induced builds the same subgraph on the masks as on arrays."""

    @given(
        st.integers(1, 90),
        st.sampled_from([0.03, 0.2, 0.5, 0.8, 1.0]),
        st.integers(0, 10**6),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_sides_agree_on_random_subsets(self, n, p, seed, data):
        g = random_graph(n, p, seed)
        # up to 2n draws: duplicates, a single vertex, and k >= n/2 all come up
        verts = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
        on_masks, on_arrays = induced_both_ways(g, verts)
        assert on_masks == on_arrays == induced_reference(g, verts)

    @pytest.mark.parametrize("k", [1, 60, 90, 120])
    def test_sides_agree_on_a_dense_graph(self, k):
        g = random_graph(120, 0.7, k)
        rng = random.Random(k)
        verts = rng.sample(range(120), k)
        verts += verts[: k // 2]  # duplicates
        rng.shuffle(verts)
        on_masks, on_arrays = induced_both_ways(g, verts)
        assert on_masks == on_arrays == induced_reference(g, verts)

    def test_rule_counts_the_numpy_import(self, monkeypatch):
        cap = 2 * _MASK_EDGE_CAP  # edge ends
        # numpy loaded: the mean degree alone decides
        assert _on_masks(100, 799) and not _on_masks(100, 800)
        assert not _on_masks(100, cap)
        monkeypatch.delitem(sys.modules, "numpy")
        assert _on_masks(100, cap) and not _on_masks(100, cap + 2)
        assert _on_masks(10**4, 7 * 10**4)  # sparse at any size


class TestParsing:
    def test_round_trip(self):
        text = "3 2\n0 1\n1 2\n"
        g = parse_graph(text)
        assert format_graph(g) == text

    def test_blank_lines_ignored(self):
        g = parse_graph("\n2 1\n\n0 1\n\n")
        assert g.edges() == [(0, 1)]

    def test_refuses_vertex_count_beyond_memory_before_allocating(self):
        with pytest.raises(SizeBudgetError, match="physical memory"):
            parse_graph("1000000 0\n")

    def test_header_errors_carry_line_number(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_graph("two 1\n0 1\n")

    def test_rejects_duplicate_edge_with_line(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_graph("2 2\n0 1\n0 1\n")

    def test_rejects_unsorted_endpoint_pair(self):
        with pytest.raises(GraphFormatError):
            parse_graph("2 1\n1 0\n")

    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            parse_graph("2 1\n1 1\n")

    def test_rejects_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            parse_graph("2 2\n0 1\n")

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("2 1\n0 5\n")

    @given(graphs())
    @settings(max_examples=60)
    def test_format_parse_round_trip(self, g):
        assert parse_graph(format_graph(g)) == g

    @pytest.mark.parametrize("parse, text, message, lineno", per_reader(MALFORMED))
    def test_malformed_text(self, parse, text, message, lineno):
        with pytest.raises(GraphFormatError) as exc:
            parse(text)
        assert (str(exc.value), exc.value.lineno) == (message, lineno)

    @pytest.mark.parametrize("parse, text, n, edges", per_reader(ACCEPTED))
    def test_accepted_text(self, parse, text, n, edges):
        g = parse(text)
        assert (g.n, g.edges()) == (n, edges)

    @pytest.mark.parametrize("old, new", [("\n", "\x0b"), (" ", "\xa0")], ids=["vt", "nbsp"])
    def test_general_reader_takes_a_wide_member(self, old, new):
        # \v still breaks lines and \xa0 still separates fields, but neither
        # is plain, so only the general reader sees these texts.
        text = format_graph(replay(random_oat(1000, 0)))
        other = text.replace(old, new)
        assert _parse_plain(other) is None
        assert _parse_general(other) == parse_graph(text)

    @given(mutated_edge_lists())
    @settings(max_examples=400)
    def test_agrees_with_per_line_reference(self, text):
        assert outcome(parse_graph, text) == outcome(reference_parse_graph, text)

    @pytest.mark.parametrize(
        "g",
        [
            classic("path", 300),
            replay(random_oat(120, 0)),
            p4_sparse_third_op(12, replay(random_oat(10, 1)), "anti"),
            p4_sparse_third_op(20, None, "pendant"),
        ],
        ids=["path", "random_oat", "p4_sparse_anti", "p4_sparse_pendant"],
    )
    def test_plain_reader_takes_generated_members(self, g):
        # Without this, a plain reader that always gave up would pass every
        # other parsing test.
        text = format_graph(g)
        fast = _parse_plain(text)
        assert isinstance(fast, Graph)
        assert fast == _parse_general(text) == g
        assert _parse_plain(text.replace("\n", "\r\n")) == g

    @pytest.mark.parametrize(
        "text",
        [case[1] for case in MALFORMED] + [text for _, text in PLAIN_BYTE_FAULTS],
        ids=[c[0] for c in MALFORMED] + [name for name, _ in PLAIN_BYTE_FAULTS],
    )
    def test_plain_reader_leaves_every_fault_to_the_general_one(self, text):
        with pytest.raises(GraphFormatError):
            _parse_general(text)
        # An error here means np.fromstring met a token it could not read.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _parse_plain(text) is None

    def test_plain_reader_takes_fields_below_int64_maximum(self):
        text = "3 1\n0 " + "0" * 18 + "1\n"
        assert _parse_plain(text) == _parse_general(text) == Graph(3, [(0, 1)])
        # np.fromstring saturates at int64's maximum, so a field there or
        # beyond is left to the general reader, which words its error.
        for field in ["9223372036854775807", "1" + "0" * 19]:
            edge, header = f"3 1\n0 {field}\n", f"{field} 0\n"
            assert _parse_plain(edge) is None and _parse_plain(header) is None
            with pytest.raises(GraphFormatError, match=f"edge \\(0, {field}\\) out of range"):
                parse_graph(edge)
            with pytest.raises(SizeBudgetError, match=f"n = {field} needs"):
                parse_graph(header)
        # A run of 20 zeros is left to the general reader too: int reads a
        # field of 20-odd digits, and refuses one past its digit limit.
        assert "numpy" in sys.modules
        text = "3 1\n0 " + "0" * 20 + "1\n"
        assert _parse_plain(text) is None and parse_graph(text) == Graph(3, [(0, 1)])
        text = "3 1\n0 " + "0" * 4300 + "1\n"
        assert _parse_plain(text) is None
        with pytest.raises(GraphFormatError, match="edge line must be two integers"):
            parse_graph(text)

    @given(graphs())
    @settings(max_examples=100)
    def test_plain_reader_takes_the_writers_form(self, g):
        # Without this, a plain reader that always gave up would pass every
        # agreement test.
        text = format_graph(g)
        assert _parse_plain(text) == g
        assert _parse_plain(text.replace("\n", "\r\n")) == g

    def test_plain_reader_peak_on_a_dense_member(self):
        # The text's bytes, its endpoint values and the n x n boolean
        # matrix they fill: 9.7 n^2 bytes on this member.
        g = replay(random_oat(500, 11))
        text = format_graph(g)
        tracemalloc.start()
        try:
            assert parse_graph(text) == g
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * g.n**2

    @given(mutated_edge_lists())
    @settings(max_examples=400)
    def test_plain_reader_agrees_with_general_one(self, text):
        # An error here means np.fromstring met a token it could not read.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = outcome(_parse_plain, text)
        assert fast is None or fast == outcome(_parse_general, text)

    def test_allocates_no_container_per_edge(self):
        # Per-edge tuples would trigger (and lengthen) cyclic-GC passes that
        # get charged to whatever parses a large graph.
        text = format_graph(random_graph(150, 0.5, 3))
        passes = []

        def count(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        gc.callbacks.append(count)
        try:
            g = parse_graph(text)
        finally:
            gc.callbacks.remove(count)
        assert g.edge_count > 5000
        assert len(passes) <= 1

    def test_general_reader_allocates_no_container_per_edge(self):
        # The same on a text the plain reader leaves to the general one: \v
        # breaks lines for str.splitlines, but it is not plain.
        text = format_graph(random_graph(150, 0.5, 3)).replace("\n", "\x0b")
        assert _parse_plain(text) is None
        passes = []

        def count(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        gc.callbacks.append(count)
        try:
            g = parse_graph(text)
        finally:
            gc.callbacks.remove(count)
        assert g.edge_count > 5000
        assert len(passes) <= 1


class TestIntReader:
    """parse_graph's two readers on plain texts: the general one, which
    reads fields by int and takes short texts while numpy is not imported,
    and the plain one, which must agree with it wherever it does not give
    up."""

    @given(plain_edge_lists())
    @settings(max_examples=600)
    def test_agrees_with_plain_and_general_readers(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = outcome(_parse_plain, text)
        general = outcome(_parse_general, text)
        if fast is not None:
            assert fast == general
        assert outcome(parse_graph, text) == general

    @pytest.mark.parametrize(
        "make, size",
        [
            pytest.param(make, size, id=name + suffix)
            for size, suffix in [(200_000, ""), (60_000, "-below_cap")]
            for name, make in [
                ("blanks", lambda size: " " * size + "x"),
                ("trailing_blanks", lambda size: "1 2" + " \t" * (size // 2) + "x"),
                ("crlf_lines", lambda size: "0 1\r\n" * (size // 5) + "x"),
                ("crlf_blank_lines", lambda size: "\r\n" * (size // 2) + "\r\r\n x"),
                ("cr_lines", lambda size: "\r" * size + "x"),
            ]
        ],
    )
    def test_format_check_stays_linear(self, make, size):
        # Each text is plain but for its last character.  At 200 kB the
        # plain reader sees it, then the general one; at 60 kB, below the
        # cap, only the general one, without numpy.  Each parse takes
        # milliseconds; one that rescanned a run of blanks or line breaks
        # from every position in it would not end within the timeout.  It
        # runs in a child process, since a parse in progress cannot be
        # stopped.
        text = make(size)
        assert (len(text) > _LINE_READ_CAP) == (size > 100_000)
        child = (
            "import sys\n"
            "from oatgraph import GraphFormatError, parse_graph\n"
            "try:\n"
            "    parse_graph(sys.stdin.buffer.read().decode())\n"
            "except GraphFormatError:\n"
            "    print('numpy' in sys.modules)\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", child], input=text.encode(), capture_output=True, timeout=30
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == f"{len(text) > _LINE_READ_CAP}\n".encode()


class TestComponents:
    def test_single_vertex(self):
        assert connected_components(Graph(1)) == ((0,),)

    def test_ordering_by_smallest_vertex(self):
        g = Graph(5, [(1, 3), (0, 4)])
        assert connected_components(g) == ((0, 4), (1, 3), (2,))

    def test_complement_components(self):
        # complete bipartite graph: complement splits into the two sides
        g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert complement_components(g) == ((0, 1), (2, 3))

    @given(graphs())
    @settings(max_examples=60)
    def test_components_partition_and_are_maximal(self, g):
        parts = connected_components(g)
        seen = [v for p in parts for v in p]
        assert sorted(seen) == list(range(g.n))
        for p in parts:
            for q in parts:
                if p is not q:
                    assert not any(g.has_edge(u, v) for u in p for v in q)


class TestAdjacencySquare:
    @given(graphs())
    @settings(max_examples=60)
    def test_equals_matrix_square(self, g):
        a2 = adjacency_square(g)
        want = g.adj.astype(np.int64) @ g.adj.astype(np.int64)
        assert np.array_equal(a2, want)
        assert np.array_equal(a2.diagonal(), g.adj.sum(axis=1))
        assert a2.dtype == np.int32 and not a2.flags.writeable

    def test_refuses_counts_float32_cannot_hold(self):
        # Only n is read before the refusal, so no matrix is made.
        class Huge:
            n = (1 << 24) + 1

        with pytest.raises(SizeBudgetError, match=r"exact up to n = 2\*\*24"):
            adjacency_square(Huge())


class TestComparablePair:
    def brute(self, g):
        for flat in range(g.n * g.n):
            u, v = divmod(flat, g.n)
            if u != v and not g.has_edge(u, v):
                if set(g.neighbours(u)) <= set(g.neighbours(v)):
                    return (u, v)
        return None

    @given(graphs())
    @settings(max_examples=100)
    def test_matches_direct_scan(self, g):
        assert find_comparable_pair(g) == self.brute(g)
        assert find_comparable_pair(g, adjacency_square(g)) == self.brute(g)

    def test_isolated_vertex_is_comparable(self):
        g = Graph(3, [(1, 2)])
        assert find_comparable_pair(g) == (0, 1)

    def test_none_on_c5(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert find_comparable_pair(g) is None


class TestCliqueAttachment:
    def brute(self, g):
        # first cut vertex (ascending: its removal adds a component) whose
        # removal leaves a qualifying clique component (components ordered
        # by minimum vertex)
        for z in range(g.n):
            rest = [u for u in range(g.n) if u != z]
            if not rest:
                continue
            sub = g.induced(rest)
            if len(connected_components(sub)) <= len(connected_components(g)):
                continue
            for comp in connected_components(sub):
                verts = tuple(rest[i] for i in comp)
                if is_clique(g, verts) and all(g.has_edge(z, q) for q in verts):
                    return (z, verts)
        return None

    @given(graphs())
    @settings(max_examples=120)
    def test_matches_cut_vertex_scan(self, g):
        got = clique_attachment(g)
        want = self.brute(g)
        assert got == want
        if got is not None:
            z, q = got
            assert all(g.has_edge(z, x) for x in q)
            assert is_clique(g, q)
            for x in q:
                assert set(g.neighbours(x)) == (set(q) - {x}) | {z}

    def test_clique_graph_returns_none(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert clique_attachment(g) is None

    def test_path_pendant(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert clique_attachment(g) == (1, (0,))

    def test_triangle_hanging_off_a_path(self):
        # 0 carries both a triangle {1,2,3} and a P2 {4,5}
        g = Graph(
            6,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 5)],
        )
        assert clique_attachment(g) == (0, (1, 2, 3))

    def test_none_on_square(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert clique_attachment(g) is None


def test_random_graph_helper_is_deterministic():
    assert random_graph(8, 0.4, 3) == random_graph(8, 0.4, 3)

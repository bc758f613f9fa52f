"""The command line's exit contract under generated input.

cli.main runs in-process on recognize, canonical, recolor, verify, oracle
and gen, fed edge-list texts mutated from edge_list_cases.py, colouring and
sequence JSON with wrong types, huge ints, NaN, duplicate keys and deep
nesting, --k values from 0 to 10^12, and unwritable --tree-out paths.
Whatever the input, README's contract holds: exit 0, 1 or 2; on exit 2
exactly one "error: ..." line on stderr and nothing on stdout; and never an
exception out of main.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from oatgraph import classic, fixture, format_graph
from oatgraph.cli import main

from edge_list_cases import ACCEPTED, LONG, MALFORMED

# Characters a mutation puts into an edge list: digits and signs, blanks,
# line breaks str.splitlines knows, and characters int() or str.split read
# differently from ASCII.
ALPHABET = "0123456789-+_. x\t\r\n\x0b\x0c\x1c\x1f\x85\xa0\u2028\u0663\uff12"

# The domino (chi 2) and a proper colouring of it over 1..3.
DOMINO = format_graph(fixture("domino").graph)
PROPER = [1, 2, 1, 2, 2, 1]

# K_6, the oracle's graph for --k: below 6 colours it has no colouring, at 6
# its 720 are all frozen, and from 7 the oracle's budget refuses it, so every
# k gives a census in well under a second.  On the domino the budget admits
# k = 6, whose census of 13,230 colourings takes 90 s on a 2-vCPU VM.
K6 = format_graph(classic("complete", 6))

# One settings for every test: few enough examples to take a few seconds.
fuzz = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) with its stdout and stderr captured; an exception out of
    main, a traceback at the command line, fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv: list[str]) -> int:
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out == "", (argv, out[:200])
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (
            argv,
            err[:500],
        )
    return code


def header_n(text: str) -> int | None:
    """The vertex count the general reader would take from text's header."""
    for line in text.splitlines():
        if line.strip():
            try:
                return int(line.split()[0])
            except ValueError:
                return None
    return None


def mostly(good: st.SearchStrategy, other: st.SearchStrategy) -> st.SearchStrategy:
    """good three times in four, so that most inputs get past the first check."""
    return st.integers(0, 3).flatmap(lambda i: good if i else other)


@st.composite
def edge_lists(draw) -> str:
    """A text of edge_list_cases.py with up to four characters put in,
    dropped or replaced, or lines duplicated or swapped.  Its header names
    at most 50 vertices, so that no run allocates much."""
    text = draw(st.sampled_from([case[1] for case in MALFORMED + ACCEPTED] + [DOMINO]))
    for _ in range(draw(mostly(st.just(0), st.integers(1, 4)))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "drop", "replace", "line"]))
        if kind == "line":
            lines = text.splitlines(keepends=True) or [""]
            j, k = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            if draw(st.booleans()):
                lines.insert(j, lines[k])
            else:
                lines[j], lines[k] = lines[k], lines[j]
            text = "".join(lines)
        else:
            put = draw(st.sampled_from(ALPHABET)) if kind != "drop" else ""
            text = text[:i] + put + text[i + (kind != "insert") :]
    n = header_n(text)
    assume(n is None or n <= 50)
    return text


class Raw(str):
    """JSON text written as it is: a number past int()'s digit limit, or
    nesting deeper than the parser recurses."""


class Obj(list):
    """A JSON object as its (key, value) pairs in order; a key may repeat."""


def to_text(x) -> str:
    if isinstance(x, Raw):
        return str(x)
    if isinstance(x, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {to_text(v)}" for k, v in x) + "}"
    if isinstance(x, list):
        return "[" + ", ".join(map(to_text, x)) + "]"
    return json.dumps(x)  # NaN and Infinity as json writes them


KEYS = ["palette", "assignment", "initial", "steps", "v", "c", "format_version"]

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 7),
    st.sampled_from([2**63, -(2**64), 10**30, 1.0, 2.5, float("nan"), float("inf")]),
    st.sampled_from(["", "1", "x"]),
    st.sampled_from([Raw(LONG), Raw("-" + LONG), Raw("1e999")]),
    st.sampled_from([900, 1100, 100_000]).map(lambda d: Raw("[" * d + "]" * d)),
    st.just(Raw("[" * 100_000)),
)
junk = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.tuples(st.sampled_from(KEYS), inner), max_size=3).map(Obj),
    max_leaves=8,
)


def objects(fields: dict) -> st.SearchStrategy:
    """An object with each of fields (name -> strategy) in order, then up to
    two more pairs, repeated keys among them; or a junk value whole."""
    pairs = st.tuples(*(st.tuples(st.just(k), v) for k, v in fields.items()))
    keys = st.sampled_from([*fields, "format_version", "x"])
    extra = mostly(st.just([]), st.lists(st.tuples(keys, junk), min_size=1, max_size=2))
    return mostly(st.builds(lambda p, e: Obj([*p, *e]), pairs, extra), junk)


def good_or(value) -> st.SearchStrategy:
    return mostly(st.just(value), junk)


colourings = objects({"palette": good_or([1, 2, 3]), "assignment": good_or(PROPER)})
steps = objects({"v": good_or(0), "c": good_or(3)})
sequences = objects({"initial": colourings, "steps": st.lists(steps, max_size=3)})


@pytest.fixture(scope="module")
def where(tmp_path_factory):
    """A directory for this module's files, with the domino's file, a
    proper colouring of it and an empty walk from that colouring."""
    d = tmp_path_factory.mktemp("contract")
    colouring = {"palette": [1, 2, 3], "assignment": PROPER}
    (d / "domino.graph").write_text(DOMINO)
    (d / "k6.graph").write_text(K6)
    (d / "domino-colouring.json").write_text(json.dumps(colouring))
    (d / "domino-walk.json").write_text(json.dumps({"initial": colouring, "steps": []}))
    return d


@fuzz
@given(
    text=edge_lists(),
    head=mostly(st.just(b""), st.just(b"\xff")),  # \xff: no UTF-8 text
    command=st.sampled_from(["recognize", "canonical", "verify", "oracle", "gen"]),
)
def test_edge_lists(where, text, head, command):
    path = where / "g.graph"
    path.write_bytes(head + text.encode("utf-8"))
    g = str(path)
    argv = {
        "recognize": ["recognize", g, "--json"],
        "canonical": ["canonical", g],
        "verify": ["verify", g, str(where / "domino-walk.json")],
        # one colour: at most one colouring, however many vertices the text names
        "oracle": ["oracle", g, "--k", "1"],
        "gen": ["gen", "p4_sparse", "2", "--r-file", g],
    }[command]
    assert_contract(argv)


@fuzz
@given(doc=colourings, side=st.sampled_from(["--from", "--to"]))
def test_colouring_json(where, doc, side):
    bad = where / "bad.json"
    bad.write_text(to_text(doc))
    good = str(where / "domino-colouring.json")
    files = {"--from": good, "--to": good, side: str(bad)}
    assert_contract(["recolor", str(where / "domino.graph"), *sum(files.items(), ())])


@fuzz
@given(
    k=st.one_of(st.integers(0, 8), st.integers(0, 10**12)),
    command=st.sampled_from(["recolor", "oracle", "oracle --frozen"]),
)
def test_k(where, k, command):
    domino, colouring = str(where / "domino.graph"), str(where / "domino-colouring.json")
    argv = {
        "recolor": ["recolor", domino, "--from", colouring, "--to", colouring],
        "oracle": ["oracle", str(where / "k6.graph")],
        "oracle --frozen": ["oracle", str(where / "k6.graph"), "--frozen"],
    }[command]
    assert_contract([*argv, "--k", str(k)])


@fuzz
@given(doc=sequences)
def test_sequence_json(where, doc):
    seq = where / "seq.json"
    seq.write_text(to_text(doc))
    assert_contract(["verify", str(where / "domino.graph"), str(seq)])


def named(where, name: str) -> str:
    """A path the gen and --tree-out cases name in capitals, else name itself."""
    paths = {
        "DOMINO": where / "domino.graph",
        "MISSING": where / "missing.graph",
        "DIR": where,
        "THROUGH": where / "domino.graph" / "t.json",  # through a regular file
    }
    return str(paths.get(name, name))


GEN_OPTIONS = [
    ["--seed", "3"],
    ["--case", "anti"],
    *(["--r-file", name] for name in ("DOMINO", "MISSING", "")),
    *(["--tree-out", name] for name in ("DIR", "THROUGH", "")),
]


@fuzz
@given(
    family=st.sampled_from(
        ["path", "cycle", "complete", "domino", "gem", "random_oat", "p4_sparse", "x"]
    ),
    param=st.sampled_from([None, -1, 0, 1, 2, 7, 10**12]),
    options=st.lists(st.sampled_from(GEN_OPTIONS), max_size=2),
)
def test_gen(where, family, param, options):
    argv = ["gen", family, *([] if param is None else [str(param)])]
    for option, name in options:
        argv += [option, named(where, name)]
    assert_contract(argv)


@pytest.mark.parametrize("name", ["DIR", "THROUGH", ""])
def test_unwritable_tree_out(where, name):
    argv = ["recognize", named(where, "DOMINO"), "--tree-out", named(where, name)]
    assert assert_contract(argv) == 2

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oatgraph import (
    Colouring,
    ColouringError,
    Graph,
    Palette,
    PaletteError,
    colouring_from_json,
    colouring_to_json,
    format_graph,
    parse_graph,
    random_oat,
    replay,
)


class TestPalette:
    def test_default_is_one_through_k(self):
        assert Palette.default(3).colours == (1, 2, 3)

    def test_rejects_empty(self):
        with pytest.raises(PaletteError):
            Palette(())

    def test_rejects_duplicates(self):
        with pytest.raises(PaletteError):
            Palette((1, 1, 2))

    def test_rejects_float_colours(self):
        # int() would truncate this to (1, 2)
        with pytest.raises(TypeError):
            Palette((1.9, 2.5))

    def test_prefix_and_without(self):
        s = Palette((1, 2, 3))
        assert s.prefix(2).colours == (1, 2)
        assert 2 in s and 5 not in s
        assert len(s) == 3
        assert list(s) == [1, 2, 3]
        assert s[0] == 1


class TestColouring:
    def test_rejects_float_assignment(self):
        # int() would truncate this to (1, 2)
        with pytest.raises(TypeError):
            Colouring((1.7, 2.2), Palette.default(2))

    def test_accepts_numpy_integers(self):
        c = Colouring(tuple(np.array([2, 1], dtype=np.int64)), Palette.default(2))
        assert c.assignment == (2, 1)
        assert all(type(x) is int for x in c.assignment)

    def test_rejects_off_palette_colour(self):
        with pytest.raises(ColouringError):
            Colouring((1, 4), Palette((1, 2)))

    def test_rejects_empty_assignment(self):
        with pytest.raises(ColouringError):
            Colouring((), Palette((1,)))

    def test_colour_classes(self):
        c = Colouring((2, 1, 2), Palette((1, 2)))
        assert c.colour_classes() == {1: (1,), 2: (0, 2)}

    def test_is_proper(self):
        g = Graph(2, [(0, 1)])
        assert Colouring((1, 2), Palette((1, 2))).is_proper(g)
        assert not Colouring((1, 1), Palette((1, 2))).is_proper(g)

    def test_getitem(self):
        assert Colouring((5, 7), Palette((5, 7)))[1] == 7


@st.composite
def graph_from_each_source(draw) -> Graph:
    """A graph on 1-40 vertices: built by Graph(n, edges), parsed from its
    format_graph text, or replayed from a random_oat tree."""
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 10**6))
    source = draw(st.sampled_from(["built", "parsed", "replayed"]))
    if source == "replayed":
        return replay(random_oat(n, seed))
    p = draw(st.floats(0, 1))
    rng = random.Random(seed)
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    return parse_graph(format_graph(g)) if source == "parsed" else g


class TestIsProperProperty:
    @given(graph_from_each_source(), st.integers(1, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_every_edge(self, g, k, data):
        # mostly improper: colours drawn uniformly, edges ignored
        a = tuple(data.draw(st.lists(st.integers(1, k), min_size=g.n, max_size=g.n)))
        expected = all(a[u] != a[v] for u, v in g.edges())
        assert Colouring(a, Palette.default(k)).is_proper(g) is expected

    def test_vertex_count_mismatch_keeps_its_message(self):
        with pytest.raises(ColouringError, match="colouring covers 2 vertices, graph has 3"):
            Colouring((1, 2), Palette.default(2)).is_proper(Graph(3))


class TestJson:
    def test_round_trip(self):
        c = Colouring((2, 1), Palette((1, 2, 3)))
        doc = colouring_to_json(c)
        assert doc == {"palette": [1, 2, 3], "assignment": [2, 1]}
        assert colouring_from_json(doc) == c

    def test_rejects_missing_key(self):
        with pytest.raises(ColouringError):
            colouring_from_json({"palette": [1]})

    def test_rejects_extra_key(self):
        with pytest.raises(ColouringError):
            colouring_from_json({"palette": [1], "assignment": [1], "x": 0})

    def test_rejects_non_integer_entries(self):
        with pytest.raises(ColouringError):
            colouring_from_json({"palette": [1, True], "assignment": [1]})
        with pytest.raises(ColouringError):
            colouring_from_json({"palette": [1], "assignment": ["1"]})

import random
import sys

import pytest

from oatgraph import Colouring, Comparable, Graph, Join, Leaf, Palette, Union
from oatgraph import canonical_colouring, chi_omega


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi graph for oracle cross-checks."""
    rng = random.Random(f"gnp-{n}-{p}-{seed}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


@pytest.fixture
def gnp():
    return random_graph


def moved_colouring(tree, g: Graph, S: Palette, seed: str, moves: int) -> Colouring:
    """A proper colouring of a member in polynomial time: `moves` tries of a
    seeded proper single-vertex move, starting from the canonical colouring
    over the first chi colours of S."""
    rng = random.Random(seed)
    chi = chi_omega(tree)[0]
    cur = list(canonical_colouring(tree, S.prefix(chi)).assignment)
    for _ in range(moves):
        v = rng.randrange(g.n)
        held = {cur[w] for w in g.neighbours(v)}
        free = [c for c in S if c != cur[v] and c not in held]
        if free:
            cur[v] = rng.choice(free)
    return Colouring(tuple(cur), S)


@pytest.fixture
def moved():
    return moved_colouring


def path_tree(n: int):
    """The build tree recognize returns for the path 0-1-...-(n-1), n >= 3,
    made by hand: a comparable chain n - 3 nodes deep over P_3."""
    t = Join(Union(Leaf(n - 3), Leaf(n - 1)), Leaf(n - 2))
    for u in range(n - 4, -1, -1):
        t = Comparable(t, u, u + 2, (u + 1,))
    return t


@pytest.fixture
def path_chain():
    return path_tree


def ladder_tree(rungs: int):
    """A ladder made by hand, 2 * rungs + 1 deep: from Leaf(0), each rung
    joins the next label a to the tree, then adds a + 1 comparable to a,
    adjacent to 1 .. a - 1."""
    t = Leaf(0)
    for a in range(1, 2 * rungs, 2):
        t = Comparable(Join(t, Leaf(a)), a + 1, a, tuple(range(1, a)))
    return t


@pytest.fixture
def shallow_stack(monkeypatch):
    """A 400-frame recursion limit that the code under test cannot raise."""
    set_limit, old = sys.setrecursionlimit, sys.getrecursionlimit()

    def refuse(limit):
        raise AssertionError(f"asked for recursion limit {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    set_limit(400)
    yield
    set_limit(old)


# Verdict lines recorded by test_acceptance.py, echoed after capture ends.
acceptance_verdicts: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)

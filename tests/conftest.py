import random

import pytest

from oatgraph import Colouring, Graph, Palette, canonical_colouring, chi_omega


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


# Verdict lines recorded by test_acceptance.py, echoed after capture ends.
acceptance_verdicts: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)

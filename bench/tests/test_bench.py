"""Tests of the benchmark itself: inputs, sampler, spans and smoke-sized runs.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import worker
from spans import NULL_TRACER, Tracer, self_times, summarise

from oatgraph import Palette, canonical_colouring, chi_omega, recognize, validate

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMOKE = {
    "chain": [("path", 14), ("sparse_chain", 14, 0), ("cycle_with_tail", 10)],
    "dense": [("oat", 20, 0), ("p4_sparse", 3, 4, "anti"), ("oat_join_cycle", 10, 0)],
    "reuse": [("path", 12), ("oat", 16, 0), ("sparse_chain", 14, 0)],
    "cli": [("path", 8), ("p4_sparse", 2, 3, "pendant"), ("cycle_with_tail", 8)],
}

GENERATORS = [
    ("path", 30),
    ("sparse_chain", 40, 0),
    ("sparse_chain", 40, 1),
    ("cycle_with_tail", 20),
    ("oat", 30, 0),
    ("oat_join_cycle", 12, 1),
    ("p4_sparse", 4, 5, "pendant"),
    ("p4_sparse", 4, 5, "anti"),
]


def make(spec, seed):
    fn, *args = spec
    return getattr(inputs, fn)(*args, random.Random(seed))


@pytest.mark.parametrize("spec", GENERATORS, ids=lambda s: "-".join(map(str, s)))
def test_generators_repeat_for_a_seed_and_relabel_for_another(spec):
    a, b, c = make(spec, 7), make(spec, 7), make(spec, 8)
    assert (a.text, a.chi, a.stuck) == (b.text, b.chi, b.stuck)
    assert a.text != c.text
    assert a.graph.edge_count == c.graph.edge_count


@pytest.mark.parametrize("spec", GENERATORS, ids=lambda s: "-".join(map(str, s)))
def test_generators_know_their_answers(spec):
    case = make(spec, 3)
    out = recognize(case.graph)
    assert out.is_oat == case.member
    if case.member:
        assert validate(case.tree, case.graph)
        assert chi_omega(case.tree)[0] == case.chi == chi_omega(out.tree)[0]
    else:
        assert len(case.stuck) == 5
        assert frozenset(out.stuck_vertices) == case.stuck


def test_sparse_chain_stays_sparse_with_chi_at_most_four():
    for shape in range(5):
        case = make(("sparse_chain", 120, shape), 0)
        assert case.chi <= 4
        assert case.graph.edge_count < 2 * case.n


MEMBERS = [s for s in GENERATORS if s[0] not in ("cycle_with_tail", "oat_join_cycle")]


@pytest.mark.parametrize("spec", MEMBERS, ids=lambda s: "-".join(map(str, s)))
def test_sampler_is_seeded_and_every_sample_is_proper(spec):
    case = make(spec, 1)
    first = inputs.sample_colourings(case, random.Random(5), 4)
    again = inputs.sample_colourings(case, random.Random(5), 4)
    assert [c.assignment for c in first] == [c.assignment for c in again]
    palette = Palette.default(case.chi + 1)
    start = canonical_colouring(case.tree, palette.colours[: case.chi])
    for col in first:
        assert col.palette == palette
        assert col.is_proper(case.graph)
    assert any(col.assignment != start.assignment for col in first)


def test_spans_nest_and_self_time_excludes_children():
    tr = Tracer()
    with tr.span("job", job="j0") as outer:
        with tr.span("a") as a:
            with tr.span("b") as b:
                pass
        with tr.span("a"):
            pass
    with tr.span("job", job="j1"):
        pass
    names = [s.name for s in tr.spans]
    assert names == ["job", "a", "b", "a", "job"]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0, None]
    assert [s.job for s in tr.spans] == ["j0", "j0", "j0", "j0", "j1"]
    for s in tr.spans:
        assert s.start <= s.end
        if s.parent is not None:
            p = tr.spans[s.parent]
            assert p.start <= s.start and s.end <= p.end
    own = self_times(tr.spans)
    assert own[1] == pytest.approx(a.duration - b.duration)
    assert own[2] == pytest.approx(b.duration)
    children = sum(s.duration for s in tr.spans[1:4] if s.parent == 0)
    assert own[0] == pytest.approx(outer.duration - children)
    summary = summarise(tr.spans)
    assert summary["a"]["calls"] == 2
    assert sum(row["self_s"] for row in summary.values()) == pytest.approx(
        sum(s.duration for s in tr.spans if s.parent is None)
    )


def test_null_tracer_spans_record_nothing():
    with NULL_TRACER.span("job") as sp:
        sp.name = "renamed"
    assert sp.parent is None and sp.start == sp.end == 0.0


def test_tail_keeps_ten_samples_beyond_it_in_the_smallest_run():
    xs = list(range(200, 0, -1))
    assert worker.tail(xs, 200) == (190, 95.0)
    assert worker.tail(xs, 40) == (150, 75.0)
    assert worker.tail(list(range(1, 41)), 40) == (30, 75.0)
    assert worker.tail(list(range(1, 31)), 20) == (15.5, 50.0)


def test_pairs_cover_distinct_colourings():
    for workload, k in worker.COLOURINGS_PER_MEMBER.items():
        turns = worker.pairs(workload)
        assert len(set(turns)) == len(turns)
        assert all(a != b and 0 <= a < k and 0 <= b < k for a, b in turns)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_run_reports_every_metric_without_failures(
    workload, trace, monkeypatch, capsys, tmp_path
):
    monkeypatch.setitem(worker.WORKLOADS, workload, SMOKE[workload])
    monkeypatch.setattr(worker, "SETUP_REPEATS", 1)
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    argv = [
        f"--workload={workload}",
        "--seed=3",
        "--seconds=0.2",
        f"--trace={trace}",
        f"--out-dir={tmp_path}",
    ]
    assert worker.main(argv) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["attempted"] > 0
    assert record["failed"] == 0
    wanted = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    # peak_rss_mb is read by run.py from the worker's rusage
    assert set(record["metrics"]) == wanted - {"peak_rss_mb"}
    for name, value in record["metrics"].items():
        assert isinstance(value, float | int), name
    if trace:
        for name, row in record["info"]["summary"].items():
            assert 0 <= row["self_s"] <= row["total_s"], name


def test_run_prints_the_contract_line():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload=cli", "--seed=2", "--seconds=1", "--trace=0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [*result["metrics"]] == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "results", "__pycache__")
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=skip)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload=chain", "--seed=1", "--seconds=1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
        env=env,
    )
    assert out.returncode != 0
    assert out.stdout == ""

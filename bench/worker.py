"""Run one benchmark workload in this process and print its figures as JSON.

`run.py` starts this script in a fresh child process per run, with
PYTHONPATH pointing at the checkout's `src`, so the figures (and the peak
RSS that `run.py` reads when the child exits) belong to one workload only.

A run has three parts:

* set-up, repeated SETUP_REPEATS times: generate the seeded inputs, sample
  the colourings and, for `reuse`, recognise the certificates;
* the timed loop: whole cycles over the inputs, one job at a time, for
  about `--seconds`, every output checked;
* with `--trace 1` only: the loop runs half untraced and half traced, to
  measure tracing overhead, and then every input is probed once, with a span
  around each call into the library, to give the per-layer figures.

Standard output carries exactly one line, the JSON result; diagnostics go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import traceback
from math import ceil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# Importing the library is part of set-up, so it is timed before anything else.
_started = perf_counter()
import oatgraph

IMPORT_S = perf_counter() - _started

import inputs
from oatgraph import (
    CliqueAttach,
    Comparable,
    Join,
    Palette,
    Union,
    adjacency_square,
    canonical_colouring,
    chi_omega,
    clique_attachment,
    colouring_from_json,
    colouring_to_json,
    complement_components,
    connected_components,
    find_comparable_pair,
    find_path,
    parse_graph,
    recognize,
    replay,
    sequence_from_json,
    sequence_to_json,
    to_canonical,
    tree_from_json,
    tree_to_json,
    validate,
    verify_sequence,
)
from spans import NULL_TRACER, Tracer, summarise
from speed import NOMINAL_S, Speed

BENCH_DIR = Path(__file__).resolve().parent

# Which inputs each workload runs, one (generator in inputs.py, *arguments)
# per job of a cycle.  Sizes and shapes are fixed (`random_oat` and sparse
# chains take a shape seed of their own), and so are the labellings: each
# input is relabelled by the next permutation of one fixed random stream per
# workload.  The run's seed draws the colourings.  Sizes are closely and evenly
# spaced, so the median and the tail fall inside a smooth mix of costs and
# move little when a run completes one cycle more or less.  Where inputs
# differ widely in cost, as in dense and reuse, the number of members and of
# inputs is odd: with an even number the median falls in the gap between
# two inputs' samples and jumps with every seed.
WORKLOADS: dict[str, list[tuple]] = {
    # Deep, sparse members: every recognition move is a tail move, so the
    # recogniser goes n levels deep and walks run through stacked mirrors.
    # Six differently labelled copies of P_300 make the slowest tenth of the
    # jobs one pool of like inputs, so the tail is steady from seed to seed;
    # their walks span the range that relabelling alone gives P_300.
    "chain": [
        *(("path", n) for n in (100, 150, 200, 250)),
        *(("path", 300) for _ in range(6)),
        *(("sparse_chain", n, 0) for n in range(110, 291, 16)),
        *(("cycle_with_tail", n) for n in (120, 200, 280)),
    ],
    # Wide members: parsing and the union/join splits dominate recognition,
    # and walks cost per tree node rather than per step.  The recogniser
    # breaks ties by label, and on wide members the split order it picks
    # decides the walk: one labelling of random_oat(325, 0) walks about 1k
    # steps, another about 33k.  So that shape comes in four labellings, and
    # every run measures both kinds.
    "dense": [
        *(("oat", n, 0) for n in range(150, 326, 25)),
        ("p4_sparse", 40, 10, "pendant"),
        ("p4_sparse", 60, 10, "anti"),
        ("oat_join_cycle", 120, 0),
        ("oat_join_cycle", 200, 0),
        *(("oat", 325, 0) for _ in range(3)),
    ],
    # Certificates recognised once in set-up, then recoloured many times.
    "reuse": [
        ("path", 150),
        ("path", 250),
        ("sparse_chain", 150, 0),
        ("sparse_chain", 250, 0),
        ("oat", 200, 0),
        ("oat", 300, 0),
        ("p4_sparse", 40, 10, "anti"),
        ("p4_sparse", 60, 10, "pendant"),
        ("oat", 250, 0),
    ],
    # Modest graphs through the command line, interpreter start-up included.
    "cli": [
        ("path", 60),
        ("sparse_chain", 60, 0),
        ("oat", 80, 0),
        ("oat", 120, 0),
        ("p4_sparse", 12, 6, "pendant"),
        ("cycle_with_tail", 40),
    ],
}

SETUP_REPEATS = 3
COLOURINGS_PER_MEMBER = {"chain": 3, "dense": 4, "reuse": 4, "cli": 6}


def tail(values: list[float], fewest: int) -> tuple[float, float]:
    """The highest percentile that has ten samples beyond it in every run.

    A run has at least `fewest` samples of this kind (one whole cycle per
    colouring pair), so that percentile is 100 * (fewest - 10) / fewest, read by
    nearest rank.  Being fixed for the workload, it does not move with the
    number of cycles a run makes.  Below 21 samples the median stands in,
    and the returned percentile says so.
    """
    xs = sorted(values)
    if fewest < 21:
        return statistics.median(xs), 50.0
    pct = 100 * (fewest - 10) / fewest
    return xs[ceil(pct / 100 * len(xs)) - 1], pct


class Checks:
    """Counts output checks; a failed check is reported, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def crashed(self, what: str, exc: BaseException) -> None:
        traceback.print_exception(exc, file=sys.stderr)
        self.check(False, f"{what} raised {type(exc).__name__}")


@dataclass
class Cert:
    """A certificate recognised during `reuse` set-up."""

    case: object
    graph: object
    tree: object


TIMED = ("recognize", "recolour", "verify", "job")


@dataclass
class Samples:
    """Per-job times as measured, each with the index of the reference
    timing taken just before its job (see speed.py), and walk lengths.

    Besides the TIMED kinds, `busy` is the time of each whole job, its
    checks included.
    """

    ref: int = 0
    wall: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in (*TIMED, "busy")})
    refs: dict[str, list[int]] = field(default_factory=lambda: {k: [] for k in (*TIMED, "busy")})
    # Walk lengths keyed by (input, colouring pair).  Once a run has gone
    # through every pair of `pairs(workload)`, the mean over distinct walks
    # repeats exactly for a seed, however many cycles it made.
    walk: dict[tuple[int, tuple[int, int]], int] = field(default_factory=dict)

    # Samples of each kind in one cycle, so a run has at least
    # len(pairs(workload)) times as many.
    per_cycle: dict[str, int] = field(default_factory=dict)

    def add(self, kind: str, seconds: float) -> None:
        self.wall[kind].append(seconds)
        self.refs[kind].append(self.ref)

    def at_quiet_speed(self, speed: Speed) -> dict[str, list[float]]:
        """Every time divided by the machine's slowdown around its job."""
        return {
            kind: [t / speed.bracket(i, i + 1) for t, i in zip(self.wall[kind], self.refs[kind])]
            for kind in self.wall
        }


@dataclass
class Setup:
    cases: list
    seconds: float
    factor: float
    certs: list[Cert] = field(default_factory=list)
    recognised: Samples = field(default_factory=Samples)
    files: dict = field(default_factory=dict)


def check_recognition(case, out, checks: Checks) -> None:
    checks.check(out.is_oat == case.member, f"{case.family} n={case.n}: verdict")
    if not out.is_oat:
        stuck = out.stuck_vertices
        ok = not case.member and stuck is not None and frozenset(stuck) == case.stuck
        checks.check(ok, f"{case.family} n={case.n}: stuck vertices")
    elif case.member:
        checks.check(validate(out.tree, case.graph), f"{case.family} n={case.n}: validate")
        checks.check(chi_omega(out.tree)[0] == case.chi, f"{case.family} n={case.n}: chi")


def check_walk(case, seq, beta, report, checks: Checks) -> None:
    n = case.n
    checks.check(seq.final().assignment == beta.assignment, f"{case.family} n={n}: ends at beta")
    checks.check(report.valid, f"{case.family} n={n}: verify_sequence")
    checks.check(len(seq) <= 4 * n * n, f"{case.family} n={n}: length within 4n^2")


def write_files(case, out_dir: Path, stem: str) -> dict:
    """The graph and colouring files the commands read, and where the tree goes."""
    paths = {"graph": out_dir / f"{stem}.graph", "tree": out_dir / f"{stem}.tree.json"}
    paths["graph"].write_text(case.text)
    for k, col in enumerate(case.colourings):
        paths[k] = out_dir / f"{stem}.c{k}.json"
        paths[k].write_text(json.dumps(colouring_to_json(col)))
    return paths


def set_up(workload: str, seed: int, out_dir: Path, checks: Checks, speed: Speed) -> Setup:
    before = speed.measure()
    started = perf_counter()
    # The labellings are fixed, so that every run measures the same mix of
    # walk costs (see WORKLOADS); the seed draws the colourings.
    labels = random.Random(f"{workload}-labels")
    cases = [getattr(inputs, fn)(*args, labels) for fn, *args in WORKLOADS[workload]]
    colours = random.Random(f"{workload}-{seed}-colourings")
    for case in cases:
        if case.member:
            case.colourings = inputs.sample_colourings(
                case, colours, COLOURINGS_PER_MEMBER[workload]
            )
    setup = Setup(cases, 0.0, 1.0)
    inner = len(speed.samples)
    if workload == "reuse":
        # Each recognition is bracketed by reference timings, like a job;
        # their time is left out of the set-up's.
        for case in cases:
            setup.recognised.ref = speed.measure()
            t0 = perf_counter()
            g = parse_graph(case.text)
            out = recognize(g)
            if out.is_oat:
                tree_to_json(out.tree)
            setup.recognised.add("recognize", perf_counter() - t0)
            check_recognition(case, out, checks)
            if out.is_oat and case.member:
                setup.certs.append(Cert(case, g, out.tree))
    if workload == "cli":
        for i, case in enumerate(cases):
            setup.files[i] = write_files(case, out_dir, f"g{i}")
    setup.seconds = perf_counter() - started - sum(speed.samples[inner:])
    setup.factor = speed.bracket(before, speed.measure())
    return setup


def pairs(workload: str) -> list[tuple[int, int]]:
    """The colouring pairs that cycle after cycle walks between, in turn."""
    k = COLOURINGS_PER_MEMBER[workload]
    if workload == "reuse":
        return [(i, j) for i in range(k) for j in range(k) if i != j]
    return [(c, (c + 1) % k) for c in range(k)]


def graph_job(case, pair, tr, checks: Checks, samples: Samples) -> None:
    """chain and dense: parse, recognise and serialise; recolour a member."""

    t0 = perf_counter()
    with tr.span("graph.parse_graph"):
        g = parse_graph(case.text)
    with tr.span("recognition.recognize") as sp:
        out = recognize(g)
    if out.is_oat:
        with tr.span("buildtree.tree_to_json"):
            tree_to_json(out.tree)
    else:
        sp.name = "recognition.reject"
    t1 = perf_counter()
    samples.add("recognize", t1 - t0)
    check_recognition(case, out, checks)
    if not (case.member and out.is_oat):
        samples.add("job", t1 - t0)
        return
    alpha, beta = (case.colourings[i] for i in pair)
    palette = Palette.default(case.chi + 1)
    t2 = perf_counter()
    with tr.span("recolouring.find_path"):
        seq = find_path(out.tree, alpha, beta, palette)
    with tr.span("recolouring.sequence_to_json"):
        sequence_to_json(seq)
    t3 = perf_counter()
    with tr.span("recolouring.verify_sequence"):
        report = verify_sequence(g, seq)
    t4 = perf_counter()
    samples.add("recolour", t3 - t2)
    samples.add("verify", t4 - t3)
    samples.add("job", (t1 - t0) + (t4 - t2))
    samples.walk[id(case), pair] = len(seq)
    check_walk(case, seq, beta, report, checks)


def reuse_job(cert: Cert, pair, tr, checks: Checks, samples: Samples) -> None:
    """reuse: one more walk on a certificate recognised in set-up."""

    case = cert.case
    alpha, beta = (case.colourings[i] for i in pair)
    palette = Palette.default(case.chi + 1)
    t0 = perf_counter()
    with tr.span("recolouring.find_path"):
        seq = find_path(cert.tree, alpha, beta, palette)
    with tr.span("recolouring.sequence_to_json"):
        sequence_to_json(seq)
    t1 = perf_counter()
    with tr.span("recolouring.verify_sequence"):
        report = verify_sequence(cert.graph, seq)
    t2 = perf_counter()
    samples.add("recolour", t1 - t0)
    samples.add("verify", t2 - t1)
    samples.add("job", t2 - t0)
    samples.walk[id(case), pair] = len(seq)
    check_walk(case, seq, beta, report, checks)


def run_command(args: list[str], out_path: Path) -> tuple[int, float, float]:
    """Run `python -m oatgraph *args`, stdout to out_path.

    Returns the exit code, the wall time including interpreter start-up and
    the command's peak RSS in MB, read from its own rusage.
    """
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "oatgraph", *args], stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024


def cli_job(
    case, paths: dict, pair, tr, checks: Checks, samples: Samples, rss: list[float]
) -> None:
    """cli: `recognize --json --tree-out`, then `recolor`, then `verify`."""

    graph = str(paths["graph"])
    rec_out = paths["graph"].with_suffix(".recognize.json")
    with tr.span("cli.recognize"):
        code, rec_s, mb = run_command(
            ["recognize", graph, "--json", "--tree-out", str(paths["tree"])], rec_out
        )
    rss.append(mb)
    samples.add("recognize", rec_s)
    doc = json.loads(rec_out.read_text())
    label = f"cli {case.family} n={case.n}"
    checks.check(code == (0 if case.member else 1), f"{label}: recognize exit code {code}")
    checks.check(doc.get("oat") == case.member, f"{label}: verdict")
    if not case.member:
        checks.check(frozenset(doc.get("stuck_vertices", ())) == case.stuck, f"{label}: stuck")
        samples.add("job", rec_s)
        return
    checks.check(doc.get("chi") == case.chi, f"{label}: chi")
    tree = tree_from_json(json.loads(paths["tree"].read_text()))
    checks.check(validate(tree, case.graph), f"{label}: validate")
    a, b = pair
    seq_path = paths["graph"].with_suffix(".seq.json")
    with tr.span("cli.recolor"):
        code, col_s, mb = run_command(
            ["recolor", graph, "--from", str(paths[a]), "--to", str(paths[b])], seq_path
        )
    rss.append(mb)
    checks.check(code == 0, f"{label}: recolor exit code {code}")
    ver_out = paths["graph"].with_suffix(".verify.json")
    with tr.span("cli.verify"):
        code, ver_s, mb = run_command(["verify", graph, str(seq_path)], ver_out)
    rss.append(mb)
    checks.check(code == 0, f"{label}: verify exit code {code}")
    checks.check(json.loads(ver_out.read_text()).get("valid") is True, f"{label}: verify valid")
    seq_doc = json.loads(seq_path.read_text())
    seq_doc.pop("format_version", None)
    seq = sequence_from_json(seq_doc)
    beta = case.colourings[b]
    checks.check(seq.final().assignment == beta.assignment, f"{label}: ends at beta")
    checks.check(len(seq) <= 4 * case.n * case.n, f"{label}: length within 4n^2")
    samples.add("recolour", col_s)
    samples.add("verify", ver_s)
    samples.add("job", rec_s + col_s + ver_s)
    samples.walk[id(case), pair] = len(seq)


def timed_loop(
    workload: str,
    setup: Setup,
    seconds: float,
    tr,
    checks: Checks,
    rss: list[float],
    speed: Speed,
    every_pair: bool,
) -> tuple[Samples, int]:
    """Whole cycles over the inputs for about `seconds`.

    The loop stops at the cycle boundary nearest to `seconds`, so a run
    lasts `seconds` on average and every job's input appears equally often,
    but not before one whole cycle and, with `every_pair`, not before it has
    walked every colouring pair once.
    """
    samples = Samples()
    turns = pairs(workload)
    started = perf_counter()
    cycle = 0
    while True:
        pair = turns[cycle % len(turns)]
        jobs = setup.certs if workload == "reuse" else setup.cases
        for idx, job in enumerate(jobs):
            samples.ref = speed.measure()
            t0 = perf_counter()
            with tr.span("job", job=f"c{cycle}-j{idx}"):
                try:
                    if workload == "reuse":
                        reuse_job(job, pair, tr, checks, samples)
                    elif workload == "cli":
                        cli_job(job, setup.files[idx], pair, tr, checks, samples, rss)
                    else:
                        graph_job(job, pair, tr, checks, samples)
                except Exception as exc:
                    checks.crashed(f"{workload} job c{cycle}-j{idx}", exc)
            samples.add("busy", perf_counter() - t0)
        cycle += 1
        elapsed = perf_counter() - started
        if cycle == 1:
            samples.per_cycle = {kind: len(values) for kind, values in samples.wall.items()}
        if cycle >= (len(turns) if every_pair else 1) and elapsed + elapsed / cycle / 2 >= seconds:
            speed.measure()
            return samples, cycle


def timing_metrics(times: dict[str, list[float]], fewest: dict[str, int]) -> tuple[dict, dict]:
    """Jobs per second of the loop's busy time, and the median and tail of
    each kind of time.
    """
    metrics = {"jobs_per_s": len(times["busy"]) / sum(times["busy"])}
    tails = {}
    for kind in TIMED:
        values = times[kind]
        metrics[f"{kind}_s.p50"] = statistics.median(values)
        metrics[f"{kind}_s.tail"], pct = tail(values, fewest[kind])
        tails[f"{kind}_s.tail"] = {"percentile": pct, "samples": len(values)}
    return metrics, tails


@dataclass
class ProbeStats:
    edges: list[int] = field(default_factory=list)
    moves: dict[str, list[int]] = field(default_factory=dict)
    depth: list[int] = field(default_factory=list)
    nodes: list[int] = field(default_factory=list)
    walks: list[dict] = field(default_factory=list)


def tree_shape(tree) -> tuple[dict[str, int], int, int]:
    """Moves by rule, depth and node count of a certificate."""

    rule = {Union: "union", Join: "join", Comparable: "comparable", CliqueAttach: "clique"}
    moves = dict.fromkeys(rule.values(), 0)
    depth = nodes = 0
    stack = [(tree, 1)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        kind = rule.get(type(node))
        if kind is not None:
            moves[kind] += 1
        if kind in ("union", "join"):
            stack += [(node.left, d + 1), (node.right, d + 1)]
        elif kind is not None:
            stack.append((node.child, d + 1))
    return moves, depth, nodes


def probe(case, job: str, tr, checks: Checks, stats: ProbeStats) -> None:
    """One span around each call into the library, on one input."""

    with tr.span("probe", job=job):
        with tr.span("graph.parse_graph"):
            g = parse_graph(case.text)
        with tr.span("graph.neighbours_first"):
            g.neighbours(0)
        with tr.span("graph.connected_components"):
            connected_components(g)
        with tr.span("graph.complement_components"):
            complement_components(g)
        with tr.span("graph.adjacency_square"):
            a2 = adjacency_square(g)
        with tr.span("graph.find_comparable_pair"):
            find_comparable_pair(g, a2)
        with tr.span("graph.clique_attachment"):
            clique_attachment(g)
        with tr.span("graph.induced"):
            g.induced(range(1, g.n))
        stats.edges.append(g.edge_count)
        with tr.span("recognition.recognize") as sp:
            out = recognize(g)
        if not out.is_oat:
            sp.name = "recognition.reject"
            check_recognition(case, out, checks)
            return
        tree = out.tree
        with tr.span("buildtree.tree_to_json"):
            doc = tree_to_json(tree)
        with tr.span("buildtree.tree_from_json"):
            tree_from_json(doc)
        with tr.span("buildtree.replay"):
            replay(tree)
        with tr.span("buildtree.validate"):
            validate(tree, g)
        with tr.span("buildtree.chi_omega"):
            chi = chi_omega(tree)[0]
        palette = Palette.default(chi + 1)
        target = palette.prefix(chi)
        with tr.span("buildtree.canonical_colouring"):
            canonical_colouring(tree, target)
        check_recognition(case, out, checks)
        moves, depth, nodes = tree_shape(tree)
        for rule, count in moves.items():
            stats.moves.setdefault(rule, []).append(count)
        stats.depth.append(depth)
        stats.nodes.append(nodes)

        alpha, beta = case.colourings[0], case.colourings[1]
        alpha_doc = colouring_to_json(alpha)
        with tr.span("colouring.is_proper"):
            alpha.is_proper(g)
        with tr.span("colouring.from_json"):
            colouring_from_json(alpha_doc)
        with tr.span("recolouring.to_canonical_fwd"):
            fwd = to_canonical(tree, alpha, palette, target)
        with tr.span("recolouring.to_canonical_bwd"):
            bwd = to_canonical(tree, beta, palette, target)
        with tr.span("recolouring.find_path") as fp:
            seq = find_path(tree, alpha, beta, palette)
        with tr.span("recolouring.sequence_to_json"):
            sequence_to_json(seq)
        with tr.span("recolouring.verify_sequence"):
            report = verify_sequence(g, seq)
    n = case.n
    check_walk(case, seq, beta, report, checks)
    worst = 0
    for half in (fwd, bwd):
        top = max(half.recolour_counts().values(), default=0)
        checks.check(top <= 2 * n, f"{case.family} n={n}: half touches a vertex {top} > 2n times")
        worst = max(worst, top)
    stats.walks.append(
        {
            "n": n,
            "fwd": len(fwd),
            "bwd": len(bwd),
            "len": len(seq),
            "worst": worst,
            "find_s": fp.duration,
        }
    )


def cli_probe(case, out_dir: Path, tr, checks: Checks, rss: list[float]) -> None:
    """The three commands on one member, for workloads that run in-process."""

    paths = write_files(case, out_dir, "probe")
    with tr.span("probe", job="cli-probe"):
        cli_job(case, paths, (0, 1), tr, checks, Samples(), rss)


def per_layer(
    summary: dict, stats: ProbeStats, rss: list[float], overhead: float, factor: float
) -> dict[str, float]:
    """Per-layer figures from the span `summary`; times are divided by the
    run's slowdown `factor`.
    """
    metrics = {}
    for name, row in summary.items():
        if name not in ("job", "probe"):
            metrics[f"{name}_s"] = row["median_s"] / factor
    metrics["graph.edges"] = statistics.fmean(stats.edges)
    for rule, counts in stats.moves.items():
        metrics[f"recognition.moves.{rule}"] = statistics.fmean(counts)
    metrics["recognition.depth"] = statistics.fmean(stats.depth)
    metrics["buildtree.nodes"] = statistics.fmean(stats.nodes)
    walks = stats.walks
    halves = sum(w["fwd"] + w["bwd"] for w in walks)
    kept = sum(w["len"] for w in walks)
    metrics["recolouring.steps_per_s"] = kept / sum(w["find_s"] for w in walks) * factor
    metrics["recolouring.half_steps_fwd"] = statistics.fmean(w["fwd"] for w in walks)
    metrics["recolouring.half_steps_bwd"] = statistics.fmean(w["bwd"] for w in walks)
    metrics["recolouring.junction_peeled"] = statistics.fmean(
        (w["fwd"] + w["bwd"] - w["len"]) / 2 for w in walks
    )
    metrics["recolouring.kept_ratio"] = kept / halves
    metrics["recolouring.max_per_vertex_half_over_2n"] = max(
        w["worst"] / (2 * w["n"]) for w in walks
    )
    metrics["recolouring.len_over_4n2"] = max(w["len"] / (4 * w["n"] ** 2) for w in walks)
    metrics["cli.child_rss_mb"] = max(rss)
    metrics["trace.overhead_frac"] = overhead
    return metrics


def import_seconds() -> float:
    """Median time to import the library: this process's import and two
    more in fresh interpreters, since one import alone is a noisy sample.
    """
    code = "import time; t = time.perf_counter(); import oatgraph; print(time.perf_counter() - t)"
    more = [
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout)
        for _ in range(2)
    ]
    return statistics.median([IMPORT_S, *more])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True, help="scratch directory for CLI files")
    args = parser.parse_args(argv)

    src = BENCH_DIR.parent / "src"
    if not Path(oatgraph.__file__).resolve().is_relative_to(src):
        print(f"error: imported {oatgraph.__file__}, not the checkout's {src}", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    checks = Checks()
    speed = Speed()
    for _ in range(3):
        before = speed.measure()
    import_s = import_seconds()
    import_s /= speed.bracket(before, speed.measure())
    runs = [
        set_up(args.workload, args.seed, out_dir, checks, speed) for _ in range(SETUP_REPEATS)
    ]
    setup = runs[-1]
    setup_s = import_s + statistics.median(s.seconds / s.factor for s in runs)
    rss: list[float] = []

    loop = (args.workload, setup)
    if not args.trace:
        samples, cycles = timed_loop(*loop, args.seconds, NULL_TRACER, checks, rss, speed, True)
        fewest = {kind: n * len(pairs(args.workload)) for kind, n in samples.per_cycle.items()}
        # The cli commands run in processes of their own, which slowed about
        # half as much as the reference in the worker did when the machine
        # was busy; dividing their times by it made them spread more.
        times = samples.wall if args.workload == "cli" else samples.at_quiet_speed(speed)
        if args.workload == "reuse":
            samples.wall["recognize"] = [t for s in runs for t in s.recognised.wall["recognize"]]
            times["recognize"] = [
                t for s in runs for t in s.recognised.at_quiet_speed(speed)["recognize"]
            ]
            fewest["recognize"] = len(times["recognize"])
        metrics, tails = timing_metrics(times, fewest)
        metrics["setup_s"] = setup_s
        metrics["walk_steps.mean"] = statistics.fmean(samples.walk.values())
        wall, _ = timing_metrics(samples.wall, fewest)
        info = {
            "cycles": cycles,
            "jobs": len(samples.wall["job"]),
            "tails": tails,
            "wall": wall,
            "setup": {"import_s": import_s, "repeats_s": [s.seconds for s in runs]},
        }
    else:
        # Per-layer figures need no tails or walk means, so one cycle will do.
        plain, _ = timed_loop(*loop, args.seconds / 2, NULL_TRACER, checks, rss, speed, False)
        tr = Tracer()
        traced, cycles = timed_loop(*loop, args.seconds / 2, tr, checks, rss, speed, False)
        overhead = (
            statistics.fmean(traced.at_quiet_speed(speed)["job"])
            / statistics.fmean(plain.at_quiet_speed(speed)["job"])
            - 1
        )
        stats = ProbeStats()
        probed = list(setup.cases)
        if all(case.member for case in probed):
            # reuse has members only; a planted non-member gives
            # recognition.reject_s.
            probed.append(inputs.cycle_with_tail(150, random.Random("reject-probe")))
        for i, case in enumerate(probed):
            try:
                probe(case, f"probe-{i}", tr, checks, stats)
            except Exception as exc:
                checks.crashed(f"probe of {case.family} n={case.n}", exc)
        if args.workload != "cli":
            smallest = min((c for c in setup.cases if c.member), key=lambda c: c.n)
            cli_probe(smallest, out_dir, tr, checks, rss)
        for _ in range(3):
            with tr.span("probe", job="cli-import"), tr.span("cli.import"):
                subprocess.run([sys.executable, "-c", "import oatgraph"], check=True)
        speed.measure()
        summary = summarise(tr.spans)
        metrics = per_layer(summary, stats, rss, overhead, speed.run_factor)
        info = {"cycles": cycles, "summary": summary, "spans": [s.to_json() for s in tr.spans]}
    info["speed"] = {"nominal_s": NOMINAL_S, "reference_s": speed.samples}
    result = {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
        "info": info,
    }
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

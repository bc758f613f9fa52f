"""Acceptance gate: nine criteria, one printed verdict line each.

Verdict lines are collected and echoed in a terminal-summary section after
capture ends, so they stay visible in logged runs.  Later criteria reuse
artifacts computed (and timed) by earlier ones; pytest executes this file
top to bottom.
"""

import itertools
import time

import pytest

from conftest import acceptance_verdicts

from oatgraph import (
    Colouring,
    Graph,
    Palette,
    brute_chi,
    brute_is_oat,
    brute_omega,
    build_reconfig,
    canonical_colouring,
    chi_omega,
    classic,
    find_path,
    fixture,
    p4_sparse_third_op,
    random_colouring,
    random_oat,
    recognize,
    reconfig_stats,
    rename,
    replay,
    to_canonical,
    validate,
    verify_sequence,
)

_cache: dict = {}


def announce(text: str):
    acceptance_verdicts.append(text)
    print(text)


def fail_line(name: str, detail: str):
    announce(f"{name}: FAIL - {detail}")
    pytest.fail(detail)


def build_recolour_suite():
    """206 deterministic build trees with n <= 12, five colouring pairs each."""
    entries = []
    seed = 0
    while len(entries) < 206:
        n = 2 + seed % 11
        t = random_oat(n, seed)
        g = replay(t)
        chi, _ = chi_omega(t)
        S = Palette.default(chi + 1)
        pairs = [
            (random_colouring(g, S, seed * 100 + i), random_colouring(g, S, seed * 100 + 50 + i))
            for i in range(5)
        ]
        entries.append({"tree": t, "graph": g, "chi": chi, "palette": S, "pairs": pairs})
        seed += 1
    return entries


def test_criterion_1_diameter_bound():
    name = "criterion 1 (find_path valid, on target, length <= 4n^2 on 206x5 suite)"
    suite = build_recolour_suite()
    started = time.perf_counter()
    paths = []
    for entry in suite:
        g, t, S = entry["graph"], entry["tree"], entry["palette"]
        n = g.n
        entry["paths"] = []
        for alpha, beta in entry["pairs"]:
            seq = find_path(t, alpha, beta, S)
            report = verify_sequence(g, seq)
            if not report.valid:
                fail_line(name, f"invalid sequence (n={n}): {report.reason}")
            if seq.final().assignment != beta.assignment:
                fail_line(name, f"sequence missed its target (n={n})")
            if len(seq) > 4 * n * n:
                fail_line(name, f"length {len(seq)} exceeds 4n^2 = {4 * n * n} (n={n})")
            entry["paths"].append(seq)
            paths.append(len(seq))
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        fail_line(name, f"took {elapsed:.1f}s, budget 60s")
    _cache["suite"] = suite
    announce(
        f"{name}: PASS - {len(paths)} paths, max length {max(paths)}, {elapsed:.1f}s"
    )


def test_criterion_2_per_vertex_budgets():
    name = "criterion 2 (to_canonical <= 2n per vertex, rename <= 2)"
    suite = _cache["suite"]
    worst_half = 0.0
    worst_rename = 0
    for idx, entry in enumerate(suite):
        g, t, S, chi = entry["graph"], entry["tree"], entry["palette"], entry["chi"]
        n = g.n
        target = S.prefix(chi)
        for alpha, beta in entry["pairs"]:
            for start in (alpha, beta):
                half = to_canonical(t, start, S, target)
                counts = half.recolour_counts()
                top = max(counts.values(), default=0)
                worst_half = max(worst_half, top / (2 * n))
                if top > 2 * n:
                    fail_line(name, f"half recoloured a vertex {top} times, budget {2 * n}")
        # rename exercised on a class permutation of a canonical colouring
        gamma = canonical_colouring(t, target)
        classes = sorted(gamma.colour_classes())
        rotated = dict(zip(classes, classes[1:] + classes[:1]))
        beta = Colouring(tuple(rotated[c] for c in gamma.assignment), S)
        alpha = Colouring(gamma.assignment, S)
        seq = rename(alpha, beta, S)
        report = verify_sequence(entry["graph"], seq)
        if not report.valid:
            fail_line(name, f"rename produced an invalid sequence at suite entry {idx}")
        if seq.final().assignment != beta.assignment:
            fail_line(name, f"rename missed its target at suite entry {idx}")
        top = max(seq.recolour_counts().values(), default=0)
        worst_rename = max(worst_rename, top)
        if top > 2:
            fail_line(name, f"rename recoloured a vertex {top} times")
    announce(
        f"{name}: PASS - worst half usage {worst_half:.0%} of budget, "
        f"worst rename count {worst_rename}"
    )


def test_criterion_3_recognition_vs_oracle():
    name = "criterion 3 (recognize == brute_is_oat on all 32768 graphs, n=6)"
    pairs = list(itertools.combinations(range(6), 2))
    started = time.perf_counter()
    accepted = []
    oat_count = 0
    for bits in range(1 << len(pairs)):
        g = Graph(6, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
        out = recognize(g)
        want = brute_is_oat(g)
        if out.is_oat != want:
            fail_line(name, f"disagreement on edge mask {bits}: got {out.is_oat}, want {want}")
        if out.is_oat:
            oat_count += 1
            accepted.append((g, out.tree))
    elapsed = time.perf_counter() - started
    if elapsed >= 120:
        fail_line(name, f"took {elapsed:.1f}s, budget 120s")
    _cache["accepted6"] = accepted
    announce(f"{name}: PASS - {oat_count}/32768 accepted, {elapsed:.1f}s")


def test_criterion_4_certificate_soundness():
    name = "criterion 4 (validate(tree, g) for every accepted graph)"
    checked = 0
    for entry in _cache["suite"]:
        if not validate(entry["tree"], entry["graph"]):
            fail_line(name, f"suite tree fails validation (n={entry['graph'].n})")
        out = recognize(entry["graph"])
        if not (out.is_oat and validate(out.tree, entry["graph"])):
            fail_line(name, f"recognised tree fails validation (n={entry['graph'].n})")
        checked += 2
    for g, tree in _cache["accepted6"]:
        if not validate(tree, g):
            fail_line(name, "accepted n=6 graph fails validation")
        checked += 1
    announce(f"{name}: PASS - {checked} certificates replayed")


def test_criterion_5_fixtures_and_p4_sparse():
    name = "criterion 5 (fixtures, C6, p4_sparse closure)"
    for fname in ("fig2_imperfect", "domino", "house", "gem"):
        if not recognize(fixture(fname).graph).is_oat:
            fail_line(name, f"{fname} not accepted")
    if recognize(fixture("fig4_dh_not_oat").graph).is_oat:
        fail_line(name, "fig4_dh_not_oat wrongly accepted")
    if recognize(classic("cycle", 6)).is_oat:
        fail_line(name, "C6 wrongly accepted")
    joined = [None, classic("complete", 3), classic("path", 4)]
    joined += [replay(random_oat(6, 1)), replay(random_oat(9, 4))]
    count = 0
    for case in ("pendant", "anti"):
        for v1_size in (1, 2, 3, 5):
            for r in joined:
                g = p4_sparse_third_op(v1_size, r, case)
                if not recognize(g).is_oat:
                    fail_line(name, f"p4_sparse rejected (case={case}, v1={v1_size})")
                count += 1
    announce(f"{name}: PASS - 5 fixtures, C6 rejected, {count} p4_sparse graphs accepted")


def test_criterion_6_chi_equals_omega():
    name = "criterion 6 (chi_omega == brute force, components equal, n <= 10)"
    checked = 0
    for entry in _cache["suite"]:
        g, t = entry["graph"], entry["tree"]
        if g.n > 10:
            continue
        chi, omega = chi_omega(t)
        if chi != omega:
            fail_line(name, f"components differ: chi={chi}, omega={omega} (n={g.n})")
        if (chi, omega) != (brute_chi(g), brute_omega(g)):
            fail_line(
                name,
                f"mismatch vs brute force (n={g.n}): "
                f"got {(chi, omega)}, want {(brute_chi(g), brute_omega(g))}",
            )
        checked += 1
    for g, tree in _cache["accepted6"]:
        chi, omega = chi_omega(tree)
        if chi != omega or (chi, omega) != (brute_chi(g), brute_omega(g)):
            fail_line(name, "mismatch on an accepted n=6 graph")
        checked += 1
    announce(f"{name}: PASS - {checked} graphs cross-checked")


def test_criterion_7_incremental_a2():
    name = "criterion 7 (recognize(verify_a2=True): patched A@A == recomputed at every step)"
    graphs = 0
    for seed in range(100):
        n = 2 + (seed * 17) % 49
        t = random_oat(n, seed + 5000)
        out = recognize(replay(t), verify_a2=True)
        if not (out.is_oat and out.a2_checks > 0):
            fail_line(name, f"replay not accepted or no steps checked (seed {seed})")
        graphs += 1
    announce(f"{name}: PASS - {graphs} graphs, every step cross-checked")


def test_criterion_8_oracle_spot_values():
    name = "criterion 8 (reconfiguration spot values and diameter trend)"
    stats = reconfig_stats(build_reconfig(classic("path", 2), Palette.default(3)))
    if not (stats.connected and stats.diameter == 3):
        fail_line(name, f"R_3(P2): got {stats}")
    stats = reconfig_stats(build_reconfig(classic("complete", 3), Palette.default(3)))
    if stats.frozen_count != 6:
        fail_line(name, f"R_3(K3): expected 6 frozen, got {stats.frozen_count}")
    diameters = []
    for n in range(2, 7):
        stats = reconfig_stats(build_reconfig(classic("path", n), Palette.default(3)))
        if not stats.connected:
            fail_line(name, f"R_3(P{n}) unexpectedly disconnected")
        diameters.append(stats.diameter)
    if not all(a < b for a, b in zip(diameters, diameters[1:])):
        fail_line(name, f"diameters not strictly increasing: {diameters}")
    announce(f"{name}: PASS - R_3(P_n) diameters {diameters}")


def test_criterion_9_performance():
    name = "criterion 9 (recognition speed, soft gate)"
    timings = {}
    for n in (100, 200, 400, 500):
        g = replay(random_oat(n, 11))
        started = time.perf_counter()
        out = recognize(g)
        timings[n] = time.perf_counter() - started
        if not out.is_oat:
            fail_line(name, f"random tree replay rejected at n={n}")
    if timings[500] >= 30:
        fail_line(name, f"n=500 took {timings[500]:.1f}s, budget 30s")
    # Upper envelope only: growth may not exceed cubic by more than 3x.
    # (Sub-cubic timings are allowed; the bound is a ceiling, not a fit.)
    floor = 1e-3
    for small, big in ((100, 200), (200, 400)):
        allowed = 3 * 8 * max(timings[small], floor)
        if timings[big] > allowed:
            fail_line(
                name,
                f"t({big}) = {timings[big]:.3f}s exceeds 3x cubic ceiling "
                f"{allowed:.3f}s from t({small}) = {timings[small]:.3f}s",
            )
    shown = ", ".join(f"n={n}: {timings[n] * 1000:.0f}ms" for n in (100, 200, 400, 500))
    announce(f"{name}: PASS - {shown}")

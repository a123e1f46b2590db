"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines on success;
pytest prints them automatically on failure.
"""

import itertools
import time
from fractions import Fraction

from specirr import (
    RegularityClass,
    adjacency_spectral_radius,
    bound_report,
    classify,
    complete,
    cycle,
    degree_stats,
    enumerate_graphs,
    hong_search,
    is_connected,
    l_monotonicity_grid,
    low_subregular_rho_upper,
    parse_graph6,
    path,
    prism,
    spectral_oracle,
    star,
    subdivided_prism,
    verify_corpus,
)
from specirr.bounds import l_high_exact
from specirr.harness import reevaluate_record

TOL = 1e-9
STRICT_TOL = 1e-12
KNOWN_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _connected_corpus(n_max: int):
    for n in range(1, n_max + 1):
        yield from enumerate_graphs(n, connected_only=True)


def test_criterion_1_example_table():
    started = time.perf_counter()
    witness = subdivided_prism(3)
    stats = degree_stats(witness)
    rep = bound_report(witness)
    elapsed = time.perf_counter() - started

    ok = stats.n == 7 and stats.m == 10 and stats.max_degree == 3
    ok &= classify(witness) is RegularityClass.HIGH_SUBREGULAR
    ok &= abs(rep.nikiforov - 0.0137) <= 5e-4
    ok &= abs(rep.main - 0.0209) <= 5e-4
    ok &= abs(rep.cgs - 0.0286) <= 5e-4
    # The formula value of the high subregular bound is asserted; the
    # source table prints 0.0364, a suspected rounding slip, and is not
    # matched (documented discrepancy).
    ok &= abs(rep.sub_high - float(Fraction(38, 1029))) <= 1e-12
    lows = [rep.nikiforov, rep.main, rep.cg_degree, rep.cgs, rep.sub_high]
    ok &= all(value <= rep.epsilon + TOL for value in lows)
    ok &= elapsed < 1.0
    print(f"  note: sub-high bound = 38/1029 = {rep.sub_high:.6f}; "
          f"table figure 0.0364 recorded as discrepancy, not asserted")
    _report(1, "example-table", ok,
            f"eps={rep.epsilon:.6f}, bounds=({rep.nikiforov:.4f}, {rep.main:.4f}, "
            f"{rep.cgs:.4f}, {rep.sub_high:.4f}), {elapsed * 1000:.0f} ms")


def test_criterion_2_spectral_radius_vs_average_degree():
    started = time.perf_counter()
    counts = {n: 0 for n in KNOWN_CONNECTED}
    worst_gap = 0.0
    ok = True
    for n in range(1, 8):
        for g in enumerate_graphs(n, connected_only=True):
            counts[n] += 1
            s = degree_stats(g)
            rho = adjacency_spectral_radius(g).rho
            gap = rho - s.avg_degree_float
            ok &= gap >= -TOL
            if s.max_degree == s.min_degree:
                ok &= abs(gap) <= TOL
                worst_gap = max(worst_gap, abs(gap))
            else:
                ok &= gap > TOL
    ok &= counts == KNOWN_CONNECTED
    elapsed = time.perf_counter() - started
    ok &= elapsed < 60.0
    _report(2, "radius-vs-average-degree", ok,
            f"{sum(counts.values())} connected classes (853 at n=7), "
            f"worst regular |gap|={worst_gap:.2e}, {elapsed:.1f} s")


def test_criterion_3_bound_soundness_sweep():
    started = time.perf_counter()
    violations = verify_corpus(7, connected_only=True, tol=TOL)
    elapsed = time.perf_counter() - started
    detail = f"0 violations expected, got {len(violations)}, {elapsed:.1f} s"
    if violations:
        detail += f"; first: {violations[0]}"
    _report(3, "bound-soundness-sweep", not violations, detail)


def test_criterion_4_dominance_strict():
    checked = 0
    worst_margin = float("inf")
    ok = True
    for g in _connected_corpus(7):
        if classify(g) is RegularityClass.REGULAR:
            continue
        rep = bound_report(g)
        margin = rep.main - rep.nikiforov
        worst_margin = min(worst_margin, margin)
        ok &= margin > STRICT_TOL
        checked += 1
    _report(4, "dominance-strict", ok,
            f"{checked} non-regular graphs, smallest margin {worst_margin:.3e}")


def test_criterion_5_subregular_suite():
    found = {("high", 7): 0, ("low", 7): 0, ("high", 8): 0, ("low", 8): 0}
    ok = True
    for n in (7, 8):
        for g in enumerate_graphs(n, connected_only=True):
            cls = classify(g)
            if cls is RegularityClass.HIGH_SUBREGULAR:
                found[("high", n)] += 1
            elif cls is RegularityClass.LOW_SUBREGULAR:
                found[("low", n)] += 1
            else:
                continue
            rep = bound_report(g)
            s = degree_stats(g)
            if cls is RegularityClass.HIGH_SUBREGULAR:
                ok &= rep.sub_high is not None and rep.sub_high <= rep.epsilon + TOL
                chain = float(l_high_exact(s.n, s.max_degree)) / (2 * s.max_degree)
                ok &= chain <= rep.epsilon + TOL
            else:
                ok &= rep.sub_low is not None and rep.sub_low <= rep.epsilon + TOL
                rho = rep.epsilon + s.avg_degree_float
                ok &= rho <= low_subregular_rho_upper(s.max_degree) + TOL
    # n=7 must actually exercise both cases; n=8 has no subregular graphs
    # at all (both degree multisets force an odd degree sum).
    ok &= found[("high", 7)] > 0 and found[("low", 7)] > 0
    ok &= found[("high", 8)] == 0 and found[("low", 8)] == 0
    _report(5, "subregular-suite", ok,
            f"n=7: {found[('high', 7)]} high / {found[('low', 7)]} low; "
            f"n=8: none exist (odd degree sum), scan confirmed")


def test_criterion_6_gap_function_grid():
    started = time.perf_counter()
    report = l_monotonicity_grid(7, 60)
    elapsed = time.perf_counter() - started
    ok = report["ok"] and elapsed < 1.0
    _report(6, "gap-function-grid", ok,
            f"{report['cells_checked']} cells over n=7..60, "
            f"{len(report['violations'])} violations, {elapsed * 1000:.0f} ms")


def test_criterion_7_oracle_agreement():
    sample = []
    for n in range(1, 8):
        sample.extend(enumerate_graphs(n))  # all 1252 classes, disconnected included
    sample.extend(itertools.islice(enumerate_graphs(8), 200))
    generators = (
        [complete(n) for n in range(2, 10)]
        + [cycle(n) for n in range(3, 11)]
        + [path(n) for n in range(2, 11)]
        + [star(n) for n in range(3, 11)]
        + [prism(3), prism(4), subdivided_prism(3), subdivided_prism(4)]
    )
    sample.extend(generators)
    worst = 0.0
    for g in sample:
        diff = abs(spectral_oracle(g) - adjacency_spectral_radius(g).rho)
        worst = max(worst, diff)
    ok = worst <= TOL and len(sample) >= 1000
    _report(7, "oracle-agreement", ok,
            f"{len(sample)} graphs (incl. {len(generators)} named generators), "
            f"worst |eigensolve - oracle| = {worst:.2e}")


def test_criterion_8_hong_search_evidence():
    first = hong_search(range(2, 8))
    second = hong_search(range(2, 8))
    ok = first == second and len(first) > 0
    reproduced = 0
    gap_one = 0
    for record in first:
        if abs(reevaluate_record(record) - record.epsilon) <= STRICT_TOL:
            reproduced += 1
        if record.degree_gap == 1 and all(gap == 1 for _, gap in record.ties):
            gap_one += 1
        ok &= parse_graph6(record.graph6).n == record.n
        ok &= is_connected(parse_graph6(record.graph6))
    ok &= reproduced == len(first)
    print(f"  note: minimal-gap evidence recorded, not asserted: "
          f"{gap_one}/{len(first)} cells have degree gap 1 for every minimizer")
    print("  note: the 0.0461 figure belongs to an unrecoverable source graph "
          "and is excluded from assertions")
    _report(8, "hong-search-evidence", ok,
            f"{len(first)} (n, m) records, deterministic, "
            f"{reproduced}/{len(first)} reproduce epsilon to 1e-12")


if __name__ == "__main__":
    import sys
    import pytest
    sys.exit(pytest.main([__file__, "-s", "-v"]))

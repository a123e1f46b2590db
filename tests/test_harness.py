"""Verification harness: corpus sweeps, check injection, searches, grids."""

import collections
import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest

from specirr import (
    RegularityClass,
    bell_max_search,
    classify,
    epsilon,
    hong_search,
    l_monotonicity_grid,
    parse_graph6,
    to_graph6,
    verify_corpus,
    verify_graphs,
)
from specirr import graphs, harness, spectral
from specirr.bounds import bound_columns, l_high_exact
from specirr.graphs import (
    _bits_stack,
    _class_bits,
    _class_forms,
    canonical_form,
    cycle,
    enumerate_graphs,
    from_edges,
    path,
    prism,
    subdivided_prism,
)
from specirr.cli import main
from specirr.harness import (
    ALL_CHECKS,
    CHECK_GROUPS,
    DEFAULT_CHECKS,
    TIE_TOL,
    Claim,
    reevaluate_record,
    select_checks,
)
from specirr.spectral import _adjacency_stack, split_rows

PAW = from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


# ---------------------------------------------------------------------------
# Corpus verification
# ---------------------------------------------------------------------------

def test_verify_small_connected_corpus_clean():
    assert verify_corpus(5, connected_only=True) == []


def test_verify_small_full_corpus_clean():
    # Disconnected graphs included: the unconditional bounds must hold there
    # too, and the connectivity-gated ones must stay silent.
    assert verify_corpus(5, connected_only=False) == []


def test_verify_rejects_oversized_cap():
    with pytest.raises(ValueError, match="corpus cap"):
        verify_corpus(10)


def test_corrupted_check_is_detected():
    # Harness self-test: a deliberately broken inequality must produce
    # violations with the right metadata.
    def corrupted(ctx, tol):
        return [Claim("corrupted-main", ctx.main * 10.0, ctx.epsilon, tol)]

    violations = verify_corpus(4, checks={"corrupted-main": corrupted})
    assert violations
    sample = violations[0]
    assert sample.check_name == "corrupted-main"
    assert sample.margin > sample.tolerance
    assert parse_graph6(sample.graph6).n <= 4


def test_violations_past_the_enumeration_cap_have_no_canonical():
    # canonical_form stops at ENUMERATION_CAP vertices; a violation on a
    # larger graph is still reported, with canonical None (NA / null).
    g = path(10)
    fired = {"x": lambda ctx, tol: [Claim("x", 1, 0, 0)]}
    assert verify_graphs([g]) == []
    [v] = verify_graphs([g], checks=fired)
    assert (v.graph6, v.canonical, v.check_name) == (to_graph6(g), None, "x")
    [v] = verify_graphs([path(9)], checks=fired)
    assert v.canonical == canonical_form(path(9)).hex()


def _columns(g):
    # A run of one graph, as verify_graphs evaluates it.
    return bound_columns(_adjacency_stack([g]))


def test_strictness_checks_fire_on_degenerate_values():
    # Tampered columns: equal bounds must trip dominance-strict, and a
    # non-regular graph pinned at the average degree must trip cs-equality.
    columns = _columns(PAW)
    tol = 1e-9

    flattened = dataclasses.replace(columns, main=columns.nikiforov)
    claims = ALL_CHECKS["dominance"](flattened, tol)
    assert any(name == "dominance-strict" and np.any(lhs - rhs > slack)
               for name, lhs, rhs, slack, _ in claims)

    pinned = dataclasses.replace(columns, rho=columns.avg_degree)
    claims = ALL_CHECKS["cs-equality"](pinned, tol)
    assert any(np.any(lhs - rhs > slack) for _, lhs, rhs, slack, _ in claims)


def test_oracle_agreement_fires_on_a_shifted_rho():
    # Columns whose rho is off by 1e-6 must disagree with the oracle.
    columns = _columns(PAW)
    tol = 1e-9
    check = ALL_CHECKS["oracle-agreement"]
    assert all(np.all(lhs - rhs <= slack) for _, lhs, rhs, slack, _ in check(columns, tol))
    shifted = dataclasses.replace(columns, rho=columns.rho + 1e-6)
    assert any(np.any(lhs - rhs > slack) for _, lhs, rhs, slack, _ in check(shifted, tol))


def _tampered_witness(**fields):
    columns = _columns(subdivided_prism(3))  # n=7, m=10, Dmax=3, n^2 var=6
    return dataclasses.replace(columns, **{k: np.array([v]) for k, v in fields.items()})


EXACT_TAMPERS = {
    # A dominating vertex: Dmax = n - 1 > n - 2.
    "subregular-delta-cap": ("subregular-delta-cap", dict(max_degree=6)),
    # sum d^2 = 2 m Dmax + 1 = 61 > 60.
    "liu-liu-degree": ("liu-liu", dict(sum_sq_degrees=61)),
    # The integers n^2 var nearest outside the endpoints
    # n^2 (3-2)^2/14 = 3.5 and n^2 (3-2)^2/4 = 12.25.
    "variance-sandwich-lower": ("variance-sandwich", dict(n2_variance=3)),
    "variance-sandwich-upper": ("variance-sandwich", dict(n2_variance=13)),
}


@pytest.mark.parametrize("tol", [1e-9, 1.0, 2.0])
@pytest.mark.parametrize("claim", sorted(EXACT_TAMPERS))
def test_exact_claims_fire_at_any_tolerance(claim, tol):
    # Integer sides are compared exactly, so a violation by one integer
    # step, far below 1 in the variance, is reported however large --tol is.
    check, fields = EXACT_TAMPERS[claim]
    witness = subdivided_prism(3)
    assert verify_graphs([witness], tol, {check: ALL_CHECKS[check]}) == []
    tampered = _tampered_witness(**fields)
    violations = verify_graphs([witness], tol, {
        check: lambda columns, t: ALL_CHECKS[check](tampered, t)})
    fired = [v for v in violations if v.check_name == claim]
    assert len(fired) == 1
    assert fired[0].tolerance == 0.0 and fired[0].margin > 0


def test_select_checks_groups_and_names(capsys):
    grouped = [(name, fn) for checks in CHECK_GROUPS.values() for name, fn in checks.items()]
    names = [name for name, _ in grouped]
    assert len(names) == len(set(names))  # each check is in exactly one group
    assert list(ALL_CHECKS.items()) == grouped  # in group order
    assert DEFAULT_CHECKS == tuple(name for name in names
                                   if name not in CHECK_GROUPS["oracle"])
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"(groups: {', '.join(CHECK_GROUPS)})" in help_text
    sub = select_checks(["subregular"])
    assert set(sub) == {"subregular-bounds", "subregular-chain",
                        "subregular-delta-cap", "low-subregular-rho-cap"}
    single = select_checks(["nikiforov"])
    assert set(single) == {"nikiforov"}
    with pytest.raises(ValueError, match="unknown check"):
        select_checks(["no-such-check"])


def test_default_checks_exclude_oracle():
    assert "oracle-agreement" not in select_checks(None)
    assert "oracle-agreement" in select_checks(["oracle"])


def test_oracle_group_clean_on_small_corpus():
    checks = select_checks(["oracle"])
    assert verify_graphs(enumerate_graphs(5), checks=checks) == []


# ---------------------------------------------------------------------------
# Hong search
# ---------------------------------------------------------------------------

def test_hong_n4():
    records = hong_search([4])
    by_m = {r.m: r for r in records}
    # m=3: P4 beats the star (0.118 < 0.232)
    assert set(by_m) == {3, 4, 5}
    p4 = by_m[3]
    assert sorted(parse_graph6(p4.graph6).degrees) == [1, 1, 2, 2]
    assert p4.epsilon == pytest.approx(2 * math.cos(math.pi / 5) - 1.5, abs=1e-9)
    assert p4.degree_gap == 1
    # m=6 is K4 only (regular): no record
    assert 6 not in by_m
    assert all(r.objective == "min" for r in records)


def test_hong_records_are_deterministic_and_reproducible():
    first = hong_search([4, 5])
    second = hong_search([4, 5])
    assert first == second
    for record in first:
        assert abs(reevaluate_record(record) - record.epsilon) <= 1e-12


def test_hong_ties_include_winner():
    for record in hong_search([4]):
        assert record.graph6 == record.ties[0][0]
        assert record.degree_gap == record.ties[0][1]


@pytest.mark.parametrize("n", range(2, 7))
def test_hong_search_matches_a_per_cell_scan(n):
    # Reference: scan each (n, m) cell on its own, as enumerate_graphs
    # filters it; the winner is the first class within TIE_TOL of the minimum.
    expected = {}
    for m in range(n - 1, n * (n - 1) // 2 + 1):
        cell = [(to_graph6(g), epsilon(g), max(g.degrees) - min(g.degrees))
                for g in enumerate_graphs(n, m=m, connected_only=True)
                if classify(g) is not RegularityClass.REGULAR]
        if cell:
            low = min(eps for _, eps, _ in cell)
            expected[m] = [row for row in cell if row[1] - low <= TIE_TOL]
    records = hong_search([n])
    assert [r.m for r in records] == sorted(expected)
    for r in records:
        ties = expected[r.m]
        assert (r.objective, r.n) == ("min", n)
        assert (r.graph6, r.epsilon, r.degree_gap) == ties[0]
        assert r.ties == tuple((g6, gap) for g6, _, gap in ties)


def test_hong_cap():
    with pytest.raises(ValueError, match="capped"):
        hong_search([10])


@pytest.mark.parametrize("call", [
    lambda: hong_search([2, 10]),
    lambda: verify_corpus(10),
], ids=["hong_search", "verify_corpus"])
def test_cap_is_checked_before_any_enumeration(call, monkeypatch):
    # The whole request is checked first: no n is enumerated before
    # n = 10 is refused.
    calls = []
    for name in ("_class_forms", "_class_bits"):  # each way to the classes
        monkeypatch.setattr(harness, name, lambda *args, **kwargs: calls.append(args) or iter(()))
    with pytest.raises(ValueError, match="cap"):
        call()
    assert calls == []


# ---------------------------------------------------------------------------
# Bell max search
# ---------------------------------------------------------------------------

def test_bell_n4_m3_star_wins():
    record = bell_max_search(4, 3)
    assert sorted(parse_graph6(record.graph6).degrees) == [1, 1, 1, 3]
    assert record.epsilon == pytest.approx(math.sqrt(3) - 1.5, abs=1e-9)
    assert record.objective == "max"


def test_bell_n4_m6_complete_only():
    record = bell_max_search(4, 6)
    assert record.epsilon == pytest.approx(0.0, abs=1e-9)


def test_bell_n5_trees_star_wins():
    record = bell_max_search(5, 4)
    assert sorted(parse_graph6(record.graph6).degrees) == [1, 1, 1, 1, 4]


def test_bell_infeasible_cell():
    with pytest.raises(ValueError, match="no connected graph"):
        bell_max_search(5, 2)


def test_bell_cap():
    with pytest.raises(ValueError, match="capped"):
        bell_max_search(10, 9)


def test_searches_do_not_depend_on_run_length(monkeypatch):
    # Both searches must give equal records whether the classes are solved
    # in runs of 1, 5 or 64 or by the default rule; fewer eigensolves on
    # longer runs show that each cut took effect.
    solve = harness._solve_stack
    outcomes, solves = [], []
    for chunk in (1, 5, 64, None):
        calls = []
        with monkeypatch.context() as patch:
            if chunk is not None:
                patch.setattr(spectral, "run_length", lambda n: chunk)
            patch.setattr(harness, "_solve_stack",
                          lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
            outcomes.append((hong_search(range(2, 8)),
                             [bell_max_search(n, m) for n, m in ((5, 6), (6, 9), (7, 6), (7, 12))]))
        solves.append(len(calls))
    assert all(outcome == outcomes[-1] for outcome in outcomes)
    assert solves == sorted(solves, reverse=True) and len(set(solves)) == 4


def _force_cell_epsilons(monkeypatch, n, m, offsets, rest):
    # Patch the search's eigensolve so that the connected classes with m
    # edges get epsilon 0.5 + offsets[k], k counting them in enumeration
    # order, and 0.5 + rest once the offsets run out.  The offset is keyed
    # on the class's adjacency bytes, so it does not depend on which rows
    # each call solves, or in what order.
    cell = _adjacency_stack(list(enumerate_graphs(n, m=m, connected_only=True)))
    forced_offset = {matrix.tobytes(): offset for matrix, offset in zip(cell, offsets)}
    solve = harness._solve_stack

    def forced(stack, tol, with_q1):
        rho, q1, residual = solve(stack, tol, with_q1=with_q1)
        edges = stack.sum(axis=(1, 2)) // 2
        for row in np.flatnonzero(edges == m).tolist():
            rho[row] = 2 * m / n + 0.5 + forced_offset.get(stack[row].tobytes(), rest)
        return rho, q1, residual

    monkeypatch.setattr(harness, "_solve_stack", forced)


# (offsets of the first three classes, indices of the expected ties): the
# ties are every class within TIE_TOL of the cell's optimum, not a chain of
# classes each within TIE_TOL of a running best.  Every offset is at least
# 0.3e-12 away from the TIE_TOL boundary.
TIE_CASES = [((0.0, -0.7e-12, -1.4e-12), [1, 2]), ((0.0, 0.7e-12, -0.6e-12), [0, 2])]


@pytest.mark.parametrize("objective", ["min", "max"])
@pytest.mark.parametrize("offsets, expected", TIE_CASES, ids=["chain", "gap"])
def test_ties_are_within_tie_tol_of_the_optimum(objective, offsets, expected, monkeypatch):
    # n = 5, m = 6 holds five connected classes, none regular; "max" sees
    # the offsets mirrored, and the two classes past the offsets are 0.1
    # worse than any of the first three.
    cell = [(to_graph6(g), max(g.degrees) - min(g.degrees))
            for g in enumerate_graphs(5, m=6, connected_only=True)]
    assert len(cell) == 5 and all(gap > 0 for _, gap in cell)
    sign = 1.0 if objective == "min" else -1.0
    _force_cell_epsilons(monkeypatch, 5, 6, [sign * x for x in offsets], sign * 0.1)
    if objective == "min":
        record = next(r for r in hong_search([5]) if r.m == 6)
    else:
        record = bell_max_search(5, 6)
    ties = tuple(cell[k] for k in expected)
    assert record.ties == ties
    assert (record.graph6, record.degree_gap) == ties[0]
    assert record.epsilon == pytest.approx(0.5 + sign * offsets[expected[0]], abs=1e-14)


def _records_digest(records):
    # SHA-256 of one repr((n, m, graph6, degree_gap, ties)) line per record;
    # epsilon is left out, as its last bits depend on the LAPACK build
    # (reevaluate_record holds it to within 1e-12).
    digest = hashlib.sha256()
    for r in records:
        digest.update((repr((r.n, r.m, r.graph6, r.degree_gap, r.ties)) + "\n").encode("ascii"))
    return digest.hexdigest()


HONG_7_8_DIGEST = "cdd539936c4b0918e0d7c121b64826395b11632339b02bbf215bafc3d01c8b20"


def test_hong_records_pinned_at_n_7_and_8():
    records = hong_search([7, 8])
    assert len(records) == 15 + 21
    assert _records_digest(records) == HONG_7_8_DIGEST


def test_the_search_floor_is_at_most_rho():
    # _search prunes by the Yu-Lu-Tian floor of the rows _search_columns
    # keeps; on every connected non-regular class n <= 8 it is at most
    # eigvalsh's rho.  The floor is tight on some classes (the stars), where
    # the rounding of the two sides may put it up to 2 ulps above rho, far
    # inside PRUNE_MARGIN.
    for n in range(3, 9):
        bits = _class_bits(n)
        index, m, gap, floor = harness._search_columns(n, np.arange(len(bits)), "min")
        assert len(index) and (gap > 0).all()
        rho = np.linalg.eigvalsh(_bits_stack(n, bits[index]).astype(float))[:, -1]
        assert (floor <= rho * (1 + 4 * np.finfo(float).eps)).all(), n
    assert 4 * np.finfo(float).eps < harness.PRUNE_MARGIN
    assert len(harness._search_columns(2, np.arange(2), "min")[0]) == 0


def test_hong_search_solves_few_rows_at_n_8(monkeypatch):
    # The floor leaves at most 100 of the 11 100 connected non-regular
    # classes n = 8 to the eigensolve, and the records stay pinned; n = 2,
    # where no class is kept, gives no record.
    records = hong_search([7])
    solve, rows = harness._solve_stack, []

    def counted(stack, tol, with_q1):
        rows.append(len(stack))
        return solve(stack, tol, with_q1=with_q1)

    monkeypatch.setattr(harness, "_solve_stack", counted)
    records += hong_search([8])
    assert 21 <= sum(rows) <= 100
    assert _records_digest(records) == HONG_7_8_DIGEST
    assert hong_search([2]) == []


def test_no_eigh_on_the_corpus_and_stream_paths(tmp_path, monkeypatch):
    # eigh only re-solves a row whose shifted solve fails the residual gate.
    # With it refused, bound_columns runs on every class n <= 8, the Hong
    # search gives its pinned records, and compute runs on a stream of
    # random graphs, paths, cycles and prisms up to n = 62.
    def refused(a):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    for n in range(1, 9):
        bits = _class_bits(n)
        for index in split_rows(np.arange(len(bits)), n):
            bound_columns(_bits_stack(n, bits[index]))
    records = hong_search(range(2, 9))
    assert _records_digest([r for r in records if r.n >= 7]) == HONG_7_8_DIGEST
    rng = random.Random(62)
    stream = [from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])
              for n in range(5, 63) for p in (4 / n, 0.5, 0.8)]
    stream += [path(n) for n in range(5, 63)] + [cycle(n) for n in range(5, 63)]
    stream += [prism(k) for k in range(3, 32)]
    rng.shuffle(stream)
    source = tmp_path / "stream.g6"
    source.write_text("".join(to_graph6(g) + "\n" for g in stream), encoding="ascii")
    assert main(["compute", str(source), "--out", str(tmp_path / "rows.csv")]) == 0


def test_bell_records_pinned_up_to_n_8():
    # Every (n, m) cell with 2 <= n <= 8 that holds a connected graph.
    records = [bell_max_search(n, m) for n in range(2, 9)
               for m in range(n - 1, n * (n - 1) // 2 + 1)]
    assert len(records) == 1 + 2 + 4 + 7 + 11 + 16 + 22
    assert _records_digest(records) == (
        "15d1c5efdaeb290c991cf1f93bf228a96da20b44f31bfb33ac1e6221a0c088c8")


def test_bell_cells_are_found_once_per_n():
    # A cell's classes are found from the edge count of every class of n:
    # one pass over all m of n = 8 must find them once, not once per call.
    graphs._edge_cells.cache_clear()
    for m in range(8 * 7 // 2 + 1):
        if m < 7:
            with pytest.raises(ValueError, match="no connected graph"):
                bell_max_search(8, m)
        else:
            bell_max_search(8, m)
    info = graphs._edge_cells.cache_info()
    assert (info.misses, info.hits) == (1, 28)
    cells = graphs._edge_cells(8)
    # Reference: the edge count of each stored class, decoded on its own.
    sizes = collections.Counter(parse_graph6(text).m for text in _class_forms(8))
    assert [cells[m + 1] - cells[m] for m in range(29)] == [sizes[m] for m in range(29)]


# ---------------------------------------------------------------------------
# Monotonicity grid
# ---------------------------------------------------------------------------

def test_grid_clean_up_to_60():
    report = l_monotonicity_grid(7, 60)
    assert report["ok"]
    assert report["violations"] == []


def test_grid_counts_the_cells_it_evaluates():
    # n = 7: Dmax 2..5 for l_high and 2..6 for l_low; n = 8: 2..6 and 2..7.
    assert l_monotonicity_grid(7, 8)["cells_checked"] == 4 + 5 + 5 + 6


def test_grid_rejects_small_n():
    with pytest.raises(ValueError, match="n >= 7"):
        l_monotonicity_grid(6, 10)


def test_l_high_strictly_decreasing_at_seven():
    values = [l_high_exact(7, d) for d in range(2, 6)]
    assert all(a > b for a, b in zip(values, values[1:]))

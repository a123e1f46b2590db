"""Bound formulas: frozen arithmetic values, tightness cases, and gating."""

import contextlib
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from specirr import (
    RegularityClass,
    bound_report,
    cg_degree_bound,
    cgs_bound,
    classify,
    complete,
    cycle,
    degree_stats,
    enumerate_graphs,
    epsilon,
    from_edges,
    hofmeister_lower,
    hong_shu_fang_upper,
    is_connected,
    l_high,
    l_low,
    liu_liu_check,
    low_subregular_rho_upper,
    main_bound,
    nikiforov_bound,
    path,
    prism,
    signless_laplacian_radius,
    star,
    subdivided_prism,
    subregular_bounds,
    variance_sandwich,
    verify_corpus,
    verify_graphs,
    yu_lu_tian_lower,
)
from specirr.bounds import (
    build_contexts,
    l_high_exact,
    l_high_two_term_exact,
    l_low_exact,
    l_low_two_term_exact,
)
from specirr.cli import GENERATORS
from specirr.spectral import _adjacency_stack

# Frozen golden constants for the subdivided 3-prism witness (see
# test_spectral for their provenance).
WITNESS_RHO = 2.90417049869408
WITNESS_EPSILON = WITNESS_RHO - 20 / 7
GOLDEN_TOL = 1e-10

WITNESS = subdivided_prism(3)
WITNESS_STATS = degree_stats(WITNESS)


# ---------------------------------------------------------------------------
# Irregularity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g", [cycle(4), cycle(7), complete(3), complete(6)],
                         ids=["C4", "C7", "K3", "K6"])
def test_epsilon_zero_on_regular(g):
    assert abs(epsilon(g)) <= 1e-9


def test_regular_rows_are_exact():
    # A d-regular graph has rho = d and q1 = 2d, and its columns give both
    # exactly, so eps is 0.0, never a few ulps off it: every regular class
    # n <= 8, and the cycle, complete and prism families up to n = 62.
    graphs = [g for n in range(1, 9) for g in enumerate_graphs(n)
              if classify(g) is RegularityClass.REGULAR]
    assert len(graphs) == 48  # disconnected ones included
    graphs += [cycle(n) for n in range(3, 63)] + [complete(n) for n in range(1, 63)]
    graphs += [prism(k) for k in range(3, 32)]
    for g, rep in zip(graphs, build_contexts(graphs), strict=True):
        d = rep.stats.max_degree
        assert rep.regularity is RegularityClass.REGULAR, g
        assert (rep.rho, rep.q1, rep.epsilon) == (d, 2 * d, 0.0), g


def test_epsilon_star():
    assert abs(epsilon(star(4)) - (math.sqrt(3) - 1.5)) <= 1e-9


def test_epsilon_witness_golden():
    assert abs(epsilon(WITNESS) - WITNESS_EPSILON) <= GOLDEN_TOL


# ---------------------------------------------------------------------------
# Lower bounds: frozen arithmetic
# ---------------------------------------------------------------------------

def test_nikiforov_witness():
    value = nikiforov_bound(WITNESS_STATS)
    assert value == pytest.approx((6 / 49) / math.sqrt(80), abs=1e-15)
    assert round(value, 4) == 0.0137


def test_nikiforov_regular_zero():
    assert nikiforov_bound(degree_stats(cycle(5))) == 0.0


def test_nikiforov_star():
    assert nikiforov_bound(degree_stats(star(4))) == pytest.approx(
        0.75 / math.sqrt(24), abs=1e-15)


def test_main_witness():
    value = main_bound(WITNESS_STATS)
    assert value == pytest.approx((6 / 49) * math.sqrt(7) / math.sqrt(240), rel=1e-12)
    assert round(value, 4) == 0.0209


def test_main_star():
    assert main_bound(degree_stats(star(4))) == pytest.approx(
        0.75 * 2 / math.sqrt(72), rel=1e-12)


def test_main_is_exactly_scaled_nikiforov():
    for g in [WITNESS, star(4), path(5), complete(4)]:
        s = degree_stats(g)
        if s.m == 0:
            continue
        assert main_bound(s) == nikiforov_bound(s) * math.sqrt(s.n / s.max_degree)


def test_cg_degree_witness():
    assert cg_degree_bound(WITNESS_STATS) == pytest.approx(1 / 84, abs=1e-15)


def test_cg_degree_star():
    assert cg_degree_bound(degree_stats(star(4))) == pytest.approx(1 / 12, abs=1e-15)


def test_cg_degree_regular_zero():
    assert cg_degree_bound(degree_stats(cycle(6))) == 0.0


def test_cgs_values():
    assert cgs_bound(WITNESS_STATS) == pytest.approx(1 / 35, abs=1e-15)
    assert round(cgs_bound(WITNESS_STATS), 4) == 0.0286
    assert cgs_bound(degree_stats(star(4))) == pytest.approx(1 / 20, abs=1e-15)


def test_subregular_high_value():
    value = subregular_bounds(WITNESS_STATS, RegularityClass.HIGH_SUBREGULAR)
    assert value == pytest.approx(38 / 1029, abs=1e-15)
    # The formula value is asserted, not the 4-decimal table figure; see
    # the acceptance suite for the logged discrepancy.
    assert round(value, 4) == 0.0369


def test_subregular_low_value():
    value = subregular_bounds(WITNESS_STATS, RegularityClass.LOW_SUBREGULAR)
    assert value == pytest.approx(float(Fraction(67) / (686 * Fraction(7, 3))), abs=1e-15)


def test_subregular_requires_seven_vertices():
    s = degree_stats(star(6))
    with pytest.raises(ValueError, match="n >= 7"):
        subregular_bounds(s, RegularityClass.HIGH_SUBREGULAR)


def test_subregular_requires_subregular_class():
    with pytest.raises(ValueError, match="subregular class"):
        subregular_bounds(WITNESS_STATS, RegularityClass.REGULAR)


# ---------------------------------------------------------------------------
# Spectral-radius bounds
# ---------------------------------------------------------------------------

def test_hofmeister_values():
    assert hofmeister_lower(degree_stats(cycle(4))) == pytest.approx(2.0, abs=1e-15)
    assert hofmeister_lower(degree_stats(star(4))) == pytest.approx(math.sqrt(3), rel=1e-15)
    assert hofmeister_lower(WITNESS_STATS) == pytest.approx(math.sqrt(58 / 7), rel=1e-12)


def test_hofmeister_tight_for_stars():
    # equality with rho for stars
    from specirr import adjacency_spectral_radius
    g = star(6)
    assert abs(hofmeister_lower(degree_stats(g)) -
               adjacency_spectral_radius(g).rho) <= 1e-9


def test_ylt_regular_equals_degree():
    assert yu_lu_tian_lower(cycle(5)) == pytest.approx(2.0, abs=1e-12)
    assert yu_lu_tian_lower(complete(4)) == pytest.approx(3.0, abs=1e-12)


def test_ylt_path3_tight():
    assert yu_lu_tian_lower(path(3)) == pytest.approx(math.sqrt(2), rel=1e-15)


def test_ylt_witness_closed_form():
    # For the (2, 3^6) high subregular witness the ratio collapses to
    # sqrt(488/58).
    assert yu_lu_tian_lower(WITNESS) == pytest.approx(math.sqrt(488 / 58), rel=1e-12)


def test_ylt_requires_connected():
    with pytest.raises(ValueError, match="connected"):
        yu_lu_tian_lower(from_edges(4, [(0, 1), (2, 3)]))


def test_ylt_requires_edges():
    with pytest.raises(ValueError, match="edge"):
        yu_lu_tian_lower(from_edges(1, []))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_hsf_tight_on_complete(n):
    assert hong_shu_fang_upper(degree_stats(complete(n))) == pytest.approx(n - 1, abs=1e-12)


def test_hsf_path3_tight():
    assert hong_shu_fang_upper(degree_stats(path(3))) == pytest.approx(math.sqrt(2), rel=1e-15)


def test_hsf_implies_low_subregular_cap():
    # With Dmin = Dmax - 1 and 2m = n(Dmax-1) + 1 the bound reduces to
    # (Dmax - 2 + sqrt(Dmax^2 + 4)) / 2, which sits below Dmax - 1 + 1/Dmax.
    for dmax in range(1, 50):
        reduced = (dmax - 2 + math.sqrt(dmax * dmax + 4)) / 2
        assert reduced <= low_subregular_rho_upper(dmax) + 1e-12


def test_low_subregular_rho_upper_values():
    assert low_subregular_rho_upper(1) == 1.0
    assert low_subregular_rho_upper(2) == 1.5
    assert low_subregular_rho_upper(3) == pytest.approx(7 / 3, rel=1e-15)


def test_low_subregular_rho_upper_needs_an_edge():
    with pytest.raises(ValueError, match="max degree must be >= 1"):
        low_subregular_rho_upper(0)


def test_scalar_bounds_are_python_floats():
    # The formulas are shared with the numpy columns; the scalar API must
    # still return float, never np.float64 (repr and json differ), also
    # where a guard returns 0.0.
    s = WITNESS_STATS
    edgeless = degree_stats(from_edges(3, []))
    values = [nikiforov_bound(s), main_bound(s), cg_degree_bound(s), cgs_bound(s),
              subregular_bounds(s, RegularityClass.HIGH_SUBREGULAR),
              subregular_bounds(s, RegularityClass.LOW_SUBREGULAR),
              hofmeister_lower(s), yu_lu_tian_lower(WITNESS), hong_shu_fang_upper(s),
              low_subregular_rho_upper(4), l_high(7, 3), l_low(7, 3),
              nikiforov_bound(edgeless), main_bound(edgeless), cg_degree_bound(edgeless)]
    assert [type(value) for value in values] == [float] * len(values)
    assert all(type(end) is Fraction for end in variance_sandwich(s))


def test_low_subregular_cap_on_concrete_graph():
    # K5 minus two disjoint edges: connected low subregular, Dmax = 4.
    from specirr import adjacency_spectral_radius
    g = from_edges(5, [e for e in complete(5).edges if e not in {(1, 2), (3, 4)}])
    assert adjacency_spectral_radius(g).rho <= low_subregular_rho_upper(4) + 1e-9


# ---------------------------------------------------------------------------
# Variance sandwich and Liu-Liu
# ---------------------------------------------------------------------------

def test_variance_sandwich_star():
    lo, hi = variance_sandwich(degree_stats(star(4)))
    assert (lo, hi) == (0.5, 1.0)
    assert lo <= 0.75 <= hi


def test_variance_sandwich_regular():
    assert variance_sandwich(degree_stats(cycle(5))) == (0.0, 0.0)


def test_variance_sandwich_witness():
    lo, hi = variance_sandwich(WITNESS_STATS)
    assert (lo, hi) == (Fraction(1, 14), Fraction(1, 4))  # exact, not rounded
    assert lo <= WITNESS_STATS.variance == Fraction(6, 49) <= hi
    # The report's float columns are the correctly rounded endpoints.
    rep = bound_report(WITNESS)
    assert (rep.var_lb, rep.var_ub) == (1 / 14, 0.25)


def test_liu_liu_tight_on_cycle():
    s = degree_stats(cycle(4))
    check = liu_liu_check(s, signless_laplacian_radius(cycle(4)))
    assert check.sum_sq_le_m_q1 and check.sum_sq_le_2m_dmax
    assert abs(check.margin_m_q1) <= 1e-9  # 16 <= 4*4, tight
    assert check.margin_2m_dmax == 0.0     # 16 <= 16, tight


def test_liu_liu_star():
    s = degree_stats(star(4))
    check = liu_liu_check(s, signless_laplacian_radius(star(4)))
    assert abs(check.margin_m_q1) <= 1e-9  # 12 <= 3*4, tight
    assert check.margin_2m_dmax == 6.0     # 12 <= 18


def test_liu_liu_witness():
    q1 = signless_laplacian_radius(WITNESS)
    check = liu_liu_check(WITNESS_STATS, q1)
    assert check.sum_sq_le_m_q1 and check.sum_sq_le_2m_dmax
    assert check.margin_2m_dmax == 2.0     # 58 <= 60


def test_liu_liu_requires_edges():
    with pytest.raises(ValueError, match="edge"):
        liu_liu_check(degree_stats(from_edges(2, [])), 0.0)


# ---------------------------------------------------------------------------
# Closed-form gap functions
# ---------------------------------------------------------------------------

def test_l_high_value():
    assert l_high_exact(7, 3) == Fraction(712, 2842)
    assert l_high(7, 3) == pytest.approx(712 / 2842, rel=1e-15)


def test_l_functions_simplified_equals_two_term():
    for n in range(7, 21):
        for d in range(2, n - 1):
            simple, raw = l_high_exact(n, d), l_high_two_term_exact(n, d)
            assert abs(simple - raw) <= Fraction(1, 10**12) * max(1, abs(simple))
            assert simple == raw
        for d in range(2, n):
            assert l_low_exact(n, d) == l_low_two_term_exact(n, d)


def test_l_high_endpoint_closed_form():
    for n in range(7, 31):
        expected = Fraction(2 * n**4 - 12 * n**3 + 27 * n**2 - 22 * n - 5,
                            n**5 - 4 * n**4 + 2 * n**3 + 5 * n**2)
        assert l_high_exact(n, n - 2) == expected


def test_l_low_endpoint_closed_form():
    for n in range(7, 31):
        expected = Fraction(2 * n**3 - 10 * n**2 + 15 * n - 3,
                            n**2 * (n**2 - 3 * n + 3))
        assert l_low_exact(n, n - 1) == expected


def test_l_tail_inequalities_wide_grid():
    for n in range(7, 101):
        assert l_high_exact(n, n - 2) >= (Fraction(2 * n - 4) + Fraction(6, n)) / n**2
        assert l_low_exact(n, n - 1) >= (Fraction(2 * n - 4) - Fraction(3, n)) / n**2


def test_l_domain_validation():
    with pytest.raises(ValueError, match="n >= 7"):
        l_high(6, 3)
    with pytest.raises(ValueError, match="high form"):
        l_high(7, 6)
    with pytest.raises(ValueError, match="high form"):
        l_high(7, 1)
    with pytest.raises(ValueError, match="low form"):
        l_low(7, 7)


# ---------------------------------------------------------------------------
# Assembled report
# ---------------------------------------------------------------------------

def test_report_witness_matches_table():
    rep = bound_report(WITNESS)
    assert round(rep.nikiforov, 4) == 0.0137
    assert round(rep.main, 4) == 0.0209
    assert round(rep.cgs, 4) == 0.0286
    assert rep.sub_high == pytest.approx(38 / 1029, abs=1e-15)
    assert rep.sub_low is None
    for lower in (rep.nikiforov, rep.main, rep.cg_degree, rep.cgs, rep.sub_high):
        assert lower <= rep.epsilon + 1e-9
    rho = rep.epsilon + WITNESS_STATS.avg_degree_float
    assert rep.hofmeister_lb <= rho + 1e-9
    assert rep.ylt_lb <= rho + 1e-9
    assert rho <= rep.hsf_ub + 1e-9
    assert rep.var_lb <= WITNESS_STATS.variance_float <= rep.var_ub


def test_report_regular_graph():
    rep = bound_report(cycle(6))
    assert rep.nikiforov == rep.main == rep.cg_degree == 0.0
    assert rep.cgs is None
    assert "regular" in rep.applicability["cgs"]
    assert abs(rep.epsilon) <= 1e-9


def test_report_disconnected_gating():
    rep = bound_report(from_edges(4, [(0, 1), (2, 3)]))
    assert rep.cgs is None and rep.ylt_lb is None and rep.hsf_ub is None
    for key in ("cgs", "ylt_lb", "hsf_ub"):
        assert "disconnected" in rep.applicability[key]
    # unconditional bounds still hold on disconnected graphs
    assert rep.nikiforov <= rep.epsilon + 1e-9
    assert rep.main <= rep.epsilon + 1e-9


def test_report_path3_cgs_excluded():
    # The 3-vertex path falsifies the CGS bound; the report must gate it.
    rep = bound_report(path(3))
    assert rep.cgs is None
    assert "n < 4" in rep.applicability["cgs"]


def test_report_edgeless_degenerate():
    rep = bound_report(from_edges(3, []))
    assert rep.nikiforov == 0.0 and rep.main == 0.0
    assert "no edges" in rep.applicability["nikiforov"]


def _documented_conditions(n, m, cls, connected):
    """Each gated bound's documented conditions, written out independently,
    each with the reason its note gives where it fails, in the order the
    note names the first that fails."""
    disconnected = (connected, "graph is disconnected")
    small = (n >= 7, f"n={n} < 7")
    other_class = f"graph is {cls.value}"
    return {
        "cgs": [disconnected, (cls is not RegularityClass.REGULAR, "graph is regular"),
                (n >= 4, "n < 4 (the 3-vertex path falsifies the bound)")],
        "sub_high": [(cls is RegularityClass.HIGH_SUBREGULAR, other_class), disconnected, small],
        "sub_low": [(cls is RegularityClass.LOW_SUBREGULAR, other_class), disconnected, small],
        "ylt_lb": [disconnected, (m >= 1, "graph has no edges")],
        "hsf_ub": [disconnected],
    }


def _documented_gates(n, m, cls, connected):
    """Whether each gated bound applies: all its documented conditions hold."""
    conditions = _documented_conditions(n, m, cls, connected)
    return {key: all(holds for holds, _ in pairs) for key, pairs in conditions.items()}


def _documented_notes(n, m, cls, connected):
    """A graph's applicability notes, in BoundReport's order: "degenerate:"
    on each bound an edgeless graph gives as 0.0, then "inapplicable:" and
    the reason of the first condition failed on each gated bound."""
    edgeless = ("nikiforov", "main", "cg_degree") if m == 0 else ()
    notes = dict.fromkeys(edgeless, "degenerate: graph has no edges")
    for key, pairs in _documented_conditions(n, m, cls, connected).items():
        failed = [why for holds, why in pairs if not holds]
        if failed:
            notes[key] = "inapplicable: " + failed[0]
    return notes


def test_gates_on_every_class():
    # Every class with n <= 7, disconnected ones included, and edgeless
    # graphs past the enumeration range.
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n, connected_only=False)]
    graphs += [from_edges(n, []) for n in range(8, 13)]
    applied = Counter()
    for g in graphs:
        rep = bound_report(g)
        gates = _documented_gates(g.n, g.m, classify(g), is_connected(g))
        for key, holds in gates.items():
            value, note = getattr(rep, key), rep.applicability.get(key, "")
            assert (value is not None) == holds, (key, g)
            assert (value is None) == note.startswith("inapplicable:"), (key, g)
            applied[key] += holds
        degenerate = {key for key, note in rep.applicability.items()
                      if note.startswith("degenerate:")}
        assert degenerate == ({"nikiforov", "main", "cg_degree"} if g.m == 0 else set()), g
        assert all(getattr(rep, key) == 0.0 for key in degenerate)
        assert set(rep.applicability) <= set(gates) | degenerate, g
    # Each gate both holds and fails somewhere in the sweep.
    assert all(0 < applied[key] < len(graphs) for key in gates), applied


# ---------------------------------------------------------------------------
# The column evaluation against the scalar formulas
# ---------------------------------------------------------------------------

FLOAT_FIELDS = ("rho", "q1", "epsilon", "nikiforov", "main", "cg_degree", "cgs",
                "sub_high", "sub_low", "hofmeister_lb", "ylt_lb", "hsf_ub", "var_lb", "var_ub")


def _reference(g):
    # g's record written out from the paper's formulas, with no call into
    # specirr.bounds, and a per-graph eigvalsh (rho = d and q1 = 2d on a
    # d-regular graph, exactly), with the documented notes above, each
    # gated bound None where its note marks it inapplicable (the only note
    # a gated field can get) and each bound an edgeless graph zeroes 0.0.
    # A rational bound is the float of its exact value; a bound with a
    # square root takes its operations in the order bounds documents.
    # Returns the degree statistics, class, connectivity, notes and the
    # float of every field of FLOAT_FIELDS.
    s, cls, connected = degree_stats(g), classify(g), is_connected(g)
    notes = _documented_notes(s.n, s.m, cls, connected)
    a = _adjacency_stack([g])[0].astype(float)
    rho = float(np.linalg.eigvalsh(a)[-1])
    a[np.diag_indices(g.n)] = a.sum(axis=1)  # A + D
    q1 = float(np.linalg.eigvalsh(a)[-1])
    if cls is RegularityClass.REGULAR:  # a d-regular graph has rho = d and q1 = 2d
        rho, q1 = float(s.max_degree), 2.0 * s.max_degree
    n, m, dmax, dmin = s.n, s.m, s.max_degree, s.min_degree
    gap2 = (dmax - dmin) ** 2
    nikiforov = float(s.variance) / math.sqrt(8 * m) if m else 0.0
    values = {
        "rho": rho,
        "q1": q1,
        "epsilon": rho - 2 * m / n,
        "nikiforov": nikiforov,
        # var sqrt(n) / sqrt(8 m Dmax), as nikiforov * sqrt(n / Dmax).
        "main": nikiforov * math.sqrt(n / dmax) if m else 0.0,
        "cg_degree": float(Fraction(gap2, 4 * n * dmax)) if m else 0.0,
        "hofmeister_lb": math.sqrt(Fraction(s.sum_sq_degrees, n)),
        "var_lb": float(Fraction(gap2, 2 * n)),
        "var_ub": float(Fraction(gap2, 4)),
    }
    gated = {
        "cgs": lambda: float(Fraction(1, n * (dmax + 2))),
        "sub_high": lambda: float(Fraction(n * n - 2 * n + 3, n**3 * dmax)),
        "sub_low": lambda: float(Fraction(2 * n * n - 4 * n - 3, 2 * n**3)
                                 / (dmax - 1 + Fraction(1, dmax))),
        "ylt_lb": lambda: math.sqrt(Fraction(sum(t * t for t in s.two_degrees),
                                             s.sum_sq_degrees)),
        "hsf_ub": lambda: (dmin - 1 + math.sqrt((dmin + 1) ** 2 + 4 * (2 * m - dmin * n))) / 2,
    }
    values.update((key, None if key in notes else bound()) for key, bound in gated.items())
    return s, cls, connected, notes, values


def _assert_row_is_reference(columns, row, g):
    # Row `row` of a run's BoundColumns against g's _reference: every value
    # bit for bit, and NaN exactly where the reference has None, which is
    # exactly where its note marks the bound inapplicable.
    s, cls, connected, notes, values = _reference(g)
    where = (g, row)
    assert columns.n == s.n
    assert np.array_equal(columns.adjacency[row], _adjacency_stack([g])[0]), where
    assert tuple(columns.degrees[row].tolist()) == s.degrees, where
    assert tuple(columns.two_degrees[row].tolist()) == s.two_degrees, where
    ints = ("m", "max_degree", "min_degree", "sum_sq_degrees")
    assert [getattr(columns, key)[row] for key in ints] == [getattr(s, key) for key in ints]
    assert Fraction(int(columns.n2_variance[row]), s.n * s.n) == s.variance, where
    assert columns.avg_degree[row].hex() == s.avg_degree_float.hex(), where
    assert columns.variance[row].hex() == s.variance_float.hex(), where
    assert columns.connected[row] == connected, where
    classes = (columns.regular[row], columns.high_subregular[row], columns.low_subregular[row])
    assert classes == tuple(cls is c for c in list(RegularityClass)[:3]), where
    for key in FLOAT_FIELDS:
        value, column = values[key], float(getattr(columns, key)[row])
        inapplicable = notes.get(key, "").startswith("inapplicable:")
        assert (value is None) == math.isnan(column) == inapplicable, (key, where)
        if value is not None:
            assert value.hex() == column.hex(), (key, where, value, column)
    degenerate = {key for key, note in notes.items() if note.startswith("degenerate:")}
    assert degenerate == ({"nikiforov", "main", "cg_degree"} if columns.m[row] == 0 else set())


def _captured_runs(verify):
    # verify(checks) with a check that keeps each run's columns and claims nothing.
    runs = []
    assert verify({"capture": lambda columns, tol: runs.append(columns) or []}) == []
    return runs


def test_columns_equal_the_report_on_every_small_class():
    # The corpus path of verify_corpus, disconnected classes included.
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    runs = _captured_runs(lambda checks: verify_corpus(7, connected_only=False, checks=checks))
    rows = [(columns, row) for columns in runs for row in range(len(columns))]
    assert len(rows) == len(graphs) == 1252
    for (columns, row), g in zip(rows, graphs):
        _assert_row_is_reference(columns, row, g)


def _havel_hakimi(degrees):
    # A graph with the (graphical) degree sequence degrees: while an edge
    # is left to place, the first vertex of largest remaining degree d is
    # joined to the next d vertices in order of remaining degree.
    left, edges = list(degrees), []
    while any(left):
        u, *rest = sorted(range(len(left)), key=lambda v: -left[v])
        for v in rest[:left[u]]:
            left[v] -= 1
            edges.append((u, v))
        left[u] = 0
    return from_edges(len(left), edges)


def _subregular_graphs():
    # Every degree sequence (D - 1, D, ..., D), high subregular, and (D,
    # D - 1, ..., D - 1), low subregular, with odd n = 7..41 and D >= 3 and
    # an even degree sum (D odd, D even), realised by Havel-Hakimi.  D = 2
    # low is a path and a matching, never connected.
    graphs = [_havel_hakimi(seq) for n in range(7, 42, 2) for d in range(3, n)
              for seq in ([d - 1] + [d] * (n - 1), [d] + [d - 1] * (n - 1))
              if sum(seq) % 2 == 0]
    assert all(map(is_connected, graphs))
    assert Counter(map(classify, graphs)) == {RegularityClass.HIGH_SUBREGULAR: 189,
                                              RegularityClass.LOW_SUBREGULAR: 189}
    return graphs


def test_columns_equal_the_report_on_every_family_to_n_40():
    # verify_graphs on Graph input, past the enumeration cap, in runs of
    # several graphs with one n: every gen family, and connected high and
    # low subregular graphs up to n = 41, where the paper's subregular
    # bounds apply (only 106 classes n <= 9 are subregular).
    graphs = []
    for make in GENERATORS.values():
        for size in range(1, 41):
            with contextlib.suppress(ValueError):  # below the family's least size
                graphs.append(make(size))
    graphs = [g for g in graphs if g.n <= 40] + _subregular_graphs()
    graphs.sort(key=lambda g: g.n)
    runs = _captured_runs(lambda checks: verify_graphs(graphs, checks=checks))
    rows = [(columns, row) for columns in runs for row in range(len(columns))]
    assert len(rows) == len(graphs) and max(len(columns) for columns in runs) > 1
    for (columns, row), g in zip(rows, graphs):
        _assert_row_is_reference(columns, row, g)


def test_reports_are_rows_of_python_values():
    # build_contexts builds each BoundReport from a row of BoundColumns.  Its
    # values must be the scalar formulas' and Python's own types: an
    # np.int64 or np.bool_ compares equal but json.dumps rejects it.  Its
    # notes must be the documented ones, in their order, and the sweep must
    # reach every distinct note.
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    seen = set()
    for g, rep in zip(graphs, build_contexts(graphs), strict=True):
        s, cls, connected, notes, values = _reference(g)
        assert rep.graph is g
        assert rep.stats == s  # degree_stats(g)
        ints = [getattr(rep.stats, key) for key in ("n", "m", "max_degree", "min_degree",
                                                    "sum_sq_degrees")]
        ints += [*rep.stats.degrees, *rep.stats.two_degrees]
        assert all(type(value) is int for value in ints), g
        assert type(rep.stats.degrees) is type(rep.stats.two_degrees) is tuple
        assert rep.regularity is cls  # classify(g)
        assert type(rep.connected) is bool and rep.connected == connected
        assert rep.applicability == notes
        assert list(rep.applicability.items()) == list(notes.items()), g
        seen.update(rep.applicability.items())
        for key in FLOAT_FIELDS:
            value, expected = getattr(rep, key), values[key]
            if expected is None:
                assert value is None, (key, g)
            else:
                assert type(value) is float and value.hex() == expected.hex(), (key, g)
    # No high or low subregular graph has 6 vertices (their degree sums,
    # nD - 1 and n(D - 1) + 1, are even only for odd n), so the n < 7 notes
    # read n=3 and n=5.
    # K1 is the one connected edgeless graph, and P3 the one non-regular
    # connected graph on fewer than 4 vertices.
    expected = {(key, "degenerate: graph has no edges") for key in ("nikiforov", "main",
                                                                    "cg_degree")}
    expected |= {("cgs", "inapplicable: " + why) for why in (
        "graph is disconnected", "graph is regular",
        "n < 4 (the 3-vertex path falsifies the bound)")}
    for key, own, small in (("sub_high", RegularityClass.HIGH_SUBREGULAR, (5,)),
                            ("sub_low", RegularityClass.LOW_SUBREGULAR, (3, 5))):
        expected |= {(key, f"inapplicable: graph is {c.value}")
                     for c in RegularityClass if c is not own}
        expected |= {(key, f"inapplicable: n={n} < 7") for n in small}
        expected.add((key, "inapplicable: graph is disconnected"))
    expected |= {("ylt_lb", "inapplicable: graph is disconnected"),
                 ("ylt_lb", "inapplicable: graph has no edges"),
                 ("hsf_ub", "inapplicable: graph is disconnected")}
    assert seen == expected, seen ^ expected

"""Corpus-wide bound verification, extremal searches, and monotonicity grids.

verify_corpus enumerates every isomorphism class up to a vertex cap and
runs each registered inequality check on each graph; verify_graphs reports
every Claim whose lhs - rhs exceeds its own slack as a ViolationReport, and
a clean run returns an empty list.  The searches scan connected classes for
the smallest (Hong's question) and the largest irregularity at fixed
(n, m), recording outcomes without asserting them: the minimal-gap
question is open and the harness gathers evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .graphs import (
    ENUMERATION_CAP,
    Graph,
    RegularityClass,
    canonical_form,
    classify,
    enumerate_graphs,
    parse_graph6,
    to_graph6,
)
from .spectral import check_tolerance, spectral_oracle, spectral_runs
from .bounds import (
    BoundReport,
    _epsilon,
    _liu_liu,
    build_context,  # re-exported as harness.build_context
    build_contexts,
    epsilon,
    l_high_exact,
    l_low_exact,
    l_high_two_term_exact,
    l_low_two_term_exact,
    low_subregular_rho_upper,
    variance_sandwich,
)

DEFAULT_CHECK_TOL = 1e-9
TIE_TOL = 1e-12


# ---------------------------------------------------------------------------
# Violation reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ViolationReport:
    """One failed claim lhs <= rhs on one graph.

    tolerance is the claim's slack, which margin = lhs - rhs exceeds; the
    margin is taken on the claim's exact sides, then converted to float.
    canonical is None past ENUMERATION_CAP vertices, where canonical_form
    is not defined.
    """

    graph6: str
    canonical: str | None
    check_name: str
    lhs: float
    rhs: float
    margin: float
    tolerance: float


class Claim(NamedTuple):
    """The inequality lhs <= rhs, violated exactly when lhs - rhs > slack.

    slack is the verify tolerance for floating-point sides, 0 for integer
    or Fraction sides (compared exactly), and negative for a strict claim.
    """

    name: str
    lhs: float | Fraction
    rhs: float | Fraction
    slack: float


CheckFn = Callable[[BoundReport, float], list[Claim]]


def _check_cs_lower(ctx: BoundReport, tol: float):
    return [Claim("cs-lower", ctx.stats.avg_degree_float, ctx.rho, tol)]


def _check_cs_equality(ctx: BoundReport, tol: float):
    avg = ctx.stats.avg_degree_float
    if ctx.regularity is RegularityClass.REGULAR:
        return [Claim("cs-equality", abs(ctx.rho - avg), 0.0, tol)]
    # Non-regular graphs sit strictly above the average degree.
    return [Claim("cs-equality", avg, ctx.rho, -tol)]


def _check_epsilon_sign(ctx: BoundReport, tol: float):
    return [Claim("epsilon-nonnegative", -ctx.epsilon, 0.0, tol)]


def _check_variance_sandwich(ctx: BoundReport, tol: float):
    lower, upper = variance_sandwich(ctx.stats)
    return [
        Claim("variance-sandwich-lower", lower, ctx.stats.variance, 0),
        Claim("variance-sandwich-upper", ctx.stats.variance, upper, 0),
    ]


def _check_nikiforov(ctx: BoundReport, tol: float):
    return [Claim("nikiforov", ctx.nikiforov, ctx.epsilon, tol)]


def _check_main(ctx: BoundReport, tol: float):
    return [Claim("main", ctx.main, ctx.epsilon, tol)]


def _check_dominance(ctx: BoundReport, tol: float):
    nikiforov, main = ctx.nikiforov, ctx.main
    claims = [Claim("dominance", nikiforov, main, tol)]
    if ctx.stats.variance > 0:
        # Strictly better whenever the degrees are not all equal.
        claims.append(Claim("dominance-strict", nikiforov, main, -TIE_TOL))
    return claims


def _check_cg_degree(ctx: BoundReport, tol: float):
    return [Claim("cg-degree", ctx.cg_degree, ctx.epsilon, tol)]


def _check_cgs(ctx: BoundReport, tol: float):
    if ctx.cgs is None:
        return []
    return [Claim("cgs", ctx.cgs, ctx.epsilon, tol)]


def _check_hofmeister(ctx: BoundReport, tol: float):
    hof = ctx.hofmeister_lb
    return [
        Claim("hofmeister", hof, ctx.rho, tol),
        Claim("hofmeister-chain", ctx.stats.avg_degree_float, hof, tol),
    ]


def _check_yu_lu_tian(ctx: BoundReport, tol: float):
    ylt = ctx.ylt_lb
    if ylt is None:
        return []
    return [
        Claim("yu-lu-tian", ylt, ctx.rho, tol),
        Claim("yu-lu-tian-chain", ctx.stats.avg_degree_float, ylt, tol),
    ]


def _check_hong_shu_fang(ctx: BoundReport, tol: float):
    if ctx.hsf_ub is None:
        return []
    return [Claim("hong-shu-fang", ctx.rho, ctx.hsf_ub, tol)]


def _check_liu_liu(ctx: BoundReport, tol: float):
    s = ctx.stats
    if s.m == 0:
        return []
    (sum_sq, m_q1), (_, two_m_dmax) = _liu_liu(s, ctx.q1)
    return [
        Claim("liu-liu-q1", sum_sq, m_q1, tol),
        Claim("liu-liu-degree", sum_sq, two_m_dmax, 0),
        Claim("q1-max-degree", ctx.q1, 2 * s.max_degree, tol),
    ]


def _check_rho_max_degree(ctx: BoundReport, tol: float):
    return [Claim("rho-max-degree", ctx.rho, ctx.stats.max_degree, tol)]


def _check_subregular_bounds(ctx: BoundReport, tol: float):
    out = []
    if ctx.sub_high is not None:
        out.append(Claim("subregular-high", ctx.sub_high, ctx.epsilon, tol))
    if ctx.sub_low is not None:
        out.append(Claim("subregular-low", ctx.sub_low, ctx.epsilon, tol))
    return out


def _check_subregular_chain(ctx: BoundReport, tol: float):
    # For connected high subregular graphs on n >= 7 the squared-bound gap
    # divided by 2*Dmax already lower-bounds the irregularity.
    if ctx.sub_high is None:
        return []
    n, dmax = ctx.stats.n, ctx.stats.max_degree
    lhs = float(l_high_exact(n, dmax)) / (2 * dmax)
    return [Claim("subregular-high-chain", lhs, ctx.epsilon, tol)]


def _check_subregular_delta_cap(ctx: BoundReport, tol: float):
    # A high subregular graph cannot have a dominating vertex.
    if ctx.regularity is not RegularityClass.HIGH_SUBREGULAR:
        return []
    return [Claim("subregular-delta-cap", ctx.stats.max_degree, ctx.stats.n - 2, 0)]


def _check_low_subregular_rho_cap(ctx: BoundReport, tol: float):
    if ctx.regularity is not RegularityClass.LOW_SUBREGULAR or not ctx.connected:
        return []
    cap = low_subregular_rho_upper(ctx.stats.max_degree)
    return [Claim("low-subregular-rho-cap", ctx.rho, cap, tol)]


def _check_oracle_agreement(ctx: BoundReport, tol: float):
    oracle = spectral_oracle(ctx.graph, ctx.rho)
    return [Claim("oracle-agreement", abs(ctx.rho - oracle), 0.0, tol)]


CHECK_GROUPS: dict[str, dict[str, CheckFn]] = {
    "core": {
        "cs-lower": _check_cs_lower,
        "cs-equality": _check_cs_equality,
        "epsilon-sign": _check_epsilon_sign,
        "variance-sandwich": _check_variance_sandwich,
        "rho-max-degree": _check_rho_max_degree,
    },
    "bounds": {
        "nikiforov": _check_nikiforov,
        "main": _check_main,
        "dominance": _check_dominance,
        "cg-degree": _check_cg_degree,
        "cgs": _check_cgs,
        "hofmeister": _check_hofmeister,
        "yu-lu-tian": _check_yu_lu_tian,
        "hong-shu-fang": _check_hong_shu_fang,
        "liu-liu": _check_liu_liu,
    },
    "subregular": {
        "subregular-bounds": _check_subregular_bounds,
        "subregular-chain": _check_subregular_chain,
        "subregular-delta-cap": _check_subregular_delta_cap,
        "low-subregular-rho-cap": _check_low_subregular_rho_cap,
    },
    # The oracle cross-check is opt-in: it is a consistency check on the
    # spectral computation, not one of the corpus inequalities.
    "oracle": {
        "oracle-agreement": _check_oracle_agreement,
    },
}

# Checks are looked up here, never in CHECK_GROUPS, so that rebinding an
# entry of ALL_CHECKS changes which function every selection runs.
ALL_CHECKS: dict[str, CheckFn] = {
    name: fn for group in CHECK_GROUPS.values() for name, fn in group.items()
}
DEFAULT_CHECKS: tuple[str, ...] = tuple(
    name for group, checks in CHECK_GROUPS.items() if group != "oracle" for name in checks
)


def select_checks(only: Iterable[str] | None) -> dict[str, CheckFn]:
    """Resolve check or group names into a registry subset."""
    if only is None:
        return {name: ALL_CHECKS[name] for name in DEFAULT_CHECKS}
    selected: dict[str, CheckFn] = {}
    for token in only:
        if token in CHECK_GROUPS:
            for name in CHECK_GROUPS[token]:
                selected[name] = ALL_CHECKS[name]
        elif token in ALL_CHECKS:
            selected[token] = ALL_CHECKS[token]
        else:
            raise ValueError(f"unknown check or group: {token!r}")
    return selected


def verify_graphs(
    graphs: Iterable[Graph],
    tol: float = DEFAULT_CHECK_TOL,
    checks: Mapping[str, CheckFn] | None = None,
) -> list[ViolationReport]:
    """Run the inequality checks on each graph; return all violations.

    The graphs are evaluated by build_contexts, so consecutive graphs with
    the same n share stacked eigensolves.
    """
    check_tolerance(tol)
    registry = dict(checks) if checks is not None else select_checks(None)
    violations: list[ViolationReport] = []
    for ctx in build_contexts(graphs):
        g = ctx.graph
        failed = [
            (name, lhs, rhs, slack)
            for fn in registry.values()
            for name, lhs, rhs, slack in fn(ctx, tol)
            if lhs - rhs > slack
        ]
        if not failed:
            continue
        graph6 = to_graph6(g)
        canonical = canonical_form(g).hex() if g.n <= ENUMERATION_CAP else None
        violations.extend(
            ViolationReport(graph6=graph6, canonical=canonical, check_name=name,
                            lhs=float(lhs), rhs=float(rhs), margin=float(lhs - rhs),
                            tolerance=float(slack))
            for name, lhs, rhs, slack in failed
        )
    return violations


def enumerate_corpus(n_max: int, connected_only: bool = True) -> Iterator[Graph]:
    """Every class with n <= n_max in enumeration order; n_max is checked on the call."""
    if not 1 <= n_max <= ENUMERATION_CAP:
        raise ValueError(f"corpus cap is 1 <= n_max <= {ENUMERATION_CAP}, got {n_max}")
    return (g for n in range(1, n_max + 1)
            for g in enumerate_graphs(n, connected_only=connected_only))


def verify_corpus(
    n_max: int,
    connected_only: bool = True,
    tol: float = DEFAULT_CHECK_TOL,
    checks: Mapping[str, CheckFn] | None = None,
) -> list[ViolationReport]:
    """Run the checks (default: DEFAULT_CHECKS) on every class with n <= n_max."""
    return verify_graphs(enumerate_corpus(n_max, connected_only), tol, checks)


# ---------------------------------------------------------------------------
# Extremal searches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchRecord:
    """Extremal graph for one (n, m) cell.

    `graph6` is the arg-optimal connected class (first in enumeration order
    among ties); `ties` lists every co-optimal class within TIE_TOL of the
    optimum together with its degree gap, including the winner.
    """

    objective: str  # "min" or "max"
    n: int
    m: int
    graph6: str
    epsilon: float
    degree_gap: int
    ties: tuple[tuple[str, int], ...]


def _search_cell(graphs: Iterable[Graph], objective: str) -> SearchRecord | None:
    """Extremal record of one (n, m) cell's graphs, n and m read from the winner.

    rho comes from spectral_runs, without q1: the cell's graphs share n.
    """
    best: list[tuple[Graph, float]] = []
    sign = 1.0 if objective == "min" else -1.0
    for g, result in spectral_runs(graphs):
        eps = _epsilon(result.rho, g.m, g.n)
        delta = sign * (eps - best[0][1]) if best else -math.inf
        if delta < -TIE_TOL:
            best = [(g, eps)]
        elif delta <= TIE_TOL:
            best.append((g, eps))
    if not best:
        return None
    ties = tuple((to_graph6(g), max(g.degrees) - min(g.degrees)) for g, _ in best)
    return SearchRecord(
        objective=objective,
        n=best[0][0].n,
        m=best[0][0].m,
        graph6=ties[0][0],
        epsilon=best[0][1],
        degree_gap=ties[0][1],
        ties=ties,
    )


def check_search_sizes(n_values: Iterable[int]) -> list[int]:
    """Return n_values as a list; raise ValueError unless each is in 2..ENUMERATION_CAP."""
    sizes = list(n_values)
    for n in sizes:
        if not 2 <= n <= ENUMERATION_CAP:
            raise ValueError(f"search capped at 2 <= n <= {ENUMERATION_CAP}, got {n}")
    return sizes


def hong_search(n_values: Iterable[int]) -> list[SearchRecord]:
    """Minimal-irregularity connected non-regular graph for each (n, m).

    Each n must be in 2..ENUMERATION_CAP, and all are checked before any
    class is enumerated.  One record per feasible cell; cells whose only
    connected realizations are regular produce no record.  Whether every
    minimizer has degree gap 1 is recorded, never asserted.
    """
    records: list[SearchRecord] = []
    for n in check_search_sizes(n_values):
        # Classes arrive sorted by edge count: each run of equal m is one cell.
        irregular = (g for g in enumerate_graphs(n, connected_only=True)
                     if classify(g) is not RegularityClass.REGULAR)
        records.extend(_search_cell(cell, "min") for _, cell in groupby(irregular, lambda g: g.m))
    return records


def bell_max_search(n: int, m: int) -> SearchRecord:
    """Maximal-irregularity connected graph with n (2..ENUMERATION_CAP) vertices and m edges."""
    check_search_sizes([n])
    record = _search_cell(enumerate_graphs(n, m=m, connected_only=True), "max")
    if record is None:
        raise ValueError(f"no connected graph with n={n}, m={m}")
    return record


# ---------------------------------------------------------------------------
# Monotonicity grid for the closed-form gap functions
# ---------------------------------------------------------------------------

def l_monotonicity_grid(n_min: int = 7, n_max: int = 60) -> dict:
    """Verify, exactly, the structural claims about the gap functions.

    For each n in range: both gap functions are non-increasing in Dmax over
    their domains, the simplified forms coincide with the raw
    quotient-minus-square forms, and the endpoint values dominate their
    simplified tail estimates (2n - 4 + 6/n) / n^2 resp. (2n - 4 - 3/n) / n^2.
    """
    if n_min < 7:
        raise ValueError(f"grid requires n >= 7, got {n_min}")
    if n_max < n_min:
        raise ValueError("empty grid range")
    failures: list[str] = []
    for n in range(n_min, n_max + 1):
        highs = [l_high_exact(n, d) for d in range(2, n - 1)]
        lows = [l_low_exact(n, d) for d in range(2, n)]
        for d in range(2, n - 1):
            if l_high_exact(n, d) != l_high_two_term_exact(n, d):
                failures.append(f"high-form-mismatch n={n} dmax={d}")
        for d in range(2, n):
            if l_low_exact(n, d) != l_low_two_term_exact(n, d):
                failures.append(f"low-form-mismatch n={n} dmax={d}")
        if any(a < b for a, b in zip(highs, highs[1:])):
            failures.append(f"high-not-nonincreasing n={n}")
        if any(a < b for a, b in zip(lows, lows[1:])):
            failures.append(f"low-not-nonincreasing n={n}")
        high_tail = Fraction(2 * n - 4, 1) + Fraction(6, n)
        if l_high_exact(n, n - 2) < high_tail / n**2:
            failures.append(f"high-tail n={n}")
        low_tail = Fraction(2 * n - 4, 1) - Fraction(3, n)
        if l_low_exact(n, n - 1) < low_tail / n**2:
            failures.append(f"low-tail n={n}")
    return {
        "n_min": n_min,
        "n_max": n_max,
        "cells_checked": sum(2 * n - 3 for n in range(n_min, n_max + 1)),
        "violations": failures,
        "ok": not failures,
    }


# ---------------------------------------------------------------------------
# Record reproducibility helper
# ---------------------------------------------------------------------------

def reevaluate_record(record: SearchRecord) -> float:
    """Recompute the irregularity of a stored record's graph6 string."""
    return epsilon(parse_graph6(record.graph6))

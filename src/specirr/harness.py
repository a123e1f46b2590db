"""Corpus-wide bound verification, extremal searches, and monotonicity grids.

verify_corpus runs each registered inequality check on every isomorphism
class up to a vertex cap, and verify_graphs on given graphs; both report
every claim whose lhs - rhs exceeds its own slack as a ViolationReport,
and a clean run returns an empty list.  The searches scan connected
classes for the smallest (Hong's question) and the largest irregularity at
fixed (n, m), recording outcomes without asserting them: the minimal-gap
question is open and the harness gathers evidence.  Both go through one
routine, _search, which holds the index, m, epsilon and degree gap of the
classes it keeps as columns and states the tie rule once: a cell's ties
are its classes within TIE_TOL of the cell's optimum; the first one wins.

Both work a run at a time: up to spectral.run_length(n) graphs with the
same n, as one (B, n, n) adjacency stack.  The corpus path cuts its runs
from the stored classes' bit rows (graphs._class_bits), so no Graph is
built there.  A check maps a run's BoundColumns to a list of claim
columns, and a ViolationReport, with the Graph, graph6 and canonical form
it names, is built only for a row where a claim fails.  compute evaluates
the same BoundColumns, from runs of its input lines grouped by n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .graphs import (
    ENUMERATION_CAP,
    Graph,
    _bits_stack,
    _check_edge_count,
    _class_bits,
    _class_forms,
    _connected_rows,
    _edge_cells,
    canonical_form,
    parse_graph6,
    to_graph6,
)
from .spectral import (
    DEFAULT_TOL,
    _oracle_column,
    _solve_stack,
    check_tolerance,
    split_rows,
    split_runs,
)
from .bounds import (
    BoundColumns,
    _epsilon,
    _l_high_terms,
    _liu_liu,
    _low_subregular_rho_cap,
    _variance_sandwich,
    _yu_lu_tian_column,
    bound_columns,
    build_context,  # re-exported as harness.build_context
    epsilon,
    l_high_exact,
    l_low_exact,
    l_high_two_term_exact,
    l_low_two_term_exact,
)

DEFAULT_CHECK_TOL = 1e-9
TIE_TOL = 1e-12
# The relative window above a cell's U within which _search solves a row.
PRUNE_MARGIN = 1e-9


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
    """The inequality lhs <= rhs on each row of a run, violated on a row
    exactly when lhs - rhs > slack there.

    lhs and rhs are columns (or scalars, the same on every row).  slack is
    the verify tolerance for floating-point sides, 0 for integer sides
    (compared exactly), and negative for a strict claim.  A row a claim
    does not apply to carries a NaN side, or equal integer sides.  Integer
    sides may be scaled by the positive integers in scale, so that a
    rational claim compares in integers; a report divides them back.
    """

    name: str
    lhs: np.ndarray | float
    rhs: np.ndarray | float
    slack: float
    scale: np.ndarray | int = 1


CheckFn = Callable[[BoundColumns, float], list[Claim]]


def _where(rows: np.ndarray, side: np.ndarray) -> np.ndarray:
    """side on the rows where rows holds, NaN (no claim fires) elsewhere."""
    return np.where(rows, side, np.nan)


def _check_cs_lower(c: BoundColumns, tol: float):
    return [Claim("cs-lower", c.avg_degree, c.rho, tol)]


def _check_cs_equality(c: BoundColumns, tol: float):
    return [
        Claim("cs-equality", _where(c.regular, np.abs(c.rho - c.avg_degree)), 0.0, tol),
        # Non-regular graphs sit strictly above the average degree.
        Claim("cs-equality", _where(~c.regular, c.avg_degree), c.rho, -tol),
    ]


def _check_epsilon_sign(c: BoundColumns, tol: float):
    return [Claim("epsilon-nonnegative", -c.epsilon, 0.0, tol)]


def _check_variance_sandwich(c: BoundColumns, tol: float):
    # (Dmax-Dmin)^2 / (2n) <= var <= (Dmax-Dmin)^2 / 4 with var =
    # n2_variance / n^2, each claim in integers: both sides times the
    # product of its two denominators.
    n2, var = c.n * c.n, c.n2_variance
    (lo, lo_den), (hi, hi_den) = _variance_sandwich(**vars(c))
    return [
        Claim("variance-sandwich-lower", lo * n2, var * lo_den, 0, lo_den * n2),
        Claim("variance-sandwich-upper", var * hi_den, hi * n2, 0, hi_den * n2),
    ]


def _check_nikiforov(c: BoundColumns, tol: float):
    return [Claim("nikiforov", c.nikiforov, c.epsilon, tol)]


def _check_main(c: BoundColumns, tol: float):
    return [Claim("main", c.main, c.epsilon, tol)]


def _check_dominance(c: BoundColumns, tol: float):
    return [
        Claim("dominance", c.nikiforov, c.main, tol),
        # Strictly better whenever the degrees are not all equal.
        Claim("dominance-strict", _where(c.n2_variance > 0, c.nikiforov), c.main, -TIE_TOL),
    ]


def _check_cg_degree(c: BoundColumns, tol: float):
    return [Claim("cg-degree", c.cg_degree, c.epsilon, tol)]


def _check_cgs(c: BoundColumns, tol: float):
    return [Claim("cgs", c.cgs, c.epsilon, tol)]


def _check_hofmeister(c: BoundColumns, tol: float):
    hof = c.hofmeister_lb
    return [
        Claim("hofmeister", hof, c.rho, tol),
        Claim("hofmeister-chain", c.avg_degree, hof, tol),
    ]


def _check_yu_lu_tian(c: BoundColumns, tol: float):
    ylt = c.ylt_lb
    return [
        Claim("yu-lu-tian", ylt, c.rho, tol),
        Claim("yu-lu-tian-chain", c.avg_degree, ylt, tol),
    ]


def _check_hong_shu_fang(c: BoundColumns, tol: float):
    return [Claim("hong-shu-fang", c.rho, c.hsf_ub, tol)]


def _check_liu_liu(c: BoundColumns, tol: float):
    edges = c.m > 0
    (sum_sq, m_q1), (_, two_m_dmax) = _liu_liu(c, c.q1)
    return [
        Claim("liu-liu-q1", _where(edges, sum_sq), m_q1, tol),
        # 0 <= 0 on an edgeless row.
        Claim("liu-liu-degree", sum_sq, two_m_dmax, 0),
        Claim("q1-max-degree", _where(edges, c.q1), 2 * c.max_degree, tol),
    ]


def _check_rho_max_degree(c: BoundColumns, tol: float):
    return [Claim("rho-max-degree", c.rho, c.max_degree, tol)]


def _check_subregular_bounds(c: BoundColumns, tol: float):
    return [
        Claim("subregular-high", c.sub_high, c.epsilon, tol),
        Claim("subregular-low", c.sub_low, c.epsilon, tol),
    ]


def _check_subregular_chain(c: BoundColumns, tol: float):
    # For connected high subregular graphs on n >= 7 the squared-bound gap
    # divided by 2*Dmax already lower-bounds the irregularity.
    num, den = _l_high_terms(c.n, c.max_degree)
    with np.errstate(divide="ignore"):  # an edgeless row divides by 0
        lhs = num / den / (2 * c.max_degree)
    return [Claim("subregular-high-chain", _where(~np.isnan(c.sub_high), lhs), c.epsilon, tol)]


def _check_subregular_delta_cap(c: BoundColumns, tol: float):
    # A high subregular graph cannot have a dominating vertex.
    cap = c.n - 2
    return [Claim("subregular-delta-cap", np.where(c.high_subregular, c.max_degree, cap), cap, 0)]


def _check_low_subregular_rho_cap(c: BoundColumns, tol: float):
    rows = c.low_subregular & c.connected
    with np.errstate(divide="ignore"):  # an edgeless row divides by 0
        cap = _low_subregular_rho_cap(c.max_degree)
    return [Claim("low-subregular-rho-cap", _where(rows, c.rho), cap, tol)]


def _check_oracle_agreement(c: BoundColumns, tol: float):
    oracle = _oracle_column(c.adjacency, c.rho)
    return [Claim("oracle-agreement", np.abs(c.rho - oracle), 0.0, tol)]


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


def _graph_of(adjacency: np.ndarray) -> Graph:
    """The Graph of one 0/1 adjacency matrix."""
    i, j = np.nonzero(np.triu(adjacency))
    return Graph(len(adjacency), frozenset(zip(i.tolist(), j.tolist())))


def _reported(side, scale) -> Fraction | float:
    return side if scale == 1 else Fraction(int(side), int(scale))


def _violations(
    columns: BoundColumns, tol: float, checks: Mapping[str, CheckFn]
) -> list[ViolationReport]:
    """Every failed claim of one run, by row, then in check and claim order."""
    rows = len(columns)
    if not rows:
        return []
    claims = [claim for fn in checks.values() for claim in fn(columns, tol)]
    failed = []  # (row, index in claims)
    for k, (_, lhs, rhs, slack, _) in enumerate(claims):
        fails = np.asarray(lhs - rhs > slack)
        if fails.any():
            failed += ((row, k) for row in np.flatnonzero(np.broadcast_to(fails, rows)).tolist())
    violations = []
    for row, group in groupby(sorted(failed), key=lambda f: f[0]):
        g = _graph_of(columns.adjacency[row])
        graph6 = to_graph6(g)
        canonical = canonical_form(g).hex() if g.n <= ENUMERATION_CAP else None
        for _, k in group:
            name, lhs, rhs, slack, scale = claims[k]
            lhs, rhs, scale = (np.broadcast_to(x, rows)[row].item() for x in (lhs, rhs, scale))
            lhs, rhs = _reported(lhs, scale), _reported(rhs, scale)
            violations.append(ViolationReport(
                graph6=graph6, canonical=canonical, check_name=name, lhs=float(lhs),
                rhs=float(rhs), margin=float(lhs - rhs), tolerance=float(slack)))
    return violations


def verify_graphs(
    graphs: Iterable[Graph],
    tol: float = DEFAULT_CHECK_TOL,
    checks: Mapping[str, CheckFn] | None = None,
) -> list[ViolationReport]:
    """Run the inequality checks on each graph; return all violations.

    Consecutive graphs with the same n are evaluated together, one run
    (spectral.split_runs) at a time.
    """
    check_tolerance(tol)
    registry = dict(checks) if checks is not None else select_checks(None)
    return [v for _, stack in split_runs(graphs)
            for v in _violations(bound_columns(stack), tol, registry)]


def corpus_runs(n_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """Every class with n <= n_max, in enumeration order, as (n, bits) runs:
    up to spectral.run_length(n) consecutive rows of graphs._class_bits(n).
    n_max is checked on the call."""
    if not 1 <= n_max <= ENUMERATION_CAP:
        raise ValueError(f"corpus cap is 1 <= n_max <= {ENUMERATION_CAP}, got {n_max}")
    return ((n, bits) for n in range(1, n_max + 1)
            for bits in split_rows(_class_bits(n), n))


def verify_run(
    run: tuple[int, np.ndarray],
    tol: float,
    checks: Mapping[str, CheckFn],
    connected_only: bool,
) -> tuple[int, list[ViolationReport]]:
    """The number of graphs of a corpus run checked (its connected ones,
    with connected_only) and their violations."""
    n, bits = run
    columns = bound_columns(_bits_stack(n, bits), connected_only=connected_only)
    return len(columns), _violations(columns, tol, checks)


def verify_corpus(
    n_max: int,
    connected_only: bool = True,
    tol: float = DEFAULT_CHECK_TOL,
    checks: Mapping[str, CheckFn] | None = None,
) -> list[ViolationReport]:
    """Run the checks (default: DEFAULT_CHECKS) on every class with n <= n_max."""
    runs = corpus_runs(n_max)
    check_tolerance(tol)
    registry = dict(checks) if checks is not None else select_checks(None)
    return [v for run in runs for v in verify_run(run, tol, registry, connected_only)[1]]


# ---------------------------------------------------------------------------
# Extremal searches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchRecord:
    """Extremal graph for one (n, m) cell.

    `ties` lists, in enumeration order and with their degree gaps, every
    class of the cell whose epsilon is within TIE_TOL of the cell's optimum;
    `graph6` is the first of them.
    """

    objective: str  # "min" or "max"
    n: int
    m: int
    graph6: str
    epsilon: float
    degree_gap: int
    ties: tuple[tuple[str, int], ...]


def _search_columns(
    n: int, index: np.ndarray, objective: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The class index, m, degree gap and Yu-Lu-Tian floor of each class of
    n in index (class indices) that _search keeps: connected, and
    non-regular with "min"."""
    stack = _bits_stack(n, _class_bits(n)[index])
    degrees = stack.sum(axis=2, dtype=np.int64)
    gap = degrees.max(axis=1) - degrees.min(axis=1)
    keep = _connected_rows(stack) & ((gap > 0) | (objective == "max"))
    stack, degrees = stack[keep], degrees[keep]
    floor = _yu_lu_tian_column(degrees, (stack @ degrees[:, :, None])[:, :, 0])
    return (index[keep], (degrees.sum(axis=1) // 2).astype(np.int16),
            gap[keep].astype(np.int16), floor)


def _search(n: int, first: int, stop: int, objective: str) -> list[SearchRecord]:
    """One record per (n, m) cell among classes first..stop-1 of n that holds
    a connected class, non-regular with "min" (a regular graph's epsilon is
    0, which answers nothing there).

    A first pass over runs of up to spectral.run_length(n) classes keeps
    the rows of those classes and gives each its class index, m, degree
    gap and Yu-Lu-Tian floor (bounds._yu_lu_tian_column), a lower bound
    on rho; the classes are sorted by edge count, so the cells are cut
    where m changes.  Within a cell epsilon orders as rho does.  With
    "min" the cell's lowest-floor row (the first, on equal floors) is
    solved first, all cells' in one eigensolve per run; its rho is U, and
    then only the rows whose floor is at most U (1 + PRUNE_MARGIN) are
    solved.  With "max" the window is unbounded and every row is solved.
    rho comes without q1, and a row is solved once.

    The margin makes pruning exact.  The floor's two sums are integers
    that float64 holds, so the computed floor is within 1e-15 (relative)
    of the true floor, itself at most rho.  A solved rho lies
    within DEFAULT_TOL * rho (1e-12 relative) of an eigenvalue, by the
    residual gate, and rho >= 1 on a class with an edge.  A pruned row's
    rho therefore exceeds U by more than (1e-9 - 1e-12 - 1e-15) U, far
    more than TIE_TOL plus epsilon's rounding: it can be neither the
    cell's optimum nor a tie.  An exact tie test must keep that window.
    A pruned row is never solved, so it never fails the residual gate.

    A cell's ties are its solved rows within TIE_TOL of the cell's
    optimum, and the first of them wins.
    """
    forms, bits = _class_forms(n), _class_bits(n)
    index, m, gap, floor = (np.concatenate(column) for column in zip(*(
        _search_columns(n, index, objective)
        for index in split_rows(np.arange(first, stop, dtype=np.int32), n))))
    starts = np.flatnonzero(np.diff(m, prepend=-1)).tolist()
    cells = list(zip(starts, starts[1:] + [len(m)]))
    rho = np.full(len(m), np.nan)  # NaN on a row left unsolved

    def solve(rows: np.ndarray) -> None:
        for part in split_rows(rows, n):
            stack = _bits_stack(n, bits[index[part]])
            rho[part] = _solve_stack(stack, DEFAULT_TOL, with_q1=False)[0]

    ceiling = np.full(len(cells), np.inf)
    if objective == "min":
        lowest = np.array([lo + int(np.argmin(floor[lo:hi])) for lo, hi in cells], dtype=np.int64)
        solve(lowest)
        ceiling = rho[lowest] * (1 + PRUNE_MARGIN)
    window = floor <= np.repeat(ceiling, [hi - lo for lo, hi in cells])
    solve(np.flatnonzero(np.isnan(rho) & window))
    sign = 1.0 if objective == "min" else -1.0
    records = []
    for lo, hi in cells:
        eps = _epsilon(rho[lo:hi], m[lo:hi], n)
        offset = sign * eps
        ties = np.flatnonzero(offset - np.nanmin(offset) <= TIE_TOL).tolist()
        records.append(SearchRecord(
            objective=objective, n=n, m=int(m[lo]), graph6=forms[index[lo + ties[0]]],
            epsilon=float(eps[ties[0]]), degree_gap=int(gap[lo + ties[0]]),
            ties=tuple((forms[index[lo + k]], int(gap[lo + k])) for k in ties)))
    return records


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
    class is enumerated.  One record per feasible cell, over every class
    of n (_search with "min"); cells whose only connected realizations are
    regular produce no record.  Whether every minimizer has degree gap 1 is
    recorded, never asserted.
    """
    return [record for n in check_search_sizes(n_values)
            for record in _search(n, 0, len(_class_bits(n)), "min")]


def bell_max_search(n: int, m: int) -> SearchRecord:
    """Maximal-irregularity connected graph with n (2..ENUMERATION_CAP)
    vertices and m edges: _search with "max" over the classes of that one
    cell.  Raises ValueError when the cell has no connected graph."""
    check_search_sizes([n])
    _check_edge_count(n, m)
    cells = _edge_cells(n)
    records = _search(n, cells[m], cells[m + 1], "max")
    if not records:
        raise ValueError(f"no connected graph with n={n}, m={m}")
    return records[0]


# ---------------------------------------------------------------------------
# Monotonicity grid for the closed-form gap functions
# ---------------------------------------------------------------------------

def l_monotonicity_grid(n_min: int = 7, n_max: int = 60) -> dict:
    """Verify, exactly, the structural claims about the gap functions.

    For each n in range: both gap functions are non-increasing in Dmax over
    their domains, the simplified forms coincide with the raw
    quotient-minus-square forms, and the endpoint values dominate their
    simplified tail estimates (2n - 4 + 6/n) / n^2 resp. (2n - 4 - 3/n) / n^2.
    cells_checked counts the (n, Dmax) values evaluated: n - 3 for l_high
    (Dmax = 2..n-2) and n - 2 for l_low (Dmax = 2..n-1) per n.
    """
    if n_min < 7:
        raise ValueError(f"grid requires n >= 7, got {n_min}")
    if n_max < n_min:
        raise ValueError("empty grid range")
    failures: list[str] = []
    cells = 0
    for n in range(n_min, n_max + 1):
        highs = [l_high_exact(n, d) for d in range(2, n - 1)]
        lows = [l_low_exact(n, d) for d in range(2, n)]
        cells += len(highs) + len(lows)
        for d, value in enumerate(highs, start=2):
            if value != l_high_two_term_exact(n, d):
                failures.append(f"high-form-mismatch n={n} dmax={d}")
        for d, value in enumerate(lows, start=2):
            if value != l_low_two_term_exact(n, d):
                failures.append(f"low-form-mismatch n={n} dmax={d}")
        if any(a < b for a, b in zip(highs, highs[1:])):
            failures.append(f"high-not-nonincreasing n={n}")
        if any(a < b for a, b in zip(lows, lows[1:])):
            failures.append(f"low-not-nonincreasing n={n}")
        high_tail = Fraction(2 * n - 4, 1) + Fraction(6, n)
        if highs[-1] < high_tail / n**2:  # Dmax = n - 2
            failures.append(f"high-tail n={n}")
        low_tail = Fraction(2 * n - 4, 1) - Fraction(3, n)
        if lows[-1] < low_tail / n**2:  # Dmax = n - 1
            failures.append(f"low-tail n={n}")
    return {
        "n_min": n_min,
        "n_max": n_max,
        "cells_checked": cells,
        "violations": failures,
        "ok": not failures,
    }


# ---------------------------------------------------------------------------
# Record reproducibility helper
# ---------------------------------------------------------------------------

def reevaluate_record(record: SearchRecord) -> float:
    """Recompute the irregularity of a stored record's graph6 string."""
    return epsilon(parse_graph6(record.graph6))

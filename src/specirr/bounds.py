"""Bound formulas around the spectral-radius irregularity gap rho - 2m/n.

Every formula consumes exact integer degree statistics (n, m, max/min
degree, sum of squared degrees) with the degree variance carried as an
exact rational; conversion to float happens at the last step, so there is
no cancellation in var = (1/n) sum d^2 - (2m/n)^2.  A value that is a
quotient of two integers is the integer division a / b, which Python
rounds correctly, so it equals float(Fraction(a, b)).

bound_columns is the one evaluation, the path of verify, search and
compute: from a (B, n, n) adjacency stack it computes every quantity of a
run of same-n graphs (degree statistics, class, connectivity, both
spectral radii from one stacked eigensolve, the irregularity and every
bound) as one int64, boolean or float column, with the scalar formulas'
order of operations.  The gates (connectivity, regularity, vertex-count
floors) are stated twice.  _applicability decides them from one graph's
statistics, class and connectivity, and gives each bound's note;
bound_columns states them again as masks, leaving a gated bound NaN
where it does not apply.  Tier-1 tests hold the masks equal to
_applicability on every class n <= 7 (test_gates_on_every_class and
_assert_row_is_reference in tests/test_bounds.py).
compute groups its whole input by n before it cuts runs, so an unsorted
input pays for at most one short run per n.

build_contexts is the public per-graph view of the same evaluation: it
cuts its input into runs of consecutive same-n graphs (spectral.split_runs),
evaluates each with bound_columns and yields one BoundReport per row, with
Python ints, exact rationals and floats, None where a gated column is NaN
and the notes of _applicability.  build_context is its one-graph case and
bound_report the same function under a second name.  The raw formula
functions trust their stated preconditions; tests hold the columns to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import (
    DegreeStats,
    Graph,
    RegularityClass,
    _connected_rows,
    degree_stats,
    is_connected,
)
from .spectral import (
    DEFAULT_TOL,
    _adjacency_stack,
    _solve_stack,
    adjacency_spectral_radius,
    check_tolerance,
    split_runs,
)


# ---------------------------------------------------------------------------
# The irregularity measure itself
# ---------------------------------------------------------------------------

def epsilon(g: Graph, tol: float = DEFAULT_TOL) -> float:
    """Collatz-Sinogowitz irregularity: spectral radius minus average degree.

    The true value is nonnegative, and zero exactly for regular graphs,
    whose float is 0.0 too: a d-regular graph gets rho = d exactly.
    """
    return _epsilon(adjacency_spectral_radius(g, tol).rho, g.m, g.n)


def _epsilon(rho: float, m: int, n: int) -> float:
    """epsilon's formula for a graph with radius rho, m edges and n vertices."""
    return rho - 2 * m / n


# ---------------------------------------------------------------------------
# Lower bounds on the irregularity
# ---------------------------------------------------------------------------

def nikiforov_bound(s: DegreeStats) -> float:
    """Nikiforov lower bound var(G) / sqrt(8m); 0 for edgeless graphs."""
    if s.m == 0:
        return 0.0
    return float(s.variance) / math.sqrt(8 * s.m)


def main_bound(s: DegreeStats) -> float:
    """Degree-variance lower bound var(G) * sqrt(n) / sqrt(8 m Dmax).

    Computed as nikiforov_bound * sqrt(n / Dmax) so the dominance relation
    between the two is exact in floating point as well.
    """
    if s.m == 0:
        return 0.0
    return nikiforov_bound(s) * math.sqrt(s.n / s.max_degree)


def cg_degree_bound(s: DegreeStats) -> float:
    """Cioaba-Gregory degree-gap bound (Dmax - Dmin)^2 / (4 n Dmax)."""
    if s.max_degree == 0:
        return 0.0
    gap = s.max_degree - s.min_degree
    return gap * gap / (4.0 * s.n * s.max_degree)


def cgs_bound(s: DegreeStats) -> float:
    """Cioaba-Gregory subregular-friendly bound 1 / (n (Dmax + 2)).

    Only sound for connected non-regular graphs on n >= 4 vertices: it is
    strictly positive (so regular graphs falsify it trivially) and the
    path on 3 vertices falsifies it too (irregularity sqrt(2) - 4/3 is
    below 1/12).  _applicability states the gate.
    """
    return 1.0 / (s.n * (s.max_degree + 2))


def subregular_bounds(s: DegreeStats, c: RegularityClass) -> float:
    """Irregularity lower bound for connected subregular graphs on n >= 7.

    High subregular: (n^2 - 2n + 3) / (n^3 Dmax).
    Low subregular:  (2n^2 - 4n - 3) / (2 n^3 (Dmax - 1 + 1/Dmax)),
    evaluated as the one integer quotient
    (2n^2 - 4n - 3) Dmax / (2 n^3 (Dmax^2 - Dmax + 1)).
    Connectivity is asserted by the caller.
    """
    if s.n < 7:
        raise ValueError(f"subregular bounds require n >= 7, got n={s.n}")
    n, dmax = s.n, s.max_degree
    if c is RegularityClass.HIGH_SUBREGULAR:
        return (n * n - 2 * n + 3) / (n ** 3 * dmax)
    if c is RegularityClass.LOW_SUBREGULAR:
        return (2 * n * n - 4 * n - 3) * dmax / (2 * n ** 3 * (dmax * dmax - dmax + 1))
    raise ValueError(f"subregular bounds need a subregular class, got {c.value}")


# ---------------------------------------------------------------------------
# Bounds on the spectral radius itself
# ---------------------------------------------------------------------------

def hofmeister_lower(s: DegreeStats) -> float:
    """Hofmeister lower bound sqrt(sum d^2 / n) <= rho."""
    return math.sqrt(s.sum_sq_degrees / s.n)


def yu_lu_tian_lower(g: Graph) -> float:
    """Yu-Lu-Tian lower bound sqrt(sum t^2 / sum d^2) <= rho.

    t_i is the 2-degree (sum of neighbor degrees).  Requires a connected
    graph with at least one edge; the bound also dominates the average
    degree.
    """
    if not is_connected(g):
        raise ValueError("Yu-Lu-Tian bound requires a connected graph")
    if g.m == 0:
        raise ValueError("Yu-Lu-Tian bound requires at least one edge")
    s = degree_stats(g)
    return math.sqrt(sum(t * t for t in s.two_degrees) / s.sum_sq_degrees)


def hong_shu_fang_upper(s: DegreeStats) -> float:
    """Hong-Shu-Fang upper bound on rho for connected graphs.

    rho <= (Dmin - 1 + sqrt((Dmin + 1)^2 + 4(2m - Dmin n))) / 2.
    Connectivity is asserted by the caller.  The discriminant is
    nonnegative because 2m >= n * Dmin always.
    """
    dmin = s.min_degree
    disc = (dmin + 1) ** 2 + 4 * (2 * s.m - dmin * s.n)
    return (dmin - 1 + math.sqrt(disc)) / 2.0


def low_subregular_rho_upper(dmax: int) -> float:
    """rho <= Dmax - 1 + 1/Dmax for connected low subregular graphs."""
    if dmax < 1:
        raise ValueError(f"max degree must be >= 1, got {dmax}")
    return (dmax * dmax - dmax + 1) / dmax


# ---------------------------------------------------------------------------
# Degree-variance sandwich and signless-Laplacian checks
# ---------------------------------------------------------------------------

def variance_sandwich(s: DegreeStats) -> tuple[Fraction, Fraction]:
    """Exact Popoviciu/Nagy endpoints (Dmax-Dmin)^2/(2n) <= var <= (Dmax-Dmin)^2/4."""
    gap = s.max_degree - s.min_degree
    return Fraction(gap * gap, 2 * s.n), Fraction(gap * gap, 4)


@dataclass(frozen=True)
class LiuLiuCheck:
    """Outcome of the two signless-Laplacian degree-sum inequalities."""

    sum_sq_le_m_q1: bool
    margin_m_q1: float
    sum_sq_le_2m_dmax: bool
    margin_2m_dmax: float


def _liu_liu(s: DegreeStats, q1: float) -> tuple[tuple[int, float], tuple[int, int]]:
    """(lhs, rhs) of sum d^2 <= m * q1 and of sum d^2 <= 2 m Dmax."""
    return (s.sum_sq_degrees, s.m * q1), (s.sum_sq_degrees, 2 * s.m * s.max_degree)


def liu_liu_check(s: DegreeStats, q1: float, tol: float = 1e-9) -> LiuLiuCheck:
    """Check sum d^2 <= m * q1 (within tol) and sum d^2 <= 2 m Dmax (exactly).

    Margins are rhs - lhs (nonnegative means the inequality holds).
    """
    if s.m == 0:
        raise ValueError("Liu-Liu inequalities require at least one edge")
    margin_q, margin_d = (rhs - lhs for lhs, rhs in _liu_liu(s, q1))
    return LiuLiuCheck(
        sum_sq_le_m_q1=margin_q >= -tol,
        margin_m_q1=margin_q,
        sum_sq_le_2m_dmax=margin_d >= 0,
        margin_2m_dmax=float(margin_d),
    )


# ---------------------------------------------------------------------------
# Closed-form gap functions for subregular graphs
# ---------------------------------------------------------------------------
#
# For a high subregular graph the squared Yu-Lu-Tian bound minus the squared
# average degree collapses to a rational function of (n, Dmax) alone, and
# likewise for low subregular.  Both the simplified single-fraction forms
# and the raw quotient-minus-square forms are exposed (exactly, as
# rationals) so they can be checked against each other.

def l_high_exact(n: int, dmax: int) -> Fraction:
    _check_l_domain(n, dmax, high=True)
    num = (2 * dmax**2 + dmax - 1) * n**2 + (2 * dmax - 5 * dmax**2) * n + 2 * dmax - 1
    den = n**2 * (n * dmax**2 - 2 * dmax + 1)
    return Fraction(num, den)


def l_high_two_term_exact(n: int, dmax: int) -> Fraction:
    _check_l_domain(n, dmax, high=True)
    quotient = Fraction(
        n * dmax**4 - 4 * dmax**3 + 3 * dmax**2 + dmax - 1,
        n * dmax**2 - 2 * dmax + 1,
    )
    return quotient - (Fraction(dmax) - Fraction(1, n)) ** 2


def l_low_exact(n: int, dmax: int) -> Fraction:
    _check_l_domain(n, dmax, high=False)
    num = (
        (2 * dmax**2 - 3 * dmax + 2) * n**2
        - (5 * dmax**2 - 8 * dmax + 3) * n
        - 2 * dmax + 1
    )
    den = (dmax**2 - 2 * dmax + 1) * n**3 + (2 * dmax - 1) * n**2
    return Fraction(num, den)


def l_low_two_term_exact(n: int, dmax: int) -> Fraction:
    _check_l_domain(n, dmax, high=False)
    quotient = Fraction(
        n * dmax**4 - (4 * n - 4) * dmax**3 + (6 * n - 9) * dmax**2
        - (4 * n - 7) * dmax + n - 1,
        n * dmax**2 - (2 * n - 2) * dmax + n - 1,
    )
    return quotient - (Fraction(dmax) - 1 + Fraction(1, n)) ** 2


def l_high(n: int, dmax: int) -> float:
    """Squared-bound gap function for high subregular parameters."""
    return float(l_high_exact(n, dmax))


def l_low(n: int, dmax: int) -> float:
    """Squared-bound gap function for low subregular parameters."""
    return float(l_low_exact(n, dmax))


def _check_l_domain(n: int, dmax: int, high: bool) -> None:
    if n < 7:
        raise ValueError(f"gap functions are defined for n >= 7, got n={n}")
    if high:
        if not 2 <= dmax <= n - 2:
            raise ValueError(f"high form needs 2 <= Dmax <= n-2, got Dmax={dmax}, n={n}")
    else:
        if not 1 <= dmax <= n - 1:
            raise ValueError(f"low form needs 1 <= Dmax <= n-1, got Dmax={dmax}, n={n}")


# ---------------------------------------------------------------------------
# The per-graph record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """One evaluation of one graph: its degree statistics, regularity class,
    connectivity, both spectral radii, the irregularity and every bound.

    Inapplicable bounds are None and carry a machine-readable reason in
    `applicability`, keyed by field name.  Degenerate-but-defined values
    (edgeless graphs) stay as 0.0 with a note under the same key.
    """

    graph: Graph
    stats: DegreeStats
    regularity: RegularityClass
    connected: bool
    rho: float
    q1: float
    epsilon: float
    nikiforov: float
    main: float
    cg_degree: float
    cgs: float | None
    sub_high: float | None
    sub_low: float | None
    hofmeister_lb: float
    ylt_lb: float | None
    hsf_ub: float | None
    var_lb: float
    var_ub: float
    applicability: dict[str, str] = field(default_factory=dict)


def _applicability(s: DegreeStats, cls: RegularityClass, connected: bool) -> dict[str, str]:
    """Why a gated bound is left out, keyed by BoundReport field.

    Each gated field (cgs, sub_high, sub_low, ylt_lb, hsf_ub) gets the
    first gate it fails, as an "inapplicable: ..." note; the bounds that
    stay defined but read 0.0 on an edgeless graph get a "degenerate: ..."
    note.
    """
    # Each chain names the first failed gate, or ends falsy when all hold.
    disconnected = not connected and "graph is disconnected"
    small = s.n < 7 and f"n={s.n} < 7"
    other_class = f"graph is {cls.value}"
    reasons = {
        "cgs": disconnected
               or (cls is RegularityClass.REGULAR and "graph is regular")
               or (s.n < 4 and "n < 4 (the 3-vertex path falsifies the bound)"),
        "sub_high": (cls is not RegularityClass.HIGH_SUBREGULAR and other_class)
                    or disconnected or small,
        "sub_low": (cls is not RegularityClass.LOW_SUBREGULAR and other_class)
                   or disconnected or small,
        "ylt_lb": disconnected or (s.m == 0 and "graph has no edges"),
        "hsf_ub": disconnected,
    }
    edgeless = ("nikiforov", "main", "cg_degree") if s.m == 0 else ()
    notes = dict.fromkeys(edgeless, "degenerate: graph has no edges")
    notes.update((key, "inapplicable: " + why) for key, why in reasons.items() if why)
    return notes


def build_contexts(graphs: Iterable[Graph], tol: float = DEFAULT_TOL) -> Iterator[BoundReport]:
    """Evaluate each graph once, in input order: bound_columns on each run
    of consecutive same-n graphs (spectral.split_runs), one BoundReport per
    row.  tol is checked on the call; a run is evaluated when its first
    report is asked for."""
    check_tolerance(tol)
    return (report for run in split_runs(graphs)
            for report in _reports(run, bound_columns(_adjacency_stack(run), tol)))


# BoundReport's float fields, rho through var_ub, each a BoundColumns column.
_FLOAT_FIELDS = tuple(f.name for f in fields(BoundReport))[4:-1]
_CLASS_COLUMNS = ("regular", "high_subregular", "low_subregular")


def _reports(run: Sequence[Graph], columns: BoundColumns) -> Iterator[BoundReport]:
    """The BoundReport of each graph of run from its row of columns, the
    evaluation of run's adjacency stack: every column value as a Python
    int, bool or float, a NaN (a gated bound) as None."""
    n = columns.n
    names = [f.name for f in fields(columns)][2:]  # every array past n and adjacency
    for g, values in zip(run, zip(*(getattr(columns, name).tolist() for name in names))):
        row = dict(zip(names, values))
        stats = DegreeStats(
            n=n, degrees=tuple(row["degrees"]), two_degrees=tuple(row["two_degrees"]),
            avg_degree=Fraction(2 * row["m"], n), variance=Fraction(row["n2_variance"], n * n),
            **{key: row[key] for key in ("m", "max_degree", "min_degree", "sum_sq_degrees")})
        # The first class whose column holds; none of them: other-irregular.
        cls = next((c for c, key in zip(RegularityClass, _CLASS_COLUMNS) if row[key]),
                   RegularityClass.OTHER_IRREGULAR)
        yield BoundReport(
            graph=g, stats=stats, regularity=cls, connected=row["connected"],
            applicability=_applicability(stats, cls, row["connected"]),
            **{key: None if math.isnan(row[key]) else row[key] for key in _FLOAT_FIELDS})


def build_context(g: Graph, tol: float = DEFAULT_TOL) -> BoundReport:
    """build_contexts for the one graph g."""
    [report] = build_contexts([g], tol)
    return report


# The same call under its public name; a tracer wrapping either name by
# identity sees one function.
bound_report = build_context


# ---------------------------------------------------------------------------
# The evaluation of a run, as columns
# ---------------------------------------------------------------------------

@dataclass(eq=False, repr=False)  # comparing or printing whole arrays helps no caller
class BoundColumns:
    """One evaluation of a run of graphs with the same n, as columns: row i
    of every array belongs to the graph whose 0/1 matrix is adjacency[i].

    Row i holds every value of graph i's BoundReport, which build_contexts
    builds from it.  The float columns follow the scalar formulas' order of
    operations, on integer operands (at most 2 n^5) that float64 holds
    exactly for n <= 1351, so each equals its formula bit for bit.  Integer
    columns are int64; n2_variance is n^2 var = n sum d^2 - 4m^2, the exact
    variance scaled to an integer.  Class and connectivity are boolean
    columns (a graph in none of the three classes is other-irregular).  A
    gated bound column is NaN exactly where _applicability marks the bound
    inapplicable (BoundReport holds None there), so a claim with that side
    never fires there.
    """

    n: int
    adjacency: np.ndarray
    degrees: np.ndarray
    two_degrees: np.ndarray
    m: np.ndarray
    max_degree: np.ndarray
    min_degree: np.ndarray
    sum_sq_degrees: np.ndarray
    n2_variance: np.ndarray
    connected: np.ndarray
    regular: np.ndarray
    high_subregular: np.ndarray
    low_subregular: np.ndarray
    rho: np.ndarray
    q1: np.ndarray
    epsilon: np.ndarray
    avg_degree: np.ndarray
    variance: np.ndarray
    nikiforov: np.ndarray
    main: np.ndarray
    cg_degree: np.ndarray
    cgs: np.ndarray
    sub_high: np.ndarray
    sub_low: np.ndarray
    hofmeister_lb: np.ndarray
    ylt_lb: np.ndarray
    hsf_ub: np.ndarray
    var_lb: np.ndarray
    var_ub: np.ndarray

    def __len__(self) -> int:
        return len(self.adjacency)


def bound_columns(
    stack: np.ndarray, tol: float = DEFAULT_TOL, connected_only: bool = False
) -> BoundColumns:
    """BoundColumns of a (B, n, n) 0/1 adjacency stack, from one stacked
    eigensolve (rho, q1) and one pass of array arithmetic per quantity.

    Connectivity is tested once; with connected_only the disconnected
    rows are dropped before anything else is computed, and the row of a
    SpectralConvergenceError counts the kept rows.  The gates are a second
    statement of _applicability's, as masks; tier-1 tests hold the two
    equal.
    """
    connected = _connected_rows(stack)
    if connected_only:
        stack, connected = stack[connected], connected[connected]
    n = stack.shape[1]
    degrees = stack.sum(axis=2, dtype=np.int64)
    two_degrees = (stack @ degrees[:, :, None])[:, :, 0]
    m = degrees.sum(axis=1) // 2
    dmax, dmin = degrees.max(axis=1), degrees.min(axis=1)
    gap = dmax - dmin
    sum_sq = (degrees * degrees).sum(axis=1)
    n2_variance = n * sum_sq - 4 * m * m
    # classify_degree_multiset: low wins when both exceptional counts are 1.
    regular = gap == 0
    low = (gap == 1) & ((degrees == dmax[:, None]).sum(axis=1) == 1)
    high = (gap == 1) & ~low & ((degrees == dmin[:, None]).sum(axis=1) == 1)
    rho, q1, _ = _solve_stack(stack, tol, with_q1=True)
    big = connected & (n >= 7)
    # The rows a gate or an edgeless graph excludes may divide by zero;
    # np.where discards what they compute.
    with np.errstate(divide="ignore", invalid="ignore"):
        variance = n2_variance / (n * n)
        nikiforov = np.where(m == 0, 0.0, variance / np.sqrt(8 * m))
        return BoundColumns(
            n=n,
            adjacency=stack,
            degrees=degrees,
            two_degrees=two_degrees,
            m=m,
            max_degree=dmax,
            min_degree=dmin,
            sum_sq_degrees=sum_sq,
            n2_variance=n2_variance,
            connected=connected,
            regular=regular,
            high_subregular=high,
            low_subregular=low,
            rho=rho,
            q1=q1,
            epsilon=_epsilon(rho, m, n),
            avg_degree=2 * m / n,
            variance=variance,
            nikiforov=nikiforov,
            main=np.where(m == 0, 0.0, nikiforov * np.sqrt(n / dmax)),
            cg_degree=np.where(dmax == 0, 0.0, gap * gap / (4.0 * n * dmax)),
            cgs=np.where(connected & ~regular & (n >= 4), 1.0 / (n * (dmax + 2)), np.nan),
            sub_high=np.where(high & big, (n * n - 2 * n + 3) / (n ** 3 * dmax), np.nan),
            sub_low=np.where(
                low & big,
                (2 * n * n - 4 * n - 3) * dmax / (2 * n ** 3 * (dmax * dmax - dmax + 1)),
                np.nan,
            ),
            hofmeister_lb=np.sqrt(sum_sq / n),
            ylt_lb=np.where(connected & (m > 0),
                            np.sqrt((two_degrees * two_degrees).sum(axis=1) / sum_sq), np.nan),
            hsf_ub=np.where(
                connected,
                (dmin - 1 + np.sqrt((dmin + 1) ** 2 + 4 * (2 * m - dmin * n))) / 2.0,
                np.nan,
            ),
            var_lb=gap * gap / (2 * n),
            var_ub=gap * gap / 4,
        )

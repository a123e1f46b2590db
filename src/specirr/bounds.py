"""Bound formulas around the spectral-radius irregularity gap rho - 2m/n.

Every formula consumes exact integer degree statistics (n, m, max/min
degree, sum of squared degrees) with the degree variance carried as an
exact rational; conversion to float happens at the last step, so there is
no cancellation in var = (1/n) sum d^2 - (2m/n)^2.  A value that is a
quotient of two integers is the integer division a / b, which Python
rounds correctly, so it equals float(Fraction(a, b)).

Each bound is stated once, as a formula of degree statistics by name
(the table _BOUNDS, and _yu_lu_tian_column, _variance_sandwich,
_low_subregular_rho_cap and _l_high_terms) that the scalar functions
evaluate on one graph's Python ints and exact variance and bound_columns
on a run's int64 and float columns.  Tier-1 tests hold both to formulas
written out independently from the paper.

bound_columns is the one evaluation, the path of verify, search and
compute: from a (B, n, n) adjacency stack it computes every quantity of a
run of same-n graphs (degree statistics, class, connectivity, both
spectral radii from one stacked eigensolve, the irregularity and every
bound) as one int64, boolean or float column.  The gates (connectivity,
regularity, subregular class, vertex-count floors, an edge) are stated
once, in the table _GATES: each gated field's gates, each a test of a
run's columns with the reason a note gives where it fails.
bound_columns turns them into one mask per field and run, leaving a
gated bound NaN where it does not apply and the bounds an edgeless graph
zeroes at 0.0; the notes of a BoundReport come from the same table.
compute groups its whole input by n before it cuts runs, so an unsorted
input pays for at most one short run per n.

build_contexts is the public per-graph view of the same evaluation: it
cuts its input into runs of consecutive same-n graphs (spectral.split_runs),
evaluates each with bound_columns and yields one BoundReport per row, with
Python ints, exact rationals and floats, None where a gated column is NaN
and the notes of _GATES.  build_context is its one-graph case and
bound_report the same function under a second name.  The scalar bound
functions check only their stated guards (an edge, n >= 7, a subregular
class) and leave the gates of _GATES to the caller.
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
# The bound formulas, each stated once
# ---------------------------------------------------------------------------
#
# A formula takes degree statistics by name, either one graph's Python
# ints and exact Fraction variance (vars of its DegreeStats) or a run's
# int64 and float columns, and ignores the rest.  The scalar functions
# below evaluate it on the first, bound_columns on the second: the same
# operations in the same order, so the two agree bit for bit wherever
# float64 holds the integer operands (n <= 1351).  An int / int is one
# correctly rounded division on both; a float result is np.float64 on
# the scalar path until the function returns it as a float.
_BOUNDS = {
    "nikiforov": lambda variance, m, **_: variance / np.sqrt(8 * m),
    # nikiforov * sqrt(n / Dmax), so that main >= nikiforov holds in
    # floating point as well.
    "main": lambda nikiforov, n, max_degree, **_: nikiforov * np.sqrt(n / max_degree),
    "cg_degree": lambda n, max_degree, min_degree, **_:
        (max_degree - min_degree) ** 2 / (4.0 * n * max_degree),
    "cgs": lambda n, max_degree, **_: 1.0 / (n * (max_degree + 2)),
    "sub_high": lambda n, max_degree, **_: (n * n - 2 * n + 3) / (n ** 3 * max_degree),
    # (2n^2 - 4n - 3) / (2 n^3 (Dmax - 1 + 1/Dmax)) as one integer quotient.
    "sub_low": lambda n, max_degree, **_: (2 * n * n - 4 * n - 3) * max_degree
        / (2 * n ** 3 * (max_degree * max_degree - max_degree + 1)),
    "hofmeister_lb": lambda n, sum_sq_degrees, **_: np.sqrt(sum_sq_degrees / n),
    "ylt_lb": lambda degrees, two_degrees, **_: _yu_lu_tian_column(degrees, two_degrees),
    # The discriminant is nonnegative because 2m >= n * Dmin always.
    "hsf_ub": lambda n, m, min_degree, **_:
        (min_degree - 1 + np.sqrt((min_degree + 1) ** 2 + 4 * (2 * m - min_degree * n))) / 2.0,
}


def _bound(key: str, s: DegreeStats, **more) -> float:
    """_BOUNDS[key] of s (and of the values in more) as a Python float."""
    return float(_BOUNDS[key](**vars(s), **more))


def _yu_lu_tian_column(degrees: np.ndarray, two_degrees: np.ndarray) -> np.ndarray:
    """sqrt(sum t^2 / sum d^2) of each row of (B, n) int64 degree and
    2-degree columns: ||A d|| / ||d||, a Rayleigh quotient of A^2, so at
    most rho on every graph with an edge (connected or not).  Both sums
    are integers that float64 holds exactly, so each value is one
    division and one square root from its exact value.  An edgeless row
    divides 0 by 0."""
    return np.sqrt((two_degrees * two_degrees).sum(axis=1) / (degrees * degrees).sum(axis=1))


def _variance_sandwich(n, max_degree, min_degree, **_):
    """The endpoints (Dmax-Dmin)^2/(2n) <= var <= (Dmax-Dmin)^2/4, each as
    a pair (numerator, denominator) of integers or integer columns."""
    gap2 = (max_degree - min_degree) ** 2
    return (gap2, 2 * n), (gap2, 4)


def _low_subregular_rho_cap(dmax):
    """Dmax - 1 + 1/Dmax as one integer quotient; an edgeless row divides by 0."""
    return (dmax * dmax - dmax + 1) / dmax


def _l_high_terms(n, dmax):
    """The numerator and denominator of l_high(n, Dmax), integers or
    integer columns."""
    num = (2 * dmax**2 + dmax - 1) * n**2 + (2 * dmax - 5 * dmax**2) * n + 2 * dmax - 1
    return num, n**2 * (n * dmax**2 - 2 * dmax + 1)


# ---------------------------------------------------------------------------
# Lower bounds on the irregularity
# ---------------------------------------------------------------------------

def nikiforov_bound(s: DegreeStats) -> float:
    """Nikiforov lower bound var(G) / sqrt(8m); 0 for edgeless graphs."""
    if s.m == 0:
        return 0.0
    return _bound("nikiforov", s)


def main_bound(s: DegreeStats) -> float:
    """Degree-variance lower bound var(G) * sqrt(n) / sqrt(8 m Dmax).

    Computed as nikiforov_bound * sqrt(n / Dmax) so the dominance relation
    between the two is exact in floating point as well.
    """
    if s.m == 0:
        return 0.0
    return _bound("main", s, nikiforov=nikiforov_bound(s))


def cg_degree_bound(s: DegreeStats) -> float:
    """Cioaba-Gregory degree-gap bound (Dmax - Dmin)^2 / (4 n Dmax)."""
    if s.max_degree == 0:
        return 0.0
    return _bound("cg_degree", s)


def cgs_bound(s: DegreeStats) -> float:
    """Cioaba-Gregory subregular-friendly bound 1 / (n (Dmax + 2)).

    Only sound for connected non-regular graphs on n >= 4 vertices: it is
    strictly positive (so regular graphs falsify it trivially) and the
    path on 3 vertices falsifies it too (irregularity sqrt(2) - 4/3 is
    below 1/12).  _GATES states the gate.
    """
    return _bound("cgs", s)


def subregular_bounds(s: DegreeStats, c: RegularityClass) -> float:
    """Irregularity lower bound for connected subregular graphs on n >= 7.

    High subregular: (n^2 - 2n + 3) / (n^3 Dmax).
    Low subregular:  (2n^2 - 4n - 3) / (2 n^3 (Dmax - 1 + 1/Dmax)).
    Connectivity is asserted by the caller.
    """
    if s.n < 7:
        raise ValueError(f"subregular bounds require n >= 7, got n={s.n}")
    if c is RegularityClass.HIGH_SUBREGULAR:
        return _bound("sub_high", s)
    if c is RegularityClass.LOW_SUBREGULAR:
        return _bound("sub_low", s)
    raise ValueError(f"subregular bounds need a subregular class, got {c.value}")


# ---------------------------------------------------------------------------
# Bounds on the spectral radius itself
# ---------------------------------------------------------------------------

def hofmeister_lower(s: DegreeStats) -> float:
    """Hofmeister lower bound sqrt(sum d^2 / n) <= rho."""
    return _bound("hofmeister_lb", s)


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
    return float(_yu_lu_tian_column(np.array([s.degrees]), np.array([s.two_degrees]))[0])


def hong_shu_fang_upper(s: DegreeStats) -> float:
    """Hong-Shu-Fang upper bound on rho for connected graphs.

    rho <= (Dmin - 1 + sqrt((Dmin + 1)^2 + 4(2m - Dmin n))) / 2.
    Connectivity is asserted by the caller.
    """
    return _bound("hsf_ub", s)


def low_subregular_rho_upper(dmax: int) -> float:
    """rho <= Dmax - 1 + 1/Dmax for connected low subregular graphs."""
    if dmax < 1:
        raise ValueError(f"max degree must be >= 1, got {dmax}")
    return float(_low_subregular_rho_cap(dmax))


# ---------------------------------------------------------------------------
# Degree-variance sandwich and signless-Laplacian checks
# ---------------------------------------------------------------------------

def variance_sandwich(s: DegreeStats) -> tuple[Fraction, Fraction]:
    """Exact Popoviciu/Nagy endpoints (Dmax-Dmin)^2/(2n) <= var <= (Dmax-Dmin)^2/4."""
    (lo, lo_den), (hi, hi_den) = _variance_sandwich(**vars(s))
    return Fraction(lo, lo_den), Fraction(hi, hi_den)


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
    return Fraction(*_l_high_terms(n, dmax))


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


# A gate is a test, true where it holds, of a mapping from column name (n
# included) to a run's columns or to one row's values, and the reason its
# note gives where it fails, formatted with n and the row's class.
_CONNECTED = (lambda c: c["connected"], "graph is disconnected")
_NON_REGULAR = (lambda c: c["max_degree"] > c["min_degree"], "graph is regular")
_FOUR = (lambda c: c["n"] >= 4, "n < 4 (the 3-vertex path falsifies the bound)")
_HIGH = (lambda c: c["high_subregular"], "graph is {cls}")
_LOW = (lambda c: c["low_subregular"], "graph is {cls}")
_SEVEN = (lambda c: c["n"] >= 7, "n={n} < 7")
_EDGE = (lambda c: c["m"] > 0, "graph has no edges")
_DEGENERATE, _INAPPLICABLE = (0.0, "degenerate: "), (np.nan, "inapplicable: ")

# The one statement of the gates.  Each gated BoundReport field: the value
# its column takes on a row that fails a gate (0.0 for a bound that stays
# defined, NaN, read as None, for one that does not apply), its note's
# prefix, and its gates in the order the note names the first that fails.
_GATES = {
    **dict.fromkeys(("nikiforov", "main", "cg_degree"), (_DEGENERATE, _EDGE)),
    "cgs": (_INAPPLICABLE, _CONNECTED, _NON_REGULAR, _FOUR),
    "sub_high": (_INAPPLICABLE, _HIGH, _CONNECTED, _SEVEN),
    "sub_low": (_INAPPLICABLE, _LOW, _CONNECTED, _SEVEN),
    "ylt_lb": (_INAPPLICABLE, _CONNECTED, _EDGE),
    "hsf_ub": (_INAPPLICABLE, _CONNECTED),
}


def build_contexts(graphs: Iterable[Graph], tol: float = DEFAULT_TOL) -> Iterator[BoundReport]:
    """Evaluate each graph once, in input order: bound_columns on each run
    of consecutive same-n graphs (spectral.split_runs), one BoundReport per
    row.  tol is checked on the call; a run is evaluated when its first
    report is asked for."""
    check_tolerance(tol)
    return (report for run, stack in split_runs(graphs)
            for report in _reports(run, bound_columns(stack, tol)))


# BoundReport's float fields, rho through var_ub, each a BoundColumns column.
_FLOAT_FIELDS = tuple(f.name for f in fields(BoundReport))[4:-1]
_CLASS_COLUMNS = ("regular", "high_subregular", "low_subregular")


def _reports(run: Sequence[Graph], columns: BoundColumns) -> Iterator[BoundReport]:
    """The BoundReport of each graph of run from its row of columns, the
    evaluation of run's adjacency stack: every column value as a Python
    int, bool or float, a NaN (a gated bound) as None, and in _GATES' order
    a note on each field with a gate the row fails, from the first such
    gate."""
    n = columns.n
    names = [f.name for f in fields(columns)][2:]  # every array past n and adjacency
    for g, values in zip(run, zip(*(getattr(columns, name).tolist() for name in names))):
        row = dict(zip(names, values), n=n)
        stats = DegreeStats(
            n=n, degrees=tuple(row["degrees"]), two_degrees=tuple(row["two_degrees"]),
            avg_degree=Fraction(2 * row["m"], n), variance=Fraction(row["n2_variance"], n * n),
            **{key: row[key] for key in ("m", "max_degree", "min_degree", "sum_sq_degrees")})
        # The first class whose column holds; none of them: other-irregular.
        cls = next((c for c, key in zip(RegularityClass, _CLASS_COLUMNS) if row[key]),
                   RegularityClass.OTHER_IRREGULAR)
        notes = {}
        for key, ((_, prefix), *gates) in _GATES.items():
            for holds, why in gates:
                if not holds(row):
                    notes[key] = prefix + why.format(n=n, cls=cls.value)
                    break
        yield BoundReport(
            graph=g, stats=stats, regularity=cls, connected=row["connected"],
            applicability=notes,
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
    builds from it.  Each bound column evaluates the statement of its
    formula that the scalar function evaluates on Python ints (_BOUNDS),
    on integer operands (at most 2 n^5) that float64 holds exactly for
    n <= 1351, so it equals that function's value bit for bit; tier-1
    tests hold it to the formula written out independently.  Integer
    columns are int64; n2_variance is n^2 var = n sum d^2 - 4m^2, the exact
    variance scaled to an integer.  Class and connectivity are boolean
    columns (a graph in none of the three classes is other-irregular).  A
    gated bound column is NaN exactly where a gate of _GATES fails, which
    BoundReport notes as inapplicable and holds as None, so a claim with
    that side never fires there.
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
    SpectralConvergenceError counts the kept rows.  Each field of _GATES
    is then set to its fill value (NaN, or 0.0 on an edgeless graph) on the
    rows that fail one of its gates, one mask per gate and run.
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
    low = (gap == 1) & ((degrees == dmax[:, None]).sum(axis=1) == 1)
    high = (gap == 1) & ~low & ((degrees == dmin[:, None]).sum(axis=1) == 1)
    rho, q1, _ = _solve_stack(stack, tol, with_q1=True)
    stats = dict(
        n=n, degrees=degrees, two_degrees=two_degrees, m=m, max_degree=dmax, min_degree=dmin,
        sum_sq_degrees=sum_sq, n2_variance=n2_variance, connected=connected, regular=gap == 0,
        high_subregular=high, low_subregular=low, rho=rho, q1=q1, epsilon=_epsilon(rho, m, n),
        avg_degree=2 * m / n, variance=n2_variance / (n * n))
    # The rows a gate excludes may divide by zero; their values are
    # overwritten below.
    with np.errstate(divide="ignore", invalid="ignore"):
        for key, formula in _BOUNDS.items():
            stats[key] = formula(**stats)
    stats["var_lb"], stats["var_ub"] = (num / den for num, den in _variance_sandwich(**stats))
    columns = BoundColumns(adjacency=stack, **stats)
    for key, ((fill, _), *gates) in _GATES.items():
        holds = np.ones(len(columns), dtype=bool)
        for gate, _ in gates:
            holds &= gate(vars(columns))
        getattr(columns, key)[~holds] = fill
    return columns

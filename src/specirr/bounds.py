"""Bound formulas around the spectral-radius irregularity gap rho - 2m/n.

Every formula consumes exact integer degree statistics (n, m, max/min
degree, sum of squared degrees) with the degree variance carried as an
exact rational; conversion to float happens at the last step, so there is
no cancellation in var = (1/n) sum d^2 - (2m/n)^2.

build_context evaluates a graph once (degree statistics, class,
connectivity, both spectral radii) and returns one BoundReport holding
those values, the irregularity and every bound, with applicability rules
(connectivity, regularity, vertex-count floors) enforced; bound_report is
the same call under its public name.  The raw formula functions trust
their stated preconditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import (
    DegreeStats,
    Graph,
    RegularityClass,
    classify,
    degree_stats,
    is_connected,
)
from .spectral import DEFAULT_TOL, adjacency_spectral_radius, spectral_summary


# ---------------------------------------------------------------------------
# The irregularity measure itself
# ---------------------------------------------------------------------------

def epsilon(g: Graph, tol: float = DEFAULT_TOL) -> float:
    """Collatz-Sinogowitz irregularity: spectral radius minus average degree.

    The true value is nonnegative, and zero exactly for regular graphs;
    the float can land a few ulps below 0.
    """
    rho = adjacency_spectral_radius(g, tol).rho
    return rho - float(Fraction(2 * g.m, g.n))


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
    below 1/12).  build_context applies the gate.
    """
    return 1.0 / (s.n * (s.max_degree + 2))


def subregular_bounds(s: DegreeStats, c: RegularityClass) -> float:
    """Irregularity lower bound for connected subregular graphs on n >= 7.

    High subregular: (n^2 - 2n + 3) / (n^3 Dmax).
    Low subregular:  (2n^2 - 4n - 3) / (2 n^3 (Dmax - 1 + 1/Dmax)).
    Connectivity is asserted by the caller.
    """
    if s.n < 7:
        raise ValueError(f"subregular bounds require n >= 7, got n={s.n}")
    n, dmax = s.n, s.max_degree
    if c is RegularityClass.HIGH_SUBREGULAR:
        return float(Fraction(n * n - 2 * n + 3, n ** 3 * dmax))
    if c is RegularityClass.LOW_SUBREGULAR:
        return float(
            Fraction(2 * n * n - 4 * n - 3)
            / (2 * n ** 3 * (Fraction(dmax) - 1 + Fraction(1, dmax)))
        )
    raise ValueError(f"subregular bounds need a subregular class, got {c.value}")


# ---------------------------------------------------------------------------
# Bounds on the spectral radius itself
# ---------------------------------------------------------------------------

def hofmeister_lower(s: DegreeStats) -> float:
    """Hofmeister lower bound sqrt(sum d^2 / n) <= rho."""
    return math.sqrt(float(Fraction(s.sum_sq_degrees, s.n)))


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
    return _yu_lu_tian(degree_stats(g))


def _yu_lu_tian(s: DegreeStats) -> float:
    num = sum(t * t for t in s.two_degrees)
    return math.sqrt(float(Fraction(num, s.sum_sq_degrees)))


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
    return float(Fraction(dmax) - 1 + Fraction(1, dmax))


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
# Assembled report
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


def build_context(g: Graph, tol: float = DEFAULT_TOL) -> BoundReport:
    """Evaluate g once: degree statistics, class, connectivity, both
    spectral radii, and every applicable bound built from those values."""
    s = degree_stats(g)
    cls = classify(g)
    connected = is_connected(g)
    summary = spectral_summary(g, tol)
    notes: dict[str, str] = {}

    if s.m == 0:
        for name in ("nikiforov", "main", "cg_degree"):
            notes[name] = "degenerate: graph has no edges"

    if not connected:
        cgs = None
        notes["cgs"] = "inapplicable: graph is disconnected"
    elif cls is RegularityClass.REGULAR:
        cgs = None
        notes["cgs"] = "inapplicable: graph is regular"
    elif s.n < 4:
        cgs = None
        notes["cgs"] = "inapplicable: n < 4 (the 3-vertex path falsifies the bound)"
    else:
        cgs = cgs_bound(s)

    sub_high = sub_low = None
    if cls is RegularityClass.HIGH_SUBREGULAR or cls is RegularityClass.LOW_SUBREGULAR:
        key = "sub_high" if cls is RegularityClass.HIGH_SUBREGULAR else "sub_low"
        other = "sub_low" if key == "sub_high" else "sub_high"
        notes[other] = f"inapplicable: graph is {cls.value}"
        if not connected:
            notes[key] = "inapplicable: graph is disconnected"
        elif s.n < 7:
            notes[key] = f"inapplicable: n={s.n} < 7"
        elif key == "sub_high":
            sub_high = subregular_bounds(s, cls)
        else:
            sub_low = subregular_bounds(s, cls)
    else:
        notes["sub_high"] = f"inapplicable: graph is {cls.value}"
        notes["sub_low"] = f"inapplicable: graph is {cls.value}"

    if not connected:
        ylt = None
        notes["ylt_lb"] = "inapplicable: graph is disconnected"
        hsf = None
        notes["hsf_ub"] = "inapplicable: graph is disconnected"
    else:
        hsf = hong_shu_fang_upper(s)
        if s.m == 0:
            ylt = None
            notes["ylt_lb"] = "inapplicable: graph has no edges"
        else:
            ylt = _yu_lu_tian(s)

    var_lb, var_ub = map(float, variance_sandwich(s))
    return BoundReport(
        graph=g,
        stats=s,
        regularity=cls,
        connected=connected,
        rho=summary.rho,
        q1=summary.q1,
        epsilon=summary.rho - float(s.avg_degree),
        nikiforov=nikiforov_bound(s),
        main=main_bound(s),
        cg_degree=cg_degree_bound(s),
        cgs=cgs,
        sub_high=sub_high,
        sub_low=sub_low,
        hofmeister_lb=hofmeister_lower(s),
        ylt_lb=ylt,
        hsf_ub=hsf,
        var_lb=var_lb,
        var_ub=var_ub,
        applicability=notes,
    )


def bound_report(g: Graph, tol: float = DEFAULT_TOL) -> BoundReport:
    """Evaluate every applicable bound on one graph (same as build_context).

    A def of its own, not an alias, so a tracer can wrap each name apart.
    """
    return build_context(g, tol)

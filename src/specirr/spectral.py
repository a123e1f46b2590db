"""Spectral radius computation for small graphs.

Two independent routes are provided.  The production path is a dense
symmetric eigenvalue solve (LAPACK via numpy) of the adjacency matrix: its
top eigenvalue gives rho, accepted only when the residual ||Ax - rho x||
of a unit vector x is within the requested tolerance, and the top
eigenvalue of A + D gives the signless-Laplacian radius.  x comes from one
linear solve, (sI - A) x = 1 with s just above rho, which makes x lean to
the top eigenvector.  A d-regular graph gets rho = d and q1 = 2d exactly.
A disconnected graph needs no special handling, since the spectrum of its
block-diagonal matrix is the union of the components' spectra.

Graphs are evaluated in runs.  A run is up to run_length(n) graphs with
the same vertex count n; a single graph is a run of one.  Each run gets one
np.linalg.eigvalsh and one np.linalg.solve on its (B, n, n) adjacency
stack, one vectorised residual gate over every row, and, only when q1 is
wanted, one eigvalsh on the stack of A + D.  Only a row that fails the
gate is solved again, by np.linalg.eigh, whose unit top eigenvector gives
its residual; a failure there raises SpectralConvergenceError for the
first failing row, and carries that row's index.  LAPACK solves each
matrix of a stack as it would solve it alone, so no value depends on how
the input was cut into runs.  run_length bounds a run's arrays, and runs
are cut only here: split_rows cuts a sequence already known to share n (a
level of the stored classes for verify and search, compute's input lines
grouped by n), and split_runs lazily cuts stretches of consecutive same-n
Graphs (for spectral_runs, bounds.build_contexts and harness.verify_graphs).
The gated eigensolve of a run's stack is _solve_stack, which returns columns:
bounds.bound_columns reads them, and spectral_runs turns them into one
SpectralResult per graph.  adjacency_spectral_radius and spectral_summary
are spectral_runs on a run of one.

The oracle path certifies rho exactly: by Sylvester's law of inertia, the
number of eigenvalues of A above a rational x = p/q is the number of sign
changes in the leading principal minors of the integer matrix pI - qA.
With q = 2^41 the k-th minor is 2^(41k) p_k(x), where p_k is the
characteristic polynomial of A's leading k x k submatrix.  One
division-free Samuelson-Berkowitz pass per run computes p_1 ... p_n for the
whole (B, n, n) stack in int64 numpy (every intermediate stays below 2^40
for n <= ORACLE_MAX_N).  Counting on the grid x(j) = (2j + 1) / 2^41,
which contains no integer (so, the eigenvalues of every leading submatrix
being algebraic integers, no minor vanishes), brackets rho in an interval
of width 2^-40; its midpoint is within 2^-41 of the true radius.  Every
row of a run is searched in lockstep.  Whether rho lies above a grid point
is whether some minor is negative there, and a float64 Horner pass over
the whole run decides almost every such sign, certified exact by a proven
error bound (a floating-point filter, see _oracle_column).  Only a probe
with a sign that pass cannot certify is counted exactly, by the same
Horner recurrence over the same coefficients, homogenized and run in
Python ints (_count_above): the coefficients are held once, as the float
pass's terms.  The eigensolve only seeds the search, so the oracle
cross-validates it; _oracle_column itself makes no eigensolve and takes
finite seeds only (the corpus passes rho that passed the residual gate),
and spectral_oracle seeds a graph without an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby, islice
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import Graph

DEFAULT_TOL = 1e-12
ORACLE_MAX_N = 12
CHUNK = 64  # run_length's floor: the most graphs a run takes from n = 14 on
RUN_ENTRIES = 12_544  # 256 * 7^2: the matrix entries run_length allows a run below that


class SpectralConvergenceError(RuntimeError):
    """The eigensolve's residual exceeds the requested tolerance.

    row is the index, in the solved stack, of the graph it names.
    """

    def __init__(self, message: str, row: int = 0) -> None:
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class SpectralResult:
    """Spectral radius with accuracy metadata.

    rho is the adjacency spectral radius; q1 the signless-Laplacian radius
    when it was requested alongside (None otherwise).  residual is
    ||Ax - rho x|| for the unit vector x of the gate (_solve_stack): the
    shifted solve's, or eigh's top eigenvector where that one failed the
    gate.  iterations is always 1, one eigensolve; it is kept because the
    benchmark's tracer (perfbench/spans.py) reads it, and goes with the next
    change to that benchmark's metrics.
    """

    rho: float
    q1: float | None
    iterations: int
    residual: float


# ---------------------------------------------------------------------------
# Dense symmetric eigensolve
# ---------------------------------------------------------------------------

def check_tolerance(tol: float) -> float:
    """Return tol if it is finite and positive; raise ValueError otherwise.

    A NaN or infinite tolerance would make every residual or margin test
    pass, silently disabling it.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    return tol


def run_length(n: int) -> int:
    """The most n-vertex graphs one run takes: max(CHUNK, RUN_ENTRIES // n^2).

    Each run pays a fixed cost in numpy calls (the eigensolve, the bound
    and claim columns, the oracle's recursion and lockstep search), which
    64 graphs on 7 vertices (25 KB of float matrices) do not amortise, so
    a run of small graphs is sized by its matrix entries: 256 graphs at
    n = 7, 196 at n = 8, 154 at n = 9.  From n = 14 on the floor holds a
    run at 64 graphs: runs of 256 raised compute's peak RSS on 1 024
    G(62, 1/2) graphs from 39 to 65 MB and saved no time.
    """
    return max(CHUNK, RUN_ENTRIES // (n * n))


def split_runs(graphs: Iterable[Graph]) -> Iterator[list[Graph]]:
    """Maximal stretches of consecutive graphs with the same n, cut at
    run_length(n) graphs."""
    for n, same_n in groupby(graphs, key=attrgetter("n")):
        length = run_length(n)
        while run := list(islice(same_n, length)):
            yield run


def split_rows(rows: Sequence, n: int) -> Iterator[Sequence]:
    """Consecutive slices of at most run_length(n) rows: the runs of rows
    already known to hold n-vertex graphs."""
    length = run_length(n)
    return (rows[start:start + length] for start in range(0, len(rows), length))


def _adjacency_stack(run: Sequence[Graph]) -> np.ndarray:
    """(len(run), n, n) uint8 adjacency matrices of graphs sharing n; row v
    of a graph's matrix unpacks the bits of its neighbor_masks[v]."""
    n = run[0].n
    width = (n + 7) // 8
    packed = b"".join(mask.to_bytes(width, "little") for g in run for mask in g.neighbor_masks)
    rows = np.frombuffer(packed, dtype=np.uint8).reshape(len(run), n, width)
    return np.unpackbits(rows, axis=2, count=n, bitorder="little")


def _solve_stack(
    stack: np.ndarray, tol: float, with_q1: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """(rho, q1, residual) columns of a (B, n, n) stack of 0/1 adjacency
    matrices: the top eigenvalue of each, checked by a residual, and the
    signless-Laplacian radius when with_q1 is set (None otherwise).

    rho is the top value of one eigvalsh of the stack.  The residual is
    ||Ax - rho x|| for the unit vector x along the solution of
    (sI - A) x = 1, s = rho + 1e-13 * max(1, rho), one batched solve: s
    sits just above rho, so x leans to the top eigenvector.  For a
    symmetric matrix the residual of a unit vector bounds the distance
    from rho to the nearest eigenvalue.  Only a row whose residual is not
    within tol * max(1, rho) (or every row, when the solve finds a shifted
    matrix singular) is solved again by eigh, which gives its rho and the
    residual of its unit top eigenvector; a row still above the bound
    raises SpectralConvergenceError for the first such row, with row set
    to its index.  A regular row, all row sums d, gets rho = d and
    q1 = 2d exactly: both are theorems.  The stack is not modified.
    """
    adj = stack.astype(float)
    n = adj.shape[1]
    rho = np.linalg.eigvalsh(adj)[:, -1]
    shift = rho + 1e-13 * np.maximum(1.0, rho)
    try:
        # b as a (B, n, 1) stack: numpy < 2 reads a 2-d b as a stack of vectors.
        x = np.linalg.solve(shift[:, None, None] * np.eye(n) - adj, np.ones(rho.shape + (n, 1)))
        with np.errstate(invalid="ignore"):  # a zero or non-finite x: its residual is NaN
            residual = _residual(adj, rho, x / np.sqrt(np.swapaxes(x, 1, 2) @ x))
    except np.linalg.LinAlgError:
        residual = np.full_like(rho, np.inf)
    # "Not within" also sends a NaN residual to eigh.
    failed = np.flatnonzero(~(residual <= tol * np.maximum(1.0, rho)))
    if failed.size:
        values, vectors = np.linalg.eigh(adj[failed])
        rho[failed] = values[:, -1]
        residual[failed] = _residual(adj[failed], rho[failed], vectors[:, :, -1:])
        above = np.flatnonzero(residual[failed] > tol * np.maximum(1.0, rho[failed]))
        if above.size:
            i = failed[above[0]]
            raise SpectralConvergenceError(
                f"spectral residual {residual[i]:.3e} above tolerance {tol:.3e} "
                f"(relative to rho = {rho[i]:.6g})",
                row=int(i),
            )
    degrees = adj.sum(axis=2)
    regular = (degrees == degrees[:, :1]).all(axis=1)
    rho[regular] = degrees[regular, 0]
    q1 = None
    if with_q1:
        diagonal = np.arange(n)
        adj[:, diagonal, diagonal] = degrees  # A + D
        q1 = np.linalg.eigvalsh(adj)[:, -1]
        q1[regular] = 2 * degrees[regular, 0]
    return rho, q1, residual


def _residual(adj: np.ndarray, rho: np.ndarray, x: np.ndarray) -> np.ndarray:
    """||Ax - rho x|| of each (n, 1) vector of a (B, n, 1) stack x."""
    d = adj @ x - rho[:, None, None] * x
    # sqrt(d^T d) through BLAS, as np.linalg.norm takes one vector's norm.
    return np.sqrt(np.swapaxes(d, 1, 2) @ d)[:, 0, 0]


def spectral_runs(
    graphs: Iterable[Graph], tol: float = DEFAULT_TOL, with_q1: bool = False
) -> Iterator[tuple[Graph, SpectralResult]]:
    """(graph, SpectralResult) pairs in input order, one _solve_stack per
    run (split_runs); each residual is at most tol * max(1, rho).

    tol is checked on the call; a run is solved when its first pair is
    asked for.  q1 is computed only with with_q1, and is None otherwise.
    """
    check_tolerance(tol)

    def pairs() -> Iterator[tuple[Graph, SpectralResult]]:
        for run in split_runs(graphs):
            rho, q1, residual = _solve_stack(_adjacency_stack(run), tol, with_q1)
            q1 = [None] * len(run) if q1 is None else q1.tolist()
            for g, r, q, e in zip(run, rho.tolist(), q1, residual.tolist()):
                yield g, SpectralResult(rho=r, q1=q, iterations=1, residual=e)
    return pairs()


def adjacency_spectral_radius(g: Graph, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Adjacency spectral radius, with residual at most tol * max(1, rho)."""
    return next(spectral_runs([g], tol))[1]


def signless_laplacian_radius(g: Graph, tol: float = DEFAULT_TOL) -> float:
    """Spectral radius of the signless Laplacian A + D.

    It comes from the same evaluation as spectral_summary's, so tol bounds
    the adjacency residual exactly as there.
    """
    return spectral_summary(g, tol).q1


def spectral_summary(g: Graph, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Adjacency radius and signless-Laplacian radius from one matrix."""
    return next(spectral_runs([g], tol, with_q1=True))[1]


# ---------------------------------------------------------------------------
# Exact inertia-count oracle
# ---------------------------------------------------------------------------

_GRID_BITS = 40  # the oracle brackets rho in an interval of width 2^-40
# 2 gamma_2k for k = 1..ORACLE_MAX_N, where gamma_m = m u / (1 - m u) and
# u = 2^-53: the slack of the float filter (_oracle_column).
_FILTER_SLACK = np.array([2 * (2 * k * 2.0**-53) / (1 - 2 * k * 2.0**-53)
                          for k in range(1, ORACLE_MAX_N + 1)])


def _leading_polynomials(stack: np.ndarray) -> np.ndarray:
    """(B, n + 1, n + 1) int64 coefficients of p_k(t) = det(tI - A_k), the
    characteristic polynomial of each leading principal k x k submatrix A_k
    of a (B, n, n) 0/1 adjacency stack: row k holds p_k's coefficients from
    t^k down to t^0, then zeros; row 0 is p_0 = 1.

    Samuelson-Berkowitz, division-free: with A_(k+1) = [[A_k, c], [c^T, 0]],
    p_(k+1)(t) = t p_k(t) - sum over j < k of (c^T A_k^j c) (p_k(t) div t^(j+1)),
    one batched mat-vec per j.  Every intermediate stays below 2^40 for
    n <= ORACLE_MAX_N, far below int64's 2^63: c^T A_k^j c <= k (k-1)^j,
    the i-th coefficient of p_l is at most C(l, i) i^(i/2) in absolute value
    (a sum of C(l, i) principal minors, each bounded by Hadamard's
    inequality), and with these every sum the recursion forms is at most
    5.5e11 for k <= 11.  K12 reaches 1.1e11.  The recursion only adds,
    subtracts and multiplies, so the coefficients would be right modulo
    2^64 even past that bound.
    """
    adj = stack.astype(np.int64)
    size, n = adj.shape[:2]
    coeffs = np.zeros((size, n + 1, n + 1), dtype=np.int64)
    coeffs[:, :, 0] = 1
    for k in range(1, n):
        prev, new = coeffs[:, k, :k + 1], coeffs[:, k + 1]
        new[:, 1:k + 1] = prev[:, 1:]
        head, c = adj[:, :k, :k], adj[:, :k, k:k + 1]
        c_row = c.transpose(0, 2, 1)
        walk = c
        for j in range(k):
            if j:
                walk = head @ walk
            new[:, j + 2:k + 2] -= (c_row @ walk)[:, 0] * prev[:, :k - j]
    return coeffs


def _count_above(terms: Sequence[Sequence[int]], num: int) -> int:
    """Number of eigenvalues of A above x = num / 2^41, for odd num, where
    terms is A's (n + 1, n) block of _horner_terms coefficients as Python
    ints: terms[i][k - 1] is the coefficient of t^(n-i) in p_k.

    By Sylvester's law of inertia this is the number of negative
    eigenvalues of the integer matrix M = num*I - 2^41*A, which is the
    number of sign changes in 1, D1, ..., Dn, the leading principal minors
    of M, where Dk = 2^(41k) p_k(x).  The float pass's Horner recurrence
    over i, homogenized (v <- v num + terms[i] 2^(41i)) and run in Python
    ints, yields 2^(41n) p_k(x) = 2^(41(n-k)) Dk for every k at once, which
    has the sign of Dk; every minor is evaluated and checked.  None
    vanishes: every eigenvalue of the integer symmetric A_k is an algebraic
    integer, hence never the non-integer rational x.
    """
    values = [0] * len(terms[0])
    for i, row in enumerate(terms):
        values = [value * num + (c << (_GRID_BITS + 1) * i) for value, c in zip(values, row)]
    if 0 in values:
        raise AssertionError("a leading minor vanished at a non-integer point")
    negative = [False] + [value < 0 for value in values]
    return sum(a != b for a, b in zip(negative, negative[1:]))


def spectral_oracle(g: Graph, estimate: float | None = None) -> float:
    """Adjacency spectral radius certified by exact inertia counts.

    The radius is bracketed between adjacent points of the grid
    x(j) = (2j + 1) / 2^41 by deciding exactly whether it lies above each
    point, from the signs of the leading principal minors there (see
    _oracle_column); the bracket's midpoint is returned, within 2^-41
    (about 4.5e-13) of the true radius.  No grid point is an integer, so
    no leading minor can vanish.  The estimate, a float rho already
    computed, only seeds the search; the result does not depend on it.
    Without one, or with a NaN or infinite one, the top eigenvalue of one
    eigensolve seeds it, ungated: a residual _solve_stack would reject
    still seeds the search.  This is the oracle's only eigensolve.  A
    disconnected graph or a repeated top eigenvalue needs no special case.
    """
    stack = _adjacency_stack([g])
    if estimate is None or not math.isfinite(estimate):
        estimate = np.linalg.eigvalsh(stack.astype(float))[0, -1]
    return float(_oracle_column(stack, np.array([estimate], dtype=float))[0])


def _oracle_column(stack: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """spectral_oracle of each matrix of a (B, n, n) 0/1 adjacency stack,
    seeded by the matching estimate: j / 2^40 for the grid index j with
    x(j-1) < rho < x(j), where x(j) = (2j + 1) / 2^41.  It makes no
    eigensolve: every estimate must be finite (ValueError otherwise), and
    spectral_oracle seeds a missing one.

    Each seed is round(estimate * 2^40), clamped to [-n 2^40, n 2^40]:
    every eigenvalue lies in [-(n-1), n-1], so the clamp only saves probes.
    All rows are searched in lockstep, one probe per unfinished row and
    step: x(seed - 1) and x(seed) first, then galloping outward with
    doubling steps until the probes straddle rho, then bisecting.  The
    bracket depends on the matrix and the grid alone, never on the seed.

    rho > x exactly when some leading minor is negative at x (the count of
    _count_above is the number of sign changes in 1, D1, ..., Dn), so a
    probe needs only the signs of p_1(x) ... p_n(x).  One float64 Horner
    pass per step computes every p_k(x) of every probed row (_float_signs),
    and a sign is certified when the float value v satisfies
    |v| > 2 gamma_2k b', where b' is the float Horner value of the absolute
    coefficients at |x|, gamma_m = m u / (1 - m u) and u = 2^-53.

    - The inputs are exact: every coefficient is an integer below 2^40
      (_leading_polynomials), and x is an odd integer below 2^53 over a
      power of two, so both are doubles without rounding.
    - The bound: by Higham's bound for Horner's rule (Accuracy and
      Stability of Numerical Algorithms, 2nd ed., eq. (5.3)), v is within
      gamma_2k b of p_k(x), where b = sum_i |c_(k,i)| |x|^(k-i), and b' is
      within gamma_2k b of b, so b <= b' / (1 - gamma_2k).  2 gamma_2k b'
      exceeds that error with room for the rounding of the product itself:
      a certified sign is exact, and a p_k(x) that is truly 0 is never
      certified (Shewchuk's floating-point filter).
    - Nothing underflows, which the bound assumes: x is a multiple of
      2^-41, and rounding a multiple of a power of two to a double keeps it
      one, so after i Horner steps every value is a multiple of 2^(-41 i):
      0, or at least 2^-492 in magnitude for n <= ORACLE_MAX_N, far above
      the smallest normal double, 2^-1022.  b' is at least |x|^k >= 2^-492
      (p_k is monic), so the threshold 2 gamma_2k b' is normal too.  The
      clamped seeds keep every probe within a few n of 0, so nothing
      overflows either.

    A probe at which any sign of a row stays undecided is counted exactly
    by _count_above, on that row's Horner terms converted to Python ints:
    the same recurrence, exact, so a minor that truly vanished still raises
    there.
    """
    size, n = stack.shape[:2]
    if n > ORACLE_MAX_N:
        raise ValueError(f"oracle capped at n <= {ORACLE_MAX_N}, got {n}")
    if not np.isfinite(estimates).all():
        raise ValueError("oracle estimates must be finite")
    terms = _horner_terms(_leading_polynomials(stack))

    def above(rows, j: np.ndarray) -> np.ndarray:
        # Whether rho > x(j) for the matrices rows (an index array or a
        # slice) picks out, along j's last axis.
        probed = terms[:, rows]
        negative, decided = _float_signs(probed, j)
        for index in map(tuple, np.argwhere(~decided).tolist()):
            exact = probed[:, index[-1], 0].astype(np.int64).tolist()
            negative[index] = _count_above(exact, 2 * int(j[index]) + 1) > 0
        return negative

    grid = float(1 << _GRID_BITS)
    seeds = np.rint(np.clip(estimates, -n, n) * grid).astype(np.int64)
    # x(seed - 1) < rho < x(seed) whenever the estimate is within half a
    # grid step of rho; the rows those probes do not bracket gallop upward
    # from x(seed) or downward from x(seed - 1).
    below, rising = above(slice(None), np.stack([seeds - 1, seeds]))
    galloping = rising | ~below
    lo = np.where(rising, seeds, np.where(below, seeds - 1, seeds - 2))
    hi = lo + 1  # rho > x(lo) always, and rho < x(hi) once the row stops galloping
    step = np.ones(size, dtype=np.int64)
    while (rows := np.flatnonzero(galloping | (hi - lo > 1))).size:
        gallop, up, l, h, s = galloping[rows], rising[rows], lo[rows], hi[rows], step[rows]
        probe = np.where(gallop, np.where(up, h, l), (l + h) // 2)
        found = above(rows, probe)
        # A galloping row moves on while its probe stays on its seed's side
        # of rho; a bisecting row keeps the half rho lies in.
        onward = gallop & (found == up)
        lo[rows] = np.where(onward, np.where(up, h, l - s), np.where(~gallop & found, probe, l))
        hi[rows] = np.where(onward, np.where(up, h + s, l), np.where(~gallop & ~found, probe, h))
        step[rows] = np.where(onward, 2 * s, s)
        galloping[rows] = onward
    return hi / grid


def _horner_terms(coeffs: np.ndarray) -> np.ndarray:
    """(n + 1, B, 2, n) float64 Horner terms of (B, n + 1, n + 1)
    _leading_polynomials coefficients: terms[i, b, 0, k - 1] is the
    coefficient of t^(n-i) in matrix b's p_k (0 above p_k's degree), and
    terms[i, b, 1, k - 1] its absolute value.  Every coefficient is an
    integer below 2^40, so each is an exact double."""
    n = coeffs.shape[1] - 1
    k = np.arange(1, n + 1)[:, None]
    i = np.arange(n + 1) - (n - k)  # (n, n + 1): index into p_k's row, negative above its degree
    aligned = np.where(i >= 0, coeffs[:, k, np.maximum(i, 0)], 0)
    return np.stack([aligned, np.abs(aligned)], axis=1).transpose(3, 0, 1, 2).astype(float)


def _float_signs(terms: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(negative, decided), shaped like j, from (n + 1, R, 2, n)
    _horner_terms at the grid points x(j) = (2j + 1) / 2^41, j's last axis
    running over the R matrices: negative tells whether some p_k(x), as
    computed in float64, is below 0, and decided whether every such sign
    is certified, hence exact, by the filter _oracle_column describes."""
    n = terms.shape[3]
    x = (2 * j + 1) / float(1 << _GRID_BITS + 1)
    point = np.stack([x, np.abs(x)], axis=-1)[..., None]
    acc = terms[0] * point + terms[1]
    for term in terms[2:]:
        acc *= point
        acc += term
    value, bound = acc[..., 0, :], acc[..., 1, :]
    decided = (np.abs(value) > _FILTER_SLACK[:n] * bound).all(axis=-1)
    return (value < 0).any(axis=-1), decided

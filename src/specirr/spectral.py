"""Spectral radius computation for small graphs.

Two independent routes are provided.  The production path is one dense
symmetric eigensolve (LAPACK via numpy) of the adjacency matrix: its top
eigenpair gives rho, accepted only when the eigenvector residual
||Ax - rho x|| is within the requested tolerance, and the top eigenvalue of
A + D gives the signless-Laplacian radius.  A disconnected graph needs no
special handling, since the spectrum of its block-diagonal matrix is the
union of the components' spectra.  The oracle path certifies rho exactly:
by Sylvester's law of inertia, the number of eigenvalues of A above a
rational x = p/q is the number of sign changes in the leading principal
minors of the integer matrix pI - qA, which Bareiss fraction-free
elimination computes in integer arithmetic.  Counting on the grid
x(j) = (2j + 1) / 2^41, which contains no integer (so, the eigenvalues of
every leading submatrix being algebraic integers, no minor vanishes),
brackets rho in an interval of width 2^-40; its midpoint is within 2^-41
of the true radius.  The eigensolve only seeds that search, so the oracle
cross-validates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph

DEFAULT_TOL = 1e-12
ORACLE_MAX_N = 12


class SpectralConvergenceError(RuntimeError):
    """The eigensolve's residual exceeds the requested tolerance."""


@dataclass(frozen=True)
class SpectralResult:
    """Spectral radius with accuracy metadata.

    rho is the adjacency spectral radius; q1 the signless-Laplacian radius
    when it was requested alongside (None otherwise).  iterations is 1: one
    eigensolve.  residual is ||Ax - rho x|| for the unit top eigenvector x.
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


def _adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix; row v unpacks the bits of neighbor_masks[v]."""
    width = (g.n + 7) // 8
    packed = b"".join(mask.to_bytes(width, "little") for mask in g.neighbor_masks)
    rows = np.frombuffer(packed, dtype=np.uint8).reshape(g.n, width)
    return np.unpackbits(rows, axis=1, count=g.n, bitorder="little").astype(float)


def _radius(adj: np.ndarray, tol: float, with_q1: bool) -> SpectralResult:
    """Top eigenpair of the adjacency matrix, checked by its residual, and
    the signless-Laplacian radius when with_q1 is set.

    For a symmetric matrix the residual ||Ax - rho x|| of a unit vector x
    bounds the distance from rho to the nearest eigenvalue.
    """
    check_tolerance(tol)
    values, vectors = np.linalg.eigh(adj)
    rho, x = float(values[-1]), vectors[:, -1]
    residual = float(np.linalg.norm(adj @ x - rho * x))
    if residual > tol * max(1.0, rho):
        raise SpectralConvergenceError(
            f"spectral residual {residual:.3e} above tolerance {tol:.3e} "
            f"(relative to rho = {rho:.6g})"
        )
    q1 = _signless_radius(adj) if with_q1 else None
    return SpectralResult(rho=rho, q1=q1, iterations=1, residual=residual)


def _signless_radius(adj: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(adj + np.diag(adj.sum(axis=1)))[-1])


def adjacency_spectral_radius(g: Graph, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Adjacency spectral radius, with residual at most tol * max(1, rho)."""
    return _radius(_adjacency_matrix(g), tol, with_q1=False)


def signless_laplacian_radius(g: Graph, tol: float = DEFAULT_TOL) -> float:
    """Spectral radius of the signless Laplacian A + D.

    tol is validated like adjacency_spectral_radius's; the eigenvalue
    itself needs no stopping test.
    """
    check_tolerance(tol)
    return _signless_radius(_adjacency_matrix(g))


def spectral_summary(g: Graph, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Adjacency radius and signless-Laplacian radius from one matrix."""
    return _radius(_adjacency_matrix(g), tol, with_q1=True)


# ---------------------------------------------------------------------------
# Exact inertia-count oracle
# ---------------------------------------------------------------------------

_GRID_BITS = 40  # the oracle brackets rho in an interval of width 2^-40


def _count_above(masks: Sequence[int], n: int, num: int) -> int:
    """Number of eigenvalues of A above x = num / 2^41, for odd num.

    By Sylvester's law of inertia this is the number of negative
    eigenvalues of the integer matrix M = num*I - 2^41*A, which is the
    number of sign changes in 1, D1, ..., Dn, the leading principal minors
    of M.  Bareiss fraction-free elimination yields D(k+1) as its k-th
    pivot, dividing each step exactly by the previous pivot Dk.  No minor
    vanishes: Dk = 2^(41k) det(xI - A_k), and every eigenvalue of the
    integer symmetric A_k is an algebraic integer, hence never the
    non-integer rational x.
    """
    scale = 1 << (_GRID_BITS + 1)
    rows = [
        [num if i == j else -scale * ((masks[i] >> j) & 1) for j in range(n)]
        for i in range(n)
    ]
    changes, prev = 0, 1
    for k in range(n):
        row_k = rows[k]
        pivot = row_k[k]
        if pivot == 0:
            raise AssertionError("a leading minor vanished at a non-integer point")
        changes += (pivot < 0) != (prev < 0)
        # Each step keeps M symmetric: update only the upper triangle.
        for i in range(k + 1, n):
            row_i, lead = rows[i], row_k[i]
            for j in range(i, n):
                row_i[j] = (pivot * row_i[j] - lead * row_k[j]) // prev
        prev = pivot
    return changes


def _bracket_radius(masks: Sequence[int], n: int, estimate: float) -> float:
    """j / 2^40 for the grid index j with x(j-1) < rho < x(j), where
    x(j) = (2j + 1) / 2^41.

    The search gallops outward from the estimate with doubling steps and
    then bisects; a poor estimate costs counts, never correctness.
    """

    def above(j: int) -> bool:
        return _count_above(masks, n, 2 * j + 1) > 0

    seed = round(estimate * (1 << _GRID_BITS))
    step = 1
    if above(seed):
        lo, hi = seed, seed + 1
        while above(hi):
            lo, hi, step = hi, hi + step, 2 * step
    else:
        lo, hi = seed - 1, seed
        while not above(lo):
            lo, hi, step = lo - step, lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid
        else:
            hi = mid
    return hi / (1 << _GRID_BITS)


def spectral_oracle(g: Graph, estimate: float | None = None) -> float:
    """Adjacency spectral radius certified by exact inertia counts.

    The radius is bracketed between adjacent points of the grid
    x(j) = (2j + 1) / 2^41 by counting, exactly in integers, the
    eigenvalues above each point (Bareiss leading minors, see
    _count_above); the bracket's midpoint is returned, within 2^-41
    (about 4.5e-13) of the true radius.  No grid point is an integer, so
    no leading minor can vanish.  The estimate, a float rho already
    computed or else one eigensolve, only seeds the search; the result does
    not depend on it.  A disconnected graph or a repeated top eigenvalue
    needs no special case.
    """
    if g.n > ORACLE_MAX_N:
        raise ValueError(f"oracle capped at n <= {ORACLE_MAX_N}, got {g.n}")
    if estimate is None:
        estimate = float(np.linalg.eigvalsh(_adjacency_matrix(g))[-1])
    return _bracket_radius(g.neighbor_masks, g.n, estimate)

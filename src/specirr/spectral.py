"""Spectral radius computation for small graphs.

Two independent routes are provided.  The production path is one dense
symmetric eigensolve (LAPACK via numpy) of the adjacency matrix: its top
eigenpair gives rho, accepted only when the eigenvector residual
||Ax - rho x|| is within the requested tolerance, and the top eigenvalue of
A + D gives the signless-Laplacian radius.  A disconnected graph needs no
special handling, since the spectrum of its block-diagonal matrix is the
union of the components' spectra.  The oracle path isolates the largest
real root of the exact integer characteristic polynomial by bisection with
Sturm-chain root counting, entirely in rational arithmetic, per connected
component; it shares no code or algorithmic family with the eigensolve and
is used to cross-validate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphs import Graph, connected_components

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

def _adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix; row v unpacks the bits of neighbor_masks[v]."""
    width = (g.n + 7) // 8
    packed = b"".join(mask.to_bytes(width, "little") for mask in g.neighbor_masks)
    rows = np.frombuffer(packed, dtype=np.uint8).reshape(g.n, width)
    return np.unpackbits(rows, axis=1, count=g.n, bitorder="little").astype(float)


def _radius(adj: np.ndarray, tol: float) -> SpectralResult:
    """Top eigenpair of the adjacency matrix, checked by its residual.

    For a symmetric matrix the residual ||Ax - rho x|| of a unit vector x
    bounds the distance from rho to the nearest eigenvalue.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    values, vectors = np.linalg.eigh(adj)
    rho, x = float(values[-1]), vectors[:, -1]
    residual = float(np.linalg.norm(adj @ x - rho * x))
    if residual > tol * max(1.0, rho):
        raise SpectralConvergenceError(
            f"spectral residual {residual:.3e} above tolerance {tol:.3e} "
            f"(relative to rho = {rho:.6g})"
        )
    return SpectralResult(rho=rho, q1=None, iterations=1, residual=residual)


def _signless_radius(adj: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(adj + np.diag(adj.sum(axis=1)))[-1])


def adjacency_spectral_radius(g: Graph, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Adjacency spectral radius, with residual at most tol * max(1, rho)."""
    return _radius(_adjacency_matrix(g), tol)


def signless_laplacian_radius(g: Graph, tol: float = DEFAULT_TOL) -> float:
    """Spectral radius of the signless Laplacian A + D.

    tol is validated like adjacency_spectral_radius's; the eigenvalue
    itself needs no stopping test.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return _signless_radius(_adjacency_matrix(g))


def spectral_summary(g: Graph, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Adjacency radius and signless-Laplacian radius from one matrix."""
    adj = _adjacency_matrix(g)
    return replace(_radius(adj, tol), q1=_signless_radius(adj))


# ---------------------------------------------------------------------------
# Exact characteristic-polynomial oracle
# ---------------------------------------------------------------------------

def _char_poly(a: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - A), highest power first, by the
    Faddeev-LeVerrier recurrence in exact integer arithmetic."""
    n = len(a)
    coeffs = [1]
    aux = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # M_0 = I
    for k in range(1, n + 1):
        prod = [
            [sum(a[i][x] * aux[x][j] for x in range(n)) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(prod[i][i] for i in range(n))
        if trace % k:
            raise AssertionError("Faddeev-LeVerrier trace not divisible")
        c = -trace // k
        coeffs.append(c)
        aux = [[prod[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def _poly_derivative(p: list[int]) -> list[int]:
    d = len(p) - 1
    return [c * (d - i) for i, c in enumerate(p[:-1])]


def _poly_scale_primitive(p: list[Fraction]) -> list[int]:
    """Positive rescaling of a rational polynomial to primitive integers."""
    p = [c for c in p]
    while p and p[0] == 0:
        p.pop(0)
    if not p:
        return []
    lcm = 1
    for c in p:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in p]
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c))
    return [c // g for c in ints]


def _poly_mod(num: list[int], den: list[int]) -> list[Fraction]:
    """Remainder of num / den over the rationals (coefficients highest first)."""
    rem = [Fraction(c) for c in num]
    dlead = Fraction(den[0])
    while len(rem) >= len(den):
        factor = rem[0] / dlead
        for i, dc in enumerate(den):
            rem[i] -= factor * dc
        rem.pop(0)  # leading term cancelled exactly
    while rem and rem[0] == 0:
        rem.pop(0)
    return rem


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """Sturm chain of the square-free part of p, with integer members."""
    dp = _poly_derivative(p)
    # square-free part: p / gcd(p, p')
    a, b = p, dp
    while b:
        r = _poly_scale_primitive(_poly_mod(a, b))
        a, b = b, r
    gcd_poly = a
    if len(gcd_poly) > 1:
        square_free = _poly_divide_exact(p, gcd_poly)
    else:
        square_free = list(p)
    chain = [_poly_scale_primitive([Fraction(c) for c in square_free])]
    deriv = _poly_derivative(chain[0])
    if deriv:
        chain.append(_poly_scale_primitive([Fraction(c) for c in deriv]))
    while len(chain[-1]) > 1:
        rem = _poly_scale_primitive(_poly_mod(chain[-2], chain[-1]))
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient num / den (no remainder) over the rationals."""
    rem = [Fraction(c) for c in num]
    quot: list[Fraction] = []
    dlead = Fraction(den[0])
    while len(rem) >= len(den):
        factor = rem[0] / dlead
        quot.append(factor)
        for i, dc in enumerate(den):
            rem[i] -= factor * dc
        rem.pop(0)
    if any(c != 0 for c in rem):
        raise AssertionError("polynomial division was not exact")
    return _poly_scale_primitive(quot)


def _sign_at(p: list[int], num: int, den_powers: list[int]) -> int:
    """Sign of p at the rational point num/den, via integer Horner."""
    d = len(p) - 1
    acc = p[0]
    for i in range(1, d + 1):
        acc = acc * num + p[i] * den_powers[i]
    return (acc > 0) - (acc < 0)


def _sign_changes(signs: Sequence[int]) -> int:
    filtered = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(filtered, filtered[1:]) if a != b)


def _count_roots_above(chain: list[list[int]], x: Fraction, v_inf: int) -> int:
    """Number of distinct real roots strictly greater than x."""
    num, den = x.numerator, x.denominator
    max_deg = max(len(p) - 1 for p in chain)
    den_powers = [1] * (max_deg + 1)
    for i in range(1, max_deg + 1):
        den_powers[i] = den_powers[i - 1] * den
    signs = [_sign_at(p, num, den_powers) for p in chain]
    if signs[0] == 0:
        # x is a root of the square-free polynomial; take the right limit,
        # whose sign is that of the derivative (the second chain member).
        signs[0] = signs[1]
    return _sign_changes(signs) - v_inf


def _largest_real_root(p: list[int], lo: float, hi: float) -> float:
    """Largest real root of p in (lo, hi], isolated by Sturm bisection."""
    chain = _sturm_chain(p)
    v_inf = _sign_changes([(q[0] > 0) - (q[0] < 0) for q in chain])
    if _count_roots_above(chain, Fraction(lo), v_inf) < 1:
        raise AssertionError("no root above the lower bisection endpoint")
    for _ in range(200):
        if hi - lo <= 1e-13 * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if _count_roots_above(chain, Fraction(mid), v_inf) >= 1:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def spectral_oracle(g: Graph) -> float:
    """Adjacency spectral radius by exact characteristic-polynomial bisection.

    Independent of the eigensolve; used to cross-validate it.
    Runs per connected component and returns the maximum.
    """
    if g.n > ORACLE_MAX_N:
        raise ValueError(f"oracle capped at n <= {ORACLE_MAX_N}, got {g.n}")
    masks = g.neighbor_masks
    best = 0.0
    for comp in connected_components(g):
        index = {v: i for i, v in enumerate(comp)}
        k = len(comp)
        sub = [[0] * k for _ in range(k)]
        for v in comp:
            for u in comp:
                if (masks[v] >> u) & 1:
                    sub[index[v]][index[u]] = 1
        dmax = max(g.degrees[v] for v in comp)
        root = _largest_real_root(_char_poly(sub), -1.0, dmax + 1.0)
        best = max(best, root)
    return best

"""Spectral radius: the dense eigensolve, signless Laplacian, and the exact
inertia-count oracle."""

import itertools
import math
import random
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from specirr import (
    SpectralConvergenceError,
    SpectralResult,
    adjacency_spectral_radius,
    complete,
    cycle,
    degree_stats,
    enumerate_graphs,
    epsilon,
    from_edges,
    parse_graph6,
    path,
    prism,
    signless_laplacian_radius,
    spectral_oracle,
    spectral_summary,
    star,
    subdivided_prism,
)
from specirr.bounds import build_contexts
from specirr.graphs import GRAPH6_MAX_N, _bits_stack, _class_bits
from specirr import spectral
from specirr.harness import build_context, verify_graphs
from specirr.spectral import (
    CHUNK,
    DEFAULT_TOL,
    ORACLE_MAX_N,
    _adjacency_stack,
    _count_above,
    _float_signs,
    _horner_terms,
    _leading_polynomials,
    _oracle_column,
    run_length,
    split_rows,
    spectral_runs,
)

# Frozen golden constants for the high subregular witness (subdivided
# 3-prism), computed with the characteristic-polynomial oracle.
WITNESS_RHO = 2.90417049869408
WITNESS_EPSILON = WITNESS_RHO - 20 / 7
GOLDEN_TOL = 1e-10


def _random_graph(rng, n, p=0.4):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def _adjacency_matrix(g):
    return _adjacency_stack([g])[0].astype(float)


def _minors(g):
    """g's aligned Horner terms as Python ints, the input of _count_above."""
    terms = _horner_terms(_leading_polynomials(_adjacency_stack([g])))
    return terms[:, 0, 0].astype(np.int64).tolist()


# ---------------------------------------------------------------------------
# Adjacency radius
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_cycles_have_radius_two(n):
    assert abs(adjacency_spectral_radius(cycle(n)).rho - 2.0) <= 1e-9


def test_path3_radius():
    assert abs(adjacency_spectral_radius(path(3)).rho - math.sqrt(2)) <= 1e-9


def test_star_radius():
    assert abs(adjacency_spectral_radius(star(4)).rho - math.sqrt(3)) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_complete_radius(n):
    assert abs(adjacency_spectral_radius(complete(n)).rho - (n - 1)) <= 1e-9


def test_single_vertex_radius_zero():
    res = adjacency_spectral_radius(from_edges(1, []))
    assert res.rho == 0.0


def test_disconnected_takes_component_max():
    g = from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 2)])  # K2 + K3 + 2 isolated
    assert abs(adjacency_spectral_radius(g).rho - 2.0) <= 1e-9


def test_bipartite_shift_handles_oscillation():
    # K_{3,3} has spectrum symmetric about 0; the radius is the top
    # eigenvalue +3, not the equally large -3.
    edges = [(i, j + 3) for i in range(3) for j in range(3)]
    g = from_edges(6, edges)
    assert abs(adjacency_spectral_radius(g).rho - 3.0) <= 1e-9


def test_result_metadata():
    res = adjacency_spectral_radius(path(4))
    assert isinstance(res, SpectralResult)
    assert res.iterations >= 1
    assert res.residual <= 1e-12 * max(1.0, res.rho + 1.0)
    assert res.q1 is None


def test_tolerance_validation():
    with pytest.raises(ValueError, match="positive"):
        adjacency_spectral_radius(path(3), tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_non_finite_tolerance_rejected(tol):
    # NaN or inf would make every residual and margin test pass.
    with pytest.raises(ValueError, match="finite and positive"):
        adjacency_spectral_radius(path(3), tol=tol)
    with pytest.raises(ValueError, match="finite and positive"):
        signless_laplacian_radius(path(3), tol=tol)
    with pytest.raises(ValueError, match="finite and positive"):
        verify_graphs([path(3)], tol=tol)
    with pytest.raises(ValueError, match="finite and positive"):
        build_context(path(3), tol=tol)
    with pytest.raises(ValueError, match="finite and positive"):
        build_contexts([], tol=tol)  # checked on the call, before any run


def test_residual_above_tolerance_raises():
    # P4's irrational top eigenpair cannot reach a 1e-300 residual.
    with pytest.raises(SpectralConvergenceError, match="residual"):
        adjacency_spectral_radius(path(4), tol=1e-300)


def _bits(report):
    # Every field, each float as its exact bits (so -0.0 differs from 0.0).
    return [
        (f.name, value.hex() if isinstance(value, float) else value)
        for f in fields(report)
        for value in [getattr(report, f.name)]
    ]


def test_one_evaluation_matches_the_separate_calls():
    # spectral_summary and build_context each evaluate a graph once, on two
    # paths (spectral_runs, and bound_columns through build_contexts); their
    # values must be bit-for-bit those of the single-purpose functions.  A
    # graph's report must not depend on the run it was solved in: in
    # enumeration order most runs hold run_length(n) graphs, shuffled they
    # split at almost every change of n.
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    graphs.append(from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 2)]))  # K2 + K3 + 2 isolated
    for g in graphs:
        summary = spectral_summary(g)
        assert summary.rho == adjacency_spectral_radius(g).rho
        assert summary.q1 == signless_laplacian_radius(g)
        report = build_context(g)
        assert report.rho == adjacency_spectral_radius(g).rho
        assert report.q1 == signless_laplacian_radius(g)
        assert report.epsilon == epsilon(g)
    shuffled = graphs[:]
    random.Random(15).shuffle(shuffled)
    for order in (graphs, shuffled):
        batched = [_bits(report) for report in build_contexts(order)]
        assert batched == [_bits(build_context(g)) for g in order]


def test_run_length_rule():
    # At least 64 graphs, and no more matrix entries than 256 graphs on 7
    # vertices or 64 graphs on n, for every n graph6 can encode.
    for n in range(1, GRAPH6_MAX_N + 1):
        assert 64 <= run_length(n)
        assert run_length(n) * n * n <= max(12_544, 64 * n * n)
    assert [run_length(n) for n in (7, 8, 9, 13, 14, 62)] == [256, 196, 154, 74, 64, 64]


def test_runs_split_at_each_change_of_n_and_at_chunk(monkeypatch):
    rng = random.Random(14)
    graphs = (list(enumerate_graphs(7))[:300] + list(enumerate_graphs(6))[:70]
              + [_random_graph(rng, 14) for _ in range(70)])
    shapes = {"eigh": [], "eigvalsh": [], "solve": []}  # the stack each call solves

    def counted(name):
        solve = getattr(np.linalg, name)

        def call(a, *args):
            shapes[name].append(a.shape)
            return solve(a, *args)
        return call

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, counted(name))
    assert len(list(spectral_runs(graphs))) == 440

    def cut(count, n):  # the runs the rule gives count graphs on n vertices
        length = run_length(n)
        return [(min(length, count - start), n, n) for start in range(0, count, length)]

    runs = cut(300, 7) + cut(70, 6) + cut(70, 14)
    assert runs == [(256, 7, 7), (44, 7, 7), (70, 6, 6), (64, 14, 14), (6, 14, 14)]
    # q1 not asked for: one eigvalsh and one shifted solve per run, and no
    # eigh, which only re-solves a row whose residual fails the gate.
    assert shapes == {"eigh": [], "eigvalsh": runs, "solve": runs}
    for calls in shapes.values():
        calls.clear()
    assert len(list(build_contexts(graphs))) == 440
    # With q1, a second eigvalsh per run, on A + D.
    assert shapes == {"eigh": [], "eigvalsh": [r for r in runs for _ in "AD"], "solve": runs}


def test_runs_are_cut_lazily():
    # A run is solved when its first pair or report is asked for: an
    # endless stretch of graphs with the same n must still give its first.
    g, result = next(spectral_runs(itertools.repeat(cycle(5))))
    assert g == cycle(5) and result.rho == pytest.approx(2.0)
    report = next(build_contexts(itertools.repeat(cycle(5))))
    assert report.graph == cycle(5) and report.rho == pytest.approx(2.0)


@pytest.mark.parametrize("connected_only", [True, False])
def test_residual_gate_of_a_run_names_its_first_failing_graph(connected_only):
    # Connected, every graph fails a 1e-300 bound.  Among all classes the
    # edgeless graph comes first and passes (its residual is exactly 0), as
    # do some other disconnected ones.
    run = list(enumerate_graphs(7, connected_only=connected_only))[:CHUNK]
    failing = []
    for g in run:
        try:
            adjacency_spectral_radius(g, tol=1e-300)
        except SpectralConvergenceError as exc:
            failing.append(str(exc))
    assert (len(failing) == CHUNK) is connected_only
    with pytest.raises(SpectralConvergenceError) as raised:
        list(spectral_runs(run, tol=1e-300))
    assert str(raised.value) == failing[0]


def test_the_shifted_solve_passes_the_gate_without_eigh(monkeypatch):
    # Every class n <= 8, disconnected ones included, and random graphs up to
    # n = 62: the vector of the shifted solve passes the residual gate by
    # itself, so eigh, the gate's fallback, is never called.
    stacks = []
    for n in range(1, 9):
        bits = _class_bits(n)
        stacks += [_bits_stack(n, bits[index]) for index in split_rows(np.arange(len(bits)), n)]
    rng = np.random.default_rng(62)
    for n in range(10, 63, 4):
        upper = np.triu(rng.random((16, n, n)) < rng.random((16, 1, 1)), 1)
        stacks.append((upper | upper.transpose(0, 2, 1)).astype(np.uint8))

    def refused(a):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    for stack in stacks:
        rho, _, residual = spectral._solve_stack(stack, DEFAULT_TOL, with_q1=True)
        assert (residual <= DEFAULT_TOL * np.maximum(1.0, rho)).all()


@pytest.mark.parametrize("broken", ["unit vector", "zero vector", "singular"])
def test_a_failed_shifted_solve_falls_back_to_eigh(broken, monkeypatch):
    # A solve whose vector fails the gate (e_1, or 0, which gives a NaN
    # residual), or which finds a shifted matrix singular, sends its rows to
    # eigh: a non-regular row gets eigh's top eigenvalue, bit for bit, and a
    # regular row its degree; q1 does not depend on the solve.
    rng = random.Random(9)
    graphs = list(enumerate_graphs(6)) + [_random_graph(rng, 14) for _ in range(20)]
    solved = list(spectral_runs(graphs, with_q1=True))
    top = [np.linalg.eigh(_adjacency_stack([g]).astype(float))[0][0, -1] for g in graphs]

    def solve(a, b):
        if broken == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        x = np.zeros(a.shape[:2] + (1,))
        x[:, 0] = broken == "unit vector"
        return x

    monkeypatch.setattr(np.linalg, "solve", solve)
    moved = 0
    for (g, result), (_, before), rho in zip(spectral_runs(graphs, with_q1=True), solved, top):
        s = degree_stats(g)
        if s.max_degree == s.min_degree:
            assert result.rho == before.rho == s.max_degree
        else:
            assert result.rho.hex() == rho.hex(), g
            moved += before.rho != rho
        assert result.q1 == before.q1
        assert result.residual <= DEFAULT_TOL * max(1.0, result.rho)
    assert moved  # eigvalsh and eigh differ in the last bits on some rows


def test_relabel_invariance():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 8)
        g = _random_graph(rng, n)
        rho = adjacency_spectral_radius(g).rho
        perm = list(range(n))
        rng.shuffle(perm)
        assert abs(adjacency_spectral_radius(g.relabel(perm)).rho - rho) <= 1e-12


# ---------------------------------------------------------------------------
# Signless Laplacian
# ---------------------------------------------------------------------------

def test_q1_cycle():
    assert abs(signless_laplacian_radius(cycle(4)) - 4.0) <= 1e-9


def test_q1_star():
    assert abs(signless_laplacian_radius(star(4)) - 4.0) <= 1e-9


def test_q1_single_edge():
    assert abs(signless_laplacian_radius(complete(2)) - 2.0) <= 1e-9


def test_q1_edgeless():
    assert signless_laplacian_radius(from_edges(3, [])) == 0.0


def test_q1_within_twice_max_degree():
    rng = random.Random(17)
    for _ in range(60):
        g = _random_graph(rng, rng.randint(2, 8))
        if g.m == 0:
            continue
        q1 = signless_laplacian_radius(g)
        assert q1 <= 2 * max(g.degrees) + 1e-9
        # and at least the max degree + 1 on a connected component with an edge
        assert q1 >= max(g.degrees)


def test_summary_bundles_both():
    res = spectral_summary(cycle(5))
    assert abs(res.rho - 2.0) <= 1e-9
    assert abs(res.q1 - 4.0) <= 1e-9


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def test_oracle_complete():
    assert abs(spectral_oracle(complete(4)) - 3.0) <= 1e-9


def test_oracle_path3():
    assert abs(spectral_oracle(path(3)) - math.sqrt(2)) <= 1e-9


def test_oracle_witness_frozen_value():
    rho = spectral_oracle(subdivided_prism(3))
    assert 20 / 7 < rho < 3.0
    assert abs(rho - WITNESS_RHO) <= GOLDEN_TOL


def test_oracle_handles_multiple_root_components():
    # Two copies of K3: rho = 2 is a repeated eigenvalue; the inertia
    # count needs no special case for it.
    g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert abs(spectral_oracle(g) - 2.0) <= 1e-9


def test_oracle_cap():
    with pytest.raises(ValueError, match="capped"):
        spectral_oracle(star(13))


def test_oracle_agrees_with_eigensolve_randomly():
    rng = random.Random(41)
    for _ in range(150):
        g = _random_graph(rng, rng.randint(1, 9), rng.choice([0.15, 0.4, 0.8]))
        assert abs(spectral_oracle(g) - adjacency_spectral_radius(g).rho) <= 1e-9


def test_oracle_agrees_on_all_small_classes():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert abs(spectral_oracle(g) - adjacency_spectral_radius(g).rho) <= 1e-9


def test_count_above_matches_eigensolve():
    # Points on the 2^-41 grid just either side of every integer in range
    # (the integer eigenvalues of K_n, C_n, 2K3 and edgeless graphs among
    # them), at half-integers, and at seeded random grid points.
    rng = random.Random(53)
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    graphs += [complete(n) for n in range(7, 10)] + [cycle(n) for n in range(7, 10)]
    graphs.append(from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    one = 1 << 41
    for g in graphs:
        values = np.linalg.eigvalsh(_adjacency_matrix(g))
        minors = _minors(g)
        points = [i * one + d for i in range(-g.n, g.n + 1) for d in (-1, 1)]
        points += [i * one + one // 2 + 1 for i in range(-g.n, g.n)]
        points += [2 * rng.randrange(-g.n * one, g.n * one) + 1 for _ in range(4)]
        for num in points:
            expected = int(np.sum(values > num / one))
            assert _count_above(minors, num) == expected, (g, num)


def test_oracle_search_recovers_from_wrong_seeds():
    # A wrong estimate costs counts, never correctness: every seed must
    # land on the same bracket as the oracle's own.
    rng = random.Random(59)
    graphs = [_random_graph(rng, rng.randint(1, 9), rng.choice([0.15, 0.4, 0.8]))
              for _ in range(30)]
    graphs.append(from_edges(9, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)]))  # disconnected
    for g in graphs:
        rho = float(np.linalg.eigvalsh(_adjacency_matrix(g))[-1])
        oracle = spectral_oracle(g)
        estimates = np.array([rho + 1e-6, rho - 0.7, 0.0, 50.0, -3.0])
        stack = _adjacency_stack([g] * len(estimates))
        for found in _oracle_column(stack, estimates).tolist():
            assert found == oracle
            assert abs(found - rho) <= 1e-12


def test_oracle_non_finite_estimate_seeds_as_none():
    # The estimate only seeds the search: NaN and +-inf seed as no estimate,
    # and so does +-1e300, which the clamp to the spectrum's range turns
    # into a few probes.
    for g in (parse_graph6("D?{"), complete(4), path(3), subdivided_prism(3), star(12)):
        oracle = spectral_oracle(g)
        for estimate in (math.nan, math.inf, -math.inf, 1e300, -1e300):
            assert spectral_oracle(g, estimate) == oracle, (g, estimate)


def _oracle_cap_graphs():
    """The n = 10..ORACLE_MAX_N graphs of test_leading_polynomials_exact_up_to_oracle_cap."""
    rng = random.Random(61)
    n = ORACLE_MAX_N
    matching = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                              if not (i % 2 == 0 and j == i + 1)])
    return [complete(n), matching] + [_random_graph(rng, size, 0.85) for size in (10, 11, 12, 12)]


def test_float_filter_agrees_with_exact_counts_next_to_every_eigenvalue():
    # The two grid points either side of every eigenvalue are the hardest
    # for the filter, as p_n(x) is smallest there: wherever it decides,
    # "some leading minor is negative" must be "some eigenvalue lies above x".
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)] + _oracle_cap_graphs()
    decided_points = total_points = 0
    for g in graphs:
        stack = _adjacency_stack([g])
        terms, minors = _horner_terms(_leading_polynomials(stack)), _minors(g)
        values = np.linalg.eigvalsh(stack[0].astype(float))
        nearest = np.rint(values * 2.0**40).astype(np.int64)
        j = np.unique(np.concatenate([nearest + d for d in (-2, -1, 0, 1)]))
        negative, decided = _float_signs(terms, j[:, None])
        for point, neg, ok in zip(j.tolist(), negative[:, 0].tolist(), decided[:, 0].tolist()):
            total_points += 1
            if ok:
                decided_points += 1
                assert neg == (_count_above(minors, 2 * point + 1) > 0), (g, point)
    assert decided_points > total_points // 2, (decided_points, total_points)


def test_float_filter_never_certifies_a_wrong_sign():
    # p = (t - a)^m (t - b)^l next to its multiple root a is far smaller than
    # Horner's rounding errors, so its float sign there is noise: the filter
    # must leave it undecided, and certify only signs that are exact.  p is
    # the last of n polynomials; the others are the constant 1, always
    # certified positive.
    certified = 0
    for a, m, b, l in [(1, 4, -2, 3), (2, 5, 3, 4), (-3, 6, 3, 6), (0, 3, 1, 9), (2, 2, -1, 2)]:
        p = np.polynomial.polynomial.polyfromroots([a] * m + [b] * l).round().astype(np.int64)
        n = m + l
        coeffs = np.zeros((1, n + 1, n + 1), dtype=np.int64)
        for k in range(1, n):
            coeffs[0, k, k] = 1
        coeffs[0, n] = p[::-1]
        terms = _horner_terms(coeffs)
        for root in (a, b):
            j = np.arange(root * 2**40 - 4, root * 2**40 + 4)
            negative, decided = _float_signs(terms, j[:, None])
            for point, neg, ok in zip(j.tolist(), negative[:, 0].tolist(), decided[:, 0].tolist()):
                num = 2 * point + 1
                exact = sum(int(c) * num ** (n - i) * 2 ** (41 * i) for i, c in enumerate(p[::-1]))
                certified += ok
                assert not ok or neg == (exact < 0), (a, m, b, l, point)
    assert certified > 0


def test_oracle_falls_back_to_exact_counts_on_small_classes(monkeypatch):
    # Next to rho the filter cannot decide every sign, so the exact count
    # must run there; it is the rare case.
    calls = []

    def counted(minors, num):
        calls.append(num)
        return _count_above(minors, num)

    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    for n in range(1, 8):
        run = [g for g in graphs if g.n == n]
        stack = _adjacency_stack(run)
        rho = np.linalg.eigvalsh(stack.astype(float))[:, -1]
        expected = [spectral_oracle(g) for g in run]
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_count_above", counted)
            assert _oracle_column(stack, rho).tolist() == expected
    assert 0 < len(calls) < len(graphs) // 10, len(calls)


def test_oracle_column_makes_no_eigensolve(monkeypatch):
    # The oracle certifies the eigensolve, so it must not call one: with
    # numpy's eigensolvers patched to raise, every class n <= 7 still gets
    # its bracket, from eigh seeds computed beforehand and from wrong finite
    # seeds; a non-finite seed is refused.
    runs = [list(enumerate_graphs(n)) for n in range(1, 8)]
    stacks = [_adjacency_stack(run) for run in runs]
    seeds = [np.linalg.eigh(stack.astype(float))[0][:, -1] for stack in stacks]
    expected = [[spectral_oracle(g) for g in run] for run in runs]

    def refused(*args, **kwargs):
        raise AssertionError("the oracle called an eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    for stack, rho, want in zip(stacks, seeds, expected):
        for estimates in (rho, rho + 1e-6, rho - 0.7, np.zeros_like(rho), np.full_like(rho, -1e300)):
            assert _oracle_column(stack, estimates).tolist() == want
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            _oracle_column(stacks[2], np.full(len(runs[2]), bad))


def _fraction_det(rows):
    """Exact determinant by Gaussian elimination over Fractions."""
    rows = [[Fraction(a) for a in row] for row in rows]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return det


def test_leading_polynomials_exact_up_to_oracle_cap():
    # At n = 10..ORACLE_MAX_N the int64 recursion must still give every
    # p_k(t) = det(tI - A_k) exactly: checked against Fraction determinants
    # of each leading submatrix at integer and half-integer points, among
    # them eigenvalues of K12 (-1, 11) and of K12 minus a perfect matching
    # (-2, 0, 10).
    graphs = _oracle_cap_graphs()
    points = [Fraction(i, 2) for i in range(-5, 6)] + [Fraction(10), Fraction(21, 2), Fraction(11)]
    for g in graphs:
        stack = _adjacency_stack([g])
        adj, coeffs = stack[0].tolist(), _leading_polynomials(stack)[0].tolist()
        for k in range(1, g.n + 1):
            for t in points:
                value = sum(e * t ** (k - i) for i, e in enumerate(coeffs[k][:k + 1]))
                matrix = [[(t if i == j else 0) - adj[i][j] for j in range(k)] for i in range(k)]
                assert value == _fraction_det(matrix), (g, k, t)


def test_count_above_raises_on_a_vanishing_minor():
    # x = 2 is an eigenvalue of K3 and a point off the odd grid: the third
    # leading minor is 0, which the count must refuse rather than skip.
    with pytest.raises(AssertionError, match="vanished"):
        _count_above(_minors(complete(3)), 2 << 41)


# ---------------------------------------------------------------------------
# Structural sandwich on a connected corpus slice
# ---------------------------------------------------------------------------

def test_average_degree_rho_max_degree_sandwich():
    for g in enumerate_graphs(6, connected_only=True):
        s = degree_stats(g)
        rho = adjacency_spectral_radius(g).rho
        assert s.avg_degree_float - 1e-9 <= rho <= s.max_degree + 1e-9
        if s.max_degree == s.min_degree:
            assert abs(rho - s.avg_degree_float) <= 1e-9
        else:
            assert rho - s.avg_degree_float > 1e-9


def test_regular_prism_radius_three():
    assert abs(adjacency_spectral_radius(prism(4)).rho - 3.0) <= 1e-9


def test_radius_at_least_one_with_an_edge():
    for g in enumerate_graphs(5):
        rho = adjacency_spectral_radius(g).rho
        assert rho >= 0.0
        if g.m >= 1:
            assert rho >= 1.0 - 1e-9

"""Workload inputs and output checks for the specirr benchmark.

Everything here is independent of the specirr package: graph6 is encoded
and decoded by the benchmark's own code and every reported spectral radius
is checked against numpy.linalg.eigvalsh, so a defect in the program cannot
also hide in its check.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
HONG_N = 7
HONG_REFERENCE = HERE / f"hong_n{HONG_N}.csv"

# OEIS A000088 (all classes) for n = 1..7 and A001349 (connected) for n = 7.
VERIFY_N7_CLASSES = 1 + 2 + 4 + 11 + 34 + 156 + 1044
HONG_N7_CONNECTED = 853

VIOLATIONS_HEADER = "check,graph6,canonical,lhs,rhs,margin,tolerance"
SEARCH_HEADER = "objective,n,m,graph6,epsilon,degree_gap,ties"
COMPUTE_HEADER = ("graph6,n,m,max_degree,min_degree,avg_degree,variance,rho,q1,"
                  "epsilon,nikiforov,main,cg_degree,cgs,sub_high,sub_low,"
                  "hofmeister_lb,ylt_lb,hsf_ub,var_lb,var_ub")
EPS_TOL = 1e-9


class CheckFailed(Exception):
    """An invocation's output disagrees with the reference."""


# ---------------------------------------------------------------------------
# graph6, written independently of specirr.graphs
# ---------------------------------------------------------------------------

def encode_graph6(n: int, edges: set[tuple[int, int]]) -> str:
    bits = [1 if (i, j) in edges else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        chars.append(chr(63 + int("".join(map(str, bits[k:k + 6])), 2)))
    return "".join(chars)


def adjacency_from_graph6(text: str) -> np.ndarray:
    if not text or any(not 63 <= ord(c) <= 126 for c in text) or text[0] == "~":
        raise CheckFailed(f"not a single-byte-header graph6 string: {text!r}")
    n = ord(text[0]) - 63
    if n == 0:
        raise CheckFailed(f"graph6 string {text!r} has no vertices")
    bits = "".join(format(ord(c) - 63, "06b") for c in text[1:])
    if len(text) - 1 != (n * (n - 1) // 2 + 5) // 6:
        raise CheckFailed(f"bad graph6 length in {text!r}")
    a = np.zeros((n, n))
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k] == "1":
                a[i, j] = a[j, i] = 1.0
            k += 1
    return a


def reference_rho(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a)[-1])


# ---------------------------------------------------------------------------
# compute-stream: a seeded graph6 stream
# ---------------------------------------------------------------------------
#
# Every stream holds the same number of graphs of each family and size, so
# the work per stream barely depends on the seed; the seed draws the random
# edges and the order.  Per vertex count n in 5..40:
#   - SPARSE_PER_N sparse G(n, p) with mean degree 4, a quarter to a third of them
#     disconnected (mostly by isolated vertices).  Sparser graphs would add
#     long tree components whose slow, seed-dependent convergence makes the
#     work per stream vary by 5 % or more between seeds;
#   - DENSE_PER_N dense G(n, p) with p = 0.5 or 0.8;
#   - one path P_n, the slowest case for power iteration (the gap between
#     its two top eigenvalues shrinks like 1/n^2), so spectral power
#     iteration counts reach their maximum here;
#   - one cycle C_n, regular, so eps = 0 exactly.
# Plus the prisms C_k x K_2 for k = 3..20 (3-regular, n = 6..40).

STREAM_SIZES = range(5, 41)
SPARSE_PER_N = 4
DENSE_PER_N = 4


def _gnp(rng: random.Random, n: int, p: float) -> set[tuple[int, int]]:
    return {(i, j) for j in range(1, n) for i in range(j) if rng.random() < p}


def _cycle(n: int) -> set[tuple[int, int]]:
    return {tuple(sorted((i, (i + 1) % n))) for i in range(n)}


def _prism(k: int) -> set[tuple[int, int]]:
    edges = _cycle(k) | {(k + i, k + j) for i, j in _cycle(k)}
    return edges | {(i, k + i) for i in range(k)}


def make_stream(seed: int) -> list[str]:
    rng = random.Random(seed)
    graphs: list[tuple[int, set[tuple[int, int]]]] = []
    for n in STREAM_SIZES:
        for i in range(SPARSE_PER_N):
            graphs.append((n, _gnp(rng, n, 4.0 / n)))
        for i in range(DENSE_PER_N):
            graphs.append((n, _gnp(rng, n, 0.5 if i % 2 else 0.8)))
        graphs.append((n, {(i, i + 1) for i in range(n - 1)}))
        graphs.append((n, _cycle(n)))
    for k in range(3, 21):
        graphs.append((2 * k, _prism(k)))
    rng.shuffle(graphs)
    return [encode_graph6(n, edges) for n, edges in graphs]


# ---------------------------------------------------------------------------
# Output checks (run by the parent after the child exits, outside the timing)
# ---------------------------------------------------------------------------

def _read_lines(path: Path) -> list[str]:
    try:
        return path.read_text(encoding="ascii").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from exc


def _read_csv(path: Path, header: str) -> list[dict]:
    lines = _read_lines(path)
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path.name}: unexpected header {lines[:1]!r}")
    return list(csv.DictReader(lines))


def _number(row: dict, key: str, kind: Callable = float):
    try:
        return kind(row[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"column {key!r} unreadable in {row!r}") from exc


def _check_winner(g6: str, n: int, m: int, eps: float, gap: int) -> None:
    """A search row's own graph6 must have its n, m and degree gap, and its epsilon."""
    a = adjacency_from_graph6(g6)
    degrees = a.sum(axis=1).astype(int)
    shape = (a.shape[0], int(degrees.sum()) // 2, int(degrees.max() - degrees.min()))
    if shape != (n, m, gap):
        raise CheckFailed(f"{g6}: (n, m, degree gap) = {shape}, row says {(n, m, gap)}")
    want = reference_rho(a) - 2 * m / n
    if abs(eps - want) > EPS_TOL:
        raise CheckFailed(f"{g6}: epsilon {eps!r} but eigvalsh gives {want!r}")


def check_verify(rc: int, stderr: str, violations: Path) -> None:
    if rc != 0:
        raise CheckFailed(f"verify exited {rc}")
    want = f"checked {VERIFY_N7_CLASSES} graphs, 0 violations"
    if want not in stderr:
        raise CheckFailed(f"verify did not report {want!r}: {stderr.strip()!r}")
    lines = _read_lines(violations)
    if lines != [VIOLATIONS_HEADER]:
        raise CheckFailed(f"violations file is not header-only: {lines[:3]!r}")


def load_hong_reference() -> dict[int, tuple[float, int]]:
    """(epsilon, degree gap) of the winner per m; the graph6 column is not compared."""
    with HONG_REFERENCE.open(encoding="ascii") as fh:
        return {int(r["m"]): (float(r["epsilon"]), int(r["degree_gap"]))
                for r in csv.DictReader(fh)}


def check_hong(rc: int, out: Path) -> None:
    if rc != 0:
        raise CheckFailed(f"search exited {rc}")
    reference = load_hong_reference()
    rows = _read_csv(out, SEARCH_HEADER)
    seen = set()
    for row in rows:
        m = _number(row, "m", int)
        eps = _number(row, "epsilon")
        gap = _number(row, "degree_gap", int)
        if row["objective"] != "min" or _number(row, "n", int) != HONG_N or m in seen:
            raise CheckFailed(f"unexpected search row {row!r}")
        seen.add(m)
        if m not in reference:
            raise CheckFailed(f"no reference row for m={m}")
        ref_eps, ref_gap = reference[m]
        if abs(eps - ref_eps) > EPS_TOL or gap != ref_gap:
            raise CheckFailed(f"m={m}: ({eps!r}, {gap}) but reference ({ref_eps!r}, {ref_gap})")
        _check_winner(row["graph6"], HONG_N, m, eps, gap)
    if seen != set(reference):
        raise CheckFailed(f"rows for m={sorted(seen)} but reference has {sorted(reference)}")


def expected_compute_row(g6: str) -> dict:
    """The exact columns of a compute row, and rho and epsilon from eigvalsh."""
    a = adjacency_from_graph6(g6)
    degrees = a.sum(axis=1).astype(int)
    n, m = a.shape[0], int(degrees.sum()) // 2
    rho = reference_rho(a)
    return {"n": n, "m": m, "max_degree": int(degrees.max()),
            "min_degree": int(degrees.min()), "rho": rho, "epsilon": rho - 2 * m / n}


def check_compute(rc: int, out: Path, stream: list[str], expected: list[dict]) -> None:
    if rc != 0:
        raise CheckFailed(f"compute exited {rc}")
    rows = _read_csv(out, COMPUTE_HEADER)
    if len(rows) != len(stream):
        raise CheckFailed(f"{len(rows)} rows for {len(stream)} input graphs")
    for g6, want, row in zip(stream, expected, rows):
        if row["graph6"] != g6:
            raise CheckFailed(f"row for {row['graph6']!r} where {g6!r} was input")
        for key, value in want.items():
            if isinstance(value, int):
                ok = _number(row, key, int) == value
            else:
                ok = abs(_number(row, key) - value) <= EPS_TOL
            if not ok:
                raise CheckFailed(f"{g6}: {key}={row[key]} but the input gives {value!r}")


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prepared:
    """One workload made ready in a work directory."""

    argv: list[str]
    graphs: int  # graphs the command processes, the base of graphs_per_s
    output: Path  # removed before each invocation, so stale output never passes
    check: Callable[[int, str], None]  # (exit code, stderr) -> raises CheckFailed


def prepare(workload: str, seed: int, work: Path) -> Prepared:
    if workload == "verify-n7-all":
        violations = work / "violations.csv"
        return Prepared(
            ["verify", "--n-max", "7", "--all-graphs", "--only",
             "core,bounds,subregular,oracle", "--jobs", "1",
             "--violations-file", str(violations)],
            VERIFY_N7_CLASSES,
            violations,
            lambda rc, err: check_verify(rc, err, violations),
        )
    if workload == "hong-n7":
        out = work / "hong.csv"
        return Prepared(
            ["search", "--hong", "--n", str(HONG_N), "--precision", "full", "--out", str(out)],
            HONG_N7_CONNECTED,
            out,
            lambda rc, err: check_hong(rc, out),
        )
    if workload == "compute-stream":
        stream = make_stream(seed)
        src = work / "stream.g6"
        src.write_text("".join(s + "\n" for s in stream), encoding="ascii")
        out = work / "rows.csv"
        expected = [expected_compute_row(g6) for g6 in stream]
        return Prepared(
            ["compute", str(src), "--precision", "full", "--out", str(out)],
            len(stream),
            out,
            lambda rc, err: check_compute(rc, out, stream, expected),
        )
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-n7-all", "hong-n7", "compute-stream")

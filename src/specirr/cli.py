"""Command-line interface: compute, verify, search, gen.

Output is byte-deterministic for fixed inputs and flags: no timestamps,
stable column order, and identical values in the CSV and JSON emissions of
the same run.  Exit codes: 0 success (and no violations), 1 violations
found, 2 usage or input error, 3 a spectral residual above its bound
(compute's --tol; DEFAULT_TOL for verify and search).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from functools import partial
from typing import Iterator, Sequence

from .graphs import (
    GRAPH6_MAX_N,
    _GRAPH6_HEADER,
    Graph,
    _bits_stack,
    _graph6_bits,
    _graph6_size,
    complete,
    cycle,
    path,
    prism,
    star,
    subdivided_prism,
    to_graph6,
)
from .spectral import (
    DEFAULT_TOL,
    SpectralConvergenceError,
    _adjacency_stack,
    check_tolerance,
    split_rows,
)
from .bounds import BoundColumns, bound_columns
from .harness import (
    CHECK_GROUPS,
    DEFAULT_CHECK_TOL,
    Claim,
    SearchRecord,
    bell_max_search,
    check_search_sizes,
    corpus_runs,
    hong_search,
    select_checks,
    verify_run,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_NON_CONVERGENCE = 3

REPORT_COLUMNS = (
    "graph6", "n", "m", "max_degree", "min_degree", "avg_degree", "variance",
    "rho", "q1", "epsilon", "nikiforov", "main", "cg_degree", "cgs",
    "sub_high", "sub_low", "hofmeister_lb", "ylt_lb", "hsf_ub",
    "var_lb", "var_ub",
)
SEARCH_COLUMNS = ("objective", "n", "m", "graph6", "epsilon", "degree_gap", "ties")
VIOLATION_COLUMNS = ("check", "graph6", "canonical", "lhs", "rhs", "margin", "tolerance")

GENERATORS = {
    "complete": complete,
    "cycle": cycle,
    "path": path,
    "star": star,
    "prism": prism,
    "subdivided-prism": subdivided_prism,
}


# ---------------------------------------------------------------------------
# Row assembly and emission
# ---------------------------------------------------------------------------

def _report_rows(columns: BoundColumns, graph6s: Sequence[str]) -> list[dict]:
    """One row per graph of a run, from its columns and its canonical graph6
    texts: integers, decimals, every bound, and None for a gated bound."""
    values = [graph6s, [columns.n] * len(columns)] + [
        # Every column past n is a BoundColumns field; NaN marks a gated bound.
        [None if v != v else v for v in getattr(columns, col).tolist()]
        for col in REPORT_COLUMNS[2:]
    ]
    return [dict(zip(REPORT_COLUMNS, row)) for row in zip(*values)]


def report_row(g: Graph, graph6: str, tol: float = DEFAULT_TOL) -> dict:
    """One row for g, parsed from canonical graph6 text: _report_rows of a run of one."""
    return _report_rows(bound_columns(_adjacency_stack([g]), tol), [graph6])[0]


def _round_value(value):
    # Six significant digits (round-half-even via float formatting);
    # exact integers and strings are never rounded.
    if not isinstance(value, float):
        return value
    return float(f"{value:.6g}")


def _rounded_rows(rows: list[dict], columns: Sequence[str], precision: str) -> list[dict]:
    # Every row holds exactly the columns, in order, so at full precision,
    # where nothing is rounded, the rows are written as they are.
    if precision == "full":
        return rows
    return [{col: _round_value(row[col]) for col in columns} for row in rows]


def _emit(rows: list[dict], columns: Sequence[str], fmt: str, precision: str, out) -> None:
    rows = _rounded_rows(rows, columns, precision)
    if fmt == "json":
        out.write(json.dumps(rows, indent=2))
        out.write("\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["NA" if row[col] is None else row[col] for col in columns])


def _write_output(rows: list[dict], columns: Sequence[str], fmt: str,
                  precision: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        try:
            _emit(rows, columns, fmt, precision, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader stopped early; that is no error of this run.  Point
            # fd 1 at devnull so the interpreter's final flush is silent.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        with open(out_path, "w", encoding="ascii") as fh:
            _emit(rows, columns, fmt, precision, fh)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _graph6_lines(source: str | None) -> Iterator[str]:
    """The lines of stdin ('-') or a file, both read alike and lazily: the
    bytes decoded as ASCII and cut where str.splitlines cuts them.

    A byte that is not ASCII ends the input: the lines before its own are
    yielded, then a ValueError names the byte and its offset in the input.
    """
    if source is None:
        raise ValueError("no input: pass a graph6 file, '-', or --inline")
    if source == "-":
        yield from _ascii_lines(sys.stdin.buffer)
    else:
        with open(source, "rb") as fh:
            yield from _ascii_lines(fh)


def _ascii_lines(fh) -> Iterator[str]:
    # Binary lines end at b"\n", which ends a line for str.splitlines too
    # (a "\r\n" pair never straddles two of them), so cutting each binary
    # line cuts the input where splitlines cuts the whole of it.
    offset = 0
    for chunk in fh:
        try:
            text = chunk.decode("ascii")
        except UnicodeDecodeError as exc:
            # Up to the bad byte, shown as U+FFFD, which no line break follows:
            # the last piece is the bad byte's own line, cut short, and is dropped.
            yield from chunk[:exc.end].decode("ascii", "replace").splitlines()[:-1]
            raise ValueError(f"'ascii' codec can't decode byte 0x{chunk[exc.start]:02x} in "
                             f"position {offset + exc.start}: {exc.reason}") from None
        yield from text.splitlines()
        offset += len(chunk)


def cmd_compute(args) -> int:
    # Two passes.  The first reads and validates the lines in input order;
    # a --strict error stops it, and the reading, at that line.
    # The second evaluates the good lines grouped by n, one spectral run
    # (split_rows: up to spectral.run_length(n) lines) at a time, and puts
    # each row back at its input position.
    # Every error is one (line number, message, exit code or None) entry: a
    # skipped line has no code, a --strict line 2, no input or a byte that
    # is not ASCII 2 at line infinity (it ends the input), and a residual
    # failure 3 on its graph's line.  The entries are printed in line order up
    # to the first that carries a code, as if every line had been evaluated
    # as it was read.
    graph6s, linenos, groups = [], [], {}  # groups: n -> input positions with that n
    errors = []
    try:
        for lineno, text in enumerate(args.inline or _graph6_lines(args.input), 1):
            graph6 = text.strip().removeprefix(_GRAPH6_HEADER)
            if not graph6:
                continue
            try:
                n = _graph6_size(graph6)
            except ValueError as exc:
                errors.append((lineno, f"line {lineno}: {exc}", EXIT_USAGE if args.strict else None))
                if args.strict:
                    break
                continue
            groups.setdefault(n, []).append(len(graph6s))
            graph6s.append(graph6)
            linenos.append(lineno)
    except ValueError as exc:
        errors.append((math.inf, f"error: {exc}", EXIT_USAGE))
    rows = [None] * len(graph6s)
    for n, positions in groups.items():
        for run in split_rows(positions, n):
            texts = [graph6s[k] for k in run]
            try:
                columns = bound_columns(_bits_stack(n, _graph6_bits(n, texts)), args.tol)
            except SpectralConvergenceError as exc:
                errors.append((linenos[run[exc.row]], f"error: {exc}", EXIT_NON_CONVERGENCE))
                continue
            for k, row in zip(run, _report_rows(columns, texts)):
                rows[k] = row
    for _, message, code in sorted(errors, key=lambda error: error[0]):
        print(message, file=sys.stderr)
        if code is not None:
            return code
    # Rows are written only after the whole input is read: any error leaves stdout empty.
    _write_output(rows, REPORT_COLUMNS, args.format, args.precision, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _corrupted_check(ctx, tol):
    # Deliberately false inequality for the --self-test fixture: a clean
    # pipeline flags it on every graph of the corpus (all of them through
    # n = 7, regular ones through the -tol slack).
    return [Claim("self-test-corrupted", ctx.main * 10.0, ctx.epsilon, -tol)]


def cmd_verify(args) -> int:
    try:
        runs = corpus_runs(args.n_max)
        checks = select_checks(None if args.only is None else args.only.split(","))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.self_test:
        checks["self-test-corrupted"] = _corrupted_check
    check = partial(verify_run, tol=args.tol, checks=checks,
                    connected_only=not args.all_graphs)
    # More workers than CPUs would only contend; output is the same either way.
    jobs = min(args.jobs, os.cpu_count() or 1)
    if jobs > 1:
        from multiprocessing import Pool  # only here: other commands never load it

        # Workers are fed from the same stream, 16 runs (corpus_runs) of
        # same-n classes per message, each evaluated as one batch.  A
        # message costs this process about 0.85 ms, a fifth of a worker's
        # time on a run of 154 classes at n = 9: one message per run gave
        # up over half of what a second worker gains, while 4, 32 or 64
        # runs per message timed as 16 within the host's noise.
        with Pool(jobs) as pool:
            results = list(pool.imap(check, runs, chunksize=16))
    else:
        results = map(check, runs)
    checked, violations = 0, []
    for count, part in results:
        checked += count
        violations += part
    violations.sort(key=lambda v: (v.graph6, v.check_name))
    rows = [{"check": v.check_name, **{col: getattr(v, col) for col in VIOLATION_COLUMNS[1:]}}
            for v in violations]
    _write_output(rows, VIOLATION_COLUMNS, args.format, args.precision, args.violations_file)
    print(f"checked {checked} graphs, {len(violations)} violations", file=sys.stderr)
    return EXIT_VIOLATIONS if violations else EXIT_OK


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _parse_range(text: str) -> range:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _search_row(record: SearchRecord) -> dict:
    return {
        **vars(record),
        "ties": ";".join(f"{g6}:{gap}" for g6, gap in record.ties),
    }


def cmd_search(args) -> int:
    try:
        # The whole range is checked before any cell is searched.
        n_values = check_search_sizes(_parse_range(args.n))
        if args.hong:
            if args.m is not None:
                print("error: --m applies only to --bell-max", file=sys.stderr)
                return EXIT_USAGE
            records = hong_search(n_values)
        else:
            if args.m is None:
                print("error: --bell-max requires --m", file=sys.stderr)
                return EXIT_USAGE
            records = [bell_max_search(n, args.m) for n in n_values]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = [_search_row(r) for r in records]
    _write_output(rows, SEARCH_COLUMNS, args.format, args.precision, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    try:
        if args.size > GRAPH6_MAX_N:  # every family has >= size vertices: do not build it
            raise ValueError(f"graph6 supports n <= {GRAPH6_MAX_N}, got size {args.size}")
        line = to_graph6(GENERATORS[args.family](args.size))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _tolerance(text: str) -> float:
    try:
        return check_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _job_count(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specirr",
        description="Spectral irregularity of small graphs: per-graph bound "
                    "reports, corpus-wide verification, and extremal search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--precision", choices=("sig6", "full"), default="sig6",
                       help="decimal columns: 6 significant digits (default) or full")

    p = sub.add_parser("compute", help="bound report rows for graph6 input")
    p.add_argument("input", nargs="?", help="graph6 file, or '-' for stdin")
    p.add_argument("--inline", action="append", default=[], metavar="G6",
                   help="inline graph6 string (repeatable, replaces file input)")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--strict", action="store_true",
                   help="abort on the first unparsable line instead of skipping")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                   help="eigenvector residual bound (finite, > 0)")
    add_output_flags(p)
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("verify", help="run the bound checks over the enumerated corpus")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--all-graphs", action="store_true",
                   help="include disconnected graphs (default: connected only)")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_CHECK_TOL,
                   help="slack of floating-point claims (finite, > 0)")
    p.add_argument("--only", help="comma-separated check or group names "
                                  f"(groups: {', '.join(CHECK_GROUPS)})")
    p.add_argument("--violations-file", default="violations.csv",
                   help="always written, possibly empty (default violations.csv)")
    p.add_argument("--jobs", type=_job_count, default=1,
                   help="worker processes, at most the CPU count (default 1)")
    p.add_argument("--self-test", action="store_true",
                   help="inject a deliberately corrupted check; a healthy "
                        "pipeline must then exit 1 with violations")
    add_output_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", help="extremal irregularity search over (n, m) cells")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--hong", action="store_true",
                       help="minimal irregularity among connected non-regular graphs")
    group.add_argument("--bell-max", action="store_true",
                       help="maximal irregularity among connected graphs")
    p.add_argument("--n", required=True, help="vertex count or range in 2..9, e.g. 4 or 4..6")
    p.add_argument("--m", type=int, help="edge count (--bell-max only, and required there)")
    p.add_argument("--out", help="output file (default stdout)")
    add_output_flags(p)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("gen", help="emit a named family graph as graph6")
    p.add_argument("family", choices=sorted(GENERATORS))
    p.add_argument("size", type=int)
    p.set_defaults(fn=cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SpectralConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGENCE
    except OSError as exc:
        # An unreadable input or unwritable output path is an input error.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

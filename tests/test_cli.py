"""CLI: output schemas, exit codes, determinism, and format agreement."""

import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specirr
from specirr import (
    enumerate_graphs,
    from_edges,
    graphs,
    parse_graph6,
    spectral,
    subdivided_prism,
    to_graph6,
)
from specirr.bounds import build_context
from specirr.cli import REPORT_COLUMNS, _emit, main, report_row

WITNESS_G6 = to_graph6(subdivided_prism(3))


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, row)) for row in body]


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def test_compute_witness_row(capsys):
    code, out, _ = run_cli(["compute", "--inline", WITNESS_G6], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == list(REPORT_COLUMNS)
    row = rows[0]
    assert row["graph6"] == WITNESS_G6
    assert (row["n"], row["m"]) == ("7", "10")
    assert float(row["nikiforov"]) == pytest.approx(0.0137, abs=5e-4)
    assert float(row["main"]) == pytest.approx(0.0209, abs=5e-4)
    assert float(row["cgs"]) == pytest.approx(0.0286, abs=5e-4)
    assert float(row["sub_high"]) == pytest.approx(38 / 1029, abs=5e-7)
    assert row["sub_low"] == "NA"


def test_compute_regular_epsilon_zero(capsys):
    code, out, _ = run_cli(["compute", "--inline", "D~{"], capsys)  # K5
    assert code == 0
    _, rows = parse_csv(out)
    assert abs(float(rows[0]["epsilon"])) <= 1e-9


def test_compute_reads_file_with_header(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_text(">>graph6<<\n" + WITNESS_G6 + "\nD~{\n")
    code, out, _ = run_cli(["compute", str(src)], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert [r["graph6"] for r in rows] == [WITNESS_G6, "D~{"]


def test_compute_skips_bad_line_by_default(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_text(WITNESS_G6 + "\n!!!bad!!!\nD~{\n")
    code, out, err = run_cli(["compute", str(src)], capsys)
    assert code == 0
    assert "line 2" in err
    _, rows = parse_csv(out)
    assert len(rows) == 2


def test_compute_strict_aborts(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_text(WITNESS_G6 + "\n!!!bad!!!\n")
    code, _, err = run_cli(["compute", str(src), "--strict"], capsys)
    assert code == 2
    assert "line 2" in err


def test_compute_non_ascii_input_is_usage_error(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_bytes(b"D~{\nAB\xc3\xa9\nDhc\n")
    code, out, err = run_cli(["compute", str(src)], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: 'ascii' codec can't decode byte 0xc3 in position 6: "
                   "ordinal not in range(128)\n")


def test_compute_reads_stdin_as_it_reads_a_file(tmp_path):
    # Both are decoded as ASCII, whatever the locale: a non-ASCII byte is the
    # same usage error on either, with the same message.
    data = b"D~{\nAB\xc3\xa9\nDhc\n"
    src = tmp_path / "graphs.g6"
    src.write_bytes(data)
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0"}
    results = []
    for source in (str(src), "-"):
        cmd, root = _cli_command("compute", source)
        done = subprocess.run(cmd, input=data, capture_output=True, cwd=root, env=env)
        results.append((done.returncode, done.stdout, done.stderr))
    assert results[0] == results[1] == (
        2, b"", b"error: 'ascii' codec can't decode byte 0xc3 in position 6: "
                b"ordinal not in range(128)\n")


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_compute_lines_end_where_splitlines_ends_them(source, tmp_path, monkeypatch, capsys):
    # \x0b, \x0c and \x1c-\x1e end a line as \n does; line numbers count them.
    text = "D~{\x0b!!!\x0cDhc\x1e\nC~\x1c!!!\x1d\r\n"
    src = tmp_path / "graphs.g6"
    src.write_bytes(text.encode("ascii"))
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode("ascii"))))
    code, out, err = run_cli(["compute", "-" if source == "stdin" else str(src)], capsys)
    assert code == 0
    assert [line.split(":")[0] for line in err.splitlines()] == ["line 2", "line 6"]
    assert [r["graph6"] for r in parse_csv(out)[1]] == ["D~{", "Dhc", "C~"]


def test_compute_graph6_column_is_the_canonical_input(tmp_path, capsys):
    rng = random.Random(7)
    lines = []
    for i in range(48):
        n, p = rng.randint(1, 40), rng.choice([0.1, 0.3, 0.6])
        g6 = to_graph6(from_edges(n, [(u, v) for v in range(n) for u in range(v)
                                      if rng.random() < p]))
        lines.append((g6, f">>graph6<<{g6}", f" \t{g6}  ", f"  >>graph6<<{g6}\t")[i % 4])
    src = tmp_path / "graphs.g6"
    src.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["compute", str(src)], capsys)
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert [r["graph6"] for r in rows] == [to_graph6(parse_graph6(line)) for line in lines]
    code, out, _ = run_cli(["compute", "--inline", ">>graph6<<D?{"], capsys)
    assert code == 0
    assert parse_csv(out)[1][0]["graph6"] == "D?{"


def test_compute_json_and_csv_agree(capsys):
    _, csv_out, _ = run_cli(["compute", "--inline", WITNESS_G6], capsys)
    _, json_out, _ = run_cli(["compute", "--inline", WITNESS_G6, "--format", "json"], capsys)
    _, csv_rows = parse_csv(csv_out)
    json_rows = json.loads(json_out)
    assert len(csv_rows) == len(json_rows) == 1
    for col in REPORT_COLUMNS:
        jval = json_rows[0][col]
        cval = csv_rows[0][col]
        if jval is None:
            assert cval == "NA"
        elif isinstance(jval, str):
            assert cval == jval
        else:
            assert float(cval) == jval


def test_compute_full_precision(capsys):
    _, out, _ = run_cli(
        ["compute", "--inline", WITNESS_G6, "--format", "json", "--precision", "full"],
        capsys)
    row = json.loads(out)[0]
    # full precision must carry more than 6 significant digits
    assert row["rho"] == pytest.approx(2.90417049869408, abs=1e-10)
    assert row["rho"] != float(f"{row['rho']:.6g}")


def _context_row(text):
    """The compute row of one graph6 text from its per-graph BoundReport."""
    ctx = build_context(parse_graph6(text))
    s = ctx.stats
    return {"graph6": text, "n": s.n, "m": s.m, "max_degree": s.max_degree,
            "min_degree": s.min_degree, "avg_degree": s.avg_degree_float,
            "variance": s.variance_float, **{col: getattr(ctx, col) for col in REPORT_COLUMNS[7:]}}


def _emitted(rows, fmt, precision):
    out = io.StringIO()
    _emit(rows, REPORT_COLUMNS, fmt, precision, out)
    return out.getvalue()


@pytest.mark.parametrize("chunk", [1, 5, 64, None])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_compute_grouping_by_n_cannot_change_output(fmt, chunk, tmp_path, monkeypatch, capsys):
    # compute evaluates its input grouped by n, spectral.run_length(n) graphs
    # at a time; by default (chunk None) n = 7 spans 5 runs, 4 of 256 classes
    # and one of 20.  Every class n <= 7, shuffled, must print the rows of a
    # per-graph evaluation, and a permuted input the same rows permuted the
    # same way, however the groups are cut.
    if chunk is not None:
        monkeypatch.setattr(spectral, "run_length", lambda n: chunk)
    texts = [to_graph6(g) for n in range(1, 8) for g in enumerate_graphs(n)]
    assert len(texts) == 1252
    random.Random(18).shuffle(texts)
    expected = [_context_row(text) for text in texts]
    outputs = []
    for order in (range(len(texts)), random.Random(81).sample(range(len(texts)), len(texts))):
        src = tmp_path / "classes.g6"
        src.write_text("".join(texts[k] + "\n" for k in order))
        code, out, err = run_cli(["compute", str(src), "--format", fmt, "--precision", "full"],
                                 capsys)
        assert (code, err) == (0, "")
        assert out == _emitted([expected[k] for k in order], fmt, "full")
        outputs.append((order, out))
    if fmt == "csv":
        (_, first), (order, second) = outputs
        header, *rows = first.splitlines()
        assert second.splitlines() == [header] + [rows[k] for k in order]
    # The one-graph row builder is the same evaluation.
    for text in texts[:40]:
        assert report_row(parse_graph6(text), text) == _context_row(text)


@pytest.mark.parametrize("bad", ["", "D?!", "~??~?????", "?", "D?", "D?{{", "A`", "E??", "B"])
def test_compute_reports_the_parse_graph6_error(bad, capsys):
    # One validator: a skipped line names the error parse_graph6 raises.
    with pytest.raises(ValueError) as raised:
        parse_graph6(bad)
    code, out, err = run_cli(["compute", "--inline", WITNESS_G6, "--inline", ">>graph6<<" + bad],
                             capsys)
    assert code == 0
    assert err == ("" if bad == "" else f"line 2: {raised.value}\n")
    assert len(parse_csv(out)[1]) == 1


def test_compute_no_input_is_usage_error(capsys):
    code, _, err = run_cli(["compute"], capsys)
    assert code == 2
    assert "no input" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_clean(tmp_path, capsys):
    vfile = tmp_path / "violations.csv"
    code, _, err = run_cli(
        ["verify", "--n-max", "4", "--violations-file", str(vfile)], capsys)
    assert code == 0
    assert "0 violations" in err
    header, rows = parse_csv(vfile.read_text())
    assert header[0] == "check"
    assert rows == []


def test_verify_only_subregular(tmp_path, capsys):
    vfile = tmp_path / "violations.csv"
    code, _, _ = run_cli(
        ["verify", "--n-max", "5", "--only", "subregular",
         "--violations-file", str(vfile)], capsys)
    assert code == 0


def test_verify_unknown_check(tmp_path, capsys):
    code, _, err = run_cli(
        ["verify", "--n-max", "4", "--only", "bogus",
         "--violations-file", str(tmp_path / "v.csv")], capsys)
    assert code == 2
    assert "unknown check" in err


def test_verify_empty_only_is_usage_error(tmp_path, capsys):
    # An empty selection names no check: it must not fall back to the defaults.
    vfile = tmp_path / "v.csv"
    code, _, err = run_cli(
        ["verify", "--n-max", "4", "--only", "", "--violations-file", str(vfile)], capsys)
    assert code == 2
    assert "unknown check or group: ''" in err
    assert not vfile.exists()


def test_verify_cap(tmp_path, capsys):
    code, _, err = run_cli(
        ["verify", "--n-max", "12", "--violations-file", str(tmp_path / "v.csv")],
        capsys)
    assert code == 2


def test_verify_self_test_exits_one(tmp_path, capsys):
    vfile = tmp_path / "violations.csv"
    code, _, err = run_cli(
        ["verify", "--n-max", "4", "--self-test", "--violations-file", str(vfile)],
        capsys)
    assert code == 1
    _, rows = parse_csv(vfile.read_text())
    assert rows and all(r["check"] == "self-test-corrupted" for r in rows)


@pytest.mark.parametrize("chunk", [1, 5, 64, None])
def test_verify_jobs_deterministic(chunk, tmp_path, monkeypatch, capsys):
    # The self-test flags all 31 connected classes n <= 5: the file must not
    # depend on how many workers checked them, nor on how the classes were
    # cut into runs (chunk None: the default rule).  The first file is made
    # with the default cut and one worker.
    files = [tmp_path / "reference.csv"]
    run_cli(["verify", "--n-max", "5", "--self-test", "--violations-file", str(files[0])], capsys)
    if chunk is not None:
        monkeypatch.setattr(spectral, "run_length", lambda n: chunk)
    for jobs in ("1", "2", "3"):
        files.append(tmp_path / f"v{jobs}.csv")
        code, _, err = run_cli(["verify", "--n-max", "5", "--self-test", "--jobs", jobs,
                                "--violations-file", str(files[-1])], capsys)
        assert (code, err) == (1, "checked 31 graphs, 31 violations\n")
    assert len(files[0].read_text().splitlines()) == 1 + 31
    assert len({f.read_bytes() for f in files}) == 1


@pytest.mark.parametrize("cpus, started", [(3, [3]), (1, []), (None, [])])
def test_verify_jobs_capped_at_cpu_count(cpus, started, tmp_path, monkeypatch, capsys):
    # A stand-in Pool records how many workers it was asked for and maps in
    # this process, so even --jobs 100000 starts no process.
    import multiprocessing

    requested = []
    chunksizes, messages = [], []

    class RecordingPool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, iterable, chunksize=1):
            chunksizes.append(chunksize)
            messages.extend(iterable)
            return map(fn, messages)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    files = [tmp_path / "serial.csv", tmp_path / "many.csv"]
    for jobs, vfile in zip(("1", "100000"), files):
        code, _, err = run_cli(["verify", "--n-max", "5", "--self-test", "--jobs", jobs,
                                "--violations-file", str(vfile)], capsys)
        assert (code, err) == (1, "checked 31 graphs, 31 violations\n")
    assert requested == started
    assert files[0].read_bytes() == files[1].read_bytes()
    if started:
        # 16 runs per message; a run holds all the classes with one n,
        # n <= 5, as (n, bit rows); each worker keeps the connected ones.
        assert chunksizes == [16]
        assert [(n, len(bits)) for n, bits in messages] == list(
            enumerate([1, 2, 4, 11, 34], 1))


@pytest.mark.parametrize("command", [
    ["compute", "--inline", WITNESS_G6],
    ["verify", "--n-max", "5", "--self-test"],
])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tol_must_be_finite_and_positive(command, tol, tmp_path, monkeypatch, capsys):
    # NaN or inf would pass every check; zero or negative would flag every
    # claim.  Both are usage errors, caught before any work.
    monkeypatch.chdir(tmp_path)  # where verify writes violations.csv
    with pytest.raises(SystemExit) as exc:
        main(command + ["--tol", tol])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in captured.err and "finite and positive" in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("jobs", ["0", "-2", "abc"])
def test_verify_jobs_must_be_positive(jobs, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n-max", "3", "--jobs", jobs,
              "--violations-file", str(tmp_path / "v.csv")])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "v.csv").exists()


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_hong_range(capsys):
    code, out, _ = run_cli(["search", "--hong", "--n", "4..5"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["objective", "n", "m", "graph6", "epsilon", "degree_gap", "ties"]
    assert all(r["objective"] == "min" for r in rows)
    assert {r["n"] for r in rows} == {"4", "5"}
    for r in rows:
        assert parse_graph6(r["graph6"]).n == int(r["n"])


def test_search_bell_star(capsys):
    code, out, _ = run_cli(["search", "--bell-max", "--n", "4", "--m", "3"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert sorted(parse_graph6(rows[0]["graph6"]).degrees) == [1, 1, 1, 3]


def test_search_bell_requires_m(capsys):
    code, _, err = run_cli(["search", "--bell-max", "--n", "4"], capsys)
    assert code == 2
    assert "--m" in err


def test_search_hong_rejects_m(capsys):
    code, out, err = run_cli(["search", "--hong", "--n", "5", "--m", "4"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --m applies only to --bell-max\n"


def test_search_cap(capsys):
    code, _, err = run_cli(["search", "--hong", "--n", "12"], capsys)
    assert code == 2
    assert err == "error: search capped at 2 <= n <= 9, got 12\n"


@pytest.mark.parametrize("args, err", [
    (["search", "--hong", "--n", "2..10"], "search capped at 2 <= n <= 9, got 10"),
    (["search", "--bell-max", "--n", "8..10", "--m", "9"],
     "search capped at 2 <= n <= 9, got 10"),
    (["verify", "--n-max", "10", "--jobs", "1"], "corpus cap is 1 <= n_max <= 9, got 10"),
    (["verify", "--n-max", "10", "--jobs", "2"], "corpus cap is 1 <= n_max <= 9, got 10"),
    (["search", "--hong", "--n", "7..4"], "empty range '7..4'"),
], ids=["hong", "bell-max", "verify-jobs-1", "verify-jobs-2", "hong-empty-range"])
def test_out_of_range_fails_before_any_enumeration(args, err, tmp_path, monkeypatch, capsys):
    # The library refuses the whole request before the first class is built.
    monkeypatch.chdir(tmp_path)  # where verify writes violations.csv
    cache_home = tmp_path / "cache"
    cache_home.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    built = []
    monkeypatch.setattr(graphs, "_class_forms", lambda n: built.append(n) or ())
    code, out, stderr = run_cli(args, capsys)
    assert (code, out, stderr) == (2, "", f"error: {err}\n")
    assert built == []
    assert [p.name for p in tmp_path.iterdir()] == ["cache"]
    assert not any(cache_home.iterdir())


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,size,n,m", [
    ("complete", 4, 4, 6),
    ("cycle", 5, 5, 5),
    ("path", 4, 4, 3),
    ("star", 4, 4, 3),
    ("prism", 3, 6, 9),
    ("subdivided-prism", 3, 7, 10),
])
def test_gen_families(family, size, n, m, capsys):
    code, out, _ = run_cli(["gen", family, str(size)], capsys)
    assert code == 0
    g = parse_graph6(out.strip())
    assert (g.n, g.m) == (n, m)


def test_gen_prism_is_cubic(capsys):
    _, out, _ = run_cli(["gen", "prism", "3"], capsys)
    assert set(parse_graph6(out.strip()).degrees) == {3}


def test_gen_invalid_size(capsys):
    code, _, err = run_cli(["gen", "cycle", "1"], capsys)
    assert code == 2
    assert "n >= 3" in err


@pytest.mark.parametrize("family,size", [
    ("prism", 40), ("complete", 70), ("complete", 100000), ("path", 1000000000),
])
def test_gen_beyond_graph6_cap(family, size, capsys):
    code, out, err = run_cli(["gen", family, str(size)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "n <= 62" in err


# ---------------------------------------------------------------------------
# Unwritable output paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", [
    ["compute", "--inline", WITNESS_G6, "--out", "missing/dir/x.csv"],
    ["verify", "--n-max", "3", "--violations-file", "missing/dir/v.csv"],
    ["search", "--hong", "--n", "4", "--out", "missing/x.csv"],
])
def test_unwritable_output_is_usage_error(command, tmp_path, monkeypatch, capsys):
    # Exit 1 means "violations found"; a path that cannot be written is
    # an input error: one error line, exit 2.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(command, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "missing/" in err
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# Exit-code wiring for numerical failures
# ---------------------------------------------------------------------------

def test_non_convergence_exit_code(capsys):
    # No eigensolve meets a 1e-300 residual bound: the real check must
    # fail, and the CLI must map it to exit code 3.
    code, out, err = run_cli(["compute", "--inline", WITNESS_G6, "--tol", "1e-300"], capsys)
    assert code == 3
    assert out == ""
    assert "spectral residual" in err and "above tolerance" in err


@pytest.mark.parametrize("strict", [False, True])
def test_non_convergence_before_a_malformed_line(strict, capsys):
    # The witness is evaluated the moment it is read, before the malformed
    # line: its residual failure is the only message, in both modes.
    args = ["compute", "--inline", WITNESS_G6, "--inline", "!!!bad!!!", "--tol", "1e-300"]
    code, out, err = run_cli(args + ["--strict"] * strict, capsys)
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: spectral residual ")


@pytest.mark.parametrize("lines", [
    [WITNESS_G6, "D~{"],
    # K5's n = 5 group comes first; the edgeless graph passes any bound.
    ["D??", WITNESS_G6, "D~{"],
], ids=["n7-then-n5", "n5-group-first"])
def test_the_earliest_residual_failure_in_input_order_wins(lines, capsys):
    _, _, alone = run_cli(["compute", "--inline", WITNESS_G6, "--tol", "1e-300"], capsys)
    assert "relative to rho = 2.90417)" in alone
    args = ["compute", "--tol", "1e-300"]
    for text in lines:
        args += ["--inline", text]
    assert run_cli(args, capsys) == (3, "", alone)


@pytest.mark.parametrize("strict", [False, True])
def test_malformed_line_before_a_non_convergence(strict, capsys):
    # The malformed line comes first: --strict stops there with its message
    # alone; without it, the line is skipped and the residual failure follows.
    args = ["compute", "--inline", "!!!bad!!!", "--inline", WITNESS_G6, "--tol", "1e-300"]
    code, out, err = run_cli(args + ["--strict"] * strict, capsys)
    assert (code, out) == ((2, "") if strict else (3, ""))
    lines = err.splitlines()
    assert lines[0] == ("line 1: graph6 string contains bytes outside ASCII 63..126: "
                        "'!!!bad!!!'")
    if strict:
        assert len(lines) == 1
    else:
        assert len(lines) == 2 and lines[1].startswith("error: spectral residual ")


def test_a_tol_too_tight_for_eigh_exits_3_on_its_line(monkeypatch, capsys):
    # At --tol 1e-300 the shifted solve fails on every graph below but the
    # edgeless one (its residual is 0), and so does eigh, which re-solves
    # the failing rows.  The n = 7 run [edgeless, witness, K7] fails first on
    # its second row, input line 3: the skipped line 2 is reported before it.
    solved = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append(len(a)) or eigh(a))
    args = ["compute", "--tol", "1e-300"]
    for text in ["F????", "!!!bad!!!", WITNESS_G6, "F~~~w"]:
        args += ["--inline", text]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (3, "")
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0] == "line 2: graph6 string contains bytes outside ASCII 63..126: '!!!bad!!!'"
    assert lines[1].startswith("error: spectral residual ")
    assert lines[1].endswith("(relative to rho = 2.90417)")
    assert solved  # eigh re-solved the failing rows


@pytest.mark.parametrize("args", [
    ["search", "--hong", "--n", "4"],
    ["search", "--bell-max", "--n", "4", "--m", "3"],
    ["verify", "--n-max", "4", "--jobs", "1"],
    ["verify", "--n-max", "4", "--jobs", "2"],
], ids=["hong", "bell-max", "verify-jobs-1", "verify-jobs-2"])
def test_a_failed_gate_exits_3_on_search_and_verify(args, tmp_path, monkeypatch, capsys):
    # A shifted solve that returns 0 (a NaN residual) sends every row to
    # eigh, whose top vector is made e_1: no graph with an edge passes the
    # gate, so each command stops with exit 3, one error line, no output
    # and no violations file (verify's workers inherit the patches).
    monkeypatch.chdir(tmp_path)  # where verify writes violations.csv
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.zeros(b.shape))

    def eigh(a):
        vectors = np.zeros_like(a)
        vectors[..., 0, :] = 1.0
        return np.linalg.eigvalsh(a), vectors

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: spectral residual ")
    assert not any(tmp_path.iterdir())


def _compute_bytes(data, source, args, tmp_path, monkeypatch, capsys):
    """run_cli of compute on data, given as a file or on stdin."""
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        return run_cli(["compute", "-", *args], capsys)
    src = tmp_path / "graphs.g6"
    src.write_bytes(data)
    return run_cli(["compute", str(src), *args], capsys)


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_convergence_before_a_non_ascii_byte(source, tmp_path, monkeypatch, capsys):
    # The bytes before the bad one are read: the residual failure on line 1
    # comes first, and is the only message.
    data = WITNESS_G6.encode("ascii") + b"\nD~{\nAB\xc3\xa9\n"
    code, out, err = _compute_bytes(data, source, ["--tol", "1e-300"], tmp_path, monkeypatch,
                                    capsys)
    assert (code, out) == (3, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: spectral residual ")


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_malformed_line_before_a_non_ascii_byte(source, tmp_path, monkeypatch, capsys):
    # The malformed line 2 is skipped and reported; the bad byte then ends the
    # input, named by its offset in the input.
    data = b"D~{\n!!!bad!!!\nAB\xc3\xa9\nDhc\n"
    code, out, err = _compute_bytes(data, source, [], tmp_path, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "line 2: graph6 string contains bytes outside ASCII 63..126: '!!!bad!!!'",
        "error: 'ascii' codec can't decode byte 0xc3 in position 16: ordinal not in range(128)",
    ]


# ---------------------------------------------------------------------------
# End-to-end determinism through the console entry point
# ---------------------------------------------------------------------------

def _cli_command(*args):
    # Run from the directory holding the imported package, so the child
    # finds the same specirr without an install or PYTHONPATH.
    root = Path(specirr.__file__).resolve().parents[1]
    return [sys.executable, "-m", "specirr.cli", *args], root


def test_cli_byte_determinism_subprocess():
    cmd, root = _cli_command("compute", "--inline", WITNESS_G6, "--format", "json")
    first = subprocess.run(cmd, capture_output=True, check=True, cwd=root)
    second = subprocess.run(cmd, capture_output=True, check=True, cwd=root)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)[0]["graph6"] == WITNESS_G6


def test_compute_loads_neither_multiprocessing_nor_hashlib():
    # compute forks no worker and reads no stored classes, so it must not
    # pay for importing multiprocessing, or hashlib and the OpenSSL it loads.
    probe = ("import sys\n"
             "from specirr.cli import main\n"
             f"assert main(['compute', '--inline', {WITNESS_G6!r}]) == 0\n"
             "loaded = {'multiprocessing', 'hashlib', '_hashlib'} & set(sys.modules)\n"
             "print(sorted(loaded), file=sys.stderr)\n")
    root = Path(specirr.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", probe], cwd=root, capture_output=True,
                          check=True, timeout=120)
    assert done.stderr == b"[]\n"


def test_strict_stops_reading_stdin():
    # The pipe stays open after the malformed first line: a reader that
    # waited for the end of the input would never exit.
    cmd, root = _cli_command("compute", "-", "--strict")
    proc = subprocess.Popen(cmd, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        proc.stdin.write(b"!!!bad!!!\n" + b"D~{\n" * 1000)
        proc.stdin.flush()
        assert proc.wait(timeout=60) == 2
        assert proc.stdout.read() == b""
        assert proc.stderr.read().startswith(b"line 1: ")
    finally:
        proc.kill()
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            pipe.close()


def test_reader_closing_the_pipe_is_not_an_error(tmp_path):
    # 2 000 JSON rows are far more than a pipe buffers, so the run is still
    # writing when the reader leaves after one line.
    stream = tmp_path / "stream.g6"
    stream.write_text((to_graph6(subdivided_prism(4)) + "\n") * 2000)
    cmd, root = _cli_command("compute", str(stream), "--format", "json")
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("args, code, err", [
    (["search", "--hong", "--n", "2..5"], 0, b""),
    (["verify", "--n-max", "4", "--self-test", "--violations-file", "-"], 1,
     b"checked 10 graphs, 10 violations\n"),
], ids=["search", "verify"])
def test_closed_pipe_keeps_the_exit_code(args, code, err):
    # The reader is gone before the first write.
    cmd, root = _cli_command(*args)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(cmd, cwd=root, stdout=write_end, stderr=subprocess.PIPE,
                              timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (code, err)

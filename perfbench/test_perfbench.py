"""Tests of the benchmark itself, not of specirr.

    python3 -m pytest perfbench/test_perfbench.py

A stand-in specirr package answers the compute-stream workload correctly,
with one corrupted row, with an unexpected exit code, by crashing, or by
writing nothing; each bad answer must count as a failed invocation without
stopping the benchmark.  The real package must pass the same checks.  The
verify and search checks are run on hand-made outputs.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import layer_metrics  # noqa: E402

FAKE_CLI = '''
from pathlib import Path

from workloads import COMPUTE_HEADER, expected_compute_row

MODE = {mode!r}


def main(argv):
    if MODE == "crash":
        raise RuntimeError("stand-in crash")
    if MODE == "exit3":
        return 3
    if MODE == "silent":
        return 0
    source, out = argv[1], argv[argv.index("--out") + 1]
    columns = COMPUTE_HEADER.split(",")
    lines = [COMPUTE_HEADER]
    for g6 in Path(source).read_text().split():
        row = dict.fromkeys(columns, 0.0)
        row.update(expected_compute_row(g6), graph6=g6)
        lines.append(",".join(str(row[c]) for c in columns))
    if MODE == "corrupt":
        cells = lines[2].split(",")
        cells[columns.index("rho")] = str(float(cells[columns.index("rho")]) + 1e-6)
        lines[2] = ",".join(cells)
    Path(out).write_text("\\n".join(lines) + "\\n")
    return 0
'''


def fake_src(tmp_path: Path, mode: str) -> Path:
    pkg = tmp_path / "src" / "specirr"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(FAKE_CLI.format(mode=mode))
    return tmp_path / "src"


def measure(src: Path, tmp_path: Path) -> tuple[dict, dict]:
    return run.measure("compute-stream", 3, 0, False, src=src, out=tmp_path / "out")


def test_stand_in_with_correct_rows_passes(tmp_path):
    result, record = measure(fake_src(tmp_path, "ok"), tmp_path)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert record["failed_frac"] == 0.0


@pytest.mark.parametrize("mode", ["corrupt", "exit3", "crash", "silent"])
def test_bad_answer_counts_as_failed(tmp_path, mode):
    result, record = measure(fake_src(tmp_path, mode), tmp_path)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert record["failed_frac"] == 1.0
    assert set(result["metrics"]) == {"run_s", "graphs_per_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_real_program_passes_the_checks(tmp_path):
    result, _ = measure(run.ROOT / "src", tmp_path)
    assert (result["correct"], result["failed"]) == (True, 0)


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "compute-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(layer_metrics(None, 1, 0.0)) == {m["name"] for m in spec["per_layer"]}


def _hong_output(path: Path, edit) -> Path:
    with workloads.HONG_REFERENCE.open() as fh:
        rows = [["min", str(workloads.HONG_N), r["m"], r["graph6"], r["epsilon"], r["degree_gap"],
                 f"{r['graph6']}:{r['degree_gap']}"] for r in csv.DictReader(fh)]
    edit(rows)
    lines = [workloads.SEARCH_HEADER] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def _bump_epsilon(rows):
    rows[3][4] = str(float(rows[3][4]) + 1e-6)


def _set_gap(rows):
    rows[3][5] = "3"


HONG_CORRUPTIONS = [_bump_epsilon, _set_gap, lambda rows: rows.pop(), lambda rows: rows.append(rows[0])]


def test_hong_check_accepts_the_reference(tmp_path):
    workloads.check_hong(0, _hong_output(tmp_path / "h.csv", lambda rows: None))


@pytest.mark.parametrize("edit", HONG_CORRUPTIONS)
def test_hong_check_rejects_corrupted_rows(tmp_path, edit):
    with pytest.raises(workloads.CheckFailed):
        workloads.check_hong(0, _hong_output(tmp_path / "h.csv", edit))


@pytest.mark.parametrize("rc, stderr, extra, ok", [
    (0, "checked 1252 graphs, 0 violations\n", "", True),
    (1, "checked 1252 graphs, 0 violations\n", "", False),
    (0, "checked 1251 graphs, 0 violations\n", "", False),
    (0, "checked 1252 graphs, 0 violations\n", "main,A_,A_,1,0,1,1e-09\n", False),
])
def test_verify_check(tmp_path, rc, stderr, extra, ok):
    violations = tmp_path / "v.csv"
    violations.write_text(workloads.VIOLATIONS_HEADER + "\n" + extra)
    if ok:
        workloads.check_verify(rc, stderr, violations)
    else:
        with pytest.raises(workloads.CheckFailed):
            workloads.check_verify(rc, stderr, violations)

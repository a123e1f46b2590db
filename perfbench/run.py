"""The specirr benchmark: time to a checked answer for three CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each was chosen: BENCHMARK.json and README.md here):
  verify-n7-all   verify --n-max 7 --all-graphs --only core,bounds,subregular,oracle
  hong-n7         search --hong --n 7
  compute-stream  compute FILE on a graph6 stream generated from --seed

Every invocation of specirr.cli.main runs in a fresh interpreter (its
enumeration cache lives per process, as it does for a user), one at a time,
with --jobs 1.  Outputs are checked after each invocation exits.

--trace 0 runs invocations back to back for about --seconds (at least one)
and reports the end-to-end metrics: mean run_s, graphs_per_s, median
setup_s and peak_rss_mb.  --trace 1 runs one untraced and one traced
invocation and reports the per-layer metrics of the traced one.  The last
line of stdout is the result; the line before it is the full record
(quartiles, sample counts, failures, machine facts), also written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import layer_metrics
from workloads import WORKLOADS, CheckFailed, Prepared, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run must end within 180 s


@dataclass
class Invocation:
    run_s: float
    setup_s: float | None = None
    failure: str | None = None
    summary: dict | None = None


@dataclass
class Runner:
    """Spawns children for one workload run; `src` holds the specirr package."""

    src: Path
    work: Path
    deadline: float
    children: int = 0

    def spawn(self, argv: list[str], trace: bool = False) -> tuple[int | None, dict | None, str, float]:
        """Run child.py; return its exit status, record, stderr and wall time."""
        self.children += 1
        record_path = self.work / f"child{self.children}.json"
        err_path = self.work / f"child{self.children}.stderr"
        cmd = [sys.executable, str(HERE / "child.py"), str(self.src), str(record_path),
               "1" if trace else "0", *argv]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(err_path, "w") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.work, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                status = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                status = None
            wall = time.monotonic() - start
        stderr = err_path.read_text(errors="replace")
        record = json.loads(record_path.read_text()) if status == 0 and record_path.exists() else None
        if record is not None:
            record["setup_s"] = record["imported"] - start
        return status, record, stderr, wall

    def setup_sample(self) -> float:
        status, record, stderr, _ = self.spawn([])
        if record is None:
            sys.exit(f"error: cannot import specirr from {self.src} "
                     f"(child status {status}): {stderr.strip()[-500:]}")
        return record["setup_s"]

    def invoke(self, prepared: Prepared, trace: bool = False) -> Invocation:
        """One CLI invocation, counted as failed on any bad exit or output."""
        prepared.output.unlink(missing_ok=True)
        status, record, stderr, wall = self.spawn(prepared.argv, trace)
        if record is None:
            what = "timed out" if status is None else f"exited with status {status}"
            return Invocation(wall, failure=f"child {what}: {stderr.strip()[-500:]}")
        inv = Invocation(record["run_s"], record["setup_s"], summary=record.get("summary"))
        try:
            prepared.check(record["rc"], stderr)
        except CheckFailed as exc:
            inv.failure = str(exc)
        return inv


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _peak_rss_mb() -> float:
    # Linux reports the largest resident set of any waited-for child, in KiB.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def measure(workload: str, seed: int, seconds: float, trace: bool,
            src: Path = ROOT / "src", out: Path = HERE / "out") -> tuple[dict, dict]:
    """Run one workload against the specirr package in `src`; return (result, record)."""
    start = time.monotonic()
    work = out / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(src, work, start + DEADLINE_S)
    prepared = prepare(workload, seed, work)

    runner.setup_sample()  # fills the bytecode caches; users do not pay that per run
    setups = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]

    if trace:
        plain = runner.invoke(prepared)
        traced = runner.invoke(prepared, trace=True)
        invocations = [plain, traced]
        metrics = layer_metrics(traced.summary, prepared.graphs, traced.run_s / plain.run_s - 1)
        samples = {"run_s": _spread([plain.run_s]), "traced_run_s": _spread([traced.run_s])}
    else:
        invocations = []
        began = time.monotonic()
        while True:
            invocations.append(runner.invoke(prepared))
            # Stop once another invocation, as long as the ones so far took
            # from start to exit, would end past --seconds or the deadline.
            now = time.monotonic()
            per_invocation = (now - began) / len(invocations)
            if now - began + per_invocation > seconds or now + 2 * per_invocation > runner.deadline:
                break
        run_s = [inv.run_s for inv in invocations]
        setups += [inv.setup_s for inv in invocations if inv.setup_s is not None]
        samples = {
            "run_s": _spread(run_s),
            "graphs_per_s": _spread([prepared.graphs / t for t in run_s]),
            "setup_s": _spread(setups),
        }
        # Time in main is averaged, not its median taken: on a shared host
        # the CPU speed flips between levels about a third apart for seconds
        # at a time, and a median over a few invocations jumps between them.
        metrics = {
            "run_s": statistics.fmean(run_s),
            "graphs_per_s": prepared.graphs * len(run_s) / sum(run_s),
            "setup_s": samples["setup_s"]["median"],
            "peak_rss_mb": _peak_rss_mb(),
        }

    failures = [inv.failure for inv in invocations if inv.failure]
    units = metric_units()
    result = {
        "correct": not failures,
        "attempted": len(invocations),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "graphs": prepared.graphs,
        "failed_frac": len(failures) / len(invocations),
        "failures": failures,
        "samples": samples,
        "machine": machine_facts(ROOT),
        "elapsed_s": time.monotonic() - start,
    }
    (work / "record.json").write_text(json.dumps({**record, "result": result}, indent=1))
    return result, record


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------------
# Machine facts (read-only)
# ---------------------------------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _commit(root: Path) -> str | None:
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(root / ".git" / ref)
    if loose:
        return loose
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine_facts(root: Path) -> dict:
    cpu_model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{ {'Data': 'd', 'Instruction': 'i'}.get(kind, '')}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(root),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "specirr" / "cli.py").is_file():
        print(f"error: no specirr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

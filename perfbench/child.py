"""Run one specirr command in a fresh interpreter and record how it went.

    python3 child.py SRC RECORD TRACE [ARGV...]

Imports specirr.cli from the directory SRC, then calls
specirr.cli.main(ARGV) once and writes a JSON record to RECORD: the
CLOCK_MONOTONIC time at which the import finished (the parent subtracts the
time it started this process, giving setup_s), the exit code and the wall
time of main().  With no ARGV it only imports.  With TRACE = 1 the calls
into each module are traced; the span summary goes into the record and the
spans themselves next to it, in RECORD with the suffix .spans.json.
"""

import json
import sys
import time
from pathlib import Path

src, record_path, trace = Path(sys.argv[1]).resolve(), Path(sys.argv[2]), sys.argv[3] == "1"
argv = sys.argv[4:]
sys.path.insert(0, str(src))

import specirr.cli as cli  # noqa: E402

imported = time.monotonic()
if src not in Path(cli.__file__).resolve().parents:
    sys.exit(f"error: specirr was imported from {cli.__file__}, not from {src}")

record = {"imported": imported}
if argv:
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    record["run_s"] = time.perf_counter() - start
    record["rc"] = rc
    if tracer is not None:
        record["summary"] = tracer.summary()
        tracer.dump(record_path.with_suffix(".spans.json"))

record_path.write_text(json.dumps(record), encoding="ascii")

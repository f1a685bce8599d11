"""The sweep workload: the paper's ecosystem analysis through the library.

One cycle reads the manifest and CSV, loads them once, runs
``run_pipeline(..., "gini")`` for every (package, metric) pair and
serialises all entries into one report document. Run as a script it loops
cycles for the given seconds in a fresh process, so its peak RSS can be read
by the parent, and prints its timings as one JSON line:

    python bench/sweep.py --manifest M --data D --seconds S --report-out R
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from gen import SWEEP_PAIRS

HARD_LIMIT = 120.0  # seconds after which no cycle starts, whatever was asked


def more_cycles(start: float, cycles: int, seconds: float) -> bool:
    """Whether to start another whole cycle: always a first one, then while the
    window would end nearer to ``seconds`` with it than without it."""
    if cycles == 0:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / cycles / 2 < seconds and elapsed < HARD_LIMIT


def cycle(manifest: Path, data: Path) -> tuple[str, list[float], float]:
    """One sweep; returns (report text, per-pipeline seconds, cycle seconds).

    A pipeline that raises leaves its entry out of the report, which the
    checks then count as failed.

    Modules are reached through their attributes at call time, so a tracer
    that patches them sees every call.
    """
    from evometrics import EvometricsError, dataset, report

    start = time.perf_counter()
    manifest_bytes = manifest.read_bytes()
    data_bytes = data.read_bytes()
    ds = dataset.load_csv(data_bytes.decode("utf-8"),
                          dataset.load_manifest(manifest_bytes.decode("utf-8")))
    entries, times = [], []
    for package, metric in SWEEP_PAIRS:
        t0 = time.perf_counter()
        try:
            result = dataset.run_pipeline(ds, package, metric, "gini")
        except EvometricsError:
            continue
        finally:
            times.append(time.perf_counter() - t0)
        entries.append(report.pipeline_entry(result))
    inputs = {
        "manifest": report.file_stamp(manifest.name, manifest_bytes),
        "data": report.file_stamp(data.name, data_bytes),
    }
    text = report.to_json(report.document(inputs, entries, []))
    return text, times, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--report-out", type=Path, required=True)
    args = parser.parse_args()
    out = {"pipeline_s": [], "cycle_s": [], "sha256": []}
    start = time.perf_counter()
    while more_cycles(start, len(out["cycle_s"]), args.seconds):
        text, times, seconds = cycle(args.manifest, args.data)
        if not out["cycle_s"]:
            args.report_out.write_text(text, encoding="utf-8")
        out["pipeline_s"].extend(times)
        out["cycle_s"].append(seconds)
        out["sha256"].append(hashlib.sha256(text.encode("utf-8")).hexdigest())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

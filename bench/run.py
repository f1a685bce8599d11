"""evometrics benchmark: two seeded workloads, end-to-end metrics, traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload cli --seed 1 --seconds 10 --trace 0

The inputs are generated from ``--seed`` under ``.bench_work/``; evometrics
receives only those files. ``sweep`` is the library workload; ``cli`` runs
the CLI operations of three input scenarios (``queries``, ``long-series``,
``extract``) as one mix. Each workload is a closed loop with one client:
every CLI process (or, on ``sweep``, every library call) waits for the
previous one, so nothing runs concurrently. Operations repeat as whole
cycles of the workload's fixed mix until ``--seconds`` have passed.

``--trace 0`` runs the CLI as real processes, built from ``./src``, and
reports the end-to-end metrics. ``--trace 1`` runs the same cycles in this
process: one warm-up cycle, K untraced cycles, then K cycles with spans
around every public function; it reports the per-layer metrics per cycle
plus the tracing overhead.
Either way every output is checked against values computed from the
generated inputs, and must repeat byte for byte; the last stdout line is
the JSON result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import gen
import sweep

BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 16  # timed `evometrics --version` processes; their median is setup_s
SETUP_WARMUPS = 2  # the first start in a fresh checkout also writes bytecode caches
OP_TIMEOUT = 120.0


@dataclass
class Op:
    """One CLI invocation of a workload's mix, with what its outputs must be."""

    key: str
    argv: list[str]
    cwd: Path
    input_bytes: int
    check: Callable[[bytes], list[str]]  # stdout -> problems; may also read output files
    outputs: list[Path] = field(default_factory=list)  # files that must repeat byte for byte
    before: Callable[[], None] = lambda: None


def _text_check(fn, *args):
    return lambda out: fn(out.decode("utf-8"), *args)


def _with_svg(check, path: Path, points: int):
    return lambda out: check(out) + checks.check_svg(path.read_bytes(), points)


def queries_ops(truth, work: Path) -> list[Op]:
    """The fixed CLI mix; each call loads the whole wide dataset for one (package, metric)."""
    p = gen.QUERIES_PACKAGES
    data = os.path.relpath(truth.files["data"], work)
    common = ["--manifest", os.path.relpath(truth.files["manifest"], work), "--data", data]
    size = truth.sizes["data"]
    plot = work / "plot.svg"
    exp = checks.Expected

    def trend(key, package, metric, statistic, check, *extra):
        drop = "--drop-zeros" in extra
        e = exp(truth, package, metric, statistic, drop_zeros=drop)
        argv = ["trend", *common, "--package", package, "--metric", metric,
                "--statistic", statistic, *extra]
        return Op(key, argv, work, size, _text_check(check, e))

    plotted = trend("trend-theil-csv-plot", p[1], "halstead_volume", "theil",
                   checks.check_trend_csv, "--format", "csv", "--plot", plot.name)
    plotted.check = _with_svg(plotted.check, plot, gen.QUERIES_RELEASES)
    plotted.outputs = [plot]
    last = truth.versions[-1]
    return [
        trend("trend-gini-json", p[0], "halstead_effort", "gini", checks.check_trend_json),
        plotted,
        trend("trend-atkinson-drop-zeros", p[2], "defects", "atkinson",
              checks.check_trend_json, "--drop-zeros"),
        trend("trend-mean-short", gen.QUERIES_SHORT, "halstead_N1", "mean",
              checks.check_trend_json),
        Op("inequality-json",
           ["inequality", *common, "--package", p[3], "--metric", "halstead_effort"], work, size,
           _text_check(checks.check_inequality_json, exp(truth, p[3], "halstead_effort", "gini"))),
        Op("inequality-csv",
           ["inequality", *common, "--package", p[4], "--metric", "halstead_N2",
            "--format", "csv"], work, size,
           _text_check(checks.check_inequality_csv, exp(truth, p[4], "halstead_N2", "gini"))),
        Op("diversity",
           ["diversity", "--data", data, "--version", last, "--package", p[5],
            "--category-metric", "kind"], work, size,
           _text_check(checks.check_diversity_json, truth.slices[last, p[5], "kind"])),
    ]


def long_series_ops(truth, work: Path) -> list[Op]:
    plot = work / "plot.svg"
    e = checks.Expected(truth, "core", "binary_kb", "raw")
    argv = ["trend", "--manifest", os.path.relpath(truth.files["manifest"], work),
            "--data", os.path.relpath(truth.files["data"], work), "--package", "core",
            "--metric", "binary_kb", "--statistic", "raw", "--plot", plot.name]
    check = _with_svg(_text_check(checks.check_trend_json, e), plot, gen.LONG_RELEASES)
    return [Op("trend-raw-plot", argv, work, truth.sizes["data"], check, [plot])]


def extract_ops(truth, work: Path) -> list[Op]:
    """Release A into a new dataset file, then release B appended to it."""
    out = work / "extracted.csv"
    ops, releases = [], []
    for release in truth.versions:
        releases = releases + [(release, "engine", truth.corpus[release])]
        cwd = truth.files[release]

        def check(stdout, releases=releases):
            problems = [] if stdout == b"" else ["unexpected stdout"]
            return problems + checks.check_extract_file(out.read_bytes(), releases)

        argv = ["extract", "tree", "--version", release, "--package", "engine",
                "--output", os.path.relpath(out, cwd)]
        ops.append(Op(f"extract-{release}", argv, cwd, truth.sizes[release], check, [out]))
    ops[0].before = lambda: out.unlink(missing_ok=True)
    return ops


CLI_SCENARIOS = {"queries": queries_ops, "long-series": long_series_ops, "extract": extract_ops}
# workload -> the input scenarios (gen.GENERATORS) it generates and runs
WORKLOADS = {"sweep": ("sweep",), "cli": tuple(CLI_SCENARIOS)}


def cli_ops(truths: dict, work: Path) -> list[Op]:
    """One cycle of the CLI mix: each scenario's operations in turn, in its own directory."""
    return [op for name, truth in truths.items() for op in CLI_SCENARIOS[name](truth, work / name)]


class Outputs:
    """Remembers each operation's first outputs; later ones must match byte for byte."""

    def __init__(self):
        self.first: dict[str, bytes] = {}

    def check(self, key: str, data: bytes) -> list[str]:
        if self.first.setdefault(key, data) != data:
            return [f"{key}: output differs from its first invocation"]
        return []


def _snapshot(op: Op, stdout: bytes) -> bytes:
    return b"\0".join([stdout] + [p.read_bytes() for p in op.outputs])


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, key: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{key}: {p}" for p in problems[:3])


def _judge(op: Op, code: int, stdout: bytes, outputs: Outputs) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        return op.check(stdout) + outputs.check(op.key, _snapshot(op, stdout))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


# --- untraced: real processes -------------------------------------------------

class Processes:
    """Starts evometrics from ./src and measures each process from outside."""

    def __init__(self, root: Path, work: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PYTHONSTARTUP", None)
        self.stdout = work / "stdout"
        self.stderr = work / "stderr"
        self.peak_rss_kb = 0

    def run(self, args: list[str], cwd: Path) -> tuple[int, float, bytes]:
        """(exit code, wall seconds, stdout) of one process; its peak RSS joins the run's."""
        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(OP_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, wall, self.stdout.read_bytes()

    def cli(self, argv: list[str], cwd: Path):
        return self.run(["-m", "evometrics.cli", *argv], cwd)


def setup_walls(procs: Processes, work: Path, count: int) -> list[float]:
    """Wall times of ``count`` `evometrics --version` processes."""
    walls = []
    for _ in range(count):
        code, wall, out = procs.cli(["--version"], work)
        if code != 0 or not out.startswith(b"evometrics "):
            raise RuntimeError(f"evometrics --version failed with exit code {code}")
        walls.append(wall)
    return walls


def run_cli_untraced(ops: list[Op], procs: Processes, seconds: float, tally: Tally):
    outputs = Outputs()
    walls, consumed, cycles = [], 0, 0
    start = time.perf_counter()
    while sweep.more_cycles(start, cycles, seconds):
        for op in ops:
            op.before()
            code, wall, stdout = procs.cli(op.argv, op.cwd)
            walls.append(wall)
            consumed += op.input_bytes
            tally.record(op.key, _judge(op, code, stdout, outputs))
        cycles += 1
    return walls, consumed, sum(walls)


def run_sweep_untraced(truth, work: Path, procs: Processes, seconds: float, tally: Tally):
    report_path = work / "sweep-report.json"
    code, _, stdout = procs.run(
        [str(BENCH / "sweep.py"), "--manifest", str(truth.files["manifest"]),
         "--data", str(truth.files["data"]), "--seconds", str(seconds),
         "--report-out", str(report_path)], work)
    if code != 0:
        raise RuntimeError(f"sweep process failed with exit code {code}")
    timings = json.loads(stdout)
    verdicts = sweep_verdicts(truth, report_path.read_text(encoding="utf-8"))
    for digest in timings["sha256"]:
        repeat = [] if digest == timings["sha256"][0] else ["report differs from the first cycle"]
        record_sweep_cycle(tally, verdicts, repeat)
    consumed = truth.sizes["data"] * len(timings["cycle_s"])
    return timings["pipeline_s"], consumed, sum(timings["cycle_s"])


def sweep_verdicts(truth, text: str) -> dict:
    """Problems of each (package, metric) entry of one sweep report."""
    entries = {(e["package"], e["metric"]): e for e in json.loads(text)["results"]}
    return {
        pair: (checks.check_pipeline_entry(entries[pair], checks.Expected(truth, *pair, "gini"))
               if pair in entries else ["missing from the report"])
        for pair in gen.SWEEP_PAIRS
    }


def record_sweep_cycle(tally: Tally, verdicts: dict, repeat: list[str]) -> None:
    for pair, problems in verdicts.items():
        tally.record(f"sweep {pair}", problems + repeat)


# --- traced: in this process ----------------------------------------------------

def _in_process(op: Op):
    from evometrics import cli

    op.before()
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(op.cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(op.argv)
            wall = time.perf_counter() - start
    finally:
        os.chdir(here)
    return code, wall, out.getvalue().encode("utf-8")


def run_traced(workload: str, truths: dict, work: Path, seconds: float, tally: Tally) -> dict:
    import spans

    outputs = Outputs()
    if workload == "sweep":
        truth = truths["sweep"]
        verdicts = {}

        def one_cycle(tracer=None):
            if tracer is not None:
                tracer.run += 1
            text, _, wall = sweep.cycle(truth.files["manifest"], truth.files["data"])
            if not verdicts:
                verdicts.update(sweep_verdicts(truth, text))
            record_sweep_cycle(tally, verdicts, outputs.check("sweep", text.encode("utf-8")))
            return wall
    else:
        ops = cli_ops(truths, work)

        def one_cycle(tracer=None):
            wall = 0.0
            for op in ops:
                if tracer is not None:
                    tracer.run += 1
                code, op_wall, stdout = _in_process(op)
                wall += op_wall
                tally.record(op.key, _judge(op, code, stdout, outputs))
            return wall

    one_cycle()  # warm-up, so the untraced pass does not pay first-call costs alone
    untraced, cycles = 0.0, 0
    start = time.perf_counter()
    while sweep.more_cycles(start, cycles, seconds / 2):
        untraced += one_cycle()
        cycles += 1
    tracer = spans.Tracer()
    tracer.patch()
    try:
        traced = 0.0
        for _ in range(cycles):
            traced += one_cycle(tracer)
    finally:
        tracer.unpatch()
    tracer.write(work / "trace.jsonl")
    metrics = spans.layer_metrics(tracer.spans, cycles)
    metrics["trace.overhead_s"] = (traced - untraced) / cycles
    return metrics


# --- entry point ------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "evometrics" / "__init__.py").is_file():
        print("error: no evometrics sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    truths = {name: gen.generate(name, work / name / "inputs", args.seed)
              for name in WORKLOADS[args.workload]}
    tally = Tally()

    if args.trace:
        sys.path.insert(0, str(root / "src"))
        values = run_traced(args.workload, truths, work, args.seconds, tally)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        procs = Processes(root, work)
        # setup samples straddle the measured window, so they see the same machine
        setup = setup_walls(procs, work, SETUP_WARMUPS + SETUP_RUNS // 2)[SETUP_WARMUPS:]
        if args.workload == "sweep":
            samples, consumed, wall = run_sweep_untraced(truths["sweep"], work / "sweep", procs,
                                                         args.seconds, tally)
        else:
            ops = cli_ops(truths, work)
            samples, consumed, wall = run_cli_untraced(ops, procs, args.seconds, tally)
        setup += setup_walls(procs, work, SETUP_RUNS - SETUP_RUNS // 2)
        values = {
            "setup_s": statistics.median(setup),
            "query_s_p50": statistics.median(samples),
            "throughput_mb_s": consumed / 1e6 / wall,
            "peak_rss_mb": procs.peak_rss_kb * 1024 / 1e6,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print(f"query_s_p50 samples: {len(samples)}")
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_ratio = {tally.failed / max(tally.attempted, 1):.6g} fraction "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: determinism, checks that catch defects, a tiny smoke run.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import json
import math
import os
from pathlib import Path

import pytest

import checks
import gen
import run

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so a whole run takes about a second."""
    for name, value in {
        "SWEEP_ENTITIES": 6, "QUERIES_ENTITIES": 8, "LONG_RELEASES": 60,
        "EXTRACT_FILES": 4,
    }.items():
        monkeypatch.setattr(gen, name, value)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "SETUP_WARMUPS", 0)


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_generator_is_deterministic_per_seed(tiny, tmp_path, workload):
    gen.generate(workload, tmp_path / "a", 5)
    gen.generate(workload, tmp_path / "b", 5)
    gen.generate(workload, tmp_path / "c", 6)
    first = _tree(tmp_path / "a")
    assert first and first == _tree(tmp_path / "b")
    assert first != _tree(tmp_path / "c")


def test_sizes_do_not_depend_on_the_seed(tmp_path):
    sizes = [gen.generate("queries", tmp_path / str(s), s).sizes["data"] for s in (1, 2)]
    assert abs(sizes[0] - sizes[1]) < 0.01 * sizes[0]


def _cli(argv, cwd: Path) -> str:
    from evometrics import cli

    out = io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        os.chdir(here)
    return out.getvalue()


@pytest.fixture
def queries(tiny, tmp_path):
    truth = gen.generate("queries", tmp_path / "inputs", 3)
    return truth, {op.key: op for op in run.queries_ops(truth, tmp_path)}, tmp_path


def _perturb_json(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc["results"][0])
    return json.dumps(doc)


def test_trend_json_check_catches_a_perturbed_gini_s_and_variance(queries):
    truth, ops, work = queries
    text = _cli(ops["trend-gini-json"].argv, work)
    exp = checks.Expected(truth, gen.QUERIES_PACKAGES[0], "halstead_effort", "gini")
    assert checks.check_trend_json(text, exp) == []

    def gini_row(entry):
        entry["inequality"][3]["gini"] += 1e-6

    def gini_point(entry):
        entry["points"][3][1] += 1e-6

    def s(entry):
        entry["trend"]["s"] += 2

    def var_s(entry):
        entry["trend"]["var_s"] += 1.0

    def gaps(entry):
        entry["gaps"] = [truth.versions[0]]

    for edit in (gini_row, gini_point, s, var_s, gaps):
        assert checks.check_trend_json(_perturb_json(text, edit), exp), edit.__name__


def test_csv_checks_catch_perturbed_rows(queries):
    truth, ops, work = queries
    op = ops["inequality-csv"]
    text = _cli(op.argv, work)
    assert op.check(text.encode()) == []
    lines = text.splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)
    assert op.check("".join(lines[:2] + [",".join(fields)] + lines[3:]).encode())
    assert op.check("".join(lines[:-1]).encode())  # a dropped version row

    op = ops["trend-theil-csv-plot"]
    text = _cli(op.argv, work)
    assert op.check(text.encode()) == []
    header, row = text.splitlines()
    fields = row.split(",")
    fields[3] = str(int(fields[3]) + 2)  # S
    assert op.check(f"{header}\n{','.join(fields)}\n".encode())
    svg = work / "plot.svg"
    svg.write_bytes(svg.read_bytes()[:-20])
    assert op.check(text.encode())


def test_diversity_check_catches_a_wrong_count(queries):
    truth, ops, work = queries
    op = ops["diversity"]
    text = _cli(op.argv, work)
    assert op.check(text.encode()) == []

    def edit(entry):
        entry["categories"][0]["count"] += 1

    assert op.check(_perturb_json(text, edit).encode())


def test_trend_check_catches_the_wrong_p_value_method(queries):
    truth, ops, work = queries
    op = ops["trend-mean-short"]
    text = _cli(op.argv, work)
    assert op.check(text.encode()) == []

    def edit(entry):
        entry["trend"]["method"] = "normal"

    assert op.check(_perturb_json(text, edit).encode())


def test_pairwise_s_and_variance_match_hand_counts():
    assert checks.pairwise_s([1.0, 3.0, 2.0, 4.0]) == (4, 0)
    assert checks.pairwise_s([1.0, 1.0 + 1e-12, 0.0]) == (-1, 1)
    # two ties of size 2 in n = 5: [5*4*15 - 2*(2*1*9)] / 18
    assert checks.mk_variance([1.0, 1.0, 2.0, 3.0, 3.0]) == (300 - 36) / 18


def test_pairwise_gini_matches_the_single_holder_bound():
    import numpy as np

    assert math.isclose(checks.pairwise_gini(np.array([0.0, 0.0, 0.0, 5.0])), 3 / 4)
    assert checks.pairwise_gini(np.array([2.0, 2.0, 2.0])) == 0.0


def test_extract_check_catches_dropped_rows_extra_headers_and_wrong_values(tiny, tmp_path):
    truth = gen.generate("extract", tmp_path / "inputs", 4)
    ops = run.extract_ops(truth, tmp_path)
    for op in ops:
        op.before()
        assert _cli(op.argv, op.cwd) == ""
        assert op.check(b"") == []
    out = tmp_path / "extracted.csv"
    good = out.read_bytes()
    lines = good.decode().splitlines(keepends=True)
    perturbed = {
        "dropped row": "".join(lines[:5] + lines[6:]),
        "second header": "".join(lines + lines[:1]),
        "no trailing newline": good.decode()[:-1],
        "value off by one": "".join(lines[:1] + [lines[1].replace(".0\n", "1.0\n")] + lines[2:]),
        "other release label": good.decode().replace("A,engine", "Z,engine", 1),
    }
    for label, text in perturbed.items():
        out.write_text(text)
        assert ops[-1].check(b""), label


def test_repeated_outputs_must_match_byte_for_byte():
    outputs = run.Outputs()
    assert outputs.check("op", b"same") == []
    assert outputs.check("op", b"same") == []
    assert outputs.check("op", b"diff")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_smoke_run(tiny, tmp_path, monkeypatch, capsys, workload, trace):
    (tmp_path / "src").symlink_to(REPO / "src")
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", workload, "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == names
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""

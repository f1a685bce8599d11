"""End-to-end tests for the command-line interface and its exit-code contract."""

import errno
import gc
import hashlib
import json
import marshal
import math
import os
import random
import stat
import subprocess
import sys
import tempfile
import threading
from array import array
from collections import Counter
from pathlib import Path

import pytest

from evometrics import cli, dataset, gini, halstead, load_csv, load_manifest, pietra, run_pipeline
from evometrics.cli import main
from evometrics.dataset import MetricsDataset, slice_distribution, version_slices
from evometrics.errors import AnalysisError

HEADER = "version,package,entity,metric,value\n"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
# every character str.splitlines breaks a line at, so load_csv would split a row there
LINE_BREAKS = ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write_inputs(tmp_path, versions, rows, name="data"):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"versions": versions}))
    data = tmp_path / f"{name}.csv"
    data.write_text(HEADER + "".join(f"{r}\n" for r in rows))
    return str(manifest), str(data)


def read_fifo(tmp_path):
    """A FIFO in ``tmp_path``, its reader thread and the list the thread appends its read to."""
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    return fifo, reader, received


def forbid_replace(monkeypatch):
    # a device or FIFO must never be renamed over, which would also guard /dev/null
    def replace(src, dst):
        raise AssertionError(f"{src} renamed over {dst}")

    monkeypatch.setattr(os, "replace", replace)


@pytest.fixture
def monotone_inputs(tmp_path):
    # spread widens version over version: the gini series rises strictly
    versions = [f"v{i + 1:02d}" for i in range(12)]
    rows = []
    for k, version in enumerate(versions):
        values = [1, 1 + k, 1 + 2 * k, 1 + 3 * k]
        rows.extend(f"{version},p,e{j},m,{v}" for j, v in enumerate(values))
    return write_inputs(tmp_path, versions, rows)


class TestInequalityCommand:
    def test_csv_row_carries_hand_values(self, tmp_path, capsys):
        manifest, data = write_inputs(
            tmp_path, ["v1"], [f"v1,p,e{j},m,{v}" for j, v in enumerate([1, 2, 3, 4])]
        )
        code, out, _ = run_cli(
            ["inequality", "--manifest", manifest, "--data", data,
             "--package", "p", "--metric", "m", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "version,n,gini,pietra,theil,atkinson,epsilon"
        fields = lines[1].split(",")
        assert fields[0] == "v1"
        assert fields[1] == "4"
        assert float(fields[2]) == 0.25
        assert float(fields[3]) == pytest.approx(0.2, abs=1e-15)

    def test_json_round_trips_exactly(self, tmp_path, capsys):
        manifest, data = write_inputs(
            tmp_path, ["v1", "v2"],
            [f"v1,p,e{j},m,{v}" for j, v in enumerate([1, 2, 3, 4])]
            + [f"v2,p,e{j},m,{v}" for j, v in enumerate([5, 5, 6, 20])],
        )
        code, out, _ = run_cli(
            ["inequality", "--manifest", manifest, "--data", data,
             "--package", "p", "--metric", "m"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"tool_version", "inputs", "results", "warnings"}
        assert {"package", "metric", "statistic", "points", "inequality", "trend"} <= set(doc["results"][0])
        rows = doc["results"][0]["inequality"]
        assert rows[0]["gini"] == gini([1, 2, 3, 4])
        assert rows[0]["pietra"] == pietra([1, 2, 3, 4])
        assert rows[1]["gini"] == gini([5, 5, 6, 20])
        assert doc["inputs"]["data"]["path"] == data

    @pytest.mark.parametrize("label", ["", "v1 ", "\tv1", "v,1", "v1\n", "v\u20281"])
    def test_manifest_label_no_csv_row_can_carry_exits_2(self, tmp_path, capsys, label):
        manifest, data = write_inputs(tmp_path, [label, "v2"], ["v2,p,e,m,1"])
        code, out, err = run_cli(
            ["inequality", "--manifest", manifest, "--data", data,
             "--package", "p", "--metric", "m"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == f"error: malformed manifest: version {label!r} cannot be a CSV label\n"

    def test_missing_data_file_exits_2_naming_the_path(self, tmp_path, capsys):
        manifest, _ = write_inputs(tmp_path, ["v1"], ["v1,p,e,m,1"])
        missing = str(tmp_path / "nope.csv")
        code, _, err = run_cli(
            ["inequality", "--manifest", manifest, "--data", missing,
             "--package", "p", "--metric", "m"],
            capsys,
        )
        assert code == 2
        assert "nope.csv" in err

    def test_data_file_not_utf8_exits_2_naming_the_path(self, tmp_path, capsys):
        manifest, data = write_inputs(tmp_path, ["v1"], ["v1,p,e,m,1"])
        Path(data).write_bytes(HEADER.encode() + b"v1,p,e,m,\xff\n")
        code, out, err = run_cli(
            ["inequality", "--manifest", manifest, "--data", data,
             "--package", "p", "--metric", "m"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == (f"error: cannot decode {data} as UTF-8: 'utf-8' codec can't decode "
                       "byte 0xff in position 45: invalid start byte\n")

    @pytest.mark.parametrize("command", ["inequality", "trend"])
    @pytest.mark.parametrize("epsilon", ["inf", "-inf", "nan", "0"])
    def test_epsilon_not_positive_and_finite_is_a_usage_error(
        self, monotone_inputs, capsys, command, epsilon
    ):
        # a report at inf would hold "epsilon": Infinity, which is not JSON (RFC 8259)
        manifest, data = monotone_inputs
        code, out, err = run_cli(
            [command, "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", f"--epsilon={epsilon}"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.endswith(": error: argument --epsilon: epsilon must be positive and finite\n")

    def test_empty_selection_exits_1(self, tmp_path, capsys):
        manifest, data = write_inputs(tmp_path, ["v1"], ["v1,p,e,m,1"])
        code, _, err = run_cli(
            ["inequality", "--manifest", manifest, "--data", data,
             "--package", "absent", "--metric", "m"],
            capsys,
        )
        assert code == 1
        assert "empty selection" in err

    def test_degenerate_slice_exits_1_naming_the_version(self, tmp_path, capsys):
        manifest, data = write_inputs(tmp_path, ["v1"], ["v1,p,a,m,0", "v1,p,b,m,0"])
        code, _, err = run_cli(
            ["inequality", "--manifest", manifest, "--data", data,
             "--package", "p", "--metric", "m"],
            capsys,
        )
        assert code == 1
        assert "v1" in err and "degenerate mean" in err

    def test_underflowing_ratio_is_scored(self, tmp_path, capsys):
        manifest, data = write_inputs(
            tmp_path, ["v1", "v2"], ["v1,p,a,m,1", "v1,p,b,m,2", "v2,p,a,m,5e-324", "v2,p,b,m,1e300"]
        )
        code, out, err = run_cli(
            ["inequality", "--manifest", manifest, "--data", data,
             "--package", "p", "--metric", "m"],
            capsys,
        )
        assert (code, err) == (0, "")
        row = json.loads(out)["results"][0]["inequality"][1]
        # the exact values to about 300 digits: 5e-324 / mu underflows, its log does not
        assert (row["version"], row["theil"], row["atkinson"]) == ("v2", math.log(2.0), 0.5)

    def test_drop_zeros_flag(self, tmp_path, capsys):
        manifest, data = write_inputs(
            tmp_path, ["v1"], ["v1,p,a,m,0", "v1,p,b,m,1", "v1,p,c,m,2", "v1,p,d,m,3"]
        )
        base = ["inequality", "--manifest", manifest, "--data", data,
                "--package", "p", "--metric", "m"]
        code, out, _ = run_cli(base, capsys)
        assert code == 0
        assert json.loads(out)["results"][0]["inequality"][0]["gini"] == gini([0, 1, 2, 3])
        code, out, _ = run_cli(base + ["--drop-zeros"], capsys)
        assert code == 0
        row = json.loads(out)["results"][0]["inequality"][0]
        assert row["gini"] == gini([1, 2, 3])
        assert row["n"] == 3


class TestTrendCommand:
    def test_upward_decision_on_monotone_series(self, monotone_inputs, capsys):
        manifest, data = monotone_inputs
        code, out, _ = run_cli(
            ["trend", "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", "--statistic", "gini", "--alpha", "0.01"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        trend = doc["results"][0]["trend"]
        assert trend["decision"] == "upward"
        assert trend["alpha"] == 0.01
        assert len(doc["results"][0]["points"]) == 12

    def test_ci_exit_flags_detection(self, monotone_inputs, capsys):
        manifest, data = monotone_inputs
        code, _, _ = run_cli(
            ["trend", "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", "--statistic", "gini", "--ci-exit"],
            capsys,
        )
        assert code == 3

    def test_ci_exit_quiet_without_detection(self, tmp_path, capsys):
        versions = [f"v{i}" for i in range(1, 7)]
        rows = [f"{v},p,e{j},m,{x}" for v in versions for j, x in enumerate([1, 2])]
        manifest, data = write_inputs(tmp_path, versions, rows)
        code, out, _ = run_cli(
            ["trend", "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", "--statistic", "gini", "--ci-exit"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["results"][0]["trend"]["decision"] == "no_trend_not_rejected"

    def test_short_series_exits_1_with_count(self, tmp_path, capsys):
        versions = ["v1", "v2", "v3"]
        rows = [f"{v},p,e{j},m,{x}" for v in versions for j, x in enumerate([1, 2])]
        manifest, data = write_inputs(tmp_path, versions, rows)
        code, _, err = run_cli(
            ["trend", "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", "--statistic", "gini"],
            capsys,
        )
        assert code == 1
        assert "3 points" in err

    @pytest.mark.parametrize("statistic, message", [
        ("mean", "version 'v1': sum beyond the float range"),
        ("median", "version 'v1': median beyond the float range"),
    ])
    def test_average_beyond_the_float_range_exits_1_naming_the_version(
        self, tmp_path, capsys, statistic, message
    ):
        versions = ["v1", "v2", "v3", "v4"]
        rows = [f"{v},p,e{j},m,1e308" for v in versions for j in range(2)]
        manifest, data = write_inputs(tmp_path, versions, rows)
        code, out, err = run_cli(
            ["trend", "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", "--statistic", statistic],
            capsys,
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_plot_beyond_the_float_range_exits_1_and_writes_no_file(self, tmp_path, capsys):
        versions = ["v1", "v2", "v3", "v4"]
        rows = [f"{v},p,e,m,{x}" for v, x in zip(versions, ["-1e308", "1e308", "0", "5"])]
        manifest, data = write_inputs(tmp_path, versions, rows)
        plot = tmp_path / "plot.svg"
        code, out, err = run_cli(
            ["trend", "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", "--statistic", "raw", "--plot", str(plot)],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == "error: plot range beyond the float range: nothing to plot\n"
        assert not plot.exists()

    def test_alpha_out_of_range_is_a_usage_error(self, monotone_inputs, capsys):
        manifest, data = monotone_inputs
        code, _, err = run_cli(
            ["trend", "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", "--alpha", "1.5"],
            capsys,
        )
        assert code == 2
        assert "alpha" in err

    def test_help_shares_the_series_options_of_inequality(self, capsys):
        texts = ("JSON manifest declaring version order", "long-format metrics CSV",
                 "Atkinson aversion parameter (default 0.5)")
        for command in ("inequality", "trend"):
            code, out, _ = run_cli([command, "--help"], capsys)
            assert code == 0
            shown = " ".join(out.split())  # help lines wrap with the terminal width
            for text in texts:
                assert text in shown, (command, text)

    def test_csv_format_single_row(self, monotone_inputs, capsys):
        manifest, data = monotone_inputs
        code, out, _ = run_cli(
            ["trend", "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", "--statistic", "mean", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("package,metric,statistic,s,var_s,z,tau")
        assert lines[1].split(",")[2] == "mean"

    def test_raw_statistic_requires_single_records(self, tmp_path, capsys):
        versions = [f"v{i}" for i in range(1, 6)]
        rows = [f"{v},p,e,m,{i}.0" for i, v in enumerate(versions)]
        manifest, data = write_inputs(tmp_path, versions, rows)
        code, out, _ = run_cli(
            ["trend", "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", "--statistic", "raw", "--alpha", "0.05"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["inequality"] is None
        assert doc["results"][0]["trend"]["method"] == "exact"

    def test_plot_written_and_deterministic(self, monotone_inputs, tmp_path, capsys):
        manifest, data = monotone_inputs
        plot = tmp_path / "series.svg"
        argv = ["trend", "--manifest", manifest, "--data", data, "--package", "p",
                "--metric", "m", "--statistic", "gini", "--plot", str(plot)]
        code, first_out, _ = run_cli(argv, capsys)
        assert code == 0
        first_svg = plot.read_bytes()
        code, second_out, _ = run_cli(argv, capsys)
        assert code == 0
        assert plot.read_bytes() == first_svg
        assert second_out == first_out
        assert first_svg.startswith(b"<svg")

    def test_unwritable_plot_path_exits_2(self, monotone_inputs, tmp_path, capsys):
        manifest, data = monotone_inputs
        code, _, err = run_cli(
            ["trend", "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", "--plot", str(tmp_path / "no" / "plot.svg")],
            capsys,
        )
        assert code == 2
        assert "cannot write" in err

    def test_plot_through_a_symlink_replaces_its_target_keeping_its_bits(
        self, monotone_inputs, tmp_path, capsys
    ):
        manifest, data = monotone_inputs
        target, link = tmp_path / "plot.svg", tmp_path / "link.svg"
        target.write_text("an older, longer plot " * 1000)
        target.chmod(0o640)
        link.symlink_to(target.name)
        argv = ["trend", "--manifest", manifest, "--data", data, "--package", "p",
                "--metric", "m"]
        assert run_cli([*argv, "--plot", str(link)], capsys)[0] == 0
        assert run_cli([*argv, "--plot", str(tmp_path / "plain.svg")], capsys)[0] == 0
        assert link.is_symlink()
        assert target.read_bytes() == (tmp_path / "plain.svg").read_bytes()
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_failed_plot_write_leaves_the_old_plot(self, monotone_inputs, tmp_path, capsys,
                                                   monkeypatch):
        manifest, data = monotone_inputs
        plot = tmp_path / "plot.svg"
        plot.write_text("old plot")

        def no_space(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", no_space)
        code, out, err = run_cli(
            ["trend", "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", "--plot", str(plot)],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {plot}: No space left on device\n"
        assert plot.read_text() == "old plot"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "manifest.json",
                                                              "plot.svg"]

    def test_plot_to_a_directory_exits_2(self, monotone_inputs, tmp_path, capsys):
        manifest, data = monotone_inputs
        folder = tmp_path / "plots"
        folder.mkdir()
        code, out, err = run_cli(
            ["trend", "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", "--plot", str(folder)],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {folder}: Is a directory\n"
        assert list(folder.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "manifest.json",
                                                              "plots"]

    def test_plot_to_a_device_or_a_fifo_is_written_in_place(self, monotone_inputs, tmp_path,
                                                            capsys, monkeypatch):
        manifest, data = monotone_inputs
        argv = ["trend", "--manifest", manifest, "--data", data, "--package", "p",
                "--metric", "m"]
        plain = tmp_path / "plain.svg"
        code, out, _ = run_cli([*argv, "--plot", str(plain)], capsys)
        assert code == 0
        fifo, reader, received = read_fifo(tmp_path)
        forbid_replace(monkeypatch)
        assert run_cli([*argv, "--plot", os.devnull], capsys) == (0, out, "")
        assert run_cli([*argv, "--plot", str(fifo)], capsys) == (0, out, "")
        reader.join(timeout=10)
        assert received == [plain.read_bytes()]
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "manifest.json",
                                                              "out.fifo", "plain.svg"]

    def test_plot_label_xml_cannot_carry_exits_1_and_writes_no_file(self, tmp_path, capsys):
        versions = ["v1", "v2", "v3", "v\x01"]
        rows = [f"{v},p,e,m,{x}" for x, v in enumerate(versions)]
        manifest, data = write_inputs(tmp_path, versions, rows)
        plot = tmp_path / "plot.svg"
        code, out, err = run_cli(
            ["trend", "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", "--statistic", "raw", "--plot", str(plot)],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == "error: cannot plot label 'v\\x01': XML cannot carry U+0001\n"
        assert not plot.exists()

    def test_gap_versions_annotated_in_plot(self, tmp_path, capsys):
        versions = [f"v{i}" for i in range(1, 8)]
        rows = [f"{v},p,e{j},m,{x}" for v in versions if v != "v4"
                for j, x in enumerate([1, 2, 4])]
        manifest, data = write_inputs(tmp_path, versions, rows)
        plot = tmp_path / "gappy.svg"
        code, out, _ = run_cli(
            ["trend", "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", "--statistic", "mean", "--plot", str(plot)],
            capsys,
        )
        assert code == 0
        assert "gaps (no data): v4" in plot.read_text()
        assert json.loads(out)["results"][0]["gaps"] == ["v4"]

    def test_matches_library_pipeline(self, monotone_inputs, capsys):
        manifest, data = monotone_inputs
        code, out, _ = run_cli(
            ["trend", "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", "--statistic", "gini"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        with open(manifest) as fh:
            order = load_manifest(fh.read())
        with open(data) as fh:
            ds = load_csv(fh.read(), order)
        expected = run_pipeline(ds, "p", "m", "gini", alpha=0.01)
        assert doc["results"][0]["trend"]["p_two_sided"] == expected.trend.p_two_sided
        assert [tuple(pt) for pt in doc["results"][0]["points"]] == list(expected.series.points)


class TestIngestionErrors:
    @pytest.mark.parametrize(
        "rows,fragment",
        [
            (["v1,p,e,m,1", "v9,p,e,m,2"], "unknown version"),
            (["v1,p,e,m,1", "v1,p,e,m,2"], "duplicate record"),
            (["v1,p,e,m,oops"], "cannot parse value"),
            (["v1,p,e,m"], "expected 5"),
        ],
    )
    def test_each_error_exits_2_with_row_number(self, tmp_path, capsys, rows, fragment):
        manifest, data = write_inputs(tmp_path, ["v1"], rows)
        code, _, err = run_cli(
            ["inequality", "--manifest", manifest, "--data", data,
             "--package", "p", "--metric", "m"],
            capsys,
        )
        assert code == 2
        assert fragment in err
        assert "line" in err

    def test_malformed_manifest_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{broken")
        data = tmp_path / "d.csv"
        data.write_text(HEADER + "v1,p,e,m,1\n")
        code, _, err = run_cli(
            ["inequality", "--manifest", str(manifest), "--data", str(data),
             "--package", "p", "--metric", "m"],
            capsys,
        )
        assert code == 2
        assert "manifest" in err


class TestDiversityCommand:
    @pytest.fixture
    def categories_data(self, tmp_path):
        # four entities; the "kind" metric takes value 1 twice, 2 once, 3 once
        data = tmp_path / "div.csv"
        rows = ["v1,p,a,kind,1", "v1,p,b,kind,1", "v1,p,c,kind,2", "v1,p,d,kind,3"]
        data.write_text(HEADER + "".join(f"{r}\n" for r in rows))
        return str(data)

    def test_counts_211_fixture(self, categories_data, capsys):
        code, out, _ = run_cli(
            ["diversity", "--data", categories_data, "--version", "v1",
             "--package", "p", "--category-metric", "kind"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        result = doc["results"][0]
        assert result["diversity"]["simpson"] == 0.375
        assert result["diversity"]["richness"] == 3
        assert result["diversity"]["shannon"] == pytest.approx(1.0397207708399179, abs=1e-12)
        assert result["diversity"]["evenness"] == pytest.approx(0.946394630357186, abs=1e-12)
        assert [c["count"] for c in result["categories"]] == [2, 1, 1]

    def test_uniform_and_single_category(self, tmp_path, capsys):
        data = tmp_path / "u.csv"
        rows = [f"v1,p,e{j},kind,{j}" for j in range(4)] + ["v1,q,x,kind,7"]
        data.write_text(HEADER + "".join(f"{r}\n" for r in rows))
        code, out, _ = run_cli(
            ["diversity", "--data", str(data), "--version", "v1",
             "--package", "p", "--category-metric", "kind", "--format", "csv"],
            capsys,
        )
        assert code == 0
        row = dict(zip(*(line.split(",") for line in out.strip().splitlines())))
        assert float(row["shannon"]) == pytest.approx(1.3862943611198906, abs=1e-12)
        assert float(row["simpson"]) == 0.25

        code, out, _ = run_cli(
            ["diversity", "--data", str(data), "--version", "v1",
             "--package", "q", "--category-metric", "kind"],
            capsys,
        )
        assert code == 0
        indices = json.loads(out)["results"][0]["diversity"]
        assert indices["shannon"] == 0.0
        assert indices["evenness"] == 1.0

    def test_empty_ecosystem_exits_1(self, categories_data, capsys):
        code, _, err = run_cli(
            ["diversity", "--data", categories_data, "--version", "v9",
             "--package", "p", "--category-metric", "kind"],
            capsys,
        )
        assert code == 1
        assert "empty ecosystem" in err

    def test_row_order_does_not_change_the_output(self, tmp_path, capsys):
        # categories of unequal size, so the float sums depend on summation order
        rows = [f"v1,p,e{j:02d},kind,{j % 7 + (j % 3) * 0.5}" for j in range(60)]
        outputs = set()
        for seed in range(8):
            shuffled = list(rows)
            random.Random(seed).shuffle(shuffled)
            data = tmp_path / f"div{seed}.csv"
            data.write_text(HEADER + "".join(f"{r}\n" for r in shuffled))
            code, out, _ = run_cli(
                ["diversity", "--data", str(data), "--version", "v1",
                 "--package", "p", "--category-metric", "kind", "--format", "csv"],
                capsys,
            )
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_negative_zero_is_the_zero_category(self, tmp_path, capsys):
        data = tmp_path / "z.csv"
        data.write_text(HEADER + "v1,p,a,kind,0\nv1,p,b,kind,-0\nv1,p,c,kind,1\n")
        code, out, _ = run_cli(
            ["diversity", "--data", str(data), "--version", "v1",
             "--package", "p", "--category-metric", "kind"],
            capsys,
        )
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["diversity"]["richness"] == 2
        assert result["categories"] == [{"category": "0.0", "count": 2},
                                        {"category": "1.0", "count": 1}]


class TestExtractCommand:
    def test_single_file_seven_records(self, tmp_path, capsys):
        src = tmp_path / "f.cc"
        src.write_text("a = b + c;\n")
        code, out, err = run_cli(
            ["extract", str(src), "--version", "v1", "--package", "p"],
            capsys,
        )
        assert code == 0
        assert err == ""
        lines = out.strip().splitlines()
        assert lines[0] == "version,package,entity,metric,value"
        assert len(lines) == 8
        effort = [ln for ln in lines if ",halstead_effort," in ln]
        assert len(effort) == 1
        assert float(effort[0].rsplit(",", 1)[1]) == pytest.approx(23.264662506490403, abs=1e-4)

    def test_output_appends_across_versions(self, tmp_path, capsys):
        src = tmp_path / "f.cc"
        src.write_text("a = b + c;\n")
        out_csv = tmp_path / "dataset.csv"
        for version in ("v1", "v2"):
            code, _, _ = run_cli(
                ["extract", str(src), "--version", version, "--package", "p",
                 "--output", str(out_csv)],
                capsys,
            )
            assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "version,package,entity,metric,value"
        assert len(lines) == 15
        ds = load_csv(out_csv.read_text(), ["v1", "v2"])
        assert len(ds.records) == 14

    def test_repeated_extract_is_refused_and_leaves_the_file_unchanged(self, tmp_path, capsys):
        first, second = tmp_path / "f.cc", tmp_path / "g.cc"
        first.write_text("a = b + c;\n")
        second.write_text("x = y;\n")
        out_csv = tmp_path / "dataset.csv"
        for src in (first, second):  # one release split across two runs
            code, _, _ = run_cli(
                ["extract", str(src), "--version", "v1", "--package", "p",
                 "--output", str(out_csv)],
                capsys,
            )
            assert code == 0
        before = out_csv.read_bytes()
        code, _, err = run_cli(
            ["extract", str(first), "--version", "v1", "--package", "p",
             "--output", str(out_csv)],
            capsys,
        )
        assert code == 2
        assert str(out_csv) in err
        assert repr(("v1", "p", first.as_posix())) in err
        assert out_csv.read_bytes() == before
        assert len(load_csv(before.decode(), ["v1"]).records) == 14

    def test_append_after_missing_trailing_newline_starts_a_new_row(self, tmp_path, capsys):
        src = tmp_path / "f.cc"
        src.write_text("a = b + c;\n")
        out_csv = tmp_path / "dataset.csv"
        out_csv.write_text(HEADER + "v1,p,x,m,1")  # last row not terminated
        code, _, _ = run_cli(
            ["extract", str(src), "--version", "v2", "--package", "p",
             "--output", str(out_csv)],
            capsys,
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[1] == "v1,p,x,m,1"
        assert len(lines) == 9
        ds = load_csv(out_csv.read_text(), ["v1", "v2"])
        assert len(ds.records) == 8

    def test_append_to_a_large_file_builds_no_record(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "f.cc"
        src.write_text("a = b + c;\n")
        out_csv = tmp_path / "dataset.csv"
        out_csv.write_text(HEADER + "".join(f"v0,p,src/f{i}.c,m{i % 3},{i}\n"
                                            for i in range(30_000)))  # many chunks
        loaded = []

        def keeping(*args):  # holds each dataset, so records built from it would stay alive
            loaded.append(load_csv(*args))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_csv", keeping)
        before = live_records()
        argv = ["extract", str(src), "--version", "v1", "--package", "p", "--output", str(out_csv)]
        assert run_cli(argv, capsys)[0] == 0
        appended = out_csv.read_bytes()
        code, _, err = run_cli(argv, capsys)  # the same release again: a key the file holds
        assert code == 2
        assert err == (f"error: cannot append to {out_csv}: it already holds records for "
                       f"{('v1', 'p', src.as_posix())!r}\n")
        assert out_csv.read_bytes() == appended
        assert len(loaded) == 4 and not any("records" in vars(ds) for ds in loaded)
        assert live_records() == before
        assert len(load_csv(appended.decode(), ["v0", "v1"]).records) == 30_007

    def test_append_to_foreign_header_exits_2_naming_the_file(self, tmp_path, capsys):
        src = tmp_path / "f.cc"
        src.write_text("a = b;\n")
        out_csv = tmp_path / "other.csv"
        out_csv.write_text("foo,bar\n1,2\n")
        code, _, err = run_cli(
            ["extract", str(src), "--version", "v1", "--package", "p",
             "--output", str(out_csv)],
            capsys,
        )
        assert code == 2
        assert str(out_csv) in err and "header" in err
        assert out_csv.read_text() == "foo,bar\n1,2\n"

    @pytest.mark.parametrize("target, refusal", [
        (HEADER.encode() + b"v1,p,f.cc\n", "line 2: expected 5 comma-separated fields, got 3"),
        (HEADER.encode() + b"v0,p,x,m,1\nv0,p,x,m,2\n",
         "line 3: duplicate record for ('v0', 'p', 'x', 'm')"),
        (HEADER.encode() + b"v0,p,x,m,1\n\nv0,p,y,m,nan\n", "line 4: non-finite value 'nan'"),
        (HEADER.encode() + b"v0,p,x,m,1\nv0,p,\xff,m,1\n", "line 3: 'utf-8' codec can't decode"),
    ], ids=["field count", "duplicate", "nan", "not utf-8"])
    def test_append_to_a_target_load_csv_refuses_exits_2_naming_the_file_and_line(
        self, tmp_path, capsys, target, refusal
    ):
        src = tmp_path / "f.cc"
        src.write_text("a = b;\n")
        out_csv = tmp_path / "dataset.csv"
        out_csv.write_bytes(target)
        code, out, err = run_cli(
            ["extract", str(src), "--version", "v1", "--package", "p",
             "--output", str(out_csv)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot append to {out_csv}: {refusal}")
        assert out_csv.read_bytes() == target
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.csv", "f.cc"]

    def test_padded_version_repeating_a_key_is_refused_and_leaves_the_file_unchanged(
        self, tmp_path, capsys
    ):
        src = tmp_path / "f.cc"
        src.write_text("a = b + c;\n")
        out_csv = tmp_path / "dataset.csv"
        argv = ["extract", str(src), "--package", "p", "--output", str(out_csv)]
        assert run_cli([*argv, "--version", "v1"], capsys)[0] == 0
        before = out_csv.read_bytes()
        code, _, err = run_cli([*argv, "--version", " v1"], capsys)
        assert code == 2
        assert f"cannot append to {out_csv}: it already holds records for" in err
        assert out_csv.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.csv", "f.cc"]

    @pytest.mark.parametrize("output", ["dataset.csv", "-"])
    def test_empty_package_label_is_refused_before_a_byte_is_written(
        self, tmp_path, capsys, output
    ):
        src = tmp_path / "f.cc"
        src.write_text("a = b + c;\n")
        target = str(tmp_path / output) if output != "-" else output
        code, out, err = run_cli(
            ["extract", str(src), "--version", "v1", "--package", "", "--output", target],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: extracted rows, line 2: empty label field\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.cc"]

    def test_per_file_failures_are_reported_when_the_write_is_refused(self, tmp_path, capsys):
        src = tmp_path / "f.cc"
        src.write_text("a = b + c;\n")
        missing = str(tmp_path / "missing.cc")
        code, out, err = run_cli(
            ["extract", str(src), missing, "--version", "v1", "--package", ""],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == (f"error: {missing}: not found\n"
                       "error: extracted rows, line 2: empty label field\n")

    def test_entities_that_strip_to_one_another_are_refused(self, tmp_path, capsys):
        for name in ("g.cc", "g.cc "):
            (tmp_path / name).write_text("a = b + c;\n")
        code, out, err = run_cli(
            ["extract", str(tmp_path / "g.cc"), str(tmp_path / "g.cc "),
             "--version", "v1", "--package", "p"],
            capsys,
        )
        assert code == 2
        assert out == ""
        entity = (tmp_path / "g.cc").as_posix()
        assert err.startswith(f"error: extracted rows, line 9: duplicate record for ('v1', 'p', "
                              f"{entity!r}, ")

    def test_directory_traversal_sorted(self, tmp_path, capsys):
        tree = tmp_path / "srcs"
        (tree / "sub").mkdir(parents=True)
        (tree / "b.cc").write_text("x = y;\n")
        (tree / "a.cc").write_text("u = w;\n")
        (tree / "sub" / "c.hh").write_text("int n;\n")
        (tree / "notes.txt").write_text("not source\n")
        code, out, _ = run_cli(
            ["extract", str(tree), "--version", "v1", "--package", "p"],
            capsys,
        )
        assert code == 0
        entities = [line.split(",")[2] for line in out.strip().splitlines()[1:]]
        assert entities == sorted(entities)
        assert not any(e.endswith("notes.txt") for e in entities)

    def test_traversal_finds_what_a_recursive_glob_finds(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name in ("t/b.c", "t/a.cc", "t/.hidden.h", "t/sub/deep/c.hh", "t/sub/n.txt",
                     "outside/o.c", "t/z/y.c"):
            Path(name).parent.mkdir(parents=True, exist_ok=True)
            Path(name).write_text("x = y;\n")
        Path("t/dir.c").mkdir()  # a folder with a source suffix is no file
        Path("t/link.c").symlink_to("../outside/o.c")  # a symlink to a file is a file
        Path("t/broken.c").symlink_to("missing.c")
        Path("t/outlink").symlink_to("../outside", target_is_directory=True)  # not walked
        os.mkfifo("t/fifo.c")
        for raw in ("t", "t/", "./t", str(tmp_path / "t")):
            files, warnings, failures = cli._discover_sources([raw])
            found = sorted(p for p in Path(raw).rglob("*")
                           if p.is_file() and p.suffix in cli.SOURCE_SUFFIXES)
            assert (files, warnings, failures) == (found, [], []), raw
            assert Path(raw, "link.c") in files and Path(raw, "outlink", "o.c") not in files

    @pytest.mark.parametrize("unlisted", ["sub", "."])
    def test_a_folder_that_cannot_be_listed_is_an_error(self, tmp_path, capsys, monkeypatch,
                                                        unlisted):
        tree = tmp_path / "tree"
        (tree / "sub").mkdir(parents=True)
        (tree / "a.c").write_text("a = b + c;\n")
        (tree / "sub" / "b.c").write_text("x = y;\n")
        argv = ["--version", "v1", "--package", "p"]
        rows = run_cli(["extract", str(tree / "a.c"), *argv], capsys)[1]
        if unlisted == ".":
            rows = HEADER
        real_scandir = os.scandir
        closed = tree / unlisted

        def scandir(path="."):  # as for a folder without read permission, which root ignores
            if Path(path) == closed:
                raise PermissionError(errno.EACCES, "Permission denied", os.fspath(path))
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        code, out, err = run_cli(["extract", str(tree), *argv], capsys)
        shown = Path(os.path.normpath(closed)).as_posix()
        assert (code, out, err) == (2, rows, f"error: {shown}: cannot list: Permission denied\n")

    def test_file_named_twice_is_extracted_once(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        tree = Path("t")
        tree.mkdir()
        (tree / "a.c").write_text("a = b + c;\n")
        (tree / "b.c").write_text("x = y;\n")
        code, out, _ = run_cli(
            ["extract", "t", "t/a.c", "./t/a.c", "t/b.c", "--version", "v1", "--package", "p",
             "--output", "data.csv"],
            capsys,
        )
        assert code == 0
        ds = load_csv(Path("data.csv").read_text(), ["v1"])
        assert Counter(r.entity for r in ds.records) == {"t/a.c": 7, "t/b.c": 7}

    @pytest.mark.parametrize("second", ["t/../t/a.c", "u/a.c"], ids=["dotdot", "symlink"])
    def test_file_reached_by_two_spellings_is_extracted_once(
        self, tmp_path, capsys, monkeypatch, second
    ):
        monkeypatch.chdir(tmp_path)
        Path("t").mkdir()
        Path("t/a.c").write_text("a = b + c;\n")
        Path("u").symlink_to("t", target_is_directory=True)
        code, _, _ = run_cli(
            ["extract", "t", second, "--version", "v1", "--package", "p",
             "--output", "data.csv"],
            capsys,
        )
        assert code == 0
        ds = load_csv(Path("data.csv").read_text(), ["v1"])
        assert Counter(r.entity for r in ds.records) == {"t/a.c": 7}

    def test_byte_order_mark_is_not_source(self, tmp_path, capsys, monkeypatch):
        # with the BOM kept, "#include" on line 1 lexed as code: "\ufeff" "#" "include" ...
        source = "#include <stdio.h>\nint x = 1;\n"
        bodies = []
        for name, data in (("plain", source.encode()), ("bom", b"\xef\xbb\xbf" + source.encode())):
            (tmp_path / name).mkdir()
            (tmp_path / name / "f.c").write_bytes(data)
            monkeypatch.chdir(tmp_path / name)
            code, out, _ = run_cli(["extract", "f.c", "--version", "v1", "--package", "p"], capsys)
            assert code == 0
            bodies.append(out)
        assert bodies[0] == bodies[1]
        assert ",f.c,halstead_n2,2.0\n" in bodies[0]  # x and 1; no stdio or h

    def test_empty_directory_warns_and_exits_0(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, out, err = run_cli(
            ["extract", str(empty), "--version", "v1", "--package", "p"],
            capsys,
        )
        assert code == 0
        assert out.strip() == "version,package,entity,metric,value"
        assert "no source files" in err

    def test_degenerate_file_skipped_with_warning(self, tmp_path, capsys):
        good = tmp_path / "ok.cc"
        good.write_text("a = b;\n")
        empty = tmp_path / "empty.cc"
        empty.write_text("")
        code, out, err = run_cli(
            ["extract", str(good), str(empty), "--version", "v1", "--package", "p"],
            capsys,
        )
        assert code == 0
        assert "skipped" in err and "empty.cc" in err
        assert len(out.strip().splitlines()) == 8  # header + good file only

    def test_unreadable_path_exits_2_after_processing_others(self, tmp_path, capsys):
        good = tmp_path / "ok.cc"
        good.write_text("a = b;\n")
        code, out, err = run_cli(
            ["extract", str(good), str(tmp_path / "missing.cc"),
             "--version", "v1", "--package", "p"],
            capsys,
        )
        assert code == 2
        assert "missing.cc" in err
        assert len(out.strip().splitlines()) == 8

    @pytest.mark.parametrize("name, content, message", [
        ("a,b.cc", b"a = b;\n", "path contains a comma"),
        ("latin1.cc", b"a = '\xe9';\n",
         "'utf-8' codec can't decode byte 0xe9 in position 5: invalid continuation byte"),
        ("open.cc", b"a = b;\n/* never closed\n", "line 2: unterminated block comment"),
        *[(f"a{brk}b.cc", b"a = b;\n", "path contains a line break") for brk in LINE_BREAKS],
    ])
    def test_failing_file_exits_2_after_processing_others(self, tmp_path, capsys, name,
                                                          content, message):
        (tmp_path / "ok.cc").write_text("a = b;\n")
        (tmp_path / name).write_bytes(content)
        code, out, err = run_cli(["extract", str(tmp_path), "--version", "v1", "--package", "p"],
                                 capsys)
        assert code == 2
        assert err == f"error: {(tmp_path / name).as_posix()}: {message}\n"
        assert out == run_cli(["extract", str(tmp_path / "ok.cc"), "--version", "v1",
                               "--package", "p"], capsys)[1]

    @pytest.mark.parametrize("output", ["-", "out.csv"])
    def test_path_not_valid_utf8_exits_2_after_processing_others(self, tmp_path, capsys,
                                                                 output):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "ok.cc").write_text("a = b;\n")
        try:
            with open(os.path.join(os.fsencode(tree), b"a\xffb.cc"), "wb") as fh:
                fh.write(b"a = b;\n")
        except OSError:
            pytest.skip("the filesystem refuses a name that is not UTF-8")
        if output != "-":
            output = str(tmp_path / output)
        code, out, err = run_cli(["extract", str(tree), "--version", "v1", "--package", "p",
                                  "--output", output], capsys)
        assert code == 2
        assert err == f"error: {tree.as_posix()}/a\\xffb.cc: path is not valid UTF-8\n"
        written = out if output == "-" else Path(output).read_bytes().decode("utf-8")
        written.encode("utf-8")  # no lone surrogate: the text is valid UTF-8
        assert written == run_cli(["extract", str(tree / "ok.cc"), "--version", "v1",
                                   "--package", "p"], capsys)[1]

    @pytest.mark.parametrize("label", ["version", "package"])
    def test_label_with_a_comma_exits_2(self, tmp_path, capsys, label):
        src = tmp_path / "f.cc"
        src.write_text("a = b;\n")
        labels = {"version": "v1", "package": "p", label: "x,y"}
        code, out, err = run_cli(["extract", str(src), "--version", labels["version"],
                                  "--package", labels["package"]], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {label} label contains a comma: 'x,y'\n"

    @pytest.mark.parametrize("label", ["version", "package"])
    @pytest.mark.parametrize("value", [*(f"x{brk}y" for brk in LINE_BREAKS), "x\n", "\u2028"])
    def test_label_with_a_line_break_is_refused_before_a_file_is_read(self, tmp_path, capsys,
                                                                       label, value):
        src = tmp_path / "f.cc"
        src.write_text("a = b;\n")
        labels = {"version": "v1", "package": "p", label: value}
        code, out, err = run_cli(["extract", str(src), str(tmp_path / "missing.cc"),
                                  "--version", labels["version"], "--package", labels["package"],
                                  "--output", str(tmp_path / "out.csv")], capsys)
        assert (code, out) == (2, "")  # no "not found" for the missing path: nothing was read
        assert err == f"error: {label} label contains a line break: {value!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.cc"]

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        src = tmp_path / "f.cc"
        src.write_text("a = b;\n")
        target = tmp_path / "no" / "such" / "dir.csv"
        code, _, err = run_cli(
            ["extract", str(src), "--version", "v1", "--package", "p",
             "--output", str(target)],
            capsys,
        )
        assert code == 2
        assert "cannot write" in err

    def test_write_failing_halfway_leaves_the_file_unchanged(self, tmp_path, capsys,
                                                             monkeypatch):
        src = tmp_path / "f.cc"
        src.write_text("a = b + c;\n")
        out_csv = tmp_path / "dataset.csv"
        argv = ["extract", str(src), "--package", "p", "--output", str(out_csv)]
        assert run_cli([*argv, "--version", "v1"], capsys)[0] == 0
        before = out_csv.read_bytes()
        real_fdopen = os.fdopen

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fdopen", lambda *a, **k: HalfWriter(real_fdopen(*a, **k)))
        code, _, err = run_cli([*argv, "--version", "v2"], capsys)
        monkeypatch.undo()
        assert code == 2
        assert "cannot write" in err and "No space left on device" in err
        assert out_csv.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.csv", "f.cc"]

    def test_output_keeps_the_permission_bits_of_a_plain_write(self, tmp_path, capsys):
        src = tmp_path / "f.cc"
        src.write_text("a = b + c;\n")
        created, reference = tmp_path / "new.csv", tmp_path / "reference.csv"
        reference.write_text("")
        argv = ["extract", str(src), "--package", "p"]
        assert run_cli([*argv, "--version", "v1", "--output", str(created)], capsys)[0] == 0
        assert stat.S_IMODE(created.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
        created.chmod(0o640)
        assert run_cli([*argv, "--version", "v2", "--output", str(created)], capsys)[0] == 0
        assert stat.S_IMODE(created.stat().st_mode) == 0o640
        assert len(load_csv(created.read_text(), ["v1", "v2"]).records) == 14

    def test_output_through_a_symlink_replaces_its_target(self, tmp_path, capsys):
        src = tmp_path / "f.cc"
        src.write_text("a = b + c;\n")
        target, link = tmp_path / "dataset.csv", tmp_path / "link.csv"
        link.symlink_to(target.name)
        argv = ["extract", str(src), "--package", "p", "--output", str(link)]
        for version in ("v1", "v2"):
            assert run_cli([*argv, "--version", version], capsys)[0] == 0
        assert link.is_symlink()
        assert len(load_csv(target.read_text(), ["v1", "v2"]).records) == 14

    def test_output_to_a_device_or_a_fifo_is_written_in_place(self, tmp_path, capsys,
                                                              monkeypatch):
        src = tmp_path / "f.cc"
        src.write_text("a = b + c;\n")
        argv = ["extract", str(src), "--version", "v1", "--package", "p", "--output"]
        code, rows, _ = run_cli([*argv, "-"], capsys)
        assert code == 0
        fifo, reader, received = read_fifo(tmp_path)
        forbid_replace(monkeypatch)
        assert run_cli([*argv, os.devnull], capsys) == (0, "", "")
        assert run_cli([*argv, str(fifo)], capsys) == (0, "", "")
        reader.join(timeout=10)
        assert received == [rows.encode("utf-8")]
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.cc", "out.fifo"]

    def test_extract_feeds_the_trend_pipeline(self, tmp_path, capsys):
        # grow the file each "release" so mean volume rises strictly
        out_csv = tmp_path / "dataset.csv"
        versions = [f"v{i}" for i in range(1, 6)]
        src = tmp_path / "g.cc"
        body = "a = b + c;\n"
        for version in versions:
            src.write_text(body)
            code, _, _ = run_cli(
                ["extract", str(src), "--version", version, "--package", "p",
                 "--output", str(out_csv)],
                capsys,
            )
            assert code == 0
            body += f"x{version} = a * {len(body)};\n"
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"versions": versions}))
        code, out, _ = run_cli(
            ["trend", "--manifest", str(manifest), "--data", str(out_csv),
             "--package", "p", "--metric", "halstead_volume", "--statistic", "raw",
             "--alpha", "0.05"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["trend"]["decision"] == "upward"


def cache_rows():
    """Two packages over six releases: a metric with zeros and a categorical one."""
    versions = [f"v{i}" for i in range(1, 7)]
    rows = []
    for k, version in enumerate(versions):
        for j in range(5):
            rows.append(f"{version},p,e{j},m,{max(0, j - k % 3)}")
            rows.append(f"{version},q,e{j},m,{j + k}")
            rows.append(f"{version},p,e{j},kind,{j % 2}")
    return versions, rows


def live_records():
    """The number of Record objects alive; the cyclic GC tracks every one."""
    return sum(type(o) is dataset.Record for o in gc.get_objects())


def entries(cache):
    return sorted((cache / "evometrics").glob("*.dataset"))


@pytest.fixture
def count_loads(monkeypatch):
    """The number of load_csv calls the CLI has made, as a one-element list."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return load_csv(*args)

    monkeypatch.setattr(cli, "load_csv", counting)
    return calls


class TestDatasetCache:
    COMMANDS = {
        "trend-json-plot": ["trend", "--package", "p", "--metric", "m", "--plot"],
        "trend-csv-drop-zeros-plot": ["trend", "--package", "p", "--metric", "m",
                                      "--statistic", "theil", "--format", "csv", "--drop-zeros",
                                      "--plot"],
        "trend-mean": ["trend", "--package", "q", "--metric", "m", "--statistic", "mean"],
        "inequality-json-drop-zeros": ["inequality", "--package", "p", "--metric", "m",
                                       "--drop-zeros"],
        "inequality-csv": ["inequality", "--package", "q", "--metric", "m", "--format", "csv"],
        "diversity-json": ["diversity", "--version", "v6", "--package", "p",
                           "--category-metric", "kind"],
        "diversity-csv": ["diversity", "--version", "v2", "--package", "p",
                          "--category-metric", "kind", "--format", "csv"],
    }

    def argv(self, name, manifest, data, plot):
        command, *rest = self.COMMANDS[name]
        if rest[-1] == "--plot":
            rest.append(str(plot))
        if command != "diversity":
            rest += ["--manifest", manifest]
        return [command, "--data", data, *rest]

    @pytest.mark.parametrize("name", COMMANDS)
    def test_a_hit_writes_what_a_miss_writes(self, tmp_path, capsys, dataset_cache,
                                             count_loads, name):
        manifest, data = write_inputs(tmp_path, *cache_rows())
        outputs = []
        for expected_loads in (1, 1):  # a miss, then a hit that does not parse the file
            plot = tmp_path / f"run{len(outputs)}.svg"
            code, out, err = run_cli(self.argv(name, manifest, data, plot), capsys)
            assert (code, err, count_loads[0]) == (0, "", expected_loads)
            outputs.append((out, plot.read_bytes() if plot.exists() else None))
            assert len(entries(dataset_cache)) == 1
        assert outputs[0] == outputs[1]
        assert (outputs[0][1] is None) == ("--plot" not in self.COMMANDS[name])

    @pytest.mark.parametrize("name", COMMANDS)
    def test_each_command_reads_its_dataset_through_one_public_lookup(
        self, tmp_path, capsys, monkeypatch, count_loads, name
    ):
        lookups = {"inequality": "version_slices", "trend": "run_pipeline",
                   "diversity": "slice_distribution"}
        calls = []

        def spy(lookup):
            real = getattr(cli, lookup)

            def counting(ds, *args, **kwargs):
                calls.append((lookup, type(ds)))
                return real(ds, *args, **kwargs)
            return counting

        for lookup in lookups.values():
            monkeypatch.setattr(cli, lookup, spy(lookup))
        manifest, data = write_inputs(tmp_path, *cache_rows())
        argv = self.argv(name, manifest, data, tmp_path / "plot.svg")
        for expected_loads in (1, 1):  # a miss, then a hit
            calls.clear()
            assert run_cli(argv, capsys)[0] == 0
            assert count_loads[0] == expected_loads
            assert calls == [(lookups[argv[0]], MetricsDataset)]

    @pytest.mark.parametrize("order", [None, ("v6", "v5", "v4", "v3", "v2", "v1")])
    def test_a_hit_gives_the_slices_of_the_load_bit_for_bit(self, tmp_path, count_loads,
                                                             order):
        versions, rows = cache_rows()
        rows += ["v2,r,e3,m,-0.0", "v2,r,e1,m,5e-324", "v2,r,e2,m,1.7976931348623157e308",
                 "v4,r,e0,m,-0.0", "v5,r,e0,m,0", "v5,r,e1,m,-5e-324"]
        _, path = write_inputs(tmp_path, versions, rows)
        manifest_text = None if order is None else json.dumps({"versions": order})
        ds = load_csv(Path(path).read_text(), order)
        pairs = sorted({(r.package, r.metric) for r in ds.records}) + [("p", "absent")]

        def bits(values):  # -0.0 and 0.0 differ here, and float.hex refuses an int
            return list(map(float.hex, values))

        def slices(ds, package, metric, drop_zeros):
            covered, gaps = version_slices(ds, package, metric, drop_zeros)
            return [(version, bits(values)) for version, values in covered], gaps

        def distribution(ds, version, package, metric):  # its values, or its refusal
            try:
                return bits(slice_distribution(ds, version, package, metric))
            except AnalysisError as exc:
                return str(exc)

        for expected_loads in (1, 1):  # a miss, then a hit
            loaded, _ = cli._load_dataset(path, manifest_text)
            assert (loaded.version_order, count_loads[0]) == (ds.version_order, expected_loads)
            for package, metric in pairs:
                for drop_zeros in (False, True):
                    assert (slices(loaded, package, metric, drop_zeros)
                            == slices(ds, package, metric, drop_zeros)), (package, metric)
                for version in (*ds.version_order, "v9"):
                    assert (distribution(loaded, version, package, metric)
                            == distribution(ds, version, package, metric)), (package, metric)

    def test_a_hit_builds_no_record(self, tmp_path, capsys, monkeypatch):
        manifest, data = write_inputs(tmp_path, *cache_rows())
        argvs = [self.argv(name, manifest, data, tmp_path / f"{name}.svg")
                 for name in self.COMMANDS]
        loaded = []

        def keeping(*args):  # holds each dataset, so records built from it would stay alive
            loaded.append(load_csv(*args))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_csv", keeping)
        hits = []
        real_unpack = dataset._unpack_groups

        def holding(payload):  # holds each hit's dataset too
            hits.append(real_unpack(payload))
            return hits[-1]

        monkeypatch.setattr(dataset, "_unpack_groups", holding)
        before = live_records()
        parsed = [run_cli(argv, capsys) for argv in argvs]  # one miss per cache key
        plots = sorted((p.name, p.read_bytes()) for p in tmp_path.glob("*.svg"))
        assert [run_cli(argv, capsys) for argv in argvs] == parsed
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.glob("*.svg")) == plots
        assert len(loaded) == 2  # the manifest's key and diversity's: a hit parses nothing
        assert len(hits) == 2 * len(argvs) - len(loaded)  # every run but the two misses
        for hit in hits:  # the grouping only: its records cannot be derived
            with pytest.raises(AttributeError, match="records"):
                hit.records
        Path(data).write_text(Path(data).read_text() + "v1,r,e0,m,1\n")
        assert run_cli(argvs[0], capsys)[0] == 0  # a miss parses, and builds no record either
        assert len(loaded) == 3
        assert not any("records" in vars(ds) for ds in loaded)
        assert live_records() == before

    def test_a_miss_keeps_only_the_grouping_as_a_hit_does(self, tmp_path, count_loads):
        manifest, data = write_inputs(tmp_path, *cache_rows())
        for expected_loads in (1, 1):  # a miss, then a hit
            ds, _ = cli._load_dataset(data, Path(manifest).read_text())
            assert count_loads[0] == expected_loads
            assert vars(ds)["_text"] is None  # the text is freed once parsed
            with pytest.raises(AttributeError, match="records"):
                ds.records

    def test_a_dataset_of_the_grouping_alone_prints_and_compares_by_identity(self, tmp_path,
                                                                             count_loads):
        manifest, data = write_inputs(tmp_path, *cache_rows())
        miss, _ = cli._load_dataset(data, Path(manifest).read_text())
        hit, _ = cli._load_dataset(data, Path(manifest).read_text())
        again, _ = cli._load_dataset(data, Path(manifest).read_text())
        assert count_loads[0] == 1  # one miss, then two hits
        parsed = load_csv(Path(data).read_text(), miss.version_order)
        for ds in (miss, hit):
            assert repr(ds) == (f"<MetricsDataset version_order={ds.version_order!r}, "
                                "records not kept>")
            assert ds == ds and hash(ds) == hash(ds)
            assert ds != parsed and parsed != ds
        assert miss != hit and hit != again
        assert len({miss, hit, again}) == 3
        assert version_slices(miss, "p", "m") == version_slices(hit, "p", "m")

    def test_an_edited_data_byte_is_a_miss(self, tmp_path, capsys, dataset_cache, count_loads):
        versions, rows = cache_rows()
        manifest, data = write_inputs(tmp_path, versions, rows)
        argv = ["inequality", "--manifest", manifest, "--data", data, "--package", "q",
                "--metric", "m", "--format", "csv"]
        before = run_cli(argv, capsys)
        text = Path(data).read_text()
        Path(data).write_text(text.replace("v1,q,e0,m,0\n", "v1,q,e0,m,9\n"))
        after = run_cli(argv, capsys)
        assert count_loads[0] == 2
        assert after[0] == 0 and after[1] != before[1]
        assert after == run_cli(argv, capsys)  # from the new entry
        Path(data).write_text(text.replace("v1,q,e0,m,0\n", "v1,q,e0,m,x\n"))
        line = text.splitlines().index("v1,q,e0,m,0") + 1
        assert run_cli(argv, capsys) == (2, "", f"error: line {line}: cannot parse value 'x'\n")
        assert len(entries(dataset_cache)) == 2  # nothing refused is stored

    def test_a_changed_manifest_is_a_miss(self, tmp_path, capsys, count_loads):
        versions, rows = cache_rows()
        manifest, data = write_inputs(tmp_path, versions, rows)
        argv = ["trend", "--manifest", manifest, "--data", data, "--package", "q",
                "--metric", "m"]
        assert run_cli(argv, capsys)[0] == 0
        Path(manifest).write_text(json.dumps({"versions": versions[:-1]}))
        line = rows.index(next(row for row in rows if row.startswith("v6,"))) + 2
        assert run_cli(argv, capsys) == (
            2, "", f"error: line {line}: unknown version 'v6' (not in manifest)\n")
        assert count_loads[0] == 2

    @pytest.mark.parametrize("damage", [
        "truncated", "empty", "garbage", "flipped", "not-a-pair", "order-not-str",
        "group-not-bytes", "group-not-doubles", "level-not-a-dict",
    ])
    def test_a_damaged_entry_is_a_miss_and_is_rewritten(self, tmp_path, capsys, dataset_cache,
                                                        count_loads, damage):
        manifest, data = write_inputs(tmp_path, *cache_rows())
        argv = ["trend", "--manifest", manifest, "--data", data, "--package", "p",
                "--metric", "m", "--statistic", "atkinson"]
        first = run_cli(argv, capsys)
        assert first[0] == 0
        [entry] = entries(dataset_cache)
        good = entry.read_bytes()
        order, groups = marshal.loads(good[32:])
        payload = {
            "not-a-pair": [order, groups],  # a list, where it would unpack as one
            "order-not-str": (order[:-1] + (len(order),), groups),
            "group-not-bytes": (order, {**groups, "p": {"m": {"v1": [1.0] * 8}}}),
            "group-not-doubles": (order, {**groups, "p": {"m": {"v1": b"\0" * 12}}}),
            "level-not-a-dict": (order, {**groups, "p": list(groups["p"].items())}),
        }.get(damage)
        if payload is not None:  # well formed, with a checksum that holds, but the wrong shape
            blob = marshal.dumps(payload, 4)
            entry.write_bytes(hashlib.sha256(blob).digest() + blob)
        else:
            entry.write_bytes({"truncated": good[: len(good) // 2], "empty": b"",
                               "garbage": b"\x00garbage" * 9,
                               "flipped": good[:-1] + bytes([good[-1] ^ 1])}[damage])
        assert run_cli(argv, capsys) == first
        assert count_loads[0] == 2
        assert entries(dataset_cache) == [entry] and entry.read_bytes() == good

    @pytest.mark.parametrize("where", ["a regular file", "a read-only directory"])
    def test_an_unusable_cache_location_is_not_used(self, tmp_path, capsys, monkeypatch,
                                                    count_loads, where):
        manifest, data = write_inputs(tmp_path, *cache_rows())
        argv = ["trend", "--manifest", manifest, "--data", data, "--package", "p",
                "--metric", "m", "--format", "csv"]
        expected = run_cli(argv, capsys)
        assert expected[0] == 0 and expected[2] == ""
        location = tmp_path / "cache"
        if where == "a regular file":
            location.write_text("not a directory\n")
        else:
            location.mkdir(mode=0o555)
            if os.geteuid() == 0:  # root creates through the mode bits; refuse as they would
                real_mkdir = os.mkdir

                def mkdir(path, *args, **kwargs):
                    if Path(path).parent == location:
                        raise PermissionError(errno.EACCES, "Permission denied", str(path))
                    return real_mkdir(path, *args, **kwargs)

                monkeypatch.setattr(os, "mkdir", mkdir)
        monkeypatch.setenv("XDG_CACHE_HOME", str(location))
        for _ in range(2):
            assert run_cli(argv, capsys) == expected
        assert count_loads[0] == 3
        if where == "a regular file":
            assert location.read_text() == "not a directory\n"
        else:
            assert list(location.iterdir()) == []

    def test_an_unwritable_cache_folder_still_serves_its_entries(self, tmp_path, capsys,
                                                                   dataset_cache, monkeypatch,
                                                                   count_loads):
        manifest, data = write_inputs(tmp_path, *cache_rows())
        argv = ["inequality", "--manifest", manifest, "--data", data, "--package", "p",
                "--metric", "m"]
        expected = run_cli(argv, capsys)
        assert expected[0] == 0

        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(tempfile, "mkstemp", no_space)
        assert run_cli(argv, capsys) == expected  # a hit writes nothing
        Path(data).write_text(Path(data).read_text() + "v1,r,e0,m,1\n")
        assert run_cli(argv, capsys)[0] == 0  # a miss whose entry cannot be written
        assert count_loads[0] == 2
        assert len(entries(dataset_cache)) == 1

    @pytest.mark.parametrize("folder", ["private", "open to others", "another user's"])
    def test_entries_are_read_only_from_a_private_folder(self, tmp_path, capsys, dataset_cache,
                                                         monkeypatch, count_loads, folder):
        manifest, data = write_inputs(tmp_path, *cache_rows())
        argv = ["inequality", "--manifest", manifest, "--data", data, "--package", "q",
                "--metric", "m", "--format", "csv"]
        parsed = run_cli(argv, capsys)
        [entry] = entries(dataset_cache)
        ds = dataset._unpack_groups(marshal.loads(entry.read_bytes()[32:]))
        for by_metric in ds._groups.values():
            for by_version in by_metric.values():
                for version, values in by_version.items():
                    by_version[version] = [value + 1 for value in values]
        payload = marshal.dumps(dataset._pack_groups(ds), 4)
        forged = hashlib.sha256(payload).digest() + payload  # an entry anyone could write
        entry.write_bytes(forged)
        if folder == "open to others":
            (dataset_cache / "evometrics").chmod(0o777)
        elif folder == "another user's":
            owner = (dataset_cache / "evometrics").stat().st_uid
            monkeypatch.setattr(os, "geteuid", lambda: owner + 1)
        code, out, err = run_cli(argv, capsys)
        if folder == "private":  # the forged entry is well made: from a private folder, it is read
            assert (code, err, count_loads[0]) == (0, "", 1) and out != parsed[1]
        else:  # parsed again, and nothing is written there
            assert (code, out, err) == parsed and count_loads[0] == 2
            assert entries(dataset_cache) == [entry] and entry.read_bytes() == forged

    def test_the_cache_folder_is_private_and_keeps_the_newest_eight(self, tmp_path, capsys,
                                                                    dataset_cache):
        folder = dataset_cache / "evometrics"
        others = [folder / "notes.txt", folder / ".left.dataset.x1y2.tmp", folder / "x.datasets"]
        versions, rows = cache_rows()
        kept = []
        for i in range(11):
            manifest, data = write_inputs(tmp_path, versions, rows + [f"v1,r,e{i},m,1"])
            assert run_cli(["inequality", "--manifest", manifest, "--data", data,
                            "--package", "p", "--metric", "m"], capsys)[0] == 0
            if i == 0:
                assert stat.S_IMODE(folder.stat().st_mode) == 0o700
                for other in others:
                    other.write_text("not an entry\n")
            [new] = set(entries(dataset_cache)) - set(kept)
            os.utime(new, (1000 + i, 1000 + i))  # written in this order, whatever the clock
            kept = (kept + [new])[-8:]
            assert entries(dataset_cache) == sorted(kept)
        assert all(other.read_text() == "not an entry\n" for other in others)

    @pytest.mark.parametrize("xdg", [None, "", "relative/cache"])
    def test_without_an_absolute_xdg_cache_home_the_cache_is_under_home(
        self, tmp_path, capsys, monkeypatch, count_loads, xdg
    ):
        manifest, data = write_inputs(tmp_path, *cache_rows())
        argv = ["trend", "--manifest", manifest, "--data", data, "--package", "p",
                "--metric", "m"]
        expected = run_cli(argv, capsys)
        assert expected[0] == 0
        monkeypatch.setenv("HOME", str(tmp_path))
        if xdg is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", xdg)
        monkeypatch.chdir(tmp_path)  # where a relative XDG_CACHE_HOME would land, if taken
        for _ in range(2):  # a miss, then a hit from the default folder
            assert run_cli(argv, capsys) == expected
        assert count_loads[0] == 2
        folder = tmp_path / ".cache" / "evometrics"
        assert stat.S_IMODE(folder.stat().st_mode) == 0o700
        assert len(entries(tmp_path / ".cache")) == 1
        assert not (tmp_path / "relative").exists()

    def test_a_relative_home_uses_no_cache(self, tmp_path, capsys, monkeypatch, count_loads):
        manifest, data = write_inputs(tmp_path, *cache_rows())
        argv = ["trend", "--manifest", manifest, "--data", data, "--package", "p",
                "--metric", "m"]
        expected = run_cli(argv, capsys)
        assert expected[0] == 0
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", "home")
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        for _ in range(2):  # each run parses, and writes nothing
            assert run_cli(argv, capsys) == expected
        assert count_loads[0] == 3
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("change", ["parser", "interpreter"])
    def test_a_changed_parser_or_interpreter_is_a_miss(self, tmp_path, capsys, monkeypatch,
                                                       count_loads, change):
        manifest, data = write_inputs(tmp_path, *cache_rows())
        argv = ["trend", "--manifest", manifest, "--data", data, "--package", "q",
                "--metric", "m"]
        expected = run_cli(argv, capsys)
        assert expected[0] == 0
        if change == "parser":
            source = Path(dataset.__file__)
            edited = tmp_path / "dataset.py"
            edited.write_bytes(source.read_bytes() + b"# one more byte\n")
            monkeypatch.setattr(dataset, "__file__", str(edited))
        else:
            monkeypatch.setattr(sys, "version", sys.version + " (another build)")
        assert run_cli(argv, capsys) == expected
        assert run_cli(argv, capsys) == expected
        assert count_loads[0] == 2


# one source of each kind the reader or the lexer treats apart; keyed by file name
COUNTED_SOURCES = {
    "lf.c": b"int a = b + c;\n",
    "crlf.c": b"int x = y;\r\n/* two\r\n lines */ x += 'c';\r\n",
    "cr.c": b"int x = y;\r// a note\rx -= 2;\r",
    "bom.cc": "\ufeff#include <x.h>\nint z = 1;\n".encode(),
    "empty.h": b"#ifndef G_H\r\n#define G_H\r\n#endif\r\n",  # degenerate: nothing to count
    "open.c": b"int a;\r\nint b;\r/* never closed\r\n",  # untokenizable, on line 3
    "latin1.c": b"a = '\xe9';\n",  # not UTF-8
    "same.cc": b"int a = b + c;\n",  # the text of lf.c again
    "crlf-twin.c": b"int x = y;\n/* two\n lines */ x += 'c';\n",  # crlf.c as the lexer reads it
}


def counts_entries(cache):
    return sorted((cache / "evometrics").glob("*.counts"))


@pytest.fixture
def count_lexes(monkeypatch):
    """The texts the lexer has counted, in order."""
    lexed = []
    real = halstead._source_counts

    def counting(source):
        lexed.append(source)
        return real(source)

    monkeypatch.setattr(halstead, "_source_counts", counting)
    return lexed


class TestCountsCache:
    def run(self, tree, capsys, output):
        code, out, err = run_cli(["extract", str(tree), "--version", "v1", "--package", "p",
                                  "--output", str(output)], capsys)
        return code, out, err, output.read_bytes()

    def tree(self, tmp_path, sources=COUNTED_SOURCES):
        tree = tmp_path / "tree"
        tree.mkdir(exist_ok=True)
        for name, data in sources.items():
            (tree / name).write_bytes(data)
        return tree

    def test_a_hit_lexes_only_what_does_not_tokenize(self, tmp_path, capsys, dataset_cache,
                                                     count_lexes):
        tree = self.tree(tmp_path)
        miss = self.run(tree, capsys, tmp_path / "miss.csv")
        code, _, err, rows = miss
        assert code == 2 and len(load_csv(rows.decode()).records) == 7 * 6
        assert err.splitlines() == [
            f"warning: skipped {tree.as_posix()}/empty.h: degenerate counts: no operands",
            f"error: {tree.as_posix()}/latin1.c: 'utf-8' codec can't decode byte 0xe9 in "
            "position 5: invalid continuation byte",
            f"error: {tree.as_posix()}/open.c: line 3: unterminated block comment",
        ]
        assert len(count_lexes) == 6  # one per distinct text that decodes
        [entry] = counts_entries(dataset_cache)
        assert len(cli._unpack_counts(marshal.loads(entry.read_bytes()[32:]))[0]) == 5
        os.utime(entry, (1, 1))
        count_lexes.clear()
        assert self.run(tree, capsys, tmp_path / "hit.csv") == miss
        assert count_lexes == [(tree / "open.c").read_text()]  # for its error and line
        assert entry.stat().st_mtime == 1  # a run that lexed nothing new writes nothing

    @pytest.mark.parametrize("damage", [
        "truncated", "empty", "flipped", "not-a-pair", "digests-not-bytes", "odd-length",
        "counts-short", "negative", "text-twice",
    ])
    def test_a_damaged_entry_is_an_empty_table_and_is_rewritten(
        self, tmp_path, capsys, dataset_cache, count_lexes, damage
    ):
        tree = self.tree(tmp_path)
        miss = self.run(tree, capsys, tmp_path / "miss.csv")
        [entry] = counts_entries(dataset_cache)
        good = entry.read_bytes()
        digests, packed = marshal.loads(good[32:])
        payload = {
            "not-a-pair": [digests, packed],
            "digests-not-bytes": (digests.hex(), packed),
            "odd-length": (digests + b"\0", packed + b"\0"),
            "counts-short": (digests, packed[:-8]),
            "negative": (digests, array("q", [-1] * (len(packed) // 8)).tobytes()),
            "text-twice": (digests * 2, packed * 2),
        }.get(damage)
        if payload is not None:  # framed well, with a checksum that holds, but the wrong shape
            blob = marshal.dumps(payload, 4)
            entry.write_bytes(hashlib.sha256(blob).digest() + blob)
        else:
            entry.write_bytes({"truncated": good[: len(good) // 2], "empty": b"",
                               "flipped": good[:-1] + bytes([good[-1] ^ 1])}[damage])
        count_lexes.clear()
        assert self.run(tree, capsys, tmp_path / "again.csv") == miss
        assert len(count_lexes) == 6
        assert counts_entries(dataset_cache) == [entry] and entry.read_bytes() == good

    @pytest.mark.parametrize("folder", ["open to others", "another user's", "unwritable",
                                        "a regular file"])
    def test_a_folder_the_cache_cannot_use_changes_no_output(
        self, tmp_path, capsys, dataset_cache, monkeypatch, count_lexes, folder
    ):
        tree = self.tree(tmp_path)
        miss = self.run(tree, capsys, tmp_path / "miss.csv")
        [entry] = counts_entries(dataset_cache)
        digests, packed = marshal.loads(entry.read_bytes()[32:])
        values = array("q", packed)
        values[0::4] = array("q", [n + 1 for n in values[0::4]])  # every n1 one higher
        blob = marshal.dumps((digests, values.tobytes()), 4)
        forged = hashlib.sha256(blob).digest() + blob  # well made: read from a private folder
        entry.write_bytes(forged)
        real_geteuid, real_mkstemp = os.geteuid, tempfile.mkstemp
        if folder == "open to others":
            (dataset_cache / "evometrics").chmod(0o777)
        elif folder == "another user's":
            monkeypatch.setattr(os, "geteuid", lambda: real_geteuid() + 1)
        elif folder == "unwritable":
            entry.unlink()

            def mkstemp(*args, dir=None, **kwargs):
                if Path(dir) == entry.parent:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return real_mkstemp(*args, dir=dir, **kwargs)

            monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
        else:
            location = tmp_path / "not-a-folder"
            location.write_text("")
            monkeypatch.setenv("XDG_CACHE_HOME", str(location))
        count_lexes.clear()
        runs = [self.run(tree, capsys, tmp_path / f"run{i}.csv") for i in range(2)]
        assert runs == [miss, miss] and len(count_lexes) == 2 * 6  # each run lexes all
        if folder == "unwritable":
            assert counts_entries(dataset_cache) == []
            assert list(entry.parent.glob(".*.tmp")) == []
        else:
            assert entry.read_bytes() == forged
        if folder in ("open to others", "another user's"):
            (dataset_cache / "evometrics").chmod(0o700)
            monkeypatch.setattr(os, "geteuid", real_geteuid)
            code, _, _, rows = self.run(tree, capsys, tmp_path / "forged.csv")
            assert code == 2 and rows != miss[3]  # so the runs above did not read the entry

    def test_an_edited_file_is_counted_again(self, tmp_path, capsys, dataset_cache,
                                             count_lexes):
        sources = {"a.c": b"int a = b + c;\n", "b.c": b"x = y;\n"}
        tree = self.tree(tmp_path, sources)
        before = self.run(tree, capsys, tmp_path / "before.csv")
        (tree / "b.c").write_bytes(b"x = y * z;\n")
        count_lexes.clear()
        after = self.run(tree, capsys, tmp_path / "after.csv")
        assert count_lexes == ["x = y * z;\n"]
        assert (before[0], after[0]) == (0, 0)
        rows = [{(r.entity, r.metric): r.value for r in load_csv(run[3].decode()).records}
                for run in (before, after)]
        for (entity, metric), value in rows[0].items():
            assert (rows[1][entity, metric] == value) == entity.endswith("a.c"), metric
        [entry] = counts_entries(dataset_cache)
        index, _ = cli._unpack_counts(marshal.loads(entry.read_bytes()[32:]))
        this_run = [hashlib.sha256(text).digest() for text in (sources["a.c"], b"x = y * z;\n")]
        assert list(index) == [*this_run, hashlib.sha256(sources["b.c"]).digest()]

    @pytest.mark.parametrize("change", ["lexer", "interpreter"])
    def test_a_changed_lexer_or_interpreter_replaces_the_entry(
        self, tmp_path, capsys, dataset_cache, monkeypatch, count_lexes, change
    ):
        tree = self.tree(tmp_path)
        miss = self.run(tree, capsys, tmp_path / "miss.csv")
        [first] = counts_entries(dataset_cache)
        manifest, data = write_inputs(tmp_path, *cache_rows())
        assert run_cli(["inequality", "--manifest", manifest, "--data", data,
                        "--package", "p", "--metric", "m"], capsys)[0] == 0
        datasets = entries(dataset_cache)
        assert len(datasets) == 1
        if change == "lexer":
            edited = tmp_path / "halstead.py"
            edited.write_bytes(Path(halstead.__file__).read_bytes() + b"# one more byte\n")
            monkeypatch.setattr(halstead, "__file__", str(edited))
        else:
            monkeypatch.setattr(sys, "version", sys.version + " (another build)")
        count_lexes.clear()
        assert self.run(tree, capsys, tmp_path / "changed.csv") == miss
        assert len(count_lexes) == 6
        [second] = counts_entries(dataset_cache)  # the old lexer's entry is deleted
        assert second != first and entries(dataset_cache) == datasets
        assert self.run(tree, capsys, tmp_path / "hit.csv") == miss
        assert len(count_lexes) == 6 + 1  # the second run lexes only open.c
        assert counts_entries(dataset_cache) == [second]

    def test_the_entry_keeps_the_last_run_first_up_to_the_cap(self, tmp_path, capsys,
                                                              dataset_cache, monkeypatch,
                                                              count_lexes):
        monkeypatch.setattr(cli, "_COUNTS_TEXTS", 3)

        def source(k):
            return f"int v{k} = {k};\n".encode()

        runs = [[0, 1], [2, 3], [2], [4, 5, 6, 7], [8, 5]]
        expected = [[0, 1], [2, 3, 0], [2, 3, 0], [4, 5, 6], [5, 8, 4]]  # files in path order
        for n, (ks, keep) in enumerate(zip(runs, expected)):
            tree = tmp_path / f"tree{n}"
            tree.mkdir()
            for k in ks:
                (tree / f"f{k}.c").write_bytes(source(k))
            count_lexes.clear()
            assert self.run(tree, capsys, tmp_path / f"run{n}.csv")[0] == 0
            [entry] = counts_entries(dataset_cache)
            index, values = cli._unpack_counts(marshal.loads(entry.read_bytes()[32:]))
            assert list(index) == [hashlib.sha256(source(k)).digest() for k in keep], n
            assert list(values) == [3, 2, 3, 2] * len(keep)  # int = ; and v_k, k
            assert len(count_lexes) == {0: 2, 1: 2, 2: 0, 3: 4, 4: 1}[n]

    def test_dataset_eviction_leaves_the_counts_entry(self, tmp_path, capsys, dataset_cache):
        tree = self.tree(tmp_path)
        self.run(tree, capsys, tmp_path / "miss.csv")
        [entry] = counts_entries(dataset_cache)
        os.utime(entry, (1, 1))  # older than every dataset entry
        good = entry.read_bytes()
        versions, rows = cache_rows()
        for i in range(cli._CACHE_ENTRIES + 2):
            manifest, data = write_inputs(tmp_path, versions, rows + [f"v1,r,e{i},m,1"])
            assert run_cli(["inequality", "--manifest", manifest, "--data", data,
                            "--package", "p", "--metric", "m"], capsys)[0] == 0
        assert len(entries(dataset_cache)) == cli._CACHE_ENTRIES
        assert counts_entries(dataset_cache) == [entry] and entry.read_bytes() == good


class TestCommandFunctions:
    # each command is one function of the parsed arguments, which writes its output itself

    def test_cmd_trend_writes_the_report_and_returns_the_exit_code(self, monotone_inputs,
                                                                   capsys):
        from evometrics.cli import build_parser, cmd_trend

        manifest, data = monotone_inputs
        args = build_parser().parse_args(["trend", "--manifest", manifest, "--data", data,
                                          "--package", "p", "--metric", "m", "--ci-exit"])
        assert cmd_trend(args) == 3
        [entry] = json.loads(capsys.readouterr().out)["results"]
        assert entry["trend"]["s"] == 66  # 12 points, each above every one before it

    def test_cmd_inequality_csv_text(self, tmp_path, capsys):
        from evometrics.cli import build_parser, cmd_inequality

        manifest, data = write_inputs(
            tmp_path, ["v1"], [f"v1,p,e{j},m,{v}" for j, v in enumerate([1, 2, 3, 4])]
        )
        args = build_parser().parse_args(["inequality", "--manifest", manifest, "--data", data,
                                          "--package", "p", "--metric", "m", "--format", "csv"])
        assert cmd_inequality(args) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("v1,4,0.25,0.2,")

    def test_cmd_diversity_json(self, tmp_path, capsys):
        from evometrics.cli import build_parser, cmd_diversity

        data = tmp_path / "d.csv"
        data.write_text(HEADER + "v1,p,a,kind,1\nv1,p,b,kind,2\n")
        args = build_parser().parse_args(["diversity", "--data", str(data), "--version", "v1",
                                          "--package", "p", "--category-metric", "kind"])
        assert cmd_diversity(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"][0]["diversity"]["richness"] == 2

    def test_cmd_extract_rows_and_no_warning(self, tmp_path, capsys):
        from evometrics.cli import build_parser, cmd_extract

        src = tmp_path / "f.cc"
        src.write_text("a = b;\n")
        args = build_parser().parse_args(["extract", str(src), "--version", "v1",
                                          "--package", "p"])
        assert cmd_extract(args) == 0
        out, err = capsys.readouterr()
        assert out.count("\n") == 1 + 7  # the header and seven rows
        assert err == ""


class TestDeterminism:
    def test_identical_runs_identical_reports(self, monotone_inputs, capsys):
        manifest, data = monotone_inputs
        argv = ["trend", "--manifest", manifest, "--data", data, "--package", "p",
                "--metric", "m", "--statistic", "atkinson", "--epsilon", "0.5"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_fixture_outputs_match_pinned_digests(self, tmp_path, capsys):
        # digests of the outputs of the first released implementation; none holds a path
        common = ["--manifest", str(FIXTURES / "synthetic_manifest.json"),
                  "--data", str(FIXTURES / "synthetic_metrics.csv"), "--format", "csv"]
        plot = tmp_path / "gini.svg"

        def digest(data: bytes) -> str:
            return hashlib.sha256(data).hexdigest()

        code, out, _ = run_cli(["trend", *common, "--package", "solids", "--metric", "effort",
                                "--statistic", "gini", "--plot", str(plot)], capsys)
        assert code == 0
        assert digest(out.encode()) == "ba5a7201faee2c8d29bba859a232d00c44947f371bfff9956ec4147a16600817"
        assert digest(plot.read_bytes()) == "f86181c7a8252c93f231a5b60fdccb85a0f789b623e675eb02b17399f66dac24"
        # tracking has no r09 release: the gap must not shift any row. Re-pinned when the
        # index sums became math.fsum: 15 of the 16 rows moved in their last bits, and
        # over the fixture's slices the mean and largest ulp distance to an exact
        # oracle fell for all four indices. Re-pinned when Atkinson moved to the log domain:
        # only the atkinson column moved, and over the fixture's 33 slices its mean and
        # largest distance to a decimal oracle fell from 6.5 and 34 ulps to 2.3 and 12
        code, out, _ = run_cli(["inequality", *common, "--package", "tracking",
                                "--metric", "effort"], capsys)
        assert code == 0
        assert digest(out.encode()) == "24f8eb83de83618793a5426f7c8f64adffe2e94247f84f5435081bd980009fbf"


def run_python(code, *args):
    """A fresh interpreter running ``code`` with this checkout's sources first on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, env=env,
                          timeout=120, check=False)


class TestWithoutNumpy:
    def test_importing_the_cli_leaves_numpy_unloaded(self):
        proc = run_python("import sys, evometrics.cli; print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"False\n"

    def test_commands_match_the_in_process_run_with_numpy_blocked(self, tmp_path, capsys):
        # a None entry in sys.modules makes every import of numpy fail, as if not installed
        blocked = ("import sys; sys.modules['numpy'] = None; "
                   "from evometrics.cli import main; sys.exit(main(sys.argv[1:]))")
        inputs = ["--manifest", str(FIXTURES / "synthetic_manifest.json"),
                  "--data", str(FIXTURES / "synthetic_metrics.csv")]
        commands = [
            ["trend", *inputs, "--package", "solids", "--metric", "effort",
             "--statistic", "mean", "--plot"],
            ["inequality", *inputs, "--package", "tracking", "--metric", "effort"],
            ["diversity", "--data", str(FIXTURES / "synthetic_metrics.csv"), "--version", "r01",
             "--package", "tracking", "--category-metric", "effort"],
        ]
        for argv in commands:
            plot = [str(tmp_path / "here.svg")] if argv[-1] == "--plot" else []
            code, out, _ = run_cli(argv + plot, capsys)
            assert code == 0
            there = [str(tmp_path / "there.svg")] if plot else []
            proc = run_python(blocked, *argv, *there)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == out.encode("utf-8")
            if plot:
                assert (tmp_path / "there.svg").read_bytes() == (tmp_path / "here.svg").read_bytes()

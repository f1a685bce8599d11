"""End-to-end tests for the command-line interface and its exit-code contract."""

import errno
import hashlib
import json
import math
import os
import random
import stat
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from evometrics import gini, load_csv, load_manifest, pietra, run_pipeline
from evometrics.cli import main

HEADER = "version,package,entity,metric,value\n"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


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

    @pytest.mark.parametrize("label", ["version", "package"])
    def test_label_with_a_comma_exits_2(self, tmp_path, capsys, label):
        src = tmp_path / "f.cc"
        src.write_text("a = b;\n")
        labels = {"version": "v1", "package": "p", label: "x,y"}
        code, out, err = run_cli(["extract", str(src), "--version", labels["version"],
                                  "--package", labels["package"]], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {label} label contains a comma: 'x,y'\n"

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


class TestCommandFunctions:
    # the command functions are a public surface of their own, beyond argv wiring

    def test_cmd_trend_returns_text_and_result(self, monotone_inputs):
        from evometrics.cli import cmd_trend

        manifest, data = monotone_inputs
        text, result = cmd_trend(manifest, data, "p", "m", "gini", alpha=0.01)
        assert result.trend.decision == "upward"
        doc = json.loads(text)
        assert doc["results"][0]["trend"]["s"] == result.trend.s

    def test_cmd_inequality_csv_text(self, tmp_path):
        from evometrics.cli import cmd_inequality

        manifest, data = write_inputs(
            tmp_path, ["v1"], [f"v1,p,e{j},m,{v}" for j, v in enumerate([1, 2, 3, 4])]
        )
        text = cmd_inequality(manifest, data, "p", "m", fmt="csv")
        assert text.splitlines()[1].startswith("v1,4,0.25,0.2,")

    def test_cmd_diversity_json(self, tmp_path):
        from evometrics.cli import cmd_diversity

        data = tmp_path / "d.csv"
        data.write_text(HEADER + "v1,p,a,kind,1\nv1,p,b,kind,2\n")
        doc = json.loads(cmd_diversity(str(data), "v1", "p", "kind"))
        assert doc["results"][0]["diversity"]["richness"] == 2

    def test_cmd_extract_body_and_warnings(self, tmp_path):
        from evometrics.cli import cmd_extract

        src = tmp_path / "f.cc"
        src.write_text("a = b;\n")
        body, warnings, failures = cmd_extract([str(src)], "v1", "p")
        assert body.count("\n") == 7
        assert warnings == [] and failures == []


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

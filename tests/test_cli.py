"""End-to-end tests for the command-line interface and its exit-code contract."""

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from evometrics import gini, load_csv, load_manifest, pietra, run_pipeline
from evometrics.cli import main

HEADER = "version,package,entity,metric,value\n"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


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

    def test_alpha_out_of_range_is_a_usage_error(self, monotone_inputs, capsys):
        manifest, data = monotone_inputs
        code, _, err = run_cli(
            ["trend", "--manifest", manifest, "--data", data, "--package", "p",
             "--metric", "m", "--alpha", "1.5"],
            capsys,
        )
        assert code == 2
        assert "alpha" in err

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
        # tracking has no r09 release: the gap must not shift any row
        code, out, _ = run_cli(["inequality", *common, "--package", "tracking",
                                "--metric", "effort"], capsys)
        assert code == 0
        assert digest(out.encode()) == "b68fefa7e678a3d319a200a7180db8561d505ae2e822e15471287443b3b3cdf8"

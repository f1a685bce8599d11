"""Tests for manifest/CSV ingestion, slicing, series building, and the pipeline."""

import gc
import math
import random
from collections import Counter

import numpy as np
import pytest

from evometrics import (
    AnalysisError,
    InputError,
    build_series,
    gini,
    inequality_report,
    load_csv,
    load_manifest,
    mk_test,
    run_pipeline,
    slice_distribution,
)
from evometrics.dataset import CSV_HEADER, MetricsDataset, Record, version_slices

HEADER = "version,package,entity,metric,value\n"


def csv_for(rows):
    return HEADER + "".join(f"{r}\n" for r in rows)


def dataset_with_series(values_per_version, package="p", metric="m"):
    """Dataset whose (package, metric) slices are the given per-version lists."""
    versions = [f"v{i + 1}" for i in range(len(values_per_version))]
    rows = []
    for version, values in zip(versions, values_per_version):
        rows.extend(
            f"{version},{package},e{j},{metric},{value}" for j, value in enumerate(values)
        )
    return load_csv(csv_for(rows), versions)


class TestManifest:
    def test_identity_ordering(self):
        assert load_manifest('{"versions":["8.1","9.0","10.0.p01"]}') == ("8.1", "9.0", "10.0.p01")

    def test_duplicate_version(self):
        with pytest.raises(InputError, match="duplicate version"):
            load_manifest('{"versions":["a","a"]}')

    def test_empty_list(self):
        with pytest.raises(InputError, match="empty version list"):
            load_manifest('{"versions":[]}')

    def test_malformed_json(self):
        with pytest.raises(InputError, match="malformed manifest"):
            load_manifest("{not json")

    def test_missing_key(self):
        with pytest.raises(InputError, match="versions"):
            load_manifest('{"releases":["a"]}')

    def test_non_string_labels(self):
        with pytest.raises(InputError, match="list of strings"):
            load_manifest('{"versions":[1,2]}')


class TestLoadCsv:
    def test_single_row(self):
        ds = load_csv(csv_for(["v1,p,e,m,3.5"]), ["v1"])
        assert len(ds.records) == 1
        assert ds.records[0] == ("v1", "p", "e", "m", 3.5)
        assert ds.version_order == ("v1",)

    def test_unknown_version_names_the_row(self):
        with pytest.raises(InputError, match=r"line 3.*unknown version '99\.9'"):
            load_csv(csv_for(["v1,p,e,m,1", "99.9,p,e,m,2"]), ["v1"])

    def test_duplicate_key_names_the_row(self):
        with pytest.raises(InputError, match="line 3.*duplicate record"):
            load_csv(csv_for(["v1,p,e,m,1", "v1,p,e,m,2"]), ["v1"])

    def test_unparsable_value_names_the_row(self):
        with pytest.raises(InputError, match="line 2.*cannot parse value 'abc'"):
            load_csv(csv_for(["v1,p,e,m,abc"]), ["v1"])

    def test_missing_column_names_the_row(self):
        with pytest.raises(InputError, match="line 2.*expected 5"):
            load_csv(csv_for(["v1,p,e,m"]), ["v1"])

    def test_label_with_comma_is_rejected_by_field_count(self):
        with pytest.raises(InputError, match="line 2.*expected 5"):
            load_csv(csv_for(["v1,p,entity,with,comma,m,1"]), ["v1"])

    def test_wrong_header(self):
        with pytest.raises(InputError, match="line 1.*expected header"):
            load_csv("a,b,c,d,e\nv1,p,e,m,1\n", ["v1"])

    def test_missing_header_column(self):
        with pytest.raises(InputError, match="line 1.*expected header"):
            load_csv("version,package,entity,metric\nv1,p,e,m\n", ["v1"])

    def test_non_finite_value(self):
        with pytest.raises(InputError, match="line 2.*non-finite"):
            load_csv(csv_for(["v1,p,e,m,nan"]), ["v1"])
        with pytest.raises(InputError, match="line 2.*non-finite"):
            load_csv(csv_for(["v1,p,e,m,inf"]), ["v1"])

    def test_empty_label_rejected(self):
        with pytest.raises(InputError, match="line 2.*empty label"):
            load_csv(csv_for(["v1,,e,m,1"]), ["v1"])

    def test_blank_lines_skipped(self):
        ds = load_csv(HEADER + "\nv1,p,e,m,1\n\n", ["v1"])
        assert len(ds.records) == 1

    def test_order_from_first_appearance_without_manifest(self):
        ds = load_csv(csv_for(["v2,p,e,m,1", "v1,p,e,m,2", "v2,p,f,m,3"]))
        assert ds.version_order == ("v2", "v1")

    @pytest.mark.parametrize("pad", ["\t", "\x1f", " ", "\xa0"])
    def test_padded_fields_are_stripped(self, pad):
        ds = load_csv(csv_for([f"v1{pad},{pad}p,e,m,{pad}1{pad}"]), ["v1"])
        assert ds.records == (("v1", "p", "e", "m", 1.0),)

    def test_equal_labels_share_one_object(self):
        ds = load_csv(csv_for(["v1,pkg,ent,met,1", "v2,pkg,ent,met,2"]), ["v1", "v2"])
        first, second = ds.records
        assert first.package is second.package
        assert first.entity is second.entity
        assert first.metric is second.metric

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_left_as_found(self, enabled):
        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            load_csv(csv_for(["v1,p,e,m,1", "v1,p,f,m,2"]), ["v1"])
            assert gc.isenabled() is enabled
            for bad in (["v1,p,e,m,1", "v1,p,e,m,2"], ["v1,p,e,m,x"], ["v1,p,e,m"]):
                with pytest.raises(InputError):
                    load_csv(csv_for(bad), ["v1"])
                assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()


def reference_load_csv(text, version_order=None):
    """The original per-line loader: the reference for records and error texts."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise InputError("line 1: missing header")
    header = tuple(f.strip() for f in lines[0].split(","))
    if header != CSV_HEADER:
        raise InputError(
            f"line 1: expected header {','.join(CSV_HEADER)!r}, got {lines[0].strip()!r}"
        )
    known = set(version_order) if version_order is not None else None
    implied = []
    records = []
    seen = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = [f.strip() for f in raw.split(",")]
        if len(fields) != 5:
            raise InputError(
                f"line {lineno}: expected 5 comma-separated fields, got {len(fields)}"
            )
        version, package, entity, metric, value_text = fields
        if not (version and package and entity and metric):
            raise InputError(f"line {lineno}: empty label field")
        if known is not None and version not in known:
            raise InputError(f"line {lineno}: unknown version {version!r} (not in manifest)")
        try:
            value = float(value_text)
        except ValueError:
            raise InputError(f"line {lineno}: cannot parse value {value_text!r}") from None
        if not math.isfinite(value):
            raise InputError(f"line {lineno}: non-finite value {value_text!r}")
        key = (version, package, entity, metric)
        if key in seen:
            raise InputError(f"line {lineno}: duplicate record for {key!r}")
        seen.add(key)
        if known is None and version not in implied:
            implied.append(version)
        records.append(Record(version, package, entity, metric, value))
    order = tuple(version_order) if version_order is not None else tuple(implied)
    return MetricsDataset(records=tuple(records), version_order=order)


def random_csv(rng, padded):
    """A small CSV mixing valid rows with every fault the loader must name.

    Unless ``padded``, the text is ASCII with no whitespace but line breaks.
    """
    breaks = ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
    pads, empty, blank, headers = [""], [""], [""], [""]
    if padded:
        pads = ["", "", "", "", " ", "\t", "\xa0", " \x1f"]
        empty = ["", " ", "\xa0"]
        blank = ["", " ", "\t\xa0"]
        breaks = breaks + ["\x85", "\u2028"]
        headers = ["  ", " version , package,entity,metric,value "]
    pools = [["v1", "v2", "9.0"], ["p", "q"], ["e1", "e2"], ["m"]]
    values = ["1", "2.5", "-0", "1e-3", "1_0", "\u0661" if padded else "+5", "nan", "inf", "-inf",
              "1e400", "", "abc", "0x1", "1__0"]
    header = ",".join(CSV_HEADER)
    if rng.random() < 0.06:
        header = rng.choice(headers + ["version,package,entity,metric"])
    lines = [header]
    for _ in range(rng.randrange(9)):
        if rng.random() < 0.1:
            lines.append(rng.choice(blank))
            continue
        fields = [rng.choice(empty if rng.random() < 0.03 else pool) for pool in pools]
        fields.append(rng.choice(values[:6] if rng.random() < 0.85 else values))
        if rng.random() < 0.04:
            fields.pop(rng.randrange(5))
        elif rng.random() < 0.04:
            fields.insert(rng.randrange(6), rng.choice(pools[1]))
        lines.append(",".join(rng.choice(pads) + f + rng.choice(pads) for f in fields))
    manifest = rng.choice([None, None, ["v1", "v2"], ["v2", "v1", "9.0"], ["v2"]])
    text = "".join(line + rng.choice(breaks) for line in lines)
    return (text if rng.random() < 0.8 else text.rstrip("\n")), manifest


# every refusal of load_csv, by the start of its message after "line N: "
RULES = ("missing header", "expected header", "expected 5 comma-separated fields",
         "empty label field", "unknown version", "cannot parse value", "non-finite value",
         "duplicate record")


class TestLoadCsvContract:
    @pytest.mark.parametrize("padded", [True, False])
    def test_matches_the_reference_loader(self, padded):
        rng = random.Random(2017)
        outcomes = Counter()
        for _ in range(4000):
            text, manifest = random_csv(rng, padded)
            try:
                expected = reference_load_csv(text, manifest)
            except InputError as exc:
                with pytest.raises(InputError) as got:
                    load_csv(text, manifest)
                assert str(got.value) == str(exc), text
                rule = str(exc).split(": ", 1)[1]
                outcomes[next(k for k in RULES if rule.startswith(k))] += 1
                continue
            ds = load_csv(text, manifest)
            assert ds == expected, text
            assert all(type(r) is Record for r in ds.records)
            outcomes["loaded"] += 1
        for kind in ("loaded", *RULES):
            assert outcomes[kind] >= 20, outcomes

    @pytest.mark.parametrize("rows, message", [
        (["v9,,e,m,x,1"], "line 2: expected 5 comma-separated fields, got 6"),
        (["v9,,e,m,x"], "line 2: empty label field"),
        (["v9,p,e,m,x"], "line 2: unknown version 'v9' (not in manifest)"),
        (["v1,p,e,m,nan", "v1,p,e,m,x"], "line 2: non-finite value 'nan'"),
        (["v1,p,e,m,1", "v1,p,e,m,nan"], "line 3: non-finite value 'nan'"),
        (["v1,p,e,m,1", "", "v1,p,e,m,1"], "line 4: duplicate record for ('v1', 'p', 'e', 'm')"),
        (["v1,p,e,m,1", "v9,p,e,m,x,1"], "line 3: expected 5 comma-separated fields, got 6"),
        (["v1,p,e,m,1", "v1,p,e,m,1", "v1,p"], "line 3: duplicate record for ('v1', 'p', 'e', 'm')"),
    ])
    def test_first_failing_line_and_rule_win(self, rows, message):
        with pytest.raises(InputError) as got:
            load_csv(csv_for(rows), ["v1"])
        assert str(got.value) == message
        with pytest.raises(InputError) as reference:
            reference_load_csv(csv_for(rows), ["v1"])
        assert str(reference.value) == message


class TestSlice:
    def test_values_sorted_by_entity(self):
        ds = load_csv(csv_for(["v1,p,B,m,5", "v1,p,A,m,3"]), ["v1"])
        assert list(slice_distribution(ds, "v1", "p", "m")) == [3.0, 5.0]

    def test_empty_slice(self):
        ds = load_csv(csv_for(["v1,p,e,m,1"]), ["v1", "v2"])
        with pytest.raises(AnalysisError, match="empty slice"):
            slice_distribution(ds, "v2", "p", "m")

    def test_other_packages_and_metrics_ignored(self):
        ds = load_csv(
            csv_for(["v1,p,e,m,1", "v1,q,e,m,99", "v1,p,e,other,42"]), ["v1"]
        )
        assert list(slice_distribution(ds, "v1", "p", "m")) == [1.0]

    def test_version_slices_pairs_and_gaps(self):
        rows = ["v3,p,b,m,0", "v1,p,b,m,2", "v1,p,a,m,1", "v3,p,a,m,0", "v1,q,a,m,9"]
        ds = load_csv(csv_for(rows), ["v1", "v2", "v3"])
        slices, gaps = version_slices(ds, "p", "m")
        assert [(v, list(x)) for v, x in slices] == [("v1", [1.0, 2.0]), ("v3", [0.0, 0.0])]
        assert gaps == ("v2",)
        slices, gaps = version_slices(ds, "p", "m", drop_zeros=True)
        assert [v for v, _ in slices] == ["v1"]
        assert gaps == ("v2", "v3")

    def test_lookup_outside_the_version_order(self):
        ds = MetricsDataset(records=load_csv(csv_for(["v9,p,e,m,4"])).records, version_order=("v1",))
        assert list(slice_distribution(ds, "v9", "p", "m")) == [4.0]
        assert version_slices(ds, "p", "m") == ([], ("v1",))


class TestBuildSeries:
    def test_gini_point_matches_index(self):
        ds = dataset_with_series([[1, 2, 3, 4]])
        series, gaps = build_series(ds, "p", "m", "gini")
        assert series.points == (("v1", 0.25),)
        assert gaps == ()

    def test_equal_slices_give_zero_series(self):
        ds = dataset_with_series([[2, 2], [7, 7]])
        series, _ = build_series(ds, "p", "m", "gini")
        assert series.points == (("v1", 0.0), ("v2", 0.0))

    def test_mean_statistic(self):
        ds = dataset_with_series([[1, 3], [2, 6]])
        series, _ = build_series(ds, "p", "m", "mean")
        assert series.points == (("v1", 2.0), ("v2", 4.0))

    def test_median_statistic(self):
        ds = dataset_with_series([[1, 2, 10]])
        series, _ = build_series(ds, "p", "m", "median")
        assert series.points == (("v1", 2.0),)

    def test_gaps_recorded_in_manifest_order(self):
        rows = ["v1,p,e,m,1", "v3,p,e,m,2"]
        ds = load_csv(csv_for(rows), ["v1", "v2", "v3", "v4"])
        series, gaps = build_series(ds, "p", "m", "raw")
        assert series.versions() == ["v1", "v3"]
        assert gaps == ("v2", "v4")
        assert len(series.points) + len(gaps) == len(ds.version_order)

    def test_raw_requires_single_record(self):
        ds = dataset_with_series([[1, 2]])
        with pytest.raises(AnalysisError, match="'v1'.*exactly one record"):
            build_series(ds, "p", "m", "raw")

    def test_index_error_annotated_with_version(self):
        ds = dataset_with_series([[1, 2], [0, 0]])
        with pytest.raises(AnalysisError, match="'v2'.*degenerate mean"):
            build_series(ds, "p", "m", "gini")

    def test_unknown_statistic(self):
        ds = dataset_with_series([[1, 2]])
        with pytest.raises(ValueError, match="unknown statistic"):
            build_series(ds, "p", "m", "variance")

    def test_atkinson_uses_epsilon(self):
        ds = dataset_with_series([[1, 2, 3, 4]])
        half, _ = build_series(ds, "p", "m", "atkinson", epsilon=0.5)
        two, _ = build_series(ds, "p", "m", "atkinson", epsilon=2.0)
        assert half.points[0][1] != two.points[0][1]

    def test_drop_zeros_filters_each_slice(self):
        ds = dataset_with_series([[0, 1, 2, 3], [0, 0, 0, 0]])
        series, gaps = build_series(ds, "p", "m", "gini", drop_zeros=True)
        assert series.points == (("v1", gini([1, 2, 3])),)
        assert gaps == ("v2",)  # emptied by the filter

    def test_zeros_kept_by_default(self):
        ds = dataset_with_series([[0, 1, 2, 3]])
        series, _ = build_series(ds, "p", "m", "gini")
        assert series.points == (("v1", gini([0, 1, 2, 3])),)


class TestPipeline:
    def test_increasing_gini_series_is_upward(self):
        # slice spread widens version over version, so gini strictly rises
        ds = dataset_with_series([[1, 1 + k, 1 + 2 * k, 1 + 3 * k] for k in range(12)])
        result = run_pipeline(ds, "p", "m", "gini", alpha=0.01)
        values = result.series.values()
        assert all(b > a for a, b in zip(values, values[1:]))
        assert result.trend.decision == "upward"

    def test_constant_series_not_rejected(self):
        ds = dataset_with_series([[1, 2]] * 6)
        result = run_pipeline(ds, "p", "m", "gini", alpha=0.01)
        assert result.trend.decision == "no_trend_not_rejected"

    def test_three_versions_refused(self):
        ds = dataset_with_series([[1, 2]] * 3)
        with pytest.raises(AnalysisError, match="series too short for trend: 3"):
            run_pipeline(ds, "p", "m", "gini")

    def test_agrees_with_manual_composition(self):
        rng = np.random.default_rng(31)
        ds = dataset_with_series([list(rng.uniform(1, 9, 6)) for _ in range(8)])
        result = run_pipeline(ds, "p", "m", "gini", alpha=0.05)
        by_hand = [gini(slice_distribution(ds, f"v{i + 1}", "p", "m")) for i in range(8)]
        assert result.series.values() == by_hand
        assert result.trend == mk_test(by_hand, alpha=0.05)

    def test_deterministic_under_record_shuffling(self):
        rng = np.random.default_rng(32)
        rows = [
            f"v{i + 1},p,e{j},m,{float(rng.uniform(1, 9))!r}"
            for i in range(6)
            for j in range(5)
        ]
        forward = load_csv(csv_for(rows), [f"v{i + 1}" for i in range(6)])
        shuffled_rows = list(rows)
        rng.shuffle(shuffled_rows)
        shuffled = load_csv(csv_for(shuffled_rows), [f"v{i + 1}" for i in range(6)])
        assert run_pipeline(forward, "p", "m", "gini") == run_pipeline(shuffled, "p", "m", "gini")

    def test_inequality_reports_absent_for_raw(self):
        ds = dataset_with_series([[k] for k in range(1, 6)])
        result = run_pipeline(ds, "p", "m", "raw")
        assert result.inequality_per_version is None

    def test_inequality_reports_match_slices(self):
        ds = dataset_with_series([[1, 2, 3, 4], [2, 2, 2, 8], [1, 5, 5, 5], [3, 4, 5, 6]])
        result = run_pipeline(ds, "p", "m", "theil", epsilon=1.0, alpha=0.05)
        assert result.inequality_per_version is not None
        for (version, _), rep in zip(result.series.points, result.inequality_per_version):
            expected = inequality_report(slice_distribution(ds, version, "p", "m"), 1.0)
            assert rep == expected
            assert rep.n == 4

    def test_gap_transparency(self):
        rows = [f"v{i},p,e,m,{i}.0" for i in (1, 2, 4, 6, 7)]
        ds = load_csv(csv_for(rows), [f"v{i}" for i in range(1, 8)])
        result = run_pipeline(ds, "p", "m", "raw", alpha=0.05)
        assert len(result.series.points) + len(result.gaps) == 7
        assert result.gaps == ("v3", "v5")

    def test_parallel_pipelines_match_sequential(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(33)
        versions = [f"v{i}" for i in range(1, 9)]
        rows = [
            f"{version},{package},e{j},m,{float(rng.uniform(1, 9))!r}"
            for package in ("alpha", "beta", "gamma")
            for version in versions
            for j in range(5)
        ]
        ds = load_csv(csv_for(rows), versions)
        jobs = [("alpha", "m"), ("beta", "m"), ("gamma", "m")]
        sequential = [run_pipeline(ds, p, m, "gini", alpha=0.05) for p, m in jobs]
        with ThreadPoolExecutor(max_workers=3) as pool:
            parallel = list(pool.map(lambda pm: run_pipeline(ds, *pm, "gini", alpha=0.05), jobs))
        assert parallel == sequential

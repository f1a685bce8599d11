"""Tests for manifest/CSV ingestion, slicing, series building, and the pipeline."""

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
from evometrics.dataset import MetricsDataset, version_slices

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

"""Structural and determinism tests for the SVG series plots."""

import re
import xml.etree.ElementTree as ET

import pytest

from evometrics import AnalysisError, VersionSeries, mk_test
from evometrics.svgplot import render_svg


def series_of(points, package="pkg", metric="effort", statistic="gini"):
    return VersionSeries(package=package, metric=metric, statistic=statistic, points=tuple(points))


def polyline_points(svg):
    chunks = re.findall(r'<polyline[^>]*points="([^"]*)"', svg)
    assert len(chunks) == 1
    return chunks[0].split()


class TestStructure:
    def test_two_point_series_has_one_polyline_with_two_pairs(self):
        svg = render_svg(series_of([("v1", 0.2), ("v2", 0.4)]))
        assert svg.count("<polyline") == 1
        assert len(polyline_points(svg)) == 2

    def test_well_formed_xml(self):
        svg = render_svg(series_of([("v1", 1.0), ("v2", 2.0), ("v3", 1.5)]))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_version_labels_present_in_order(self):
        svg = render_svg(series_of([("8.1", 1.0), ("9.0", 2.0), ("10.0.p01", 1.5)]))
        positions = [svg.index(f">{label}</text>") for label in ("8.1", "9.0", "10.0.p01")]
        assert positions == sorted(positions)

    def test_single_point_and_constant_series_render(self):
        assert "<polyline" in render_svg(series_of([("v1", 0.0)]))
        svg = render_svg(series_of([("v1", 3.0), ("v2", 3.0)]))
        assert len(polyline_points(svg)) == 2

    def test_label_escaping(self):
        svg = render_svg(series_of([("v<1>", 1.0), ("v&2", 2.0)], package="a<b&c"))
        ET.fromstring(svg)
        assert "a&lt;b&amp;c" in svg

    # XML 1.0 has no escape for these characters, so a document holding one is not well-formed;
    # a lone surrogate can come from a manifest's JSON, and UTF-8 cannot encode it either
    @pytest.mark.parametrize("bad", ["\x01", "\x08", "\x0e", "\x1f", "\ud800", "\ufffe",
                                     "\uffff"])
    @pytest.mark.parametrize("where", ["version", "package", "gap"])
    def test_label_xml_cannot_carry_is_refused_naming_it(self, where, bad):
        label = f"a{bad}b"
        series = series_of([(label if where == "version" else "v1", 1.0), ("v2", 2.0)],
                           package=label if where == "package" else "pkg")
        gaps = (label,) if where == "gap" else ()
        message = f"cannot plot label {label!r}: XML cannot carry U+{ord(bad):04X}"
        with pytest.raises(AnalysisError, match=f"^{re.escape(message)}$"):
            render_svg(series, gaps=gaps)

    def test_label_characters_xml_allows_render(self):
        label = "tab\there \u00e9\ud7ff\ue000\ufffd\U0001f600"
        svg = render_svg(series_of([(label, 1.0), ("v2", 2.0)], package=label), gaps=(label,))
        ET.fromstring(svg)
        assert svg.count(label) == 3

    def test_empty_series_refused(self):
        with pytest.raises(AnalysisError, match="empty series"):
            render_svg(series_of([]))

    @pytest.mark.parametrize("values", [[-1e308, 1e308, 0.0, 5.0], [1.7e308, 1.7e308]])
    def test_range_beyond_the_float_range_refused(self, values):
        # the padded range overflows to inf, so every coordinate and tick label would be nan
        with pytest.raises(AnalysisError, match="plot range beyond the float range"):
            render_svg(series_of([(f"v{i}", v) for i, v in enumerate(values)]))
        assert "nan" not in render_svg(series_of([("v1", -1e307), ("v2", 1e307)]))


class TestAnnotations:
    def test_trend_annotation(self):
        trend = mk_test([1.0, 2.0, 3.0, 4.0, 5.0], alpha=0.05)
        svg = render_svg(series_of([(f"v{i}", float(i)) for i in range(1, 6)]), trend)
        assert "trend: upward" in svg
        assert "alpha=0.05" in svg

    def test_gap_annotation_lists_missing_versions(self):
        svg = render_svg(series_of([("v1", 1.0), ("v3", 2.0)]), gaps=("v2",))
        assert "gaps (no data): v2" in svg
        assert len(polyline_points(svg)) == 2  # gap version contributes no vertex

    def test_no_annotations_without_inputs(self):
        svg = render_svg(series_of([("v1", 1.0), ("v2", 2.0)]))
        assert "trend:" not in svg
        assert "gaps" not in svg


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self):
        points = [(f"v{i}", 0.1 * i * i - 0.3 * i) for i in range(1, 9)]
        trend = mk_test([v for _, v in points], alpha=0.01)
        first = render_svg(series_of(points), trend, gaps=("v9",))
        second = render_svg(series_of(points), trend, gaps=("v9",))
        assert first == second

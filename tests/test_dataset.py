"""Tests for manifest/CSV ingestion, slicing, series building, and the pipeline."""

import bisect
import gc
import hashlib
import inspect
import json
import math
import random
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

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
    report,
    run_pipeline,
    slice_distribution,
)
from evometrics import cli, dataset
from evometrics.dataset import CSV_HEADER, MetricsDataset, Record, version_slices

HEADER = "version,package,entity,metric,value\n"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


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

    def test_nested_too_deeply(self):  # json.loads raises RecursionError, not JSONDecodeError
        with pytest.raises(InputError, match="^malformed manifest: "):
            load_manifest("[" * 100000)

    def test_missing_key(self):
        with pytest.raises(InputError, match="versions"):
            load_manifest('{"releases":["a"]}')

    def test_non_string_labels(self):
        with pytest.raises(InputError, match="list of strings"):
            load_manifest('{"versions":[1,2]}')

    # labels no CSV row can carry: load_csv strips fields and splits on commas and lines
    @pytest.mark.parametrize("label", ["", "r01 ", "\tr01", "r,01", "r01\n", "r\u202801"])
    def test_label_no_csv_row_can_carry(self, label):
        with pytest.raises(InputError) as info:
            load_manifest(json.dumps({"versions": [label, "r02"]}))
        assert str(info.value) == f"malformed manifest: version {label!r} cannot be a CSV label"

    # every character str.splitlines breaks a line at, as load_csv splits its rows
    @pytest.mark.parametrize("brk", ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028", "\u2029"])
    def test_a_label_holding_a_line_boundary_is_one_no_row_can_carry(self, brk):
        with pytest.raises(InputError, match="cannot be a CSV label"):
            load_manifest(json.dumps({"versions": [f"r{brk}01"]}))
        with pytest.raises(InputError, match="line 2: expected 5 comma-separated fields, got 1"):
            load_csv(csv_for([f"r{brk}01,p,e,m,1"]))

    @pytest.mark.parametrize("label", ["r\x1f01", "r\t01", "r 01"])  # inner space, not a boundary
    def test_a_label_holding_inner_space_is_carried(self, label):
        assert load_manifest(json.dumps({"versions": [label]})) == (label,)
        assert load_csv(csv_for([f"{label},p,e,m,1"]), [label]).records[0][0] == label


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

    def test_each_release_keeps_its_entities_beside_its_values(self):
        rows = ["v1,p,b,m,2", "v1,p,a,m,1", "v2,p,a,m,3", "v2,p,b,m,4", "v1,q,a,m,5"]
        ds = load_csv(csv_for(rows), ["v1", "v2"])
        assert ds._groups == {"p": {"m": {"v1": (("a", "b"), [1.0, 2.0]),
                                          "v2": (("a", "b"), [3.0, 4.0])}},
                              "q": {"m": {"v1": (("a",), [5.0])}}}
        releases = ds._groups["p"]["m"]
        assert releases["v1"][0] is releases["v2"][0]  # equal entity tuples are one object

    def test_equal_grouping_keys_share_one_object(self):
        # marshal writes a shared object once, so a cache entry's bytes depend on the sharing
        ds = load_csv(csv_for(["v1,p,e,m,1", "v1,q,e,m,2", "v2,q,e,p,3", "v1,m,e,v1,4"]))
        keys = [*ds.version_order]
        for package, by_metric in ds._groups.items():
            keys.append(package)
            for metric, by_version in by_metric.items():
                keys += [metric, *by_version]
        first = {}
        assert all(first.setdefault(key, key) is key for key in keys)
        assert len(first) == 5

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


def in_grouping_order(records):
    """``records`` in the order a dataset built from its grouping gives them: by package,
    metric and version, each in the order it first comes, then by entity."""
    groups = {}
    for r in records:
        by_version = groups.setdefault(r.package, {}).setdefault(r.metric, {})
        by_version.setdefault(r.version, []).append(r)
    return tuple(r for by_metric in groups.values() for by_version in by_metric.values()
                 for release in by_version.values()
                 for r in sorted(release, key=lambda r: r.entity))


def assert_one_grouping(ds, reference):
    """Every (package, metric) of a parsed dataset slices as one made from the reference
    loader's records does: the grouping built while parsing follows the records' rule."""
    twin = MetricsDataset(reference.records, reference.version_order)
    for package, metric in {(r.package, r.metric) for r in reference.records}:
        for drop_zeros in (False, True):
            assert (version_slices(ds, package, metric, drop_zeros)
                    == version_slices(twin, package, metric, drop_zeros)), (package, metric)


# every refusal of load_csv, by the start of its message after "line N: "
RULES = ("missing header", "expected header", "expected 5 comma-separated fields",
         "empty label field", "unknown version", "cannot parse value", "non-finite value",
         "duplicate record")


# (rows, refusal): each row breaks a rule, and the first such line and rule win
FIRST_FAILURES = [
    (["v9,,e,m,x,1"], "line 2: expected 5 comma-separated fields, got 6"),
    (["v9,,e,m,x"], "line 2: empty label field"),
    (["v9,p,e,m,x"], "line 2: unknown version 'v9' (not in manifest)"),
    (["v1,p,e,m,nan", "v1,p,e,m,x"], "line 2: non-finite value 'nan'"),
    (["v1,p,e,m,1", "v1,p,e,m,nan"], "line 3: non-finite value 'nan'"),
    (["v1,p,e,m,1", "", "v1,p,e,m,1"], "line 4: duplicate record for ('v1', 'p', 'e', 'm')"),
    (["v1,p,e,m,1", "v9,p,e,m,x,1"], "line 3: expected 5 comma-separated fields, got 6"),
    (["v1,p,e,m,1", "v1,p,e,m,1", "v1,p"], "line 3: duplicate record for ('v1', 'p', 'e', 'm')"),
    # one chunk trips two column checks, each on its own line; the earlier line wins
    (["v1,p,e,m,1", "v1,p,e,m,inf", "v9,p,f,m,1"], "line 3: non-finite value 'inf'"),
    (["v1,p,e,m,1", "v9,p,f,m,1", "v1,p,e,m,2"], "line 3: unknown version 'v9' (not in manifest)"),
    (["v1,p,e,m,1", "v1,,f,m,1", "v1,p,e,m,2"], "line 3: empty label field"),
    (["v1,p,e,m,1", "v1,p,f,m,x", "v1,p,e,m,inf"], "line 3: cannot parse value 'x'"),
    # of two repeated keys, the one whose second line comes first, in or across releases
    (["v1,q,a,n,1", "v1,p,b,m,1", "v1,p,b,m,2", "v1,q,a,n,2"],
     "line 4: duplicate record for ('v1', 'p', 'b', 'm')"),
    (["v1,p,b,m,1", "v1,q,a,n,1", "v1,q,a,n,2", "v1,p,b,m,2"],
     "line 4: duplicate record for ('v1', 'q', 'a', 'n')"),
    (["v1,p,b,m,1", "v1,p,a,m,1", "v1,p,b,m,2", "v1,p,a,m,2"],
     "line 4: duplicate record for ('v1', 'p', 'b', 'm')"),
]


class TestLoadCsvContract:
    @pytest.mark.parametrize("padded", [True, False])
    def test_matches_the_reference_loader(self, padded):
        rng = random.Random(2017)
        outcomes = Counter()
        for _ in range(4000):
            got = assert_like_the_reference(*random_csv(rng, padded))
            if isinstance(got, str):
                rule = got.split(": ", 1)[1]
                outcomes[next(k for k in RULES if rule.startswith(k))] += 1
            else:
                outcomes["loaded"] += 1
        for kind in ("loaded", *RULES):
            assert outcomes[kind] >= 20, outcomes

    @pytest.mark.parametrize("rows, message", FIRST_FAILURES)
    def test_first_failing_line_and_rule_win(self, rows, message):
        with pytest.raises(InputError) as got:
            load_csv(csv_for(rows), ["v1"])
        assert str(got.value) == message
        with pytest.raises(InputError) as reference:
            reference_load_csv(csv_for(rows), ["v1"])
        assert str(reference.value) == message


# chunk sizes below the default put a chunk boundary at every position of a short text
SMALL_CHUNKS = [1, 2, 7, 64]


def assert_like_the_reference(text, manifest=None):
    """load_csv gives the reference loader's dataset, its records in grouping order, or its
    refusal word for word."""
    try:
        reference = reference_load_csv(text, manifest)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            load_csv(text, manifest)
        assert str(got.value) == str(exc), text
        return str(exc)
    ds = load_csv(text, manifest)
    assert_one_grouping(ds, reference)
    assert ds.records == in_grouping_order(reference.records), text
    assert ds == MetricsDataset(ds.records, reference.version_order), text
    assert all(type(r) is Record for r in ds.records)
    return ds


class TestLoadCsvChunks:
    """The body is parsed in chunks; no boundary may change a record or a refusal."""

    @pytest.fixture(params=SMALL_CHUNKS)
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", request.param, raising=False)
        return request.param

    @pytest.mark.parametrize("padded", [True, False])
    def test_matches_the_reference_loader_at_every_boundary(self, chunk, padded):
        TestLoadCsvContract().test_matches_the_reference_loader(padded)

    @pytest.mark.parametrize("rows, message", FIRST_FAILURES)
    def test_first_failing_line_and_rule_win_at_every_boundary(self, chunk, rows, message):
        TestLoadCsvContract().test_first_failing_line_and_rule_win(rows, message)

    def test_duplicate_of_a_row_several_chunks_earlier(self, chunk):
        rows = ["v1,p,e0,m,1", *(f"v1,p,e{i},m,1" for i in range(1, 30)), "v1,p,e0,m,2"]
        message = assert_like_the_reference(csv_for(rows), ["v1"])
        assert message == "line 32: duplicate record for ('v1', 'p', 'e0', 'm')"

    def test_duplicate_in_the_first_chunk_beats_a_later_field_count(self, monkeypatch):
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", 64, raising=False)
        text = csv_for(["v1,p,e,m,1", "v1,p,e,m,2", *(f"v1,p,e{i},m,1" for i in range(9)), "v1,p"])
        assert text.index("v1,p,e,m,2") < 64 < text.index("v1,p\n")
        message = assert_like_the_reference(text, ["v1"])
        assert message == "line 3: duplicate record for ('v1', 'p', 'e', 'm')"

    def test_bad_value_in_the_first_chunk_beats_a_later_duplicate(self, monkeypatch):
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", 64, raising=False)
        text = csv_for(["v1,p,e,m,x", *(f"v1,p,e{i},m,1" for i in range(9)), "v1,p,e0,m,2"])
        assert text.index("v1,p,e,m,x") < 64 < text.index("v1,p,e0,m,2")
        message = assert_like_the_reference(text, ["v1"])
        assert message == "line 2: cannot parse value 'x'"

    @pytest.mark.parametrize("manifest", [None, ["v1"]])
    def test_header_only(self, chunk, manifest):
        for text in (HEADER, HEADER.rstrip("\n"), HEADER + "\n \n"):
            ds = assert_like_the_reference(text, manifest)
            assert ds.records == ()
            assert ds.version_order == (tuple(manifest) if manifest else ())

    def test_carriage_return_breaks_and_no_line_feed(self, chunk):
        text = HEADER.replace("\n", "\r") + "v1,p,e,m,1\rv2,p,e,m,2\r\rv1,p,f,m,3\r"
        assert len(assert_like_the_reference(text).records) == 3
        assert_like_the_reference(text + "v2,p,e,m,4\r")  # a duplicate on the last line

    def test_crlf_at_and_around_every_boundary(self, monkeypatch):
        text = csv_for(["v1,p,e,m,1", "v2,p,e,m,2", "", "v1,p,f,m,3"]).replace("\n", "\r\n")
        for size in range(1, len(text) + 2):  # the "\r\n" ends exactly at some boundaries
            monkeypatch.setattr(dataset, "_CHUNK_CHARS", size, raising=False)
            assert len(assert_like_the_reference(text, ["v1", "v2"]).records) == 3
            assert_like_the_reference(text + "v1,p,f,m,4\r\n", ["v1", "v2"])

    def test_line_longer_than_a_chunk(self, monkeypatch):
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", 16, raising=False)
        long_entity = "src/" + "x" * 200 + ".cc"
        text = csv_for(["v1,p,e,m,1", f"v1,p,{long_entity},m,2", "v1,p,f,m,3"])
        ds = assert_like_the_reference(text, ["v1"])
        assert [r.entity for r in ds.records] == ["e", "f", long_entity]  # in entity order
        assert_like_the_reference(text + f"v1,p,{long_entity},m,4\n", ["v1"])

    @pytest.mark.parametrize("size", [1, 7, 1 << 14])
    def test_shuffled_rows_load_like_the_reference(self, monkeypatch, size):
        # each release's rows out of entity order: its values are reordered by the entities
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", size, raising=False)
        versions = [f"r{k}" for k in range(4)]
        rows = [f"{version},p{p},src/e{j:03}.c,m{m},{(j * 7 + k) % 11 / 4}"
                for k, version in enumerate(versions) for p in range(3) for j in range(120)
                for m in range(2)]
        random.Random(30).shuffle(rows)
        assert len(csv_for(rows)) > 4 * (1 << 14)
        assert len(assert_like_the_reference(csv_for(rows), versions).records) == len(rows)
        version, package, entity, metric, _ = rows[0].split(",")
        message = assert_like_the_reference(csv_for([*rows, f"{rows[0]}5"]), versions)
        assert message == (f"line {len(rows) + 2}: duplicate record for "
                           f"{(version, package, entity, metric)!r}")

    def test_versions_first_seen_in_different_chunks_keep_their_order(self, chunk):
        rows = ["b,p,e,m,1", "a,p,e,m,1", "b,p,f,m,1", *(f"c,p,e{i},m,1" for i in range(5)),
                "a,p,f,m,1", "d,p,e,m,1"]
        ds = assert_like_the_reference(csv_for(rows))
        assert ds.version_order == ("b", "a", "c", "d")

    def test_equal_labels_share_one_object_across_chunks(self, chunk):
        TestLoadCsv().test_equal_labels_share_one_object()

    def test_rows_sharing_three_of_the_four_key_labels_load(self, chunk):
        rows = ["v1,p,e,m,1", "v2,p,e,m,2", "v1,q,e,m,3", "v1,p,f,m,4", "v1,p,e,n,5"]
        for ordered in (rows, rows[::-1]):
            ds = assert_like_the_reference(csv_for(ordered), ["v1", "v2"])
            assert len(ds.records) == 5

    def test_a_duplicate_across_a_boundary_beats_a_later_unknown_version(self, monkeypatch):
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", 64, raising=False)
        rows = ["v1,p,e,m,1", *(f"v1,p,e{i},m,1" for i in range(6)), "v1,p,e,m,2",
                *(f"v1,p,f{i},m,1" for i in range(8)), "v9,p,g,m,1"]
        text = csv_for(rows)
        ends, end = [], len(HEADER)
        while end < len(text):
            end = dataset._chunk_end(text, end)
            ends.append(end)
        chunks = [bisect.bisect_right(ends, text.index(row)) for row in (rows[0], rows[7], rows[-1])]
        assert chunks[0] < chunks[1] < chunks[2], chunks
        message = assert_like_the_reference(text, ["v1"])
        assert message == "line 9: duplicate record for ('v1', 'p', 'e', 'm')"

    def test_transient_memory_per_row_is_bounded(self):
        # tracemalloc counts allocations, so the figure repeats exactly. Splitting the whole
        # body at once took about 210 (Python 3.12, 3.13) to 250 (3.10, 3.11) bytes per row
        # beyond the text and the records kept. Chunks of 2**18 characters with (entity,
        # value) pairs took about 110 (2.9 times what the dataset keeps); chunks of 2**14
        # with a list of entities and one of values take about 14 (0.4 times), mostly the
        # entity lists, which the sort replaces by shared tuples.
        rows = 60_000
        versions = [f"{i // 10}.{i % 10}" for i in range(40)]
        text = HEADER + "".join(
            f"{versions[i % 40]},pkg{i % 7},src/file{i // 40}.cc,m{i % 3},{i * 37 % 1000 / 4}\n"
            for i in range(rows)
        )
        tracemalloc.start()
        try:
            ds = load_csv(text, versions)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds.records) == rows
        assert (peak - retained) / rows < 180
        assert peak - retained < retained / 2

    def test_the_rows_of_an_entity_share_its_label_while_parsing(self, monkeypatch):
        # The releases hold each row's entity until the last chunk is in. With entity labels
        # 50 characters longer, a copy per row peaked about 38 bytes a row higher; one object
        # per label peaks about 13 bytes a row lower (a chunk holds fewer of the longer rows).
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", 1 << 14, raising=False)
        rows, peaks = 20_000, []
        for pad in ("", "x" * 50):
            text = HEADER + "".join(f"v1,p,e{pad}{i % 50},m{i // 50},{i}\n" for i in range(rows))
            tracemalloc.start()
            try:
                load_csv(text, ["v1"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / rows < 15

    @pytest.mark.parametrize("last, message", [
        ("v1,pkg0,src/file0.cc,m0,9", "duplicate record for ('v1', 'pkg0', 'src/file0.cc', 'm0')"),
        ("v1,pkg0,src/file0.cc", "expected 5 comma-separated fields, got 3"),
    ], ids=["duplicate", "field count"])
    def test_refusal_on_the_last_line_peaks_like_a_clean_load(self, last, message, monkeypatch):
        # Numbering the line by splitting the whole text, or keying every earlier record to
        # find the duplicate, peaked 25 % (field count) and 60 % (duplicate) above the clean
        # load; both are done within the failing chunk, whose share a small chunk keeps small.
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", 1 << 14, raising=False)
        rows = 20_000
        clean = HEADER + "".join(
            f"v1,pkg{i % 7},src/file{i}.cc,m{i % 3},{i / 4}\n" for i in range(rows)
        )
        peaks = []
        for text in (clean, clean + last + "\n"):
            tracemalloc.start()
            try:
                load_csv(text, ["v1"])
            except InputError as exc:
                assert str(exc) == f"line {rows + 2}: {message}"
            else:
                assert text == clean
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        assert peaks[1] < 1.05 * peaks[0]


def columns_of(*rows):
    """The five columns ``dataset._columns`` gives for these rows, blank ones skipped."""
    return [list(column) for column in zip(*(row.split(",") for row in rows if row))]


class TestUnpaddedChunks:
    """A chunk whose only whitespace is its line feeds is split without a strip; every other
    chunk is stripped. Either way a load matches the reference loader."""

    @pytest.fixture(params=[*SMALL_CHUNKS, 1 << 18])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", request.param, raising=False)
        return request.param

    @pytest.mark.parametrize("inner", [" ", "\xa0", "​", "\x00"],
                             ids=["space", "no-break space", "zero width space", "NUL"])
    def test_a_label_with_an_inner_space_or_invisible_character(self, chunk, inner):
        rows = [f"v1,p,e{inner}f,m,1", f"v1,p{inner}q,e,m,2", "v1,p,e,m,3"]
        ds = assert_like_the_reference(csv_for(rows), ["v1"])
        assert [(r.package, r.entity) for r in ds.records] == [
            ("p", "e"), ("p", f"e{inner}f"), (f"p{inner}q", "e")]  # in grouping order
        assert dataset._columns("".join(f"{row}\n" for row in rows)) == (3, columns_of(*rows))
        message = assert_like_the_reference(csv_for([*rows, f"v1,p{inner}q,e,m,4"]), ["v1"])
        assert message == f"line 5: duplicate record for {('v1', f'p{inner}q', 'e', 'm')!r}"

    def test_a_blank_line_inside_an_unpadded_chunk(self, chunk):
        rows = ["v1,p,e,m,1", "", "v1,p,f,m,2", "v1,p,g,m,3"]
        assert len(assert_like_the_reference(csv_for(rows), ["v1"]).records) == 3
        assert dataset._columns("".join(f"{row}\n" for row in rows)) == (4, columns_of(*rows))
        message = assert_like_the_reference(csv_for([*rows, "v1,p,e,m,4"]), ["v1"])
        assert message == "line 6: duplicate record for ('v1', 'p', 'e', 'm')"

    def test_a_last_row_without_a_line_feed(self, chunk):
        rows = ["v1,p,e,m,1", "v1,p,f,m,2"]
        assert len(assert_like_the_reference(csv_for(rows).rstrip("\n"), ["v1"]).records) == 2
        assert dataset._columns("\n".join(rows)) == (2, columns_of(*rows))
        message = assert_like_the_reference(csv_for([*rows, "v1,p,g,m,x"]).rstrip("\n"), ["v1"])
        assert message == "line 4: cannot parse value 'x'"

    def test_crlf_line_ends(self, chunk):
        rows = ["v1,p,e,m,1", "v1,p,f,m,2"]
        text = csv_for(rows).replace("\n", "\r\n")
        ds = assert_like_the_reference(text, ["v1"])
        assert ds.records == (("v1", "p", "e", "m", 1.0), ("v1", "p", "f", "m", 2.0))
        assert dataset._columns("v1,p,e,m,1\r\nv1,p,f,m,2\r\n") == (2, columns_of(*rows))
        message = assert_like_the_reference(text + "v1,p,g,m,inf\r\n", ["v1"])
        assert message == "line 4: non-finite value 'inf'"

    @pytest.mark.parametrize("later, message", [
        (" v1,p,x,m,1 ", None),
        ("v1,p ,x,m,y", "cannot parse value 'y'"),
        ("v1,\tp,e3,m,2", "duplicate record for ('v1', 'p', 'e3', 'm')"),
    ], ids=["loads", "bad value", "duplicate across the two"])
    def test_an_unpadded_chunk_then_a_padded_one(self, monkeypatch, later, message):
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", 64, raising=False)
        rows = [f"v1,p,e{i},m,{i}" for i in range(6)]
        text = csv_for([*rows, "", later, "v1,p,z,m,1"])
        first_end = dataset._chunk_end(text, len(HEADER))
        assert first_end == len(csv_for(rows))  # the six rows, whose only whitespace is "\n"
        assert any(c.isspace() and c != "\n" for c in text[first_end:])  # then padding
        got = assert_like_the_reference(text, ["v1"])
        if message is None:
            assert len(got.records) == 8
        else:
            assert got == f"line 9: {message}"

    @pytest.mark.parametrize("first", ["v1,p,e f,m,1", "v1,p,e,m,1\rv1,p,f,m,1"],
                             ids=["inner space", "lone CR"])
    def test_an_inner_space_or_break_balancing_a_blank_line(self, chunk, first):
        # as many words as line feeds, as if unpadded with no blank line: only the rows'
        # characters and line feeds falling short of the chunk's length tell it apart
        rows = [first, "", "v1,p,g,m,2"]
        body = "".join(f"{row}\n" for row in rows)
        assert len(body.split()) == body.count("\n")
        assert dataset._columns(body) == (len(body.splitlines()), columns_of(*body.splitlines()))
        assert_like_the_reference(csv_for(rows), ["v1"])
        message = assert_like_the_reference(csv_for([*rows, "v1,p,g,m,3"]), ["v1"])
        line = 2 + len(body.splitlines())  # the header, then the body's lines
        assert message == f"line {line}: duplicate record for ('v1', 'p', 'g', 'm')"


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

    def test_drop_zeros_keeps_negative_values(self):
        rows = ["v1,p,a,m,-1", "v1,p,b,m,0", "v1,p,c,m,2", "v2,p,a,m,-0.0", "v2,p,b,m,0"]
        ds = load_csv(csv_for(rows), ["v1", "v2"])
        slices, gaps = version_slices(ds, "p", "m", drop_zeros=True)
        assert [(v, list(x)) for v, x in slices] == [("v1", [-1.0, 2.0])]
        assert gaps == ("v2",)

    def test_repeated_label_in_the_order_is_served_once_at_its_first_position(self):
        ds = MetricsDataset(releases_of(*[[1.0, 2.0]] * 4).records, ("v1", "v2", "v1", "v3"))
        assert version_slices(ds, "p", "m") == (
            [("v1", [1.0, 2.0]), ("v2", [1.0, 2.0]), ("v3", [1.0, 2.0])], ()
        )

    def test_lookup_outside_the_version_order(self):
        ds = MetricsDataset(records=load_csv(csv_for(["v9,p,e,m,4"])).records, version_order=("v1",))
        assert list(slice_distribution(ds, "v9", "p", "m")) == [4.0]
        assert version_slices(ds, "p", "m") == ([], ("v1",))


class PassCountingRecords(tuple):
    """A record tuple that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def lookup_dataset(seed, records=tuple):
    """Records with gaps, zeros, an absent (r, n) pair and versions outside the order."""
    rng = random.Random(seed)
    versions = tuple(f"v{i}" for i in range(1, 9))
    rows = []
    for package in ("p", "q", "r"):
        for metric in ("m", "n"):
            if (package, metric) == ("r", "n"):
                continue
            for version in (*versions, "v0", "v99"):
                if rng.random() < 0.2:
                    continue  # a gap
                for j in rng.sample(range(30), rng.randint(1, 6)):
                    value = rng.choice([0.0, float(rng.randint(1, 99)), rng.uniform(0.0, 9.0)])
                    rows.append(Record(version, package, f"e{j:02}", metric, value))
    rng.shuffle(rows)
    return MetricsDataset(records=records(rows), version_order=versions)


LOOKUP_KEYS = [
    (package, metric, drop_zeros)
    for package in ("p", "q", "r", "absent")
    for metric in ("m", "n", "absent")
    for drop_zeros in (False, True)
]


def reference_slices(ds, package, metric, drop_zeros):
    """version_slices by a plain filter of every record for every version."""
    slices, gaps = [], []
    for version in ds.version_order:
        pairs = sorted(
            (r.entity, r.value)
            for r in ds.records
            if (r.version, r.package, r.metric) == (version, package, metric)
        )
        values = [value for _, value in pairs if value > 0 or not drop_zeros]
        if values:
            slices.append((version, values))
        else:
            gaps.append(version)
    return slices, tuple(gaps)


class TestLookup:
    @pytest.mark.parametrize("seed", range(5))
    def test_every_lookup_matches_a_reference_filter(self, seed):
        ds = lookup_dataset(seed)
        rng = random.Random(seed)
        for _ in range(3):
            keys = list(LOOKUP_KEYS)
            rng.shuffle(keys)
            for key in keys:
                assert version_slices(ds, *key) == reference_slices(ds, *key), key
                package, metric, _ = key
                for version in ("v3", "v99"):
                    one_version = MetricsDataset(ds.records, (version,))
                    expected, _ = reference_slices(one_version, package, metric, False)
                    if expected:
                        assert slice_distribution(ds, version, package, metric) == expected[0][1]
                    else:
                        with pytest.raises(AnalysisError, match="empty slice"):
                            slice_distribution(ds, version, package, metric)

    def test_one_grouping_pass_serves_every_lookup(self):
        ds = lookup_dataset(7, records=PassCountingRecords)
        assert ds.records.passes == 0  # loading groups nothing
        version_slices(ds, "p", "m")
        assert ds.records.passes == 1
        some = ds.records[0]
        for package, metric, drop_zeros in LOOKUP_KEYS * 3:
            version_slices(ds, package, metric, drop_zeros)
            slice_distribution(ds, some.version, some.package, some.metric)
        assert ds.records.passes == 1

    def test_lookups_leave_equality_hash_repr_and_replace_alone(self):
        for lookups in range(4):
            ds, twin = lookup_dataset(8), lookup_dataset(8)
            for package, metric, drop_zeros in LOOKUP_KEYS[:lookups]:
                version_slices(ds, package, metric, drop_zeros)
            assert ds == twin
            assert hash(ds) == hash(twin)
            assert repr(ds) == repr(twin)
            assert MetricsDataset(ds.records, ds.version_order) == ds
            assert MetricsDataset(ds.records, ("v1",)) == MetricsDataset(twin.records, ("v1",))
            copy = MetricsDataset(ds.records, ds.version_order)
            assert version_slices(copy, "p", "m") == version_slices(twin, "p", "m")

    def test_the_grouping_is_not_a_field(self):
        assert list(inspect.signature(MetricsDataset).parameters) == ["records", "version_order"]
        ds, twin = lookup_dataset(10), lookup_dataset(10)
        version_slices(ds, "p", "m")
        assert "_groups" in vars(ds) and "_groups" not in vars(twin)
        vars(ds)["_groups"] = {}  # a grouping unlike the twin's: no lookup finds anything
        assert version_slices(ds, "p", "m")[0] == []
        assert ds == twin
        assert hash(ds) == hash(twin) == hash((ds.records, ds.version_order))
        assert repr(ds) == repr(twin)
        assert repr(ds) == (f"MetricsDataset(records={ds.records!r}, "
                            f"version_order={ds.version_order!r})")

    def test_records_out_of_entity_order_group_as_a_stable_sort(self):
        # a release is sorted by its entities alone: the values of a repeated entity keep
        # their record order, as sorting the (entity, value) pairs by entity would give
        rng = random.Random(30)
        records = []
        for version in ("v1", "v2", "v3"):
            for package in ("p", "q"):
                entities = [f"e{rng.randrange(12)}" for _ in range(40)]
                if version == "v1":
                    entities.sort()  # already in entity order
                records += (Record(version, package, entity, "m", float(rng.randrange(6)))
                            for entity in entities)
        expected, unsorted = {}, 0
        for r in records:
            by_version = expected.setdefault(r.package, {}).setdefault(r.metric, {})
            by_version.setdefault(r.version, []).append((r.entity, r.value))
        for by_metric in expected.values():
            for by_version in by_metric.values():
                for version, pairs in by_version.items():
                    stable = sorted(pairs, key=lambda pair: pair[0])
                    unsorted += stable != sorted(pairs)  # a repeat's values out of order
                    by_version[version] = (tuple(e for e, _ in stable), [v for _, v in stable])
        assert unsorted >= 4
        ds = MetricsDataset(tuple(records), ("v1", "v2", "v3"))
        assert ds._groups == expected

    def test_attributes_cannot_be_set_or_deleted(self):
        ds = lookup_dataset(11)
        for name in ("records", "version_order", "_groups", "other"):
            with pytest.raises(AttributeError, match=name):
                setattr(ds, name, ())
            with pytest.raises(AttributeError, match=name):
                delattr(ds, name)
        assert ds == lookup_dataset(11)

    def test_racing_first_lookups_match_sequential_runs(self):
        twin = lookup_dataset(9)
        expected = {key: version_slices(twin, *key) for key in LOOKUP_KEYS}
        workers = 6
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                ds = lookup_dataset(9)
                start = threading.Barrier(workers)
                results = [None] * workers

                def work(k):
                    keys = LOOKUP_KEYS[k:] + LOOKUP_KEYS[:k]
                    start.wait(timeout=30)
                    results[k] = {key: version_slices(ds, *key) for key in keys}

                threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert results == [expected] * workers
                assert ds == twin
        finally:
            sys.setswitchinterval(interval)


def live_records():
    """The number of Record objects alive; the cyclic GC tracks every one."""
    return sum(type(o) is Record for o in gc.get_objects())


class TestRecordsBuiltFromTheGrouping:
    """A parsed dataset keeps no text: it builds its records from the grouping when
    ``records`` is first read, in grouping order."""

    VERSIONS = [f"r{k}" for k in range(5)]
    TEXT = csv_for(f"{version},{package},e{j},m,{(j + 1) * (k + 2) % 7}"
                   for k, version in enumerate(VERSIONS) for package in ("p", "q")
                   for j in range(6))

    def test_loading_and_lookups_build_none_until_records_is_read(self):
        before = live_records()
        ds = load_csv(self.TEXT, self.VERSIONS)
        result = run_pipeline(ds, "p", "m", "gini")
        assert slice_distribution(ds, "r1", "q", "m") == [3.0, 6.0, 2.0, 5.0, 1.0, 4.0]
        assert len(result.series.points) == 5
        assert live_records() == before
        records = ds.records
        assert live_records() == before + len(records) == before + 60
        assert records is ds.records  # built once
        assert records == in_grouping_order(reference_load_csv(self.TEXT, self.VERSIONS).records)
        assert all(type(r) is Record for r in records)

    def test_a_dataset_made_from_records_keeps_them(self):
        records = reference_load_csv(self.TEXT, self.VERSIONS).records  # in file order
        ds = MetricsDataset(records, tuple(self.VERSIONS))
        run_pipeline(ds, "p", "m", "gini")
        assert ds.records is records
        parsed = load_csv(self.TEXT, self.VERSIONS)  # its records in grouping order
        assert ds != parsed
        assert MetricsDataset(in_grouping_order(records), tuple(self.VERSIONS)) == parsed

    def test_a_parsed_dataset_keeps_no_text(self):
        ds = load_csv(self.TEXT, self.VERSIONS)
        assert set(vars(ds)) == {"version_order", "_groups"}
        ds.records
        assert set(vars(ds)) == {"version_order", "_groups", "records"}
        assert not any(isinstance(value, str) for value in vars(ds).values())

    def test_a_cli_cache_miss_builds_none(self, tmp_path, capsys, monkeypatch):
        manifest, data = tmp_path / "manifest.json", tmp_path / "data.csv"
        manifest.write_text(json.dumps({"versions": self.VERSIONS}))
        data.write_text(self.TEXT)
        loaded = []

        def keeping(*args):  # holds the dataset, so records built from it would stay alive
            loaded.append(load_csv(*args))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_csv", keeping)
        before = live_records()
        argv = ["trend", "--manifest", str(manifest), "--data", str(data), "--package", "q",
                "--metric", "m"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        [ds] = loaded
        assert "records" not in vars(ds)
        assert live_records() == before
        assert ds.records == in_grouping_order(reference_load_csv(self.TEXT, self.VERSIONS).records)


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

    def test_mean_statistic_ignores_row_order(self):
        rng = np.random.default_rng(112)
        for _ in range(50):
            x = rng.lognormal(0.0, 2.0, int(rng.integers(2, 300))).tolist()
            ds = dataset_with_series([x, rng.permutation(x).tolist()])
            series, _ = build_series(ds, "p", "m", "mean")
            assert series.points[0][1] == series.points[1][1]

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

    def test_an_index_is_refused_where_another_index_of_the_release_is(self):
        # theil alone takes [1e308, 5e307]; the release's report refuses it on gini
        ds = dataset_with_series([[1, 2], [1e308, 5e307]])
        with pytest.raises(AnalysisError, match="'v2'.*n times the sum beyond the float range"):
            build_series(ds, "p", "m", "theil")

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


def releases_of(*slices):
    """A dataset whose release v<i> holds the i-th list of values, one entity each."""
    versions = tuple(f"v{i}" for i in range(len(slices)))
    records = tuple(
        Record(version, "p", f"e{j}", "m", value)
        for version, values in zip(versions, slices)
        for j, value in enumerate(values)
    )
    return MetricsDataset(records=records, version_order=versions)


class TestRefusalPrecedence:
    """Release by release, the statistic's refusals: for an index, those of all four
    indices in the order gini, pietra, theil, atkinson. Then a short series; then a bad
    alpha. A mean or median makes no inequality report, so it takes values an index
    refuses (``error`` None: ``message`` is then every release's point)."""

    @pytest.mark.parametrize("values, releases, statistic, epsilon, alpha, error, message", [
        ([1.0, 2.0], 3, "gini", 0.0, 0.01, AnalysisError,
         "version 'v0': invalid aversion parameter"),
        ([1e308, 5e307], 3, "theil", 0.5, 0.01, AnalysisError,
         "version 'v0': n times the sum beyond the float range"),
        ([1e308, 5e307], 3, "mean", 0.5, 0.01, AnalysisError,
         "series too short for trend: 3 points (need at least 4)"),
        ([1e308, 5e307], 5, "theil", 0.5, 0.01, AnalysisError,
         "version 'v0': n times the sum beyond the float range"),
        ([1.0, 2.0], 5, "gini", 0.0, 1.5, AnalysisError,
         "version 'v0': invalid aversion parameter"),
        ([1.0, 2.0], 5, "gini", 0.0, 0.01, AnalysisError,
         "version 'v0': invalid aversion parameter"),
        ([1e308, 5e307], 5, "mean", 0.5, 1.5, ValueError,
         "alpha must lie strictly between 0 and 1"),
        ([1e308, 5e307], 5, "median", 0.5, 0.01, None, 7.5e307),
        ([1e308, 1e308], 5, "mean", 0.5, 0.01, AnalysisError,
         "version 'v0': sum beyond the float range"),
        ([1e308, 1e308], 5, "median", 0.5, 0.01, AnalysisError,
         "version 'v0': median beyond the float range"),
        ([-1e308, -1e308], 5, "median", 0.5, 0.01, AnalysisError,
         "version 'v0': median beyond the float range"),
    ])
    def test_same_values_in_every_release(
        self, values, releases, statistic, epsilon, alpha, error, message
    ):
        ds = releases_of(*[values] * releases)
        if error is None:
            result = run_pipeline(ds, "p", "m", statistic, epsilon=epsilon, alpha=alpha)
            assert result.series.values() == [message] * releases
            return
        with pytest.raises(error) as info:
            run_pipeline(ds, "p", "m", statistic, epsilon=epsilon, alpha=alpha)
        assert str(info.value) == message

    @pytest.mark.parametrize("statistic, epsilon, message", [
        ("atkinson", 0.0, "version 'v0': n times the sum beyond the float range"),
        ("gini", 0.5, "version 'v0': n times the sum beyond the float range"),
        ("theil", 0.5, "version 'v0': n times the sum beyond the float range"),
    ])
    def test_each_release_is_validated_and_scored_before_the_next(
        self, statistic, epsilon, message
    ):
        ds = releases_of([1e308, 5e307], [0.0, 0.0], [1.0, 2.0], [1.0, 3.0], [1.0, 4.0])
        with pytest.raises(AnalysisError) as info:
            run_pipeline(ds, "p", "m", statistic, epsilon=epsilon)
        assert str(info.value) == message


class TestPipeline:
    def test_fixture_report_matches_pinned_digest(self):
        manifest = load_manifest((FIXTURES / "synthetic_manifest.json").read_text())
        ds = load_csv((FIXTURES / "synthetic_metrics.csv").read_text(), manifest)
        pairs = sorted({(r.package, r.metric) for r in ds.records})
        assert len(pairs) == 2
        entries = [
            report.pipeline_entry(run_pipeline(ds, package, metric, statistic))
            for package, metric in pairs
            for statistic in ("gini", "pietra", "theil", "atkinson", "mean", "median")
        ]
        text = report.to_json(report.document({}, entries, []))
        digest = hashlib.sha256(text.encode()).hexdigest()
        # re-pinned when Atkinson moved to the log domain: every inequality row carries an
        # atkinson value, and over the fixture's 33 slices their mean and largest distance
        # to a decimal oracle fell from 6.5 and 34 ulps to 2.3 and 12; re-pinned when mean
        # and median entries stopped carrying inequality rows (their "inequality" is null)
        assert digest == "514353996ac0cab55098015af833f68385c5d401ded54eb3a545d62cd87602bb"

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

    @pytest.mark.parametrize("statistic", ["gini", "pietra", "theil", "atkinson"])
    def test_an_index_point_is_its_reports_field(self, statistic):
        rng = np.random.default_rng(34)
        ds = dataset_with_series([list(rng.lognormal(0.0, 1.0, 9)) for _ in range(6)])
        result = run_pipeline(ds, "p", "m", statistic, epsilon=0.999)
        fields = [getattr(rep, statistic) for rep in result.inequality_per_version]
        assert [x.hex() for x in result.series.values()] == [x.hex() for x in fields]

    def test_inequality_reports_absent_for_raw(self):
        ds = dataset_with_series([[k] for k in range(1, 6)])
        for statistic in ("raw", "mean", "median"):  # one number per release, no report
            result = run_pipeline(ds, "p", "m", statistic)
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

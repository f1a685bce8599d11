"""Long-format metric tables over an ordered release sequence.

A dataset holds (version, package, entity, metric, value) records plus the
declared version ordering. The ordering always comes from a manifest, never
from the labels themselves: release tags sort badly ("10.0" before "9.6").
Slicing one (version, package, metric) combination gives the distribution
the inequality indices consume; evaluating a statistic per version gives
the series the trend test consumes.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence

from . import inequality
from .errors import AnalysisError, InputError
from .inequality import DEFAULT_EPSILON, InequalityReport
from .trend import DEFAULT_ALPHA, TrendResult, mk_test

CSV_HEADER = ("version", "package", "entity", "metric", "value")
_ENTITY, _VALUE = itemgetter(2), itemgetter(4)  # of a Record; faster than attrgetter


class Record(NamedTuple):
    version: str
    package: str
    entity: str
    metric: str
    value: float


@dataclass(frozen=True)
class MetricsDataset:
    """Immutable record table plus the analysis order of its versions.

    The first lookup groups all records by package, metric and version in
    one pass, and every lookup reads one list per version.
    """

    records: tuple[Record, ...]
    version_order: tuple[str, ...]

    @cached_property
    def _groups(self) -> dict:
        """package -> metric -> version -> records in file order."""
        groups: dict = {}
        for r in self.records:
            try:
                groups[r.package][r.metric][r.version].append(r)
            except KeyError:
                groups.setdefault(r.package, {}).setdefault(r.metric, {})[r.version] = [r]
        return groups


@dataclass(frozen=True)
class VersionSeries:
    """One statistic of one (package, metric), evaluated per covered version."""

    package: str
    metric: str
    statistic: str
    points: tuple[tuple[str, float], ...]

    def versions(self) -> list[str]:
        return [v for v, _ in self.points]

    def values(self) -> list[float]:
        return [x for _, x in self.points]


@dataclass(frozen=True)
class PipelineResult:
    """A series, its per-version inequality reports, and its trend verdict.

    ``inequality_per_version`` is None for raw series, which carry no
    per-entity distribution to aggregate. ``gaps`` lists the manifest
    versions that had no matching records.
    """

    series: VersionSeries
    inequality_per_version: tuple[InequalityReport, ...] | None
    trend: TrendResult
    gaps: tuple[str, ...]


def load_manifest(text: str) -> tuple[str, ...]:
    """Parse the version-order manifest: a JSON object {"versions": [...]}.

    The list gives the analysis order; labels must be unique and the list
    nonempty, and each must be a label a CSV row can carry: nonempty, with
    no surrounding whitespace, comma or line boundary.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed manifest: {exc}") from exc
    if not isinstance(doc, dict) or "versions" not in doc:
        raise InputError('malformed manifest: missing "versions" key')
    versions = doc["versions"]
    if not isinstance(versions, list) or not all(isinstance(v, str) for v in versions):
        raise InputError('malformed manifest: "versions" must be a list of strings')
    if not versions:
        raise InputError("malformed manifest: empty version list")
    seen = set()
    for v in versions:
        if v in seen:
            raise InputError(f"malformed manifest: duplicate version {v!r}")
        if v.strip() != v or "," in v or v.splitlines() != [v]:  # "".splitlines() is []
            raise InputError(f"malformed manifest: version {v!r} cannot be a CSV label")
        seen.add(v)
    return tuple(versions)


_CHUNK_CHARS = 1 << 18  # load_csv parses its text this many characters at a time, to the next "\n"


def load_csv(text: str, version_order: Sequence[str] | None = None) -> MetricsDataset:
    """Parse a long-format metrics table.

    The header must be exactly ``version,package,entity,metric,value``.
    Fields are split on bare commas with no quoting, so labels containing
    commas are rejected (the row's field count comes out wrong). Every
    version must appear in ``version_order`` when one is given; passing
    None accepts any version and orders them by first appearance, for
    single-version workflows that carry no manifest.

    A refusal names the first failing line; a line breaking several rules
    is refused for the first of: field count, empty label, unknown version,
    unparsable value, non-finite value, duplicate record. Equal labels are
    one shared string object.

    The body is parsed in chunks of about 2**18 characters, each ending just
    after a line feed. So beyond the text, the records and one key per
    record for the duplicate check, a load's memory is bounded by the chunk,
    not by the file; a refusal's too, since a chunk that fails a column-wise
    yes/no check is read again, line by line, to find its first failing line.
    """
    known = frozenset(version_order) if version_order is not None else None
    shared: dict[str, str] = {}  # one string object per distinct label
    records: list[Record] = []
    implied: dict[str, None] = {}  # versions by first appearance
    seen: set[tuple[str, ...]] = set()  # (version, package, entity, metric) of every row so far
    # the first line as the chunks below would split it; it ends at or before the first "\n"
    lines = text[: text.find("\n") + 1 or None].splitlines(keepends=True)
    if not lines or not lines[0].strip():
        raise InputError("line 1: missing header")
    header = tuple(f.strip() for f in lines[0].split(","))
    if header != CSV_HEADER:
        raise InputError(
            f"line 1: expected header {','.join(CSV_HEADER)!r}, got {lines[0].strip()!r}"
        )
    line, end = 2, len(lines[0])  # the next chunk's first line number, and where it starts
    gc_was_enabled = gc.isenabled()
    gc.disable()  # every object built below is acyclic; collecting would only rescan them
    try:
        while end < len(text):
            start, end = end, text.find("\n", end + _CHUNK_CHARS - 1) + 1 or len(text)
            lines = text[start:end].splitlines()  # a "\r\n" never straddles two chunks
            first, line = line, line + len(lines)
            rows = list(filter(None, map(str.strip, lines)))  # blank lines skipped
            del lines
            if list(map(str.count, rows, repeat(","))).count(4) != len(rows):
                raise _refusal(text[start:end], first, known, records)
            joined = ",".join(rows)
            del rows
            fields = joined.split(",") if joined else []
            del joined
            *labels, value_texts = [list(map(str.strip, fields[i::5])) for i in range(5)]
            del fields
            labels = [list(map(shared.setdefault, column, column)) for column in labels]
            versions = labels[0]
            try:
                values = list(map(float, value_texts))
            except ValueError:
                values = None
            del value_texts
            before = len(seen)
            seen.update(zip(*labels))
            if ("" in shared  # only ever from this chunk: an earlier one would have raised
                    or known is not None and not known.issuperset(versions)
                    or values is None or not all(map(math.isfinite, values))
                    or len(seen) - before != len(versions)):
                raise _refusal(text[start:end], first, known, records)
            records.extend(map(tuple.__new__, repeat(Record), zip(*labels, values)))
            if known is None:
                implied.update(dict.fromkeys(versions))
    finally:
        if gc_was_enabled:
            gc.enable()
    order = tuple(version_order) if version_order is not None else tuple(implied)
    return MetricsDataset(records=tuple(records), version_order=order)


def _refusal(chunk: str, first: int, known: frozenset | None, records: list) -> InputError:
    """The refusal of a failing ``chunk``'s first line to break a rule, numbered from ``first``."""
    rows = [(line, [f.strip() for f in text.split(",")])
            for line, text in enumerate(chunk.splitlines(), start=first) if text.strip()]
    keys = {tuple(fields[:4]) for _, fields in rows}
    # of the earlier chunks' records, only those this chunk may repeat: memory bounded by it
    seen = set(filter(keys.__contains__, map(itemgetter(0, 1, 2, 3), records)))
    for line, fields in rows:
        if len(fields) != 5:
            return InputError(f"line {line}: expected 5 comma-separated fields, got {len(fields)}")
        key, value_text = tuple(fields[:4]), fields[4]
        if not all(key):
            return InputError(f"line {line}: empty label field")
        if known is not None and key[0] not in known:
            return InputError(f"line {line}: unknown version {key[0]!r} (not in manifest)")
        try:
            value = float(value_text)
        except ValueError:
            return InputError(f"line {line}: cannot parse value {value_text!r}")
        if not math.isfinite(value):
            return InputError(f"line {line}: non-finite value {value_text!r}")
        if key in seen:
            return InputError(f"line {line}: duplicate record for {key!r}")
        seen.add(key)


def version_slices(
    ds: MetricsDataset, package: str, metric: str, drop_zeros: bool = False
) -> tuple[list[tuple[str, list[float]]], tuple[str, ...]]:
    """Each version's slice of one (package, metric).

    Returns the covered ``(version, values)`` pairs in manifest order, with
    values sorted by entity label so that record order in the file does not
    matter, and the gap versions: no records, or with ``drop_zeros`` only zeros.
    The first lookup on ``ds`` groups all its records by package, metric and
    version in one pass; it and every later lookup read one list per version.
    """
    return _slices(ds, package, metric, ds.version_order, drop_zeros)


def _slices(
    ds: MetricsDataset, package: str, metric: str, versions: Sequence[str], drop_zeros: bool
) -> tuple[list[tuple[str, list[float]]], tuple[str, ...]]:
    by_version = ds._groups.get(package, {}).get(metric, {})
    slices, gaps = [], []
    for version in dict.fromkeys(versions):  # a repeated label is served once, at its first place
        values = list(map(_VALUE, sorted(by_version.get(version, ()), key=_ENTITY)))  # stable
        if drop_zeros:
            values = [value for value in values if value > 0]
        if values:
            slices.append((version, values))
        else:
            gaps.append(version)
    return slices, tuple(gaps)


def slice_distribution(ds: MetricsDataset, version: str, package: str, metric: str) -> list[float]:
    """Entity-sorted values of one metric over one (version, package) slice."""
    slices, _ = _slices(ds, package, metric, (version,), False)
    if not slices:
        raise AnalysisError(
            f"empty slice: version={version!r} package={package!r} metric={metric!r}"
        )
    return slices[0][1]


def per_version(fn: Callable, slices: Sequence[tuple[str, list[float]]], *args) -> Iterator:
    """Yields ``fn(values, *args)`` for each slice; an AnalysisError names its version."""
    for version, values in slices:
        try:
            yield fn(values, *args)
        except AnalysisError as exc:
            raise AnalysisError(f"version {version!r}: {exc}") from exc


def _raw(values: list[float], epsilon: float) -> float:
    if len(values) != 1:
        raise AnalysisError(
            f"raw statistic expects exactly one record per version, found {len(values)}"
        )
    return values[0]


def _mean(values: list[float], epsilon: float) -> float:
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        raise AnalysisError("sum beyond the float range") from None


def _median(values: list[float], epsilon: float) -> float:
    if math.isfinite(median := statistics.median(values)):  # may overflow: (a + b) / 2
        return median
    raise AnalysisError("median beyond the float range")


# statistic -> f(values, epsilon), for the statistics that are not inequality indices
_STATISTICS: dict[str, Callable[[list[float], float], float]] = {
    "mean": _mean,
    "median": _median,
    "raw": _raw,
}
_INDICES = ("gini", "pietra", "theil", "atkinson")  # InequalityReport fields a series may read
STATISTICS = (*_INDICES, *_STATISTICS)


def _series(
    slices: list[tuple[str, list[float]]], package: str, metric: str, statistic: str, epsilon: float
) -> tuple[VersionSeries, tuple[InequalityReport, ...] | None]:
    """The series, and for an index the reports its points are read from (else None)."""
    if statistic in _INDICES:
        reports = tuple(per_version(inequality.inequality_report, slices, epsilon))
        measured = map(attrgetter(statistic), reports)
    elif statistic in _STATISTICS:
        reports, measured = None, per_version(_STATISTICS[statistic], slices, epsilon)
    else:
        raise ValueError(f"unknown statistic {statistic!r}")
    points = tuple(zip(map(itemgetter(0), slices), measured))
    series = VersionSeries(package=package, metric=metric, statistic=statistic, points=points)
    return series, reports


def build_series(
    ds: MetricsDataset,
    package: str,
    metric: str,
    statistic: str,
    epsilon: float = DEFAULT_EPSILON,
    drop_zeros: bool = False,
) -> tuple[VersionSeries, tuple[str, ...]]:
    """One point per covered version, in manifest order.

    Versions without matching records are skipped and returned as gaps
    rather than failing the series: packages appear and disappear across
    releases. Index errors are annotated with the offending version.
    ``drop_zeros`` filters zero-valued measurements out of every slice
    first (a slice left empty by the filter becomes a gap); the default
    keeps them, relying on the indices' zero conventions.
    """
    slices, gaps = version_slices(ds, package, metric, drop_zeros)
    return _series(slices, package, metric, statistic, epsilon)[0], gaps


def run_pipeline(
    ds: MetricsDataset,
    package: str,
    metric: str,
    statistic: str,
    epsilon: float = DEFAULT_EPSILON,
    alpha: float = DEFAULT_ALPHA,
    drop_zeros: bool = False,
) -> PipelineResult:
    """Series construction plus trend detection for one (package, metric).

    Refuses series shorter than 4 points after gap removal; a monotonic
    trend on fewer points is not worth testing. The series and the
    per-version inequality reports come from the same slices: an index
    point is read from its release's report. Refusals come release by
    release (an index's on all four indices), then a short series, then a
    bad alpha, then for ``mean`` and ``median`` the inequality reports.
    """
    slices, gaps = version_slices(ds, package, metric, drop_zeros)
    series, reports = _series(slices, package, metric, statistic, epsilon)
    if len(series.points) < 4:
        raise AnalysisError(
            f"series too short for trend: {len(series.points)} points (need at least 4)"
        )
    trend = mk_test(series.values(), alpha=alpha)
    if reports is None and statistic != "raw":  # mean and median: after the trend
        reports = tuple(per_version(inequality.inequality_report, slices, epsilon))
    return PipelineResult(series=series, inequality_per_version=reports, trend=trend, gaps=gaps)

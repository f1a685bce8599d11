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
from dataclasses import dataclass, replace
from itertools import islice, repeat
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import inequality
from .errors import AnalysisError, InputError
from .inequality import DEFAULT_EPSILON, InequalityReport
from .trend import DEFAULT_ALPHA, TrendResult, mk_test

CSV_HEADER = ("version", "package", "entity", "metric", "value")


class Record(NamedTuple):
    version: str
    package: str
    entity: str
    metric: str
    value: float


@dataclass(frozen=True)
class MetricsDataset:
    """Immutable record table plus the analysis order of its versions."""

    records: tuple[Record, ...]
    version_order: tuple[str, ...]


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
    nonempty.
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
        seen.add(v)
    return tuple(versions)


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
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise InputError("line 1: missing header")
    header = tuple(f.strip() for f in lines[0].split(","))
    if header != CSV_HEADER:
        raise InputError(
            f"line 1: expected header {','.join(CSV_HEADER)!r}, got {lines[0].strip()!r}"
        )
    del lines[0]
    rows = list(filter(None, map(str.strip, lines)))  # blank lines skipped
    del lines
    # (row, rule rank, message) of each rule's first failing row; the smallest pair is
    # the error a line-by-line check would raise first
    failures: list[tuple[int, int, str]] = []
    commas = list(map(str.count, rows, repeat(",")))
    n = len(rows)
    if commas.count(4) != n:
        n = next(i for i, count in enumerate(commas) if count != 4)
        failures.append((n, 0, f"expected 5 comma-separated fields, got {commas[n] + 1}"))
        del rows[n:]  # the rules below see only the rows before it
    joined = ",".join(rows)
    del rows
    fields = joined.split(",") if n else []
    del joined
    columns = [list(map(str.strip, fields[i::5])) for i in range(5)]
    del fields
    shared: dict[str, str] = {}  # one string object per distinct label
    labels = [list(map(shared.setdefault, column, column)) for column in columns[:4]]
    value_texts = columns[4]
    del columns
    versions = labels[0]
    if "" in shared:
        first_empty = min(column.index("") for column in labels if "" in column)
        failures.append((first_empty, 1, "empty label field"))
    del shared
    known = frozenset(version_order) if version_order is not None else None
    if known is not None and not known.issuperset(versions):
        i = next(i for i, v in enumerate(versions) if v not in known)
        failures.append((i, 2, f"unknown version {versions[i]!r} (not in manifest)"))
    try:
        values = list(map(float, value_texts))
    except ValueError:
        i = list(map(_parses_as_float, value_texts)).index(False)
        failures.append((i, 3, f"cannot parse value {value_texts[i]!r}"))
        values = list(map(float, value_texts[:i]))
    if not all(map(math.isfinite, values)):
        i = list(map(math.isfinite, values)).index(False)
        failures.append((i, 4, f"non-finite value {value_texts[i]!r}"))
    del value_texts
    gc_was_enabled = gc.isenabled()
    gc.disable()  # every object built below is acyclic; collecting would only rescan them
    try:
        if len(set(zip(*labels))) != n:
            seen: set[tuple[str, ...]] = set()
            for i, key in enumerate(zip(*labels)):
                if key in seen:
                    failures.append((i, 5, f"duplicate record for {key!r}"))
                    break
                seen.add(key)
        if failures:
            row, _, message = min(failures)
            raise InputError(f"line {_line_number(text, row)}: {message}")
        records = tuple(map(tuple.__new__, repeat(Record), zip(*labels, values)))
    finally:
        if gc_was_enabled:
            gc.enable()
    order = tuple(version_order) if version_order is not None else tuple(dict.fromkeys(versions))
    return MetricsDataset(records=records, version_order=order)


def _parses_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _line_number(text: str, row: int) -> int:
    """1-based line number of the ``row``-th nonblank line after the header."""
    nonblank = (n for n, line in enumerate(text.splitlines()[1:], start=2) if line.strip())
    return next(islice(nonblank, row, None))


def version_slices(
    ds: MetricsDataset, package: str, metric: str, drop_zeros: bool = False
) -> tuple[list[tuple[str, np.ndarray]], tuple[str, ...]]:
    """Each version's slice of one (package, metric), from one pass over the records.

    Returns the covered ``(version, values)`` pairs in manifest order, with
    values sorted by entity label so that record order in the file does not
    matter, and the gap versions: no records, or with ``drop_zeros`` only zeros.
    """
    found: dict[str, list[tuple[str, float]]] = {v: [] for v in ds.version_order}
    for r in ds.records:
        if r.package == package and r.metric == metric and r.version in found:
            found[r.version].append((r.entity, r.value))
    slices, gaps = [], []
    for version, matches in found.items():
        matches.sort(key=lambda pair: pair[0])
        values = np.asarray([value for _, value in matches], dtype=float)
        if drop_zeros:
            values = values[values > 0]
        if values.size:
            slices.append((version, values))
        else:
            gaps.append(version)
    return slices, tuple(gaps)


def slice_distribution(ds: MetricsDataset, version: str, package: str, metric: str) -> np.ndarray:
    """Entity-sorted values of one metric over one (version, package) slice."""
    slices, _ = version_slices(replace(ds, version_order=(version,)), package, metric)
    if not slices:
        raise AnalysisError(
            f"empty slice: version={version!r} package={package!r} metric={metric!r}"
        )
    return slices[0][1]


def per_version(fn: Callable, slices: Sequence[tuple[str, np.ndarray]], *args) -> Iterator:
    """Yields ``fn(values, *args)`` for each slice; an AnalysisError names its version."""
    for version, values in slices:
        try:
            yield fn(values, *args)
        except AnalysisError as exc:
            raise AnalysisError(f"version {version!r}: {exc}") from exc


def _raw(values: np.ndarray, epsilon: float) -> float:
    if values.size != 1:
        raise AnalysisError(
            f"raw statistic expects exactly one record per version, found {values.size}"
        )
    return float(values[0])


# statistic -> f(values, epsilon); indices are looked up at call time, so patches apply
_STATISTICS: dict[str, Callable[[np.ndarray, float], float]] = {
    "gini": lambda values, epsilon: inequality.gini(values),
    "pietra": lambda values, epsilon: inequality.pietra(values),
    "theil": lambda values, epsilon: inequality.theil(values),
    "atkinson": lambda values, epsilon: inequality.atkinson(values, epsilon),
    "mean": lambda values, epsilon: float(np.mean(values)),
    "median": lambda values, epsilon: float(np.median(values)),
    "raw": _raw,
}
STATISTICS = tuple(_STATISTICS)


def _series(
    slices: list[tuple[str, np.ndarray]], package: str, metric: str, statistic: str, epsilon: float
) -> VersionSeries:
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    values = per_version(_STATISTICS[statistic], slices, epsilon)
    points = tuple((version, x) for (version, _), x in zip(slices, values))
    return VersionSeries(package=package, metric=metric, statistic=statistic, points=points)


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
    return _series(slices, package, metric, statistic, epsilon), gaps


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
    per-version inequality reports come from the same slices.
    """
    slices, gaps = version_slices(ds, package, metric, drop_zeros)
    series = _series(slices, package, metric, statistic, epsilon)
    if len(series.points) < 4:
        raise AnalysisError(
            f"series too short for trend: {len(series.points)} points (need at least 4)"
        )
    trend = mk_test(series.values(), alpha=alpha)
    reports: tuple[InequalityReport, ...] | None = None
    if statistic != "raw":
        reports = tuple(per_version(inequality.inequality_report, slices, epsilon))
    return PipelineResult(series=series, inequality_per_version=reports, trend=trend, gaps=gaps)

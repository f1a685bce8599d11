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
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from functools import cached_property, partial
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import inequality, trend
from .errors import AnalysisError, InputError
from .inequality import DEFAULT_EPSILON, InequalityReport
from .trend import DEFAULT_ALPHA, TrendResult, mk_test

CSV_HEADER = ("version", "package", "entity", "metric", "value")
_FIRST, _SECOND = itemgetter(0), itemgetter(1)  # of a release's (entity, value) pairs


class Record(NamedTuple):
    version: str
    package: str
    entity: str
    metric: str
    value: float


class MetricsDataset:
    """Immutable record table plus the analysis order of its versions.

    Lookups read one grouping: package -> metric -> version -> the values, in
    entity order. A dataset is made in one of three ways:

    - from records, ``MetricsDataset(records, version_order)``, which groups them on its
      first lookup, by the routine ``load_csv`` uses (``_group``, ``_sort``,
      ``_values``);
    - by ``load_csv``, which builds the grouping as it parses and keeps besides it
      only the text, from which ``records`` is parsed again on first read (which
      costs about as much as the load; no lookup reads ``records``);
    - from the grouping alone (``_dataset`` with no text, as a CLI cache entry or
      miss makes it): it has no ``records``, and reading them raises AttributeError.

    Every lookup copies one list per version. Attributes cannot be set or deleted.
    Equality, hash and repr are over (records, version_order); the grouping stays
    out of them. A dataset that holds only the grouping compares and hashes by
    identity, and its repr says its records are not kept.
    """

    def __init__(self, records: tuple[Record, ...], version_order: tuple[str, ...]):
        self.__dict__.update(records=records, version_order=version_order)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to attribute {name!r} of a MetricsDataset")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete attribute {name!r} of a MetricsDataset")

    def _key(self) -> tuple | None:
        """(records, version_order), or None where the dataset holds only the grouping."""
        if "records" not in self.__dict__ and self.__dict__.get("_text") is None:
            return None
        return self.records, self.version_order

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key()
        return self is other if key is None else key == other._key()

    def __hash__(self) -> int:
        key = self._key()
        return object.__hash__(self) if key is None else hash(key)

    def __repr__(self) -> str:
        key = self._key()
        if key is None:
            return f"<MetricsDataset version_order={self.version_order!r}, records not kept>"
        return f"MetricsDataset(records={key[0]!r}, version_order={key[1]!r})"

    @cached_property
    def _groups(self) -> dict:
        """package -> metric -> version -> the values, in entity order.

        The sort is stable, so the records of one entity keep their file order.
        """
        groups = _group({}, self.records, {})
        _sort(groups)
        return _values(groups)

    def __getattr__(self, name: str) -> tuple[Record, ...]:
        """``records`` of a dataset ``load_csv`` made, parsed again from its text on first
        read, chunk by chunk as ``load_csv`` parses it; equal labels are one string object."""
        text = self.__dict__.get("_text") if name == "records" else None
        if text is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        shared: dict[str, str] = {}  # one string object per distinct label
        records = []
        with _acyclic():
            for *labels, value_texts in _parsed(text):
                labels = [list(map(shared.setdefault, column, column)) for column in labels]
                records += map(tuple.__new__, repeat(Record),
                               zip(*labels, map(float, value_texts)))
            records = tuple(records)
        self.__dict__["records"] = records
        return records


def _group(groups: dict, rows: Iterable[tuple], shared: dict[str, str]) -> dict:
    """``groups`` with each (version, package, entity, metric, value) row's (entity, value)
    appended to its release: package -> metric -> version -> pairs, in row order.

    Each key it adds is ``shared``'s object for its label, so that equal labels are one
    object across the grouping, which ``marshal`` writes once (see ``_pack_groups``).
    """
    for version, package, entity, metric, value in rows:
        try:
            groups[package][metric][version].append((entity, value))
        except KeyError:
            labels = version, package, metric
            version, package, metric = map(shared.setdefault, labels, labels)
            groups.setdefault(package, {}).setdefault(metric, {})[version] = [(entity, value)]
    return groups


def _sort(groups: dict) -> set[tuple[str, str, str, str]]:
    """Sorts the pairs of each release of a ``_group`` result by entity, stably, and returns
    the (version, package, entity, metric) keys that more than one pair holds."""
    repeated = set()
    for package, by_metric in groups.items():
        for metric, by_version in by_metric.items():
            for version, pairs in by_version.items():
                pairs.sort(key=_FIRST)
                entities = list(map(_FIRST, pairs))
                if len(set(entities)) != len(entities):
                    repeated.update((version, package, entity, metric)
                                    for entity, later in zip(entities, entities[1:])
                                    if entity == later)
    return repeated


def _values(groups: dict) -> dict:
    """``groups`` with the pairs of each release replaced by their values."""
    for by_metric in groups.values():
        for by_version in by_metric.values():
            for version, pairs in by_version.items():
                by_version[version] = list(map(_SECOND, pairs))
    return groups


def _dataset(order: tuple[str, ...], groups: dict, text: str | None) -> MetricsDataset:
    """A dataset of ``order`` whose grouping is ``groups``, and whose ``records`` are parsed
    from ``text``, a CSV ``load_csv`` accepted (or, with None, cannot be read)."""
    ds = object.__new__(MetricsDataset)
    ds.__dict__.update(version_order=order, _text=text, _groups=groups)
    return ds


def _pack_groups(ds: MetricsDataset) -> tuple:
    """The version order and grouping of ``ds`` as plain data for ``marshal``, each
    release's values packed as doubles, so each value is written with its bits."""
    return ds.version_order, {package: {metric: {version: array("d", values).tobytes()
                                                 for version, values in by_version.items()}
                                        for metric, by_version in by_metric.items()}
                              for package, by_metric in ds._groups.items()}


def _unpack_groups(payload: object) -> MetricsDataset:
    """The dataset ``_pack_groups`` took apart, each release's values an ``array("d")``
    (a lookup copies out only the floats it reads), with no ``records``.

    Raises ValueError on any other shape: not a pair of a tuple of str and a
    dict -> dict -> dict -> bytes whose lengths are multiples of 8.
    """
    if not isinstance(payload, tuple) or len(payload) != 2:
        raise ValueError("not a pair")
    order, packed = payload
    if not isinstance(order, tuple) or not all(isinstance(v, str) for v in order):
        raise ValueError("version order not a tuple of str")
    return _dataset(order, {package: {metric: {version: _doubles(values)
                                               for version, values in _items(by_version)}
                                      for metric, by_version in _items(by_metric)}
                            for package, by_metric in _items(packed)}, None)


def _items(level: object):
    if not isinstance(level, dict):
        raise ValueError("a level of the grouping not a dict")
    return level.items()


def _doubles(packed: object) -> array:
    if not isinstance(packed, bytes) or len(packed) % 8:
        raise ValueError("values not packed doubles")
    return array("d", packed)


class VersionSeries(NamedTuple):
    """One statistic of one (package, metric), evaluated per covered version (a named
    tuple)."""

    package: str
    metric: str
    statistic: str
    points: tuple[tuple[str, float], ...]

    def versions(self) -> list[str]:
        return [v for v, _ in self.points]

    def values(self) -> list[float]:
        return [x for _, x in self.points]


class PipelineResult(NamedTuple):
    """A series, its per-version inequality reports, and its trend verdict (a named tuple).

    ``inequality_per_version`` is None for raw series, which carry no
    per-entity distribution to aggregate. ``gaps`` lists the manifest
    versions that had no matching records.
    """

    series: VersionSeries
    inequality_per_version: tuple[InequalityReport, ...] | None
    trend: TrendResult
    gaps: tuple[str, ...]


def _field_break(label: str) -> str | None:
    """What would carry ``label`` out of its CSV field, or None: a comma, or a line boundary
    (``load_csv`` splits rows where ``str.splitlines`` does)."""
    if "," in label:
        return "a comma"
    if label.splitlines() not in ([label], []):  # "".splitlines() is []
        return "a line break"
    return None


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
        if not v or v.strip() != v or _field_break(v):
            raise InputError(f"malformed manifest: version {v!r} cannot be a CSV label")
        seen.add(v)
    return tuple(versions)


_CHUNK_CHARS = 1 << 18  # load_csv parses its text this many characters at a time, to the next "\n"


def _chunk_end(text: str, start: int) -> int:
    """Where the chunk of ``text`` from ``start`` ends: just after the first line feed at
    least ``_CHUNK_CHARS`` characters on, or at the end (a "\r\n" never straddles two)."""
    return text.find("\n", start + _CHUNK_CHARS - 1) + 1 or len(text)


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
    unparsable value, non-finite value, duplicate record.

    The body is parsed in chunks of about 2**18 characters, each ending just
    after a line feed (see ``_columns``). Each row goes straight into the
    grouping lookups read (see ``MetricsDataset``); no record is built, and
    only the entities, which the releases hold until the last chunk is in,
    and the grouping's keys are mapped to one string object per label.
    Duplicates are found per release
    once the last chunk is in: each release is sorted by entity, and a key it
    holds twice is refused. So beyond the text, which the dataset keeps to
    parse its ``records`` from on first read (where equal labels are one
    shared string object), and the grouping, a load's memory is bounded by the
    chunk, not by the file. A refusal's too: beside the grouping of the rows
    before the failing chunk, it keys only that chunk's rows (read again line
    by line, with the earlier keys they repeat) or, for a duplicate, the rows
    of the repeated keys (the text read again a chunk at a time), never every
    row.
    """
    known = frozenset(version_order) if version_order is not None else None
    groups: dict = {}  # as _group builds it, then _sort and _values
    implied: dict[str, None] = {}  # versions by first appearance
    shared: dict[str, str] = {}  # one string object per entity and grouping key label
    line, end = 2, _body_start(text)  # the next chunk's first line number, and where it starts
    with _acyclic():  # every object built below is acyclic; collecting would only rescan them
        while end < len(text):
            start, end = end, _chunk_end(text, end)
            lines, columns = _columns(text[start:end])
            first, line = line, line + lines
            if columns is None:
                raise _refusal(text, start, end, first, known, groups)
            *labels, value_texts = columns
            del columns
            versions = labels[0]
            try:
                values = list(map(float, value_texts))
            except ValueError:
                values = None
            del value_texts
            if (not all(map(all, labels))  # an empty label
                    or known is not None and not known.issuperset(versions)
                    or values is None or not all(map(math.isfinite, values))):
                raise _refusal(text, start, end, first, known, groups)
            # the releases hold each row's entity until they are sorted: one object per label
            labels[2] = list(map(shared.setdefault, labels[2], labels[2]))
            _group(groups, zip(*labels, values), shared)
            if known is None:
                implied.update(dict.fromkeys(versions))
        if repeated := _sort(groups):
            raise _first_repeat(text, repeated)
        _values(groups)  # the pairs are freed before the cyclic GC runs again
    order = tuple(version_order) if version_order is not None else tuple(map(shared.get, implied))
    return _dataset(order, groups, text)


def _body_start(text: str) -> int:
    """Where the body of a CSV ``text`` starts, after its header line; raises InputError
    when that line is not the header."""
    # the first line as the chunks would split it; it ends at or before the first "\n"
    lines = text[: text.find("\n") + 1 or None].splitlines(keepends=True)
    if not lines or not lines[0].strip():
        raise InputError("line 1: missing header")
    header = tuple(f.strip() for f in lines[0].split(","))
    if header != CSV_HEADER:
        raise InputError(
            f"line 1: expected header {','.join(CSV_HEADER)!r}, got {lines[0].strip()!r}"
        )
    return len(lines[0])


def _columns(chunk: str) -> tuple[int, list[list[str]] | None]:
    """The number of lines of a chunk of CSV body, as ``str.splitlines`` counts them, and
    the texts of its rows' five fields as five columns, blank lines skipped and each field
    stripped; or, for the columns, None when a row has not five fields.

    A chunk is unpadded when its only whitespace is the line feeds. Then
    ``chunk.split()`` gives its rows, blank lines skipped, no row or field needs a
    strip, and its lines are its line feeds (one more if the last row lacks one). The
    test is exact: the rows' characters and the line feeds must make up the whole
    chunk. Counting rows would not do: an inner space that splits a row in two, or a
    lone "\r" that ends one, can balance a blank line.
    """
    rows = chunk.split()
    feeds = chunk.count("\n")
    padded = sum(map(len, rows)) + feeds != len(chunk)  # whitespace besides the line feeds
    if padded:
        rows = chunk.splitlines()
        lines = len(rows)
        rows = list(filter(None, map(str.strip, rows)))  # blank lines skipped
    else:
        lines = feeds + (not chunk.endswith("\n"))
    if list(map(str.count, rows, repeat(","))).count(4) != len(rows):
        return lines, None
    joined = ",".join(rows)
    del rows
    fields = joined.split(",") if joined else []
    del joined
    if padded:
        return lines, [list(map(str.strip, fields[i::5])) for i in range(5)]
    return lines, [fields[i::5] for i in range(5)]


def _parsed(text: str) -> Iterator[list[list[str]]]:
    """The five columns of field texts (see ``_columns``) of each chunk of a CSV ``text``
    that ``load_csv`` accepts, chunk by chunk as it parses them."""
    end = _body_start(text)
    while end < len(text):
        start, end = end, _chunk_end(text, end)
        yield _columns(text[start:end])[1]


def _keys(text: str) -> Iterator[tuple[str, str, str, str]]:
    """The (version, package, entity, metric) key of each row of a CSV ``text`` that
    ``load_csv`` accepts, in row order; no ``Record`` is built."""
    for *labels, _ in _parsed(text):
        yield from zip(*labels)


@contextmanager
def _acyclic():
    """The cyclic GC paused while acyclic objects are built: it would only rescan them."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if gc_was_enabled:
            gc.enable()


def _refusal(text: str, start: int, end: int, first: int, known: frozenset | None,
             groups: dict) -> InputError:
    """The refusal of the first line to break a rule, where the chunk ``text[start:end]``,
    whose first line is numbered ``first``, breaks one and ``groups`` (of ``_group``) holds
    the rows before it."""
    if repeated := _sort(groups):  # an earlier line repeats a key, so it fails first
        return _first_repeat(text, repeated)
    rows = [(line, [f.strip() for f in row.split(",")])
            for line, row in enumerate(text[start:end].splitlines(), start=first) if row.strip()]
    # of the earlier rows' keys, only those this chunk repeats: memory bounded by it
    seen = set(filter(partial(_holds, groups), {tuple(fields[:4]) for _, fields in rows}))
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


def _holds(groups: dict, key: tuple) -> bool:
    """Whether a ``_sort``-ed grouping holds the (version, package, entity, metric) ``key``."""
    if len(key) != 4:
        return False
    version, package, entity, metric = key
    pairs = groups.get(package, {}).get(metric, {}).get(version, ())
    i = bisect_left(pairs, entity, key=_FIRST)
    return i < len(pairs) and pairs[i][0] == entity


def _first_repeat(text: str, repeated: set) -> InputError:
    """The refusal of the first row of ``text`` to repeat a key of ``repeated``, read a
    chunk at a time; only the rows of those keys are keyed."""
    seen = set()
    line, end = 1, 0  # the next chunk's first line number, and where it starts
    while end < len(text):
        start, end = end, _chunk_end(text, end)
        lines = text[start:end].splitlines()
        for number, row in enumerate(lines, start=line):
            key = tuple(map(str.strip, row.split(",", 4)[:4]))
            if number > 1 and key in repeated:  # line 1 is the header
                if key in seen:
                    return InputError(f"line {number}: duplicate record for {key!r}")
                seen.add(key)
        line += len(lines)


def version_slices(
    ds: MetricsDataset, package: str, metric: str, drop_zeros: bool = False
) -> tuple[list[tuple[str, list[float]]], tuple[str, ...]]:
    """Each version's slice of one (package, metric).

    Returns the covered ``(version, values)`` pairs in manifest order, with
    values sorted by entity label so that record order in the file does not
    matter, and the gap versions: no records, or with ``drop_zeros`` only zeros.
    Each lookup reads the grouping (``MetricsDataset._groups``), whose slices
    are sorted already, and copies one list per version.
    """
    by_version = ds._groups.get(package, {}).get(metric, {})
    slices, gaps = [], []
    # a repeated label is served once, at its first place
    for version in dict.fromkeys(ds.version_order):
        values = list(by_version.get(version, ()))
        if drop_zeros:
            values = [value for value in values if value > 0]
        if values:
            slices.append((version, values))
        else:
            gaps.append(version)
    return slices, tuple(gaps)


def slice_distribution(ds: MetricsDataset, version: str, package: str, metric: str) -> list[float]:
    """Entity-sorted values of one metric over one (version, package) slice."""
    values = list(ds._groups.get(package, {}).get(metric, {}).get(version, ()))
    if not values:
        raise AnalysisError(
            f"empty slice: version={version!r} package={package!r} metric={metric!r}"
        )
    return values


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
    if math.isfinite(median := trend._median(values)):  # may overflow: (a + b) / 2
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
    verdict = mk_test(series.values(), alpha=alpha)
    if reports is None and statistic != "raw":  # mean and median: after the trend
        reports = tuple(per_version(inequality.inequality_report, slices, epsilon))
    return PipelineResult(series=series, inequality_per_version=reports, trend=verdict, gaps=gaps)

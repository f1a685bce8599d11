"""Command-line interface: inequality, trend, diversity, and extract.

Exit codes: 0 success, 1 analysis refused (a precondition does not hold),
2 input or usage error. With --ci-exit the trend command instead returns
3 when a trend is detected, so CI jobs can gate on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import math
import os
import stat
import sys
from array import array
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, dataset, report
from .dataset import (CSV_HEADER, STATISTICS, MetricsDataset, load_csv, load_manifest,
                      per_version, run_pipeline, slice_distribution, version_slices)
from .diversity import evenness, gini_simpson, richness, shannon, simpson
from .errors import AnalysisError, InputError
from .inequality import DEFAULT_EPSILON, inequality_report
from .svgplot import render_svg
from .trend import DEFAULT_ALPHA, NO_TREND

if TYPE_CHECKING:  # halstead is imported where extract runs, and only there
    from .halstead import TokenCounts

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_INPUT = 2
EXIT_TREND_DETECTED = 3

SOURCE_SUFFIXES = {".c", ".h", ".cc", ".hh", ".cpp", ".hpp", ".cxx", ".hxx", ".icc", ".inl"}


def _read_file(path: str) -> tuple[bytes, dict]:
    """The file's bytes and its report stamp."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return data, report.file_stamp(path, data)


def _decode(path: str, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot decode {path} as UTF-8: {exc}") from exc


def _load_inputs(manifest_path: str, data_path: str) -> tuple[MetricsDataset, dict]:
    """The data's dataset, in the manifest's version order, and the report stamps of both."""
    manifest_data, manifest_stamp = _read_file(manifest_path)
    ds, data_stamp = _load_dataset(data_path, _decode(manifest_path, manifest_data))
    return ds, {"manifest": manifest_stamp, "data": data_stamp}


# the tag of each kind of entry names its framing and packing; the bytes of the module
# whose rules made the payload (dataset.py, halstead.py), in the key, cover the rest
_CACHE_TAGS = {"dataset": "evometrics-dataset-2", "counts": "evometrics-counts-1"}
_CACHE_ENTRIES = 8  # datasets kept; the oldest written beyond them are deleted
_COUNTS_TEXTS = 1 << 16  # texts a counts entry keeps: the last counting run's, then the newest


def _cache_folder() -> Path:
    """The user's cache folder, created with mode 0700 where it is missing.

    Raises OSError where there is no cache directory to be had, or where the
    folder is not the user's own and closed to everyone else: an entry there may
    not be ours.
    """
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # unset, empty or relative: the XDG default
        root = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(root):  # "~" left as it is: no home directory
            raise FileNotFoundError("no home directory")
    folder = Path(root, "evometrics")
    folder.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = folder.stat()
    owner = os.geteuid() if hasattr(os, "geteuid") else None  # no owners to check: no cache
    if info.st_uid != owner or info.st_mode & 0o077:
        raise PermissionError(f"{folder} is not private to its user")
    return folder


def _cache_entry(kind: str, module, *key) -> Path | None:
    """The cache file of the ``kind`` entry under ``key``, whose payload ``module``'s rules made.

    Its name is the sha256 of the JSON of the kind's tag, the interpreter and byte
    order, whose formats the entry is in, the sha256 of ``module``'s bytes, and
    ``key``. None where ``_cache_folder`` raises or the module cannot be read: no
    cache is used.
    """
    try:
        folder = _cache_folder()
        rules = hashlib.sha256(Path(module.__file__).read_bytes()).hexdigest()
    except OSError:
        return None
    name = json.dumps([_CACHE_TAGS[kind], sys.version, sys.byteorder, rules, *key])
    return folder / f"{hashlib.sha256(name.encode()).hexdigest()}.{kind}"


def _cached(entry: Path | None, unpack):
    """``unpack`` of the payload ``_store`` wrote to ``entry``; None where there is no
    entry, or it cannot be read, does not match its sha256, or does not unmarshal or
    unpack (``unpack`` raises ValueError or TypeError on a payload of the wrong shape)."""
    if entry is None:
        return None
    try:
        blob = entry.read_bytes()
        payload = memoryview(blob)[32:]
        if hashlib.sha256(payload).digest() != blob[:32]:
            return None
        packed = marshal.loads(payload)
        del blob, payload  # the bytes are freed before the unpack
        return unpack(packed)
    except (OSError, EOFError, ValueError, TypeError):
        return None


def _store(entry: Path, payload: object, keep: int) -> None:
    """Replace ``entry`` with the sha256 of the marshalled payload, then that payload.

    Then delete all but the ``keep - 1`` most recently written other entries of its
    kind: the entry just written is kept, whatever the dates of the others. A failed
    write or delete is ignored.
    """
    data = marshal.dumps(payload, 4)
    try:
        _replace_file(str(entry), hashlib.sha256(data).digest() + data)
        others = sorted((p for p in entry.parent.glob(f"*{entry.suffix}") if p != entry),
                        key=lambda p: p.stat().st_mtime)
        for old in others[:max(0, len(others) + 1 - keep)]:
            old.unlink(missing_ok=True)
    except OSError:
        pass


def _load_dataset(path: str, manifest_text: str | None = None) -> tuple[MetricsDataset, dict]:
    """The dataset of the data file at ``path``, and the file's report stamp.

    The dataset is ``load_csv``'s on a miss, and on a hit the one a cache entry holds,
    which equals it. The version order is ``load_manifest(manifest_text)``; without a
    manifest, any version is accepted. A data file that cannot be read or decoded is
    refused before a manifest that does not parse. An entry is the sha256 of its
    payload, then the marshalled payload of ``dataset._pack_groups``: the version order
    and the grouping, entity labels included. A hit decodes no text and builds no
    record: its dataset (``dataset._unpack_groups``) has the grouping, whose slices are
    in entity order already, and builds its ``records`` from it only when they are
    read. An entry that cannot be read, checked or unpacked is a miss. A miss decodes
    the file and runs ``load_csv``, and only a dataset it accepted is stored. A cache
    that cannot be written is not used.
    """
    data, stamp = _read_file(path)
    version_order = None
    if manifest_text is not None:
        try:
            version_order = load_manifest(manifest_text)
        except InputError:
            _decode(path, data)  # data that does not decode is named first
            raise
    entry = _cache_entry("dataset", dataset, version_order, stamp["sha256"])
    if (ds := _cached(entry, dataset._unpack_groups)) is not None:
        return ds, stamp
    text = _decode(path, data)
    del data  # the bytes are freed before the parse
    ds = load_csv(text, version_order)
    del text  # the text is freed before the entry is made
    if entry is not None:
        _store(entry, dataset._pack_groups(ds), _CACHE_ENTRIES)
    return ds, stamp


def cmd_inequality(args) -> int:
    """Per-version inequality report table for one (package, metric)."""
    ds, inputs = _load_inputs(args.manifest, args.data)
    slices, gaps = version_slices(ds, args.package, args.metric, args.drop_zeros)
    reports = list(per_version(inequality_report, slices, args.epsilon))
    versions = [version for version, _ in slices]
    if not reports:
        raise AnalysisError(f"empty selection: no records for package={args.package!r} "
                            f"metric={args.metric!r}")
    if args.format == "csv":
        sys.stdout.write(report.inequality_csv(versions, reports))
        return EXIT_OK
    entry = report.result_entry(
        package=args.package,
        metric=args.metric,
        statistic=None,
        points=None,
        inequality=report.inequality_rows(versions, reports),
        trend=None,
        gaps=gaps,
    )
    sys.stdout.write(report.to_json(report.document(inputs, [entry], [])))
    return EXIT_OK


def cmd_trend(args) -> int:
    """Series construction plus Mann-Kendall verdict; optionally an SVG plot."""
    ds, inputs = _load_inputs(args.manifest, args.data)
    result = run_pipeline(ds, args.package, args.metric, args.statistic, args.epsilon,
                          args.alpha, args.drop_zeros)
    if args.plot is not None:
        svg = render_svg(result.series, result.trend, result.gaps)
        try:
            _replace_file(args.plot, svg.encode("utf-8"))
        except OSError as exc:
            raise InputError(f"cannot write {args.plot}: {exc.strerror or exc}") from exc
    if args.format == "csv":
        text = report.trend_csv(result.series, result.trend)
    else:
        text = report.to_json(report.document(inputs, [report.pipeline_entry(result)], []))
    sys.stdout.write(text)
    if args.ci_exit and result.trend.decision != NO_TREND:
        return EXIT_TREND_DETECTED
    return EXIT_OK


def cmd_diversity(args) -> int:
    """Diversity indices of the ecosystem one categorical metric defines.

    Entities are counted per distinct value of the metric; the value's
    shortest decimal form is the category label. No manifest is needed:
    this is a single-version analysis.
    """
    version, package, metric = args.at_version, args.package, args.category_metric
    ds, data_stamp = _load_dataset(args.data)
    try:
        values = slice_distribution(ds, version, package, metric)
    except AnalysisError as exc:
        raise AnalysisError(f"empty ecosystem: no records for version={version!r} "
                            f"package={package!r} metric={metric!r}") from exc
    # sorted labels fix the JSON category order; -0.0 + 0.0 is 0.0, so -0 and 0 are one category
    counts = dict(sorted(Counter(str(v + 0.0) for v in values).items()))
    indices = {
        "richness": richness(counts),
        "total": sum(counts.values()),
        "shannon": shannon(counts),
        "simpson": simpson(counts),
        "gini_simpson": gini_simpson(counts),
        "evenness": evenness(counts),
    }
    if args.format == "csv":
        header = ["version", "package", "category_metric", *indices]
        sys.stdout.write(report.csv_table(header, [[version, package, metric, *indices.values()]]))
        return EXIT_OK
    entry = report.result_entry(
        package=package,
        metric=metric,
        statistic="diversity",
        extra={
            "version": version,
            "categories": [{"category": label, "count": n} for label, n in counts.items()],
            "diversity": indices,
        },
    )
    sys.stdout.write(report.to_json(report.document({"data": data_stamp}, [entry], [])))
    return EXIT_OK


def _discover_sources(paths: list[str]) -> tuple[list[Path], list[str], list[str]]:
    files: list[Path] = []
    warnings: list[str] = []
    failures: list[str] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            unlisted: list[OSError] = []  # folders the walk could not list, which it skips
            found = sorted(
                p for folder, _, names in os.walk(path, onerror=unlisted.append)
                for p in map(Path(folder).joinpath, names)
                if p.is_file() and p.suffix in SOURCE_SUFFIXES
            )
            for exc in unlisted:
                failures.append(f"{Path(exc.filename).as_posix()}: cannot list: "
                                f"{exc.strerror or exc}")
            if not found and not unlisted:
                warnings.append(f"{raw}: no source files found")
            files.extend(found)
        elif path.is_file():
            files.append(path)
        else:
            failures.append(f"{raw}: not found")
    # a file reached twice (named again, inside a named directory, through "..",
    # or through a symlink) is one entity, under the first spelling it came by
    unique: dict[Path, Path] = {}
    for path in files:
        unique.setdefault(path.resolve(), path)
    return list(unique.values()), warnings, failures


def _unpack_counts(payload: object) -> tuple[dict[bytes, int], array]:
    """The index (text sha256 -> offset of its counts) and counts of a counts entry.

    Raises ValueError on any other shape than a pair of bytes, 32 of digest and
    32 of counts (four signed 64-bit integers) per text, with no text twice and
    no count negative.
    """
    if not isinstance(payload, tuple) or len(payload) != 2:
        raise ValueError("not a pair")
    digests, packed = payload
    if (not isinstance(digests, bytes) or not isinstance(packed, bytes)
            or len(digests) % 32 or len(packed) != len(digests)):
        raise ValueError("not 32 bytes of digest and 32 of counts per text")
    values = array("q", packed)
    if min(values, default=0) < 0:
        raise ValueError("a negative count")
    index = dict(zip([digests[i:i + 32] for i in range(0, len(digests), 32)],
                     range(0, len(values), 4)))
    if len(index) * 32 != len(digests):
        raise ValueError("a text stored twice")
    return index, values


class _CountsTable:
    """The Halstead counts of source texts, by the sha256 of the text the lexer reads,
    kept across runs in one cache entry.

    The entry's key covers the interpreter, whose Unicode tables the lexer's word
    class follows, the byte order its counts are packed in and the bytes of
    ``halstead.py``, whose rules counted them. An entry that cannot be read,
    checked or unpacked is an empty table. A text that does not tokenize is never
    stored, so its error always comes from the lexer; degenerate counts are.
    """

    def __init__(self):
        from . import halstead

        self.counted: dict[bytes, TokenCounts] = {}  # this run's texts, in the order first read
        self.missed = False  # whether this run lexed a text the entry lacked
        self.entry = _cache_entry("counts", halstead)
        self.index, self.values = _cached(self.entry, _unpack_counts) or ({}, array("q"))

    def counts(self, text: str, entity: str) -> TokenCounts:
        """The counts of ``text``, lexed only where the table lacks them; raises as
        ``halstead._entity_counts`` does."""
        from . import halstead

        digest = hashlib.sha256(text.encode("utf-8")).digest()
        counts = self.counted.get(digest)
        if counts is None:
            at = self.index.get(digest)
            if at is None:
                counts = halstead._entity_counts(text, entity)
                self.missed = True
            else:
                counts = halstead.TokenCounts(*self.values[at:at + 4])
            self.counted[digest] = counts
        return counts

    def save(self) -> None:
        """Where this run lexed a text the entry lacked, rewrite the entry: this run's texts
        first, then the entry's others, up to ``_COUNTS_TEXTS``. Once it is written, the
        entries under other keys (an older lexer, another interpreter) are deleted. A failed
        write or delete is ignored."""
        if self.entry is None or not self.missed:
            return
        run = list(self.counted.items())[:_COUNTS_TEXTS]
        digests = [digest for digest, _ in run]
        values = array("q", [n for _, c in run for n in (c.n1, c.n2, c.N1, c.N2)])
        for digest, at in self.index.items():
            if len(digests) == _COUNTS_TEXTS:
                break
            if digest not in self.counted:
                digests.append(digest)
                values.extend(self.values[at:at + 4])
        _store(self.entry, (b"".join(digests), values.tobytes()), keep=1)


def cmd_extract(args) -> int:
    """Halstead records for the given sources, as dataset-format CSV rows.

    Degenerate files (nothing to count) are skipped with a warning;
    unreadable or untokenizable files, folders that cannot be listed, and
    paths no CSV row can carry (not valid UTF-8, or holding a comma or a line
    break), are reported as errors and the command exits 2, after processing
    everything else. A text counted before is not lexed again: its counts come
    from the user's cache (``_CountsTable``).
    """
    from . import halstead

    for label, value in (("version", args.src_version), ("package", args.package)):
        if fault := dataset._field_break(value):
            raise InputError(f"{label} label contains {fault}: {value!r}")
    files, warnings, failures = _discover_sources(args.paths)
    table = _CountsTable()
    records = []
    with dataset._acyclic():  # match tuples, counts and records hold no cycles
        for path in files:
            entity = path.as_posix()
            try:
                entity.encode("utf-8")  # undecodable bytes of the name stand as lone surrogates
            except UnicodeEncodeError:
                shown = os.fsencode(entity).decode("utf-8", "backslashreplace")
                failures.append(f"{shown}: path is not valid UTF-8")
                continue
            if fault := dataset._field_break(entity):
                failures.append(f"{entity}: path contains {fault}")
                continue
            try:
                text = path.read_text(encoding="utf-8-sig")  # a BOM is not source
            except (OSError, UnicodeDecodeError) as exc:
                failures.append(f"{entity}: {exc}")
                continue
            try:
                counts = table.counts(text, entity)
                records.extend(halstead._entity_records(counts, args.src_version, args.package,
                                                        entity))
            except AnalysisError as exc:
                warnings.append(f"skipped {exc}")
            except InputError as exc:
                failures.append(str(exc))
    table.save()
    records.sort(key=lambda r: r.entity)
    for message in warnings:  # before the write, which a refusal would end
        print(f"warning: {message}", file=sys.stderr)
    for message in failures:
        print(f"error: {message}", file=sys.stderr)
    body = "".join(f"{r.version},{r.package},{r.entity},{r.metric},{r.value}\n" for r in records)
    _write_extract_output(body, args.output)
    return EXIT_INPUT if failures else EXIT_OK


def _write_extract_output(body: str, output: str) -> None:
    """Write the header and ``body`` to ``output``, or append ``body`` to the dataset there.

    The new rows must load on their own, and an existing file must load too. An append
    is refused where the file already holds a (version, package, entity, metric) key of
    the new rows; where several collide, the refusal names the first key of the new rows
    in grouping order (package, metric, version, then entity) that the file holds. Each
    text is parsed once, and no ``Record`` is built.
    """
    text = ",".join(CSV_HEADER) + "\n" + body  # as --output - prints it
    try:  # the new rows must load on their own, numbered as in that text
        new = load_csv(text)
    except InputError as exc:
        raise InputError(f"extracted rows, {exc}") from exc
    if output == "-":
        sys.stdout.write(text)
        return
    path = Path(output)
    try:
        old = path.read_bytes() if path.is_file() else b""  # a device or FIFO is written, not read
        if old:  # append to an existing dataset, which must load as one
            try:
                existing = load_csv(old.decode("utf-8"))
            except UnicodeDecodeError as exc:
                line = old.count(b"\n", 0, exc.start) + 1
                raise InputError(f"cannot append to {output}: line {line}: {exc}") from exc
            except InputError as exc:
                raise InputError(f"cannot append to {output}: {exc}") from exc
            # a key already in the file would make load_csv reject the result as a duplicate
            if key := dataset._first_held(new, existing):
                raise InputError(f"cannot append to {output}: it already holds "
                                 f"records for {key[:3]!r}")
            if not old.endswith(b"\n"):  # a last row without its newline
                body = "\n" + body
            data = old + body.encode("utf-8")
        else:
            data = text.encode("utf-8")
        _replace_file(output, data)
    except OSError as exc:
        raise InputError(f"cannot write {output}: {exc.strerror or exc}") from exc


def _replace_file(path: str, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over ``path``.

    A failure at any point leaves a regular file as it was. The result keeps the
    permission bits of the file it replaces, or gets those a plain create would.
    Through a symlink, its target is replaced. A target that exists but is not a
    regular file (a device, a FIFO, a directory) is opened and written in place.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    if not stat.S_ISREG(mode):
        with open(path, "wb") as fh:
            fh.write(data)
        return
    import tempfile  # here, not at the top: a command that writes no file never loads it

    target = Path(os.path.realpath(path))
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _alpha_arg(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("alpha must lie strictly between 0 and 1")
    return value


def _epsilon_arg(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError("epsilon must be positive and finite")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evometrics",
        description="Inequality, trend, and diversity statistics for software metric series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    series = argparse.ArgumentParser(add_help=False)  # the options of inequality and trend
    series.add_argument("--manifest", required=True, help="JSON manifest declaring version order")
    series.add_argument("--data", required=True, help="long-format metrics CSV")
    series.add_argument("--package", required=True)
    series.add_argument("--metric", required=True)
    series.add_argument("--epsilon", type=_epsilon_arg, default=DEFAULT_EPSILON,
                        help="Atkinson aversion parameter (default 0.5)")
    series.add_argument("--drop-zeros", action="store_true",
                        help="filter zero-valued measurements out of every slice")
    series.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("inequality", parents=[series],
                       help="per-version inequality indices for one slice")
    p.set_defaults(func=cmd_inequality)

    p = sub.add_parser("trend", parents=[series], help="Mann-Kendall trend over a version series")
    p.add_argument("--statistic", choices=STATISTICS, default="gini")
    p.add_argument("--alpha", type=_alpha_arg, default=DEFAULT_ALPHA,
                   help="significance level (default 0.01)")
    p.add_argument("--plot", metavar="PATH.svg", default=None,
                   help="also write an SVG line plot of the series")
    p.add_argument("--ci-exit", action="store_true",
                   help=f"exit {EXIT_TREND_DETECTED} when a trend is detected")
    p.set_defaults(func=cmd_trend)

    p = sub.add_parser("diversity", help="ecosystem diversity of one version slice")
    p.add_argument("--data", required=True)
    p.add_argument("--version", required=True, dest="at_version",
                   help="version label to analyze")
    p.add_argument("--package", required=True)
    p.add_argument("--category-metric", required=True,
                   help="metric whose values define the categories")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=cmd_diversity)

    p = sub.add_parser("extract", help="Halstead measures from C-family sources")
    p.add_argument("paths", nargs="+", help="source files or directories")
    p.add_argument("--version", required=True, dest="src_version",
                   help="version label for the emitted records")
    p.add_argument("--package", required=True)
    p.add_argument("--output", default="-",
                   help="dataset CSV to write or append to ('-' for stdout)")
    p.set_defaults(func=cmd_extract)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: inequality, trend, diversity, and extract.

Exit codes: 0 success, 1 analysis refused (a precondition does not hold),
2 input or usage error. With --ci-exit the trend command instead returns
3 when a trend is detected, so CI jobs can gate on it.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
import tempfile
from collections import Counter
from pathlib import Path

from . import __version__, report
from .dataset import (
    CSV_HEADER,
    STATISTICS,
    MetricsDataset,
    load_csv,
    load_manifest,
    per_version,
    run_pipeline,
    slice_distribution,
    version_slices,
)
from .diversity import evenness, gini_simpson, richness, shannon, simpson
from .errors import AnalysisError, InputError
from .halstead import extract_file
from .inequality import DEFAULT_EPSILON, inequality_report
from .svgplot import render_svg
from .trend import DEFAULT_ALPHA

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_INPUT = 2
EXIT_TREND_DETECTED = 3

SOURCE_SUFFIXES = {".c", ".h", ".cc", ".hh", ".cpp", ".hpp", ".cxx", ".hxx", ".icc", ".inl"}


def _read_file(path: str) -> tuple[str, dict]:
    """The file's text and its report stamp; its bytes are not held beside the text."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return data.decode("utf-8"), report.file_stamp(path, data)
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot decode {path} as UTF-8: {exc}") from exc


def _load_inputs(manifest_path: str, data_path: str) -> tuple[MetricsDataset, dict]:
    manifest_text, manifest_stamp = _read_file(manifest_path)
    data_text, data_stamp = _read_file(data_path)
    inputs = {"manifest": manifest_stamp, "data": data_stamp}
    version_order = load_manifest(manifest_text)
    return load_csv(data_text, version_order), inputs


def cmd_inequality(
    manifest_path: str,
    data_path: str,
    package: str,
    metric: str,
    epsilon: float = DEFAULT_EPSILON,
    fmt: str = "json",
    drop_zeros: bool = False,
) -> str:
    """Per-version inequality report table for one (package, metric)."""
    ds, inputs = _load_inputs(manifest_path, data_path)
    slices, gaps = version_slices(ds, package, metric, drop_zeros)
    reports = list(per_version(inequality_report, slices, epsilon))
    versions = [version for version, _ in slices]
    if not reports:
        raise AnalysisError(f"empty selection: no records for package={package!r} metric={metric!r}")
    if fmt == "csv":
        return report.inequality_csv(versions, reports)
    entry = report.result_entry(
        package=package,
        metric=metric,
        statistic=None,
        points=None,
        inequality=report.inequality_rows(versions, reports),
        trend=None,
        gaps=gaps,
    )
    return report.to_json(report.document(inputs, [entry], []))


def cmd_trend(
    manifest_path: str,
    data_path: str,
    package: str,
    metric: str,
    statistic: str,
    alpha: float = DEFAULT_ALPHA,
    epsilon: float = DEFAULT_EPSILON,
    fmt: str = "json",
    plot_path: str | None = None,
    drop_zeros: bool = False,
):
    """Series construction plus Mann-Kendall verdict; optionally an SVG plot.

    Returns (report text, PipelineResult) so callers can inspect the
    decision (the --ci-exit flag needs it).
    """
    ds, inputs = _load_inputs(manifest_path, data_path)
    result = run_pipeline(ds, package, metric, statistic, epsilon=epsilon, alpha=alpha,
                          drop_zeros=drop_zeros)
    if plot_path is not None:
        svg = render_svg(result.series, result.trend, result.gaps)
        try:
            _replace_file(plot_path, svg.encode("utf-8"))
        except OSError as exc:
            raise InputError(f"cannot write {plot_path}: {exc.strerror or exc}") from exc
    if fmt == "csv":
        text = report.trend_csv(result.series, result.trend)
    else:
        text = report.to_json(report.document(inputs, [report.pipeline_entry(result)], []))
    return text, result


def cmd_diversity(
    data_path: str,
    version: str,
    package: str,
    category_metric: str,
    fmt: str = "json",
) -> str:
    """Diversity indices of the ecosystem one categorical metric defines.

    Entities are counted per distinct value of the metric; the value's
    shortest decimal form is the category label. No manifest is needed:
    this is a single-version analysis.
    """
    data_text, data_stamp = _read_file(data_path)
    ds = load_csv(data_text)
    try:  # refused as an empty ecosystem, in this command's words
        values = slice_distribution(ds, version, package, category_metric)
    except AnalysisError as exc:
        raise AnalysisError(f"empty ecosystem: no records for version={version!r} "
                            f"package={package!r} metric={category_metric!r}") from exc
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
    if fmt == "csv":
        header = ["version", "package", "category_metric", *indices]
        return report.csv_table(header, [[version, package, category_metric, *indices.values()]])
    entry = report.result_entry(
        package=package,
        metric=category_metric,
        statistic="diversity",
        extra={
            "version": version,
            "categories": [{"category": label, "count": n} for label, n in counts.items()],
            "diversity": indices,
        },
    )
    return report.to_json(report.document({"data": data_stamp}, [entry], []))


def _discover_sources(paths: list[str]) -> tuple[list[Path], list[str], list[str]]:
    files: list[Path] = []
    warnings: list[str] = []
    failures: list[str] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(
                p for p in path.rglob("*") if p.is_file() and p.suffix in SOURCE_SUFFIXES
            )
            if not found:
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


def cmd_extract(
    paths: list[str],
    version: str,
    package: str,
) -> tuple[str, list[str], list[str]]:
    """Halstead records for the given sources, as dataset-format CSV rows.

    Returns (csv body without header, warnings, failures). Degenerate
    files (nothing to count) are skipped with a warning; unreadable or
    untokenizable files land in failures and the command exits 2, after
    processing everything else.
    """
    for label, value in (("version", version), ("package", package)):
        if "," in value:
            raise InputError(f"{label} label contains a comma: {value!r}")
    files, warnings, failures = _discover_sources(paths)
    records = []
    for path in files:
        entity = path.as_posix()
        if "," in entity:
            failures.append(f"{entity}: path contains a comma")
            continue
        try:
            text = path.read_text(encoding="utf-8-sig")  # a BOM is not source
        except (OSError, UnicodeDecodeError) as exc:
            failures.append(f"{entity}: {exc}")
            continue
        try:
            records.extend(extract_file(text, version, package, entity))
        except AnalysisError as exc:
            warnings.append(f"skipped {exc}")
        except InputError as exc:
            failures.append(str(exc))
    records.sort(key=lambda r: r.entity)
    body = "".join(f"{r.version},{r.package},{r.entity},{r.metric},{r.value}\n" for r in records)
    return body, warnings, failures


def _write_extract_output(body: str, output: str) -> None:
    text = ",".join(CSV_HEADER) + "\n" + body  # as --output - prints it
    try:  # the new rows must load on their own, numbered as in that text
        new_keys = {record[:4] for record in load_csv(text).records}
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
                records = load_csv(old.decode("utf-8")).records
            except UnicodeDecodeError as exc:
                line = old.count(b"\n", 0, exc.start) + 1
                raise InputError(f"cannot append to {output}: line {line}: {exc}") from exc
            except InputError as exc:
                raise InputError(f"cannot append to {output}: {exc}") from exc
            # a key already in the file would make load_csv reject the result as a duplicate
            for record in records:
                if record[:4] in new_keys:
                    raise InputError(f"cannot append to {output}: it already holds "
                                     f"records for {record[:3]!r}")
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
    p.set_defaults(func=_run_inequality)

    p = sub.add_parser("trend", parents=[series], help="Mann-Kendall trend over a version series")
    p.add_argument("--statistic", choices=STATISTICS, default="gini")
    p.add_argument("--alpha", type=_alpha_arg, default=DEFAULT_ALPHA,
                   help="significance level (default 0.01)")
    p.add_argument("--plot", metavar="PATH.svg", default=None,
                   help="also write an SVG line plot of the series")
    p.add_argument("--ci-exit", action="store_true",
                   help=f"exit {EXIT_TREND_DETECTED} when a trend is detected")
    p.set_defaults(func=_run_trend)

    p = sub.add_parser("diversity", help="ecosystem diversity of one version slice")
    p.add_argument("--data", required=True)
    p.add_argument("--version", required=True, dest="at_version",
                   help="version label to analyze")
    p.add_argument("--package", required=True)
    p.add_argument("--category-metric", required=True,
                   help="metric whose values define the categories")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=_run_diversity)

    p = sub.add_parser("extract", help="Halstead measures from C-family sources")
    p.add_argument("paths", nargs="+", help="source files or directories")
    p.add_argument("--version", required=True, dest="src_version",
                   help="version label for the emitted records")
    p.add_argument("--package", required=True)
    p.add_argument("--output", default="-",
                   help="dataset CSV to write or append to ('-' for stdout)")
    p.set_defaults(func=_run_extract)

    return parser


def _run_inequality(args) -> int:
    text = cmd_inequality(args.manifest, args.data, args.package, args.metric,
                          epsilon=args.epsilon, fmt=args.format,
                          drop_zeros=args.drop_zeros)
    sys.stdout.write(text)
    return EXIT_OK


def _run_trend(args) -> int:
    text, result = cmd_trend(args.manifest, args.data, args.package, args.metric,
                             args.statistic, alpha=args.alpha, epsilon=args.epsilon,
                             fmt=args.format, plot_path=args.plot,
                             drop_zeros=args.drop_zeros)
    sys.stdout.write(text)
    if args.ci_exit and result.trend.decision != "no_trend_not_rejected":
        return EXIT_TREND_DETECTED
    return EXIT_OK


def _run_diversity(args) -> int:
    text = cmd_diversity(args.data, args.at_version, args.package,
                         args.category_metric, fmt=args.format)
    sys.stdout.write(text)
    return EXIT_OK


def _run_extract(args) -> int:
    body, warnings, failures = cmd_extract(args.paths, args.src_version, args.package)
    for message in warnings:  # before the write, which a refusal would end
        print(f"warning: {message}", file=sys.stderr)
    for message in failures:
        print(f"error: {message}", file=sys.stderr)
    _write_extract_output(body, args.output)
    return EXIT_INPUT if failures else EXIT_OK


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

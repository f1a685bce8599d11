"""Command-line interface: inequality, trend, diversity, and extract.

Exit codes: 0 success, 1 analysis refused (a precondition does not hold),
2 input or usage error. With --ci-exit the trend command instead returns
3 when a trend is detected, so CI jobs can gate on it.
"""

from __future__ import annotations

import argparse
import os
import sys
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
    version_slices,
)
from .diversity import evenness, gini_simpson, shannon, simpson
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


def _read_file(path: str) -> tuple[str, bytes]:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return data.decode("utf-8"), data
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot decode {path} as UTF-8: {exc}") from exc


def _load_inputs(manifest_path: str, data_path: str) -> tuple[MetricsDataset, dict]:
    manifest_text, manifest_bytes = _read_file(manifest_path)
    data_text, data_bytes = _read_file(data_path)
    version_order = load_manifest(manifest_text)
    ds = load_csv(data_text, version_order)
    inputs = {
        "manifest": report.file_stamp(manifest_path, manifest_bytes),
        "data": report.file_stamp(data_path, data_bytes),
    }
    return ds, inputs


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
            Path(plot_path).write_text(svg, encoding="utf-8")
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
    data_text, data_bytes = _read_file(data_path)
    ds = load_csv(data_text)
    values = dict(version_slices(ds, package, category_metric)[0]).get(version)
    if values is None:
        raise AnalysisError(
            f"empty ecosystem: no records for version={version!r} "
            f"package={package!r} metric={category_metric!r}"
        )
    # sorted labels, so the float sums of the indices do not depend on row order
    counts = dict(sorted(Counter(report.format_number(v) for v in values.tolist()).items()))
    indices = {
        "richness": len(counts),
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
    inputs = {"data": report.file_stamp(data_path, data_bytes)}
    return report.to_json(report.document(inputs, [entry], []))


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
    body = "".join(
        f"{r.version},{r.package},{r.entity},{r.metric},{report.format_number(r.value)}\n"
        for r in records
    )
    return body, warnings, failures


def _write_extract_output(body: str, output: str) -> None:
    header = ",".join(CSV_HEADER) + "\n"
    if output == "-":
        sys.stdout.write(header + body)
        return
    path = Path(output)
    try:
        if path.exists() and path.stat().st_size > 0:  # append to an existing dataset
            with path.open("rb+") as fh:
                first_line = fh.readline().decode("utf-8", errors="replace")
                if tuple(f.strip() for f in first_line.split(",")) != CSV_HEADER:
                    raise InputError(f"cannot append to {output}: header "
                                     f"{first_line.strip()!r} is not {header.strip()!r}")
                # a key already in the file would make load_csv reject it as a duplicate
                new_keys = {tuple(row.split(",")[:4]) for row in body.splitlines()}
                for raw in fh:
                    fields = raw.decode("utf-8", errors="replace").split(",")
                    key = tuple(f.strip() for f in fields[:4])
                    if key in new_keys:
                        raise InputError(f"cannot append to {output}: it already holds "
                                         f"records for {key[:3]!r}")
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":  # a last row without its newline
                    body = "\n" + body
                fh.write(body.encode("utf-8"))
        else:
            path.write_text(header + body, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {output}: {exc.strerror or exc}") from exc


def _alpha_arg(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("alpha must lie strictly between 0 and 1")
    return value


def _epsilon_arg(text: str) -> float:
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError("epsilon must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evometrics",
        description="Inequality, trend, and diversity statistics for software metric series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inequality", help="per-version inequality indices for one slice")
    p.add_argument("--manifest", required=True, help="JSON manifest declaring version order")
    p.add_argument("--data", required=True, help="long-format metrics CSV")
    p.add_argument("--package", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--epsilon", type=_epsilon_arg, default=DEFAULT_EPSILON,
                   help="Atkinson aversion parameter (default 0.5)")
    p.add_argument("--drop-zeros", action="store_true",
                   help="filter zero-valued measurements out of every slice")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=_run_inequality)

    p = sub.add_parser("trend", help="Mann-Kendall trend over a version series")
    p.add_argument("--manifest", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--package", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--statistic", choices=STATISTICS, default="gini")
    p.add_argument("--alpha", type=_alpha_arg, default=DEFAULT_ALPHA,
                   help="significance level (default 0.01)")
    p.add_argument("--epsilon", type=_epsilon_arg, default=DEFAULT_EPSILON)
    p.add_argument("--drop-zeros", action="store_true",
                   help="filter zero-valued measurements out of every slice")
    p.add_argument("--format", choices=("csv", "json"), default="json")
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
    _write_extract_output(body, args.output)
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    if failures:
        for message in failures:
            print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


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

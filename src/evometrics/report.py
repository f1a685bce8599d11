"""Machine-readable report documents for the CLI.

JSON reports share one top-level shape (tool_version, inputs, results,
warnings); every result entry carries the same keys so consumers can parse
all commands uniformly. Numbers are serialized at full precision: floats
render as their shortest round-trip decimal, so a parsed report compares
equal to the in-memory values bit for bit.
"""

from __future__ import annotations

import hashlib
import json

from . import __version__
from .dataset import PipelineResult, VersionSeries
from .inequality import InequalityReport
from .trend import TrendResult


def file_stamp(path: str, data: bytes) -> dict:
    return {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def inequality_rows(versions: list[str], reports: list[InequalityReport]) -> list[dict]:
    return [
        {
            "version": version,
            "n": rep.n,
            "gini": rep.gini,
            "pietra": rep.pietra,
            "theil": rep.theil,
            "atkinson": rep.atkinson,
            "epsilon": rep.epsilon,
        }
        for version, rep in zip(versions, reports)
    ]


def result_entry(
    package: str,
    metric: str,
    statistic: str | None,
    points: list[tuple[str, float]] | None = None,
    inequality: list[dict] | None = None,
    trend: TrendResult | None = None,
    gaps: tuple[str, ...] = (),
    extra: dict | None = None,
) -> dict:
    entry = {
        "package": package,
        "metric": metric,
        "statistic": statistic,
        "points": [[v, x] for v, x in points] if points is not None else [],
        "inequality": inequality,
        "trend": trend._asdict() if trend is not None else None,
        "gaps": list(gaps),
    }
    if extra:
        entry.update(extra)
    return entry


def pipeline_entry(result: PipelineResult) -> dict:
    series = result.series
    inequality = None
    if result.inequality_per_version is not None:
        inequality = inequality_rows(series.versions(), list(result.inequality_per_version))
    return result_entry(
        package=series.package,
        metric=series.metric,
        statistic=series.statistic,
        points=list(series.points),
        inequality=inequality,
        trend=result.trend,
        gaps=result.gaps,
    )


def document(inputs: dict, results: list[dict], warnings: list[str]) -> dict:
    ordered = sorted(
        results,
        key=lambda r: (r.get("package") or "", r.get("metric") or "", r.get("statistic") or ""),
    )
    return {
        "tool_version": __version__,
        "inputs": inputs,
        "results": ordered,
        "warnings": warnings,
    }


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def csv_table(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def inequality_csv(versions: list[str], reports: list[InequalityReport]) -> str:
    """The columns of ``inequality_rows``, one row per version; ``reports`` is nonempty."""
    rows = inequality_rows(versions, reports)
    return csv_table(list(rows[0]), [list(row.values()) for row in rows])


def trend_csv(series: VersionSeries, trend: TrendResult) -> str:
    fields = {"package": series.package, "metric": series.metric, "statistic": series.statistic,
              **trend._asdict()}
    return csv_table(list(fields), [list(fields.values())])

"""Spans around evometrics' public functions, recorded from outside the program.

``Tracer.patch`` replaces every binding of each traced function in every
loaded ``evometrics`` module (the defining module plus each module that
imported the name, e.g. ``slice_distribution`` in both ``dataset`` and
``cli``) with a wrapper that records a span. Spans nest along the real call
graph; a span's self time is its duration minus that of its children.
Spans are held in memory and written out once, when the run ends.

Span names are ``<module>.<function>``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

TRACED = {
    "cli": ("main", "cmd_inequality", "cmd_trend", "cmd_diversity", "cmd_extract"),
    "dataset": ("load_manifest", "load_csv", "slice_distribution", "build_series", "run_pipeline"),
    "inequality": ("gini", "pietra", "theil", "atkinson", "inequality_report"),
    "trend": ("mk_s", "mk_variance", "kendall_tau_b", "mk_test"),
    "diversity": ("richness", "shannon", "simpson", "gini_simpson", "evenness"),
    "report": ("document", "pipeline_entry", "to_json", "csv_table", "inequality_csv", "trend_csv"),
    "svgplot": ("render_svg",),
    "halstead": ("tokenize", "halstead_counts", "halstead_measures", "extract_file"),
}


def _utf8(text: str) -> int:
    return len(text.encode("utf-8"))


# Counts taken at the span boundary, from the arguments (so also when the call raises) ...
ARG_COUNTS = {
    "dataset.slice_distribution": lambda a: {"key": list(a[1:4])},
    "inequality.inequality_report": lambda a: {"values": len(a[0])},
    "inequality.gini": lambda a: {"values": len(a[0])},
    "inequality.pietra": lambda a: {"values": len(a[0])},
    "inequality.theil": lambda a: {"values": len(a[0])},
    "inequality.atkinson": lambda a: {"values": len(a[0])},
    "trend.mk_test": lambda a: {"n": len(a[0])},
    "svgplot.render_svg": lambda a: {"points": len(a[0].points)},
    "diversity.richness": lambda a: {"categories": len(a[0])},
    "diversity.shannon": lambda a: {"categories": len(a[0])},
    "diversity.simpson": lambda a: {"categories": len(a[0])},
    "diversity.gini_simpson": lambda a: {"categories": len(a[0])},
    "diversity.evenness": lambda a: {"categories": len(a[0])},
    "halstead.tokenize": lambda a: {"bytes": _utf8(a[0])},
}
# ... and from the result, when there is one
RESULT_COUNTS = {
    "dataset.load_csv": lambda r: {"records": len(r.records)},
    "dataset.build_series": lambda r: {"gaps": len(r[1])},
    "trend.mk_test": lambda r: {"exact": int(r.method == "exact")},
    "svgplot.render_svg": lambda r: {"bytes": _utf8(r)},
    "report.to_json": lambda r: {"bytes": _utf8(r)},
    "report.csv_table": lambda r: {"bytes": _utf8(r)},
    "report.inequality_csv": lambda r: {"bytes": _utf8(r)},
    "report.trend_csv": lambda r: {"bytes": _utf8(r)},
    "halstead.tokenize": lambda r: {"tokens": len(r)},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    run: int  # one run id per benchmark operation
    counts: dict = field(default_factory=dict)
    error: str | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        arg_counts = ARG_COUNTS.get(name)
        result_counts = RESULT_COUNTS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.run)
            if arg_counts is not None:
                span.counts.update(arg_counts(args))
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if result_counts is not None:
                span.counts.update(result_counts(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self) -> None:
        """Wrap every binding of every traced function in the evometrics modules."""
        homes = {short: importlib.import_module(f"evometrics.{short}") for short in TRACED}
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "evometrics" or name.startswith("evometrics."))]
        for short, functions in TRACED.items():
            for fname in functions:
                original = getattr(homes[short], fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], cycles: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, per cycle of the workload's operation mix."""
    own = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    outer: dict[str, float] = defaultdict(float)  # counts at the entry into a module
    entries: dict[str, int] = defaultdict(int)
    distinct = set()
    for s, t in zip(spans, own):
        module = s.name.split(".")[0]
        busy[s.name] += t
        calls[s.name] += 1
        entered = s.parent < 0 or spans[s.parent].name.split(".")[0] != module
        entries[module] += entered
        for key, value in s.counts.items():
            if key == "key":
                distinct.add((s.run, *value))
                continue
            total[f"{s.name}.{key}"] += value
            if entered:
                outer[f"{module}.{key}"] += value
        if s.name == "halstead.extract_file" and s.error:
            calls[f"halstead.files_{'skipped' if s.error == 'AnalysisError' else 'failed'}"] += 1

    def self_s(*names):
        return sum(busy[n] for n in names)

    def count(*names):
        return sum(calls[n] for n in names)

    tokenize_s = busy["halstead.tokenize"]
    mk_tests = calls["trend.mk_test"]
    metrics = {
        "dataset.load_csv_s": self_s("dataset.load_csv", "dataset.load_manifest"),
        "dataset.records": total["dataset.load_csv.records"],
        "dataset.slice_s": self_s("dataset.slice_distribution"),
        "dataset.slice_calls": count("dataset.slice_distribution"),
        "dataset.slice_distinct_ratio": _ratio(len(distinct), calls["dataset.slice_distribution"]),
        "dataset.build_series_s": self_s("dataset.build_series"),
        "dataset.run_pipeline_s": self_s("dataset.run_pipeline"),
        "dataset.gaps": total["dataset.build_series.gaps"],
        "inequality.report_s": self_s("inequality.inequality_report"),
        "inequality.report_calls": count("inequality.inequality_report"),
        "inequality.index_s": self_s("inequality.gini", "inequality.pietra",
                                     "inequality.theil", "inequality.atkinson"),
        "inequality.values": outer["inequality.values"],
        "trend.mk_test_s": self_s("trend.mk_test", "trend.mk_variance", "trend.kendall_tau_b"),
        "trend.mk_s_s": self_s("trend.mk_s"),
        "trend.mk_s_calls": count("trend.mk_s"),
        "trend.series_n": _ratio(total["trend.mk_test.n"], mk_tests),
        "trend.exact_ratio": _ratio(total["trend.mk_test.exact"], mk_tests),
        "svgplot.render_s": self_s("svgplot.render_svg"),
        "svgplot.points": total["svgplot.render_svg.points"],
        "svgplot.bytes": total["svgplot.render_svg.bytes"],
        "report.to_json_s": self_s("report.to_json", "report.document", "report.pipeline_entry"),
        "report.csv_s": self_s("report.csv_table", "report.inequality_csv", "report.trend_csv"),
        "report.bytes": outer["report.bytes"],
        "diversity.index_s": sum(busy[n] for n in busy if n.startswith("diversity.")),
        "diversity.categories": _ratio(outer["diversity.categories"], entries["diversity"]),
        "halstead.tokenize_s": tokenize_s,
        "halstead.tokens": total["halstead.tokenize.tokens"],
        "halstead.tokenize_mb_s": _ratio(total["halstead.tokenize.bytes"] / 1e6, tokenize_s),
        "halstead.counts_s": self_s("halstead.halstead_counts", "halstead.halstead_measures",
                                    "halstead.extract_file"),
        "halstead.files": count("halstead.extract_file"),
        "halstead.files_skipped": calls["halstead.files_skipped"],
        "halstead.files_failed": calls["halstead.files_failed"],
        "cli.self_s": sum(busy[n] for n in busy if n.startswith("cli.")),
    }
    ratios = {"dataset.slice_distinct_ratio", "trend.series_n", "trend.exact_ratio",
              "halstead.tokenize_mb_s", "diversity.categories"}
    return {k: (v if k in ratios else v / cycles) for k, v in metrics.items()}

"""Output checks, computed from the values the generator wrote.

Nothing here calls evometrics: every expected number comes from the
generator's ``Truth`` and from the textbook definitions (pairwise Gini,
pairwise Mann-Kendall S), so a defect in the program cannot hide in its own
reference. Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter

import numpy as np

REL_TOL = 1e-9  # a Gini off by 1e-6 is a failure, last-digit rounding is not


def close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=1e-12)


# --- independent statistics ---------------------------------------------------

def pairwise_gini(x: np.ndarray) -> float:
    """Half the mean absolute difference over all n^2 ordered pairs, over the mean."""
    n = x.size
    if n == 1:
        return 0.0
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2.0 * n * x.sum()))


def theil(x: np.ndarray) -> float:
    r = x[x > 0] / x.mean()
    return float((r * np.log(r)).sum() / x.size)


def atkinson_half(x: np.ndarray) -> float:
    """Atkinson index at aversion 0.5: one minus the squared mean root share."""
    return float(1.0 - np.mean(np.sqrt(x / x.mean())) ** 2)


STATISTICS = {
    "gini": pairwise_gini,
    "theil": theil,
    "atkinson": atkinson_half,
    "mean": lambda x: math.fsum(x) / x.size,
    "raw": lambda x: float(x[0]),
}


def pairwise_s(values) -> tuple[int, int]:
    """Mann-Kendall S over all i < j, and the number of pairs too close to order.

    A pair whose values differ by less than REL_TOL may legitimately come out
    in either order once the program rounds differently, so each such pair
    widens the accepted range of S by 2.
    """
    x = np.asarray(values, dtype=float)
    s = 0
    near = 0
    for i in range(x.size - 1):
        d = x[i + 1:] - x[i]
        s += int(np.sign(d).sum())
        scale = np.maximum(np.abs(x[i + 1:]), abs(x[i]))
        near += int(np.count_nonzero((d != 0) & (np.abs(d) <= REL_TOL * scale)))
    return s, near


def mk_variance(values) -> float:
    n = len(values)
    ties = [t for t in Counter(values).values() if t > 1]
    return (n * (n - 1) * (2 * n + 5) - sum(t * (t - 1) * (2 * t + 5) for t in ties)) / 18.0


class Expected:
    """Expected series, inequality rows and trend figures for one (package, metric)."""

    def __init__(self, truth, package: str, metric: str, statistic: str, drop_zeros=False):
        self.versions, self.slices, self.gaps = [], [], []
        for version in truth.versions:
            x = truth.slices.get((version, package, metric))
            if x is not None and drop_zeros:
                x = x[x > 0]
            if x is None or x.size == 0:
                self.gaps.append(version)
                continue
            self.versions.append(version)
            self.slices.append(x)
        self.values = [STATISTICS[statistic](x) for x in self.slices]
        self.s, self.near = pairwise_s(self.values)
        self.var_s = mk_variance(self.values)
        self.ginis = [pairwise_gini(x) for x in self.slices]


# --- per-format checks ----------------------------------------------------------

def check_trend(fields: dict, exp: Expected) -> list[str]:
    problems = []
    if abs(int(fields["s"]) - exp.s) > 2 * exp.near:
        problems.append(f"S {fields['s']} != pairwise {exp.s}")
    if exp.near == 0 and not close(float(fields["var_s"]), exp.var_s):
        problems.append(f"var_s {fields['var_s']} != {exp.var_s}")
    exact = len(exp.values) <= 10 and len(set(exp.values)) == len(exp.values) and exp.near == 0
    if fields["method"] != ("exact" if exact else "normal"):
        problems.append(f"unexpected p-value method {fields['method']}")
    return problems


def check_inequality_rows(rows: list[dict], exp: Expected) -> list[str]:
    problems = []
    if [r["version"] for r in rows] != exp.versions:
        return [f"versions {[r['version'] for r in rows]} != {exp.versions}"]
    for row, x, g in zip(rows, exp.slices, exp.ginis):
        if int(row["n"]) != x.size:
            problems.append(f"{row['version']}: n {row['n']} != {x.size}")
        if not close(float(row["gini"]), g):
            problems.append(f"{row['version']}: gini {row['gini']!r} != pairwise {g!r}")
    return problems


def _single_entry(text: str) -> dict:
    doc = json.loads(text)
    if len(doc["results"]) != 1:
        raise ValueError(f"expected one result entry, got {len(doc['results'])}")
    return doc["results"][0]


def check_pipeline_entry(entry: dict, exp: Expected) -> list[str]:
    problems = []
    if entry["gaps"] != exp.gaps:
        problems.append(f"gaps {entry['gaps']} != {exp.gaps}")
    points = entry["points"]
    if [v for v, _ in points] != exp.versions:
        return problems + ["point versions differ from the covered versions"]
    for (version, got), want in zip(points, exp.values):
        if not close(float(got), want):
            problems.append(f"{version}: point {got!r} != {want!r}")
    if entry["inequality"] is not None:
        problems += check_inequality_rows(entry["inequality"], exp)
    return problems + check_trend(entry["trend"], exp)


def check_trend_json(text: str, exp: Expected) -> list[str]:
    return check_pipeline_entry(_single_entry(text), exp)


def check_trend_csv(text: str, exp: Expected) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1:
        return [f"expected one trend row, got {len(rows)}"]
    return check_trend(rows[0], exp)


def check_inequality_json(text: str, exp: Expected) -> list[str]:
    entry = _single_entry(text)
    problems = [] if entry["gaps"] == exp.gaps else [f"gaps {entry['gaps']} != {exp.gaps}"]
    return problems + check_inequality_rows(entry["inequality"], exp)


def check_inequality_csv(text: str, exp: Expected) -> list[str]:
    return check_inequality_rows(list(csv.DictReader(io.StringIO(text))), exp)


def check_diversity_json(text: str, categories: np.ndarray) -> list[str]:
    entry = _single_entry(text)
    want = Counter(repr(float(v)) for v in categories)
    got = {c["category"]: c["count"] for c in entry["categories"]}
    problems = [] if got == dict(want) else [f"categories {got} != {dict(want)}"]
    if entry["diversity"]["richness"] != len(want) or entry["diversity"]["total"] != categories.size:
        problems.append("richness or total differs from the generated categories")
    return problems


def check_svg(data: bytes, points: int) -> list[str]:
    if not data.startswith(b"<svg") or not data.endswith(b"</svg>\n"):
        return ["plot is not a complete SVG document"]
    if data.count(b"<circle ") != points:
        return [f"plot has {data.count(b'<circle ')} markers, expected {points}"]
    return []


# --- extract ------------------------------------------------------------------

def halstead_row_values(counts: tuple[int, int, int, int]) -> dict[str, float]:
    n1, n2, N1, N2 = counts
    volume = (N1 + N2) * math.log2(n1 + n2)
    difficulty = (n1 / 2.0) * (N2 / n2)
    return {
        "halstead_n1": n1, "halstead_n2": n2, "halstead_N1": N1, "halstead_N2": N2,
        "halstead_volume": volume, "halstead_difficulty": difficulty,
        "halstead_effort": difficulty * volume,
    }


def check_extract_file(data: bytes, releases: list[tuple[str, str, dict]]) -> list[str]:
    """The dataset file after extracting ``releases`` in order, each as (version, package, corpus).

    One header, seven rows per counted file in release order, and every row
    parsing back to the value known by construction.
    """
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "":
        return ["file does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0] != "version,package,entity,metric,value":
        return ["missing dataset header"]
    if lines.count(lines[0]) != 1:
        return [f"{lines.count(lines[0])} header lines"]
    want = []
    for version, package, corpus in releases:
        for entity in sorted(e for e, c in corpus.items() if c is not None):
            for metric, value in halstead_row_values(corpus[entity]).items():
                want.append((version, package, entity, metric, value))
    rows = lines[1:]
    if len(rows) != len(want):
        return [f"{len(rows)} rows, expected {len(want)}"]
    problems = []
    for row, (version, package, entity, metric, value) in zip(rows, want):
        fields = row.split(",")
        if len(fields) != 5 or fields[:4] != [version, package, entity, metric]:
            problems.append(f"row {row!r} != {version},{package},{entity},{metric}")
        elif not close(float(fields[4]), value, rel=1e-12):
            problems.append(f"row {row!r}: value differs from {value!r}")
    return problems

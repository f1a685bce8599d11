"""Seeded input generator for the benchmark's four input scenarios.

The ``sweep`` workload runs the ``sweep`` scenario; the ``cli`` workload runs
the ``queries``, ``long-series`` and ``extract`` scenarios as one CLI mix.

Follows tests/fixtures/make_synthetic.py: lognormal per-entity metric
distributions whose spread drifts release over release, written as the
long-format CSV plus a version manifest. Every size below is fixed and
independent of the seed, so runs with different seeds do the same amount of
work; the seed only changes the values. The same seed gives byte-identical
files.

Besides writing the files, each generator returns the values it wrote
(the ``Truth``), so the output checks never have to read them back through
evometrics.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HEADER = "version,package,entity,metric,value\n"
HALSTEAD = (
    "halstead_n1", "halstead_n2", "halstead_N1", "halstead_N2",
    "halstead_volume", "halstead_difficulty", "halstead_effort",
)
INTEGER_METRICS = {"halstead_n1", "halstead_n2", "halstead_N1", "halstead_N2"}

# sweep: the paper's ecosystem analysis, every (package, metric) pair of one dataset
SWEEP_RELEASES = 17
SWEEP_PACKAGES = ("core", "db", "io", "net", "ui", "util")
SWEEP_ENTITIES = 100
SWEEP_GAPS = {"io": (8, 9)}  # release indices where the package is absent
SWEEP_PAIRS = [(p, m) for p in SWEEP_PACKAGES for m in HALSTEAD]

# queries: one wider dataset that every CLI call loads in full
QUERIES_RELEASES = 17
QUERIES_PACKAGES = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta")
QUERIES_SHORT = "legacy"  # present in the first 9 releases only: exact p-value path
QUERIES_SHORT_RELEASES = 9
QUERIES_ENTITIES = 110
QUERIES_METRICS = HALSTEAD + ("defects", "kind")

# long-series: one record per nightly build
LONG_RELEASES = 5000

# extract: two releases of one C tree, same file paths
EXTRACT_FILES = 58  # source files per release, plus DEGENERATE headers
EXTRACT_DEGENERATE = 2


@dataclass
class Truth:
    """What a generator wrote, kept for the output checks."""

    versions: list[str]
    # (version, package, metric) -> values in entity order
    slices: dict[tuple[str, str, str], np.ndarray] = field(default_factory=dict)
    files: dict[str, Path] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)
    # extract only: release -> entity -> expected primitive counts, or None if skipped
    corpus: dict[str, dict[str, tuple[int, int, int, int] | None]] = field(default_factory=dict)


def release_labels(count: int) -> list[str]:
    # numeric minor versions sort wrongly as text ("1.10.0" < "1.2.0"),
    # so only the manifest can order them
    return [f"1.{k}.0" for k in range(count)]


def _metric_values(rng, metric: str, k: int, size: int, base: float) -> np.ndarray:
    if metric == "kind":
        return rng.integers(1, 7, size=size).astype(float)
    if metric == "defects":
        values = rng.poisson(2.0 + 0.1 * k, size=size) * (rng.random(size) > 0.4)
        values[0] = max(values[0], 1)  # a slice never empties under --drop-zeros
        return values.astype(float)
    sigma = 1.2 - 0.03 * k + float(rng.normal(0.0, 0.02))
    values = rng.lognormal(mean=base + 0.02 * k, sigma=sigma, size=size)
    if metric in INTEGER_METRICS:
        return np.maximum(np.round(values), 1.0)
    return values


def _write_table(path: Path, rows: list[str]) -> int:
    data = (HEADER + "".join(rows)).encode("utf-8")
    path.write_bytes(data)
    return len(data)


def _write_manifest(path: Path, versions: list[str]) -> None:
    path.write_text(json.dumps({"versions": versions}) + "\n", encoding="utf-8")


def _ecosystem(out: Path, rng, versions, packages, metrics, entities, present) -> Truth:
    truth = Truth(versions=versions)
    entity_labels = [f"src/mod{j:03d}.c" for j in range(entities)]
    bases = {(p, m): float(rng.uniform(1.5, 6.0)) for p in packages for m in metrics}
    rows: list[str] = []
    for k, version in enumerate(versions):
        for package in packages:
            if not present(package, k):
                continue
            columns = {m: _metric_values(rng, m, k, entities, bases[package, m]) for m in metrics}
            for m, values in columns.items():
                truth.slices[version, package, m] = values
            for j, entity in enumerate(entity_labels):
                prefix = f"{version},{package},{entity},"
                rows.extend(f"{prefix}{m},{float(columns[m][j])!r}\n" for m in metrics)
    truth.files["manifest"] = out / "manifest.json"
    truth.files["data"] = out / "metrics.csv"
    _write_manifest(truth.files["manifest"], versions)
    truth.sizes["data"] = _write_table(truth.files["data"], rows)
    return truth


def make_sweep(out: Path, seed: int) -> Truth:
    rng = np.random.default_rng([seed, 1])
    versions = release_labels(SWEEP_RELEASES)
    return _ecosystem(
        out, rng, versions, SWEEP_PACKAGES, HALSTEAD, SWEEP_ENTITIES,
        lambda p, k: k not in SWEEP_GAPS.get(p, ()),
    )


def make_queries(out: Path, seed: int) -> Truth:
    rng = np.random.default_rng([seed, 2])
    versions = release_labels(QUERIES_RELEASES)
    return _ecosystem(
        out, rng, versions, QUERIES_PACKAGES + (QUERIES_SHORT,), QUERIES_METRICS,
        QUERIES_ENTITIES,
        lambda p, k: p != QUERIES_SHORT or k < QUERIES_SHORT_RELEASES,
    )


def make_long_series(out: Path, seed: int) -> Truth:
    """A nightly binary-size series: an integer random walk, so values tie."""
    rng = np.random.default_rng([seed, 3])
    versions = [f"nightly.{k:05d}" for k in range(LONG_RELEASES)]
    steps = rng.integers(-30, 41, size=LONG_RELEASES)
    values = (40_000 + np.cumsum(steps)).astype(float)
    truth = Truth(versions=versions)
    rows = []
    for version, value in zip(versions, values):
        rows.append(f"{version},core,build,binary_kb,{float(value)!r}\n")
        truth.slices[version, "core", "binary_kb"] = np.array([value])
    truth.files["manifest"] = out / "manifest.json"
    truth.files["data"] = out / "metrics.csv"
    _write_manifest(truth.files["manifest"], versions)
    truth.sizes["data"] = _write_table(truth.files["data"], rows)
    return truth


# --- synthetic C corpus -------------------------------------------------------

TYPES = ("int", "char", "long", "unsigned", "double", "float", "short", "signed")
BINOPS = ("+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "&&", "||",
          "==", "!=", "<", ">", "<=", ">=")
ASSIGNS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")
NUMBERS = ("0", "1", "2", "42", "0x1F", "1024UL", "3.14", "1.5e-3", "2.0f", ".5",
           "1e+10", "0777", "255u")
STRINGS = ('"fmt %d\\n"', '"path \\"q\\" // not a comment /* nor this */"',
           '"tab\\tsep"', '""', '"http://example.org/x"', '"\\\\"')
CHARS = ("'a'", "'\\n'", "'\\''", "'\"'", "'0'", "'\\\\'")
WORDS = ("buffer", "index", "flags", "state", "count", "node", "next", "value",
         "length", "offset", "table", "entry", "result", "cursor", "limit", "handle")
COMMENT_WORDS = ("todo", "check", "the", "bounds", "here", "\"quoted\"", "a/b", "x*y",
                 "// nested", "'c'", "#not-a-directive", "{", "}", "(")


class _CSource:
    """C text built token by token, with the Halstead counts it must produce.

    Every token is separated by whitespace, so each one lexes on its own
    whatever the maximal-munch rules are; comments and directives are
    written as raw text and contribute no tokens.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.parts: list[str] = []
        self.operators: Counter[str] = Counter()
        self.operands: Counter[str] = Counter()
        self.size = 0
        self.names = [f"{rng.choice(WORDS)}_{rng.randrange(40)}" for _ in range(24)]

    def _put(self, text: str) -> None:
        self.parts.append(text)
        self.size += len(text)

    def op(self, *texts: str) -> None:
        for text in texts:
            self.operators[text] += 1
            self._put(text + " ")

    def opd(self, text: str) -> None:
        self.operands[text] += 1
        self._put(text + " ")

    def newline(self, depth: int) -> None:
        self._put("\n" + "    " * depth)

    def comment(self) -> None:
        words = " ".join(self.rng.choice(COMMENT_WORDS) for _ in range(self.rng.randrange(3, 12)))
        if self.rng.random() < 0.5:
            self._put(f"// {words}\n")
        else:
            self._put(f"/* {words}\n * {words} */ ")

    def directive(self) -> None:
        name = f"MACRO_{self.rng.randrange(1000)}"
        kind = self.rng.randrange(4)
        if kind == 0:
            self._put(f"\n#include <{self.rng.choice(WORDS)}.h>\n")
        elif kind == 1:
            self._put(f"\n#define {name}(a, b) \\\n    ((a) > (b) ? \\\n     (a) : (b))\n")
        elif kind == 2:
            self._put(f"\n  #if defined({name}) && {name} > 2\n#endif\n")
        else:
            self._put(f"\n/* {name} */ #pragma once\n")

    def atom(self) -> None:
        r = self.rng.random()
        if r < 0.6:
            self.opd(self.rng.choice(self.names))
        elif r < 0.85:
            self.opd(self.rng.choice(NUMBERS))
        elif r < 0.95:
            self.opd(self.rng.choice(STRINGS))
        else:
            self.opd(self.rng.choice(CHARS))

    def expr(self, depth: int = 0) -> None:
        r = self.rng.random()
        if depth >= 3 or r < 0.35:
            self.atom()
        elif r < 0.65:
            self.expr(depth + 1)
            self.op(self.rng.choice(BINOPS))
            self.expr(depth + 1)
        elif r < 0.75:
            self.op("(")
            self.expr(depth + 1)
            self.op(")")
        elif r < 0.82:
            self.op(self.rng.choice(("!", "~", "-", "*", "&")))
            self.atom()
        elif r < 0.87:
            self.op("sizeof", "(", self.rng.choice(TYPES), ")")
        elif r < 0.94:
            self.opd(self.rng.choice(self.names))
            self.op("[")
            self.expr(depth + 1)
            self.op("]")
        else:
            self.opd(self.rng.choice(self.names))
            self.op("(")
            for i in range(self.rng.randrange(3)):
                if i:
                    self.op(",")
                self.expr(depth + 1)
            self.op(")")

    def block(self, depth: int) -> None:
        self.op("{")
        for _ in range(self.rng.randrange(1, 4)):
            self.newline(depth + 1)
            self.statement(depth + 1)
        self.newline(depth)
        self.op("}")

    def statement(self, depth: int) -> None:
        r = self.rng.random()
        if r < 0.05:
            self.comment()
        if depth >= 4 or r < 0.3:
            self.opd(self.rng.choice(self.names))
            self.op(self.rng.choice(ASSIGNS))
            self.expr()
            self.op(";")
        elif r < 0.45:
            self.op(self.rng.choice(TYPES))
            self.opd(self.rng.choice(self.names))
            self.op("=")
            self.expr()
            self.op(";")
        elif r < 0.6:
            self.op("if", "(")
            self.expr()
            self.op(")")
            self.block(depth)
            if self.rng.random() < 0.4:
                self.op("else")
                self.block(depth)
        elif r < 0.7:
            i = self.rng.choice(self.names)
            self.op("for", "(", "int")
            self.opd(i)
            self.op("=")
            self.opd("0")
            self.op(";")
            self.opd(i)
            self.op("<")
            self.expr()
            self.op(";")
            self.opd(i)
            self.op("++", ")")
            self.block(depth)
        elif r < 0.76:
            self.op("while", "(")
            self.expr()
            self.op(")", "{")
            self.newline(depth + 1)
            self.statement(depth + 1)
            self.op("break", ";")
            self.newline(depth)
            self.op("}")
        elif r < 0.82:
            self.opd(self.rng.choice(self.names))
            self.op("->")
            self.opd(self.rng.choice(self.names))
            self.op(".")
            self.opd(self.rng.choice(self.names))
            self.op("=")
            self.expr()
            self.op("?")
            self.atom()
            self.op(":")
            self.atom()
            self.op(";")
        elif r < 0.87:
            self.op("switch", "(")
            self.opd(self.rng.choice(self.names))
            self.op(")", "{")
            for _ in range(self.rng.randrange(1, 3)):
                self.newline(depth + 1)
                self.op("case")
                self.opd(self.rng.choice(NUMBERS[:4]))
                self.op(":")
                self.statement(depth + 2)
                self.op("break", ";")
            self.newline(depth + 1)
            self.op("default", ":", "break", ";")
            self.newline(depth)
            self.op("}")
        elif r < 0.94:
            self.opd(self.rng.choice(self.names))
            self.op("(")
            self.expr()
            self.op(",")
            self.opd(self.rng.choice(STRINGS))
            self.op(",")
            self.opd(self.rng.choice(CHARS))
            self.op(")", ";")
        else:
            self.op("return")
            self.expr()
            self.op(";")

    def function(self) -> None:
        if self.rng.random() < 0.3:
            self.directive()
        if self.rng.random() < 0.5:
            self.comment()
        self.newline(0)
        self.op("static", self.rng.choice(TYPES))
        self.opd(f"fn_{self.rng.randrange(10_000)}")
        self.op("(", self.rng.choice(TYPES))
        self.opd(self.rng.choice(self.names))
        self.op(",", "const", "char", "*")
        self.opd(self.rng.choice(self.names))
        self.op(")")
        self.newline(0)
        self.block(0)
        self.newline(0)

    def counts(self) -> tuple[int, int, int, int]:
        operators = Counter(self.operators)
        for open_b, close_b, spelling in (("(", ")", "()"), ("[", "]", "[]"), ("{", "}", "{}")):
            pairs = max(operators.pop(open_b, 0), operators.pop(close_b, 0))
            if pairs:
                operators[spelling] += pairs
        return (len(operators), len(self.operands),
                sum(operators.values()), sum(self.operands.values()))


def _source_file(rng: random.Random, target: int) -> tuple[str, tuple[int, int, int, int]]:
    src = _CSource(rng)
    src.comment()
    src.directive()
    while src.size < target:
        src.function()
    return "".join(src.parts), src.counts()


def _degenerate_header(rng: random.Random, k: int) -> str:
    guard = f"GUARD_{k}_H"
    return (f"/* generated header {rng.randrange(10_000)} */\n#ifndef {guard}\n"
            f"#define {guard}\n// nothing to count here\n#endif\n")


EXTRACT_DIRS = ("src", "src/net", "src/db", "include")
EXTRACT_SUFFIXES = (".c", ".c", ".cc", ".h")


def make_extract(out: Path, seed: int) -> Truth:
    """Two releases of one C tree, A and B, with the same file paths."""
    truth = Truth(versions=["A", "B"])
    for r, release in enumerate(truth.versions):
        rng = random.Random(seed * 10 + r)  # same sizes, new content
        root = out / release
        expected: dict[str, tuple[int, int, int, int] | None] = {}
        total = 0
        for j in range(EXTRACT_FILES):
            d = j % len(EXTRACT_DIRS)
            entity = f"tree/{EXTRACT_DIRS[d]}/unit{j:03d}{EXTRACT_SUFFIXES[d]}"
            # 12 to 57 kB by a fixed schedule, so sizes do not depend on the seed
            text, counts = _source_file(rng, 12_000 + (j * 7919) % 45_000)
            (root / entity).parent.mkdir(parents=True, exist_ok=True)
            (root / entity).write_text(text, encoding="utf-8")
            expected[entity] = counts
            total += len(text)
        for k in range(EXTRACT_DEGENERATE):
            entity = f"tree/include/empty{k}.h"
            text = _degenerate_header(rng, k)
            (root / entity).write_text(text, encoding="utf-8")
            expected[entity] = None
            total += len(text)
        (root / "tree" / "README.txt").write_text("not a source file\n", encoding="utf-8")
        truth.corpus[release] = expected
        truth.files[release] = root
        truth.sizes[release] = total
    return truth


GENERATORS = {
    "sweep": make_sweep,
    "queries": make_queries,
    "long-series": make_long_series,
    "extract": make_extract,
}


def generate(workload: str, out: Path, seed: int) -> Truth:
    out.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](out, seed)

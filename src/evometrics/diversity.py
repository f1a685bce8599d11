"""Ecological diversity indices over categorical abundance data.

A codebase is treated as an ecosystem: entities (files, classes) are the
individuals and a user-chosen categorical label plays the species. Counts
may be given as a mapping from category label to count, or as a bare
sequence of counts when the labels do not matter. Zero-count categories
are dropped before anything is computed and do not enter the richness.
All logarithms are natural, matching the Theil index.
"""

from __future__ import annotations

import math
from typing import Mapping

from .errors import AnalysisError


def _abundances(counts) -> list[int]:
    raw = counts.values() if isinstance(counts, Mapping) else counts
    out = []
    for c in raw:
        k = int(c)
        if k != c or k < 0:
            raise AnalysisError("counts must be nonnegative integers")
        if k > 0:
            out.append(k)
    if not out:
        raise AnalysisError("empty ecosystem")
    return out


def richness(counts) -> int:
    """Number of categories with nonzero abundance."""
    return len(_abundances(counts))


def shannon(counts) -> float:
    """Shannon entropy H = -sum(p ln p) of the category proportions.

    0 when a single category holds everything, ln(richness) when all
    nonzero counts are equal.
    """
    a = _abundances(counts)
    total = sum(a)
    h = -math.fsum((c / total) * math.log(c / total) for c in a)
    return h + 0.0  # fold -0.0 from the single-category case


def simpson(counts) -> float:
    """Simpson concentration D = sum(p^2).

    The probability that two entities drawn at random (with replacement)
    share a category; 1/richness for a uniform ecosystem, 1 for a
    single-category one.
    """
    a = _abundances(counts)
    total = sum(a)
    return math.fsum((c / total) ** 2 for c in a)


def gini_simpson(counts) -> float:
    """Complement of Simpson concentration: 1 - sum(p^2)."""
    return 1.0 - simpson(counts)


def evenness(counts) -> float:
    """Pielou evenness J = H / ln(richness); defined as 1 for one category."""
    a = _abundances(counts)
    if len(a) == 1:
        return 1.0
    # rounding in H can push the ratio a hair past the mathematical cap of 1
    return min(1.0, shannon(a) / math.log(len(a)))

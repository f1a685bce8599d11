"""Inequality, trend, and diversity statistics for software metric series.

The library aggregates per-entity metric distributions (one software
version at a time) into econometric inequality indices, tests version
series for monotonic trends with the Mann-Kendall test, measures ecosystem
diversity of categorical compositions, and extracts Halstead measures from
C-family sources to feed the pipeline.

The Halstead names (``tokenize``, ``extract_file`` and the rest of
``evometrics.halstead``'s exports) are imported on first access, so that a
process that does not extract never loads the lexer.
"""

__version__ = "0.1.0"

from .errors import AnalysisError, EvometricsError, InputError
from .inequality import (
    DEFAULT_EPSILON,
    InequalityReport,
    atkinson,
    gini,
    inequality_report,
    lorenz_points,
    pietra,
    theil,
)
from .trend import (
    DEFAULT_ALPHA,
    DOWNWARD,
    NO_TREND,
    UPWARD,
    TrendResult,
    exact_s_distribution,
    kendall_tau_b,
    mk_s,
    mk_test,
    mk_variance,
    sen_slope,
)
from .diversity import evenness, gini_simpson, richness, shannon, simpson
from .dataset import (
    MetricsDataset,
    PipelineResult,
    Record,
    VersionSeries,
    build_series,
    load_csv,
    load_manifest,
    run_pipeline,
    slice_distribution,
)

# imported from .halstead on first access (PEP 562): only extract needs the lexer
_HALSTEAD = ("HalsteadMeasures", "Token", "TokenCounts", "extract_file", "halstead_counts",
             "halstead_measures", "tokenize")


def __getattr__(name: str):
    if name in _HALSTEAD:
        from . import halstead

        return getattr(halstead, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HALSTEAD})

__all__ = [
    "AnalysisError",
    "EvometricsError",
    "InputError",
    "DEFAULT_ALPHA",
    "DEFAULT_EPSILON",
    "DOWNWARD",
    "NO_TREND",
    "UPWARD",
    "InequalityReport",
    "TrendResult",
    "MetricsDataset",
    "PipelineResult",
    "Record",
    "VersionSeries",
    "HalsteadMeasures",
    "Token",
    "TokenCounts",
    "atkinson",
    "build_series",
    "evenness",
    "exact_s_distribution",
    "extract_file",
    "gini",
    "gini_simpson",
    "halstead_counts",
    "halstead_measures",
    "inequality_report",
    "kendall_tau_b",
    "load_csv",
    "load_manifest",
    "lorenz_points",
    "mk_s",
    "mk_test",
    "mk_variance",
    "pietra",
    "richness",
    "run_pipeline",
    "sen_slope",
    "shannon",
    "simpson",
    "slice_distribution",
    "theil",
    "tokenize",
]

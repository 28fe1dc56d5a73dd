"""Trace corpus: capture catalog, queries and planning.

The paper's analyses ran over real capture *libraries* — multi-sniffer,
multi-day, mixed formats — not single files.  This package makes that
the unit of work.  Which container a file is (pcap or snoop, each
optionally gzipped) is :mod:`repro.pcap`'s decision; this package asks
it through ``detect_format``, ``CAPTURE_FORMATS`` and
``CAPTURE_SUFFIXES``.

* :mod:`~repro.corpus.paths` — deterministic capture discovery
  (directories, globs);
* :mod:`~repro.corpus.index` — the content-addressed on-disk catalog;
* :mod:`~repro.corpus.query` — predicates answered from the catalog
  without opening capture files;
* :mod:`~repro.corpus.plan` — query-planned, cache-skipping,
  largest-first batch analysis.
"""

from .index import CaptureRecord, CorpusIndex, RefreshStats
from .paths import CorpusError, expand_captures, iter_capture_files
from .plan import (
    AnalysisStore,
    CorpusAnalysis,
    analysis_key,
    analyze_corpus,
    plan_analysis,
)
from .query import Query, filter_records, parse_query

__all__ = [
    "CaptureRecord",
    "CorpusIndex",
    "RefreshStats",
    "CorpusError",
    "expand_captures",
    "iter_capture_files",
    "AnalysisStore",
    "CorpusAnalysis",
    "analysis_key",
    "analyze_corpus",
    "plan_analysis",
    "Query",
    "filter_records",
    "parse_query",
]

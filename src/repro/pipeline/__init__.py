"""Single-pass streaming analysis pipeline.

The paper derives **every** figure from the same sniffer trace; this
subsystem computes them all in one chunked traversal instead of one
pass per analysis.  See ``docs/ARCHITECTURE.md`` for the design and a
worked custom-consumer example.

Quick use::

    from repro.pipeline import run_all, run_batch

    report = run_all(trace, roster)            # == analyze_trace(...)
    reports = run_batch({"day": day, "plenary": plenary})

Extension points:

* :class:`Consumer` + :func:`register_consumer` — add a metric to the
  single pass without touching the executor;
* :func:`run_consumers` — run a subset of metrics by name;
* :mod:`repro.pipeline.stream` sources — feed traces, pcap files or
  live segment generators.
"""

from .accumulate import SecondAccumulator
from .consumers import (
    ApActivityConsumer,
    BusytimeShareConsumer,
    BytesPerRateConsumer,
    CongestionConsumer,
    CongestionResult,
    Consumer,
    DelayConsumer,
    ReceptionConsumer,
    RtsCtsConsumer,
    SummaryConsumer,
    ThroughputConsumer,
    TransmissionsConsumer,
    UnrecordedByApConsumer,
    UnrecordedConsumer,
    UserSeriesConsumer,
    UtilizationConsumer,
)
from .executor import (
    PipelineExecutor,
    assemble_report,
    run_all,
    run_batch,
    run_consumers,
)
from .registry import (
    DEFAULT_CONSUMERS,
    ROSTER_CONSUMERS,
    available_consumers,
    consumer_factory,
    create_consumers,
    register_consumer,
    resolve_consumer_names,
)
from .stream import (
    DEFAULT_CHUNK_FRAMES,
    Chunk,
    StreamContext,
    UnsortedStreamError,
    as_stream,
    pcap_chunks,
    trace_chunks,
)

__all__ = [
    "ApActivityConsumer",
    "BusytimeShareConsumer",
    "BytesPerRateConsumer",
    "Chunk",
    "CongestionConsumer",
    "CongestionResult",
    "Consumer",
    "DEFAULT_CHUNK_FRAMES",
    "DEFAULT_CONSUMERS",
    "DelayConsumer",
    "PipelineExecutor",
    "ROSTER_CONSUMERS",
    "ReceptionConsumer",
    "RtsCtsConsumer",
    "SecondAccumulator",
    "StreamContext",
    "SummaryConsumer",
    "ThroughputConsumer",
    "TransmissionsConsumer",
    "UnrecordedByApConsumer",
    "UnrecordedConsumer",
    "UnsortedStreamError",
    "UserSeriesConsumer",
    "UtilizationConsumer",
    "as_stream",
    "assemble_report",
    "available_consumers",
    "consumer_factory",
    "create_consumers",
    "pcap_chunks",
    "register_consumer",
    "resolve_consumer_names",
    "run_all",
    "run_batch",
    "run_consumers",
    "trace_chunks",
]

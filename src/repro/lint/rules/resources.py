"""Resource-safety rules: sockets must not hang, captures must close.

A ``socket.create_connection`` without a timeout blocks until the
kernel gives up (minutes, or never against a blackholed address) —
exactly how a campaign worker wedged forever against an unreachable
coordinator.  Every connect names a timeout; a deliberately blocking
session restores blocking mode *after* the connect succeeds
(``sock.settimeout(None)``).

Capture I/O in :mod:`repro.pcap` and :mod:`repro.corpus` opens many
files per run (corpus refresh walks every capture; batch analysis
streams dozens in parallel workers).  A handle left to the garbage
collector keeps its descriptor until finalization — under a process
pool that is long enough to exhaust the fd table, and on failure paths
it pins temp files that atomic-write cleanup wants to unlink.  So
every ``open``/``gzip.open``/``gzip.GzipFile`` (and ``Path.open``)
there must be governed by a ``with`` statement.

Every store in the package writes through :mod:`repro.store`, the one
module that knows how a record is made durable (temp sibling, then
``os.replace``) and how a damaged one is quarantined (renamed
``*.corrupt``).  A rename anywhere else is a private copy of that
decision growing back, so ``os.replace``/``os.rename`` are flagged
outside ``src/repro/store.py``.

Likewise :mod:`repro.jobs` is the one job runner, so a worker pool
built anywhere else in ``src/`` is flagged; :mod:`repro.pcap` is the one
capture codec and content sniffer, so a gzip stream opened anywhere else
in ``src/`` is flagged (``gzip.compress``/``gzip.decompress`` on
in-memory blobs stay allowed); and timeouts are checked at known points,
so nothing in ``src/`` arms a ``SIGALRM`` timer.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import call_has_argument, dotted_name
from ..findings import Finding
from . import in_dirs, make, rule


@rule(
    "sock-no-timeout",
    family="resource-safety",
    severity="error",
    summary="`socket.create_connection` without a connect timeout",
    scope=in_dirs("src/"),
)
def check_connect_timeout(ctx) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if dotted_name(node.func) != "socket.create_connection":
            continue
        # Signature: create_connection(address, timeout=..., ...) —
        # a second positional argument *is* the timeout.
        if not call_has_argument(node, keyword="timeout", min_args=2):
            yield make(
                ctx,
                "sock-no-timeout",
                node,
                "connect without a timeout hangs forever against an "
                "unreachable peer — pass `timeout=`, then "
                "`sock.settimeout(None)` if the session itself should "
                "block",
            )


def _is_opener(node: ast.Call) -> bool:
    name = dotted_name(node.func)
    if name is None:
        return False
    return (
        name in ("open", "gzip.open", "gzip.GzipFile", "os.fdopen")
        or name.endswith(".open")
    )


@rule(
    "capture-open-no-ctx",
    family="resource-safety",
    severity="error",
    summary="a capture/catalog file opened outside a `with` statement",
    scope=in_dirs("src/repro/pcap/", "src/repro/corpus/"),
)
def check_capture_open_ctx(ctx) -> Iterator[Finding]:
    # Any opener call anywhere inside a with-item's context expression
    # is governed: that covers `with open(...) as fp`, the conditional
    # `with (gzip.open(p) if z else p.open())`, and the wrapping form
    # `with gzip.GzipFile(fileobj=raw)` where `raw` came from a
    # sibling with-item.
    governed: set[int] = set()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            for sub in ast.walk(item.context_expr):
                if isinstance(sub, ast.Call):
                    governed.add(id(sub))
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or id(node) in governed:
            continue
        if _is_opener(node):
            yield make(
                ctx,
                "capture-open-no-ctx",
                node,
                "capture I/O outside a context manager leaks the "
                "descriptor until GC finalization — wrap the open in "
                "`with ... as fp:` (parallel workers stream many "
                "captures; leaked fds accumulate per process)",
            )


@rule(
    "store-bypass",
    family="resource-safety",
    severity="error",
    summary="`os.replace`/`os.rename` outside `repro/store.py`",
    scope=lambda path: path.startswith("src/") and path != "src/repro/store.py",
)
def check_store_bypass(ctx) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if dotted_name(node.func) in ("os.replace", "os.rename"):
            yield make(
                ctx,
                "store-bypass",
                node,
                "atomic writes and quarantine renames belong to "
                "`repro.store` — use `write_atomic` or a `RecordStore` "
                "instead of a private rename",
            )


@rule(
    "pool-bypass",
    family="resource-safety",
    severity="error",
    summary="a `concurrent.futures` pool outside `repro/jobs.py`",
    scope=lambda path: path.startswith("src/") and path != "src/repro/jobs.py",
)
def check_pool_bypass(ctx) -> Iterator[Finding]:
    # Any reference, not just a call: `cls = A if x else B; cls()`
    # builds a pool as surely as `A()` does.
    for node in ast.walk(ctx.tree):
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if name in ("ProcessPoolExecutor", "ThreadPoolExecutor"):
            yield make(
                ctx,
                "pool-bypass",
                node,
                f"`{name}` outside `repro.jobs` is a private job runner — "
                "use `run_jobs` (failures captured, dead workers reported)",
            )


@rule(
    "gzip-bypass",
    family="resource-safety",
    severity="error",
    summary="a gzip stream opened outside `repro/pcap/`",
    scope=lambda path: (
        path.startswith("src/") and not path.startswith("src/repro/pcap/")
    ),
)
def check_gzip_bypass(ctx) -> Iterator[Finding]:
    # Any reference, not just a call (as for pools), and the names a
    # `from gzip import ...` binds.
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gzip":
            names = [f"gzip.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [dotted_name(node)]
        else:
            continue
        for name in names:
            if name in ("gzip.open", "gzip.GzipFile"):
                yield make(
                    ctx,
                    "gzip-bypass",
                    node,
                    f"`{name}` outside `repro.pcap` is a second capture "
                    "reader or sniffer — use `repro.pcap.detect_format` "
                    "or `read_trace_batches`",
                )


@rule(
    "signal-timer",
    family="resource-safety",
    severity="error",
    summary="a `SIGALRM` timer or handler in `src/`",
    scope=in_dirs("src/"),
)
def check_signal_timer(ctx) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name in ("signal.setitimer", "signal.alarm") or (
            name == "signal.signal"
            and node.args
            and dotted_name(node.args[0]) == "signal.SIGALRM"
        ):
            yield make(
                ctx,
                "signal-timer",
                node,
                "a signal timer raises inside whatever code it interrupts "
                "— check a monotonic deadline at a known point instead",
            )

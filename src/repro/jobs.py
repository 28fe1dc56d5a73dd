"""One job runner: independent jobs, serially or on one pool.

Campaign cells, capture batches, subset analyses and corpus plans all
run here.  One job, or ``workers == 1``, runs serially in this process;
anything else runs on one pool of processes (or of threads, for jobs
over in-memory data), imported only then so serial runs never load
:mod:`multiprocessing`.  :func:`capture` runs inside the worker and
turns a raised exception into a :class:`JobError`, which always
pickles.  A worker that dies outright breaks the pool: every job the
pool had not finished resolves to a ``JobError`` with ``ran=False``,
which callers report but never persist, since some never started.
``on_done(index, outcome)`` runs in this process as each job resolves,
so whatever it stores survives an interrupt.  The campaign's lease
coordinator (:mod:`repro.campaign.dispatch`) resolves jobs through the
same ``on_done`` contract, one call per job, from remote workers.

A ``JobError`` is the one failure record: a failed campaign cell, a
failed capture analysis.  The caller names it (``name``) and says what
the job ran on (``source``: the cell, the capture path) with
:func:`dataclasses.replace`.

Stdlib only; imports nothing from ``repro``.
"""

from __future__ import annotations

import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = ["JobError", "capture", "run_jobs"]


@dataclass(frozen=True)
class JobError:
    """Why a job has no result: what it raised, or its worker died."""

    error_type: str
    error: str
    traceback: str
    elapsed_s: float
    ran: bool = True  # False: the pool broke; the job may never have started
    name: str = ""  # set by the caller: the cell or capture name
    source: Any = None  # set by the caller: the cell or capture path


def capture(fn: Callable[[Any], Any], job: Any) -> Any:
    """``fn(job)``, or a :class:`JobError` if it raises an ``Exception``."""
    start = time.perf_counter()
    try:
        return fn(job)
    except Exception as error:
        return JobError(
            error_type=type(error).__name__,
            error=str(error),
            traceback=traceback_module.format_exc(),
            elapsed_s=time.perf_counter() - start,
        )


def run_jobs(
    fn: Callable[[Any], Any],
    jobs: Sequence[Any],
    on_done: Callable[[int, Any], None] | None = None,
    *,
    workers: int | None = None,
    threads: bool = False,
) -> list:
    """Run ``fn`` over ``jobs``; return each outcome in input order.

    An outcome is ``fn(job)`` or a :class:`JobError`.  Jobs are submitted
    in input order; ``workers`` sizes the pool (``None``: its default).
    """
    outcomes: list = [None] * len(jobs)

    def resolve(index: int, outcome: Any) -> None:
        outcomes[index] = outcome
        if on_done is not None:
            on_done(index, outcome)

    if len(jobs) <= 1 or workers == 1:
        for index, job in enumerate(jobs):
            resolve(index, capture(fn, job))
        return outcomes

    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed

    pool_cls = ThreadPoolExecutor if threads else ProcessPoolExecutor
    with pool_cls(max_workers=workers) as pool:
        futures = {pool.submit(capture, fn, job): i for i, job in enumerate(jobs)}
        try:
            for future in as_completed(futures):
                try:
                    outcome = future.result()
                except Exception as error:  # the worker process died
                    outcome = JobError(type(error).__name__, str(error), "", 0.0, False)
                resolve(futures[future], outcome)
        finally:  # interrupted: drop the queued jobs instead of running them
            for future in futures:
                future.cancel()
    return outcomes

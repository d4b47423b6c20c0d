"""Thread-offloaded campaign jobs: submit, poll, stream progress.

``POST /coverage`` is synchronous -- fine for cached or small campaigns,
hostile for a cold ``standard_universe(4096)`` run.  The job layer turns
those into ``POST /jobs`` + ``GET /jobs/{id}``: the campaign runs on a
private :class:`~concurrent.futures.ThreadPoolExecutor` (its *own* pool,
never asyncio's default executor, so the event loop shuts down cleanly
while jobs are still draining) and the :class:`Job` record tracks
``queued -> running -> done | error`` plus live ``(done, total)``
progress fed by the campaign engines' ``progress`` callback.

Campaign work still funnels through
:func:`~repro.analysis.request.execute_request`, so jobs share the
content-addressed :class:`~repro.server.cache.ResultCache` with the
synchronous endpoints -- submitting a job for a cached request completes
in microseconds.

>>> from repro.analysis.request import CampaignRequest
>>> manager = JobManager()
>>> job = manager.submit_coverage(CampaignRequest(test="mats", n=8))
>>> manager.wait(job.id).status
'done'
>>> 0.0 < manager.get(job.id).result["report"]["overall"] <= 1.0
True
>>> manager.close()
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.analysis.request import CampaignRequest, execute_request, resolve_campaign

__all__ = ["Job", "JobManager"]

_STATUSES = ("queued", "running", "done", "error")


@dataclass
class Job:
    """One submitted campaign: status, progress, and (eventually) result."""

    id: str
    kind: str  # "coverage" | "compare"
    status: str = "queued"
    progress: tuple[int, int] = (0, 0)  # (faults done, faults total)
    result: dict | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        """The ``GET /jobs/{id}`` response body."""
        done, total = self.progress
        out = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "progress": {"done": done, "total": total},
        }
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        return out


class JobManager:
    """Owns the worker threads and the bounded job table.

    Parameters
    ----------
    cache:
        The :class:`~repro.server.cache.ResultCache` campaign work runs
        against (None = the process default).
    max_workers:
        Job threads.  The lane and scalar engines are pure Python and
        hold the GIL, so two campaigns in one process do not run in
        parallel; what extra threads buy is overlap -- cache hits and
        I/O complete while a campaign runs.  A request uses more cores
        through its ``workers`` option (the process pool).
    history:
        Finished jobs retained for polling; the oldest are dropped
        beyond this bound.
    """

    def __init__(self, cache=None, max_workers: int = 2,
                 history: int = 256):
        self.cache = cache
        self.executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-job")
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._history = history
        self._events: dict[str, threading.Event] = {}

    # -- submission ----------------------------------------------------------

    def _new_job(self, kind: str) -> Job:
        with self._lock:
            job = Job(id=f"job-{next(self._ids)}", kind=kind)
            self._jobs[job.id] = job
            self._events[job.id] = threading.Event()
            while len(self._jobs) > self._history:
                stale_id, stale = next(iter(self._jobs.items()))
                if stale.status in ("done", "error"):
                    del self._jobs[stale_id]
                    self._events.pop(stale_id, None)
                else:
                    break  # never drop a live job
        return job

    def submit_coverage(self, request: CampaignRequest) -> Job:
        """Queue one coverage campaign; returns the (queued) job."""
        resolve_campaign(request)  # validate *before* queueing
        job = self._new_job("coverage")
        self.executor.submit(self._run_coverage, job, request)
        return job

    def submit_compare(self, requests: list[CampaignRequest]) -> Job:
        """Queue a comparison table over several requests."""
        for request in requests:
            resolve_campaign(request)
        job = self._new_job("compare")
        self.executor.submit(self._run_compare, job, requests)
        return job

    # -- the workers ---------------------------------------------------------

    def _finish(self, job: Job, *, result: dict | None = None,
                error: str | None = None) -> None:
        with self._lock:
            job.result = result
            job.error = error
            job.status = "error" if error is not None else "done"
            event = self._events.get(job.id)
        if event is not None:
            event.set()

    def _progress_cb(self, job: Job):
        def progress(done: int, total: int) -> None:
            job.progress = (done, total)
        return progress

    def _run_coverage(self, job: Job, request: CampaignRequest) -> None:
        from repro.server.schemas import coverage_response

        job.status = "running"
        try:
            outcome = execute_request(request, cache=self.cache,
                                      progress=self._progress_cb(job))
            total = sum(outcome.report.total.values())
            job.progress = (total, total)
            self._finish(job, result=coverage_response(request, outcome))
        except Exception as exc:  # surfaced to the poller, not the log
            self._finish(job, error=f"{type(exc).__name__}: {exc}")

    def _run_compare(self, job: Job,
                     requests: list[CampaignRequest]) -> None:
        from repro.server.schemas import compare_response

        job.status = "running"
        try:
            rows = []
            for index, request in enumerate(requests):
                resolved = resolve_campaign(request)
                outcome = execute_request(request, cache=self.cache,
                                          test_name=resolved.display_name)
                from repro.analysis.compare import ComparisonRow
                row = ComparisonRow(name=resolved.display_name,
                                    operations=resolved.operations,
                                    report=outcome.report)
                row._ops_per_cell = resolved.operations / request.n
                rows.append(row)
                job.progress = (index + 1, len(requests))
            self._finish(job, result=compare_response(requests, rows))
        except Exception as exc:
            self._finish(job, error=f"{type(exc).__name__}: {exc}")

    # -- polling -------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        """The job record, or None for unknown/expired ids."""
        with self._lock:
            return self._jobs.get(job_id)

    def stats(self) -> dict:
        """Queue-depth snapshot for ``GET /stats``: jobs per status plus
        the number tracked (bounded by ``history``)."""
        with self._lock:
            counts = dict.fromkeys(_STATUSES, 0)
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
            counts["tracked"] = len(self._jobs)
            return counts

    def wait(self, job_id: str, timeout: float | None = None) -> Job | None:
        """Block until the job finishes (tests and the NDJSON stream)."""
        with self._lock:
            event = self._events.get(job_id)
        if event is None:
            return self.get(job_id)
        event.wait(timeout)
        return self.get(job_id)

    def close(self) -> None:
        """Stop accepting work and wait for running jobs."""
        self.executor.shutdown(wait=True)

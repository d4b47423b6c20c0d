"""Outside-in tracing: spans around the program's public layer calls.

The program has no tracing of its own, so the benchmark wraps the
functions each layer exposes, at the names their callers bind (a
``from x import f`` caller looks ``f`` up in its own module, so that is
the attribute replaced).  A wrapped name that no longer exists is
recorded as *absent*, never as an error, so the benchmark keeps running
when a later change deletes or renames a layer.

Spans (name, start, end, parent, request id) and counts live in memory
and are written out when the run ends; :func:`layer_metrics` turns them
into the per-layer metrics.  Nothing here runs unless a traced run asks
for it.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
from time import perf_counter

#: Lane-pass kinds the standard universes produce, one metric each.
LANE_KINDS = ("stuck", "transition", "stuck-open", "coupling", "state",
              "bridge", "decoder")


class Tracer:
    """In-memory span and count recorder, safe across threads and tasks."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, rid)
        self.counts: list[tuple] = []  # (name, value, rid)
        self.absent: list[str] = []
        self.wrapped: list[str] = []
        self.model_kinds: dict[int, str] = {}  # id(lane model) -> kind
        self.seen_streams: set[tuple] = set()  # (request id, id(stream))
        self._ids = itertools.count(1)
        self._ids_lock = threading.Lock()
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "e2ebench_span", default=(None, None))

    def _next_id(self) -> int:
        with self._ids_lock:
            return next(self._ids)

    @contextlib.contextmanager
    def span(self, name: str, request_id=None):
        """Record one span; ``request_id`` makes it a root."""
        rid, parent = self.current.get()
        if request_id is not None:
            rid, parent = request_id, None
        sid = self._next_id()
        token = self.current.set((rid, sid))
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            self.current.reset(token)
            self.spans.append((sid, name, start, end, parent, rid))

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller, under the current span."""
        rid, parent = self.current.get()
        self.spans.append((self._next_id(), name, start, end, parent, rid))

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value, self.current.get()[0]))

    def wrap(self, target: str, layer, after=None) -> None:
        """Replace ``module[:Class].attr`` with a spanning wrapper.

        ``layer`` is the span name, or a callable computing it from the
        call's arguments; ``after(tracer, args, kwargs, result)`` records
        counts from the call's result.
        """
        module_name, _, attr_path = target.partition(":")
        *owner_path, attr = attr_path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        tracer = self

        def name_of(*args, **kwargs) -> str:
            return layer(*args, **kwargs) if callable(layer) else layer

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                with tracer.span(name_of(*args, **kwargs)):
                    result = await original(*args, **kwargs)
                if after is not None:
                    after(tracer, args, kwargs, result)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with tracer.span(name_of(*args, **kwargs)):
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(tracer, args, kwargs, result)
                return result

        setattr(owner, attr, wrapper)
        self.wrapped.append(target)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "absent": self.absent, "wrapped": self.wrapped},
                      handle)


# -- the layer map ----------------------------------------------------------

_COMPILERS = ("march", "schedule", "pi_iteration", "dual_port", "quad_port",
              "multi_schedule")


def _after_compile(tracer, _args, _kwargs, stream) -> None:
    # The cached_* adapters return one memoized stream to every caller of
    # a request; count its records once per request.
    key = (tracer.current.get()[0], id(stream))
    if key not in tracer.seen_streams:
        tracer.seen_streams.add(key)
        tracer.count("compilers.stream_records", len(stream.ops))


def _after_run_coverage(tracer, args, kwargs, _report) -> None:
    universe = kwargs.get("universe", args[1] if len(args) > 1 else None)
    if universe is not None and not isinstance(universe, (str, bytes)):
        tracer.count("universe.faults", len(universe))


def _after_batched(tracer, _args, _kwargs, result) -> None:
    tracer.count("campaign.batched_runs", 1)
    tracer.count("campaign.faults", len(result.outcomes))
    tracer.count("campaign.faults_batched", result.faults_batched)
    tracer.count("pool.workers_used", result.workers_used)


def _after_scalar(tracer, _args, _kwargs, result) -> None:
    tracer.count("campaign.scalar_faults", len(result.outcomes))
    tracer.count("campaign.scalar_ops", result.operations_replayed)


def _after_partition(tracer, _args, _kwargs, result) -> None:
    tracer.count("campaign.fallback_faults", len(result[1]))


def _after_cache_get(tracer, _args, _kwargs, result) -> None:
    tracer.count("cache.lookups", 1)
    tracer.count("cache.hits", result is not None)


def _after_lane_model(tracer, args, kwargs, model) -> None:
    tracer.model_kinds[id(model)] = kwargs.get("kind",
                                               args[0] if args else "?")


def _after_lane_pass(tracer, args, kwargs, result) -> None:
    ops = kwargs.get("ops", args[1] if len(args) > 1 else ())
    tracer.count("packed.lane_passes", 1)
    tracer.count("packed.records_executed", result[1])
    tracer.count("packed.records_offered", len(ops))


def _after_broadcast(tracer, _args, _kwargs, _token) -> None:
    tracer.count("pool.broadcasts", 1)


def install_library(tracer: Tracer) -> None:
    """Wrap every layer a library request passes through."""
    wrap = tracer.wrap
    wrap("repro.analysis.request:resolve_campaign", "request.resolve")
    for kind in _COMPILERS:
        wrap(f"repro.analysis.coverage:cached_{kind}_stream",
             "compilers.compile", _after_compile)
    wrap("repro.sim.verify:verify", "verify.verify")
    wrap("repro.faults.universe:UniverseSpec.build", "universe.build")
    wrap("repro.analysis.request:standard_universe", "universe.build")
    wrap("repro.analysis.request:run_coverage", "coverage.run",
         _after_run_coverage)
    wrap("repro.analysis.coverage:run_campaign_batched", "batched.engine",
         _after_batched)
    wrap("repro.analysis.coverage:run_campaign", "campaign.scalar",
         _after_scalar)
    wrap("repro.sim.batched:run_campaign", "campaign.scalar", _after_scalar)
    wrap("repro.sim.batched:partition_universe", "campaign.partition",
         _after_partition)
    wrap("repro.sim.batched:build_lane_model", "packed.lane_model",
         _after_lane_model)

    def lane_pass_name(_memory, *args, **kwargs) -> str:
        model = kwargs.get("model", args[2] if len(args) > 2 else None)
        return "packed.lane_pass." + tracer.model_kinds.pop(id(model),
                                                            "other")

    wrap("repro.memory.packed:PackedMemoryArray.apply_stream",
         lane_pass_name, _after_lane_pass)
    wrap("repro.server.cache:ResultCache.get", "cache.get", _after_cache_get)
    wrap("repro.server.cache:ResultCache.put", "cache.put")
    wrap("repro.sim.pool:WorkerPool.broadcast_stream", "pool.broadcast",
         _after_broadcast)
    wrap("repro.sim.pool:TaskFlow.next", "pool.drain_wait")


def install_server(tracer: Tracer) -> None:
    """Library layers plus the service's own (schemas, app, jobs)."""
    install_library(tracer)
    wrap = tracer.wrap
    wrap("repro.server.app:resolve_campaign", "request.resolve")
    wrap("repro.server.app:request_from_dict", "schemas.parse")
    wrap("repro.server.app:coverage_response", "schemas.response")
    wrap("repro.server.app:verify_response", "schemas.response")
    wrap("repro.server.app:execute_request", "request.execute")


def trace_executor(tracer: Tracer, executor) -> None:
    """Carry the span context into job threads; time the queue wait.

    ``loop.run_in_executor`` does not copy context variables, so the
    submitting task's context travels with the work item, and the gap
    between submission and start is recorded as ``jobs.wait``.
    """
    submit = executor.submit

    def traced_submit(fn, *args, **kwargs):
        context = contextvars.copy_context()
        queued = perf_counter()

        def run():
            tracer.record("jobs.wait", queued, perf_counter())
            return fn(*args, **kwargs)

        return submit(context.run, run)

    executor.submit = traced_submit


# -- aggregation ------------------------------------------------------------

#: Per-layer metric -> (unit, better).  Times are seconds per request.
PER_LAYER: dict[str, tuple[str, str]] = {
    "request.resolve_s": ("s", "lower"),
    "compilers.compile_s": ("s", "lower"),
    "compilers.stream_records": ("count", "lower"),
    "verify.verify_s": ("s", "lower"),
    "universe.build_s": ("s", "lower"),
    "universe.builds_per_request": ("count", "lower"),
    "universe.faults": ("count", "higher"),
    "campaign.partition_s": ("s", "lower"),
    "campaign.lane_fault_ratio": ("ratio", "higher"),
    "campaign.fallback_faults": ("count", "lower"),
    **{f"packed.lane_pass_s.{kind}": ("s", "lower") for kind in LANE_KINDS},
    "packed.lane_passes": ("count", "lower"),
    "packed.records_executed": ("count", "lower"),
    "packed.early_exit_ratio": ("ratio", "higher"),
    "campaign.scalar_s": ("s", "lower"),
    "campaign.scalar_ops_per_fault": ("count", "lower"),
    "coverage.report_s": ("s", "lower"),
    "batched.engine_self_s": ("s", "lower"),
    "cache.get_s": ("s", "lower"),
    "cache.put_s": ("s", "lower"),
    "cache.lookups_per_request": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.evictions": ("count", "lower"),
    "cache.disk_promotions": ("count", "lower"),
    "schemas.parse_s": ("s", "lower"),
    "schemas.response_s": ("s", "lower"),
    "schemas.response_bytes": ("bytes", "lower"),
    "app.self_s": ("s", "lower"),
    "jobs.wait_s": ("s", "lower"),
    "pool.start_s": ("s", "lower"),
    "pool.broadcast_s": ("s", "lower"),
    "pool.broadcasts": ("count", "lower"),
    "pool.drain_wait_s": ("s", "lower"),
    "pool.workers_used": ("count", "higher"),
    "client.late_ms.p90": ("ms", "lower"),
    "other_s": ("s", "lower"),
    "trace.overhead_campaign_s": ("s", "lower"),
    "trace.overhead_latency_ms": ("ms", "lower"),
}

# Span name -> metric holding its time (outermost spans only, so a
# layer calling itself is not counted twice).
_INCLUSIVE = {
    "request.resolve": "request.resolve_s",
    "compilers.compile": "compilers.compile_s",
    "verify.verify": "verify.verify_s",
    "universe.build": "universe.build_s",
    "campaign.partition": "campaign.partition_s",
    "campaign.scalar": "campaign.scalar_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "schemas.parse": "schemas.parse_s",
    "schemas.response": "schemas.response_s",
    "jobs.wait": "jobs.wait_s",
    "pool.broadcast": "pool.broadcast_s",
    "pool.drain_wait": "pool.drain_wait_s",
    **{f"packed.lane_pass.{kind}": f"packed.lane_pass_s.{kind}"
       for kind in LANE_KINDS},
}
# Span name -> metric holding its self time (span minus child spans).
_SELF = {
    "coverage.run": "coverage.report_s",
    "batched.engine": "batched.engine_self_s",
    "app": "app.self_s",
    "request": "other_s",
}


def layer_metrics(spans, counts, request_ids, extra=None) -> dict:
    """Per-request means of every per-layer metric over ``request_ids``.

    Every metric is present; a layer that did not run reads 0.  ``extra``
    supplies metrics measured outside the spans (cache counters, pool
    start, client lateness, tracing overhead).
    """
    wanted = set(request_ids)
    requests = max(len(wanted), 1)
    by_id = {span[0]: span for span in spans}
    children: dict[int, float] = {}
    for sid, _name, start, end, parent, rid in spans:
        if rid in wanted and parent is not None:
            children[parent] = children.get(parent, 0.0) + end - start
    totals = dict.fromkeys(PER_LAYER, 0.0)
    builds = 0
    for sid, name, start, end, parent, rid in spans:
        if rid not in wanted:
            continue
        if name == "universe.build":
            builds += 1
        if name in _SELF:
            totals[_SELF[name]] += end - start - children.get(sid, 0.0)
        if name in _INCLUSIVE and not _has_ancestor(by_id, parent, name):
            totals[_INCLUSIVE[name]] += end - start
    summed: dict[str, float] = {}
    for name, value, rid in counts:
        if rid in wanted:
            summed[name] = summed.get(name, 0.0) + value
    out = {name: value / requests for name, value in totals.items()}
    out["universe.builds_per_request"] = builds / requests
    for name in ("compilers.stream_records", "universe.faults",
                 "campaign.fallback_faults", "packed.lane_passes",
                 "packed.records_executed", "pool.broadcasts"):
        out[name] = summed.get(name, 0.0) / requests
    out["cache.lookups_per_request"] = summed.get("cache.lookups", 0) / requests
    out["pool.workers_used"] = _ratio(summed.get("pool.workers_used", 0.0),
                                      summed.get("campaign.batched_runs", 0.0))
    out["campaign.lane_fault_ratio"] = _ratio(
        summed.get("campaign.faults_batched", 0.0),
        summed.get("campaign.faults", 0.0))
    out["campaign.scalar_ops_per_fault"] = _ratio(
        summed.get("campaign.scalar_ops", 0.0),
        summed.get("campaign.scalar_faults", 0.0))
    offered = summed.get("packed.records_offered", 0.0)
    out["packed.early_exit_ratio"] = (
        1.0 - _ratio(summed.get("packed.records_executed", 0.0), offered)
        if offered else 0.0)
    out["cache.hit_ratio"] = _ratio(summed.get("cache.hits", 0.0),
                                    summed.get("cache.lookups", 0.0))
    out.update(extra or {})
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _has_ancestor(by_id, parent, name) -> bool:
    while parent is not None:
        span = by_id.get(parent)
        if span is None:
            return False
        if span[1] == name:
            return True
        parent = span[4]
    return False

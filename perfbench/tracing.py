"""In-memory span tracer that wraps the layers' public functions from outside.

A span is ``(name, start, end, parent, request_id)``.  Spans nest on a
plain stack: every wrapped function is synchronous, and the daemon runs
them on one event loop thread, so no two wrapped calls ever interleave.
Request identity rides a context variable that the wrapped
``next_request`` sets inside the worker task it runs in (asyncio gives
each task its own context), so every span a worker opens while serving
a request carries that request's id.

:func:`install_daemon_wrappers`, :func:`install_analysis_wrappers` and
:func:`install_campaign_wrappers` patch module and class attributes in
place — no program file is edited.  :meth:`Tracer.write_chrome` emits
Chrome Trace Event JSON (opens in Perfetto or ``chrome://tracing``);
:meth:`Tracer.table` gives per-span-name counts, total and self time,
where self time is a span's duration minus the part its children cover.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import time
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "Tracer",
    "install_daemon_wrappers",
    "install_analysis_wrappers",
    "install_campaign_wrappers",
]

_request_id: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_request_id", default=None
)


class Tracer:
    """Spans and counters kept in memory until :meth:`write_chrome`."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index or -1, request id or None]
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        #: named counters recorded at the same boundaries as the spans
        self.counts: dict[str, float] = {}
        #: named sample lists (e.g. queue waits)
        self.samples: dict[str, list[float]] = {}

    def count(self, name: str, by: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + by

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``after(result, args, kwargs)``
        runs on each successful return."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter_ns(), 0, parent, _request_id.get()]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(f"{name}.raised")
                raise
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, after: Callable | None = None) -> None:
        """Replace ``owner.attr`` (module, class or instance) with a traced twin."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

    # -- reports -------------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[i]) / 1e6
        return out

    def write_chrome(self, path: Path) -> None:
        """Chrome Trace Event JSON: one complete ("X") event per span."""
        pid = os.getpid()
        events = []
        for i, (name, start, end, parent, rid) in enumerate(self.spans):
            args: dict[str, Any] = {"span": i, "parent": parent}
            if rid is not None:
                args["request_id"] = rid
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": start / 1e3, "dur": (end - start) / 1e3,
                "pid": pid, "tid": 1, "args": args,
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def install_daemon_wrappers(tracer: Tracer) -> None:
    """Wrap the daemon path: framing, scheduler, IDC, routing, calendar, rides."""
    from repro.faults import recovery
    from repro.gridftp import reliability
    from repro.net import routing
    from repro.sched import base as sched_base
    from repro.service import api, daemon
    from repro.vc import oscars, scheduler as calendar

    for mod in (api, daemon):
        tracer.patch(mod, "decode_line", "api.frame")
        tracer.patch(mod, "encode_line", "api.frame")
    tracer.patch(routing, "k_shortest_paths", "net.k_shortest_paths")
    tracer.patch(oscars, "least_congested_path", "net.least_congested_path")

    def reservation_done(vc, args, kwargs) -> None:
        tracer.count("vc.create_reservation.accepted")

    tracer.patch(oscars.OscarsIDC, "create_reservation", "vc.create_reservation",
                 after=reservation_done)

    tracer.patch(oscars.OscarsIDC, "create_reservation_with_retry",
                 "faults.reserve_with_retry")

    # every delay the retry policy draws, also in a sequence that ends
    # rejected (the retry wrapper only reports the wait of an accepted one)
    def backoff_drawn(delay, args, kwargs) -> None:
        tracer.count("faults.backoff_virtual_s", float(delay))

    tracer.patch(recovery.BackoffPolicy, "delay_s", "faults.backoff",
                 after=backoff_drawn)

    # calendar entries: a reservation adds one per link; a release either
    # removes them or (early teardown) keeps a truncated head per link
    windows: dict[int, tuple[int, float, float]] = {}

    def reserved(res, args, kwargs) -> None:
        n_links = len(res.path) - 1
        windows[res.reservation_id] = (n_links, res.start, res.end)
        tracer.count("vc.calendar.entries", n_links)

    def released(result, args, kwargs) -> None:
        rid = args[1]
        at = args[2] if len(args) > 2 else kwargs.get("at")
        n_links, start, end = windows.pop(rid)
        if at is None or not start < at < end:
            tracer.count("vc.calendar.entries", -n_links)

    tracer.patch(calendar.BandwidthScheduler, "committed_now",
                 "vc.calendar.committed_now")
    tracer.patch(calendar.BandwidthScheduler, "reserve", "vc.calendar.reserve",
                 after=reserved)
    tracer.patch(calendar.BandwidthScheduler, "release", "vc.calendar.release",
                 after=released)
    for attr in ("execute", "execute_with_outages"):
        tracer.patch(reliability.ReliableTransferService, attr, "gridftp.execute")

    make_scheduler = sched_base.make_scheduler
    enqueued_at: dict[int, int] = {}

    def traced_make_scheduler(*args, **kwargs):
        sched = make_scheduler(*args, **kwargs)

        def on_enqueue(result, call_args, _) -> None:
            enqueued_at[call_args[0].request_id] = time.perf_counter_ns()

        def on_next(req, call_args, _) -> None:
            if req is None:
                return
            _request_id.set(req.request_id)
            t = enqueued_at.pop(req.request_id, None)
            if t is not None:
                tracer.sample("service.queue_wait_ms",
                              (time.perf_counter_ns() - t) / 1e6)

        tracer.patch(sched, "admit", "sched.admit")
        tracer.patch(sched, "plan", "sched.plan")
        tracer.patch(sched, "enqueue", "sched.enqueue", after=on_enqueue)
        tracer.patch(sched, "next_request", "sched.next_request", after=on_next)
        return sched

    sched_base.make_scheduler = traced_make_scheduler


def install_analysis_wrappers(tracer: Tracer) -> None:
    """Wrap the streaming pipeline: sessionize and summarize (generation is
    timed by the workload around each ``next()`` of the generator)."""
    from repro.core import streaming

    tracer.patch(streaming.StreamAnalysis, "update", "core.summarize")
    tracer.patch(streaming.StreamingSessionizer, "update", "core.sessionize")
    tracer.patch(streaming.StreamAnalysis, "finalize", "core.finalize")


def install_campaign_wrappers(tracer: Tracer) -> None:
    """Wrap the runner's cache writes (cell bodies run in pool workers and
    report their own ``SimProbe`` timers)."""
    from repro.experiments import cache

    tracer.patch(cache.ResultCache, "put", "experiments.cache_put")

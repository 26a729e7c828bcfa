"""Open-loop load testing of the transfer daemon, with latency SLOs.

A *closed-loop* storm awaits every ``submit`` before sleeping the next
inter-arrival gap, so an overloaded daemon slows the arrival process
down and queueing collapse hides inside a gentler offered load.  A real
arrival process does not care how the service is doing — the paper's
Fig. 6 time-of-day pulse keeps coming whether the circuits signal in one
second or one minute.  This module is the one load harness of the
daemon, and drives it the way ``fdtcp``'s ``loadtest/`` drives fdtd:

* **arrival generators** — schedules in *virtual* service seconds:
  :func:`poisson_schedule` (memoryless), :func:`onoff_schedule`
  (bursty, alternating exponential ON/OFF phases), and
  :func:`diurnal_schedule` (a non-homogeneous process thinned against a
  24-hour shape sampled from the paper's Fig. 6 curve — activity
  spiking at the 2 AM and 8 AM cron hours);
* **an open-loop driver** — :func:`run_loadtest` fires every submission
  at its *scheduled* time on the daemon's compressed clock, as an
  independent asyncio task that is never awaited before the next
  arrival; latency is measured from the scheduled arrival to the settle
  response, so driver lateness and queue wait both count against the
  SLO;
* **a deterministic twin** — :func:`run_loadtest_sim` replays the same
  arrival schedule and request mix through a discrete-event model of the
  daemon's admission/budget/service pipeline (the *same*
  :class:`~repro.service.admission.AdmissionController` and
  :func:`~repro.service.budget.plan_path` code, hand-cranked clock), so
  two runs with one seed produce byte-identical censuses — the Ext-U
  bench's regression anchor;
* **crash injection** — ``n_crashes`` seeded arrivals also fire the
  ``crash`` chaos op, panicking a live work loop that must restart;
* **an SLO report** — :class:`LoadTestReport` pins p50/p95/p99 request
  latency (via :class:`~repro.core.streaming.QuantileSketch`),
  scheduler throughput, the shed census by reason, the degradation mix
  (VC vs routed-IP rungs), the admission bound sampled throughout the
  storm, and the supervision record (restarts, no dead loops).

Both drivers (and the cost curve) resolve params through
:func:`harness_config`, so a live and a twin cell from one spec run the
same admission ladder.
"""

from __future__ import annotations

import asyncio
import dataclasses
import heapq
import math
import os
import tempfile
import time
from collections.abc import Mapping
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.rng import ensure_rng
from ..core.streaming import QuantileSketch
from ..vc.circuits import BatchSignalling
from ..workload.diurnal import DiurnalProfile, sample_arrivals
from .admission import SHED_REASONS
from .api import AsyncServiceClient
from .budget import DeadlineBudget, PathChoice
from .daemon import DaemonConfig, TransferDaemon

if TYPE_CHECKING:  # the sched package imports this module; stay lazy
    from ..sched.base import TransferScheduler

__all__ = [
    "HARNESS_DEFAULTS",
    "harness_config",
    "FIG6_HOURLY",
    "fig6_profile",
    "poisson_schedule",
    "onoff_schedule",
    "diurnal_schedule",
    "build_schedule",
    "RequestMix",
    "LatencyRecorder",
    "LoadTestReport",
    "run_loadtest",
    "run_loadtest_sim",
    "latency_sweep_table",
]

#: relative arrival intensity by hour of day, sampled from the paper's
#: Fig. 6 time-of-day shape: activity concentrates at the 2 AM and 8 AM
#: test-cron hours, with a modest working-day shoulder and quiet nights
FIG6_HOURLY: tuple[float, ...] = (
    0.2, 0.2, 4.0, 1.0, 0.3, 0.2,   # 00-05, the 2 AM cron spike
    0.3, 0.6, 3.2, 1.2, 0.8, 0.8,   # 06-11, the 8 AM cron spike
    0.9, 0.9, 0.8, 0.8, 0.7, 0.6,   # 12-17
    0.5, 0.4, 0.3, 0.3, 0.2, 0.2,   # 18-23
)


def fig6_profile() -> DiurnalProfile:
    """The Fig. 6 load shape as a :class:`DiurnalProfile` (mean 1)."""
    return DiurnalProfile(hourly=FIG6_HOURLY, weekend_factor=0.7)


#: where a load-test cell departs from a bare daemon's defaults: a fast
#: virtual clock, an admission bound a storm can reach, a drain grace
#: long enough for the storm's tail, and a status beat quick enough to
#: sample.  Merged *under* the params by every driver.
HARNESS_DEFAULTS: Mapping[str, Any] = MappingProxyType({
    "time_scale": 3000.0,
    "queue_limit": 16,
    "drain_grace_s": 15.0,
    "status_interval_s": 0.05,
})


def harness_config(params: Mapping[str, Any], seed: int) -> DaemonConfig:
    """The daemon config one load-test cell runs.

    :data:`HARNESS_DEFAULTS` under ``params``, resolved by
    :meth:`DaemonConfig.from_params`.  ``chaos_ops`` is derived — on
    exactly when the cell injects crashes (``n_crashes > 0``) — and the
    socket is a placeholder the live driver replaces with its own.
    """
    return DaemonConfig.from_params({
        **HARNESS_DEFAULTS,
        **params,
        "socket_path": "<unserved>",
        "seed": seed,
        "chaos_ops": _n_crashes(params) > 0,
    })


def _n_crashes(params: Mapping[str, Any]) -> int:
    n = int(params.get("n_crashes", 0))
    if n < 0:
        raise ValueError("n_crashes must be non-negative")
    return n


# ---------------------------------------------------------------------------
# arrival-process generators (virtual seconds, relative to storm start)


def poisson_schedule(
    n: int, rate_per_s: float, rng: np.random.Generator | None = None
) -> np.ndarray:
    """``n`` Poisson arrival offsets at ``rate_per_s`` (virtual seconds)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if rate_per_s <= 0:
        raise ValueError("rate must be positive")
    rng = ensure_rng(rng)
    return np.cumsum(rng.exponential(1.0 / rate_per_s, size=n))


def onoff_schedule(
    n: int,
    on_rate_per_s: float,
    mean_on_s: float,
    mean_off_s: float,
    off_rate_per_s: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Bursty arrivals: exponential ON/OFF phases, Poisson within each.

    The classic interrupted-Poisson process — the same offered count as
    a plain Poisson stream but packed into bursts, so the daemon's
    admission bound is probed by clumps instead of a steady trickle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if on_rate_per_s <= 0:
        raise ValueError("on rate must be positive")
    if off_rate_per_s < 0:
        raise ValueError("off rate must be non-negative")
    if mean_on_s <= 0 or mean_off_s <= 0:
        raise ValueError("phase durations must be positive")
    rng = ensure_rng(rng)
    times: list[float] = []
    t = 0.0
    on = True
    while len(times) < n:
        duration = rng.exponential(mean_on_s if on else mean_off_s)
        rate = on_rate_per_s if on else off_rate_per_s
        if rate > 0 and duration > 0:
            k = rng.poisson(rate * duration)
            if k:
                times.extend(
                    np.sort(rng.uniform(t, t + duration, size=k)).tolist()
                )
        t += duration
        on = not on
    return np.asarray(times[:n], dtype=np.float64)


def diurnal_schedule(
    n: int,
    base_rate_per_s: float,
    profile: DiurnalProfile | None = None,
    start_hour: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """``n`` arrivals from a rate-modulated process over the Fig. 6 shape.

    Thinning-based non-homogeneous Poisson sampling
    (:func:`~repro.workload.diurnal.sample_arrivals`) over an expanding
    horizon until ``n`` arrivals land; ``start_hour`` anchors the storm
    inside the daily curve (start at 1.5 to catch the 2 AM spike).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if base_rate_per_s <= 0:
        raise ValueError("base rate must be positive")
    profile = fig6_profile() if profile is None else profile
    rng = ensure_rng(rng)
    t0 = float(start_hour) * 3600.0
    window = max(n / base_rate_per_s, 3600.0)
    out: list[float] = []
    t = t0
    while len(out) < n:
        arrivals = sample_arrivals(profile, base_rate_per_s, t, t + window, rng)
        out.extend(arrivals.tolist())
        t += window
    return np.asarray(out[:n], dtype=np.float64) - t0


def build_schedule(
    params: Mapping[str, Any], rng: np.random.Generator
) -> np.ndarray:
    """Dispatch the ``arrivals`` param onto a generator (shared by modes)."""
    kind = str(params.get("arrivals", "poisson"))
    n = int(params.get("n_requests", 50))
    rate = float(params.get("rate_per_s", 0.1))
    if kind == "poisson":
        return poisson_schedule(n, rate, rng)
    if kind == "onoff":
        return onoff_schedule(
            n,
            on_rate_per_s=float(params.get("on_rate_per_s", 4.0 * rate)),
            mean_on_s=float(params.get("mean_on_s", 60.0)),
            mean_off_s=float(params.get("mean_off_s", 180.0)),
            off_rate_per_s=float(params.get("off_rate_per_s", 0.0)),
            rng=rng,
        )
    if kind == "diurnal":
        return diurnal_schedule(
            n,
            rate,
            start_hour=float(params.get("start_hour", 1.5)),
            rng=rng,
        )
    raise ValueError(f"unknown arrival process {kind!r}")


# ---------------------------------------------------------------------------
# the request mix (one deterministic draw per arrival, shared by modes)


class RequestMix:
    """Per-arrival request properties, drawn once and replayed verbatim.

    Both drivers build the mix from the same seed, so the live daemon
    and the deterministic twin see identical tenants, file lists,
    deadlines, and injected-invalid submissions in the same order.
    ``invalid_frac`` submissions carry a negative file size — the
    daemon must refuse them (``n_invalid``), never execute them.
    """

    def __init__(
        self,
        n: int,
        rng: np.random.Generator,
        n_tenants: int = 3,
        max_files: int = 3,
        file_size_bytes: float = 4e9,
        tight_deadline_frac: float = 0.25,
        tight_deadline_s: float = 45.0,
        invalid_frac: float = 0.0,
    ) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        if max_files < 1:
            raise ValueError("max_files must be >= 1")
        if not 0.0 <= invalid_frac <= 1.0:
            raise ValueError("invalid_frac must be in [0, 1]")
        self.items: list[dict[str, Any]] = []
        for _ in range(n):
            n_files = int(rng.integers(1, max_files + 1))
            sizes = [float(file_size_bytes)] * n_files
            invalid = bool(rng.random() < invalid_frac)
            if invalid:
                sizes[0] = -abs(sizes[0])
            deadline = (
                float(tight_deadline_s)
                if rng.random() < tight_deadline_frac
                else None
            )
            self.items.append({
                "tenant": f"tenant-{int(rng.integers(0, n_tenants))}",
                "file_sizes": sizes,
                "deadline_s": deadline,
                "invalid": invalid,
            })

    @classmethod
    def from_params(
        cls, params: Mapping[str, Any], rng: np.random.Generator
    ) -> "RequestMix":
        return cls(
            n=int(params.get("n_requests", 50)),
            rng=rng,
            n_tenants=int(params.get("n_tenants", 3)),
            max_files=int(params.get("max_files", 3)),
            file_size_bytes=float(params.get("file_size_bytes", 4e9)),
            tight_deadline_frac=float(params.get("tight_deadline_frac", 0.25)),
            tight_deadline_s=float(params.get("tight_deadline_s", 45.0)),
            invalid_frac=float(params.get("invalid_frac", 0.0)),
        )

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i: int) -> dict[str, Any]:
        return self.items[i]


# ---------------------------------------------------------------------------
# the latency recorder


class LatencyRecorder:
    """Per-request latency accumulator with bounded-memory quantiles.

    A thin SLO-shaped wrapper over
    :class:`~repro.core.streaming.QuantileSketch`: record one latency
    per settled request, read p50/p95/p99 at the end.  Values buffer in
    a small batch so sketch updates stay vectorized.
    """

    _FLUSH = 256

    def __init__(self, k: int = 512) -> None:
        self.sketch = QuantileSketch(k=k)
        self._pending: list[float] = []
        self._sum = 0.0

    def record(self, latency_s: float) -> None:
        if not math.isfinite(latency_s) or latency_s < 0:
            raise ValueError("latency must be finite and non-negative")
        self._pending.append(float(latency_s))
        self._sum += float(latency_s)
        if len(self._pending) >= self._FLUSH:
            self._flush()

    def _flush(self) -> None:
        if self._pending:
            self.sketch.update(np.asarray(self._pending))
            self._pending = []

    @property
    def count(self) -> int:
        return self.sketch.count + len(self._pending)

    def summary(self) -> dict[str, float | None]:
        """``p50/p95/p99/mean/max`` seconds, or all-``None`` when empty."""
        self._flush()
        if self.sketch.count == 0:
            return {"p50": None, "p95": None, "p99": None,
                    "mean": None, "max": None}
        p50, p95, p99 = (
            float(v) for v in self.sketch.quantiles(np.array([0.5, 0.95, 0.99]))
        )
        return {
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "mean": self._sum / self.sketch.count,
            "max": float(self.sketch.maximum),
        }


# ---------------------------------------------------------------------------
# the SLO report


@dataclasses.dataclass
class LoadTestReport:
    """What one load-test run promises: censuses, SLOs, and the bound."""

    mode: str                  # "live" | "sim"
    arrivals: str
    time_scale: float
    #: full submission ledger:
    #: offered == accepted + shed + invalid + transport_error
    n_offered: int
    n_accepted: int
    n_shed: int
    n_invalid: int
    shed: dict[str, int]
    #: accepted-request outcomes (they must sum to n_accepted)
    n_succeeded: int
    n_failed: int
    n_expired: int
    n_checkpointed: int
    #: degradation mix over accepted requests that were planned
    paths: dict[str, int]
    #: latency domain: "wall" (live driver) or "virtual" (sim twin)
    latency_domain: str
    latency_p50_s: float | None
    latency_p95_s: float | None
    latency_p99_s: float | None
    latency_mean_s: float | None
    latency_max_s: float | None
    #: storm duration in the latency domain
    duration_s: float
    #: offered and settled request rates in the latency domain
    offered_rps: float
    throughput_rps: float
    #: real wall seconds the whole run took (harness speed, both modes)
    wall_s: float
    harness_rps: float
    #: admission bound, sampled at every observation point
    outstanding_max: int
    outstanding_bound: int
    n_outstanding_samples: int
    #: largest retry-after hint seen on a shed response (wall seconds)
    retry_after_max_s: float | None
    #: the scheduling policy the run served under (DESIGN.md §16)
    scheduler: str = "fcfs"
    #: fraction of *offered* submissions that fully succeeded — with
    #: goodput_bps, the pair the pareto_front analysis consumes
    availability: float = 0.0
    #: bytes fully moved by succeeded requests (sim twin; 0 when untracked)
    bytes_moved: float = 0.0
    #: succeeded-bytes goodput over the storm duration, bits/s
    goodput_bps: float = 0.0
    #: Jain fairness index over per-tenant success counts (None untracked)
    fairness_jain: float | None = None
    #: submissions whose connection was refused or reset before a reply
    #: (live driver only; the twin has no transport)
    n_transport_error: int = 0
    #: supervised work/status loop restarts during the storm (live
    #: driver only; the twin has no loops), and loops dead at the end
    loop_restarts: int = 0
    dead_loops: list[str] = dataclasses.field(default_factory=list)

    @property
    def n_settled(self) -> int:
        return (
            self.n_succeeded + self.n_failed + self.n_expired
            + self.n_checkpointed
        )

    @property
    def shed_fraction(self) -> float:
        return self.n_shed / self.n_offered if self.n_offered else 0.0

    def census(self) -> dict[str, Any]:
        """The deterministic accept/shed/degrade slice (no wall clocks)."""
        return {
            "n_offered": self.n_offered,
            "n_accepted": self.n_accepted,
            "n_shed": self.n_shed,
            "n_invalid": self.n_invalid,
            "shed": dict(self.shed),
            "n_succeeded": self.n_succeeded,
            "n_failed": self.n_failed,
            "n_expired": self.n_expired,
            "n_checkpointed": self.n_checkpointed,
            "paths": dict(self.paths),
        }

    def validate(self) -> None:
        """Raise ``AssertionError`` on any violated service contract."""
        if self.n_offered != (
            self.n_accepted + self.n_shed + self.n_invalid
            + self.n_transport_error
        ):
            raise AssertionError(
                f"submission ledger broken: offered {self.n_offered} != "
                f"accepted {self.n_accepted} + shed {self.n_shed} + "
                f"invalid {self.n_invalid} + transport error "
                f"{self.n_transport_error}"
            )
        if sum(self.shed.values()) != self.n_shed:
            raise AssertionError("shed census disagrees with n_shed")
        unknown = sorted(set(self.shed) - set(SHED_REASONS))
        if unknown:
            raise AssertionError(f"unknown shed reason(s) {unknown}")
        if self.n_shed and not (self.retry_after_max_s or 0.0) > 0:
            raise AssertionError("shed without a positive retry-after hint")
        if self.dead_loops:
            raise AssertionError(
                f"supervised loop(s) dead at the end: {self.dead_loops}"
            )
        if self.n_settled != self.n_accepted:
            raise AssertionError(
                f"{self.n_accepted - self.n_settled} accepted request(s) "
                f"unaccounted for"
            )
        if sum(self.paths.values()) > self.n_accepted:
            raise AssertionError("more planned paths than accepted requests")
        if self.outstanding_max > self.outstanding_bound:
            raise AssertionError(
                f"admission bound violated: outstanding reached "
                f"{self.outstanding_max} > limit {self.outstanding_bound}"
            )
        lats = (self.latency_p50_s, self.latency_p95_s, self.latency_p99_s)
        if any(v is not None for v in lats):
            if not all(v is not None and math.isfinite(v) for v in lats):
                raise AssertionError("latency quantiles must all be finite")
            if not (lats[0] <= lats[1] <= lats[2]):
                raise AssertionError("latency quantiles must be monotone")

    def as_dict(self) -> dict[str, Any]:
        """Strict-JSON-safe view (cacheable under the campaign runner)."""
        out = dataclasses.asdict(self)
        out["n_settled"] = self.n_settled
        out["shed_fraction"] = self.shed_fraction
        return out


def _report_from_counts(
    *,
    mode: str,
    params: Mapping[str, Any],
    counts: Mapping[str, int],
    shed: Mapping[str, int],
    paths: Mapping[str, int],
    recorder: LatencyRecorder,
    latency_domain: str,
    duration_s: float,
    wall_s: float,
    outstanding_samples: list[int],
    outstanding_bound: int,
    retry_after_max_s: float | None,
    time_scale: float,
    scheduler: str = "fcfs",
    bytes_moved: float = 0.0,
    tenant_succeeded: Mapping[str, int] | None = None,
    loop_restarts: int = 0,
    dead_loops: list[str] | None = None,
) -> LoadTestReport:
    lat = recorder.summary()
    n_offered = int(counts["n_offered"])
    n_settled_ok = (
        int(counts["n_succeeded"]) + int(counts["n_failed"])
        + int(counts["n_expired"]) + int(counts["n_checkpointed"])
    )
    return LoadTestReport(
        mode=mode,
        arrivals=str(params.get("arrivals", "poisson")),
        time_scale=time_scale,
        n_offered=n_offered,
        n_accepted=int(counts["n_accepted"]),
        n_shed=int(counts["n_shed"]),
        n_invalid=int(counts["n_invalid"]),
        shed={k: int(v) for k, v in sorted(shed.items())},
        n_succeeded=int(counts["n_succeeded"]),
        n_failed=int(counts["n_failed"]),
        n_expired=int(counts["n_expired"]),
        n_checkpointed=int(counts["n_checkpointed"]),
        paths={k: int(v) for k, v in sorted(paths.items())},
        latency_domain=latency_domain,
        latency_p50_s=lat["p50"],
        latency_p95_s=lat["p95"],
        latency_p99_s=lat["p99"],
        latency_mean_s=lat["mean"],
        latency_max_s=lat["max"],
        duration_s=float(duration_s),
        offered_rps=n_offered / duration_s if duration_s > 0 else 0.0,
        throughput_rps=n_settled_ok / duration_s if duration_s > 0 else 0.0,
        wall_s=float(wall_s),
        harness_rps=n_offered / wall_s if wall_s > 0 else 0.0,
        outstanding_max=max(outstanding_samples, default=0),
        outstanding_bound=int(outstanding_bound),
        n_outstanding_samples=len(outstanding_samples),
        retry_after_max_s=retry_after_max_s,
        scheduler=scheduler,
        availability=(
            int(counts["n_succeeded"]) / n_offered if n_offered else 0.0
        ),
        bytes_moved=float(bytes_moved),
        goodput_bps=(
            bytes_moved * 8.0 / duration_s if duration_s > 0 else 0.0
        ),
        fairness_jain=_jain_index(tenant_succeeded),
        n_transport_error=int(counts.get("n_transport_error", 0)),
        loop_restarts=int(loop_restarts),
        dead_loops=sorted(dead_loops or ()),
    )


def _jain_index(counts: Mapping[str, int] | None) -> float | None:
    """Jain's fairness index over per-tenant success counts.

    1.0 when every tenant succeeded equally, → 1/n when one tenant took
    everything.  ``None`` when the run did not track tenants (live
    driver) or no tenant succeeded at all.
    """
    if not counts:
        return None
    values = list(counts.values())
    square_sum = sum(v * v for v in values)
    if square_sum == 0:
        return None
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


# ---------------------------------------------------------------------------
# the open-loop live driver


#: response key the live driver sets on a submission whose connection
#: failed before a reply (never a key of a daemon response)
_TRANSPORT_ERROR = "transport_error"


#: spawn key of the crash-index stream: a child of the seed that no
#: schedule, request-mix or twin service draw shares
_CRASH_STREAM = 2


def _crash_indices(n_crashes: int, n: int, seed: int) -> frozenset[int]:
    """The arrivals after which the live driver fires the crash op."""
    if not n_crashes:
        return frozenset()
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_CRASH_STREAM,))
    )
    return frozenset(
        rng.choice(n, size=min(n_crashes, n), replace=False).tolist()
    )


async def _drive_open_loop(
    socket_path: str,
    schedule_virtual: np.ndarray,
    mix: RequestMix,
    time_scale: float,
    sample_interval_s: float,
    request_timeout_s: float,
    crash_at: frozenset[int],
) -> dict[str, Any]:
    """Fire every submission on schedule; never wait for a response first.

    Each arrival in ``crash_at`` also fires the ``crash`` chaos op.
    """
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    responses: list[dict[str, Any] | None] = [None] * len(mix)
    latencies: list[float | None] = [None] * len(mix)
    outstanding_samples: list[int] = []
    bound_seen = 0
    storm_over = asyncio.Event()

    async def fire(i: int) -> None:
        t_sched = t0 + float(schedule_virtual[i]) / time_scale
        item = mix[i]
        try:
            client = await AsyncServiceClient.connect(socket_path)
            try:
                resp = await asyncio.wait_for(
                    client.submit(
                        item["file_sizes"],
                        tenant=item["tenant"],
                        deadline_s=item["deadline_s"],
                        wait=True,
                    ),
                    timeout=request_timeout_s,
                )
            finally:
                await client.close()
        except TimeoutError:
            raise  # a hung daemon is a failure, not a transport error
        except (OSError, asyncio.IncompleteReadError) as exc:
            # refused or reset: counted in the ledger, never fatal
            responses[i] = {"ok": False, _TRANSPORT_ERROR: repr(exc)}
            return
        responses[i] = resp
        latencies[i] = loop.time() - t_sched

    async def crash() -> None:
        client = await AsyncServiceClient.connect(socket_path)
        try:
            resp = await client.request({"op": "crash"})
        finally:
            await client.close()
        if not resp.get("ok"):
            raise RuntimeError(
                f"the daemon refused the crash op ({resp.get('error')}); "
                f"n_crashes needs a daemon serving chaos ops (--chaos-ops)"
            )

    async def sample() -> None:
        nonlocal bound_seen
        client = await AsyncServiceClient.connect(socket_path)
        try:
            while not storm_over.is_set():
                st = (await client.request({"op": "status"}))["status"]
                outstanding_samples.append(int(st["outstanding"]))
                bound_seen = int(st["queue_limit"])
                try:
                    await asyncio.wait_for(
                        storm_over.wait(), timeout=sample_interval_s
                    )
                except asyncio.TimeoutError:
                    pass
        finally:
            await client.close()

    sampler = asyncio.create_task(sample())
    tasks: list[asyncio.Task] = []
    try:
        for i in range(len(mix)):
            delay = t0 + float(schedule_virtual[i]) / time_scale - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            # open loop: the task is NOT awaited before the next arrival
            tasks.append(asyncio.create_task(fire(i)))
            if i in crash_at:
                tasks.append(asyncio.create_task(crash()))
        await asyncio.gather(*tasks)
    finally:
        for t in tasks:
            if not t.done():
                t.cancel()
        storm_over.set()
        await sampler
    return {
        "responses": responses,
        "latencies": latencies,
        "outstanding_samples": outstanding_samples,
        "bound_seen": bound_seen,
        "duration_s": loop.time() - t0,
    }


def _classify(
    responses: list[dict[str, Any] | None],
    latencies: list[float | None],
    recorder: LatencyRecorder,
) -> tuple[dict[str, int], dict[str, int], dict[str, int], float | None]:
    """Client-side censuses from the per-request responses."""
    counts = {
        "n_offered": len(responses), "n_accepted": 0, "n_shed": 0,
        "n_invalid": 0, "n_transport_error": 0, "n_succeeded": 0,
        "n_failed": 0, "n_expired": 0, "n_checkpointed": 0,
    }
    shed: dict[str, int] = {}
    paths: dict[str, int] = {}
    retry_after_max: float | None = None
    for resp, lat in zip(responses, latencies):
        if resp is None:
            raise AssertionError("a submission never got a response")
        if _TRANSPORT_ERROR in resp:
            counts["n_transport_error"] += 1
        elif resp.get("ok"):
            counts["n_accepted"] += 1
            state = resp.get("state")
            if state not in ("succeeded", "failed", "expired", "checkpointed"):
                raise AssertionError(f"non-terminal settle state {state!r}")
            counts[f"n_{state}"] += 1
            if resp.get("path") is not None:
                paths[resp["path"]] = paths.get(resp["path"], 0) + 1
            if state != "checkpointed" and lat is not None:
                # checkpointed requests settle at drain, not by service
                recorder.record(lat)
        elif resp.get("status") == "rejected":
            reason = resp.get("reason")
            hint = resp.get("retry_after_s")
            if reason not in SHED_REASONS or not (
                isinstance(hint, (int, float)) and hint > 0
            ):
                # a shed must say why and when to come back
                raise AssertionError(f"malformed shed response {resp!r}")
            counts["n_shed"] += 1
            shed[reason] = shed.get(reason, 0) + 1
            retry_after_max = max(retry_after_max or 0.0, float(hint))
        elif str(resp.get("error", "")).startswith("invalid submission"):
            counts["n_invalid"] += 1
        else:
            raise AssertionError(f"unexpected response {resp!r}")
    return counts, shed, paths, retry_after_max


def _check_daemon_ledger(
    counts: Mapping[str, int], daemon_metrics: Mapping[str, int]
) -> None:
    """The daemon's ledger must agree with the client-side censuses; a
    reset reply may hide one daemon-side count per transport error."""
    unseen = 0
    for key in ("n_accepted", "n_shed", "n_invalid"):
        if daemon_metrics[key] < counts[key]:
            raise AssertionError(
                f"client-side {key}={counts[key]} disagrees with the "
                f"daemon's {key}={daemon_metrics[key]}"
            )
        unseen += daemon_metrics[key] - counts[key]
    if unseen > counts["n_transport_error"]:
        raise AssertionError(
            f"the daemon counted {unseen} submission(s) the client never "
            f"saw answered, but only {counts['n_transport_error']} hit a "
            f"transport error"
        )


def run_loadtest(
    params: Mapping[str, Any],
    seed: int,
    socket_path: str | None = None,
) -> LoadTestReport:
    """Open-loop load test against a *live* daemon.

    With ``socket_path=None`` a daemon is booted in-process from
    :func:`harness_config` (real asyncio loops, real Unix control
    socket) and drained afterwards; otherwise the storm drives an
    already-running daemon at ``socket_path`` and the daemon is left
    serving (``n_crashes > 0`` then needs it started with
    ``--chaos-ops``).  The arrival schedule, request mix and crash
    arrivals are seeded, so the *offered* load replays exactly; the live
    censuses depend on real scheduling (use :func:`run_loadtest_sim`
    for the deterministic twin).
    """
    rng = np.random.default_rng(seed)
    schedule = build_schedule(params, rng)
    mix = RequestMix.from_params(params, rng)
    config = harness_config(params, seed)
    crash_at = _crash_indices(_n_crashes(params), len(mix), seed)
    sample_interval_s = float(params.get("sample_interval_s", 0.01))
    request_timeout_s = float(params.get("request_timeout_s", 120.0))
    t_start = time.perf_counter()

    def drive(sock: str) -> Any:
        return _drive_open_loop(
            sock, schedule, mix, config.time_scale,
            sample_interval_s, request_timeout_s, crash_at,
        )

    if socket_path is None:
        with tempfile.TemporaryDirectory(prefix="repro-loadtest-") as tmp:
            embedded = dataclasses.replace(
                config, socket_path=os.path.join(tmp, "svc.sock")
            )

            async def body() -> dict[str, Any]:
                daemon = TransferDaemon(embedded)
                ready = asyncio.Event()
                serve = asyncio.create_task(
                    daemon.serve(ready=ready, install_signals=False)
                )
                await asyncio.wait_for(ready.wait(), timeout=10)
                try:
                    raw = await drive(embedded.socket_path)
                finally:
                    daemon.request_drain()
                    await asyncio.wait_for(serve, timeout=60)
                raw["daemon_metrics"] = daemon.metrics.as_dict()
                raw["loop_restarts"] = daemon.supervisor.n_restarts
                raw["dead_loops"] = daemon.supervisor.dead_loops()
                return raw

            raw = asyncio.run(body())
    else:
        async def status() -> dict[str, Any]:
            client = await AsyncServiceClient.connect(socket_path)
            try:
                return (await client.request({"op": "status"}))["status"]
            finally:
                await client.close()

        async def body() -> dict[str, Any]:
            before = await status()
            raw = await drive(socket_path)
            after = await status()
            raw["daemon_metrics"] = {
                k: after["metrics"][k] - before["metrics"][k]
                for k in after["metrics"]
            }
            raw["loop_restarts"] = (
                after["health"]["n_restarts"] - before["health"]["n_restarts"]
            )
            raw["dead_loops"] = [
                name for name, loop in after["loops"].items() if loop["dead"]
            ]
            return raw

        raw = asyncio.run(body())

    wall_s = time.perf_counter() - t_start
    recorder = LatencyRecorder()
    counts, shed, paths, retry_after_max = _classify(
        raw["responses"], raw["latencies"], recorder
    )
    _check_daemon_ledger(counts, raw["daemon_metrics"])
    return _report_from_counts(
        mode="live",
        params=params,
        counts=counts,
        shed=shed,
        paths=paths,
        recorder=recorder,
        latency_domain="wall",
        duration_s=raw["duration_s"],
        wall_s=wall_s,
        outstanding_samples=raw["outstanding_samples"],
        # the bound comes from the daemon's own /status (works for
        # external daemons too); the configured limit if sampling missed
        outstanding_bound=int(raw["bound_seen"]) or config.queue_limit,
        retry_after_max_s=retry_after_max,
        time_scale=config.time_scale,
        loop_restarts=raw["loop_restarts"],
        dead_loops=raw["dead_loops"],
    )


# ---------------------------------------------------------------------------
# the deterministic twin (discrete-event, hand-cranked clock)


@dataclasses.dataclass
class _SimRequest:
    index: int
    tenant: str
    total_bytes: float
    budget: DeadlineBudget
    arrived_at: float


def run_loadtest_sim(
    params: Mapping[str, Any],
    seed: int,
    scheduler: "TransferScheduler | None" = None,
) -> LoadTestReport:
    """The load test as a deterministic discrete-event model.

    Replays the same seeded arrival schedule and request mix as
    :func:`run_loadtest` through a real
    :class:`~repro.sched.TransferScheduler` — admission, dispatch
    order, and the degradation ladder are *its* decisions (the default
    ``fcfs`` policy is the daemon's admission controller plus
    :func:`plan_path`, bit-exact with the pre-seam twin) — with service
    times from the batch-signalling cadence plus seeded jitter, on a
    hand-cranked virtual clock.  Free of real concurrency, so two runs
    with one seed and one policy produce *identical* reports (modulo
    ``wall_s``) — the regression anchor the Ext-U bench pins.

    Pass ``scheduler`` to drive a pre-built policy object (the
    prediction-error cost curve injects biased predictors this way);
    otherwise ``params["scheduler"]`` names the policy.
    """
    from ..sched.base import make_scheduler

    rng = np.random.default_rng(seed)
    schedule = build_schedule(params, rng)
    mix = RequestMix.from_params(params, rng)
    service_rng = np.random.default_rng(seed + 1)

    # the daemon this twin models, resolved exactly as the live driver's
    config = harness_config(params, seed)
    jitter_sigma = float(params.get("service_jitter_sigma", 0.1))
    reject_penalty_s = float(params.get("reject_penalty_s", 30.0))
    signalling = BatchSignalling(batch_window_s=config.batch_window_s)

    if scheduler is None:
        scheduler = make_scheduler(config.scheduler, config.scheduler_config())
    admission = scheduler.admission
    clock = [0.0]
    counts = {
        "n_offered": 0, "n_accepted": 0, "n_shed": 0, "n_invalid": 0,
        "n_succeeded": 0, "n_failed": 0, "n_expired": 0, "n_checkpointed": 0,
    }
    paths: dict[str, int] = {}
    recorder = LatencyRecorder()
    outstanding_samples: list[int] = []
    retry_after_max: float | None = None
    free_workers = config.workers
    bytes_moved = 0.0
    tenant_succeeded: dict[str, int] = {}

    t_start = time.perf_counter()
    events: list[tuple[float, int, str, Any]] = []
    seq = 0
    for i, t in enumerate(schedule):
        events.append((float(t), seq, "arrival", i))
        seq += 1
    heapq.heapify(events)

    def service_time(req: _SimRequest) -> tuple[float, str]:
        """One request's service seconds and the path it rides.

        The *path* is the scheduler's call (its degradation ladder at
        whatever rate model it keeps); the *service seconds* are the
        sim's ground truth — actual configured rates, signalling
        cadence, seeded jitter and flaps — so a policy that mispredicts
        pays for it in outcomes rather than bending physics.
        """
        now = clock[0]
        setup = max(signalling.ready_time(now) - now, 0.0)
        plan = scheduler.plan(req.budget, req.total_bytes, setup)
        jitter = float(np.exp(service_rng.normal(0.0, jitter_sigma)))
        if plan.choice is PathChoice.VC:
            rejected = (
                config.reject_prob > 0
                and service_rng.random() < config.reject_prob
            )
            if rejected:
                # reservation retries exhausted: routed-IP recovery
                ip_s = req.total_bytes * 8.0 / config.ip_rate_bps
                return (reject_penalty_s + ip_s * jitter,
                        PathChoice.IP_FALLBACK.value)
            vc_s = req.total_bytes * 8.0 / config.vc_rate_bps
            if config.flaps_per_hour > 0:
                n_flaps = int(service_rng.poisson(
                    config.flaps_per_hour * vc_s / 3600.0
                ))
                vc_s += n_flaps * config.flap_duration_s
            return setup + vc_s * jitter, PathChoice.VC.value
        ip_s = req.total_bytes * 8.0 / config.ip_rate_bps
        return ip_s * jitter, PathChoice.IP_DEGRADED.value

    def dispatch() -> None:
        nonlocal free_workers, seq
        while free_workers > 0 and scheduler.n_pending:
            req = scheduler.next_request()
            scheduler.on_start(req.tenant)
            free_workers -= 1
            svc, path = service_time(req)
            paths[path] = paths.get(path, 0) + 1
            heapq.heappush(
                events, (clock[0] + svc, seq, "done", (req, svc, path))
            )
            seq += 1

    while events:
        t, _, kind, payload = heapq.heappop(events)
        clock[0] = t
        if kind == "arrival":
            i = payload
            item = mix[i]
            counts["n_offered"] += 1
            decision = scheduler.admit(item["tenant"])
            if not decision.admitted:
                counts["n_shed"] += 1
                if decision.retry_after_s is not None:
                    retry_after_max = max(
                        retry_after_max or 0.0, decision.retry_after_s
                    )
            elif item["invalid"]:
                # mirrors the daemon: admitted, then refused at
                # validation with the slot handed straight back
                scheduler.on_settle(item["tenant"], started=False)
                counts["n_invalid"] += 1
            else:
                counts["n_accepted"] += 1
                scheduler.enqueue(_SimRequest(
                    index=i,
                    tenant=item["tenant"],
                    total_bytes=float(sum(item["file_sizes"])),
                    budget=DeadlineBudget(
                        item["deadline_s"], lambda: clock[0]
                    ),
                    arrived_at=t,
                ))
                dispatch()
        else:
            req, svc, path = payload
            free_workers += 1
            scheduler.on_settle(req.tenant, started=True)
            # the fixed daemon feeds *wall* execution seconds to the EWMA
            scheduler.note_service_s(svc / config.time_scale)
            # the policy sees what the ride achieved (observe never
            # draws RNG, so the seeded streams stay aligned)
            scheduler.observe(req.total_bytes, svc, path)
            if req.budget.expired:
                counts["n_expired"] += 1
            else:
                counts["n_succeeded"] += 1
                bytes_moved += req.total_bytes
                tenant_succeeded[req.tenant] = (
                    tenant_succeeded.get(req.tenant, 0) + 1
                )
            recorder.record(t - req.arrived_at)
            dispatch()
        outstanding_samples.append(admission.outstanding)

    wall_s = time.perf_counter() - t_start
    shed = {k: v for k, v in admission.shed.items() if v}
    duration = float(clock[0])
    return _report_from_counts(
        mode="sim",
        params=params,
        counts=counts,
        shed=shed,
        paths=paths,
        recorder=recorder,
        latency_domain="virtual",
        duration_s=duration,
        wall_s=wall_s,
        outstanding_samples=outstanding_samples,
        outstanding_bound=admission.queue_limit,
        retry_after_max_s=retry_after_max,
        time_scale=config.time_scale,
        scheduler=scheduler.name,
        bytes_moved=bytes_moved,
        tenant_succeeded=tenant_succeeded,
    )


# ---------------------------------------------------------------------------
# cross-cell analysis: latency vs offered rate


def latency_sweep_table(artifacts: Mapping[str, Any]) -> dict[str, Any]:
    """Per-offered-rate latency quantile table over load-test grids.

    ``artifacts`` maps dependency names to resolved ``ArtifactSet``
    objects — what the Runner hands the ``latency_sweep`` analysis
    scenario.  Every upstream cell that carries latency quantiles (any
    ``service_loadtest`` result) contributes one row keyed by its
    offered rate (the ``rate_per_s`` axis value) and scheduler, so a
    scheduler comparison reads its tail-latency curves straight from
    the report JSON instead of re-deriving them from raw cells.
    """
    rows: list[dict[str, Any]] = []
    for dep in sorted(artifacts):
        for artifact in artifacts[dep]:
            result = artifact.result
            if not isinstance(result, Mapping) or "latency_p50_s" not in result:
                continue
            rate = artifact.coords.get(
                "rate_per_s", artifact.params.get("rate_per_s")
            )
            if rate is None:
                continue
            rows.append(
                {
                    "source": dep,
                    "index": artifact.index,
                    "coords": dict(artifact.coords),
                    "rate_per_s": float(rate),
                    "scheduler": str(result.get("scheduler", "fcfs")),
                    "offered_rps": result.get("offered_rps"),
                    "shed_fraction": result.get("shed_fraction"),
                    "latency_p50_s": result.get("latency_p50_s"),
                    "latency_p95_s": result.get("latency_p95_s"),
                    "latency_p99_s": result.get("latency_p99_s"),
                }
            )
    if not rows:
        raise ValueError(
            "no upstream cell carries latency quantiles; point the "
            f"latency_sweep stage at service_loadtest grids "
            f"(needs resolved: {sorted(artifacts)})"
        )
    rows.sort(key=lambda r: (r["scheduler"], r["rate_per_s"], r["index"]))
    return {
        "n_cells": len(rows),
        "rates_per_s": sorted({r["rate_per_s"] for r in rows}),
        "schedulers": sorted({r["scheduler"] for r in rows}),
        "table": rows,
    }

"""The campaign runner: expand a spec, execute cells, collect results.

One :class:`Runner` drives every campaign family (chaos, profile,
mechanistic, SNMP, managed-service, synth) through the same pipeline:

1. expand the :class:`~repro.experiments.spec.ExperimentSpec` into cells
   with deterministic per-cell seeds;
2. satisfy what it can from the content-addressed
   :class:`~repro.experiments.cache.ResultCache` and, on a resumed run,
   from the :class:`~repro.experiments.checkpoint.CampaignCheckpoint`
   journal (which restores quarantined cells the cache never stores);
3. execute the rest through one ready-set loop that hands batches to an
   executor — in-process (``jobs == 1``), or a ``ProcessPoolExecutor``
   (``jobs > 1``) with a per-cell wall-clock timeout measured from
   *observed execution start* (workers stamp a shared start-time map),
   so a cell that merely queued behind a slow batch never burns its
   budget waiting;
4. quarantine failed cells (exception or timeout) as
   :class:`CellResult` errors instead of aborting the campaign, so one
   pathological grid point cannot cost you the other 99.  A timed-out
   cell's worker cannot be cancelled (``Future.cancel`` is a no-op once
   running), so the pool is recycled — hung workers are terminated and
   replaced — rather than letting one wedged cell serialize the
   remaining batches.  Cells a batch could not execute at all (the pool
   broke under them, or every worker slot wedged past budget before the
   queued cells could start) are resubmitted on the recycled pool, with
   a retry cap so a cell that keeps killing its workers is eventually
   quarantined instead of looping forever — every cell always settles.

SIGINT/SIGTERM are handled gracefully while a campaign runs: the first
signal stops new submissions, cancels not-yet-started futures, drains
the in-flight cells, flushes the checkpoint, and raises
:class:`CampaignInterrupted` (the CLI maps it to exit code 75,
``EX_TEMPFAIL`` — "try again").  A second signal aborts immediately.

Every cell result uniformly carries its wall-clock seconds; scenarios
that run the fluid simulator embed their
:class:`~repro.sim.probe.SimProbe` counters in the result payload, so
engine instrumentation flows into campaign reports for free.

Multi-stage pipelines ride the same machinery.  :meth:`Runner.run_pipeline`
executes a :class:`~repro.experiments.spec.PipelineSpec`: each stage's
``needs`` resolve to the upstream stages' (or external specs')
:class:`~repro.experiments.artifacts.ArtifactSet` objects, whose digests
fold into the stage's cell keys and checkpoint fingerprint — so a warm
re-run short-circuits entire stages through the cache, an upstream edit
re-keys (and therefore re-runs) exactly the stages downstream of it, and
a kill mid-stage resumes from that stage's own journal.

A flat campaign is a one-stage pipeline to the loop.  A stage becomes
runnable the moment the artifact digests of everything it ``needs``
settle, and each batch mixes pending cells from every open stage — so
under ``jobs > 1`` the two middle stages of a diamond execute their
cells side by side in shared batches instead of serializing stage by
stage.  Scheduling order never leaks into results: cell keys,
fingerprints, and artifacts are pure functions of the specs and
upstream digests, so any legal interleaving, at any ``jobs``, produces
byte-identical artifacts.  Per-stage checkpoints journal independently;
a drain signal flushes every open stage's journal and exits resumable.
A stage that settles with quarantined cells *cancels* its
artifact-consuming dependents (transitively) — their cells settle with
a one-line ``cancelled:`` reason instead of the loop raising
mid-flight, and stages that never needed the broken grid still run to
completion.

:meth:`Runner.dry_run` walks the same plan without executing anything;
:func:`plan_dag_summary` reduces a dry-run plan to the stage DAG's
critical path, width, and a predicted serial-vs-parallel cell schedule.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import multiprocessing
import os
import signal
import threading
import time
import traceback
import warnings
from collections.abc import Callable, Iterator
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from .artifacts import Artifact, ArtifactSet, keys_digest
from .cache import _CACHE_VERSION, ResultCache, cell_key
from .checkpoint import CampaignCheckpoint, spec_fingerprint
from .registry import get_scenario, scenario_needs_artifacts
from .spec import Cell, ExperimentSpec, PipelineSpec, load_spec

__all__ = [
    "CellResult",
    "CampaignResult",
    "CampaignInterrupted",
    "StagePlan",
    "PipelineResult",
    "PlanSummary",
    "plan_dag_summary",
    "Runner",
]

#: supervisor poll interval while watching a parallel batch
_POLL_S = 0.05

#: times a cell is resubmitted after a broken pool before assuming the
#: cell itself is what keeps killing the workers and quarantining it
_MAX_POOL_RETRIES = 2


def _worker_init() -> None:
    """Worker processes ignore SIGINT so a Ctrl-C (delivered to the whole
    process group) leaves in-flight cells drainable by the parent, and
    drop the parent's SIGTERM drain handler so a pool recycle's
    ``terminate()`` ends an idle worker quietly."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def _format_error(exc: BaseException) -> str:
    """The one-line quarantine reason for an exception."""
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _execute_cell(
    scenario: str,
    params: dict[str, Any],
    seed: int,
    start_times: Any = None,
    index: int | None = None,
    artifacts: dict[str, ArtifactSet] | None = None,
) -> tuple[Any, float, str | None]:
    """Run one cell; module-level so it pickles into worker processes.

    Returns ``(result, wall_s, error)``.  A scenario exception is caught
    here, where the cell ran, so a quarantined cell's ``wall_s`` is its
    own execution time under every executor — never the time it sat
    queued behind its batch-mates.

    ``start_times`` is an optional shared mapping the worker stamps with
    ``time.monotonic()`` at execution start — the supervisor's timeout
    clock starts there, not at submission.  ``artifacts`` are the
    resolved upstream sets an analysis scenario receives as its third
    argument (plain frozen dataclasses, so they pickle into workers).
    """
    if start_times is not None and index is not None:
        try:
            start_times[index] = time.monotonic()
        except Exception:  # a dead manager must not fail the cell
            pass
    t0 = time.perf_counter()
    try:
        fn = get_scenario(scenario)
        if scenario_needs_artifacts(scenario):
            result = fn(params, seed, artifacts or {})
        else:
            result = fn(params, seed)
    except Exception as exc:  # quarantine, keep the campaign alive
        return None, time.perf_counter() - t0, _format_error(exc)
    return result, time.perf_counter() - t0, None


@dataclasses.dataclass(frozen=True)
class CellResult:
    """Outcome of one grid point."""

    index: int
    coords: dict[str, Any]
    params: dict[str, Any]
    seed: int
    #: the scenario's return value; ``None`` for quarantined cells
    result: Any
    #: wall-clock seconds the scenario took (cached: the *original* wall)
    wall_s: float
    cached: bool = False
    #: quarantine reason ("TimeoutError: ..." / "ValueError: ..."), or None
    error: str | None = None
    #: the cell's content-addressed cache key (None when uncomputable)
    key: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclasses.dataclass(frozen=True)
class CampaignResult:
    """All cells of one campaign, in spec cell order."""

    spec: ExperimentSpec
    cells: tuple[CellResult, ...]
    #: end-to-end campaign wall clock, including cache traffic
    wall_s: float
    #: inputs-aware spec fingerprint (provenance identity of this run)
    fingerprint: str | None = None

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_cached(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.cells if not c.ok)

    @property
    def n_executed(self) -> int:
        return sum(1 for c in self.cells if not c.cached and c.ok)

    def results(self) -> list[Any]:
        """Cell results in grid order; raises if any cell is quarantined."""
        bad = [c for c in self.cells if not c.ok]
        if bad:
            raise RuntimeError(
                f"{len(bad)} quarantined cell(s); first: "
                f"cell {bad[0].index} {bad[0].coords}: {bad[0].error}"
            )
        return [c.result for c in self.cells]

    def artifact_set(self, name: str | None = None) -> ArtifactSet:
        """This campaign's cells as first-class artifacts, grid order.

        Raises if any cell is quarantined — a downstream consumer must
        never silently analyze a partial grid.
        """
        bad = [c for c in self.cells if not c.ok]
        if bad:
            raise RuntimeError(
                f"campaign '{self.spec.name}' has {len(bad)} quarantined "
                f"cell(s); first: cell {bad[0].index} {bad[0].coords}: "
                f"{bad[0].error}"
            )
        return ArtifactSet(
            name=name or self.spec.name,
            artifacts=tuple(
                Artifact(
                    scenario=self.spec.scenario,
                    params=c.params,
                    seed=c.seed,
                    key=c.key,
                    result=c.result,
                    wall_s=c.wall_s,
                    cache_version=_CACHE_VERSION,
                    spec_fingerprint=self.fingerprint,
                    spec_name=self.spec.name,
                    index=c.index,
                    coords=c.coords,
                    cached=c.cached,
                )
                for c in self.cells
            ),
        )

    def format(self) -> str:
        """Human-readable campaign summary (also what the CLI prints)."""
        axes = " x ".join(self.spec.axes) if self.spec.axes else "(no axes)"
        lines = [
            f"campaign '{self.spec.name}': scenario {self.spec.scenario}, "
            f"{self.n_cells} cell(s) over {axes}, seed {self.spec.seed} "
            f"({self.spec.seed_mode})"
        ]
        for c in self.cells:
            coords = " ".join(f"{k}={v}" for k, v in c.coords.items())
            status = "FAIL" if not c.ok else ("hit " if c.cached else "run ")
            tail = c.error if not c.ok else _summarize(c.result)
            lines.append(
                f"  [{c.index:>3}] {status} {c.wall_s:8.3f} s  {coords:<40} {tail}"
            )
        lines.append(
            f"cells: {self.n_cells} total, {self.n_executed} executed, "
            f"{self.n_cached} cached, {self.n_failed} failed; "
            f"wall {self.wall_s:.2f} s"
        )
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class StagePlan:
    """One stage of an expanded pipeline plan (:meth:`Runner.dry_run`).

    Everything here is computed without executing a single cell: keys
    and digests are pure functions of the specs, and the cache-hit
    census only checks artifact existence.
    """

    #: the key downstream stages resolve this stage under (a stage name,
    #: or an external spec reference exactly as written in ``needs``)
    name: str
    scenario: str
    needs: tuple[str, ...]
    #: inputs-aware fingerprint (checkpoint/provenance identity)
    fingerprint: str
    #: ordered cell keys (one per grid point)
    keys: tuple[str, ...]
    #: how many of those keys are already in the cache
    n_hits: int
    #: True for an external spec folded in as an implicit stage
    external: bool = False

    @property
    def n_cells(self) -> int:
        return len(self.keys)

    @property
    def n_to_execute(self) -> int:
        return self.n_cells - self.n_hits


@dataclasses.dataclass(frozen=True)
class PlanSummary:
    """The stage DAG's shape and predicted schedule, from a dry-run plan.

    Pure plan arithmetic — nothing executes.  ``depth`` assigns each
    stage its longest-path level (roots at 0); ``width`` is the largest
    set of stages sharing a level, i.e. how many stages the ready-set
    scheduler can have runnable at once.  The critical path maximizes
    *cells still to execute* along a dependency chain, so a fully
    cached branch never masquerades as the bottleneck.
    ``parallel_cells`` is the classic makespan lower bound
    ``max(critical_cells, ceil(serial_cells / jobs))`` under unit cell
    cost — what a perfect shared-pool schedule cannot beat.
    """

    #: stage name -> longest-path depth (roots at 0)
    depths: dict[str, int]
    #: max number of stages sharing one depth level
    width: int
    #: stage names along the heaviest to-execute chain, root first
    critical_path: tuple[str, ...]
    #: cells still to execute, summed over every stage (serial schedule)
    serial_cells: int
    #: cells still to execute along the critical path
    critical_cells: int
    #: makespan lower bound in cells for the given worker count
    parallel_cells: int
    #: worker count the parallel bound was computed for
    jobs: int

    @property
    def depth(self) -> int:
        return max(self.depths.values(), default=-1) + 1

    def format(self) -> str:
        path = " -> ".join(self.critical_path) if self.critical_path else "(empty)"
        lines = [
            f"stage DAG: depth {self.depth}, width {self.width} "
            f"(max concurrently-runnable stages)",
            f"critical path: {path}  ({self.critical_cells} cell(s) to execute)",
            f"schedule: serial {self.serial_cells} cell(s); "
            f"parallel >= {self.parallel_cells} cell-round(s) "
            f"at {self.jobs} job(s)",
        ]
        return "\n".join(lines)


def plan_dag_summary(plans: list[StagePlan], jobs: int = 1) -> PlanSummary:
    """Reduce a :meth:`Runner.dry_run` plan to its DAG schedule summary."""
    by_name = {p.name: p for p in plans}
    depths: dict[str, int] = {}
    best_chain: dict[str, tuple[int, tuple[str, ...]]] = {}

    def visit(name: str) -> tuple[int, tuple[int, tuple[str, ...]]]:
        if name in depths:
            return depths[name], best_chain[name]
        plan = by_name[name]
        depth = 0
        chain_cells, chain = plan.n_to_execute, (name,)
        for need in plan.needs:
            nd, (nc, npath) = visit(need)
            depth = max(depth, nd + 1)
            if nc + plan.n_to_execute > chain_cells:
                chain_cells = nc + plan.n_to_execute
                chain = npath + (name,)
        depths[name] = depth
        best_chain[name] = (chain_cells, chain)
        return depth, best_chain[name]

    for plan in plans:
        visit(plan.name)
    level_sizes: dict[int, int] = {}
    for depth in depths.values():
        level_sizes[depth] = level_sizes.get(depth, 0) + 1
    serial = sum(p.n_to_execute for p in plans)
    critical_cells, critical_path = max(
        best_chain.values(), default=(0, ())
    )
    jobs = max(int(jobs), 1)
    parallel = max(critical_cells, -(-serial // jobs))
    return PlanSummary(
        depths=depths,
        width=max(level_sizes.values(), default=0),
        critical_path=critical_path,
        serial_cells=serial,
        critical_cells=critical_cells,
        parallel_cells=parallel,
        jobs=jobs,
    )


@dataclasses.dataclass(frozen=True)
class PipelineResult:
    """Every stage of one pipeline run, in plan order.

    ``stages`` maps each stage's resolution key — a stage name, or an
    external spec reference as written in ``needs`` — to its
    :class:`CampaignResult`; insertion order is the deterministic plan
    order (externals first, then topological stage order), regardless
    of how the execution loop interleaved the stages' cells.
    """

    pipeline: PipelineSpec
    stages: dict[str, CampaignResult]
    #: end-to-end pipeline wall clock, including cache traffic
    wall_s: float

    def stage(self, name: str) -> CampaignResult:
        try:
            return self.stages[name]
        except KeyError:
            raise KeyError(
                f"no stage {name!r} in pipeline {self.pipeline.name!r}; "
                f"ran: {list(self.stages)}"
            ) from None

    @property
    def n_cells(self) -> int:
        return sum(c.n_cells for c in self.stages.values())

    @property
    def n_cached(self) -> int:
        return sum(c.n_cached for c in self.stages.values())

    @property
    def n_failed(self) -> int:
        return sum(c.n_failed for c in self.stages.values())

    @property
    def n_executed(self) -> int:
        return sum(c.n_executed for c in self.stages.values())

    def format(self) -> str:
        """Per-stage summary (also what the CLI prints for pipelines)."""
        lines = [
            f"pipeline '{self.pipeline.name}': "
            f"{len(self.stages)} stage(s), {self.n_cells} cell(s)"
        ]
        for name, campaign in self.stages.items():
            lines.append(
                f"  stage '{name}' [{campaign.spec.scenario}]: "
                f"{campaign.n_cells} total, {campaign.n_executed} executed, "
                f"{campaign.n_cached} cached, {campaign.n_failed} failed; "
                f"wall {campaign.wall_s:.2f} s"
            )
        lines.append(
            f"pipeline cells: {self.n_cells} total, "
            f"{self.n_executed} executed, {self.n_cached} cached, "
            f"{self.n_failed} failed; wall {self.wall_s:.2f} s"
        )
        return "\n".join(lines)


class CampaignInterrupted(RuntimeError):
    """A campaign stopped on SIGINT/SIGTERM after draining in-flight cells.

    The run is *resumable*: settled cells live in the cache, quarantined
    cells and the batch frontier live in the checkpoint journal, and
    re-running the same spec against the same cache/checkpoint executes
    only what never finished.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        signum: int,
        n_cells: int,
        n_settled: int,
        n_executed: int,
        n_cached: int,
        n_failed: int,
        checkpoint_path: os.PathLike | str | None,
    ) -> None:
        self.spec = spec
        self.signum = signum
        self.n_cells = n_cells
        self.n_settled = n_settled
        self.n_executed = n_executed
        self.n_cached = n_cached
        self.n_failed = n_failed
        self.checkpoint_path = checkpoint_path
        try:
            signame = signal.Signals(signum).name
        except ValueError:  # pragma: no cover - exotic signum
            signame = str(signum)
        where = (
            f"; checkpoint at {checkpoint_path}" if checkpoint_path else ""
        )
        super().__init__(
            f"campaign '{spec.name}' interrupted by {signame}: "
            f"{n_settled}/{n_cells} cells settled "
            f"({n_executed} executed, {n_cached} cached, {n_failed} failed)"
            f"{where}; re-run with the same spec and cache to resume"
        )


class _SignalDrain:
    """Context manager that converts SIGINT/SIGTERM into a drain flag.

    First signal: remember it and let the runner drain gracefully.
    Second signal: the user really means it — raise ``KeyboardInterrupt``
    from the handler for an immediate (non-resumable-beyond-the-cache)
    exit.  Handlers only install from the main thread; elsewhere the
    drain flag simply never fires.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.signum: int | None = None
        self._previous: dict[int, Any] = {}

    @property
    def triggered(self) -> bool:
        return self.signum is not None

    def _handle(self, signum: int, frame: Any) -> None:
        if self.signum is not None:
            raise KeyboardInterrupt
        self.signum = signum

    def __enter__(self) -> "_SignalDrain":
        if threading.current_thread() is threading.main_thread():
            for sig in self.SIGNALS:
                try:
                    self._previous[sig] = signal.signal(sig, self._handle)
                except (ValueError, OSError):  # pragma: no cover
                    pass
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for sig, handler in self._previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass


def _summarize(result: Any, limit: int = 4) -> str:
    """First few scalar fields of a result dict, for the per-cell line."""
    if not isinstance(result, dict):
        return ""
    parts = []
    for key in sorted(result):
        value = result[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        parts.append(f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}")
        if len(parts) == limit:
            break
    return " ".join(parts)


@dataclasses.dataclass
class _StageRun:
    """One campaign's mutable state inside the execution loop.

    :meth:`Runner.run` drives a single one of these; a pipeline drives
    one per stage.  Everything after ``needs`` is filled in when the
    stage opens (:meth:`Runner._open`).
    """

    key: str
    spec: ExperimentSpec
    needs: tuple[str, ...] = ()
    #: dependency name -> resolved upstream set (analysis scenarios only)
    artifacts: dict[str, ArtifactSet] | None = None
    #: dependency name -> upstream set digest (participates in cell keys)
    digests: dict[str, str] | None = None
    fingerprint: str | None = None
    ckpt: CampaignCheckpoint | None = None
    cells: list[Cell] = dataclasses.field(default_factory=list)
    settled: dict[int, CellResult] = dataclasses.field(default_factory=dict)
    #: resolved cells not yet dispatched, in grid order
    pending: list[tuple[Cell, str | None]] = dataclasses.field(default_factory=list)
    t0: float = 0.0
    #: set once the stage's needs settled and its cells were resolved
    opened: bool = False
    #: final result; also set (with all-cancelled cells) on cancellation
    campaign: CampaignResult | None = None

    @property
    def finished(self) -> bool:
        return self.campaign is not None


@dataclasses.dataclass
class _Task:
    """One dispatchable cell bound to its stage.

    A batch can mix cells from several pipeline stages: each task
    settles into its own stage's result map and checkpoint journal.
    ``token`` is unique across the whole run — a pool worker stamps
    execution start under it in the shared map, so equal cell indices
    from sibling stages can never collide.
    """

    run: _StageRun
    cell: Cell
    key: str | None
    token: int


class Runner:
    """Execute campaigns: in-process or process-parallel, cached, resumable.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (default) runs cells in-process.  The
        pool is *run-wide*: for pipelines, cells from every runnable
        stage share it, so sibling stages of a diamond run side by side.
    cache:
        A :class:`ResultCache` to consult before and fill after each
        cell; ``None`` disables caching.
    cell_timeout_s:
        Per-cell wall-clock budget (``jobs > 1`` only — an in-process
        cell has no supervisor to interrupt it), measured from the
        cell's observed execution start, not its submission; overruns
        quarantine the cell and the wedged worker is terminated when
        the pool recycles.
    chunk_size:
        Cells per worker per batch: each batch holds ``jobs *
        chunk_size`` cells and is journaled as the in-flight frontier
        before it runs.  Batches bound how much work is in flight, so a
        campaign killed mid-run has cached everything completed rather
        than nothing.
    checkpoint_dir:
        Directory for :class:`CampaignCheckpoint` journals; ``None``
        disables checkpointing.  With a journal, a killed run restarted
        with the same spec (and cache) resumes mid-batch: cached cells
        come back as hits, quarantined cells are restored verbatim, and
        only genuinely unfinished cells execute.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        cell_timeout_s: float | None = None,
        chunk_size: int = 4,
        checkpoint_dir: str | os.PathLike | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.cell_timeout_s = cell_timeout_s
        self.chunk_size = chunk_size
        self.checkpoint_dir = checkpoint_dir
        #: optional scheduling-order hook for the execution loop: called
        #: with the candidate list of ``(stage_key, cell_index)`` pairs
        #: (plan order) before each batch is cut; returns the pairs in
        #: the order to dispatch.  Exists so tests can force arbitrary
        #: legal interleavings and pin that results never depend on one.
        self.schedule_hook = None
        #: monotonically increasing task token source (uniqueness only)
        self._next_token = 0

    def run(
        self,
        spec: ExperimentSpec,
        force: bool = False,
        inputs: dict[str, ArtifactSet] | None = None,
    ) -> CampaignResult:
        """Expand ``spec`` and settle every cell; never raises per-cell.

        ``force=True`` skips cache lookups and checkpoint restore
        (results still get stored).  ``inputs`` are the resolved
        upstream artifact sets an analysis scenario consumes (dependency
        name -> :class:`ArtifactSet`); their digests fold into every
        cell key and into the campaign's fingerprint, so changing
        anything upstream re-keys (and re-runs) this campaign while a
        byte-identical upstream resolves straight from the cache.
        Raises :class:`CampaignInterrupted` if a SIGINT/SIGTERM arrived;
        everything settled up to that point is journaled/cached for
        resume.
        """
        stage = _StageRun(key=spec.name, spec=spec)
        self._open(stage, force, inputs)
        self._schedule({stage.key: stage}, lambda: None, self._finish)
        return stage.campaign

    def _open(
        self,
        run: _StageRun,
        force: bool,
        inputs: dict[str, ArtifactSet] | None,
    ) -> None:
        """Resolve one campaign up to (but not into) execution.

        Validates the scenario signature, folds upstream digests into
        the stage, loads/restores the checkpoint journal, satisfies
        cache hits, and leaves the still-pending cells in
        ``run.pending``.
        """
        run.t0 = time.perf_counter()
        spec = run.spec
        get_scenario(spec.scenario)  # fail fast on unknown scenarios
        if scenario_needs_artifacts(spec.scenario):
            if inputs is None:
                raise ValueError(
                    f"scenario {spec.scenario!r} consumes upstream artifacts; "
                    "run it as a pipeline stage with needs=[...] (or pass "
                    "inputs= explicitly)"
                )
        elif inputs is not None:
            raise ValueError(
                f"scenario {spec.scenario!r} takes no upstream artifacts "
                "but inputs were supplied; register it with "
                "needs_artifacts=True or drop the stage's needs"
            )
        run.digests = (
            {name: aset.digest for name, aset in sorted(inputs.items())}
            if inputs
            else None
        )
        run.artifacts = dict(inputs) if inputs else None
        run.fingerprint = spec_fingerprint(spec, inputs=run.digests)
        run.cells = spec.cells()
        if self.checkpoint_dir is not None:
            run.ckpt = CampaignCheckpoint.for_spec(
                self.checkpoint_dir, spec, inputs=run.digests
            )
            if not force:
                run.ckpt.load()
        for cell in run.cells:
            key = self._key_for(run, cell)
            if not force and run.ckpt is not None:
                entry = run.ckpt.settled.get(cell.index)
                if entry is not None and entry.error is not None:
                    # quarantined cells are never cached; restore them
                    # verbatim so the resumed campaign reports exactly
                    # what the uninterrupted one would
                    run.settled[cell.index] = CellResult(
                        index=cell.index,
                        coords=cell.coords,
                        params=cell.params,
                        seed=cell.seed,
                        result=None,
                        wall_s=entry.wall_s,
                        error=entry.error,
                        key=key,
                    )
                    continue
            hit = (
                self.cache.get(key)
                if (self.cache is not None and key is not None and not force)
                else None
            )
            if hit is not None:
                run.settled[cell.index] = CellResult(
                    index=cell.index,
                    coords=cell.coords,
                    params=cell.params,
                    seed=cell.seed,
                    result=hit["result"],
                    wall_s=float(hit["wall_s"]),
                    cached=True,
                    key=key,
                )
            else:
                run.pending.append((cell, key))
        run.opened = True

    def _finish(self, run: _StageRun) -> None:
        """Seal a fully-settled stage into its :class:`CampaignResult`."""
        if run.ckpt is not None:
            run.ckpt.complete()
        run.campaign = CampaignResult(
            spec=run.spec,
            cells=tuple(run.settled[c.index] for c in run.cells),
            wall_s=time.perf_counter() - run.t0,
            fingerprint=run.fingerprint,
        )

    def _key_for(self, run: _StageRun, cell: Cell) -> str | None:
        """The cell's content address, or None when it has no identity.

        With a cache attached the key *must* compute — a spec whose
        params cannot be content-addressed cannot be cached, and the
        historical behaviour is to raise.  Without a cache the key is
        still computed when possible (downstream digests need it), but a
        programmatic spec with non-JSON-safe params degrades to None
        instead of failing a run that never asked for caching.
        """
        if self.cache is not None:
            return cell_key(
                run.spec.scenario, cell.params, cell.seed, inputs=run.digests
            )
        try:
            return cell_key(
                run.spec.scenario, cell.params, cell.seed, inputs=run.digests
            )
        except (TypeError, ValueError):
            return None

    # -- the execution loop ------------------------------------------------

    def _schedule(
        self,
        runs: dict[str, _StageRun],
        open_ready: Callable[[], None],
        finalize: Callable[[_StageRun], None],
    ) -> None:
        """The runner's one execution loop: ready-set batches to an executor.

        Every iteration gathers pending cells from *all* open stages in
        plan order, cuts one (possibly mixed) batch, and hands it to the
        executor.  Between batches, stages whose cells all settled are
        sealed through ``finalize`` and ``open_ready`` opens whatever
        that unblocked, to a fixpoint — so stage completion,
        cancellation, and the requeue/recycle machinery all happen with
        no batch in flight, and the loop state is single-threaded.
        """

        def advance() -> bool:
            while True:
                open_ready()
                done = [
                    r for r in runs.values()
                    if r.opened and not r.finished
                    and len(r.settled) == len(r.cells)
                ]
                if not done:
                    return all(r.finished for r in runs.values())
                for run in done:
                    finalize(run)

        with _SignalDrain() as drain, self._executor(drain) as execute:
            while not advance():
                if drain.triggered:
                    raise self._drained(runs, drain)
                for task in execute(self._next_batch(runs)):
                    task.run.pending.insert(0, (task.cell, task.key))
                if drain.triggered:
                    raise self._drained(runs, drain)

    def _next_batch(self, runs: dict[str, _StageRun]) -> list[_Task]:
        """Cut the next batch from every open stage; journal its frontier."""
        # candidate cells from every open stage, plan order; the hook
        # (tests) may permute them — any legal interleaving must produce
        # identical results
        by_id: dict[tuple[str, int], tuple[_StageRun, Cell, str | None]] = {}
        for run in runs.values():
            if run.opened and not run.finished:
                for cell, key in run.pending:
                    by_id[(run.key, cell.index)] = (run, cell, key)
        order = list(by_id)
        if self.schedule_hook is not None:
            order = [tuple(p) for p in self.schedule_hook(list(order))]
        if not order:
            raise RuntimeError(
                "internal error: execution loop stalled with unfinished "
                "stages and no dispatchable cells"
            )
        tasks: list[_Task] = []
        taken: dict[str, set[int]] = {}
        for stage_key, index in order[: self.jobs * self.chunk_size]:
            run, cell, key = by_id[(stage_key, index)]
            taken.setdefault(stage_key, set()).add(index)
            self._next_token += 1
            tasks.append(_Task(run, cell, key, token=self._next_token))
        for stage_key, indices in taken.items():
            run = runs[stage_key]
            run.pending = [(c, k) for c, k in run.pending if c.index not in indices]
            if run.ckpt is not None:
                run.ckpt.begin_batch(sorted(indices))
        return tasks

    @staticmethod
    def _drained(
        runs: dict[str, _StageRun], drain: _SignalDrain
    ) -> CampaignInterrupted:
        """Flush every open journal; report the first in-flight stage.

        Plan order is topological and a stage opens once its needs
        finish, so while any stage is unfinished some stage is open.
        """
        live = [r for r in runs.values() if r.opened and not r.finished]
        for run in live:
            if run.ckpt is not None:
                run.ckpt.flush()
        run = live[0]
        settled = run.settled.values()
        return CampaignInterrupted(
            run.spec,
            drain.signum,
            n_cells=len(run.cells),
            n_settled=len(run.settled),
            n_executed=sum(1 for c in settled if c.ok and not c.cached),
            n_cached=sum(1 for c in settled if c.cached),
            n_failed=sum(1 for c in settled if not c.ok),
            checkpoint_path=run.ckpt.path if run.ckpt is not None else None,
        )

    # -- executors ---------------------------------------------------------

    @contextlib.contextmanager
    def _executor(
        self, drain: _SignalDrain
    ) -> Iterator[Callable[[list[_Task]], list[_Task]]]:
        """Yield the batch executor; the one place ``jobs`` is consulted.

        An executor settles what it can of one batch and returns the
        tasks to put back in the queue.  ``jobs == 1`` runs each cell
        in-process and stops between cells at a drain signal.  ``jobs >
        1`` runs batches on one worker pool for the whole run: it owns
        the pool, the start-time map workers stamp (with a per-cell
        timeout), the per-cell broken-pool retry counts, and the pool
        recycle after a hung or broken batch.  Pool and manager start
        at the first batch, so a fully cached run spawns no process.
        """
        if self.jobs == 1:

            def inline(tasks: list[_Task]) -> list[_Task]:
                for task in tasks:
                    if drain.triggered:
                        break
                    self._settle(
                        task,
                        *_execute_cell(
                            task.run.spec.scenario,
                            task.cell.params,
                            task.cell.seed,
                            artifacts=task.run.artifacts,
                        ),
                    )
                return []

            yield inline
            return

        pool: concurrent.futures.ProcessPoolExecutor | None = None
        manager = None
        start_times = None
        pool_retries: dict[tuple[str, int], int] = {}
        recycle = False

        def pooled(tasks: list[_Task]) -> list[_Task]:
            nonlocal pool, manager, start_times, recycle
            if manager is None and self.cell_timeout_s is not None:
                # workers stamp execution start here; the supervisor's
                # timeout clock starts at the stamp, not at submission
                manager = multiprocessing.Manager()
                start_times = manager.dict()
            if recycle:
                # Future.cancel() is a no-op once running: a hung cell
                # would silently hold its pool slot for the rest of the
                # run.  Recycle instead.
                self._kill_pool(pool)
                pool = None
            if pool is None:
                pool = self._new_pool()
            hung, broken, unfinished = self._drain_batch(
                pool, tasks, drain, start_times
            )
            recycle = bool(hung or broken)
            if drain.triggered:
                # unfinished cells stay journaled for resume
                return []
            return self._requeue(unfinished, broken, pool_retries)

        try:
            yield pooled
        finally:
            if pool is not None:
                self._kill_pool(pool)
            if manager is not None:
                manager.shutdown()

    def _settle(
        self,
        task: _Task,
        result: Any,
        wall_s: float,
        error: str | None,
    ) -> None:
        run, cell, key = task.run, task.cell, task.key
        if error is None and key is not None and self.cache is not None:
            try:
                self.cache.put(
                    key,
                    run.spec.scenario,
                    cell.params,
                    cell.seed,
                    result,
                    wall_s,
                    inputs=run.digests,
                    provenance={
                        "spec_fingerprint": run.fingerprint,
                        "spec_name": run.spec.name,
                        "index": cell.index,
                        "coords": cell.coords,
                    },
                )
            except (ValueError, OSError) as exc:
                # an uncacheable result (non-finite floats, or the tmp
                # file lost to a concurrent prune/full disk) is still a
                # valid in-memory result; warn and carry on uncached
                warnings.warn(
                    f"cell {cell.index} not cached: {exc}",
                    RuntimeWarning,
                    stacklevel=4,
                )
        run.settled[cell.index] = CellResult(
            index=cell.index,
            coords=cell.coords,
            params=cell.params,
            seed=cell.seed,
            result=result,
            wall_s=wall_s,
            error=error,
            key=key,
        )
        if run.ckpt is not None:
            run.ckpt.record(cell.index, key, error, wall_s)

    def _requeue(
        self,
        unfinished: list[_Task],
        broken: bool,
        pool_retries: dict[tuple[str, int], int],
    ) -> list[_Task]:
        """Decide each unexecuted task's fate: retry or quarantine.

        Cells the batch could not execute (pool broke under them, or
        every worker slot was wedged) go back for the recycled pool —
        capped per cell, so one that keeps killing its workers is
        quarantined instead of looping forever.  Retries are counted
        per ``(stage, index)``, which stays stable across the fresh
        tokens each resubmission mints.
        """
        retry: list[_Task] = []
        for task in unfinished:
            rid = (task.run.key, task.cell.index)
            if broken:
                pool_retries[rid] = pool_retries.get(rid, 0) + 1
            if pool_retries.get(rid, 0) > _MAX_POOL_RETRIES:
                self._settle(
                    task,
                    None,
                    0.0,
                    "BrokenProcessPool: worker pool broke "
                    f"{pool_retries[rid]} times with this "
                    "cell in flight (does the scenario kill or "
                    "exit its worker process?)",
                )
            else:
                retry.append(task)
        return retry

    def _drain_batch(
        self,
        pool: concurrent.futures.ProcessPoolExecutor,
        tasks: list[_Task],
        drain: _SignalDrain,
        start_times: Any,
    ) -> tuple[
        list[concurrent.futures.Future],
        bool,
        list[_Task],
    ]:
        """Submit one batch of tasks and settle every future.

        Tasks may come from several pipeline stages — each settles into
        its own stage's result map and checkpoint journal.  Returns
        ``(hung, broken, unfinished)``: futures abandoned past their
        budget with the worker still running; whether the pool itself
        broke; and tasks this batch could not execute — the pool broke
        before/under them, or every worker slot was wedged past budget
        so a queued cell could never start.  The caller resubmits
        unfinished tasks on a recycled pool, so every cell is
        eventually settled.  A drain signal mid-batch cancels
        not-yet-started futures (they stay unfinished, for resume) and
        waits out the running ones.
        """
        futmap: dict[concurrent.futures.Future, tuple[_Task, float]] = {}
        unfinished: list[_Task] = []
        try:
            for task in tasks:
                fut = pool.submit(
                    _execute_cell,
                    task.run.spec.scenario,
                    task.cell.params,
                    task.cell.seed,
                    start_times,
                    task.token,
                    task.run.artifacts,
                )
                futmap[fut] = (task, time.perf_counter())
        except BrokenProcessPool:
            # the pool died mid-submission: salvage futures that still
            # settled, hand everything else back for resubmission
            submitted = {task.token for task, _ in futmap.values()}
            unfinished.extend(t for t in tasks if t.token not in submitted)
            self._salvage(futmap, unfinished)
            return [], True, unfinished

        pending_futs = set(futmap)
        hung: list[concurrent.futures.Future] = []
        broken = False
        drained = False
        while pending_futs:
            if drain.triggered and not drained:
                drained = True
                for fut in list(pending_futs):
                    if fut.cancel():  # never started: leave unfinished
                        pending_futs.discard(fut)
            done, pending_futs = concurrent.futures.wait(
                pending_futs,
                timeout=_POLL_S,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            for fut in done:
                task, submitted = futmap[fut]
                try:
                    result, wall, error = fut.result()
                except concurrent.futures.CancelledError:
                    continue
                except BrokenProcessPool:
                    broken = True
                    if drain.triggered:
                        # the signal (e.g. group-delivered SIGINT) took
                        # the workers down; the cell never finished —
                        # leave it unsettled so a resume re-runs it
                        continue
                    # the cell may be innocent (a batch-mate killed the
                    # pool): resubmit on the recycled pool rather than
                    # quarantining it outright; the caller's retry cap
                    # catches the actual worker-killer
                    unfinished.append(task)
                    continue
                except Exception as exc:  # transport, e.g. unpicklable result
                    result, wall = None, time.perf_counter() - submitted
                    error = _format_error(exc)
                self._settle(task, result, wall, error)
            if self.cell_timeout_s is not None and pending_futs:
                now = time.monotonic()
                for fut in list(pending_futs):
                    task, _ = futmap[fut]
                    begun = None
                    if start_times is not None:
                        try:
                            begun = start_times.get(task.token)
                        except Exception:  # pragma: no cover - dead manager
                            begun = None
                    if begun is not None and now - begun > self.cell_timeout_s:
                        pending_futs.discard(fut)
                        hung.append(fut)
                        self._settle(
                            task,
                            None,
                            self.cell_timeout_s,
                            f"TimeoutError: cell exceeded "
                            f"{self.cell_timeout_s:.1f} s budget",
                        )
                if pending_futs and sum(
                    1 for f in hung if f.running()
                ) >= self.jobs:
                    # every worker slot is wedged past budget: a queued
                    # future can never start, never stamp, and never
                    # time out — this drain would spin forever (or wait
                    # out the hung sleeps).  Pull every cell that has
                    # not stamped an execution start back for the
                    # recycled pool; cancel() alone is not enough, the
                    # pool marks call-queue-buffered futures RUNNING
                    # even though no worker will ever pick them up.
                    for fut in list(pending_futs):
                        task, _ = futmap[fut]
                        begun = None
                        if start_times is not None:
                            try:
                                begun = start_times.get(task.token)
                            except Exception:  # pragma: no cover
                                begun = None
                        if begun is None:
                            fut.cancel()  # best effort; pool dies anyway
                            pending_futs.discard(fut)
                            unfinished.append(task)
        return [f for f in hung if f.running()], broken, unfinished

    def _salvage(
        self,
        futmap: dict[concurrent.futures.Future, tuple[_Task, float]],
        unfinished: list[_Task],
    ) -> None:
        """After a pool break, settle what finished; queue the rest.

        A future that completed before the break still holds its result
        (or its quarantined scenario error, settled as usual); anything
        cancelled, failed-by-the-break, or still nominally pending is
        appended to ``unfinished`` for resubmission.
        """
        for fut, (task, submitted) in futmap.items():
            if not fut.done():
                unfinished.append(task)
                continue
            try:
                result, wall, error = fut.result(timeout=0)
            except (
                concurrent.futures.CancelledError,
                concurrent.futures.TimeoutError,
                BrokenProcessPool,
            ):
                unfinished.append(task)
                continue
            except Exception as exc:  # transport, e.g. unpicklable result
                result, wall = None, time.perf_counter() - submitted
                error = _format_error(exc)
            self._settle(task, result, wall, error)

    # -- pipelines ---------------------------------------------------------

    def run_pipeline(
        self, pipeline: PipelineSpec, force: bool = False
    ) -> PipelineResult:
        """Execute every stage of ``pipeline``, respecting the stage DAG.

        External spec references in ``needs`` are loaded and folded in
        as implicit stages ahead of the pipeline's own — their cells are
        content-addressed exactly like a direct run of that spec, so a
        grid another spec already computed resolves entirely from the
        cache with zero recomputation.  Each stage short-circuits
        through the cache independently; a stage whose upstream is
        unchanged and whose own cells are cached executes nothing.

        Every stage rides the one execution loop: a stage opens the
        moment the artifact digests it needs settle, and batches mix
        cells from every open stage — under ``jobs > 1`` sibling stages
        share the worker pool side by side.

        A stage that settles with quarantined cells *cancels* its
        artifact-consuming dependents (transitively): their cells settle
        with a ``cancelled: needed stage ...`` reason instead of the
        pipeline raising — an analysis never silently reads a partial
        grid, and unrelated branches still run to completion.  Stages
        whose ``needs`` only order execution are not cancelled.  A
        SIGINT/SIGTERM surfaces as :class:`CampaignInterrupted` from an
        in-flight stage; re-running the pipeline resumes there (earlier
        stages come back as hits).
        """
        t0 = time.perf_counter()
        runs = {
            key: _StageRun(key=key, spec=spec, needs=needs)
            for key, spec, needs, _external in self._pipeline_plan(pipeline)
        }
        sets: dict[str, ArtifactSet] = {}
        #: stage key -> why consumers of it must cancel
        failed: dict[str, str] = {}
        self._schedule(
            runs,
            lambda: self._open_ready_stages(runs, sets, failed, force),
            lambda run: self._finalize_stage(pipeline, run, sets, failed),
        )
        return PipelineResult(
            pipeline=pipeline,
            stages={key: run.campaign for key, run in runs.items()},
            wall_s=time.perf_counter() - t0,
        )

    @staticmethod
    def _cancelled_campaign(
        spec: ExperimentSpec, blocker: str, reason: str
    ) -> CampaignResult:
        """Settle every cell of a stage as cancelled, executing nothing.

        Cancelled cells carry ``key=None`` and the campaign no
        fingerprint: the stage's inputs never materialized, so it has no
        provenance identity — nothing lands in cache or checkpoint, and
        a re-run after fixing the upstream executes it from scratch.
        """
        error = f"cancelled: needed stage '{blocker}' {reason}"
        cells = tuple(
            CellResult(
                index=c.index,
                coords=c.coords,
                params=c.params,
                seed=c.seed,
                result=None,
                wall_s=0.0,
                error=error,
                key=None,
            )
            for c in spec.cells()
        )
        return CampaignResult(
            spec=spec, cells=cells, wall_s=0.0, fingerprint=None
        )

    def _open_ready_stages(
        self,
        runs: dict[str, _StageRun],
        sets: dict[str, ArtifactSet],
        failed: dict[str, str],
        force: bool,
    ) -> None:
        """Open every stage whose needs settled; cancel the doomed ones.

        One pass in plan order suffices — the plan is topological, so a
        cancellation reaches its dependents within the pass — and the
        loop calls back after sealing stages, which may unblock more.
        A consumer cancels as soon as *any* needed stage is in
        ``failed`` — it never waits for its other needs, so a broken
        grid propagates promptly instead of starving dependents.
        """
        for run in runs.values():
            if run.finished or run.opened:
                continue
            consumes = scenario_needs_artifacts(run.spec.scenario)
            blocker = (
                next((n for n in run.needs if n in failed), None)
                if consumes
                else None
            )
            if blocker is not None:
                run.campaign = self._cancelled_campaign(
                    run.spec, blocker, failed[blocker]
                )
                failed[run.key] = "was cancelled"
                continue
            if any(not runs[n].finished for n in run.needs):
                continue
            # needs on a plain scenario only order the stage; the sets
            # (and the digest folding) are for artifact consumers
            inputs = (
                {n: sets[n] for n in run.needs}
                if run.needs and consumes
                else None
            )
            self._open(run, force, inputs)

    def _finalize_stage(
        self,
        pipeline: PipelineSpec,
        run: _StageRun,
        sets: dict[str, ArtifactSet],
        failed: dict[str, str],
    ) -> None:
        """Seal a fully-settled stage and publish its artifacts/verdict."""
        self._finish(run)
        if run.campaign.n_failed:
            failed[run.key] = (
                f"settled with {run.campaign.n_failed} quarantined cell(s)"
            )
        elif self._is_needed(pipeline, run.key):
            sets[run.key] = run.campaign.artifact_set(name=run.key)

    def dry_run(
        self, target: ExperimentSpec | PipelineSpec
    ) -> list[StagePlan]:
        """Expand a spec or pipeline without executing a single cell.

        Returns one :class:`StagePlan` per stage in execution order,
        with the stage's cell keys, inputs-aware fingerprint, and a
        cache-hit census.  Downstream keys are computed from upstream
        *digests*, which are pure functions of the upstream keys — so
        the plan is exact, not an estimate: a subsequent real run
        executes precisely the cells reported missing here.
        """
        if isinstance(target, ExperimentSpec):
            target = PipelineSpec.wrap(target)
        out: list[StagePlan] = []
        digests: dict[str, str] = {}
        for key, spec, needs, external in self._pipeline_plan(target):
            stage_inputs = (
                {need: digests[need] for need in sorted(needs)}
                if needs and scenario_needs_artifacts(spec.scenario)
                else None
            )
            keys = tuple(
                cell_key(spec.scenario, c.params, c.seed, inputs=stage_inputs)
                for c in spec.cells()
            )
            digests[key] = keys_digest(keys)
            n_hits = (
                sum(1 for k in keys if self.cache.path_for(k).is_file())
                if self.cache is not None
                else 0
            )
            out.append(
                StagePlan(
                    name=key,
                    scenario=spec.scenario,
                    needs=needs,
                    fingerprint=spec_fingerprint(spec, inputs=stage_inputs),
                    keys=keys,
                    n_hits=n_hits,
                    external=external,
                )
            )
        return out

    def _pipeline_plan(
        self, pipeline: PipelineSpec
    ) -> list[tuple[str, ExperimentSpec, tuple[str, ...], bool]]:
        """Resolve a pipeline into ``(key, spec, needs, external)`` rows.

        External spec references load from disk (anchored at the
        pipeline's ``base_dir``) and come first, keyed by the reference
        string exactly as written in ``needs`` — that string is how the
        consuming stage's scenario will look the set up.  Validation is
        all up front: unknown scenarios, pipeline-shaped external refs,
        and needs/scenario signature mismatches fail before any cell
        runs.
        """
        rows: list[tuple[str, ExperimentSpec, tuple[str, ...], bool]] = []
        for need in pipeline.external_needs():
            path = pipeline.resolve_path(need)
            try:
                loaded = load_spec(path)
            except OSError as exc:
                raise ValueError(
                    f"pipeline '{pipeline.name}': cannot load external "
                    f"spec {need!r}: {exc}"
                ) from None
            if isinstance(loaded, PipelineSpec):
                raise ValueError(
                    f"pipeline '{pipeline.name}': external need {need!r} "
                    "is itself a pipeline; point needs at flat specs "
                    "(run the other pipeline separately — its cached "
                    "stages resolve here for free)"
                )
            rows.append((need, loaded, (), True))
        for stage in pipeline.stage_order():
            rows.append((stage.name, stage.spec, stage.needs, False))
        for key, spec, needs, _external in rows:
            get_scenario(spec.scenario)  # fail fast, before any stage runs
            if scenario_needs_artifacts(spec.scenario) and not needs:
                raise ValueError(
                    f"pipeline '{pipeline.name}': stage '{key}' runs "
                    f"analysis scenario {spec.scenario!r} but declares no "
                    "needs — it would have nothing to analyze"
                )
        return rows

    @staticmethod
    def _is_needed(pipeline: PipelineSpec, key: str) -> bool:
        """Whether an artifact-consuming stage reads ``key``'s artifacts."""
        return any(
            key in stage.needs
            and scenario_needs_artifacts(stage.spec.scenario)
            for stage in pipeline.stages
        )

    def _new_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs, initializer=_worker_init
        )

    @staticmethod
    def _kill_pool(pool: concurrent.futures.ProcessPoolExecutor) -> None:
        """Shut the pool down without waiting for wedged workers.

        ``shutdown(wait=True)`` would block until a hung cell returns —
        exactly the leak this avoids.  Worker processes are terminated
        outright; every settled result has already been fetched, and
        abandoned cells are quarantined or journaled for resume.
        """
        procs = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already gone
                pass
        for proc in procs:
            try:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
            except Exception:  # pragma: no cover - already gone
                pass

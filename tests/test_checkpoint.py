"""Crash-safe campaign tests: checkpoint journal, resume, signals, timeouts.

Covers the :class:`~repro.experiments.checkpoint.CampaignCheckpoint`
journal format, graceful SIGINT/SIGTERM draining, resume-after-kill
semantics (including a real SIGKILLed subprocess), the
execution-start-based per-cell timeout (a queued cell must not burn its
budget waiting), and the hung-worker pool recycle (one wedged cell must
not serialize the rest of the campaign).
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.experiments import (
    CampaignCheckpoint,
    CampaignInterrupted,
    ExperimentSpec,
    ResultCache,
    Runner,
    canonical_json,
    register_scenario,
    spec_fingerprint,
)

# -- scenarios for these tests (registry is process-global; fork-started
# -- workers inherit them) ----------------------------------------------------


@register_scenario("ck-echo")
def _ck_echo(params, seed):
    return {"x": params["x"], "seed": seed}


@register_scenario("ck-sleep")
def _ck_sleep(params, seed):
    time.sleep(float(params["sleep_s"]))
    return {"slept": params["sleep_s"], "seed": seed}


@register_scenario("ck-die")
def _ck_die(params, seed):
    if params["x"] == int(params.get("die_on", -1)):
        # give batch-mates time to settle, then take the worker down
        # hard enough to break the whole pool
        time.sleep(0.3)
        os._exit(3)
    return {"x": params["x"]}


@register_scenario("ck-kill-parent")
def _ck_kill_parent(params, seed):
    # deliver the drain signal *during* the campaign, deterministically
    if params["x"] == int(params.get("kill_on", 0)):
        os.kill(os.getppid() if params.get("parent") else os.getpid(),
                getattr(signal, params.get("sig", "SIGTERM")))
        time.sleep(0.2)  # give the supervisor time to see the flag
    else:
        time.sleep(float(params.get("sleep_s", 0.05)))
    return {"x": params["x"]}


def _echo_spec(n=4, **overrides) -> ExperimentSpec:
    base = dict(
        name="ck-grid",
        scenario="ck-echo",
        axes={"x": tuple(range(n))},
        seed=5,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# -- the journal itself ------------------------------------------------------


class TestCheckpointJournal:
    def test_record_flush_load_round_trip(self, tmp_path):
        spec = _echo_spec()
        ck = CampaignCheckpoint.for_spec(tmp_path, spec)
        ck.begin_batch([0, 1])
        ck.record(0, "a" * 64, None, 0.25)
        ck.record(1, "b" * 64, "ValueError: boom", 0.5)
        assert ck.path.exists()
        assert ck.frontier == ()  # both settled

        fresh = CampaignCheckpoint.for_spec(tmp_path, spec)
        assert fresh.load()
        assert fresh.settled[0].key == "a" * 64
        assert fresh.settled[0].error is None
        assert fresh.settled[1].error == "ValueError: boom"
        assert fresh.settled[1].wall_s == 0.5

    def test_frontier_survives_in_journal(self, tmp_path):
        spec = _echo_spec()
        ck = CampaignCheckpoint.for_spec(tmp_path, spec)
        ck.begin_batch([2, 3])
        lines = [json.loads(l) for l in ck.path.read_text().splitlines()]
        header, events = lines[0], lines[1:]
        assert header["spec_fingerprint"] == spec_fingerprint(spec)
        assert header["spec"]["name"] == "ck-grid"
        assert {"f": [2, 3]} in events

    def test_settles_append_instead_of_rewriting(self, tmp_path):
        # the journal must stay O(1) I/O per settled cell: each record()
        # appends one event line, it does not rewrite the whole file
        spec = _echo_spec(n=64)
        ck = CampaignCheckpoint.for_spec(tmp_path, spec)
        ck.begin_batch(range(64))
        ck.record(0, None, None, 0.1)
        header_size = ck.path.stat().st_size
        deltas = []
        for i in range(1, 64):
            before = ck.path.stat().st_size
            ck.record(i, "c" * 64, None, 0.1)
            deltas.append(ck.path.stat().st_size - before)
        # every settle appends the same-sized event line; a full-rewrite
        # journal would grow its delta linearly with cells settled
        assert max(deltas) - min(deltas) <= 4
        assert max(deltas) < header_size

        fresh = CampaignCheckpoint.for_spec(tmp_path, spec)
        assert fresh.load()
        assert len(fresh.settled) == 64
        assert fresh.frontier == ()

    def test_torn_trailing_append_loses_only_that_event(self, tmp_path):
        spec = _echo_spec()
        ck = CampaignCheckpoint.for_spec(tmp_path, spec)
        ck.begin_batch([0, 1])
        ck.record(0, "a" * 64, None, 0.2)
        ck.record(1, None, "ValueError: boom", 0.3)
        # a kill mid-append tears the last line
        torn = ck.path.read_text()[:-9]
        ck.path.write_text(torn)
        fresh = CampaignCheckpoint.for_spec(tmp_path, spec)
        assert fresh.load()
        assert 0 in fresh.settled
        assert 1 not in fresh.settled  # the torn event, nothing else
        assert fresh.frontier == (1,)

    def test_wrong_spec_fingerprint_is_ignored(self, tmp_path):
        ck = CampaignCheckpoint.for_spec(tmp_path, _echo_spec())
        ck.record(0, None, "err", 0.1)
        other = CampaignCheckpoint(ck.path, _echo_spec(seed=99))
        assert not other.load()
        assert other.settled == {}

    def test_corrupt_journal_is_ignored(self, tmp_path):
        ck = CampaignCheckpoint.for_spec(tmp_path, _echo_spec())
        ck.path.parent.mkdir(parents=True, exist_ok=True)
        ck.path.write_text("{ not json")
        assert not ck.load()

    def test_complete_removes_journal(self, tmp_path):
        ck = CampaignCheckpoint.for_spec(tmp_path, _echo_spec())
        ck.record(0, None, None, 0.1)
        assert ck.path.exists()
        ck.complete()
        assert not ck.path.exists()
        ck.complete()  # idempotent

    def test_fingerprint_distinguishes_specs(self):
        assert spec_fingerprint(_echo_spec()) != spec_fingerprint(
            _echo_spec(seed=6)
        )
        assert spec_fingerprint(_echo_spec()) == spec_fingerprint(_echo_spec())


# -- runner integration: journal lifecycle and restore -----------------------


class TestRunnerCheckpoint:
    def test_successful_run_removes_checkpoint(self, tmp_path):
        runner = Runner(
            cache=ResultCache(tmp_path / "c"), checkpoint_dir=tmp_path / "ck"
        )
        campaign = runner.run(_echo_spec())
        assert campaign.n_executed == 4
        assert list((tmp_path / "ck").glob("*.ckpt.jsonl")) == []

    def test_quarantined_cells_restored_verbatim(self, tmp_path):
        spec = _echo_spec()
        ckdir = tmp_path / "ck"
        ck = CampaignCheckpoint.for_spec(ckdir, spec)
        ck.record(1, None, "ValueError: injected by a previous run", 0.125)

        campaign = Runner(
            cache=ResultCache(tmp_path / "c"), checkpoint_dir=ckdir
        ).run(spec)
        bad = campaign.cells[1]
        assert bad.error == "ValueError: injected by a previous run"
        assert bad.wall_s == 0.125
        assert not bad.cached
        # the other three executed; nothing re-ran the restored cell
        assert campaign.n_executed == 3
        assert campaign.n_failed == 1
        # settled everything -> journal gone
        assert not ck.path.exists()

    def test_force_ignores_checkpoint(self, tmp_path):
        spec = _echo_spec()
        ckdir = tmp_path / "ck"
        ck = CampaignCheckpoint.for_spec(ckdir, spec)
        ck.record(1, None, "ValueError: stale", 0.1)
        campaign = Runner(
            cache=ResultCache(tmp_path / "c"), checkpoint_dir=ckdir
        ).run(spec, force=True)
        assert campaign.n_failed == 0
        assert campaign.n_executed == 4
        assert not ck.path.exists()

    def test_serial_journal_matches_parallel(self, tmp_path):
        # both executors journal through the same code path
        for jobs, sub in ((1, "s"), (2, "p")):
            ckdir = tmp_path / f"ck-{sub}"
            runner = Runner(
                jobs=jobs,
                cache=ResultCache(tmp_path / f"c-{sub}"),
                checkpoint_dir=ckdir,
            )
            campaign = runner.run(_echo_spec())
            assert campaign.n_executed == 4
            assert list(ckdir.glob("*.ckpt.jsonl")) == []


# -- graceful signal handling ------------------------------------------------


class TestGracefulSignals:
    def _kill_spec(self, n=5, *, parent, kill_on=1, sig="SIGTERM"):
        return ExperimentSpec(
            name="ck-kill",
            scenario="ck-kill-parent",
            params={
                "parent": parent,
                "kill_on": kill_on,
                "sig": sig,
                "sleep_s": 0.05,
            },
            axes={"x": tuple(range(n))},
            seed=2,
        )

    def test_serial_sigterm_drains_and_raises_resumable(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = self._kill_spec(n=5, parent=False, kill_on=1)
        runner = Runner(cache=cache, checkpoint_dir=tmp_path / "ck")
        with pytest.raises(CampaignInterrupted) as info:
            runner.run(spec)
        exc = info.value
        assert exc.signum == signal.SIGTERM
        # the killing cell itself finished (the signal only sets a flag)
        assert exc.n_settled == 2
        assert exc.n_executed == 2
        assert "resume" in str(exc)
        assert exc.checkpoint_path is not None and exc.checkpoint_path.exists()

        # resume: settled cells come back from the cache, the rest execute
        resumed = Runner(cache=cache, checkpoint_dir=tmp_path / "ck").run(spec)
        assert resumed.n_cached == 2
        assert resumed.n_executed == 3
        assert resumed.n_failed == 0
        assert not exc.checkpoint_path.exists()

    def test_parallel_sigterm_drains_and_raises_resumable(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = self._kill_spec(n=6, parent=True, kill_on=0)
        runner = Runner(
            jobs=2, chunk_size=1, cache=cache, checkpoint_dir=tmp_path / "ck"
        )
        with pytest.raises(CampaignInterrupted) as info:
            runner.run(spec)
        exc = info.value
        assert exc.signum == signal.SIGTERM
        # the in-flight batch drained; later batches never submitted
        assert 1 <= exc.n_settled <= 2
        assert exc.n_failed == 0

        resumed = Runner(
            jobs=2, chunk_size=1, cache=cache, checkpoint_dir=tmp_path / "ck"
        ).run(spec)
        assert resumed.n_cached == exc.n_settled
        assert resumed.n_executed == 6 - exc.n_settled
        assert resumed.n_failed == 0

    def test_sigint_also_drains(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = self._kill_spec(n=4, parent=False, kill_on=0, sig="SIGINT")
        with pytest.raises(CampaignInterrupted) as info:
            Runner(cache=cache, checkpoint_dir=tmp_path / "ck").run(spec)
        assert info.value.signum == signal.SIGINT

    def test_handlers_restored_after_run(self, tmp_path):
        before = (
            signal.getsignal(signal.SIGINT),
            signal.getsignal(signal.SIGTERM),
        )
        Runner().run(_echo_spec())
        spec = self._kill_spec(n=3, parent=False, kill_on=0)
        with pytest.raises(CampaignInterrupted):
            Runner(cache=ResultCache(tmp_path / "c")).run(spec)
        after = (
            signal.getsignal(signal.SIGINT),
            signal.getsignal(signal.SIGTERM),
        )
        assert before == after

    def test_interrupt_without_checkpoint_still_resumes_via_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = self._kill_spec(n=5, parent=False, kill_on=1)
        with pytest.raises(CampaignInterrupted) as info:
            Runner(cache=cache).run(spec)
        assert info.value.checkpoint_path is None
        resumed = Runner(cache=cache).run(spec)
        assert resumed.n_cached == 2
        assert resumed.n_executed == 3


# -- resume after a hard SIGKILL (real subprocess, no graceful path) ---------


_CHILD_SCRIPT = textwrap.dedent(
    """
    import sys, time
    from repro.experiments import ExperimentSpec, ResultCache, Runner, register_scenario

    @register_scenario("ck-subproc")
    def _s(params, seed):
        time.sleep(0.4)
        return {"x": params["x"], "seed": seed}

    spec = ExperimentSpec(
        name="ck-subproc-grid",
        scenario="ck-subproc",
        axes={"x": list(range(8))},
        seed=3,
    )
    runner = Runner(
        jobs=2,
        chunk_size=2,
        cache=ResultCache(sys.argv[1]),
        checkpoint_dir=sys.argv[2],
    )
    print("READY", flush=True)
    runner.run(spec)
    print("DONE", flush=True)
    """
)


@register_scenario("ck-subproc")
def _ck_subproc(params, seed):
    time.sleep(0.4)
    return {"x": params["x"], "seed": seed}


class TestSigkillResume:
    def test_sigkilled_run_resumes_without_recomputation(self, tmp_path):
        spec = ExperimentSpec(
            name="ck-subproc-grid",
            scenario="ck-subproc",
            axes={"x": tuple(range(8))},
            seed=3,
        )
        # uninterrupted reference, fresh cache
        reference = Runner(cache=ResultCache(tmp_path / "ref")).run(spec)

        script = tmp_path / "child.py"
        script.write_text(_CHILD_SCRIPT)
        cache_dir = tmp_path / "cache"
        ck_dir = tmp_path / "ck"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        child = subprocess.Popen(
            [sys.executable, str(script), str(cache_dir), str(ck_dir)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            # wait for the campaign to actually start, then let a couple
            # of batches settle before the hard kill
            assert child.stdout.readline().strip() == "READY"
            time.sleep(1.3)
        finally:
            # kill the whole group: the runner's pool workers would
            # otherwise outlive their SIGKILLed parent
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()

        cache = ResultCache(cache_dir)
        n_settled_before = len(cache)
        assert n_settled_before < 8  # the kill landed mid-campaign

        resumed = Runner(
            jobs=2, chunk_size=2, cache=cache, checkpoint_dir=ck_dir
        ).run(spec)
        # zero recomputation of settled cells, and only unfinished ran
        assert resumed.n_cached == n_settled_before
        assert resumed.n_executed == 8 - n_settled_before
        assert resumed.n_failed == 0
        # byte-identical payload to the uninterrupted run
        assert canonical_json(resumed.results()) == canonical_json(
            reference.results()
        )
        # journal consumed, nothing left pending
        assert list(ck_dir.glob("*.ckpt.jsonl")) == []

    def test_resume_equivalence_when_cache_is_partial(self, tmp_path):
        # deterministic variant of the same contract: drop artifacts to
        # fake a partially settled run, resume must fill exactly the gap
        spec = _echo_spec(n=6)
        cache = ResultCache(tmp_path / "c")
        full = Runner(cache=cache).run(spec)
        paths = list(cache.iter_artifacts())
        assert len(paths) == 6
        for path in paths[:2]:
            path.unlink()
        resumed = Runner(cache=cache).run(spec)
        assert resumed.n_cached == 4
        assert resumed.n_executed == 2
        assert resumed.results() == full.results()
        assert [
            dataclasses.replace(c, cached=False, wall_s=0.0)
            for c in resumed.cells
        ] == [
            dataclasses.replace(c, cached=False, wall_s=0.0)
            for c in full.cells
        ]


# -- per-cell timeouts measured from execution start -------------------------


class TestTimeoutFromExecutionStart:
    def test_queued_cells_do_not_burn_budget_waiting(self):
        # 4 cells of ~0.7 s on 2 workers, 1.2 s budget: cells 2-3 queue
        # behind 0-1 for a full execution before they start.  A budget
        # measured from *submission* (the old bug) expires while they are
        # still blameless in the queue; measured from execution start
        # they finish with ~0.5 s to spare.
        spec = ExperimentSpec(
            name="ck-queue",
            scenario="ck-sleep",
            axes={"sleep_s": (0.7, 0.71, 0.72, 0.73)},
            seed=0,
        )
        campaign = Runner(jobs=2, chunk_size=2, cell_timeout_s=1.2).run(spec)
        assert campaign.n_failed == 0, [
            c.error for c in campaign.cells if not c.ok
        ]

    def test_single_worker_queue_is_the_sharpest_pin(self, monkeypatch):
        # with one worker the second cell waits out the whole first cell
        # before starting.  jobs=1 picks the in-process executor, so run
        # the pool executor (jobs=2) on a one-worker pool: both cells
        # land in one batch, and the second finishes ~1.21 s after its
        # submission — past its 1.0 s budget if the clock started there
        from concurrent.futures import ProcessPoolExecutor

        from repro.experiments.runner import _worker_init

        spec = ExperimentSpec(
            name="ck-queue-1w",
            scenario="ck-sleep",
            axes={"sleep_s": (0.6, 0.61)},
            seed=0,
        )
        runner = Runner(jobs=2, chunk_size=1, cell_timeout_s=1.0)
        monkeypatch.setattr(
            runner,
            "_new_pool",
            lambda: ProcessPoolExecutor(max_workers=1, initializer=_worker_init),
        )
        campaign = runner.run(spec)
        assert campaign.n_cells == 2
        assert campaign.n_failed == 0, [
            c.error for c in campaign.cells if not c.ok
        ]

    def test_genuinely_slow_cell_still_quarantined(self):
        spec = ExperimentSpec(
            name="ck-slow",
            scenario="ck-sleep",
            axes={"sleep_s": (0.05, 30.0)},
            seed=0,
        )
        t0 = time.perf_counter()
        campaign = Runner(jobs=2, cell_timeout_s=0.5).run(spec)
        wall = time.perf_counter() - t0
        assert campaign.cells[0].ok
        slow = campaign.cells[1]
        assert not slow.ok
        assert "TimeoutError" in slow.error and "0.5 s budget" in slow.error
        # the wedged worker must not stall campaign teardown
        assert wall < 15.0


class TestHungWorkerRecycle:
    def test_hung_cell_does_not_serialize_later_batches(self):
        # first batch contains a cell that hangs far past its budget;
        # Future.cancel() can't stop it, so the old code left the worker
        # wedged in its slot and the final shutdown(wait=True) blocked on
        # the 30 s sleep.  The pool recycle must terminate it instead.
        spec = ExperimentSpec(
            name="ck-hang",
            scenario="ck-sleep",
            axes={"sleep_s": (30.0, 0.05, 0.06, 0.07, 0.08, 0.09)},
            seed=0,
        )
        t0 = time.perf_counter()
        campaign = Runner(jobs=2, chunk_size=1, cell_timeout_s=0.5).run(spec)
        wall = time.perf_counter() - t0
        assert campaign.n_failed == 1
        assert "TimeoutError" in campaign.cells[0].error
        assert all(c.ok for c in campaign.cells[1:])
        # 5 fast cells + pool recycle must come nowhere near the 30 s
        # sleep the wedged worker was holding
        assert wall < 15.0, f"campaign took {wall:.1f} s - worker leak?"

    def test_saturated_batch_of_hung_cells_does_not_deadlock(self):
        # BOTH workers wedge on the first two cells of a single batch:
        # the queued cells 2-3 never start, never stamp an execution
        # start, and under the old code never timed out — the drain spun
        # forever and the campaign hung despite cell_timeout_s.  The
        # wedged-slot bailout must pull them back, recycle the pool, and
        # execute them there.
        spec = ExperimentSpec(
            name="ck-hang-saturated",
            scenario="ck-sleep",
            axes={"sleep_s": (30.0, 30.01, 0.05, 0.06)},
            seed=0,
        )
        t0 = time.perf_counter()
        campaign = Runner(jobs=2, chunk_size=2, cell_timeout_s=0.5).run(spec)
        wall = time.perf_counter() - t0
        assert campaign.n_failed == 2
        assert "TimeoutError" in campaign.cells[0].error
        assert "TimeoutError" in campaign.cells[1].error
        # the queued cells were innocent and must have executed
        assert campaign.cells[2].ok and campaign.cells[3].ok
        assert wall < 15.0, f"campaign took {wall:.1f} s - drain deadlock?"

    def test_worker_killing_cell_settles_not_keyerror(self, tmp_path):
        # a cell that exits its worker breaks the pool mid-batch; the
        # old code abandoned the batch's unsettled cells and run() then
        # crashed with a bare KeyError building the result tuple.  Now
        # innocent batch-mates are resubmitted on the recycled pool and
        # the killer is quarantined after the retry cap.
        spec = ExperimentSpec(
            name="ck-die-grid",
            scenario="ck-die",
            params={"die_on": 0},
            axes={"x": (0, 1, 2, 3)},
            seed=0,
        )
        campaign = Runner(
            jobs=2,
            chunk_size=2,
            cache=ResultCache(tmp_path / "c"),
            checkpoint_dir=tmp_path / "ck",
        ).run(spec)
        assert campaign.n_cells == 4  # settled everything, no KeyError
        killer = campaign.cells[0]
        assert not killer.ok
        assert "BrokenProcessPool" in killer.error
        assert all(c.ok for c in campaign.cells[1:])
        # every cell settled -> journal consumed
        assert list((tmp_path / "ck").glob("*.ckpt.jsonl")) == []

    def test_hung_cells_journal_as_quarantined_for_resume(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = ExperimentSpec(
            name="ck-hang-journal",
            scenario="ck-sleep",
            axes={"sleep_s": (30.0, 0.05)},
            seed=0,
        )
        campaign = Runner(
            jobs=2, cell_timeout_s=0.4, cache=cache,
            checkpoint_dir=tmp_path / "ck",
        ).run(spec)
        assert campaign.n_failed == 1
        # campaign settled every cell -> journal consumed
        assert list((tmp_path / "ck").glob("*.ckpt.jsonl")) == []
        # warm re-run: fast cell cached, hung cell retried (and re-fails)
        again = Runner(
            jobs=2, cell_timeout_s=0.4, cache=cache,
            checkpoint_dir=tmp_path / "ck",
        ).run(spec)
        assert again.n_cached == 1
        assert again.n_failed == 1

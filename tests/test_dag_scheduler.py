"""The ready-set DAG scheduler: interleavings, cancellation, kill/resume.

The scheduler's core contract is that *scheduling order is not
observable in results*: any legal interleaving of runnable stages'
cells — forced here through ``Runner.schedule_hook`` — must produce
byte-identical artifacts, cache keys, and fingerprints to the serial
``jobs=1`` stage loop.  Wall-clock seconds are the one sanctioned
difference, so comparisons normalize ``wall_s`` away.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.experiments import (
    ExperimentSpec,
    PipelineSpec,
    ResultCache,
    Runner,
    StageSpec,
    canonical_json,
    register_scenario,
)
from repro.experiments.runner import plan_dag_summary

# -- cheap scenarios ---------------------------------------------------------


@register_scenario("dag-src")
def _dag_src(params, seed):
    return {"value": params["x"] * 100 + seed}


@register_scenario("dag-mid", needs_artifacts=True)
def _dag_mid(params, seed, artifacts):
    total = sum(
        a.result["value"] for aset in artifacts.values() for a in aset
    )
    return {"total": total + params["y"], "seed": seed}


@register_scenario("dag-join", needs_artifacts=True)
def _dag_join(params, seed, artifacts):
    return {
        name: sum(a.result["total"] for a in aset)
        for name, aset in sorted(artifacts.items())
    }


def _diamond(xs=(1, 2, 3), ys=(10, 20)):
    """workload -> {chaos, direct} -> pareto, all artifact-consuming."""
    return PipelineSpec(
        name="dia",
        seed=7,
        stages=(
            StageSpec(
                name="workload",
                spec=ExperimentSpec(
                    name="dia/workload", scenario="dag-src",
                    axes={"x": tuple(xs)}, seed=7,
                ),
            ),
            StageSpec(
                name="chaos",
                spec=ExperimentSpec(
                    name="dia/chaos", scenario="dag-mid",
                    axes={"y": tuple(ys)}, seed=7,
                ),
                needs=("workload",),
            ),
            StageSpec(
                name="direct",
                spec=ExperimentSpec(
                    name="dia/direct", scenario="dag-mid",
                    axes={"y": tuple(y * 3 for y in ys)}, seed=7,
                ),
                needs=("workload",),
            ),
            StageSpec(
                name="pareto",
                spec=ExperimentSpec(name="dia/pareto", scenario="dag-join"),
                needs=("chaos", "direct"),
            ),
        ),
    )


def _normalized_cache(root) -> dict[str, str]:
    """Cache payloads keyed by artifact file name, wall_s scrubbed."""
    out = {}
    for path in ResultCache(root).iter_artifacts():
        payload = json.loads(path.read_text())
        payload.pop("wall_s", None)
        out[path.name] = canonical_json(payload)
    return out


def _fingerprint_map(res) -> dict[str, str | None]:
    return {name: c.fingerprint for name, c in res.stages.items()}


def _key_map(res) -> dict[str, tuple]:
    return {
        name: tuple(cell.key for cell in c.cells)
        for name, c in res.stages.items()
    }


# -- interleaving property ---------------------------------------------------


class TestInterleavingInvariance:
    def _serial_reference(self, tmp_path):
        ck = tmp_path / "ref-ck"
        res = Runner(
            cache=ResultCache(tmp_path / "ref"), checkpoint_dir=ck
        ).run_pipeline(_diamond())
        assert res.n_failed == 0
        assert list(ck.glob("*.jsonl")) == []  # journals consumed
        return res

    @pytest.mark.parametrize(
        "variant, jobs",
        [
            pytest.param("reversed", 2, id="reversed"),
            pytest.param("shuffled", 2, id="shuffled"),
            pytest.param("alternate", 2, id="alternate"),
            # the in-process executor honours the hook too
            pytest.param("alternate", 1, id="alternate-jobs1"),
        ],
    )
    def test_any_interleaving_matches_serial(self, tmp_path, variant, jobs):
        reference = self._serial_reference(tmp_path)

        def hook(order):
            if variant == "reversed":
                return list(reversed(order))
            if variant == "shuffled":
                rng = random.Random(1234 + len(order))
                order = list(order)
                rng.shuffle(order)
                return order
            # alternate: round-robin across stages, so one batch is
            # guaranteed to mix cells from sibling stages
            by_stage: dict[str, list] = {}
            for pair in order:
                by_stage.setdefault(pair[0], []).append(pair)
            out = []
            while any(by_stage.values()):
                for stage in list(by_stage):
                    if by_stage[stage]:
                        out.append(by_stage[stage].pop(0))
            return out

        ck = tmp_path / f"{variant}-ck"
        runner = Runner(
            jobs=jobs,
            cache=ResultCache(tmp_path / variant),
            checkpoint_dir=ck,
        )
        runner.schedule_hook = hook
        res = runner.run_pipeline(_diamond())
        assert res.n_failed == 0
        assert list(ck.glob("*.jsonl")) == []

        # identical keys, fingerprints, results, and cache bytes
        assert _key_map(res) == _key_map(reference)
        assert _fingerprint_map(res) == _fingerprint_map(reference)
        for name in res.stages:
            assert canonical_json(
                res.stage(name).results()
            ) == canonical_json(reference.stage(name).results())
        assert _normalized_cache(tmp_path / variant) == _normalized_cache(
            tmp_path / "ref"
        )
        # result insertion order is plan order, not execution order
        assert list(res.stages) == list(reference.stages)

    def test_sibling_stages_share_batches(self, tmp_path):
        # with small chunks the scheduler must cut at least one batch
        # containing cells from both middle stages of the diamond
        seen_candidates: list[set[str]] = []

        def hook(order):
            seen_candidates.append({stage for stage, _ in order})
            return order

        runner = Runner(
            jobs=2, chunk_size=1, cache=ResultCache(tmp_path)
        )
        runner.schedule_hook = hook
        res = runner.run_pipeline(_diamond())
        assert res.n_failed == 0
        assert any(
            {"chaos", "direct"} <= stages for stages in seen_candidates
        ), seen_candidates

    def test_plan_summary_of_the_diamond(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        summary = plan_dag_summary(runner.dry_run(_diamond()), jobs=4)
        assert summary.depth == 3
        assert summary.width == 2
        assert summary.serial_cells == 8
        assert summary.critical_path[0] == "workload"
        assert summary.critical_path[-1] == "pareto"
        assert summary.parallel_cells >= summary.critical_cells
        # warm plan: everything cached, nothing on the critical path
        runner.run_pipeline(_diamond())
        warm = plan_dag_summary(runner.dry_run(_diamond()), jobs=4)
        assert warm.serial_cells == 0 and warm.critical_cells == 0


# -- cancellation under the DAG scheduler ------------------------------------


@register_scenario("dag-bad")
def _dag_bad(params, seed):
    raise ValueError("broken by design")


class TestDagCancellation:
    def _broken_diamond(self):
        base = _diamond()
        stages = list(base.stages)
        stages[1] = StageSpec(
            name="chaos",
            spec=ExperimentSpec(
                name="dia/chaos", scenario="dag-bad", axes={"y": (10, 20)},
                seed=7,
            ),
            needs=("workload",),
        )
        return PipelineSpec(name="dia", seed=7, stages=tuple(stages))

    def test_quarantined_branch_cancels_join_but_not_sibling(self, tmp_path):
        res = Runner(
            jobs=2, cache=ResultCache(tmp_path)
        ).run_pipeline(self._broken_diamond())
        assert res.stage("workload").n_failed == 0
        assert res.stage("chaos").n_failed == 2
        # the sibling branch is unaffected and ran to completion
        assert res.stage("direct").n_failed == 0
        assert res.stage("direct").n_executed == 2
        # the join settles cancelled, promptly, without raising
        join = res.stage("pareto")
        assert join.n_executed == 0
        assert all(
            c.error == (
                "cancelled: needed stage 'chaos' settled with "
                "2 quarantined cell(s)"
            )
            for c in join.cells
        )

    def test_dag_cancellation_matches_serial(self, tmp_path):
        pipe = self._broken_diamond()
        serial = Runner(cache=ResultCache(tmp_path / "s")).run_pipeline(pipe)
        dag = Runner(
            jobs=2, cache=ResultCache(tmp_path / "d")
        ).run_pipeline(pipe)
        for name in serial.stages:
            s, d = serial.stage(name), dag.stage(name)
            assert [c.error for c in s.cells] == [c.error for c in d.cells]
            assert [c.key for c in s.cells] == [c.key for c in d.cells]


# -- SIGTERM mid-diamond: a real killed subprocess ---------------------------

_DIAMOND_CHILD = textwrap.dedent(
    """
    import sys, time
    from repro.experiments import (
        ExperimentSpec, PipelineSpec, ResultCache, Runner, StageSpec,
        CampaignInterrupted, register_scenario,
    )

    @register_scenario("dag-src")
    def _src(params, seed):
        return {"value": params["x"] * 100 + seed}

    @register_scenario("dag-mid", needs_artifacts=True)
    def _mid(params, seed, artifacts):
        print("MID", params["y"], flush=True)
        # long enough that the parent's post-MID SIGTERM lands inside
        # this batch even on a slow, loaded box
        time.sleep(2.0)
        total = sum(
            a.result["value"] for aset in artifacts.values() for a in aset
        )
        return {"total": total + params["y"], "seed": seed}

    @register_scenario("dag-join", needs_artifacts=True)
    def _join(params, seed, artifacts):
        return {
            name: sum(a.result["total"] for a in aset)
            for name, aset in sorted(artifacts.items())
        }

    pipeline = PipelineSpec(
        name="dia",
        seed=7,
        stages=(
            StageSpec(
                name="workload",
                spec=ExperimentSpec(
                    name="dia/workload", scenario="dag-src",
                    axes={"x": (1, 2, 3)}, seed=7),
            ),
            StageSpec(
                name="chaos",
                spec=ExperimentSpec(
                    name="dia/chaos", scenario="dag-mid",
                    axes={"y": (10, 20)}, seed=7),
                needs=("workload",),
            ),
            StageSpec(
                name="direct",
                spec=ExperimentSpec(
                    name="dia/direct", scenario="dag-mid",
                    axes={"y": (30, 60)}, seed=7),
                needs=("workload",),
            ),
            StageSpec(
                name="pareto",
                spec=ExperimentSpec(name="dia/pareto", scenario="dag-join"),
                needs=("chaos", "direct"),
            ),
        ),
    )
    # chunk_size=1 keeps each batch at two cells: the pool's eager call
    # queue makes submitted futures uncancellable, so a SIGTERM drains
    # the whole in-flight batch — small batches pin the drain inside
    # the diamond's waist
    runner = Runner(
        jobs=2, chunk_size=1, cache=ResultCache(sys.argv[1]),
        checkpoint_dir=sys.argv[2],
    )
    print("READY", flush=True)
    try:
        runner.run_pipeline(pipeline)
    except CampaignInterrupted:
        sys.exit(75)
    print("DONE", flush=True)
    """
)


class TestSigtermMidDiamond:
    def test_kill_mid_middle_stages_then_resume(self, tmp_path):
        reference = Runner(
            cache=ResultCache(tmp_path / "ref")
        ).run_pipeline(_diamond(ys=(10, 20)))

        script = tmp_path / "child.py"
        script.write_text(_DIAMOND_CHILD)
        cache_dir, ck_dir = tmp_path / "cache", tmp_path / "ck"
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
        )
        try:
            assert child.stdout.readline().strip() == "READY"
            # wait until a middle-stage cell is actually executing, then
            # land the SIGTERM squarely inside the diamond's waist
            line = child.stdout.readline().strip()
            assert line.startswith("MID"), line
            time.sleep(0.2)
        finally:
            child.send_signal(signal.SIGTERM)
            rc = child.wait(timeout=30)
            child.stdout.close()
        assert rc == 75  # drained, journaled, resumable

        cache = ResultCache(cache_dir)
        settled_mid = sum(
            1
            for p in cache.iter_artifacts()
            if '"scenario": "dag-mid"' in p.read_text()
        )
        assert 1 <= settled_mid < 4  # the signal landed mid-diamond
        settled_join = sum(
            1
            for p in cache.iter_artifacts()
            if '"scenario": "dag-join"' in p.read_text()
        )
        assert settled_join == 0  # the join never started

        resumed = Runner(
            jobs=2, cache=cache, checkpoint_dir=ck_dir
        ).run_pipeline(_diamond(ys=(10, 20)))
        assert resumed.n_failed == 0
        # the workload comes back from cache; the middles execute only
        # what the kill left unfinished
        assert resumed.stage("workload").n_executed == 0
        mids = resumed.stage("chaos"), resumed.stage("direct")
        assert sum(m.n_cached for m in mids) == settled_mid
        assert sum(m.n_executed for m in mids) == 4 - settled_mid
        assert canonical_json(
            resumed.stage("pareto").results()
        ) == canonical_json(reference.stage("pareto").results())
        # journals consumed on the successful resume
        assert list(ck_dir.glob("*.jsonl")) == []

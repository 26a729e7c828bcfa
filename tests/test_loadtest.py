"""The open-loop load-test harness: generators, SLO report, both drivers.

Bottom-up over :mod:`repro.service.loadtest` — the arrival-process
generators (Poisson, interrupted-Poisson bursts, the Fig. 6 diurnal
shape), the request mix, the latency recorder, and the
:class:`LoadTestReport` contract checks — then the two drivers:

* the **deterministic twin** (:func:`run_loadtest_sim`): two runs with
  one seed produce byte-identical censuses and quantiles, overload
  sheds against the admission bound, underload settles everything;
* the **live driver** (:func:`run_loadtest`): a real in-process daemon
  under a genuinely open-loop storm — the ledger balances against the
  daemon's own counters and the report validates, also when seeded
  ``crash`` ops panic work loops mid-storm;

and the one params -> config path both drivers (and the prediction-error
cost curve) resolve a cell through.
"""

import asyncio
import dataclasses
import json
import math

import numpy as np
import pytest

from repro.service.loadtest import (
    FIG6_HOURLY,
    HARNESS_DEFAULTS,
    LatencyRecorder,
    RequestMix,
    _check_daemon_ledger,
    _classify,
    _crash_indices,
    build_schedule,
    diurnal_schedule,
    fig6_profile,
    harness_config,
    onoff_schedule,
    poisson_schedule,
    run_loadtest,
    run_loadtest_sim,
)
from repro.workload.diurnal import hourly_histogram


# ---------------------------------------------------------------------------
# arrival-process generators


class TestPoissonSchedule:
    def test_shape_and_order(self):
        times = poisson_schedule(200, 0.5, np.random.default_rng(1))
        assert times.shape == (200,)
        assert np.all(times > 0)
        assert np.all(np.diff(times) >= 0)

    def test_seeded_replay(self):
        a = poisson_schedule(100, 0.2, np.random.default_rng(7))
        b = poisson_schedule(100, 0.2, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_mean_gap_tracks_the_rate(self):
        times = poisson_schedule(5000, 0.25, np.random.default_rng(3))
        mean_gap = float(times[-1]) / 5000
        assert 3.5 < mean_gap < 4.5  # 1/rate = 4 s

    @pytest.mark.parametrize("kwargs", [
        {"n": 0, "rate_per_s": 1.0},
        {"n": 10, "rate_per_s": 0.0},
        {"n": 10, "rate_per_s": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            poisson_schedule(**kwargs)


class TestOnOffSchedule:
    def test_shape_and_order(self):
        times = onoff_schedule(
            300, on_rate_per_s=2.0, mean_on_s=30.0, mean_off_s=120.0,
            rng=np.random.default_rng(5),
        )
        assert times.shape == (300,)
        assert np.all(np.diff(times) >= 0)

    def test_seeded_replay(self):
        kw = dict(on_rate_per_s=1.0, mean_on_s=50.0, mean_off_s=150.0)
        a = onoff_schedule(80, rng=np.random.default_rng(2), **kw)
        b = onoff_schedule(80, rng=np.random.default_rng(2), **kw)
        np.testing.assert_array_equal(a, b)

    def test_burstier_than_poisson(self):
        # the interrupted-Poisson process packs the same count into ON
        # bursts: its inter-arrival gaps have a higher coefficient of
        # variation than the memoryless stream (CV 1 for exponential)
        rng = np.random.default_rng(9)
        bursty = onoff_schedule(
            2000, on_rate_per_s=2.0, mean_on_s=60.0, mean_off_s=240.0,
            rng=rng,
        )
        steady = poisson_schedule(2000, 0.4, np.random.default_rng(9))
        def cv(times):
            gaps = np.diff(times)
            return float(np.std(gaps) / np.mean(gaps))
        assert cv(bursty) > 1.5 > 1.2 > cv(steady)

    def test_validation(self):
        with pytest.raises(ValueError):
            onoff_schedule(10, on_rate_per_s=0.0, mean_on_s=1.0,
                           mean_off_s=1.0)
        with pytest.raises(ValueError):
            onoff_schedule(10, on_rate_per_s=1.0, mean_on_s=0.0,
                           mean_off_s=1.0)
        with pytest.raises(ValueError):
            onoff_schedule(10, on_rate_per_s=1.0, mean_on_s=1.0,
                           mean_off_s=1.0, off_rate_per_s=-0.1)


class TestDiurnalSchedule:
    def test_fig6_shape_is_normalizable(self):
        assert len(FIG6_HOURLY) == 24
        profile = fig6_profile()
        # the cron spikes dominate the curve
        assert FIG6_HOURLY[2] == max(FIG6_HOURLY)
        assert profile.intensity_at(2.5 * 3600.0) > profile.intensity_at(
            22.5 * 3600.0
        )

    def test_arrivals_concentrate_at_the_cron_spikes(self):
        # a full-day storm anchored at midnight: hour 2 (the nightly
        # test cron) must collect far more arrivals than a quiet hour
        times = diurnal_schedule(
            2000, 2000.0 / 86400.0, start_hour=0.0,
            rng=np.random.default_rng(11),
        )
        hist = hourly_histogram(times)
        assert hist[2] > 3 * max(hist[22], 1)
        assert hist[8] > 2 * max(hist[22], 1)

    def test_start_hour_offsets_are_relative(self):
        times = diurnal_schedule(
            50, 0.05, start_hour=1.5, rng=np.random.default_rng(4)
        )
        assert times[0] >= 0.0
        assert np.all(np.diff(times) >= 0)

    def test_seeded_replay(self):
        a = diurnal_schedule(60, 0.02, rng=np.random.default_rng(6))
        b = diurnal_schedule(60, 0.02, rng=np.random.default_rng(6))
        np.testing.assert_array_equal(a, b)


class TestBuildSchedule:
    @pytest.mark.parametrize("kind", ["poisson", "onoff", "diurnal"])
    def test_dispatch(self, kind):
        times = build_schedule(
            {"arrivals": kind, "n_requests": 40, "rate_per_s": 0.5},
            np.random.default_rng(1),
        )
        assert times.shape == (40,)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            build_schedule({"arrivals": "nope"}, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the request mix


class TestRequestMix:
    def test_seeded_replay(self):
        a = RequestMix(50, np.random.default_rng(3), invalid_frac=0.2)
        b = RequestMix(50, np.random.default_rng(3), invalid_frac=0.2)
        assert a.items == b.items

    def test_invalid_frac_marks_negative_sizes(self):
        mix = RequestMix(200, np.random.default_rng(1), invalid_frac=0.25)
        n_invalid = sum(1 for item in mix.items if item["invalid"])
        assert 20 < n_invalid < 80
        for item in mix.items:
            if item["invalid"]:
                assert item["file_sizes"][0] < 0
            else:
                assert all(s > 0 for s in item["file_sizes"])

    def test_extremes(self):
        none = RequestMix(30, np.random.default_rng(2), invalid_frac=0.0)
        assert not any(item["invalid"] for item in none.items)
        every = RequestMix(30, np.random.default_rng(2), invalid_frac=1.0)
        assert all(item["invalid"] for item in every.items)

    def test_validation(self):
        with pytest.raises(ValueError):
            RequestMix(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            RequestMix(5, np.random.default_rng(0), invalid_frac=1.5)


# ---------------------------------------------------------------------------
# the latency recorder


class TestLatencyRecorder:
    def test_quantiles_on_known_data(self):
        rec = LatencyRecorder()
        for v in np.random.default_rng(0).permutation(1000):
            rec.record(float(v))
        s = rec.summary()
        assert rec.count == 1000
        assert abs(s["p50"] - 500) < 25
        assert abs(s["p99"] - 990) < 25
        assert s["p50"] <= s["p95"] <= s["p99"] <= s["max"] == 999
        assert abs(s["mean"] - 499.5) < 1e-6

    def test_empty_summary_is_all_none(self):
        assert all(v is None for v in LatencyRecorder().summary().values())

    def test_rejects_bad_values(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            rec.record(-1.0)
        with pytest.raises(ValueError):
            rec.record(float("nan"))
        with pytest.raises(ValueError):
            rec.record(float("inf"))


# ---------------------------------------------------------------------------
# client-side classification and the daemon cross-check


class TestClassify:
    def test_well_formed_shed_is_counted(self):
        counts, shed, _, hint = _classify(
            [{"ok": False, "status": "rejected", "reason": "tenant-quota",
              "retry_after_s": 2.5}],
            [None],
            LatencyRecorder(),
        )
        assert counts["n_shed"] == 1
        assert shed == {"tenant-quota": 1}
        assert hint == 2.5

    @pytest.mark.parametrize("resp", [
        # a shed must name a known reason ...
        {"ok": False, "status": "rejected", "reason": "busy",
         "retry_after_s": 2.0},
        {"ok": False, "status": "rejected", "retry_after_s": 2.0},
        # ... and carry a positive retry-after hint
        {"ok": False, "status": "rejected", "reason": "queue-full"},
        {"ok": False, "status": "rejected", "reason": "queue-full",
         "retry_after_s": 0.0},
    ])
    def test_malformed_shed_raises(self, resp):
        with pytest.raises(AssertionError, match="malformed shed"):
            _classify([resp], [None], LatencyRecorder())

    def test_daemon_ledger_must_match_the_client(self):
        client = {"n_accepted": 3, "n_shed": 1, "n_invalid": 1,
                  "n_transport_error": 0}
        _check_daemon_ledger(client, {"n_accepted": 3, "n_shed": 1,
                                      "n_invalid": 1})
        with pytest.raises(AssertionError, match="disagrees"):
            _check_daemon_ledger(client, {"n_accepted": 3, "n_shed": 1,
                                          "n_invalid": 0})
        with pytest.raises(AssertionError, match="never saw answered"):
            _check_daemon_ledger(client, {"n_accepted": 3, "n_shed": 2,
                                          "n_invalid": 1})
        # a reset may hide one daemon-side count per transport error
        _check_daemon_ledger(
            dict(client, n_transport_error=1),
            {"n_accepted": 3, "n_shed": 2, "n_invalid": 1},
        )


# ---------------------------------------------------------------------------
# one params -> config path for every driver


class TestHarnessConfig:
    def test_every_driver_resolves_params_alike(self, monkeypatch):
        """The live daemon, the twin and the cost curve read one spec's
        params into the same config, field by field."""
        from repro.sched import base as sched_base
        from repro.sched.base import SchedulerConfig
        from repro.sched.predictive import prediction_error_cost_curve
        from repro.service import loadtest
        from repro.service.daemon import DaemonConfig

        shared = sorted(
            {f.name for f in dataclasses.fields(SchedulerConfig)}
            & {f.name for f in dataclasses.fields(DaemonConfig)}
        )
        assert "vc_safety_factor" in shared
        # every shared field off both its defaults, plus the signalling
        # cadence both drivers model
        params = {
            name: getattr(SchedulerConfig(), name) * 2 for name in shared
        }
        params.update(batch_window_s=30.0, n_requests=4, rate_per_s=0.01)

        class Captured(Exception):
            pass

        live = {}

        class SpyDaemon:
            def __init__(self, config):
                live["config"] = config
                raise Captured

        monkeypatch.setattr(loadtest, "TransferDaemon", SpyDaemon)
        with pytest.raises(Captured):
            loadtest.run_loadtest(params, seed=1)

        twin = {}
        real_make = sched_base.make_scheduler
        real_signalling = loadtest.BatchSignalling

        def spy_make(name, config=None, *args, **kwargs):
            twin["config"] = config
            return real_make(name, config, *args, **kwargs)

        def spy_signalling(**kwargs):
            twin["batch_window_s"] = kwargs["batch_window_s"]
            return real_signalling(**kwargs)

        monkeypatch.setattr(sched_base, "make_scheduler", spy_make)
        monkeypatch.setattr(loadtest, "BatchSignalling", spy_signalling)
        loadtest.run_loadtest_sim(params, seed=1)

        curve = {}
        real_sim = loadtest.run_loadtest_sim

        def spy_sim(p, seed, scheduler=None):
            curve["config"] = scheduler.config
            return real_sim(p, seed, scheduler=scheduler)

        monkeypatch.setattr(loadtest, "run_loadtest_sim", spy_sim)
        prediction_error_cost_curve(params, seed=1, biases=(1.0,))

        for name in shared:
            want = params[name]
            assert getattr(live["config"], name) == want, name
            assert getattr(twin["config"], name) == want, name
            assert getattr(curve["config"], name) == want, name
        assert live["config"].batch_window_s == 30.0
        assert twin["batch_window_s"] == 30.0

    def test_shared_fields_share_their_defaults(self):
        from repro.sched.base import SchedulerConfig
        from repro.service.daemon import DaemonConfig

        bare = DaemonConfig(socket_path="/tmp/x")
        assert bare.scheduler_config() == SchedulerConfig()

    def test_harness_defaults_sit_under_the_params(self):
        config = harness_config({}, seed=3)
        for name, value in HARNESS_DEFAULTS.items():
            assert getattr(config, name) == value, name
        assert config.seed == 3
        assert harness_config({"queue_limit": 5}, seed=3).queue_limit == 5

    def test_chaos_ops_is_derived_from_n_crashes(self):
        assert not harness_config({}, seed=0).chaos_ops
        # not a knob: a params value cannot switch it on by itself ...
        assert not harness_config({"chaos_ops": True}, seed=0).chaos_ops
        # ... only injected crashes do
        assert harness_config({"n_crashes": 1}, seed=0).chaos_ops
        with pytest.raises(ValueError, match="n_crashes"):
            harness_config({"n_crashes": -1}, seed=0)

    def test_crash_indices_are_seeded_and_bounded(self):
        a = _crash_indices(3, 20, seed=4)
        assert a == _crash_indices(3, 20, seed=4)
        assert len(a) == 3 and all(0 <= i < 20 for i in a)
        assert _crash_indices(50, 5, seed=4) == frozenset(range(5))
        assert _crash_indices(0, 20, seed=4) == frozenset()

    def test_crashes_move_no_twin_draw(self):
        base = {"n_requests": 80, "rate_per_s": 0.2, "invalid_frac": 0.1}
        calm = run_loadtest_sim(base, seed=6)
        crashy = run_loadtest_sim(dict(base, n_crashes=3), seed=6)
        assert crashy.census() == calm.census()
        assert crashy.latency_p99_s == calm.latency_p99_s
        assert crashy.loop_restarts == 0  # the twin has no work loops


# ---------------------------------------------------------------------------
# the deterministic twin


def _sim(params=None, seed=11):
    base = {
        "arrivals": "poisson",
        "n_requests": 300,
        "rate_per_s": 0.5,
        "queue_limit": 12,
        "tenant_quota": 6,
        "workers": 4,
        "invalid_frac": 0.05,
    }
    base.update(params or {})
    return run_loadtest_sim(base, seed)


class TestSimLoadtest:
    def test_same_seed_same_census(self):
        a, b = _sim(), _sim()
        a.validate(), b.validate()
        assert a.census() == b.census()
        # not just the censuses: every latency quantile is bit-identical
        da, db = a.as_dict(), b.as_dict()
        for key in da:
            if key in ("wall_s", "harness_rps"):
                continue  # the only wall-clock-dependent fields
            assert da[key] == db[key], key
        json.dumps(da)  # strict-JSON cacheable

    def test_different_seeds_differ(self):
        assert _sim(seed=11).census() != _sim(seed=12).census()

    def test_overload_sheds_against_the_bound(self):
        # offered far above service capacity: the open-loop stream keeps
        # arriving, the admission bound holds, the excess sheds loudly
        report = _sim({"rate_per_s": 5.0, "n_requests": 400})
        report.validate()
        assert report.n_shed > 50
        assert report.shed_fraction > 0.1
        assert report.outstanding_max <= report.outstanding_bound
        assert sum(report.shed.values()) == report.n_shed
        assert report.retry_after_max_s is not None
        # the hint is in wall seconds: bounded by queue rounds of the
        # wall-domain EWMA, never hundreds of virtual seconds
        assert report.retry_after_max_s < 60.0

    def test_underload_settles_everything(self):
        report = _sim({
            "rate_per_s": 0.005, "n_requests": 40, "invalid_frac": 0.0,
            "tight_deadline_frac": 0.0,
        })
        report.validate()
        assert report.n_shed == 0
        assert report.n_accepted == report.n_succeeded == 40
        assert report.latency_p99_s is not None
        assert report.paths.get("vc", 0) == 40  # nothing forced off the VC

    def test_tight_deadlines_degrade_to_ip(self):
        report = _sim({
            "rate_per_s": 0.005, "n_requests": 60, "invalid_frac": 0.0,
            "tight_deadline_frac": 1.0, "tight_deadline_s": 45.0,
        })
        report.validate()
        # a 45 s budget usually cannot absorb the batch-signalling wait
        # (up to 61 s) — most requests leave the VC rung; the few that
        # arrive just before a batch boundary still squeeze onto it
        assert report.paths.get("ip-degraded", 0) > report.paths.get("vc", 0)
        assert sum(report.paths.values()) == report.n_accepted

    def test_invalid_submissions_enter_the_ledger(self):
        report = _sim({"invalid_frac": 0.3, "rate_per_s": 0.01,
                       "n_requests": 100})
        report.validate()
        assert report.n_invalid > 10
        assert (
            report.n_offered
            == report.n_accepted + report.n_shed + report.n_invalid
        )

    def test_sim_twin_reports_no_transport_errors(self):
        report = _sim()
        assert report.n_transport_error == 0
        assert report.as_dict()["n_transport_error"] == 0

    def test_ledger_counts_transport_errors(self):
        report = _sim()
        report.validate()
        report.n_offered += 1
        with pytest.raises(AssertionError, match="ledger"):
            report.validate()
        report.n_transport_error = 1
        report.validate()

    def test_validate_pins_sheds_and_loops(self):
        report = _sim()
        report.validate()
        assert report.n_shed > 0
        bad_reason = dataclasses.replace(
            report, shed={**report.shed, "busy": 0}
        )
        with pytest.raises(AssertionError, match="unknown shed reason"):
            bad_reason.validate()
        no_hint = dataclasses.replace(report, retry_after_max_s=None)
        with pytest.raises(AssertionError, match="retry-after"):
            no_hint.validate()
        dead = dataclasses.replace(report, dead_loops=["worker-0"])
        with pytest.raises(AssertionError, match="dead"):
            dead.validate()

    def test_latency_domain_is_virtual(self):
        report = _sim()
        assert report.mode == "sim"
        assert report.latency_domain == "virtual"
        assert report.duration_s > 0
        assert report.n_outstanding_samples > 0


# ---------------------------------------------------------------------------
# the live open-loop driver


class TestLiveLoadtest:
    def test_in_process_storm_validates(self):
        report = run_loadtest(
            {
                "arrivals": "poisson",
                "n_requests": 30,
                "rate_per_s": 0.08,
                "queue_limit": 8,
                "tenant_quota": 4,
                "workers": 2,
                "time_scale": 3000.0,
                "invalid_frac": 0.1,
            },
            seed=7,
        )
        report.validate()  # ledger, bound, monotone quantiles
        assert report.mode == "live"
        assert report.latency_domain == "wall"
        assert report.n_offered == 30
        # run_loadtest itself cross-checks the client censuses against
        # the daemon's counters; spot-check the interesting slices here
        assert report.n_accepted > 0
        assert report.n_settled == report.n_accepted
        assert report.latency_p99_s is not None
        assert math.isfinite(report.latency_p99_s)
        assert report.n_outstanding_samples > 0
        assert report.outstanding_max <= report.outstanding_bound
        if report.retry_after_max_s is not None:
            # the headline fix: hints come back in *wall* seconds even
            # at time_scale=3000 — never minutes of virtual backoff
            assert report.retry_after_max_s < 30.0
        json.dumps(report.as_dict())

    def test_refused_connections_are_counted_not_fatal(self, monkeypatch):
        from repro.service import loadtest

        real_connect = loadtest.AsyncServiceClient.connect.__func__
        n_fire = 0

        async def flaky_connect(cls, socket_path):
            # refuse every third submission's connect; the status sampler
            # (its own task) always gets through
            nonlocal n_fire
            if asyncio.current_task().get_coro().__name__ == "fire":
                n_fire += 1
                if n_fire % 3 == 0:
                    raise ConnectionRefusedError(111, "Connection refused")
            return await real_connect(cls, socket_path)

        monkeypatch.setattr(
            loadtest.AsyncServiceClient, "connect", classmethod(flaky_connect)
        )
        report = run_loadtest(
            {"arrivals": "poisson", "n_requests": 30, "rate_per_s": 0.08,
             "queue_limit": 8, "tenant_quota": 4, "workers": 2,
             "time_scale": 3000.0},
            seed=7,
        )
        report.validate()
        assert n_fire == 30
        assert report.n_transport_error == 10
        assert report.n_offered == 30
        assert (
            report.n_accepted + report.n_shed + report.n_invalid == 20
        )
        assert report.as_dict()["n_transport_error"] == 10

    def test_crash_storm_keeps_the_soak_contracts(self, monkeypatch):
        """Seeded loop panics under a full fault storm: the daemon drains,
        loses nothing, agrees with the client and restarts every loop."""
        from repro.service import loadtest
        from repro.service.daemon import EXIT_DRAINED

        daemons, exits = [], []

        class SpyDaemon(loadtest.TransferDaemon):
            async def serve(self, *args, **kwargs):
                daemons.append(self)
                exits.append(await super().serve(*args, **kwargs))
                return exits[-1]

        monkeypatch.setattr(loadtest, "TransferDaemon", SpyDaemon)
        report = run_loadtest(
            {
                "arrivals": "poisson",
                "n_requests": 24,
                "rate_per_s": 0.05,
                "n_tenants": 2,
                "queue_limit": 8,
                "tenant_quota": 4,
                "n_crashes": 2,
                "invalid_frac": 0.15,
                "reject_prob": 0.3,
                "setup_timeout_prob": 0.2,
                "flaps_per_hour": 12.0,
            },
            seed=5,
        )
        report.validate()
        json.dumps(report.as_dict())  # cacheable
        assert exits == [EXIT_DRAINED]
        (daemon,) = daemons
        assert daemon.config.chaos_ops
        # every accepted request settled: nothing lost at drain
        assert report.n_settled == report.n_accepted
        assert daemon.metrics.n_lost == 0
        # the full ledger, on both sides of the socket
        assert report.n_transport_error == 0
        assert report.n_offered == (
            report.n_accepted + report.n_shed + report.n_invalid
        )
        m = daemon.metrics
        assert (m.n_submitted, m.n_accepted, m.n_shed, m.n_invalid) == (
            report.n_offered, report.n_accepted, report.n_shed,
            report.n_invalid,
        )
        assert report.n_invalid > 0
        # crashed loops restarted under supervision, none died
        assert report.loop_restarts >= 1
        assert report.loop_restarts == daemon.supervisor.n_restarts
        assert report.dead_loops == []
        # the admission bound held at every sampled observation
        assert report.n_outstanding_samples > 0
        assert report.outstanding_max <= report.outstanding_bound == 8

    def test_a_refused_crash_op_fails_the_run(self, monkeypatch):
        from repro.service import loadtest

        real_config = loadtest.harness_config

        def without_chaos_ops(params, seed, *args):
            return dataclasses.replace(
                real_config(params, seed, *args), chaos_ops=False
            )

        monkeypatch.setattr(loadtest, "harness_config", without_chaos_ops)
        with pytest.raises(RuntimeError, match="refused the crash op"):
            run_loadtest(
                {"n_requests": 6, "rate_per_s": 0.05, "n_crashes": 1},
                seed=2,
            )

    def test_registered_as_a_scenario(self):
        from repro.experiments.registry import get_scenario

        fn = get_scenario("service_loadtest")
        assert callable(fn)
        result = fn(
            {"mode": "sim", "n_requests": 20, "rate_per_s": 0.02},
            seed=3,
        )
        json.dumps(result)
        assert result["mode"] == "sim"
        assert (
            result["n_offered"]
            == result["n_accepted"] + result["n_shed"] + result["n_invalid"]
        )

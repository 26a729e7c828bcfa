"""Unit and property tests for the pluggable scheduling core.

Covers the :mod:`repro.sched` seam itself (factory, registry, decision
defaults), the three policies behind it (fcfs / predictive / global),
the comparison campaign, and — via hypothesis — the contract that
*scheduler choice never breaks the submission-ledger invariants* of the
deterministic load-test twin.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.base import (
    SCHEDULER_NAMES,
    SchedulerConfig,
    make_scheduler,
)
from repro.sched.fcfs import FcfsScheduler
from repro.sched.globalsched import GlobalScheduler, dispatch_priority
from repro.sched.predictive import (
    FixedRatePredictor,
    OnlineThroughputPredictor,
    PredictiveScheduler,
    prediction_error_cost_curve,
)
from repro.service.budget import DeadlineBudget, PathChoice, plan_path
from repro.service.loadtest import run_loadtest_sim


def _budget(deadline_s, now=0.0):
    return DeadlineBudget(deadline_s, lambda: now)


class _Req:
    """Duck-typed pending request (the sim twin's shape)."""

    def __init__(self, total_bytes, deadline_s=None):
        self.total_bytes = total_bytes
        self.budget = _budget(deadline_s)


class TestFactory:
    def test_registry_names(self):
        assert SCHEDULER_NAMES() == ("fcfs", "global", "predictive")

    def test_make_scheduler_by_name(self):
        for name, cls in [
            ("fcfs", FcfsScheduler),
            ("predictive", PredictiveScheduler),
            ("global", GlobalScheduler),
        ]:
            sched = make_scheduler(name)
            assert isinstance(sched, cls)
            assert sched.name == name

    def test_unknown_name_is_a_clear_error(self):
        with pytest.raises(ValueError, match="unknown scheduler 'lottery'"):
            make_scheduler("lottery")
        with pytest.raises(ValueError, match="fcfs, global, predictive"):
            make_scheduler("lottery")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(workers=0)
        with pytest.raises(ValueError):
            SchedulerConfig(vc_rate_bps=-1.0)
        with pytest.raises(ValueError):
            SchedulerConfig(vc_safety_factor=0.5)


class TestSeamDefaults:
    def test_fcfs_plan_is_plan_path(self):
        """The baseline ladder is literally :func:`plan_path`."""
        c = SchedulerConfig()
        sched = FcfsScheduler(c)
        for deadline, size in [(None, 8e9), (50.0, 8e9), (5000.0, 64e9)]:
            got = sched.plan(_budget(deadline), size, 12.0)
            want = plan_path(
                _budget(deadline),
                size,
                c.vc_rate_bps,
                c.ip_rate_bps,
                12.0,
                safety_factor=c.vc_safety_factor,
            )
            assert got == want

    def test_fcfs_queue_is_fifo(self):
        sched = make_scheduler("fcfs")
        reqs = [_Req(1e9), _Req(2e9), _Req(3e9)]
        for r in reqs:
            sched.enqueue(r)
        assert sched.n_pending == 3
        assert [sched.next_request() for _ in range(3)] == reqs
        assert sched.next_request() is None

    def test_rate_advice_default_is_nominal(self):
        sched = make_scheduler("fcfs", SchedulerConfig(vc_rate_bps=3e9))
        assert sched.rate_advice(1e9) == 3e9

    def test_reservation_window_float_order(self):
        """The window formula preserves the historical float arithmetic."""
        sched = make_scheduler("fcfs")
        start, end = sched.reservation_window(200.0, 37.5, horizon_factor=2.0)
        assert start == 200.0
        assert end == 200.0 + 0.0 + 2.0 * 37.5 + 600.0
        start, end = sched.reservation_window(
            10.0, 5.0, worst_case_setup_s=60.0
        )
        assert end == 10.0 + 60.0 + 3.0 * 5.0 + 600.0

    def test_admission_is_owned_by_the_scheduler(self):
        sched = make_scheduler("fcfs", SchedulerConfig(tenant_quota=1))
        assert sched.admit("a").admitted
        assert not sched.admit("a").admitted  # quota
        sched.on_settle("a", started=False)
        assert sched.admit("a").admitted


class TestGlobalScheduler:
    def test_dispatch_priority_edf_before_lpt(self):
        tight = _Req(1e9, deadline_s=10.0)
        loose = _Req(1e9, deadline_s=500.0)
        big = _Req(50e9)
        small = _Req(1e9)
        keys = sorted(
            [big, tight, small, loose], key=dispatch_priority
        )
        assert keys == [tight, loose, big, small]

    def test_dispatch_priority_duck_types_daemon_requests(self):
        class _Task:
            total_bytes = 7e9

        class _DaemonReq:
            task = _Task()
            budget = _budget(30.0)

        key = dispatch_priority(_DaemonReq())
        assert key[0] == 0 and key[1] == pytest.approx(30.0)

    def test_next_request_scans_the_whole_pending_set(self):
        sched = make_scheduler("global")
        a, b, c = _Req(2e9), _Req(9e9, deadline_s=60.0), _Req(30e9)
        for r in (a, b, c):
            sched.enqueue(r)
        assert sched.next_request() is b   # deadline first (EDF)
        assert sched.next_request() is c   # then LPT among unbounded
        assert sched.next_request() is a
        assert sched.next_request() is None


class TestPredictor:
    def test_warmup_returns_none(self):
        p = OnlineThroughputPredictor(min_samples=4)
        for _ in range(3):
            p.observe(1e9, 1e9)
        assert p.predict(1e9) is None
        p.observe(1e9, 1e9)
        assert p.predict(1e9) == pytest.approx(1e9)

    def test_fit_converges_on_a_line(self):
        p = OnlineThroughputPredictor(min_samples=4)
        # throughput = 1e8 * log10(size): bigger transfers amortize startup
        for exp in (8, 9, 10, 11, 8, 9, 10, 11):
            p.observe(10.0**exp, 1e8 * exp)
        assert p.predict(1e10) == pytest.approx(1e9, rel=1e-6)

    def test_clamps_to_floor_and_cap(self):
        p = OnlineThroughputPredictor(min_samples=2, floor_bps=1e6, cap_bps=2e9)
        p.observe(1e6, 5e9)
        p.observe(1e12, 5e9)
        assert p.predict(1e9) == 2e9
        down = OnlineThroughputPredictor(min_samples=2, floor_bps=1e6)
        down.observe(1e6, 1e9)
        down.observe(1e12, 1.0)  # steep negative slope
        assert down.predict(1e15) == 1e6

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineThroughputPredictor(min_samples=1)
        with pytest.raises(ValueError):
            FixedRatePredictor(0.0)


class TestPredictiveScheduler:
    def test_cold_predictor_matches_fcfs(self):
        c = SchedulerConfig()
        pred = PredictiveScheduler(c)
        base = FcfsScheduler(c)
        assert pred.predicted_vc_rate(8e9) == c.vc_rate_bps
        assert pred.plan(_budget(100.0), 8e9, 5.0) == base.plan(
            _budget(100.0), 8e9, 5.0
        )
        assert pred.rate_advice(8e9) == c.vc_rate_bps  # capped at nominal

    def test_slow_history_degrades_what_nominal_would_ride(self):
        c = SchedulerConfig(vc_rate_bps=1.6e9, ip_rate_bps=4e8)
        sched = PredictiveScheduler(
            c, predictor=FixedRatePredictor(c.vc_rate_bps / 20.0)
        )
        size = 8e9
        # at nominal the VC fits this budget; at the predicted rate the
        # safety-inflated ride does not, so the plan degrades up front
        budget_s = 8.0 + size * 8.0 / c.vc_rate_bps * c.vc_safety_factor + 1.0
        base = FcfsScheduler(c).plan(_budget(budget_s), size, 8.0)
        assert base.choice is PathChoice.VC
        plan = sched.plan(_budget(budget_s), size, 8.0)
        assert plan.choice is PathChoice.IP_DEGRADED

    def test_observe_trains_on_vc_rides_only(self):
        sched = PredictiveScheduler(SchedulerConfig())
        sched.observe(8e9, 40.0, "ip")
        assert sched.predictor.n == 0
        sched.observe(8e9, 40.0, "vc")
        assert sched.predictor.n == 1
        sched.observe(8e9, 0.0, "vc")  # zero elapsed: ignored
        assert sched.predictor.n == 1

    def test_observe_never_draws_rng(self):
        """The seam contract that keeps fcfs bit-exact holds for all."""
        for name in SCHEDULER_NAMES():
            sched = make_scheduler(name)
            sched.observe(8e9, 40.0, "vc")  # no rng attribute to draw from


class TestCostCurve:
    def test_oracle_costs_are_zero(self):
        params = {"n_requests": 40, "rate_per_s": 0.5, "queue_limit": 8}
        out = prediction_error_cost_curve(params, seed=5, biases=(0.5, 1.0))
        oracle = next(r for r in out["curve"] if r["bias"] == 1.0)
        assert oracle["blocking_cost"] == 0.0
        assert oracle["goodput_cost_bps"] == 0.0
        assert oracle["expired_cost"] == 0.0

    def test_biases_must_include_the_oracle(self):
        with pytest.raises(ValueError, match="oracle"):
            prediction_error_cost_curve({}, seed=0, biases=(0.5, 2.0))


class TestComparisonCampaign:
    def test_three_way_comparison_reports_deltas(self):
        from repro.sched.compare import run_sched_comparison

        out = run_sched_comparison(
            {"n_requests": 60, "rate_per_s": 0.5, "queue_limit": 10}, seed=11
        )
        assert out["schedulers"] == ["fcfs", "predictive", "global"]
        for name in out["schedulers"]:
            row = out["results"][name]
            census = row["census"]
            assert (
                census["n_offered"]
                == census["n_accepted"] + census["n_shed"] + census["n_invalid"]
            )
            assert row["makespan_s"] > 0
        assert set(out["vs_fcfs"]) == {"predictive", "global"}
        for deltas in out["vs_fcfs"].values():
            assert set(deltas) == {
                "blocking_rate", "goodput_bps", "makespan_s", "expired_frac"
            }

    def test_same_workload_every_policy(self):
        """The offered census is policy-independent (same schedule/mix)."""
        from repro.sched.compare import run_sched_comparison

        out = run_sched_comparison(
            {"n_requests": 80, "rate_per_s": 1.0, "invalid_frac": 0.1}, seed=3
        )
        # only n_offered is workload: an injected-invalid submission that
        # arrives while admission is saturated sheds *before* validation,
        # so n_invalid is an outcome and may differ between policies
        offered = {
            r["census"]["n_offered"] for r in out["results"].values()
        }
        assert offered == {80}

    def test_unknown_policy_fails_fast(self):
        from repro.sched.compare import run_sched_comparison

        with pytest.raises(ValueError, match="unknown scheduler"):
            run_sched_comparison(
                {"n_requests": 10, "schedulers": ["fcfs", "lottery"]}, seed=0
            )


class TestLedgerInvariantProperties:
    """Scheduler choice never breaks the twin's submission ledger."""

    @given(
        name=st.sampled_from(["fcfs", "predictive", "global"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=3, max_value=40),
        rate=st.floats(min_value=0.05, max_value=2.0),
        queue_limit=st.integers(min_value=2, max_value=16),
        tenant_quota=st.integers(min_value=1, max_value=8),
        invalid_frac=st.floats(min_value=0.0, max_value=0.3),
        tight_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_ledger_balances_for_every_policy(
        self, name, seed, n, rate, queue_limit, tenant_quota,
        invalid_frac, tight_frac,
    ):
        report = run_loadtest_sim(
            {
                "scheduler": name,
                "n_requests": n,
                "rate_per_s": rate,
                "queue_limit": queue_limit,
                "tenant_quota": tenant_quota,
                "invalid_frac": invalid_frac,
                "tight_deadline_frac": tight_frac,
            },
            seed,
        )
        report.validate()  # ledger, shed census, bound, monotone quantiles
        assert report.scheduler == name
        assert report.n_offered == n
        assert report.n_settled == report.n_accepted
        assert 0.0 <= report.availability <= 1.0
        if report.fairness_jain is not None:
            assert 0.0 < report.fairness_jain <= 1.0 + 1e-12
        assert report.goodput_bps >= 0.0
        assert math.isfinite(report.goodput_bps)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_offered_workload_is_policy_invariant(self, seed):
        """All policies face the identical arrival schedule and mix."""
        censuses = {}
        for name in ("fcfs", "predictive", "global"):
            r = run_loadtest_sim(
                {"scheduler": name, "n_requests": 20, "rate_per_s": 0.5},
                seed,
            )
            censuses[name] = (r.n_offered, r.n_invalid)
        assert len(set(censuses.values())) == 1


class TestSeamPlumbing:
    def test_daemon_config_rejects_unknown_scheduler(self):
        from repro.service.daemon import DaemonConfig

        with pytest.raises(ValueError, match="unknown scheduler"):
            DaemonConfig(socket_path="/tmp/x.sock", scheduler="lottery")

    def test_provisioner_consults_the_scheduler(self):
        """A policy can hold a circuit in RESERVED; it provisions later."""
        from repro.net.topology import esnet_like
        from repro.sim.engine import EventLoop
        from repro.vc.circuits import CircuitState, HardwareSignalling
        from repro.vc.oscars import OscarsIDC, ReservationRequest
        from repro.vc.provisioner import AutoProvisioner

        class _DeferUntil(FcfsScheduler):
            def __init__(self, release_at):
                super().__init__()
                self.release_at = release_at
                self.asked = 0

            def approve_provision(self, circuit, now):
                self.asked += 1
                return now >= self.release_at

        idc = OscarsIDC(esnet_like(), setup_delay=HardwareSignalling(0.0))
        loop = EventLoop(0.0)
        sched = _DeferUntil(release_at=170.0)
        prov = AutoProvisioner(idc, loop, batch_window_s=60.0, scheduler=sched)
        vc = idc.create_reservation(
            ReservationRequest("NERSC", "ORNL", 1e9, 90.0, 10_000.0),
            request_time=0.0,
        )
        prov.start()
        loop.run(until=400.0)
        assert sched.asked >= 2  # deferred at 120, asked again later
        assert idc.circuit(vc.circuit_id).state is CircuitState.ACTIVE
        provisioned = [
            a for a in prov.actions if a.action == "provisioned"
        ]
        assert provisioned[0].time == 180.0  # first boundary past release

    def test_managed_service_pick_next_hook(self):
        from repro.gridftp.transfer_service import ManagedTransferService

        order: list[int] = []

        def lpt(tasks):
            tid = min(tasks, key=dispatch_priority).task_id
            order.append(tid)
            return tid

        svc = ManagedTransferService(
            rate_for=lambda s, d: 1e9, concurrency=1, pick_next=lpt
        )
        small = svc.submit(0, 1, [1e9], submitted_at=0.0)
        big = svc.submit(0, 1, [9e9], submitted_at=0.0)
        svc.run()
        # LPT: the big task jumps the FIFO queue at first activation
        assert order == [big, small]

    def test_managed_service_pick_next_must_return_a_queued_task(self):
        from repro.gridftp.transfer_service import ManagedTransferService

        svc = ManagedTransferService(
            rate_for=lambda s, d: 1e9, pick_next=lambda tasks: 999
        )
        svc.submit(0, 1, [1e9], submitted_at=0.0)
        with pytest.raises(ValueError, match="pick_next"):
            svc.run()

    def test_latency_sweep_table_needs_latency_cells(self):
        from repro.service.loadtest import latency_sweep_table

        with pytest.raises(ValueError, match="latency"):
            latency_sweep_table({"upstream": []})

    def test_chaos_campaign_accepts_policy_names(self):
        from repro.experiments.campaigns import ChaosConfig, run_chaos

        config = ChaosConfig(n_jobs=2, job_bytes=2e9)
        with pytest.raises(ValueError, match="unknown scheduler"):
            run_chaos(config, seed=0, scheduler="lottery")
        report = run_chaos(config, seed=0, scheduler="global")
        assert report.n_jobs == 2

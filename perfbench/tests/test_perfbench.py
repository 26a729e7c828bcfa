"""Self-tests for the benchmark: contract limits, the driver, the tracer.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

import driver
import tracing
import workloads
from driver import PhaseResult, drive_phase

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the BENCHMARK.json contract ----------------------------------------------


def test_metric_names_units_and_limits(contract):
    e2e, layers = contract["end_to_end"], contract["per_layer"]
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for m in e2e + layers:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in layers:
        assert set(m) == {"name", "unit", "better"}


def test_setup_metric_has_the_largest_bound(contract):
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_workloads_are_declared_and_implemented(contract):
    names = [w["name"] for w in contract["workloads"]]
    assert 2 <= len(names) <= 8
    assert set(names) == set(workloads.WORKLOADS)
    for w in contract["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    assert contract["paths"] == ["perfbench"]
    assert 1 <= contract["run_seconds"] <= 60


def test_daemon_rates_are_ordered():
    for wl in workloads.DAEMON_WORKLOADS.values():
        assert wl.calm < wl.knee < wl.overload


# -- driver arithmetic ---------------------------------------------------------


def test_ledger_balances_only_when_every_offer_is_accounted():
    res = PhaseResult(offered=10, accepted=6, shed=2, invalid=1, transport_error=1)
    assert res.ledger_balanced()
    res.transport_error = 0
    assert not res.ledger_balanced()


def test_phase_offsets_are_seeded_and_bounded():
    a = workloads.phase_offsets(200.0, 2.0, seed=7)
    b = workloads.phase_offsets(200.0, 2.0, seed=7)
    c = workloads.phase_offsets(200.0, 2.0, seed=8)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert np.all(np.diff(a) > 0) and a[-1] < 2.0
    assert 300 < len(a) < 500


# -- the driver against a stub server --------------------------------------------


async def _stub_server(path: str, wait_delay_s: float, close_after: int | None):
    """Answers submit/status/wait like the daemon; optionally drops conn 1."""
    ids = iter(range(1, 1 << 30))
    n_submits = 0

    async def handle(reader, writer):
        nonlocal n_submits
        while True:
            raw = await reader.readline()
            if not raw:
                break
            msg = json.loads(raw)
            if msg["op"] == "submit":
                n_submits += 1
                if close_after is not None and n_submits > close_after:
                    writer.close()
                    return
                resp = {"ok": True, "status": "accepted", "request_id": next(ids)}
            elif msg["op"] == "status":
                resp = {"ok": True, "status": {
                    "queue_depth": 0, "outstanding": 0, "queue_limit": 4,
                    "metrics": {"n_accepted": 0}}}
            else:
                await asyncio.sleep(wait_delay_s)
                resp = {"ok": True, "state": "succeeded", "path": "vc"}
            writer.write((json.dumps(resp) + "\n").encode())
            await writer.drain()
        writer.close()

    return await asyncio.start_unix_server(handle, path=path)


def _drive_stub(tmp_path, offsets, wait_delay_s=0.0, close_after=None):
    path = str(tmp_path / "stub.sock")

    async def go():
        server = await _stub_server(path, wait_delay_s, close_after)
        try:
            return await drive_phase(path, np.asarray(offsets), 1.0,
                                     status_every_s=0.01, settle_timeout_s=5.0)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(go())


def test_presettled_means_the_wait_came_back_within_the_threshold(
        tmp_path, monkeypatch):
    # a threshold far above loop overhead (even under ``-X dev``) and far
    # below the stub's slow answer makes the split deterministic
    monkeypatch.setattr(driver, "PRESETTLED_RTT_S", 0.02)
    fast = _drive_stub(tmp_path, [0.0, 0.01, 0.02, 0.03])
    assert fast.accepted == 4 and fast.ledger_balanced()
    assert fast.presettled == 4
    slow = _drive_stub(tmp_path, [0.0, 0.01], wait_delay_s=0.05)
    assert slow.presettled == 0


def test_latency_runs_from_the_scheduled_send(tmp_path):
    # every wait takes 30 ms, and waits are serial on connection 2, so the
    # k-th request (all due at t=0) cannot be answered before 30 ms * k
    res = _drive_stub(tmp_path, [0.0] * 5, wait_delay_s=0.03)
    lat = sorted(res.latencies_s)
    for k, x in enumerate(lat, start=1):
        assert x >= 0.03 * k - 1e-3


def test_reset_connection_is_a_transport_error_not_an_abort(tmp_path):
    res = _drive_stub(tmp_path, [0.0, 0.01, 0.02, 0.03, 0.04, 0.05],
                      close_after=3)
    assert res.offered == 6
    assert res.accepted >= 3 and res.transport_error >= 1
    assert res.ledger_balanced()


# -- the driver against an embedded daemon ------------------------------------


def test_embedded_daemon_ledger_and_latency(tmp_path):
    from repro.service.daemon import DaemonConfig, TransferDaemon

    path = str(tmp_path / "d.sock")
    config = DaemonConfig(socket_path=path, workers=4, time_scale=3000.0,
                          queue_limit=6, tenant_quota=6, drain_grace_s=2.0)
    daemon = TransferDaemon(config)
    # 8 requests due at once against queue_limit 6: some must be shed,
    # then a stall of the shared event loop makes later sends late
    offsets = np.array([0.0] * 8 + [0.10, 0.11, 0.12])

    async def stall():
        # drive_phase starts its clock 50 ms after it is called; block the
        # loop over the last three send times (t0 + 0.09 .. 0.14)
        await asyncio.sleep(0.05 + 0.09)
        time.sleep(0.05)  # blocks every coroutine, the sender included

    async def go():
        ready = asyncio.Event()
        serving = asyncio.ensure_future(daemon.serve(ready, install_signals=False))
        await ready.wait()
        staller = asyncio.ensure_future(stall())
        res = await drive_phase(path, offsets, 4e9, status_every_s=0.001)
        await staller
        daemon.request_drain()
        await serving
        return res

    res = asyncio.run(go())
    m = daemon.metrics
    assert res.ledger_balanced()
    assert res.shed >= 2
    assert (m.n_submitted, m.n_accepted, m.n_shed) == (res.offered, res.accepted, res.shed)
    assert m.n_lost == 0 and res.settled == res.accepted
    assert all(o <= lim for _, o, lim in res.samples)
    # the stalled sends went out late, and their latency (from the
    # scheduled time) includes that lateness
    late_tail = res.late_s[-3:]
    assert min(late_tail) > 0.01
    for latency, late in zip(res.latencies_s[-3:], late_tail):
        assert latency > late


# -- the tracer -----------------------------------------------------------------


def test_self_time_subtracts_children():
    tr = tracing.Tracer()

    def leaf():
        time.sleep(0.01)

    leaf_t = tr.wrap("leaf", leaf)

    def outer():
        leaf_t()
        leaf_t()
        time.sleep(0.01)

    tr.wrap("outer", outer)()
    tbl = tr.table()
    assert tbl["leaf"]["calls"] == 2 and tbl["outer"]["calls"] == 1
    assert tbl["outer"]["total_ms"] >= 30
    assert 8 <= tbl["outer"]["self_ms"] < tbl["outer"]["total_ms"] - 15
    parents = [s[3] for s in tr.spans]
    assert parents[0] == -1 and parents[1] == parents[2] == 0


def test_chrome_trace_is_valid_json(tmp_path):
    tr = tracing.Tracer()
    tr.wrap("a.b", lambda: None)()
    tr.write_chrome(tmp_path / "t.json")
    doc = json.loads((tmp_path / "t.json").read_text())
    (ev,) = doc["traceEvents"]
    assert ev["ph"] == "X" and ev["name"] == "a.b" and ev["cat"] == "a"
    assert ev["dur"] >= 0


def test_run_refuses_a_tree_without_sources(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "daemon-vc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Open-loop driver for a live transfer daemon over two control connections.

Connection 1 sends ``submit`` (``wait: false``) at each scheduled instant
and interleaves ``status`` samples; the daemon answers lines of one
connection in order, so replies are matched first-in, first-out.
Connection 2 issues ``wait`` in request-id order.  Latency runs from the
*scheduled* send time to the ``wait`` reply, so a stalled daemon (or a
late generator) is charged to every request it delays.  Send times never
slip: a late sender catches up by writing every overdue line at once.

Single-file requests of one size under fcfs settle in submission order,
which is what makes in-order waiting exact.  A ``wait`` that answers
within :data:`PRESETTLED_RTT_S` of being sent found its request already
settled; the share of those is reported so a run whose latencies are
upper bounds rather than exact can be spotted.

A reset or refused connection never aborts a phase: every submission
that got no reply is a ``transport_error``, the connection is reopened
for later sends, and the ledger
``offered == accepted + shed + invalid + transport_error`` still holds.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from typing import Any

import numpy as np

from repro.service.api import MAX_LINE_BYTES

__all__ = [
    "PRESETTLED_RTT_S",
    "PhaseResult",
    "drive_phase",
]

#: a ``wait`` answered this fast found its request already settled
PRESETTLED_RTT_S = 0.001

#: the first send is scheduled this long after :func:`drive_phase` starts
_LEAD_S = 0.05


@dataclasses.dataclass
class PhaseResult:
    """Everything one open-loop phase observed, client side."""

    offered: int = 0
    accepted: int = 0
    shed: int = 0
    invalid: int = 0
    transport_error: int = 0
    #: accepted requests whose ``wait`` could not be answered
    wait_errors: int = 0
    #: terminal state census of accepted requests ("succeeded", ...)
    states: dict[str, int] = dataclasses.field(default_factory=dict)
    #: path census of settled requests ("vc", "ip-degraded", ...)
    paths: dict[str, int] = dataclasses.field(default_factory=dict)
    #: scheduled-send -> wait-reply seconds, succeeded requests only
    latencies_s: list[float] = dataclasses.field(default_factory=list)
    #: actual minus scheduled send time, seconds, per submission
    late_s: list[float] = dataclasses.field(default_factory=list)
    presettled: int = 0
    #: (queue_depth, outstanding, queue_limit) per status sample
    samples: list[tuple[int, int, int]] = dataclasses.field(default_factory=list)
    #: the daemon's counters from the last status sample of the phase
    final_status: dict[str, Any] | None = None
    #: wall seconds from the first scheduled send to the last reply
    wall_s: float = 0.0

    @property
    def settled(self) -> int:
        return sum(self.states.values())

    def ledger_balanced(self) -> bool:
        return self.offered == (
            self.accepted + self.shed + self.invalid + self.transport_error
        )


class _Conn:
    """One control connection: line-framed JSON out, one reply per line in."""

    def __init__(self, socket_path: str) -> None:
        self.socket_path = socket_path
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def open(self) -> bool:
        try:
            self.reader, self.writer = await asyncio.open_unix_connection(
                self.socket_path, limit=MAX_LINE_BYTES
            )
            return True
        except OSError:
            self.reader = self.writer = None
            return False

    def send(self, body: dict[str, Any]) -> bool:
        if self.writer is None or self.writer.is_closing():
            return False
        try:
            self.writer.write((json.dumps(body) + "\n").encode())
            return True
        except OSError:
            return False

    async def recv(self) -> dict[str, Any]:
        if self.reader is None:
            raise ConnectionError("not connected")
        raw = await self.reader.readline()
        if not raw:
            raise ConnectionError("daemon closed the connection")
        return json.loads(raw)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
        self.reader = self.writer = None


async def drive_phase(
    socket_path: str,
    offsets_s: np.ndarray,
    file_size: float,
    deadline_s: float | None = None,
    status_every_s: float = 0.05,
    settle_timeout_s: float = 30.0,
) -> PhaseResult:
    """Drive one open-loop phase against the daemon at ``socket_path``."""
    loop = asyncio.get_running_loop()
    res = PhaseResult(offered=len(offsets_s))
    submit_body: dict[str, Any] = {
        "op": "submit", "tenant": "bench", "file_sizes": [file_size],
        "wait": False,
    }
    if deadline_s is not None:
        submit_body["deadline_s"] = deadline_s
    conn1, conn2 = _Conn(socket_path), _Conn(socket_path)
    await conn1.open()
    await conn2.open()
    t0 = loop.time() + _LEAD_S
    #: what each conn-1 reply answers, in send order: submit index or None
    expect: asyncio.Queue[int | None] = asyncio.Queue()
    #: (submit index, request id) of accepted requests, in id order
    accepted: asyncio.Queue[tuple[int, int] | None] = asyncio.Queue()

    async def reply_reader() -> None:
        """Match conn-1 replies to what was sent, until the conn dies."""
        while True:
            kind = await expect.get()
            if kind == -1:  # end of phase
                return
            try:
                msg = await conn1.recv()
            except (ConnectionError, OSError, ValueError):
                # this and every reply still owed on the dead conn is lost
                if kind is not None:
                    res.transport_error += 1
                while not expect.empty():
                    k = expect.get_nowait()
                    if k == -1:
                        return
                    if k is not None:
                        res.transport_error += 1
                return
            if kind is None:
                status = msg.get("status") if msg.get("ok") else None
                if isinstance(status, dict):
                    res.samples.append((
                        int(status["queue_depth"]),
                        int(status["outstanding"]),
                        int(status["queue_limit"]),
                    ))
                    res.final_status = status
                continue
            if msg.get("ok") and msg.get("status") == "accepted":
                res.accepted += 1
                accepted.put_nowait((kind, int(msg["request_id"])))
            elif msg.get("status") == "rejected":
                res.shed += 1
            else:
                res.invalid += 1

    async def sender() -> None:
        reader = asyncio.ensure_future(reply_reader())
        next_status = 0.0
        i = 0
        n = len(offsets_s)
        while i < n:
            due = t0 + float(offsets_s[i])
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            now = loop.time()
            # write every line that is due now: sends never slip
            while i < n and t0 + float(offsets_s[i]) <= now:
                if reader.done():
                    # the connection died: reopen it for later sends
                    await conn1.close()
                    if await conn1.open():
                        reader = asyncio.ensure_future(reply_reader())
                res.late_s.append(now - (t0 + float(offsets_s[i])))
                if not reader.done() and conn1.send(submit_body):
                    expect.put_nowait(i)
                else:
                    res.transport_error += 1
                i += 1
                if now - t0 >= next_status:
                    next_status = now - t0 + status_every_s
                    if not reader.done() and conn1.send({"op": "status"}):
                        expect.put_nowait(None)
            if conn1.writer is not None:
                try:
                    await conn1.writer.drain()
                except OSError:
                    pass
        # let every submit reply land, then one closing status sample
        if not reader.done() and conn1.send({"op": "status"}):
            expect.put_nowait(None)
        expect.put_nowait(-1)
        await reader

    async def waiter() -> None:
        while True:
            item = await accepted.get()
            if item is None:
                return
            index, rid = item
            if conn2.writer is None and not await conn2.open():
                res.wait_errors += 1
                continue
            sent_at = loop.time()
            try:
                conn2.send({"op": "wait", "request_id": rid})
                msg = await asyncio.wait_for(conn2.recv(), settle_timeout_s)
            except (ConnectionError, OSError, ValueError, asyncio.TimeoutError):
                res.wait_errors += 1
                await conn2.close()
                continue
            got = loop.time()
            if got - sent_at <= PRESETTLED_RTT_S:
                res.presettled += 1
            state = str(msg.get("state"))
            res.states[state] = res.states.get(state, 0) + 1
            if msg.get("path") is not None:
                path = str(msg["path"])
                res.paths[path] = res.paths.get(path, 0) + 1
            if state == "succeeded":
                res.latencies_s.append(got - (t0 + float(offsets_s[index])))

    wait_task = asyncio.ensure_future(waiter())
    await sender()
    accepted.put_nowait(None)
    await wait_task
    res.wall_s = loop.time() - t0
    await conn1.close()
    await conn2.close()
    return res

"""Ext: IDC control-plane cost stays flat with daemon uptime.

The transfer daemon asks the OSCARS-like IDC for one circuit per VC
request and tears it down early when the ride ends, so each link's
calendar keeps a truncated head for every circuit it ever carried.  This
bench drives that request pattern through ``create_reservation`` +
``teardown(now=...)`` sequentially: 16 rides in flight, 64 s rides, a
request every 8 virtual seconds, 0.5 Gbps circuits on ANL--NERSC.  It
times the first 10k requests and the 10k that end at request 40k.  The
per-request CPU of the later block must stay within 1.5x of the first,
although the calendar history has grown fourfold (it is not pruned).
"""

import collections
import time

from repro.net.topology import esnet_like
from repro.vc.oscars import OscarsIDC, ReservationRequest

RATE_BPS = 0.5e9
RIDE_S = 64.0
ARRIVAL_S = 8.0
# the daemon's window: worst-case setup + 3x the transfer estimate + 600 s
WINDOW_S = 61.0 + 3 * RIDE_S + 600.0
BLOCK = 10_000
N_REQUESTS = 40_000


def drive(n_requests: int, block: int) -> tuple[list[float], int]:
    """Per-request CPU ms of each ``block`` of requests, and the calendar
    entry count on the access link at the end."""
    idc = OscarsIDC(esnet_like())
    riding: collections.deque[tuple[float, int]] = collections.deque()
    per_req_ms = []
    t_block = time.process_time()
    for i in range(n_requests):
        now = i * ARRIVAL_S
        while riding and riding[0][0] <= now:
            ride_end, circuit_id = riding.popleft()
            idc.teardown(circuit_id, now=ride_end)
        vc = idc.create_reservation(
            ReservationRequest("ANL", "NERSC", RATE_BPS, now, now + WINDOW_S),
            request_time=now,
        )
        riding.append((vc.start_time + RIDE_S, vc.circuit_id))
        if (i + 1) % block == 0:
            t = time.process_time()
            per_req_ms.append((t - t_block) * 1e3 / block)
            t_block = t
    book = idc.scheduler._books[("ANL", "rt-chic")]
    return per_req_ms, len(book.starts)


def test_ext_idc_cost_flat_with_uptime(benchmark):
    per_req_ms, entries = benchmark.pedantic(
        lambda: drive(N_REQUESTS, BLOCK), rounds=1, iterations=1
    )
    print()
    print("Ext: IDC CPU per request vs uptime (create_reservation + teardown)")
    for k, ms in enumerate(per_req_ms, start=1):
        print(f"  requests {(k - 1) * BLOCK:6d}-{k * BLOCK:6d}: {ms:.3f} ms/req")
    print(f"  calendar entries on ANL--rt-chic at the end: {entries}")
    # history is kept: every request left an entry on the access link
    assert entries == N_REQUESTS
    assert per_req_ms[-1] <= 1.5 * per_req_ms[0]

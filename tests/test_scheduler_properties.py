"""Property tests for the admission scheduler (hypothesis)."""

import bisect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.topology import Topology, esnet_like
from repro.vc.scheduler import AdmissionError, BandwidthScheduler

_TOPO = esnet_like()
_PATHS = [
    _TOPO.path("NERSC", "ORNL"),
    _TOPO.path("SLAC", "BNL"),
    _TOPO.path("NCAR", "ANL"),
]


@st.composite
def reservation_sequence(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    out = []
    for _ in range(n):
        path_idx = draw(st.integers(min_value=0, max_value=len(_PATHS) - 1))
        rate = draw(st.floats(min_value=0.1e9, max_value=6e9))
        start = draw(st.floats(min_value=0.0, max_value=5_000.0))
        length = draw(st.floats(min_value=1.0, max_value=3_000.0))
        out.append((path_idx, rate, start, start + length))
    return out


class TestSchedulerProperties:
    @given(reservation_sequence())
    @settings(max_examples=60, deadline=None)
    def test_never_oversubscribed(self, seq):
        """Whatever gets admitted, no instant commits more than the limit."""
        sched = BandwidthScheduler(_TOPO, reservable_fraction=0.9)
        admitted = []
        for path_idx, rate, start, end in seq:
            try:
                sched.reserve(_PATHS[path_idx], rate, start, end)
                admitted.append((path_idx, rate, start, end))
            except AdmissionError:
                pass
        # check commitment at every event boundary on every used link
        boundaries = sorted(
            {t for _, _, s, e in admitted for t in (s, e)}
        )
        for t in boundaries:
            committed = sched.committed_now(t + 1e-6)
            for key, level in committed.items():
                assert level <= 0.9 * _TOPO.link_capacity(key) + 1e-3

    @given(reservation_sequence(), st.floats(min_value=0.1e9, max_value=5e9),
           st.floats(min_value=10.0, max_value=1_000.0))
    @settings(max_examples=40, deadline=None)
    def test_earliest_slot_always_admissible(self, seq, rate, duration):
        """find_earliest_slot's answer must survive actual admission."""
        sched = BandwidthScheduler(_TOPO, reservable_fraction=0.9)
        for path_idx, r, start, end in seq:
            try:
                sched.reserve(_PATHS[path_idx], r, start, end)
            except AdmissionError:
                pass
        slot = sched.find_earliest_slot(_PATHS[0], rate, duration, not_before=0.0)
        if slot is not None:
            sched.reserve(_PATHS[0], rate, slot, slot + duration)

    @given(reservation_sequence())
    @settings(max_examples=40, deadline=None)
    def test_release_restores_full_capacity(self, seq):
        sched = BandwidthScheduler(_TOPO, reservable_fraction=1.0)
        ids = []
        for path_idx, rate, start, end in seq:
            try:
                res = sched.reserve(_PATHS[path_idx], rate, start, end)
                ids.append(res.reservation_id)
            except AdmissionError:
                pass
        for rid in ids:
            sched.release(rid)
        for p in _PATHS:
            assert sched.available_rate(p, 0.0, 10_000.0) == pytest.approx(
                10e9
            )


class _FullScanBook:
    """Reference link book: every query scans the whole history."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.rates: list[float] = []

    def add(self, start, end, rate):
        i = bisect.bisect_left(self.starts, start)
        self.starts.insert(i, start)
        self.ends.insert(i, end)
        self.rates.insert(i, rate)

    def remove(self, start, end, rate):
        i = bisect.bisect_left(self.starts, start)
        while i < len(self.starts) and self.starts[i] == start:
            if self.ends[i] == end and self.rates[i] == rate:
                del self.starts[i], self.ends[i], self.rates[i]
                return
            i += 1
        raise KeyError("reservation not present on link")

    def peak_commitment(self, start, end):
        events = []
        for s, e, r in zip(self.starts, self.ends, self.rates):
            if e <= start or s >= end:
                continue
            events.append((max(s, start), r))
            events.append((min(e, end), -r))
        if not events:
            return 0.0
        events.sort()
        peak = 0.0
        level = 0.0
        for _, delta in events:
            level += delta
            peak = max(peak, level)
        return peak

    def commitment_at(self, t):
        total = 0.0
        for s, e, r in zip(self.starts, self.ends, self.rates):
            if s <= t < e:
                total += r
        return total


def _full_scan_earliest_slot(books, limit, rate_bps, duration_s, not_before,
                             horizon_s):
    """find_earliest_slot over reference books, candidate walk included."""
    candidates = {not_before}
    for book in books:
        for s, e in zip(book.starts, book.ends):
            if not_before <= e <= not_before + horizon_s:
                candidates.add(e)
            if not_before <= s <= not_before + horizon_s:
                candidates.add(s)
    for t in sorted(candidates):
        if t > not_before + horizon_s:
            break
        if all(
            rate_bps <= limit - book.peak_commitment(t, t + duration_s) + 1e-9
            for book in books
        ):
            return t
    return None


# a coarse grid makes ties (an end equal to a query start) common; the
# free floats cover everything in between
_TIMES = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda x: x * 16.0),
    st.floats(min_value=-50.0, max_value=700.0, allow_nan=False),
)
# mostly circuit-sized rates (so slot searches find room), plus any
# positive float, where summation order shows in the last bits
_RATES = st.one_of(
    st.floats(min_value=1e6, max_value=4e9),
    st.floats(min_value=0.0, max_value=1e13, exclude_min=True),
)
_LINK = st.sampled_from([(0,), (1,), (0, 1)])


@st.composite
def _book_ops(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=60))):
        kind = draw(st.sampled_from(
            ["add", "add", "remove", "truncate", "at", "peak", "slot"]
        ))
        if kind == "add":
            start = draw(_TIMES)
            length = draw(st.one_of(
                st.floats(min_value=1e-6, max_value=400.0),
                st.integers(min_value=1, max_value=30).map(lambda x: x * 16.0),
            ))
            ops.append(("add", draw(_LINK), start, start + length,
                        draw(_RATES)))
        elif kind in ("remove", "truncate"):
            ops.append((kind, draw(st.integers(min_value=0, max_value=10**6)),
                        draw(st.floats(min_value=0.0, max_value=1.0,
                                       exclude_min=True, exclude_max=True))))
        elif kind == "at":
            ops.append(("at", draw(_TIMES)))
        elif kind == "peak":
            start = draw(_TIMES)
            ops.append(("peak", start, start + draw(st.floats(
                min_value=1e-6, max_value=500.0))))
        else:
            ops.append(("slot", draw(_TIMES),
                        draw(st.floats(min_value=1e3, max_value=1e10)),
                        draw(st.floats(min_value=1e-3, max_value=300.0)),
                        draw(st.sampled_from([100.0, 400.0, 30 * 86_400.0]))))
    return ops


class TestIndexedCalendarMatchesFullScan:
    """The calendar index must reproduce a full history scan bit for bit."""

    @given(_book_ops())
    @settings(max_examples=300, deadline=None)
    # the sweep adds deltas in (time, delta) order; 2**53 + 1 rounds to
    # 2**53, so 2**53 + 2 survives only if both 1.0 rates come first.
    # Entries that started before the window must be clamped to its
    # start ...
    @example([
        ("add", (0,), 0.0, 100.0, 2.0**53),
        ("add", (0,), 10.0, 100.0, 1.0),
        ("add", (0,), 20.0, 100.0, 1.0),
        ("peak", 50.0, 60.0),
    ])
    # ... and an entry ending exactly at the window start must stay out
    # of the sweep: its -2**54 would come first and swallow the 1.0s
    @example([
        ("add", (0,), 0.0, 50.0, 2.0**54),
        ("add", (0,), 0.0, 100.0, 2.0**53),
        ("add", (0,), 0.0, 100.0, 1.0),
        ("add", (0,), 0.0, 100.0, 1.0),
        ("peak", 50.0, 60.0),
    ])
    def test_queries_equal_full_scan(self, ops):
        topo = Topology()
        for node in ("A", "B", "C"):
            topo.add_site(node)
        topo.add_link("A", "B")
        topo.add_link("B", "C")
        path = ["A", "B", "C"]
        keys = topo.path_links(path)
        sched = BandwidthScheduler(topo)
        books = [sched._book(key) for key in keys]
        refs = [_FullScanBook(), _FullScanBook()]
        held: list[tuple[int, float, float, float]] = []
        for op in ops:
            kind = op[0]
            if kind == "add":
                _, links, start, end, rate = op
                if not start < end:
                    continue
                for link in links:
                    books[link].add(start, end, rate)
                    refs[link].add(start, end, rate)
                    held.append((link, start, end, rate))
            elif kind in ("remove", "truncate") and held:
                link, start, end, rate = held.pop(op[1] % len(held))
                books[link].remove(start, end, rate)
                refs[link].remove(start, end, rate)
                at = start + op[2] * (end - start)
                if kind == "truncate" and start < at < end:
                    # release(at=...) keeps the consumed head
                    books[link].add(start, at, rate)
                    refs[link].add(start, at, rate)
                    held.append((link, start, at, rate))
            elif kind == "at":
                for book, ref in zip(books, refs):
                    assert book.commitment_at(op[1]) == ref.commitment_at(op[1])
                assert sched.committed_now(op[1]) == {
                    key: ref.commitment_at(op[1])
                    for key, ref in zip(keys, refs)
                }
            elif kind == "peak":
                for book, ref in zip(books, refs):
                    assert book.peak_commitment(op[1], op[2]) == (
                        ref.peak_commitment(op[1], op[2])
                    )
            elif kind == "slot":
                _, not_before, rate, duration, horizon = op
                assert sched.find_earliest_slot(
                    path, rate, duration, not_before, horizon
                ) == _full_scan_earliest_slot(
                    refs, sched._limit(keys[0]), rate, duration, not_before,
                    horizon,
                )
        for book, ref in zip(books, refs):
            assert (book.starts, book.ends, book.rates) == (
                ref.starts, ref.ends, ref.rates
            )

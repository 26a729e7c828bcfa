"""Time-bandwidth admission control: the heart of an advance-reservation IDC.

Each link has a capacity and a (growing) set of reservations, each a
``(start, end, rate)`` triple.  Admitting a new reservation requires that
on every link of its path, the *peak* committed bandwidth over the
requested window — existing reservations plus the newcomer — stays within
the link's reservable capacity.

Section II of the paper notes that advance reservation is what lets the
provider run circuits at high utilization with low blocking when
individual circuits claim a large fraction of link capacity; the Ext-D
benchmark measures exactly that blocking-vs-load tradeoff on this
scheduler.
"""

from __future__ import annotations

import bisect
import dataclasses
import math

from ..net.topology import Topology

__all__ = ["Reservation", "BandwidthScheduler", "AdmissionError"]


class AdmissionError(Exception):
    """Raised when a reservation cannot be admitted on the requested window."""


@dataclasses.dataclass(frozen=True, slots=True)
class Reservation:
    """An admitted time-bandwidth claim along a path."""

    reservation_id: int
    path: tuple[str, ...]
    rate_bps: float
    start: float
    end: float


class _LinkBook:
    """Per-link reservation ledger with peak-commitment queries.

    Reservations are kept as parallel sorted-by-start lists; peak
    commitment over a window is computed by an event sweep over the
    overlapping entries.

    Queries visit only entries that can overlap their window.  ``bisect``
    on ``starts`` bounds the scan from above.  From below, ``cut`` marks
    a prefix of entries known to end by ``watermark``: a query starting
    at or after the watermark skips the prefix, and each query extends
    it past entries that ended by its start.  Skipped entries are exactly
    those the full scan would filter out, and the survivors are visited
    in list order, so every sum and event sweep is bit-identical to a
    scan of the whole history.
    """

    __slots__ = ("starts", "ends", "rates", "cut", "watermark")

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.rates: list[float] = []
        #: every entry before index ``cut`` ends at or before ``watermark``
        self.cut = 0
        self.watermark = -math.inf

    def add(self, start: float, end: float, rate: float) -> None:
        i = bisect.bisect_left(self.starts, start)
        self.starts.insert(i, start)
        self.ends.insert(i, end)
        self.rates.insert(i, rate)
        if i < self.cut:
            if end <= self.watermark:
                self.cut += 1
            else:
                self.cut = i

    def remove(self, start: float, end: float, rate: float) -> None:
        i = bisect.bisect_left(self.starts, start)
        while i < len(self.starts) and self.starts[i] == start:
            if self.ends[i] == end and self.rates[i] == rate:
                del self.starts[i], self.ends[i], self.rates[i]
                if i < self.cut:
                    self.cut -= 1
                return
            i += 1
        raise KeyError("reservation not present on link")

    def _first_live(self, t: float) -> int:
        """Index before which no entry ends after ``t``."""
        ends, cut = self.ends, self.cut
        while cut < len(ends) and ends[cut] <= t:
            if ends[cut] > self.watermark:
                self.watermark = ends[cut]
            cut += 1
        self.cut = cut
        return cut if self.watermark <= t else 0

    def overlapping(self, lo: float, hi: float) -> range:
        """Index range, in list order, holding every entry with ``end > lo``
        and ``start < hi``."""
        return range(self._first_live(lo), bisect.bisect_left(self.starts, hi))

    def peak_commitment(self, start: float, end: float) -> float:
        """Maximum committed rate at any instant of [start, end)."""
        events: list[tuple[float, float]] = []
        starts, ends, rates = self.starts, self.ends, self.rates
        for i in self.overlapping(start, end):
            e = ends[i]
            if e > start:
                s, r = starts[i], rates[i]
                # max(s, start) and min(e, end), without the call overhead
                events.append((start if start > s else s, r))
                events.append((end if end < e else e, -r))
        if not events:
            return 0.0
        events.sort()
        peak = 0.0
        level = 0.0
        for _, delta in events:
            level += delta
            if level > peak:
                peak = level
        return peak

    def commitment_at(self, t: float) -> float:
        """Committed rate at instant ``t``."""
        total = 0.0
        ends, rates = self.ends, self.rates
        for i in range(self._first_live(t), bisect.bisect_right(self.starts, t)):
            if t < ends[i]:
                total += rates[i]
        return total


class BandwidthScheduler:
    """Admission control over a topology's links.

    Parameters
    ----------
    topology:
        Supplies link capacities.
    reservable_fraction:
        Providers cap the share of a link that circuits may claim, keeping
        headroom for IP-routed traffic; ESnet-style deployments reserve
        well under 100%.
    """

    def __init__(self, topology: Topology, reservable_fraction: float = 1.0) -> None:
        if not 0.0 < reservable_fraction <= 1.0:
            raise ValueError("reservable_fraction must be in (0, 1]")
        self.topology = topology
        self.reservable_fraction = reservable_fraction
        self._books: dict[tuple[str, str], _LinkBook] = {}
        self._next_id = 0
        self._reservations: dict[int, Reservation] = {}
        #: admission counters — the blocking-rate telemetry an operator
        #: (and the chaos runner) watches; rejections here are what the
        #: retry/fallback machinery upstream exists to absorb
        self.n_admitted = 0
        self.n_rejected = 0

    def _book(self, key: tuple[str, str]) -> _LinkBook:
        if key not in self._books:
            self._books[key] = _LinkBook()
        return self._books[key]

    def _limit(self, key: tuple[str, str]) -> float:
        return self.topology.link_capacity(key) * self.reservable_fraction

    # -- queries ---------------------------------------------------------------

    def available_rate(self, path: list[str], start: float, end: float) -> float:
        """Largest rate admissible along ``path`` over [start, end)."""
        if end <= start:
            raise ValueError("window must have positive length")
        avail = float("inf")
        for key in self.topology.path_links(path):
            headroom = self._limit(key) - self._book(key).peak_commitment(start, end)
            avail = min(avail, headroom)
        return max(avail, 0.0)

    def committed_now(self, t: float) -> dict[tuple[str, str], float]:
        """Committed rate per link at instant ``t`` (for path computation)."""
        return {key: book.commitment_at(t) for key, book in self._books.items()}

    def find_earliest_slot(
        self,
        path: list[str],
        rate_bps: float,
        duration_s: float,
        not_before: float = 0.0,
        horizon_s: float = 30 * 86_400.0,
    ) -> float | None:
        """Earliest start >= ``not_before`` admitting (rate, duration) on ``path``.

        This is the calendar query behind a user-friendly IDC: "when is
        the soonest I can get my 5 Gbps for two hours?"  The search walks
        the reservation event boundaries (commitment levels only change
        there), so it is exact, not sampled.  Returns ``None`` when no
        slot fits within ``horizon_s``.
        """
        if rate_bps <= 0 or duration_s <= 0:
            raise ValueError("rate and duration must be positive")
        keys = self.topology.path_links(path)
        # admission must hold over [t, t + duration) on every link
        candidates = {not_before}
        last = not_before + horizon_s
        for key in keys:
            book = self._book(key)
            # skipped: entries starting after last, and entries ending at
            # or before not_before (an end at not_before is a candidate
            # already)
            for i in book.overlapping(not_before, math.nextafter(last, math.inf)):
                s, e = book.starts[i], book.ends[i]
                # commitment can only *drop* at reservation ends
                if not_before <= e <= last:
                    candidates.add(e)
                if not_before <= s <= last:
                    candidates.add(s)
        for t in sorted(candidates):
            if t > last:
                break
            fits = all(
                rate_bps
                <= self._limit(key)
                - self._book(key).peak_commitment(t, t + duration_s)
                + 1e-9
                for key in keys
            )
            if fits:
                return t
        return None

    # -- admission ---------------------------------------------------------------

    def reserve(
        self, path: list[str], rate_bps: float, start: float, end: float
    ) -> Reservation:
        """Admit a reservation or raise :class:`AdmissionError`.

        Admission is atomic: either every link accepts or none is touched.
        """
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if end <= start:
            raise ValueError("reservation must have positive duration")
        keys = self.topology.path_links(path)
        for key in keys:
            headroom = self._limit(key) - self._book(key).peak_commitment(start, end)
            if rate_bps > headroom + 1e-9:
                self.n_rejected += 1
                raise AdmissionError(
                    f"link {key} has {headroom / 1e9:.2f} Gbps headroom over "
                    f"[{start}, {end}), requested {rate_bps / 1e9:.2f} Gbps"
                )
        for key in keys:
            self._book(key).add(start, end, rate_bps)
        self.n_admitted += 1
        res = Reservation(self._next_id, tuple(path), rate_bps, start, end)
        self._reservations[res.reservation_id] = res
        self._next_id += 1
        return res

    def release(self, reservation_id: int, at: float | None = None) -> None:
        """Release a reservation, optionally truncating it at time ``at``.

        Early release (``at`` inside the window) returns the tail capacity
        to the pool — what an IDC does when a user tears a circuit down
        before its scheduled end.
        """
        res = self._reservations.pop(reservation_id, None)
        if res is None:
            raise KeyError(f"unknown reservation {reservation_id}")
        keys = self.topology.path_links(list(res.path))
        for key in keys:
            self._book(key).remove(res.start, res.end, res.rate_bps)
        if at is not None and res.start < at < res.end:
            # keep the consumed head as a historical commitment
            truncated = Reservation(res.reservation_id, res.path, res.rate_bps, res.start, at)
            for key in keys:
                self._book(key).add(truncated.start, truncated.end, truncated.rate_bps)

    def extend(self, reservation_id: int, new_end: float) -> Reservation:
        """Extend a reservation's end time, subject to admission on the tail.

        Used by the gap-``g`` hold policy: when a new transfer arrives
        before the hold timer fires, the circuit's reservation is pushed
        out rather than torn down and re-signalled.
        """
        res = self._reservations.get(reservation_id)
        if res is None:
            raise KeyError(f"unknown reservation {reservation_id}")
        if new_end <= res.end:
            return res
        keys = self.topology.path_links(list(res.path))
        for key in keys:
            headroom = self._limit(key) - self._book(key).peak_commitment(res.end, new_end)
            if res.rate_bps > headroom + 1e-9:
                raise AdmissionError(
                    f"cannot extend reservation {reservation_id} on link {key}"
                )
        for key in keys:
            self._book(key).remove(res.start, res.end, res.rate_bps)
            self._book(key).add(res.start, new_end, res.rate_bps)
        new_res = Reservation(res.reservation_id, res.path, res.rate_bps, res.start, new_end)
        self._reservations[reservation_id] = new_res
        return new_res

    @property
    def active_reservations(self) -> list[Reservation]:
        return list(self._reservations.values())

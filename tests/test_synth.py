"""Calibration tests for the synthetic dataset generators.

These assert the *paper regimes* (Section 5 of DESIGN.md), not exact
numbers: skewed session sizes, Table IV percentages in the right bands,
the Fig. 3 stream effect, the planted outliers.  SLAC--BNL is exercised
at reduced scale to keep the suite fast.
"""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workload.synth as synth
from repro.core.concurrency import concurrency_analysis
from repro.core.sessions import group_sessions, session_gap_report
from repro.core.streams import GB, MB, stream_comparison
from repro.core.stripes import by_stripes, size_range_slice
from repro.core.throughput import categorized_throughput
from repro.core.vc_suitability import suitability_table
from repro.gridftp.records import TransferLog
from repro.workload.synth import (
    generate_stream,
    ncar_nics,
    nersc_anl_tests,
    nersc_ornl_32gb,
    slac_bnl,
    vector_transfer_duration,
)


@pytest.fixture(scope="module")
def ncar():
    return ncar_nics(seed=1)


@pytest.fixture(scope="module")
def slac():
    # 1/10 scale keeps the suite fast; structure is scale-invariant
    return slac_bnl(seed=1, n_transfers=100_000)


@pytest.fixture(scope="module")
def ornl():
    return nersc_ornl_32gb(seed=3)


@pytest.fixture(scope="module")
def anl():
    return nersc_anl_tests(seed=3)


class TestNcarNics:
    def test_transfer_count_exact(self, ncar):
        assert len(ncar) == 52_454

    def test_session_count_regime(self, ncar):
        s = group_sessions(ncar, 60.0)
        assert 180 <= len(s) <= 240  # paper: 211

    def test_monster_session(self, ncar):
        s = group_sessions(ncar, 60.0)
        assert 18_000 <= s.max_transfers() <= 21_000  # paper: ~19,450

    def test_session_sizes_skewed_right(self, ncar):
        s = group_sessions(ncar, 60.0)
        assert s.total_size.mean() > 2 * np.median(s.total_size)

    def test_throughput_regime(self, ncar):
        tput = ncar.throughput_bps
        tput = tput[tput > 0]
        q3 = np.percentile(tput, 75)
        assert 550e6 <= q3 <= 850e6  # paper: 682.2 Mbps
        assert 3.4e9 <= tput.max() <= 4.6e9  # paper: 4.23 Gbps

    def test_table4_regime(self, ncar):
        grid = suitability_table(ncar)
        r = grid[(60.0, 60.0)]
        assert 40 <= r.percent_sessions <= 70  # paper: 56.87
        assert 85 <= r.percent_transfers <= 97  # paper: 90.54
        r50 = grid[(60.0, 0.05)]
        assert r50.percent_sessions >= 88  # paper: 92.89

    def test_gap_report_monotone(self, ncar):
        rows = session_gap_report(ncar, [0.0, 60.0, 120.0])
        counts = [r.n_sessions for r in rows]
        assert counts[0] > 50 * counts[1]  # g=0 fragments massively
        assert counts[1] > counts[2]

    def test_stripes_median_increases(self, ncar):
        sixteen = size_range_slice(ncar, 16 * GB, 17 * GB)
        groups = by_stripes(sixteen)
        medians = [g.throughput.median for g in groups if g.n_transfers >= 10]
        assert len(medians) >= 2
        assert medians == sorted(medians)

    def test_size_slices_populated(self, ncar):
        assert len(size_range_slice(ncar, 16 * GB, 17 * GB)) > 300
        assert len(size_range_slice(ncar, 4 * GB, 5 * GB)) > 800

    def test_years_span(self, ncar):
        years = ncar.start.astype("datetime64[s]").astype("datetime64[Y]")
        assert set(years.astype(int) + 1970) == {2009, 2010, 2011}

    def test_deterministic(self):
        assert ncar_nics(seed=5, n_transfers=2000) == ncar_nics(
            seed=5, n_transfers=2000
        )


class TestSlacBnl:
    def test_transfer_count_exact(self, slac):
        assert len(slac) == 100_000

    def test_single_stripe(self, slac):
        assert np.all(slac.stripes == 1)

    def test_stream_mix(self, slac):
        frac8 = (slac.streams == 8).mean()
        assert 0.80 <= frac8 <= 0.90  # paper: 84.6% multi-stream

    def test_session_sizes_regime(self, slac):
        s = group_sessions(slac, 60.0)
        med = np.median(s.total_size)
        assert 0.3e9 <= med <= 3e9  # paper: ~1.1 GB
        assert s.total_size.mean() > 5 * med  # paper: mean ~24 GB

    def test_table4_structure(self, slac):
        grid = suitability_table(slac)
        r = grid[(60.0, 60.0)]
        # paper: 12.5% of sessions hold 78.4% of transfers
        assert 5 <= r.percent_sessions <= 25
        assert 60 <= r.percent_transfers <= 92
        assert grid[(60.0, 0.05)].percent_sessions >= 88

    def test_fig3_stream_effect(self, slac):
        cmp = stream_comparison(slac, 20 * MB, 0, 1 * GB)
        left, m1, m8 = cmp.common_bins()
        small = (left >= 20e6) & (left <= 120e6)
        # 8-stream medians beat 1-stream medians for small files
        assert np.mean(m8[small] / m1[small]) > 1.2

    def test_fig4_dip_planted(self, slac):
        cmp = stream_comparison(slac, 100 * MB, 0, 4 * GB)
        m8 = cmp.multi_stream
        dip = (m8.bin_left >= 2.3e9) & (m8.bin_left < 3.0e9)
        flat = (m8.bin_left >= 1.2e9) & (m8.bin_left < 2.1e9)
        if dip.any() and flat.any():
            assert np.median(m8.median[dip]) < 0.75 * np.median(m8.median[flat])

    def test_fast_burst_planted(self, slac):
        tput = slac.throughput_bps
        fast = tput > 1.5e9
        assert fast.sum() > 50
        sizes = slac.size[fast]
        assert ((sizes >= 398e6) & (sizes < 399e6)).mean() > 0.8

    def test_throughput_cap(self, slac):
        assert slac.throughput_bps.max() < 2.8e9  # paper max: 2.56 Gbps

    def test_sessions_scale_with_n(self):
        small = slac_bnl(seed=2, n_transfers=30_000)
        s = group_sessions(small, 60.0)
        assert 200 <= len(s) <= 400  # ~10,199 * 30k/1.02M


class TestNerscOrnl:
    def test_count_and_shape(self, ornl):
        assert len(ornl) == 145
        assert np.all(ornl.streams == 8)
        assert np.all(ornl.stripes == 1)
        assert np.all((ornl.size >= 32e9) & (ornl.size < 33e9))

    def test_throughput_range(self, ornl):
        tput = ornl.throughput_bps
        assert tput.min() >= 0.75e9
        assert tput.max() <= 3.65e9
        iqr = np.percentile(tput, 75) - np.percentile(tput, 25)
        assert 450e6 <= iqr <= 950e6  # paper: 695 Mbps

    def test_start_hours(self, ornl):
        hours = (ornl.start % 86_400) // 3600
        assert set(np.unique(hours)) == {2.0, 8.0}

    def test_both_directions(self, ornl):
        assert len(np.unique(ornl.transfer_type)) == 2


class TestNerscAnl:
    def test_category_counts(self, anl):
        assert {k: int(v.sum()) for k, v in anl.masks.items()} == {
            "mem-mem": 84, "mem-disk": 78, "disk-mem": 87, "disk-disk": 85,
        }

    def test_masks_partition(self, anl):
        total = sum(int(v.sum()) for v in anl.masks.values())
        assert total == len(anl.log) == 334

    def test_disk_write_bottleneck_ordering(self, anl):
        cats = {c.category: c for c in categorized_throughput(
            {k: anl.category(k) for k in anl.masks}
        )}
        # Fig. 1: *-disk categories have lower medians than *-mem
        assert cats["mem-mem"].summary.median > cats["mem-disk"].summary.median
        assert cats["disk-mem"].summary.median > cats["disk-disk"].summary.median

    def test_cv_regime(self, anl):
        for c in categorized_throughput({k: anl.category(k) for k in anl.masks}):
            assert 0.15 <= c.cv <= 0.60  # paper: 30.8% - 35.7%

    def test_eq2_weak_positive_correlation(self, anl):
        a = concurrency_analysis(anl.log, subset=anl.mm_indices())
        assert 0.2 <= a.correlation <= 0.7  # paper: 0.458

    def test_mm_indices_match_mask(self, anl):
        idx = anl.mm_indices()
        assert np.all(anl.masks["mem-mem"][idx])


# -- columnar placement: bit-exact against the per-session loop -------------


def _reference_place_sessions(
    drafts, rng, t0, rtt_s, overlap_fraction, inter_gap, chain_gap_count=0
):
    """The per-session placement loop the columnar ``_place_sessions`` replaced.

    Same RNG draws in the same order, one kernel call per session, one
    concatenation and a stable sort at the end: the bits to match.
    """
    by_pair = {}
    for k, d in enumerate(drafts):
        by_pair.setdefault((d.local_host, d.remote_host), []).append(k)

    n_adjacent = sum(max(len(v) - 1, 0) for v in by_pair.values())
    chain_flags = np.zeros(n_adjacent, dtype=bool)
    if chain_gap_count > 0 and n_adjacent > 0:
        pick = rng.choice(n_adjacent, size=min(chain_gap_count, n_adjacent), replace=False)
        chain_flags[pick] = True

    cols = {name: [] for name in (
        "start", "duration", "size", "streams", "stripes", "local_host", "remote_host"
    )}
    adj_cursor = 0
    for idxs in by_pair.values():
        t = t0 + float(rng.uniform(0.0, 3600.0))
        for j, k in enumerate(idxs):
            d = drafts[k]
            n = d.sizes.size
            durations = vector_transfer_duration(
                d.sizes,
                np.full(n, d.streams * d.stripes),
                d.steady_bps,
                rtt_s,
                ssthresh_bytes=None if d.pure_slow_start else 1.2e6,
            )
            ovl = overlap_fraction if d.overlap_override is None else d.overlap_override
            gaps = np.where(
                rng.random(n - 1) < ovl,
                -rng.uniform(0.1, 0.9, n - 1) * durations[:-1],
                rng.uniform(0.3, d.max_gap_s, n - 1),
            ) if n > 1 else np.zeros(0)
            starts = np.empty(n)
            starts[0] = t
            if n > 1:
                starts[1:] = t + np.cumsum(durations[:-1] + gaps)
            starts = np.maximum.accumulate(starts)
            cols["start"].append(starts)
            cols["duration"].append(durations)
            cols["size"].append(d.sizes)
            for name in ("streams", "stripes", "local_host", "remote_host"):
                cols[name].append(np.full(n, getattr(d, name), dtype=np.int32))
            session_end = float(np.max(starts + durations))
            if j < len(idxs) - 1:
                if chain_flags[adj_cursor]:
                    gap = float(rng.uniform(61.0, 119.0))
                else:
                    gap = max(float(inter_gap.sample(rng, 1)[0]), 121.0)
                adj_cursor += 1
                t = session_end + gap
    return TransferLog(
        {name: np.concatenate(parts) for name, parts in cols.items()}
    ).sorted_by_start()


def _checked_run(monkeypatch, fn, *args, **kwargs):
    """Run ``fn`` with every placement checked against the reference loop.

    Returns the result and the set of edge cases the placements met.
    """
    place = synth._place_sessions
    kernel = synth.vector_transfer_duration
    slice_rows: list[int] = []
    seen: set[str] = set()

    def spy_kernel(size, *a, **kw):
        slice_rows.append(len(size))
        return kernel(size, *a, **kw)

    def checked(drafts, rng, *a, **kw):
        twin = copy.deepcopy(rng)
        expected = _reference_place_sessions(drafts, twin, *a, **kw)
        slice_rows.clear()
        got = place(drafts, rng, *a, **kw)
        assert got == expected
        # same draws, so the generator's later draws are unchanged too
        assert rng.bit_generator.state == twin.bit_generator.state

        by_pair = {}
        for d in drafts:
            by_pair.setdefault((d.local_host, d.remote_host), []).append(d.sizes.size)
        session_ends = set(np.cumsum([c for cs in by_pair.values() for c in cs]).tolist())
        if set(np.cumsum(slice_rows).tolist()) - session_ends:
            seen.add("slice boundary inside a session")
        if any(d.pure_slow_start for d in drafts):
            seen.add("hot")
        if any(d.overlap_override is not None for d in drafts):
            seen.add("overlap_override")
        if any(d.sizes.size == 1 for d in drafts):
            seen.add("single-file")
        if kw.get("chain_gap_count", 0) > 0 and any(len(cs) > 1 for cs in by_pair.values()):
            seen.add("chain gaps")
        return got

    monkeypatch.setattr(synth, "_place_sessions", checked)
    monkeypatch.setattr(synth, "vector_transfer_duration", spy_kernel)
    return fn(*args, **kwargs), seen


_EDGE_CASES = {
    "slice boundary inside a session",
    "hot",
    "overlap_override",
    "single-file",
    "chain gaps",
}


class TestColumnarPlacement:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [3_000, 120_000])
    def test_slac_bnl_matches_reference(self, monkeypatch, seed, n):
        log, seen = _checked_run(monkeypatch, slac_bnl, seed=seed, n_transfers=n)
        assert len(log) == n
        assert {"hot", "overlap_override", "chain gaps"} <= seen

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ncar_nics_matches_reference(self, monkeypatch, seed):
        log, seen = _checked_run(monkeypatch, ncar_nics, seed=seed, n_transfers=20_000)
        assert len(log) == 20_000
        assert {"single-file", "chain gaps"} <= seen

    def test_stream_matches_reference(self, monkeypatch):
        def run():
            return list(generate_stream("slac-bnl", 600_000, 250_000, seed=4))

        chunks, seen = _checked_run(monkeypatch, run)
        assert sum(len(c) for c in chunks) == 600_000
        assert seen == _EDGE_CASES

    @pytest.mark.parametrize("slice_rows", [37, 1_000])
    def test_small_kernel_slices_match_reference(self, monkeypatch, slice_rows):
        monkeypatch.setattr(synth, "_KERNEL_SLICE_ROWS", slice_rows)
        _, seen = _checked_run(monkeypatch, slac_bnl, seed=5, n_transfers=30_000)
        assert "slice boundary inside a session" in seen

    @given(
        st.lists(st.integers(min_value=1, max_value=45), min_size=1, max_size=12),
        st.booleans(),
        st.sampled_from([0.038, 0.070]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_on_concatenation_equals_per_segment(
        self, lengths, pure_slow_start, rtt_s, seed
    ):
        """Elementwise bits do not depend on where a row sits in the call.

        Segment lengths off multiples of the SIMD width put rows in vector
        tails on one side and vector bodies on the other.
        """
        rng = np.random.default_rng(seed)
        n = sum(lengths)
        size = np.exp(rng.uniform(np.log(1e3), np.log(1e12), n))
        n_conn = rng.integers(1, 33, n)
        steady = np.exp(rng.uniform(np.log(1e5), np.log(9e9), n))
        ssthresh = None if pure_slow_start else 1.2e6
        whole = vector_transfer_duration(size, n_conn, steady, rtt_s, ssthresh_bytes=ssthresh)
        bounds = np.cumsum([0] + lengths)
        parts = [
            vector_transfer_duration(
                size[a:b], n_conn[a:b], steady[a:b], rtt_s, ssthresh_bytes=ssthresh
            )
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        assert np.array_equal(whole, np.concatenate(parts))


def test_block_generation_memory_is_bounded():
    """A 250k-row block peaks near twice its own footprint, not three times.

    The per-session placement built every column twice (a concatenation,
    then a sorted copy) and peaked at ~3.2x the log's ``nbytes``; the
    columnar one gathers each column once and runs the kernel in slices.
    """
    tracemalloc.start()
    try:
        log = slac_bnl(seed=11, n_transfers=250_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * log.nbytes

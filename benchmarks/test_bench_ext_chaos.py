"""Ext-O: chaos campaigns — recovery behaviour of the VC stack under faults.

The paper weighs a ~1-min setup delay against rate guarantees assuming
the control and data planes behave.  This bench sweeps circuit-flap
rates over a VC-backed session with a moderately hostile IDC (30%
rejections, 20% signalling timeouts) and prints the recovery surface:
availability, goodput degradation, completion-time tail inflation, and
the retry/fallback/migration counters — all deterministic under the
pinned seed.
"""

from repro.experiments.campaigns import ChaosConfig, chaos_sweep

FLAP_RATES = [0.0, 10.0, 30.0, 60.0]  # onsets per circuit-hour


def test_ext_chaos(benchmark):
    base = ChaosConfig(n_jobs=8, rejection_prob=0.3, setup_timeout_prob=0.2)

    def run():
        return chaos_sweep(FLAP_RATES, config=base, seed=11)

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("Ext-O: chaos sweep, 8x 10 GB on a 3 Gb/s NERSC-ORNL circuit")
    print(f"{'flaps/h':>8} {'avail':>6} {'degr':>7} {'p50x':>6} {'p99x':>6} "
          f"{'retry':>6} {'fall':>5} {'migr':>5} {'rollback':>9}")
    for r in reports:
        print(f"{r.flaps_per_hour:>8.0f} {r.availability:>6.2f} "
              f"{r.goodput_degradation:>7.1%} {r.p50_inflation:>6.2f} "
              f"{r.p99_inflation:>6.2f} {r.stats.n_retries:>6} "
              f"{r.stats.n_fallbacks:>5} {r.stats.n_migrations:>5} "
              f"{r.marker_rollback_bytes / 1e6:>7.1f} M")

    calm, *_, stormy = reports
    # every job finishes in every regime: recovery works end to end
    assert all(r.n_completed == r.n_jobs for r in reports)
    # the clean-data-plane run loses nothing to flaps
    assert calm.n_flaps_injected == 0
    assert calm.marker_rollback_bytes == 0.0
    # instability costs availability first, then the tail
    assert stormy.availability < calm.availability
    assert stormy.p99_inflation > 1.0
    # markers bound the damage: goodput never collapses
    assert all(r.goodput_degradation < 0.5 for r in reports)


REJECTION_PROBS = [0.0, 0.3, 0.6]
TIMEOUT_PROBS = [0.0, 0.3, 0.6]


def test_ext_chaos_control_plane_surface(benchmark):
    """Ext-O': availability/goodput over the IDC rejection x timeout grid.

    Flaps pinned off: this isolates how a hostile *control plane* alone
    degrades the session.  Rejections are absorbed by reservation retries
    (pure control-plane noise, no data moved late); timeouts push setups
    past the fallback deadline, so transfers start on IP and migrate —
    completion never suffers, only the share of bytes carried by circuit.
    """
    base = ChaosConfig(n_jobs=8, flaps_per_hour=0.0)

    def run():
        return chaos_sweep([0.0], config=base, seed=11,
                           rejection_probs=REJECTION_PROBS,
                           timeout_probs=TIMEOUT_PROBS)

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(reports) == len(REJECTION_PROBS) * len(TIMEOUT_PROBS)
    print()
    print("Ext-O': control-plane surface, flaps pinned at 0/h")
    print(f"{'rej':>5} {'tmo':>5} {'avail':>6} {'degr':>7} {'p99x':>6} "
          f"{'rejects':>8} {'timeouts':>9} {'retry':>6} {'fall':>5} "
          f"{'events':>7} {'passes':>7}")
    for r in reports:
        print(f"{r.rejection_prob:>5.1f} {r.setup_timeout_prob:>5.1f} "
              f"{r.availability:>6.2f} {r.goodput_degradation:>7.1%} "
              f"{r.p99_inflation:>6.2f} {r.n_idc_rejections:>8} "
              f"{r.n_setup_timeouts:>9} {r.stats.n_retries:>6} "
              f"{r.stats.n_fallbacks:>5} {r.n_events:>7} "
              f"{r.n_alloc_passes:>7}")

    by_axes = {(r.rejection_prob, r.setup_timeout_prob): r for r in reports}
    clean = by_axes[(0.0, 0.0)]
    # the clean corner of the surface is the pinned baseline
    assert clean.n_idc_rejections == 0 and clean.n_setup_timeouts == 0
    assert clean.availability == 1.0
    assert clean.goodput_degradation == 0.0
    # recovery completes every job across the whole surface
    assert all(r.n_completed == r.n_jobs for r in reports)
    # the hostile axes actually fire
    assert by_axes[(0.6, 0.0)].n_idc_rejections > 0
    assert by_axes[(0.0, 0.6)].n_setup_timeouts > 0
    # retries absorb rejections; fallbacks absorb timeouts
    assert all(r.stats.n_retries >= r.n_idc_rejections for r in reports)
    assert all(r.stats.n_fallbacks == r.n_setup_timeouts for r in reports)
    # control-plane noise alone never collapses goodput
    assert all(r.goodput_degradation < 0.2 for r in reports)
    # probe counters ride along on every campaign
    assert all(r.n_events > 0 and r.n_alloc_passes > 0 for r in reports)

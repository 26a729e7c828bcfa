"""Background (general-purpose) traffic for the backbone links.

The paper's surprising SNMP finding (iv) is that on ESnet backbone links
the α flows dominate total bytes — the aggregated general-purpose traffic
is comparatively small.  To test that mechanistically, the experiments
overlay a stream of modest background flows: Poisson arrivals of
lognormally-sized objects between random site pairs, each rate-capped
well below the GridFTP transfers.

Background flows are *open-loop*: they deposit bytes into the SNMP
counters along their path for their lifetime but do not contend with the
fluid allocator.  That is the correct fidelity for links running at a
fraction of capacity — which Table XIII confirms these are — and keeps
the event count tractable at millions of mice.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.rng import ensure_rng
from .snmp import SnmpCollector
from .topology import Topology

__all__ = ["CrossTrafficConfig", "generate_cross_traffic", "BackgroundFlow"]


@dataclasses.dataclass(frozen=True, slots=True)
class BackgroundFlow:
    """One background flow: a path, an interval, and a byte volume."""

    start: float
    duration: float
    nbytes: float
    path: tuple[str, ...]


@dataclasses.dataclass(frozen=True, slots=True)
class CrossTrafficConfig:
    """Intensity and shape of the background traffic.

    Defaults give each backbone link a few hundred Mbps of aggregate
    background load — "relatively lightly loaded" in the paper's words.
    """

    arrival_rate_per_s: float = 2.0  # Poisson flow arrivals per second
    mean_size_bytes: float = 8e6  # lognormal mean object size
    sigma: float = 1.8  # lognormal shape (heavy tail of mice/elephants)
    rate_cap_bps: float = 200e6  # per-flow ceiling
    min_rate_bps: float = 1e6

    def __post_init__(self) -> None:
        if self.arrival_rate_per_s <= 0 or self.mean_size_bytes <= 0:
            raise ValueError("arrival rate and mean size must be positive")
        if not 0 < self.min_rate_bps <= self.rate_cap_bps:
            raise ValueError("need 0 < min_rate <= rate_cap")


def generate_cross_traffic(
    topology: Topology,
    t_start: float,
    t_end: float,
    config: CrossTrafficConfig | None = None,
    rng: np.random.Generator | None = None,
    collector: SnmpCollector | None = None,
    diurnal_profile=None,
) -> list[BackgroundFlow]:
    """Generate background flows over ``[t_start, t_end]``.

    When ``collector`` is given, each flow's bytes are deposited on every
    link of its IP route.  ``diurnal_profile`` (a
    :class:`repro.workload.diurnal.DiurnalProfile`) modulates the arrival
    rate over the day; None keeps a homogeneous Poisson process.  Returns
    the generated flows (useful for assertions about offered load).
    """
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    config = config or CrossTrafficConfig()
    rng = ensure_rng(rng)
    sites = topology.sites
    if len(sites) < 2:
        raise ValueError("need at least two sites for cross traffic")

    if diurnal_profile is not None:
        from ..workload.diurnal import sample_arrivals

        starts = sample_arrivals(
            diurnal_profile, config.arrival_rate_per_s, t_start, t_end, rng
        )
        n = starts.size
    else:
        n = rng.poisson(config.arrival_rate_per_s * (t_end - t_start))
        starts = rng.uniform(t_start, t_end, size=n)
    # lognormal with the requested linear-scale mean
    mu = np.log(config.mean_size_bytes) - config.sigma**2 / 2.0
    sizes = rng.lognormal(mu, config.sigma, size=n)
    rates = rng.uniform(config.min_rate_bps, config.rate_cap_bps, size=n)
    src_idx = rng.integers(0, len(sites), size=n)
    dst_off = rng.integers(1, len(sites), size=n)
    dst_idx = (src_idx + dst_off) % len(sites)

    flows = []
    for i in range(n):
        duration = sizes[i] * 8.0 / rates[i]
        end = min(starts[i] + duration, t_end)
        duration = end - starts[i]
        if duration <= 0:
            continue
        nbytes = rates[i] * duration / 8.0
        path = topology.path(sites[src_idx[i]], sites[dst_idx[i]])
        flow = BackgroundFlow(
            start=float(starts[i]), duration=float(duration),
            nbytes=float(nbytes), path=tuple(path),
        )
        flows.append(flow)
        if collector is not None:
            collector.add_bytes(
                topology.path_links(path), flow.start,
                flow.start + flow.duration, flow.nbytes,
            )
    return flows

"""Network topology: an ESnet-like graph of sites, routers and 10 G links.

The paper's four paths ride the ESnet backbone.  We model a topology of
the same character — DOE lab sites hanging off a continental backbone of
10 Gbps links — on a :class:`networkx.Graph`.  Node ids are strings
("NERSC", "rt-chic"); a parallel integer registry maps node names to the
host ids stored in :class:`~repro.gridftp.records.TransferLog` columns.

Provider-edge placement follows the paper's note that ESnet locates its
PE routers *inside* the NERSC/ORNL campuses, so site access links are part
of the provider network and carry SNMP counters like any backbone link.
"""

from __future__ import annotations

import dataclasses
import itertools

import networkx as nx

__all__ = ["Link", "Topology", "esnet_like", "internet2_like", "SITES", "I2_SITES"]

#: The laboratory sites appearing in the paper's datasets.
SITES = ("NERSC", "ANL", "ORNL", "NCAR", "NICS", "SLAC", "BNL", "LANL")


@dataclasses.dataclass(frozen=True, slots=True)
class Link:
    """One undirected backbone or access link."""

    u: str
    v: str
    capacity_bps: float = 10e9
    delay_s: float = 0.005  # one-way propagation

    @property
    def key(self) -> tuple[str, str]:
        """Canonical (sorted) endpoint pair identifying the link."""
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


class Topology:
    """Mutable site/router graph with capacity and delay annotations.

    Route queries are memoized per ``(src, dst, k)``: the graph only
    changes through :meth:`add_site`, :meth:`add_router` and
    :meth:`add_link`, and each of them clears the memo.
    """

    def __init__(self) -> None:
        self.graph = nx.Graph()
        self._host_ids: dict[str, int] = {}
        #: (src, dst, k) -> routes; k=None is the single min-delay route
        self._routes: dict[tuple, tuple[tuple[str, ...], ...]] = {}

    # -- construction --------------------------------------------------------

    def add_site(self, name: str) -> int:
        """Add a lab site (a DTN endpoint); returns its integer host id."""
        if name in self._host_ids:
            raise ValueError(f"duplicate site {name!r}")
        self.graph.add_node(name, kind="site")
        self._routes.clear()
        host_id = len(self._host_ids)
        self._host_ids[name] = host_id
        return host_id

    def add_router(self, name: str) -> None:
        """Add a backbone router (not addressable as a transfer endpoint)."""
        if name in self.graph:
            raise ValueError(f"duplicate node {name!r}")
        self.graph.add_node(name, kind="router")
        self._routes.clear()

    def add_link(
        self, u: str, v: str, capacity_bps: float = 10e9, delay_s: float = 0.005
    ) -> Link:
        """Connect two existing nodes with an undirected link."""
        for n in (u, v):
            if n not in self.graph:
                raise KeyError(f"unknown node {n!r}")
        if capacity_bps <= 0 or delay_s < 0:
            raise ValueError("capacity must be positive and delay non-negative")
        link = Link(u, v, capacity_bps, delay_s)
        self.graph.add_edge(u, v, capacity_bps=capacity_bps, delay_s=delay_s)
        self._routes.clear()
        return link

    # -- queries ---------------------------------------------------------------

    def host_id(self, site: str) -> int:
        """Integer host id of ``site`` for use in transfer-log columns."""
        return self._host_ids[site]

    def site_of(self, host_id: int) -> str:
        """Inverse of :meth:`host_id`."""
        for name, hid in self._host_ids.items():
            if hid == host_id:
                return name
        raise KeyError(host_id)

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(self._host_ids)

    def links(self) -> list[Link]:
        """Every link in the topology."""
        return [
            Link(u, v, d["capacity_bps"], d["delay_s"])
            for u, v, d in self.graph.edges(data=True)
        ]

    def routes(self, src: str, dst: str, k: int | None) -> tuple[tuple[str, ...], ...]:
        """Memoized routes between two nodes, as immutable node tuples.

        ``k=None`` gives the one minimum-delay route (Dijkstra, the IP
        default); an integer ``k`` gives up to ``k`` loop-free paths in
        increasing delay (Yen).
        """
        key = (src, dst, k)
        found = self._routes.get(key)
        if found is None:
            if k is None:
                paths = [nx.shortest_path(self.graph, src, dst, weight="delay_s")]
            else:
                paths = itertools.islice(
                    nx.shortest_simple_paths(self.graph, src, dst, weight="delay_s"), k
                )
            found = self._routes[key] = tuple(tuple(p) for p in paths)
        return found

    def path(self, src: str, dst: str) -> list[str]:
        """Minimum-propagation-delay path (the IP-routed default route)."""
        return list(self.routes(src, dst, None)[0])

    def path_links(self, nodes: list[str]) -> list[tuple[str, str]]:
        """Canonical link keys along a node path."""
        return [
            (u, v) if u <= v else (v, u) for u, v in zip(nodes[:-1], nodes[1:])
        ]

    def path_rtt_s(self, nodes: list[str]) -> float:
        """Round-trip propagation delay along a node path."""
        total = 0.0
        for u, v in zip(nodes[:-1], nodes[1:]):
            total += self.graph.edges[u, v]["delay_s"]
        return 2.0 * total

    def path_bottleneck_bps(self, nodes: list[str]) -> float:
        """Minimum link capacity along a node path."""
        return min(
            self.graph.edges[u, v]["capacity_bps"]
            for u, v in zip(nodes[:-1], nodes[1:])
        )

    def link_capacity(self, key: tuple[str, str]) -> float:
        return float(self.graph.edges[key]["capacity_bps"])

    def rtt_between(self, src: str, dst: str) -> float:
        """RTT of the default (IP-routed) path between two sites."""
        return self.path_rtt_s(self.path(src, dst))


def esnet_like() -> Topology:
    """Build the reference ESnet-like topology used by the experiments.

    A continental backbone: west-coast hub (Sunnyvale), mountain/plains
    chain to Chicago, a southern route via El Paso/Houston/Nashville, and
    an east-coast arc to New York.  All links 10 Gbps; one-way delays
    loosely track geographic distance so that SLAC--BNL comes out near the
    paper's 80 ms RTT and NCAR--NICS considerably shorter.
    """
    t = Topology()
    for site in SITES:
        t.add_site(site)
    routers = [
        "rt-sunn",  # Sunnyvale, CA
        "rt-sacr",  # Sacramento
        "rt-denv",  # Denver
        "rt-kans",  # Kansas City
        "rt-chic",  # Chicago
        "rt-clev",  # Cleveland
        "rt-aofa",  # New York (32 AofA)
        "rt-wash",  # Washington DC
        "rt-atla",  # Atlanta
        "rt-nash",  # Nashville
        "rt-elpa",  # El Paso
        "rt-albu",  # Albuquerque
        "rt-hous",  # Houston
        "rt-memp",  # Memphis
    ]
    for r in routers:
        t.add_router(r)

    # Backbone (delay in seconds, one way).
    backbone = [
        ("rt-sunn", "rt-sacr", 0.002),
        ("rt-sacr", "rt-denv", 0.011),
        ("rt-denv", "rt-kans", 0.006),
        ("rt-kans", "rt-chic", 0.005),
        ("rt-chic", "rt-clev", 0.004),
        ("rt-clev", "rt-aofa", 0.005),
        ("rt-aofa", "rt-wash", 0.003),
        ("rt-wash", "rt-atla", 0.006),
        ("rt-atla", "rt-nash", 0.003),
        ("rt-nash", "rt-chic", 0.005),
        ("rt-sunn", "rt-elpa", 0.011),
        ("rt-elpa", "rt-albu", 0.002),
        ("rt-albu", "rt-hous", 0.005),
        ("rt-hous", "rt-memp", 0.004),
        ("rt-memp", "rt-nash", 0.004),
    ]
    for u, v, d in backbone:
        t.add_link(u, v, capacity_bps=10e9, delay_s=d)

    # Site access links (PE router on campus: short, provider-owned).
    access = [
        ("NERSC", "rt-sunn", 0.001),
        ("SLAC", "rt-sunn", 0.001),
        ("NCAR", "rt-denv", 0.001),
        ("ANL", "rt-chic", 0.001),
        ("ORNL", "rt-nash", 0.002),
        ("NICS", "rt-nash", 0.002),
        ("BNL", "rt-aofa", 0.001),
        ("LANL", "rt-albu", 0.001),
    ]
    for site, router, d in access:
        t.add_link(site, router, capacity_bps=10e9, delay_s=d)
    return t


#: Campus endpoints served by the Internet2-like R&E network.
I2_SITES = ("UMICH", "CALTECH", "UNL", "VANDERBILT")


def internet2_like() -> Topology:
    """A second R&E domain, for inter-domain (IDCP / DYNES) experiments.

    Internet2 serves the university campuses that DYNES connected for
    dynamic circuits (Section II).  The graph shares naming conventions
    with :func:`esnet_like` but is a distinct administrative domain with
    its own :class:`~repro.vc.oscars.OscarsIDC`; the IDCP chain stitches
    the two at an exchange point both domains model as a site
    (``"EXCHANGE"``), mirroring how MAN LAN / StarLight interconnects
    carry cross-domain circuits.
    """
    t = Topology()
    t.add_site("EXCHANGE")  # the inter-domain stitch point
    for site in I2_SITES:
        t.add_site(site)
    routers = ["i2-seat", "i2-salt", "i2-kans", "i2-chic", "i2-clev",
               "i2-newy", "i2-hous", "i2-atla"]
    for r in routers:
        t.add_router(r)
    backbone = [
        ("i2-seat", "i2-salt", 0.009),
        ("i2-salt", "i2-kans", 0.009),
        ("i2-kans", "i2-chic", 0.006),
        ("i2-chic", "i2-clev", 0.004),
        ("i2-clev", "i2-newy", 0.006),
        ("i2-kans", "i2-hous", 0.008),
        ("i2-hous", "i2-atla", 0.009),
        ("i2-atla", "i2-clev", 0.008),
    ]
    for u, v, d in backbone:
        t.add_link(u, v, capacity_bps=10e9, delay_s=d)
    access = [
        ("UMICH", "i2-chic", 0.002),
        ("CALTECH", "i2-salt", 0.008),
        ("UNL", "i2-kans", 0.002),
        ("VANDERBILT", "i2-atla", 0.003),
        ("EXCHANGE", "i2-chic", 0.001),
    ]
    for site, router, d in access:
        t.add_link(site, router, capacity_bps=10e9, delay_s=d)
    return t

"""Unit tests for the topology and routing modules."""

import itertools

import networkx as nx
import pytest

from repro.net.routing import (
    ip_route,
    k_shortest_paths,
    least_congested_path,
    validate_explicit_route,
)
from repro.net.topology import SITES, Topology, esnet_like


class TestTopologyConstruction:
    def test_add_site_assigns_sequential_ids(self):
        t = Topology()
        assert t.add_site("A") == 0
        assert t.add_site("B") == 1
        assert t.host_id("B") == 1
        assert t.site_of(0) == "A"

    def test_duplicate_site_rejected(self):
        t = Topology()
        t.add_site("A")
        with pytest.raises(ValueError):
            t.add_site("A")

    def test_duplicate_router_rejected(self):
        t = Topology()
        t.add_router("r")
        with pytest.raises(ValueError):
            t.add_router("r")

    def test_link_to_unknown_node(self):
        t = Topology()
        t.add_site("A")
        with pytest.raises(KeyError):
            t.add_link("A", "B")

    def test_bad_capacity(self):
        t = Topology()
        t.add_site("A")
        t.add_site("B")
        with pytest.raises(ValueError):
            t.add_link("A", "B", capacity_bps=0)

    def test_unknown_host_id(self):
        with pytest.raises(KeyError):
            Topology().site_of(3)


class TestEsnetLike:
    def test_all_sites_present(self):
        t = esnet_like()
        assert set(SITES) <= set(t.sites)

    def test_site_ids_match_order(self):
        t = esnet_like()
        for i, s in enumerate(SITES):
            assert t.host_id(s) == i

    def test_slac_bnl_rtt_regime(self):
        """SLAC--BNL should be a long path, near the paper's 80 ms."""
        t = esnet_like()
        rtt = t.rtt_between("SLAC", "BNL")
        assert 0.05 < rtt < 0.10

    def test_ncar_nics_shorter_than_slac_bnl(self):
        t = esnet_like()
        assert t.rtt_between("NCAR", "NICS") < t.rtt_between("SLAC", "BNL")

    def test_all_links_10g(self):
        t = esnet_like()
        assert all(link.capacity_bps == 10e9 for link in t.links())

    def test_path_endpoints(self):
        t = esnet_like()
        p = t.path("NERSC", "ORNL")
        assert p[0] == "NERSC" and p[-1] == "ORNL"

    def test_path_links_canonical(self):
        t = esnet_like()
        for u, v in t.path_links(t.path("NERSC", "ORNL")):
            assert u <= v

    def test_bottleneck(self):
        t = esnet_like()
        assert t.path_bottleneck_bps(t.path("SLAC", "BNL")) == 10e9

    def test_link_key_property(self):
        t = esnet_like()
        link = t.links()[0]
        assert link.key == tuple(sorted((link.u, link.v)))


class TestRouting:
    def test_ip_route_is_min_delay(self):
        t = esnet_like()
        route = ip_route(t, "NERSC", "ORNL")
        for alt in k_shortest_paths(t, "NERSC", "ORNL", k=3):
            assert t.path_rtt_s(route) <= t.path_rtt_s(alt) + 1e-12

    def test_k_shortest_ordered(self):
        t = esnet_like()
        paths = k_shortest_paths(t, "NERSC", "BNL", k=3)
        rtts = [t.path_rtt_s(p) for p in paths]
        assert rtts == sorted(rtts)
        assert len(paths) == 3

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            k_shortest_paths(esnet_like(), "NERSC", "BNL", k=0)

    def test_validate_explicit_route_ok(self):
        t = esnet_like()
        p = t.path("NERSC", "ORNL")
        assert validate_explicit_route(t, p) == p

    def test_validate_rejects_gap(self):
        t = esnet_like()
        with pytest.raises(ValueError):
            validate_explicit_route(t, ["NERSC", "ORNL"])

    def test_validate_rejects_loop(self):
        t = esnet_like()
        p = t.path("NERSC", "ORNL")
        with pytest.raises(ValueError):
            validate_explicit_route(t, p + [p[-2], p[-1]])

    def test_validate_rejects_short(self):
        with pytest.raises(ValueError):
            validate_explicit_route(esnet_like(), ["NERSC"])

    def test_least_congested_avoids_reserved_path(self):
        t = esnet_like()
        default = ip_route(t, "NERSC", "ORNL")
        # saturate the default path's backbone links (access links are
        # shared by every alternative, so committing them proves nothing)
        committed = {
            key: 9.9e9
            for key in t.path_links(default)
            if key[0].startswith("rt-") and key[1].startswith("rt-")
        }
        chosen = least_congested_path(t, "NERSC", "ORNL", committed)
        assert chosen != default

    def test_least_congested_defaults_to_ip_route(self):
        t = esnet_like()
        assert least_congested_path(t, "NERSC", "ORNL", {}) == ip_route(
            t, "NERSC", "ORNL"
        )


class TestPathMemo:
    """Routes are memoized per topology; the memo must never go stale."""

    @staticmethod
    def _line():
        t = Topology()
        for site in ("A", "B"):
            t.add_site(site)
        t.add_router("r1")
        t.add_link("A", "r1", delay_s=0.010)
        t.add_link("r1", "B", delay_s=0.010)
        return t

    def test_add_link_after_a_query_changes_the_answer(self):
        t = self._line()
        assert t.path("A", "B") == ["A", "r1", "B"]
        assert k_shortest_paths(t, "A", "B", k=2) == [["A", "r1", "B"]]
        t.add_link("A", "B", delay_s=0.001)
        assert t.path("A", "B") == ["A", "B"]
        assert k_shortest_paths(t, "A", "B", k=2) == [
            ["A", "B"], ["A", "r1", "B"],
        ]
        # a new router and links make a new, faster route
        t.add_router("r2")
        t.add_link("A", "r2", delay_s=0.0001)
        t.add_link("r2", "B", delay_s=0.0001)
        assert t.path("A", "B") == ["A", "r2", "B"]
        assert k_shortest_paths(t, "A", "B", k=3)[0] == ["A", "r2", "B"]

    def test_mutating_a_returned_path_does_not_change_the_next_answer(self):
        t = esnet_like()
        want_ip = t.path("NERSC", "BNL")
        want_k = k_shortest_paths(t, "NERSC", "BNL", k=3)
        got_ip = t.path("NERSC", "BNL")
        got_ip.reverse()
        got_ip.append("rt-nowhere")
        got_k = k_shortest_paths(t, "NERSC", "BNL", k=3)
        got_k[0].clear()
        got_k.pop()
        assert t.path("NERSC", "BNL") == want_ip
        assert k_shortest_paths(t, "NERSC", "BNL", k=3) == want_k
        assert ip_route(t, "NERSC", "BNL") == want_ip

    def test_memoized_paths_match_a_fresh_search_for_every_pair(self):
        t = esnet_like()
        for src, dst in itertools.permutations(SITES, 2):
            want_ip = nx.shortest_path(t.graph, src, dst, weight="delay_s")
            for _ in range(2):  # the second round is served from the memo
                assert t.path(src, dst) == want_ip
            for k in range(1, 5):
                fresh = list(itertools.islice(
                    nx.shortest_simple_paths(t.graph, src, dst, weight="delay_s"),
                    k,
                ))
                for _ in range(2):
                    assert k_shortest_paths(t, src, dst, k) == fresh

"""Tests for topology construction."""

import pytest

from repro.gnutella.servent import GnutellaServent
from repro.gnutella.topology import (TopologyConfig, attach_leaf,
                                     build_topology, link_peers,
                                     sync_leaf_qrt)
from repro.simnet.addresses import AddressAllocator
from repro.simnet.transport import Transport


def make_servents(sim, ultrapeer_count, leaf_count):
    transport = Transport(sim)
    allocator = AddressAllocator(sim.stream("addr"))
    ultrapeers = [GnutellaServent(sim, transport, f"up{i}",
                                  allocator.allocate(), role="ultrapeer")
                  for i in range(ultrapeer_count)]
    leaves = [GnutellaServent(sim, transport, f"leaf{i}",
                              allocator.allocate(), role="leaf")
              for i in range(leaf_count)]
    return transport, ultrapeers, leaves


class TestBuildTopology:
    def test_mesh_connected_via_ring(self, sim):
        _, ultrapeers, leaves = make_servents(sim, 10, 0)
        adjacency = build_topology(ultrapeers, leaves, sim.stream("t"),
                                   TopologyConfig(ultrapeer_degree=4))
        # BFS from up0 must reach every ultrapeer
        seen, frontier = {"up0"}, ["up0"]
        while frontier:
            current = frontier.pop()
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        assert len(seen) == 10

    def test_degrees_near_target(self, sim):
        _, ultrapeers, _ = make_servents(sim, 12, 0)
        build_topology(ultrapeers, [], sim.stream("t"),
                       TopologyConfig(ultrapeer_degree=5))
        for ultrapeer in ultrapeers:
            assert 2 <= len(ultrapeer.peer_ids) <= 7

    def test_leaf_attachments(self, sim):
        _, ultrapeers, leaves = make_servents(sim, 6, 8)
        build_topology(ultrapeers, leaves, sim.stream("t"),
                       TopologyConfig(leaf_attachments=2))
        for leaf in leaves:
            assert len(leaf.peer_ids) == 2
            for up_id in leaf.peer_ids:
                ultrapeer = next(up for up in ultrapeers
                                 if up.endpoint_id == up_id)
                assert leaf.endpoint_id in ultrapeer.leaf_tables

    def test_qrt_installed_matches_library(self, sim):
        from repro.files.library import SharedFile
        from repro.files.payload import Blob
        _, ultrapeers, leaves = make_servents(sim, 3, 1)
        leaf = leaves[0]
        blob = Blob(content_key="k", extension="zip", size=10)
        leaf.library.add(SharedFile.make("unique_marker_words.zip", 10,
                                         "zip", blob))
        build_topology(ultrapeers, leaves, sim.stream("t"),
                       TopologyConfig(leaf_attachments=1))
        up = next(u for u in ultrapeers
                  if leaf.endpoint_id in u.leaf_tables)
        table = up.leaf_tables[leaf.endpoint_id]
        assert table.might_match("unique marker")
        assert not table.might_match("absent words")

    def test_needs_two_ultrapeers(self, sim):
        _, ultrapeers, _ = make_servents(sim, 1, 0)
        with pytest.raises(ValueError):
            build_topology(ultrapeers, [], sim.stream("t"),
                           TopologyConfig())


class TestLinkHelpers:
    def test_link_peers_bidirectional(self, sim):
        _, ultrapeers, _ = make_servents(sim, 2, 0)
        link_peers(ultrapeers[0], ultrapeers[1])
        assert ultrapeers[1].endpoint_id in ultrapeers[0].peer_ids
        assert ultrapeers[0].endpoint_id in ultrapeers[1].peer_ids

    def test_link_idempotent(self, sim):
        _, ultrapeers, _ = make_servents(sim, 2, 0)
        link_peers(ultrapeers[0], ultrapeers[1])
        link_peers(ultrapeers[0], ultrapeers[1])
        assert len(ultrapeers[0].peer_ids) == 1

    def test_self_link_rejected(self, sim):
        _, ultrapeers, _ = make_servents(sim, 2, 0)
        with pytest.raises(ValueError):
            link_peers(ultrapeers[0], ultrapeers[0])

    def test_attach_to_non_ultrapeer_rejected(self, sim):
        _, _, leaves = make_servents(sim, 0, 2)
        with pytest.raises(ValueError):
            attach_leaf(leaves[0], leaves[1])

    def test_resync_updates_table(self, sim):
        from repro.files.library import SharedFile
        from repro.files.payload import Blob
        _, ultrapeers, leaves = make_servents(sim, 2, 1)
        leaf = leaves[0]
        attach_leaf(leaf, ultrapeers[0])
        table_before = ultrapeers[0].leaf_tables[leaf.endpoint_id]
        assert not table_before.might_match("latecomer file")
        blob = Blob(content_key="late", extension="exe", size=1)
        leaf.library.add(SharedFile.make("latecomer_file.exe", 1, "exe",
                                         blob))
        sync_leaf_qrt(leaf, ultrapeers[0])
        assert ultrapeers[0].leaf_tables[leaf.endpoint_id].might_match(
            "latecomer file")


def make_file(name):
    from repro.files.library import SharedFile
    from repro.files.payload import Blob
    return SharedFile.make(name, 1, "exe",
                           Blob(content_key=name, extension="exe", size=1))


class TestQrtMemo:
    """sync_leaf_qrt rebuilds only when (library version, echo) changes."""

    @pytest.fixture()
    def encodes(self, monkeypatch):
        from repro.gnutella import topology
        calls = []
        original = topology.encode_qrp

        def counting(message):
            calls.append(message)
            return original(message)
        monkeypatch.setattr(topology, "encode_qrp", counting)
        return calls

    def test_shields_share_one_table(self, sim):
        _, ultrapeers, leaves = make_servents(sim, 2, 1)
        leaf = leaves[0]
        leaf.library.add(make_file("shared_marker.exe"))
        for ultrapeer in ultrapeers:
            attach_leaf(leaf, ultrapeer)
        first, second = (up.leaf_tables[leaf.endpoint_id]
                         for up in ultrapeers)
        assert first is second
        assert first.might_match("shared marker")
        with pytest.raises(TypeError):
            first.add_keyword("tamper")

    def test_round_trip_once_per_key(self, sim, encodes):
        _, ultrapeers, leaves = make_servents(sim, 2, 1)
        leaf = leaves[0]
        for ultrapeer in ultrapeers:
            attach_leaf(leaf, ultrapeer)
        per_table = len(encodes)  # one RESET plus the PATCH fragments
        assert per_table > 1
        assert (leaf.stats.qrp_syncs, leaf.stats.qrp_rebuilds) == (2, 1)

        sync_leaf_qrt(leaf, ultrapeers[0])  # nothing changed: no rebuild
        assert len(encodes) == per_table
        shared = make_file("latecomer_file.exe")
        leaf.library.add(shared)
        leaf.library.add(shared)  # a no-op add keeps the key
        for ultrapeer in ultrapeers:
            sync_leaf_qrt(leaf, ultrapeer)
        assert len(encodes) == 2 * per_table
        assert ultrapeers[1].leaf_tables[leaf.endpoint_id].might_match(
            "latecomer file")
        leaf.library.remove(shared.file_id)
        sync_leaf_qrt(leaf, ultrapeers[0])
        assert len(encodes) == 3 * per_table
        assert not ultrapeers[0].leaf_tables[leaf.endpoint_id].might_match(
            "latecomer file")
        assert (leaf.stats.qrp_syncs, leaf.stats.qrp_rebuilds) == (6, 3)

    def test_echo_infection_installs_all_ones(self, sim, encodes):
        from repro.malware.infection import HostInfection
        from repro.malware.strain import Behaviour, MalwareStrain
        _, ultrapeers, leaves = make_servents(sim, 2, 1)
        leaf = leaves[0]
        for ultrapeer in ultrapeers:
            attach_leaf(leaf, ultrapeer)
        assert not ultrapeers[0].leaf_tables[leaf.endpoint_id].might_match(
            "zebra quantum")
        strain = MalwareStrain(strain_id="echo", av_name="W32.Echo",
                               behaviour=Behaviour.QUERY_ECHO,
                               sizes=(40_000,), extensions=("exe",),
                               weight=1.0)
        leaf.infection = HostInfection()
        leaf.infection.echo_strains.append(strain)  # library untouched
        for ultrapeer in ultrapeers:
            sync_leaf_qrt(leaf, ultrapeer)
        table = ultrapeers[0].leaf_tables[leaf.endpoint_id]
        assert table is ultrapeers[1].leaf_tables[leaf.endpoint_id]
        assert table.set_count == table.size
        assert table.might_match("zebra quantum")
        assert leaf.stats.qrp_rebuilds == 2

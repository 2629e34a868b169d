"""Tests for the Query Routing Protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.files.names import tokenize
from repro.gnutella.qrp import (DEFAULT_TABLE_BITS, QrpPatch, QrpReset,
                                QueryKeys, QueryRouteTable, decode_qrp,
                                encode_qrp, qrp_hash)


def dense_slots(names, bits=DEFAULT_TABLE_BITS):
    """Reference: the one-byte-per-slot array a table of ``names`` sends."""
    slots = bytearray(1 << bits)
    for name in names:
        for token in tokenize(name):
            if len(token) >= 3:
                slots[qrp_hash(token, bits)] = 1
    return slots


def dense_match(slots, query, bits=DEFAULT_TABLE_BITS):
    """Reference: per-token QRP decision against a dense slot array."""
    tokens = [token for token in tokenize(query) if len(token) >= 3]
    return all(slots[qrp_hash(token, bits)] for token in tokens)


def roundtrip(table, **kwargs):
    return QueryRouteTable.from_messages(
        decode_qrp(encode_qrp(message))
        for message in table.to_messages(**kwargs))


class TestHash:
    def test_deterministic(self):
        assert qrp_hash("madonna") == qrp_hash("madonna")

    def test_case_insensitive(self):
        assert qrp_hash("MaDoNNa") == qrp_hash("madonna")

    def test_in_range(self):
        for bits in (8, 13, 16):
            for token in ("a", "photoshop", "x" * 30):
                assert 0 <= qrp_hash(token, bits) < (1 << bits)

    def test_spreads(self):
        slots = {qrp_hash(f"token{i}") for i in range(500)}
        assert len(slots) > 450  # few collisions at 2^16

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            qrp_hash("x", 0)
        with pytest.raises(ValueError):
            qrp_hash("x", 33)

    @given(st.text(min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_total_function(self, token):
        assert 0 <= qrp_hash(token) < (1 << DEFAULT_TABLE_BITS)


class TestQueryRouteTable:
    def test_match_requires_all_tokens(self):
        table = QueryRouteTable()
        table.add_name("madonna_angel.mp3")
        assert table.might_match("madonna")
        assert table.might_match("madonna angel")
        assert not table.might_match("madonna zebra")

    def test_short_tokens_ignored(self):
        table = QueryRouteTable()
        table.add_name("ab_cd_song.mp3")
        # 2-letter tokens are not routable; query of only short tokens
        # forwards conservatively
        assert table.might_match("ab cd")

    def test_empty_table_blocks(self):
        table = QueryRouteTable()
        assert not table.might_match("anything")

    def test_mark_all_matches_everything(self):
        table = QueryRouteTable()
        table.mark_all()
        for query in ("madonna", "zebra quantum xylophone", ""):
            assert table.might_match(query)
        assert table.set_count == table.size

    def test_build_from_replaces(self):
        table = QueryRouteTable()
        table.add_name("old_stuff.exe")
        table.build_from(["new_things.zip"])
        assert not table.might_match("old stuff")
        assert table.might_match("new things")

    def test_set_count(self):
        table = QueryRouteTable()
        assert table.set_count == 0
        table.add_keyword("photoshop")
        assert table.set_count == 1


class TestHashOnce:
    WORDS = st.sampled_from(["madonna", "angel", "crack", "photoshop",
                             "zebra", "ab", "mix", "live", "xp"])
    NAMES = st.lists(st.lists(WORDS, min_size=1, max_size=4).map("_".join),
                     max_size=6)
    QUERIES = st.one_of(st.lists(WORDS, max_size=3).map(" ".join),
                        st.text(max_size=12))

    @given(names=NAMES, queries=st.lists(QUERIES, min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_shared_keys_agree_with_might_match(self, names, queries):
        """One QueryKeys tested against several tables (built, received,
        other geometry) decides exactly like a fresh per-table check and
        like the dense per-token reference."""
        built = QueryRouteTable()
        built.build_from(names)
        small = QueryRouteTable(bits=8)
        small.build_from(names)
        tables = [(built, DEFAULT_TABLE_BITS), (roundtrip(built),
                                                DEFAULT_TABLE_BITS),
                  (small, 8), (roundtrip(small), 8)]
        for query in queries:
            keys = QueryKeys(query)
            for table, bits in tables:
                expected = dense_match(dense_slots(names, bits), query, bits)
                assert table.admits(keys) == expected
                assert table.might_match(query) == expected

    def test_keys_hash_once_per_geometry(self):
        keys = QueryKeys("madonna angel ab")
        assert keys.tokens and "ab" not in keys.tokens
        assert keys.slots(16) is keys.slots(16)
        assert keys.slots(16) == {qrp_hash("madonna"), qrp_hash("angel")}


class TestReceivedTables:
    def test_received_table_is_immutable(self):
        table = QueryRouteTable()
        table.add_name("madonna_angel.mp3")
        received = roundtrip(table)
        for mutate in (lambda: received.add_keyword("zebra"),
                       lambda: received.build_from(["x_y_z.mp3"]),
                       received.mark_all):
            with pytest.raises(TypeError):
                mutate()
        assert received == table

    def test_all_ones_is_a_flag(self):
        table = QueryRouteTable()
        table.mark_all()
        received = roundtrip(table)
        assert received.set_count == received.size
        assert received == table
        assert len(received._slots) == 0  # no 65,536-member set

    def test_nonzero_entries_are_set(self):
        reset = QrpReset(table_length=16, infinity=7)
        patch = QrpPatch(1, 1, 8, bytes([0, 7, 0, 0, 1] + [0] * 11))
        received = QueryRouteTable.from_messages([reset, patch])
        assert received.bits == 4 and received.set_count == 2

    @given(TestHashOnce.NAMES, st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_messages_match_dense_reference(self, names, compress):
        """to_messages sends exactly the dense one-byte-per-slot table."""
        table = QueryRouteTable()
        table.build_from(names)
        messages = table.to_messages(compress=compress)
        assert messages[0] == QrpReset(table_length=table.size, infinity=7)
        assert b"".join(m.data for m in messages[1:]) == dense_slots(names)
        assert roundtrip(table, compress=compress) == table


class TestWireForm:
    def test_reset_roundtrip(self):
        reset = QrpReset(table_length=65536, infinity=7)
        assert decode_qrp(encode_qrp(reset)) == reset

    def test_patch_roundtrip(self):
        patch = QrpPatch(sequence_number=1, sequence_count=2,
                         entry_bits=8, data=b"\x00\x01" * 10)
        assert decode_qrp(encode_qrp(patch)) == patch

    def test_table_roundtrip_through_messages(self):
        table = QueryRouteTable()
        table.build_from(["photoshop_crack.zip", "madonna_angel.mp3"])
        wire = [encode_qrp(message) for message in table.to_messages()]
        rebuilt = QueryRouteTable.from_messages(
            decode_qrp(raw) for raw in wire)
        assert rebuilt == table
        assert rebuilt.might_match("photoshop crack")
        assert not rebuilt.might_match("zebra")

    def test_all_ones_survives_roundtrip(self):
        table = QueryRouteTable()
        table.mark_all()
        rebuilt = QueryRouteTable.from_messages(
            decode_qrp(encode_qrp(message))
            for message in table.to_messages())
        assert rebuilt.might_match("anything at all")

    def test_fragmentation(self):
        table = QueryRouteTable()
        messages = table.to_messages(fragment_slots=1024)
        patches = [m for m in messages if isinstance(m, QrpPatch)]
        assert len(patches) == table.size // 1024
        assert patches[0].sequence_count == len(patches)

    def test_decode_errors(self):
        with pytest.raises(ValueError):
            decode_qrp(b"")
        with pytest.raises(ValueError):
            decode_qrp(b"\x99")
        with pytest.raises(ValueError):
            decode_qrp(b"\x00\x01")  # short reset

    def test_overrun_patch_rejected(self):
        reset = QrpReset(table_length=16, infinity=7)
        patch = QrpPatch(1, 1, 8, b"\x00" * 32)
        with pytest.raises(ValueError):
            QueryRouteTable.from_messages([reset, patch])


class TestCompressedPatches:
    def test_zlib_patch_roundtrip(self):
        from repro.gnutella.qrp import COMPRESSOR_ZLIB
        patch = QrpPatch(sequence_number=1, sequence_count=1,
                         entry_bits=8, data=b"\x00\x01" * 512,
                         compressor=COMPRESSOR_ZLIB)
        wire = encode_qrp(patch)
        assert len(wire) < len(patch.data)  # actually compressed
        assert decode_qrp(wire) == patch

    def test_compressed_table_roundtrip(self):
        table = QueryRouteTable()
        table.build_from(["photoshop_crack.zip", "madonna_angel.mp3"])
        wire = [encode_qrp(message)
                for message in table.to_messages(compress=True)]
        rebuilt = QueryRouteTable.from_messages(
            decode_qrp(raw) for raw in wire)
        assert rebuilt.might_match("photoshop crack")
        assert not rebuilt.might_match("zebra")

    def test_compression_shrinks_sparse_tables(self):
        table = QueryRouteTable()
        table.add_keyword("lonely")
        plain = sum(len(encode_qrp(m)) for m in table.to_messages())
        packed = sum(len(encode_qrp(m))
                     for m in table.to_messages(compress=True))
        assert packed < plain / 20  # sparse tables compress enormously

    def test_corrupt_zlib_rejected(self):
        from repro.gnutella.qrp import COMPRESSOR_ZLIB
        raw = bytes([QrpPatch.variant, 1, 1, COMPRESSOR_ZLIB, 8]) + b"junk"
        with pytest.raises(ValueError):
            decode_qrp(raw)

    def test_unknown_compressor_rejected(self):
        raw = bytes([QrpPatch.variant, 1, 1, 0x42, 8]) + b"data"
        with pytest.raises(ValueError):
            decode_qrp(raw)
        with pytest.raises(ValueError):
            QrpPatch(1, 1, 8, b"x", compressor=0x42).encode()

"""Query Routing Protocol (QRP).

Leaves summarize their shared keywords into a hash bitmap (the query route
table, QRT) and send it to their ultrapeers; an ultrapeer forwards a query
to a leaf only when *every* query keyword hashes into a set slot.  This is
the mechanism that decides which leaves see which queries -- and the one
query-echo worms subverted by advertising an all-ones table so that every
query reached them.

The hash is the canonical QRP function (multiplicative hashing with
A = 0x4F1BBCDC, taking the top ``bits`` bits), and route tables ship as
RESET + uncompressed PATCH messages framed per the QRP spec's descriptor
type 0x30.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import (AbstractSet, Dict, FrozenSet, Iterable, Iterator, List,
                    Set)

from ..files.names import tokenize

__all__ = ["DEFAULT_TABLE_BITS", "qrp_hash", "QueryKeys", "QueryRouteTable",
           "QrpReset", "QrpPatch", "encode_qrp", "decode_qrp"]

#: 2^16 slots, Limewire's default leaf table size.
DEFAULT_TABLE_BITS = 16

_GOLDEN = 0x4F1BBCDC  # 2^32 * (sqrt(5)-1)/2, per the QRP spec
_MIN_TOKEN_LENGTH = 3  # servents ignored 1-2 letter tokens


def qrp_hash(token: str, bits: int = DEFAULT_TABLE_BITS) -> int:
    """Hash a keyword to a table slot.

    Bytes of the lowercased token are XOR-folded into a 32-bit word (each
    byte shifted by 8*(i mod 4)), then multiplicatively hashed.
    """
    if not 0 < bits <= 32:
        raise ValueError(f"bits must be in 1..32, got {bits!r}")
    folded = 0
    for index, byte in enumerate(token.lower().encode("utf-8")):
        folded ^= (byte & 0xFF) << ((index % 4) * 8)
    product = (folded * _GOLDEN) & 0xFFFFFFFF
    return product >> (32 - bits)


def _routable_tokens(text: str) -> List[str]:
    return [token for token in tokenize(text)
            if len(token) >= _MIN_TOKEN_LENGTH]


class QueryKeys:
    """A query's routable keywords, hashed once per table geometry.

    An ultrapeer tests one query against every attached leaf's table;
    building this once per forward lets each table test be a set
    containment instead of a re-tokenize and re-hash.
    """

    __slots__ = ("tokens", "_slots")

    def __init__(self, query: str) -> None:
        self.tokens = _routable_tokens(query)
        self._slots: Dict[int, FrozenSet[int]] = {}

    def slots(self, bits: int) -> FrozenSet[int]:
        """The query's table slots for a ``2**bits``-slot table."""
        slots = self._slots.get(bits)
        if slots is None:
            slots = self._slots[bits] = frozenset(
                qrp_hash(token, bits) for token in self.tokens)
        return slots


class QueryRouteTable:
    """A leaf's keyword bitmap, stored sparsely as its set slots.

    A table is either *built* (mutable: :meth:`add_keyword`,
    :meth:`build_from`, :meth:`mark_all`) or *received*
    (:meth:`from_messages`: immutable, its slots a ``frozenset``), so one
    received table can be installed on several ultrapeers safely.  The
    all-ones table is a flag, not ``size`` members.
    """

    def __init__(self, bits: int = DEFAULT_TABLE_BITS) -> None:
        self.bits = bits
        self.size = 1 << bits
        self._slots: AbstractSet[int] = set()
        self._all_ones = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryRouteTable):
            return NotImplemented
        return (self.bits == other.bits and self._all_ones == other._all_ones
                and self._slots == other._slots)

    @property
    def set_count(self) -> int:
        """Number of set slots (diagnostics / tests)."""
        return self.size if self._all_ones else len(self._slots)

    def _mutable_slots(self) -> Set[int]:
        if isinstance(self._slots, frozenset):
            raise TypeError("a received QRP table is immutable")
        return self._slots  # type: ignore[return-value]

    def add_keyword(self, token: str) -> None:
        """Mark one keyword present."""
        self._mutable_slots().add(qrp_hash(token, self.bits))

    def add_name(self, name: str) -> None:
        """Mark every routable token of a file name."""
        self._add_tokens(tokenize(name))

    def build_from(self, names: Iterable[str]) -> None:
        """(Re)build from a library's file names."""
        self._mutable_slots().clear()
        self._all_ones = False
        tokens: Set[str] = set()
        for name in names:
            tokens |= tokenize(name)
        self._add_tokens(tokens)  # each distinct token hashed once

    def _add_tokens(self, tokens: AbstractSet[str]) -> None:
        bits = self.bits
        self._mutable_slots().update(
            qrp_hash(token, bits) for token in tokens
            if len(token) >= _MIN_TOKEN_LENGTH)

    def mark_all(self) -> None:
        """Set every slot -- the echo-worm trick to receive all queries."""
        self._mutable_slots().clear()
        self._all_ones = True

    def admits(self, keys: QueryKeys) -> bool:
        """QRP forwarding decision for a pre-hashed query.

        True when every routable query token is present.  Queries with no
        routable token are conservatively forwarded (spec behaviour for
        urn-only queries).
        """
        if self._all_ones or not keys.tokens:
            return True
        return self._slots.issuperset(keys.slots(self.bits))

    def might_match(self, query: str) -> bool:
        """QRP forwarding decision for ``query`` (see :meth:`admits`)."""
        return self.admits(QueryKeys(query))

    # -- wire form ---------------------------------------------------------
    def _dense(self) -> bytes:
        """The slot array as sent on the wire: one byte per slot."""
        if self._all_ones:
            return b"\x01" * self.size
        dense = bytearray(self.size)
        for slot in self._slots:
            dense[slot] = 1
        return bytes(dense)

    def to_messages(self, fragment_slots: int = 2048,
                    compress: bool = False) -> List:
        """Serialize as one RESET plus PATCH fragments.

        ``compress=True`` marks the patches zlib-compressed (servents
        negotiated this; mostly-empty leaf tables compress enormously).
        """
        compressor = COMPRESSOR_ZLIB if compress else COMPRESSOR_NONE
        dense = self._dense()
        fragments = [dense[start:start + fragment_slots]
                     for start in range(0, self.size, fragment_slots)]
        patches = [QrpPatch(sequence_number=index + 1,
                            sequence_count=len(fragments),
                            entry_bits=8, data=fragment,
                            compressor=compressor)
                   for index, fragment in enumerate(fragments)]
        return [QrpReset(table_length=self.size, infinity=7), *patches]

    @staticmethod
    def from_messages(messages: Iterable) -> "QueryRouteTable":
        """Rebuild a received (immutable) table from a RESET + PATCH stream.

        A slot is set when its entry byte is non-zero.
        """
        bits = DEFAULT_TABLE_BITS
        chunks: List[bytes] = []
        cursor = 0
        for message in messages:
            if isinstance(message, QrpReset):
                bits = message.table_length.bit_length() - 1
                chunks = []
                cursor = 0
            elif isinstance(message, QrpPatch):
                cursor += len(message.data)
                if cursor > 1 << bits:
                    raise ValueError("QRP patch overruns table")
                chunks.append(message.data)
            else:
                raise TypeError(f"not a QRP message: {message!r}")
        table = QueryRouteTable(bits=bits)
        flags = b"".join(chunks).translate(_NONZERO_TO_ONE)
        if flags.count(1) == table.size:
            table._all_ones = True
            table._slots = frozenset()
        else:
            table._slots = frozenset(_indices_of_ones(flags))
        return table


#: byte map folding every non-zero entry to 1
_NONZERO_TO_ONE = bytes([0] + [1] * 255)


def _indices_of_ones(flags: bytes) -> Iterator[int]:
    index = flags.find(1)
    while index >= 0:
        yield index
        index = flags.find(1, index + 1)


@dataclass(frozen=True)
class QrpReset:
    """QRP RESET variant: clears the table and declares its geometry."""

    table_length: int
    infinity: int

    variant = 0x00

    def encode(self) -> bytes:
        return struct.pack("<BIB", self.variant, self.table_length,
                           self.infinity)


#: QRP patch compressor codes (per the spec)
COMPRESSOR_NONE = 0x00
COMPRESSOR_ZLIB = 0x01


@dataclass(frozen=True)
class QrpPatch:
    """QRP PATCH variant (8-bit entries; optional zlib compression).

    ``data`` always holds the *uncompressed* slot bytes; compression is
    applied at encode time and undone at decode time, so equality and
    table reconstruction are independent of the wire compressor.
    """

    sequence_number: int
    sequence_count: int
    entry_bits: int
    data: bytes
    compressor: int = COMPRESSOR_NONE

    variant = 0x01

    def encode(self) -> bytes:
        if self.compressor == COMPRESSOR_ZLIB:
            import zlib
            body = zlib.compress(self.data, level=6)
        elif self.compressor == COMPRESSOR_NONE:
            body = self.data
        else:
            raise ValueError(
                f"unsupported QRP compressor {self.compressor}")
        return struct.pack("<BBBBB", self.variant, self.sequence_number,
                           self.sequence_count, self.compressor,
                           self.entry_bits) + body


def encode_qrp(message) -> bytes:
    """Encode either QRP variant to payload bytes."""
    return message.encode()


def decode_qrp(payload: bytes):
    """Decode a QRP payload into :class:`QrpReset` or :class:`QrpPatch`."""
    if not payload:
        raise ValueError("empty QRP payload")
    variant = payload[0]
    if variant == QrpReset.variant:
        if len(payload) < 6:
            raise ValueError("short QRP reset")
        table_length, infinity = struct.unpack_from("<IB", payload, 1)
        return QrpReset(table_length=table_length, infinity=infinity)
    if variant == QrpPatch.variant:
        if len(payload) < 5:
            raise ValueError("short QRP patch")
        sequence_number, sequence_count, compressor, entry_bits = payload[1:5]
        body = payload[5:]
        if compressor == COMPRESSOR_ZLIB:
            import zlib
            try:
                body = zlib.decompress(body)
            except zlib.error as exc:
                raise ValueError("corrupt zlib QRP patch") from exc
        elif compressor != COMPRESSOR_NONE:
            raise ValueError(f"unsupported QRP compressor {compressor}")
        return QrpPatch(sequence_number=sequence_number,
                        sequence_count=sequence_count,
                        entry_bits=entry_bits, data=body,
                        compressor=compressor)
    raise ValueError(f"unknown QRP variant {variant}")

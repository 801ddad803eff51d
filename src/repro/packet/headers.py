"""Protocol header dataclasses.

Each header is an immutable value object that knows (a) which OpenFlow
match fields it contributes via :meth:`Header.match_fields` and (b) basic
validity constraints on its fields.  Wire-format encoding lives in
:mod:`repro.packet.builder` / :mod:`repro.packet.parser`, keeping the data
model independent of serialisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from repro.util.bits import mask_of

ETHERTYPE_VLAN = 0x8100
ETHERTYPE_QINQ = 0x88A8
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
ETHERTYPE_ARP = 0x0806
ETHERTYPE_MPLS = 0x8847

IP_PROTO_ICMP = 1
IP_PROTO_TCP = 6
IP_PROTO_UDP = 17


class Header:
    """Base class for protocol headers."""

    def match_fields(self) -> dict[str, int]:
        """OpenFlow match fields this header contributes."""
        raise NotImplementedError


def _check_width(name: str, value: int, bits: int) -> None:
    if not 0 <= value <= mask_of(bits):
        raise ValueError(f"{name} value {value:#x} does not fit in {bits} bits")


@dataclass(frozen=True)
class Ethernet(Header):
    """Ethernet II header (no FCS)."""

    dst: int
    src: int
    ethertype: int

    def __post_init__(self) -> None:
        _check_width("eth_dst", self.dst, 48)
        _check_width("eth_src", self.src, 48)
        _check_width("eth_type", self.ethertype, 16)

    def match_fields(self) -> dict[str, int]:
        return {
            "eth_dst": self.dst,
            "eth_src": self.src,
            "eth_type": self.ethertype,
        }


@dataclass(frozen=True)
class Vlan(Header):
    """An 802.1Q tag."""

    vid: int
    pcp: int = 0
    dei: int = 0
    ethertype: int = ETHERTYPE_IPV4  # ethertype of the encapsulated payload

    def __post_init__(self) -> None:
        _check_width("vlan_vid", self.vid, 12)
        _check_width("vlan_pcp", self.pcp, 3)
        _check_width("vlan_dei", self.dei, 1)
        _check_width("eth_type", self.ethertype, 16)

    def match_fields(self) -> dict[str, int]:
        # The OXM vlan_vid field is 13 bits: bit 12 (OFPVID_PRESENT) is set
        # whenever a tag is present.
        return {
            "vlan_vid": self.vid | 0x1000,
            "vlan_pcp": self.pcp,
            "eth_type": self.ethertype,
        }


@dataclass(frozen=True)
class Mpls(Header):
    """One MPLS shim entry."""

    label: int
    tc: int = 0
    bos: int = 1
    ttl: int = 64

    def __post_init__(self) -> None:
        _check_width("mpls_label", self.label, 20)
        _check_width("mpls_tc", self.tc, 3)
        _check_width("mpls_bos", self.bos, 1)
        _check_width("mpls_ttl", self.ttl, 8)

    def match_fields(self) -> dict[str, int]:
        return {"mpls_label": self.label, "mpls_tc": self.tc, "mpls_bos": self.bos}


@dataclass(frozen=True)
class IPv4(Header):
    """IPv4 header (options unsupported, ihl fixed at 5)."""

    src: int
    dst: int
    proto: int
    dscp: int = 0
    ecn: int = 0
    ttl: int = 64
    identification: int = 0
    total_length: int = 20

    def __post_init__(self) -> None:
        _check_width("ipv4_src", self.src, 32)
        _check_width("ipv4_dst", self.dst, 32)
        _check_width("ip_proto", self.proto, 8)
        _check_width("ip_dscp", self.dscp, 6)
        _check_width("ip_ecn", self.ecn, 2)
        _check_width("ttl", self.ttl, 8)
        if self.total_length < 20:
            raise ValueError(f"ipv4 total_length {self.total_length} < header size")

    def match_fields(self) -> dict[str, int]:
        return {
            "ipv4_src": self.src,
            "ipv4_dst": self.dst,
            "ip_proto": self.proto,
            "ip_dscp": self.dscp,
            "ip_ecn": self.ecn,
        }


@dataclass(frozen=True)
class IPv6(Header):
    """IPv6 header (extension headers unsupported)."""

    src: int
    dst: int
    next_header: int
    traffic_class: int = 0
    flow_label: int = 0
    hop_limit: int = 64
    payload_length: int = 0

    def __post_init__(self) -> None:
        _check_width("ipv6_src", self.src, 128)
        _check_width("ipv6_dst", self.dst, 128)
        _check_width("ip_proto", self.next_header, 8)
        _check_width("traffic_class", self.traffic_class, 8)
        _check_width("ipv6_flabel", self.flow_label, 20)

    def match_fields(self) -> dict[str, int]:
        return {
            "ipv6_src": self.src,
            "ipv6_dst": self.dst,
            "ip_proto": self.next_header,
            "ip_dscp": self.traffic_class >> 2,
            "ip_ecn": self.traffic_class & 0x3,
            "ipv6_flabel": self.flow_label,
        }


@dataclass(frozen=True)
class Tcp(Header):
    """TCP header (flags/window modelled, options unsupported)."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535

    def __post_init__(self) -> None:
        _check_width("tcp_src", self.src_port, 16)
        _check_width("tcp_dst", self.dst_port, 16)
        _check_width("seq", self.seq, 32)
        _check_width("ack", self.ack, 32)
        _check_width("flags", self.flags, 9)

    def match_fields(self) -> dict[str, int]:
        return {"tcp_src": self.src_port, "tcp_dst": self.dst_port}


@dataclass(frozen=True)
class Udp(Header):
    """UDP header."""

    src_port: int
    dst_port: int
    length: int = 8

    def __post_init__(self) -> None:
        _check_width("udp_src", self.src_port, 16)
        _check_width("udp_dst", self.dst_port, 16)
        if self.length < 8:
            raise ValueError(f"udp length {self.length} < header size")

    def match_fields(self) -> dict[str, int]:
        # Transport-port rules in 5-tuple filter sets are written against
        # generic source/destination ports; expose both OXM namings so
        # either style of rule can match.
        return {
            "udp_src": self.src_port,
            "udp_dst": self.dst_port,
            "tcp_src": self.src_port,
            "tcp_dst": self.dst_port,
        }


@dataclass(frozen=True)
class Icmp(Header):
    """ICMPv4 header."""

    icmp_type: int
    code: int = 0

    def __post_init__(self) -> None:
        _check_width("icmpv4_type", self.icmp_type, 8)
        _check_width("icmpv4_code", self.code, 8)

    def match_fields(self) -> dict[str, int]:
        return {"icmpv4_type": self.icmp_type, "icmpv4_code": self.code}


#: Every header type above, in typical stack order.
HEADER_TYPES: tuple[type[Header], ...] = (
    Ethernet,
    Vlan,
    Mpls,
    IPv4,
    IPv6,
    Tcp,
    Udp,
    Icmp,
)

#: Match fields each header type contributes (the keys its
#: :meth:`Header.match_fields` can emit), kept next to the classes so the
#: schema and the data model cannot drift apart silently —
#: :func:`transport_schema` is validated against this map in tests.
HEADER_MATCH_FIELDS: dict[type[Header], tuple[str, ...]] = {
    Ethernet: ("eth_dst", "eth_src", "eth_type"),
    Vlan: ("vlan_vid", "vlan_pcp", "eth_type"),
    Mpls: ("mpls_label", "mpls_tc", "mpls_bos"),
    IPv4: ("ipv4_src", "ipv4_dst", "ip_proto", "ip_dscp", "ip_ecn"),
    IPv6: (
        "ipv6_src",
        "ipv6_dst",
        "ip_proto",
        "ip_dscp",
        "ip_ecn",
        "ipv6_flabel",
    ),
    Tcp: ("tcp_src", "tcp_dst"),
    Udp: ("udp_src", "udp_dst", "tcp_src", "tcp_dst"),
    Icmp: ("icmpv4_type", "icmpv4_code"),
}

#: Per-packet context carried outside any header.
CONTEXT_FIELDS: tuple[str, ...] = ("in_port", "metadata")

#: Extracted-field-dict key carrying the packet's on-wire frame length in
#: bytes.  It is packet *metadata*, not an OXM match field: no rule
#: matches on it and no partition engine consults it, so it never enters
#: a microflow key's schema tuple nor a megaflow mask — but every
#: ``FlowStats.record`` reads it, which is what makes per-entry byte
#: counters (and bits/sec throughput) real numbers instead of zeros.
FRAME_LEN_FIELD = "frame_len"

#: Width of the frame-length transport lane.  32 bits covers any frame a
#: switch forwards (jumbo frames included) with room to spare.
FRAME_LEN_BITS = 32


def frame_length(packet_fields: Mapping[str, int]) -> int:
    """The frame length (bytes) recorded for a packet's stats, 0 when the
    trace carries no lengths — the single accessor every lookup path's
    ``FlowStats.record`` call goes through."""
    return packet_fields.get(FRAME_LEN_FIELD, 0)


def transport_schema() -> dict[str, int]:
    """Canonical ``field name -> bit width`` schema for packet transports.

    The union of every match field a header can contribute plus the
    context fields, in deterministic (stack, then context) order, with
    widths from the OXM registry.  This is the column order the
    shared-memory transport (:func:`~repro.runtime.transport.encode_batch`)
    lays batches out in; fields outside the schema are appended per
    batch, so the schema is a fast path, not a constraint.

    ``frame_len`` rides along as one more (32-bit, so single-lane)
    column: it is not a match field, but byte-accurate flow stats need
    it on the worker side of the sharded runtime.
    """
    from repro.openflow.fields import REGISTRY

    schema: dict[str, int] = {}
    for header_type in HEADER_TYPES:
        for name in HEADER_MATCH_FIELDS[header_type]:
            if name not in schema:
                schema[name] = REGISTRY[name].bits
    for name in CONTEXT_FIELDS:
        schema[name] = REGISTRY[name].bits
    schema[FRAME_LEN_FIELD] = FRAME_LEN_BITS
    return schema

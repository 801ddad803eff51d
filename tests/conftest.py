"""Shared fixtures: small, deterministic rule sets and packet tooling."""

from __future__ import annotations

import pytest

from repro.filters.paper_data import MacFilterStats, RoutingFilterStats
from repro.filters.rule import Application, Rule, RuleSet
from repro.filters.synthetic import (
    SyntheticAclConfig,
    generate_acl_set,
    generate_mac_set,
    generate_routing_set,
)
from repro.openflow.match import ExactMatch, PrefixMatch, RangeMatch
from repro.packet.generator import PacketGenerator, TraceConfig


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "slow: builds the full-size paper filter sets (tens of seconds); "
        "deselect with -m 'not slow'",
    )


#: A small synthetic stats row so fixtures build fast (bbrb-scale).
SMALL_MAC_STATS = MacFilterStats("testmac", 151, 16, 26, 38, 55)
SMALL_ROUTING_STATS = RoutingFilterStats("testroute", 400, 12, 40, 90)


@pytest.fixture(scope="session")
def small_mac_set() -> RuleSet:
    return generate_mac_set(SMALL_MAC_STATS, seed=11)


@pytest.fixture(scope="session")
def small_routing_set() -> RuleSet:
    return generate_routing_set(SMALL_ROUTING_STATS, seed=13)


@pytest.fixture(scope="session")
def small_acl_set() -> RuleSet:
    return generate_acl_set(SyntheticAclConfig(rules=120, seed=17))


@pytest.fixture()
def generator() -> PacketGenerator:
    return PacketGenerator(TraceConfig(seed=23))


@pytest.fixture()
def tiny_routing_set() -> RuleSet:
    """A hand-written routing set with known overlaps for exact assertions."""
    rules = RuleSet(
        name="tiny-route",
        application=Application.ROUTING,
        field_names=("in_port", "ipv4_dst"),
    )

    def rule(port: int, value: int, length: int, action: int) -> Rule:
        return Rule(
            fields={
                "in_port": ExactMatch(value=port, bits=32),
                "ipv4_dst": PrefixMatch(value=value, length=length, bits=32),
            },
            priority=length,
            action_port=action,
        )

    rules.add(rule(1, 0x0A000000, 8, 10))  # 10/8
    rules.add(rule(1, 0x0A140000, 16, 11))  # 10.20/16
    rules.add(rule(1, 0x0A141E00, 24, 12))  # 10.20.30/24
    rules.add(rule(2, 0x0A000000, 8, 20))  # 10/8 on port 2
    rules.add(
        Rule(
            fields={
                "in_port": ExactMatch(value=1, bits=32),
                "ipv4_dst": PrefixMatch(value=0, length=0, bits=32),
            },
            priority=0,
            action_port=99,
        )
    )  # default route, port 1
    return rules


@pytest.fixture()
def tiny_acl_set() -> RuleSet:
    """A hand-written 5-tuple ACL with ranges for exact assertions."""
    rules = RuleSet(
        name="tiny-acl",
        application=Application.ACL,
        field_names=("ipv4_src", "ipv4_dst", "tcp_src", "tcp_dst", "ip_proto"),
    )
    rules.add(
        Rule(
            fields={
                "ipv4_dst": PrefixMatch(value=0xC0A80000, length=16, bits=32),
                "tcp_dst": RangeMatch(low=0, high=1023, bits=16),
                "ip_proto": ExactMatch(value=6, bits=8),
            },
            priority=30,
            action_port=1,
        )
    )
    rules.add(
        Rule(
            fields={
                "ipv4_src": PrefixMatch(value=0x0A000000, length=8, bits=32),
                "tcp_dst": RangeMatch(low=80, high=80, bits=16),
            },
            priority=20,
            action_port=2,
        )
    )
    rules.add(Rule(fields={}, priority=1, action_port=3))  # catch-all
    return rules

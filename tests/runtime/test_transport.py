"""Shared-memory transport: codec roundtrips, block growth, entry refs
and the flow-stats delta protocol — all in-process (no workers), so
failures localise to the transport rather than the sharded runner."""

import numpy as np
import pytest

from repro.core.lookup_table import OpenFlowLookupTable
from repro.openflow.actions import OutputAction, SetFieldAction
from repro.openflow.flow import FlowEntry
from repro.openflow.instructions import WriteActions
from repro.openflow.match import Match
from repro.openflow.pipeline import OpenFlowPipeline, PipelineResult
from repro.openflow.table import FlowTable
from repro.packet.batch import PacketBatch
from repro.packet.headers import transport_schema
from repro.runtime.batch import ColumnarOutcomes
from repro.runtime.transport import (
    BlockReader,
    BlockWriter,
    EntryIndex,
    FlowStatsDelta,
    MIN_BLOCK_BYTES,
    SharedBlock,
    attach,
    decode_results,
    encode_batch,
    encode_outcomes,
)


def roundtrip(batch, positions=None):
    writer = BlockWriter()
    layout = encode_batch(writer, PacketBatch.from_dicts(batch), "pkt")
    block = SharedBlock()
    try:
        block.ensure(writer.nbytes)
        segments = writer.write_to(block.buf)
        reader = BlockReader(block.buf, segments)
        decoded = attach(reader, layout, positions).dicts()
        del reader  # release numpy views before unmapping
        return decoded
    finally:
        block.close()


class TestPacketBlockCodec:
    def test_roundtrip_identity(self):
        batch = [
            {"in_port": 3, "ipv4_dst": 0x0A000001, "tcp_dst": 80},
            {"in_port": 4, "ipv4_dst": 0xFFFFFFFF, "tcp_dst": 65535},
        ]
        assert roundtrip(batch) == batch

    def test_missing_fields_roundtrip(self):
        batch = [
            {"in_port": 1, "ipv4_dst": 2},
            {"in_port": 2},  # no ipv4_dst: non-IP packet
            {"eth_type": 0x0806},
        ]
        assert roundtrip(batch) == batch

    def test_wide_fields_use_multiple_lanes(self):
        """IPv6 addresses (128 bits) exceed one uint64 lane."""
        batch = [
            {"ipv6_src": (1 << 127) | 5, "ipv6_dst": (1 << 128) - 1},
            {"ipv6_src": 7, "ipv6_dst": 0},
        ]
        assert roundtrip(batch) == batch

    def test_unknown_field_wider_than_advertised(self):
        """A field outside the schema defaults to one lane but must
        still roundtrip when its values need more."""
        batch = [{"x_custom": (1 << 100) + 3}, {"x_custom": 1}]
        assert roundtrip(batch) == batch

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            roundtrip([{"x_custom": 1 << 70}, {"x_custom": -1}])

    def test_duplicate_dicts_encoded_once_and_realiased(self):
        flow = {"in_port": 9, "ipv4_dst": 1}
        other = {"in_port": 9, "ipv4_dst": 1}  # equal but distinct object
        batch = [flow, flow, other, flow]
        writer = BlockWriter()
        layout = encode_batch(writer, PacketBatch.from_dicts(batch), "pkt")
        assert layout.rows == 2  # identity-deduped, not value-deduped
        block = SharedBlock()
        try:
            block.ensure(writer.nbytes)
            reader = BlockReader(block.buf, writer.write_to(block.buf))
            decoded = attach(reader, layout).dicts()
            del reader
        finally:
            block.close()
        assert decoded == batch
        # Aliasing is rebuilt: duplicates share one dict object, so
        # downstream per-batch memoization sees the same shape.
        assert decoded[0] is decoded[1] is decoded[3]
        assert decoded[2] is not decoded[0]

    def test_position_subset_decodes_members_only(self):
        batch = [{"in_port": i} for i in range(10)]
        members = [7, 2, 2, 9]
        assert roundtrip(batch, np.asarray(members)) == [
            batch[i] for i in members
        ]

    def test_empty_batch(self):
        assert roundtrip([]) == []

    def test_schema_orders_canonical_fields_first(self):
        schema = list(transport_schema())
        assert schema.index("eth_dst") < schema.index("in_port")
        writer = BlockWriter()
        layout = encode_batch(
            writer,
            PacketBatch.from_dicts([{"zzz_extra": 1, "eth_dst": 2, "in_port": 3}]),
            "pkt",
        )
        names = [column.name for column in layout.fields]
        assert names == ["eth_dst", "in_port", "zzz_extra"]


class TestSharedBlock:
    def test_grows_by_recreation(self):
        block = SharedBlock()
        try:
            block.ensure(10)
            first = block.name
            assert len(block.buf) >= MIN_BLOCK_BYTES
            block.ensure(MIN_BLOCK_BYTES * 3)
            assert block.name != first
            assert len(block.buf) >= MIN_BLOCK_BYTES * 3
        finally:
            block.close()

    def test_close_idempotent(self):
        block = SharedBlock()
        block.ensure(10)
        block.close()
        block.close()

    def test_close_unlinks_the_segment(self):
        import multiprocessing.shared_memory as shared_memory

        block = SharedBlock()
        block.ensure(10)
        name = block.name
        block.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_abandoned_block_is_unlinked_by_the_finalizer(self):
        """The interrupted-run guard: dropping a block without close()
        must still unlink the segment at GC, not strand it in /dev/shm
        until reboot."""
        import gc
        import multiprocessing.shared_memory as shared_memory

        block = SharedBlock()
        block.ensure(10)
        name = block.name
        del block
        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_growth_unlinks_the_outgrown_segment(self):
        import multiprocessing.shared_memory as shared_memory

        block = SharedBlock()
        try:
            block.ensure(10)
            first = block.name
            block.ensure(MIN_BLOCK_BYTES * 3)
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=first)
        finally:
            block.close()


def _result(entry_tables, entries, ports, fields, actions=()):
    result = PipelineResult(final_fields=dict(fields))
    result.tables_visited = list(entry_tables)
    result.matched_entries = list(entries)
    result.output_ports = list(ports)
    result.applied_actions = list(actions)
    return result


def _outcomes(packets, results):
    """Outcomes whose every position was wave-classified into the given
    synthetic result, so the encoder diffs each ``final_fields``
    against its packet (no megaflow template to replay)."""
    batch = PacketBatch.from_dicts(packets)
    return ColumnarOutcomes(
        batch=batch,
        entries=[None] * len(results),
        wave_results=dict(enumerate(results)),
        frame=batch.frame_lengths(),
    )


class TestResultBlocks:
    def make_table(self):
        table = FlowTable(table_id=0)
        entries = [
            FlowEntry.build(
                match=Match.exact(in_port=port),
                priority=port,
                instructions=[WriteActions([OutputAction(100 + port)])],
            )
            for port in (1, 2, 3)
        ]
        for entry in entries:
            table.add(entry)
        return table, entries

    def test_results_roundtrip_via_entry_refs(self):
        table, entries = self.make_table()
        pipeline = OpenFlowPipeline([table])
        index = EntryIndex(pipeline)
        out = OutputAction(101)
        rewrite = SetFieldAction("vlan_vid", 42)
        packets = [{"in_port": 1}, {"in_port": 9}, {"in_port": 3}]
        results = [
            _result([0], [entries[0]], [101], packets[0], [rewrite, out]),
            _result([0], [], [0xFFFFFFFD], packets[1]),
            _result([0], [entries[2]], [103], packets[2], [out]),
        ]
        results[1].sent_to_controller = True
        results[2].metadata = (1 << 64) - 1
        results[2].final_fields["metadata"] = results[2].metadata

        writer = BlockWriter()
        layout, vocabulary, delta = encode_outcomes(
            writer, _outcomes(packets, results), index
        )
        assert delta.counts == {(0, 0): (1, 0), (0, 2): (1, 0)}
        block = SharedBlock()
        try:
            block.ensure(writer.nbytes)
            reader = BlockReader(block.buf, writer.write_to(block.buf))
            pinned = index.pin()
            decoded = decode_results(
                reader,
                layout,
                vocabulary,
                lambda table_id, position: pinned[table_id][position],
                packets,
            )
            del reader
        finally:
            block.close()
        for original, rebuilt in zip(results, decoded):
            assert rebuilt.output_ports == original.output_ports
            assert rebuilt.sent_to_controller == original.sent_to_controller
            assert rebuilt.dropped == original.dropped
            assert rebuilt.metadata == original.metadata
            assert rebuilt.tables_visited == original.tables_visited
            assert rebuilt.final_fields == original.final_fields
            assert rebuilt.applied_actions == original.applied_actions
        # Matched entries resolved to the *pinned* (parent) objects.
        assert decoded[0].matched_entries == [entries[0]]
        assert decoded[0].matched_entries[0] is entries[0]

    def test_results_against_inputs_ship_only_overrides(self):
        """With the input packets in hand, final fields travel as
        rewrite overrides (mostly None) and the decoder rebuilds them
        from its own copies of the packets."""
        table, entries = self.make_table()
        pipeline = OpenFlowPipeline([table])
        index = EntryIndex(pipeline)
        packets = [
            {"in_port": 1, "vlan_vid": 7},
            {"in_port": 2, "vlan_vid": 7},
        ]
        untouched = _result([0], [entries[0]], [101], packets[0])
        rewritten = _result(
            [0],
            [entries[1]],
            [102],
            dict(packets[1], vlan_vid=42, metadata=9),
        )
        writer = BlockWriter()
        layout, vocabulary, _ = encode_outcomes(
            writer, _outcomes(packets, [untouched, rewritten]), index
        )
        assert layout.overrides == (None, {"vlan_vid": 42, "metadata": 9})
        block = SharedBlock()
        try:
            block.ensure(writer.nbytes)
            reader = BlockReader(block.buf, writer.write_to(block.buf))
            pinned = index.pin()
            decoded = decode_results(
                reader,
                layout,
                vocabulary,
                lambda table_id, position: pinned[table_id][position],
                packets,
            )
            del reader
        finally:
            block.close()
        assert decoded[0].final_fields == untouched.final_fields
        assert decoded[0].final_fields is not packets[0]  # fresh dict
        assert decoded[1].final_fields == rewritten.final_fields


class TestEntryIndex:
    def test_refs_track_mutations(self):
        table = OpenFlowLookupTable(("in_port",), table_id=0)
        pipeline = OpenFlowPipeline([table])
        index = EntryIndex(pipeline)
        first = FlowEntry.build(match=Match.exact(in_port=1), priority=1)
        second = FlowEntry.build(match=Match.exact(in_port=2), priority=2)
        table.add(first)
        table.add(second)
        assert index.ref(0, second) == (0, 1)
        table.remove(first.match, first.priority)
        assert index.ref(0, second) == (0, 0)  # cache refreshed on version

    def test_pin_freezes_order_across_mutation(self):
        table = FlowTable(table_id=0)
        pipeline = OpenFlowPipeline([table])
        index = EntryIndex(pipeline)
        entry = FlowEntry.build(match=Match.exact(in_port=1), priority=1)
        table.add(entry)
        pinned = index.pin()
        # A high-priority entry added *after* the pin re-sorts the
        # table, but ref resolution against the pin is unaffected.
        table.add(FlowEntry.build(match=Match.exact(in_port=2), priority=99))
        assert pinned[0][0] is entry

    def test_delta_apply_updates_pinned_entries(self):
        table = FlowTable(table_id=0)
        pipeline = OpenFlowPipeline([table])
        index = EntryIndex(pipeline)
        entry = FlowEntry.build(match=Match.exact(in_port=1), priority=1)
        table.add(entry)
        pinned = index.pin()
        delta = FlowStatsDelta(counts={(0, 0): (5, 700)})
        assert delta.apply(pinned) == (5, 700)
        assert entry.stats.packet_count == 5
        assert entry.stats.byte_count == 700

"""Deterministic routing for sharded-runtime tests.

:class:`RoutedSharded` sends each packet to the worker named by its
``shard_key`` field (a synthetic field outside every rule's match, so
classification is unaffected), or by its ``in_port`` when the batch
carries no ``shard_key`` — so a test can pin a batch to the worker it
means to stall, kill or degrade.
"""

import numpy as np

from repro.runtime import ShardedBatchPipeline


class RoutedSharded(ShardedBatchPipeline):
    """Packets go to the worker named by their ``shard_key`` (or, absent
    that column, ``in_port``) value, mod workers; a packet lacking the
    field goes to worker 0."""

    def shard_rows(self, batch):
        name = "shard_key" if batch.column("shard_key") is not None else "in_port"
        column = batch.column(name)
        if column is None:
            return np.zeros(len(batch), dtype=np.int64)
        lanes, present = column
        values = lanes[0] if present is None else lanes[0] * present
        return (values % np.uint64(self.workers)).astype(np.int64)[batch.pick]

"""Multi-core shard execution: one shard host, run in-process or in workers.

The :class:`~repro.sharding.ShardCoordinator` drives its shard engines
through :class:`ShardHost`, which owns the engines of a set of shards
on one simulator clock and defines every shard operation once:

* the serial backend is one :class:`ShardHost` over every shard,
  in-process (the original coordinator execution model, bit for bit);
* :class:`ParallelBackend` spawns worker processes that each serve a
  :class:`ShardHost` over their round-robin shards, and only scatters
  each phase command and gathers the replies at the ``begin_round`` /
  ``begin_argue`` / ``complete_round`` barriers, receipts batched over
  pipes.

Both produce bit-identical ledgers for the same seed; the parallel
backend turns E14's sim-time shard scaling into *wall-clock* scaling
on multi-core hosts (benchmark E16).
"""

from repro.parallel.backend import (
    ShardChainStats,
    ShardHost,
    ShardRoundInfo,
    ShardScan,
    build_shard_engine,
    scan_shard_commits,
)
from repro.parallel.pool import ParallelBackend, parallel_metrics
from repro.parallel.worker import WorkerInit, worker_main

__all__ = [
    "ShardHost",
    "ParallelBackend",
    "ShardRoundInfo",
    "ShardScan",
    "ShardChainStats",
    "WorkerInit",
    "worker_main",
    "build_shard_engine",
    "scan_shard_commits",
    "parallel_metrics",
]

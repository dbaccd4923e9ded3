"""Shard worker process: a shard host driven over a pipe.

``worker_main`` is the spawn entry point of the parallel backend.  Each
worker serves one :class:`~repro.parallel.backend.ShardHost` over its
round-robin shards — the same class the serial backend runs over every
shard.  Co-hosted engines share the worker's one simulator clock,
exactly as all engines share one clock in the serial backend; shard
event streams are independent (they share only barrier *times*, never
events), so a clock advanced to the same targets reproduces the serial
coordinator's history bit for bit (see :mod:`repro.parallel.backend`).

The command loop speaks length-prefixed pickles over a
``multiprocessing.Pipe``: the driver sends ``(seq, op, args)``, where
``op`` names a public :class:`ShardHost` method, and the worker
replies ``(seq, "ok", result, wall_seconds)`` or ``(seq, "err", type,
message, traceback)``.  The echoed sequence number lets the driver
discard stale replies after a sibling worker's crash aborted a phase
mid-collect — survivors' unread replies are skipped, not misread as
answers to later commands.  ``wall_seconds`` is the worker-side compute
time for the op, which the driver accumulates into the
``par_worker_round_seconds`` histogram — barrier skew (fast workers
idling at the barrier) is then the difference between the slowest and
fastest worker, exported as ``par_barrier_wait_seconds``.

Engines run with observability **disabled** in workers (metrics
registries are process-local and the no-op registry is guaranteed
behaviour-neutral); all shard/parallel metrics live driver-side.
"""

from __future__ import annotations

import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Mapping

from repro.parallel.backend import ShardHost

__all__ = ["WorkerInit", "worker_main"]


@dataclass(frozen=True)
class WorkerInit:
    """Everything a worker needs to rebuild its shard host from scratch.

    Pure picklable data — topology, params, behaviours, seeds, storage
    configs — so the same ``WorkerInit`` that spawned a worker can
    respawn its replacement after a crash (engines then re-anchor from
    their durable checkpoints, when storage is configured).
    """

    worker: int
    #: Global shard indices hosted by this worker, in driver order.
    shards: tuple[int, ...]
    #: Keyword arguments of :class:`ShardHost` (without ``shards``).
    host: Mapping[str, object]


def _send(conn, obj) -> None:
    conn.send_bytes(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _error(seq: int, exc: BaseException) -> tuple:
    return (seq, "err", type(exc).__name__, str(exc), traceback.format_exc())


def worker_main(conn, init: WorkerInit) -> None:
    """Spawn entry point: build the host, acknowledge, serve commands.

    Never raises out: construction and per-op failures are shipped back
    as ``("err", ...)`` replies so the driver can re-raise them with the
    worker context attached.  The loop exits on ``"shutdown"`` or when
    the driver end of the pipe closes.
    """
    try:
        host = ShardHost(shards=init.shards, **init.host)
    except BaseException as exc:  # construction failed: report, don't hang
        _send(conn, _error(0, exc))
        conn.close()
        return
    _send(conn, (0, "ok", "ready", 0.0))
    while True:
        try:
            raw = conn.recv_bytes()
        except EOFError:
            break
        seq, op, args = pickle.loads(raw)
        if op == "shutdown":
            _send(conn, (seq, "ok", None, 0.0))
            break
        method = None if op.startswith("_") else getattr(host, op, None)
        if not callable(method):
            _send(conn, (seq, "err", "ValueError", f"unknown op {op!r}", ""))
            continue
        start = time.perf_counter()
        try:
            result = method(*args)
        except BaseException as exc:
            _send(conn, _error(seq, exc))
            continue
        _send(conn, (seq, "ok", result, time.perf_counter() - start))
    conn.close()

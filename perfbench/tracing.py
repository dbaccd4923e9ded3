"""Out-of-process-free layer tracing for the benchmark.

Everything here wraps *public* callables of ``repro`` from the
benchmark's side; nothing inside ``src/repro`` is edited.

* :class:`Tracer` keeps a call stack of open spans and, when a span
  closes, charges its duration to its parent's *covered* time.  A span's
  self time is its duration minus the time its child spans cover, so
  the self times of every span under a top-level span add up to that
  top-level span's duration exactly.  Aggregates are exact for every
  call; the raw ``(id, parent, name, start, end)`` records are kept in
  memory up to :data:`KEEP_SPANS` spans and written out once, at the end.
* :class:`Probes` installs and removes the wrappers.  A function is
  patched in *every* ``repro`` module that holds a reference to it,
  because most callers import it by name (``from repro.crypto.hashing
  import hash_value``) and patching only the defining module would miss
  them.  Methods and properties are patched on their class.
* :func:`retained_by_layer` is the memory pass: live ``tracemalloc``
  bytes grouped by the ``src/repro/<layer>/`` package that allocated
  them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import PurePath
from typing import Callable

#: The layers the benchmark reports, named after ``src/repro`` packages.
LAYERS = (
    "crypto",
    "ledger",
    "network",
    "agents",
    "core",
    "audit",
    "storage",
    "parallel",
    "sharding",
    "streaming",
)
#: Raw span records a :class:`Tracer` retains for :meth:`Tracer.write`;
#: the aggregates never drop anything.
KEEP_SPANS = 50_000


class Tracer:
    """In-memory span recorder with exact self-time accounting.

    Args:
        clock: Monotonic time source (injectable so tests can drive a
            synthetic span tree).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # Open spans: [name, start, covered-by-children, span id].
        self._stack: list[list] = []
        #: name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        #: Plain event counters bumped by counting probes.
        self.counts: dict[str, float] = defaultdict(float)
        #: Raw records ``(id, parent id or 0, name, start, end)``.
        self.spans: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (no span may be open).

        Containers are cleared in place: installed probes hold
        references to them.
        """
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        self.stats.clear()
        self.counts.clear()
        self.spans.clear()
        self._next_id = 0
        self.dropped = 0
        #: Summed duration of top-level spans (the driver's calls).
        self.top_level = 0.0

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, self.clock(), 0.0, self._next_id])

    def exit(self) -> None:
        end = self.clock()
        name, start, covered, span_id = self._stack.pop()
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - covered
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        else:
            self.top_level += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, parent[3] if parent else 0, name, start, end))
        else:
            self.dropped += 1

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def calls(self, *names: str) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def self_seconds(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def write(self, path) -> None:
        """Write the retained raw spans as JSON lines."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, name, start, end]) + "\n")


class Probes:
    """Installs tracing wrappers around public ``repro`` callables."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn: Callable, name: str, tally: Callable | None):
        tracer = self.tracer
        enter, exit_ = tracer.enter, tracer.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if tally is not None:
                tally(tracer.counts, args, result)
            return result

        return wrapper

    def method(self, cls, attr: str, name: str, tally: Callable | None = None) -> None:
        """Span every call of ``cls.attr`` (defined on ``cls`` itself)."""
        self._set(cls, attr, self._wrap(cls.__dict__[attr], name, tally))

    def function(self, module, attr: str, name: str) -> None:
        """Span a module-level function wherever ``repro`` looks it up."""
        original = module.__dict__[attr]
        wrapper = self._wrap(original, name, None)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapper)

    def count_calls(self, cls, attr: str, tally: Callable) -> None:
        """Tally calls of a method (no span): cheap enough for hot paths.

        ``tally(counts, args, result)`` updates the tracer's counters.
        """
        fn = cls.__dict__[attr]
        counts = self.tracer.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tally(counts, args, result)
            return result

        self._set(cls, attr, counted)

    def count_property(self, cls, attr: str, name: str) -> None:
        """Count reads of a property (no span)."""
        fget = cls.__dict__[attr].fget
        counts = self.tracer.counts

        def counted(obj):
            counts[name] += 1
            return fget(obj)

        self._set(cls, attr, property(counted, doc=fget.__doc__))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def install_layer_probes(probes: Probes) -> None:
    """Wrap every layer boundary the per-layer metrics are built from.

    Span names are ``<layer>.<what>``; :data:`LAYERS` is the prefix set.
    Imports happen here so that merely importing this module does not
    import ``repro``.

    IPC between the driver and the shard workers is counted on the
    driver's pipe connections (``send_bytes`` / ``recv_bytes``), one
    message per pickled blob as ``par_ipc_*`` counts them, so that the
    parallel run needs no metrics registry: with one, the coordinator
    asks every worker for its collector masses each super-round to set
    a gauge, traffic the untraced configuration never sends.
    """
    from multiprocessing import connection
    from repro.agents.governor import Governor
    from repro.agents.provider import Provider
    from repro.audit.auditor import SafetyAuditor
    from repro.core import rewards, screening
    from repro.crypto import hashing, signatures
    from repro.crypto.identity import IdentityManager
    from repro.ledger.chain import Ledger
    from repro.ledger.store import BlockStore
    from repro.ledger.transaction import SignedTransaction
    from repro.network.broadcast import AtomicBroadcast
    from repro.network.simnet import Simulator
    from repro.parallel.pool import ParallelBackend
    from repro.sharding.coordinator import ShardCoordinator
    from repro.storage import durable
    from repro.streaming.workload import StreamingWorkload

    def add(key: str, amount: Callable):
        def tally(counts, args, result):
            counts[key] += amount(args, result)
        return tally

    def ipc(size: Callable):
        def tally(counts, args, result):
            counts["parallel.ipc_msgs"] += 1
            counts["parallel.ipc_bytes"] += size(args, result)
        return tally

    probes.method(IdentityManager, "verify", "crypto.verify")
    probes.method(IdentityManager, "verify_batch", "crypto.verify_batch")
    probes.function(signatures, "sign", "crypto.sign")
    for fn in ("canonical_encode", "hash_value", "hash_many"):
        probes.function(hashing, fn, "crypto.encode")

    probes.count_property(SignedTransaction, "tx_id", "ledger.tx_id")
    probes.count_calls(
        BlockStore, "next_for", add("ledger.block_reads", lambda args, result: result is not None)
    )
    probes.method(BlockStore, "publish", "ledger.publish")
    probes.method(Ledger, "append", "ledger.append")

    probes.method(
        Simulator, "run", "network.sim_run",
        tally=add("network.events", lambda args, result: result),
    )
    probes.method(AtomicBroadcast, "broadcast", "network.broadcast")
    probes.method(AtomicBroadcast, "on_message", "network.broadcast")

    probes.method(Governor, "ingest_upload", "agents.ingest_upload")
    probes.method(Governor, "screen_pending", "agents.screen")
    probes.method(Governor, "screen_single", "agents.screen")
    probes.method(Governor, "handle_argue", "agents.argue")
    probes.method(
        Provider, "review_block", "agents.review_block",
        tally=add("agents.review_records", lambda args, result: len(args[1].tx_list)),
    )

    probes.function(screening, "screen_transaction", "core.screen_transaction")
    probes.function(rewards, "distribute_rewards", "core.rewards")

    probes.method(SafetyAuditor, "observe_upload", "audit.observe_upload")
    probes.method(SafetyAuditor, "ingest_vote", "audit.votes")
    for fn in ("audit_block", "audit_book", "audit_agreement"):
        probes.method(SafetyAuditor, fn, "audit.round")

    probes.method(durable.DurableBlockStore, "publish", "storage.publish")
    probes.function(durable, "write_checkpoint", "storage.checkpoint")

    for fn in (
        "carryover", "begin_round", "run_until", "begin_argue", "complete_round",
        "scan_commits", "relay", "repair_scan", "collector_masses",
        "release_collectors", "adopt_collectors", "install_faults",
        "tip_hashes", "chain_stats", "finalize_engines",
    ):
        probes.method(ParallelBackend, fn, "parallel.phase")
    probes.count_calls(
        connection._ConnectionBase, "send_bytes", ipc(lambda args, result: len(args[1]))
    )
    probes.count_calls(
        connection._ConnectionBase, "recv_bytes", ipc(lambda args, result: len(result))
    )
    probes.method(ShardCoordinator, "run_super_round", "sharding.coordinator")

    probes.method(StreamingWorkload, "for_round", "streaming.workload")


def layer_of(span_name: str) -> str | None:
    """The layer a span belongs to, or None for the driver's call spans."""
    head = span_name.split(".", 1)[0]
    return head if head in LAYERS else None


def layer_breakdown(tracer: Tracer) -> dict[str, float]:
    """Self seconds per layer plus ``unattributed`` and ``drive``.

    ``drive`` is the summed duration of the top-level spans (the
    driver's calls into the system); ``unattributed`` is the self time
    of the driver's call spans, i.e. time in system code that no probe
    covers.  The layers plus ``unattributed`` add up to ``drive`` by
    construction (each span's duration is charged to its parent's
    covered time); ``run.py`` checks the sum against the call time the
    driver measures outside the tracer.
    """
    out = {layer: 0.0 for layer in LAYERS}
    out["unattributed"] = 0.0
    for name, (_, _, own) in tracer.stats.items():
        out[layer_of(name) or "unattributed"] += own
    out["drive"] = tracer.top_level
    return out


def retained_by_layer(snapshot: tracemalloc.Snapshot) -> dict[str, float]:
    """Live bytes per ``src/repro/<layer>/`` package, in MiB."""
    out = {layer: 0.0 for layer in LAYERS}
    for stat in snapshot.statistics("filename"):
        parts = PurePath(stat.traceback[0].filename).parts
        for i in range(len(parts) - 2, 0, -1):
            if parts[i] == "repro" and parts[i - 1] == "src":
                if parts[i + 1] in out:
                    out[parts[i + 1]] += stat.size / (1 << 20)
                break
    return out

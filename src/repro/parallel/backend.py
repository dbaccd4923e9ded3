"""The shard host: every shard operation, written once.

:class:`~repro.sharding.ShardCoordinator` is split into a *driver*
(workload routing, receipt bookkeeping, auditing, epoch reshuffles) and
an execution layer that actually runs the ``S`` protocol engines
through the phase-split round API.  :class:`ShardHost` is that layer:
it owns the engines for a set of global shard indices, all on **one**
:class:`~repro.network.simnet.Simulator`, and defines each phase
command once.  The driver only ever speaks in those commands and plain
picklable results, so the same host runs

* in-process over all shards — the serial backend, the original
  coordinator execution model bit for bit — and
* inside each spawned worker process over that worker's round-robin
  shards, behind :class:`~repro.parallel.pool.ParallelBackend`, which
  only scatters the commands and gathers the replies.

Every value that crosses the surface (specs in, drain targets,
round summaries, scan events, receipts) is picklable by construction;
nothing in the driver ever holds a live engine reference through it,
which is exactly what makes the process pool a drop-in.

**Why parallel == serial, bit for bit.**  Shard engines are sovereign:
each owns its network, broadcast fabric, identity manager, RNG streams,
and ledger family.  Engines on one host share only the simulator
*clock*, and every phase ends with the clock parked at the barrier
maximum (``Simulator.run(until=...)`` always parks).  Since the shared
simulator's own RNG is never consumed, a shard's event stream depends
only on (a) its own seeded state and (b) the barrier times — so a
worker's host, whose clock is advanced to the same barrier targets,
reproduces the exact event history of every engine it hosts, however
the shards are split among hosts.  The one cross-shard interaction —
receipt relays — happens only while the clock is parked between
super-rounds, and the driver preserves the per-remote-shard relay
order, so each remote network's latency-RNG draw sequence is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.ledger.properties import check_all_properties
from repro.network.simnet import Simulator
from repro.network.topology import ShardedTopology
from repro.workloads.generator import TxSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports)
    from repro.core.netengine import NetworkedProtocolEngine

__all__ = [
    "ShardHost",
    "ShardRoundInfo",
    "ShardScan",
    "ShardChainStats",
    "scan_shard_commits",
    "build_shard_engine",
]


@dataclass(frozen=True)
class ShardRoundInfo:
    """Picklable outcome of one shard's round, as the driver sees it.

    Both backends return these instead of full
    :class:`~repro.core.netengine.NetworkedRoundResult` objects — the
    driver needs the summary (and ``carryover`` for next round's spec
    budget), not the block body, which stays with the engine.
    """

    shard: int
    round_number: int
    leader: str
    block_serial: int
    block_size: int
    argues_sent: int
    #: Re-evaluated-record queue depth after the round — next round's
    #: fresh-spec budget is ``b_limit - carryover``.
    carryover: int


@dataclass(frozen=True)
class ShardScan:
    """One shard's committed-block scan since the driver's last cursor.

    ``events`` preserves exact (block, record) order with two shapes:

    * ``("r", receipt_id, serial)`` — a cross-shard receipt record
      landed on this (remote) shard's chain at ``serial``;
    * ``("m", receipt, verified)`` — a fresh cross-shard origin commit
      minted ``receipt`` for relay; ``verified`` is the home identity
      manager's verdict on the proposer signature (checked where the
      keys live, so the driver never needs a remote shard's IM).
    """

    shard: int
    #: Store height after the scan — the driver's next cursor.
    cursor: int
    #: Origin (non-receipt) records committed in the scanned range.
    origin: int
    events: tuple


@dataclass(frozen=True)
class ShardChainStats:
    """Per-shard chain/reporting summary (CLI + benchmarks)."""

    shard: int
    height: int
    origin: int
    cross_out: int
    receipts_in: int
    reputation_mass: float
    properties_hold: bool


def build_shard_engine(
    shard: int,
    topology,
    params,
    behaviors: Mapping[str, object],
    seed: int,
    min_delay: float,
    max_delay: float,
    resilience: bool,
    obs=None,
    audit=None,
    sim: Simulator | None = None,
    storage=None,
) -> "NetworkedProtocolEngine":
    """Construct shard ``k``'s engine exactly as every backend must.

    Single source of truth for the per-shard derived seed
    (``seed + 7919 * (k + 1)``), the behaviour filtering, and the relay
    enrolment order — any divergence here would break serial/parallel
    bit-identity.
    """
    from repro.core.netengine import NetworkedProtocolEngine

    shard_behaviors = {
        cid: b for cid, b in dict(behaviors or {}).items()
        if cid in topology.collectors
    }
    engine = NetworkedProtocolEngine(
        topology,
        params,
        behaviors=shard_behaviors,
        seed=seed + 7919 * (shard + 1),
        min_delay=min_delay,
        max_delay=max_delay,
        resilience=resilience,
        obs=obs,
        audit=audit,
        sim=sim,
        storage=storage,
    )
    engine.enable_xshard(relay_id=f"relay-s{shard}")
    return engine


def scan_shard_commits(
    engine: "NetworkedProtocolEngine",
    shard: int,
    from_serial: int,
    provider_shard: Mapping[str, int],
) -> ShardScan:
    """Scan one shard's chain past ``from_serial`` for the driver.

    Receipts for fresh cross-shard origin commits are minted *here* —
    where the proposer's signing key and the home identity manager
    live — and shipped to the driver pre-verified.  Event order is the
    exact (block, record) commit order, which the driver relies on to
    replay the serial coordinator's audit/relay sequence.
    """
    # Imported here, not at module level: ``repro.sharding``'s package
    # init pulls in the coordinator, which imports this module — spawned
    # workers import ``repro.parallel`` first and would hit the cycle.
    from repro.sharding.receipts import make_receipt, verify_receipt

    events: list[tuple] = []
    origin = 0
    serial = from_serial
    while serial < engine.store.height:
        serial += 1
        block = engine.store.retrieve(serial)
        for record in block.tx_list:
            payload = record.tx.body.payload
            if isinstance(payload, dict) and "xshard_receipt" in payload:
                events.append(("r", payload["xshard_receipt"], serial))
                continue
            origin += 1
            if not (isinstance(payload, dict) and "xshard_to" in payload):
                continue
            target = provider_shard.get(payload["xshard_to"])
            if target is None or target == shard:
                continue  # same-shard counterparty needs no relay
            receipt = make_receipt(
                engine.governors[block.proposer].key,
                home_shard=shard,
                remote_shard=target,
                tx_id=record.tx.tx_id,
                home_serial=serial,
            )
            events.append(("m", receipt, verify_receipt(receipt, engine.im)))
    return ShardScan(shard=shard, cursor=serial, origin=origin, events=tuple(events))


def shard_chain_stats(
    engine: "NetworkedProtocolEngine", shard: int
) -> ShardChainStats:
    """Reporting summary of one shard engine."""
    origin = cross_out = receipts_in = 0
    for serial in range(1, engine.store.height + 1):
        for record in engine.store.retrieve(serial).tx_list:
            payload = record.tx.body.payload
            if isinstance(payload, dict) and "xshard_receipt" in payload:
                receipts_in += 1
                continue
            origin += 1
            if isinstance(payload, dict) and "xshard_to" in payload:
                cross_out += 1
    props = check_all_properties(engine.ledgers(), engine.transcript)
    return ShardChainStats(
        shard=shard,
        height=engine.store.height,
        origin=origin,
        cross_out=cross_out,
        receipts_in=receipts_in,
        reputation_mass=float(sum(engine.collector_masses().values())),
        properties_hold=props.all_hold,
    )


class ShardHost:
    """The engines of a set of global shard indices on one clock.

    Every method below is one shard operation, defined here only: the
    serial backend is a host over all shards, and each parallel worker
    serves a host over its shards, dispatching pipe commands by method
    name.  Per-shard arguments are indexed by *global* shard (a list
    over all shards, or a shard-keyed mapping that may name only some
    of them); per-shard results are lists in this host's shard order.
    Seeded runs are bit-identical to pre-split builds: engine
    construction order, per-shard seeds, relay enrolment, and the
    per-remote receipt-relay order are all unchanged.
    """

    kind = "serial"

    def __init__(
        self,
        topology: ShardedTopology,
        params,
        behaviors: Mapping[str, object] | None = None,
        seed: int = 0,
        min_delay: float = 0.005,
        max_delay: float = 0.05,
        resilience: bool = False,
        obs=None,
        audit=None,
        storage: Sequence[object | None] | None = None,
        shards: Sequence[int] | None = None,
    ):
        #: Hosted global shard indices (default: every shard), in order.
        self.shards = tuple(range(topology.num_shards) if shards is None else shards)
        self.provider_shard = dict(topology.provider_shard)
        self.sim = Simulator(seed=seed)
        if obs is not None:
            obs.bind_clock(lambda: self.sim.now)
        storage = list(storage) if storage is not None else [None] * topology.num_shards
        #: Engines in :attr:`shards` order.
        self.engines: list = [
            build_shard_engine(
                k,
                topology.shards[k],
                params,
                behaviors or {},
                seed,
                min_delay,
                max_delay,
                resilience,
                obs=obs,
                audit=audit,
                sim=self.sim,
                storage=storage[k],
            )
            for k in self.shards
        ]
        self._engine = dict(zip(self.shards, self.engines))
        self._ctxs: list | None = None

    def carryover(self) -> list[int]:
        return [engine.carryover_depth() for engine in self.engines]

    def begin_round(self, specs: Sequence[Sequence[TxSpec]]) -> list[float]:
        self._ctxs = [
            engine.begin_round(specs[k]) for k, engine in self._engine.items()
        ]
        return [ctx.drain_until for ctx in self._ctxs]

    def run_until(self, until: float) -> None:
        self.sim.run(until=until)

    def begin_argue(self) -> list[float]:
        if self._ctxs is None:
            raise ConfigurationError("begin_argue before begin_round")
        return [
            engine.begin_argue(ctx) for engine, ctx in zip(self.engines, self._ctxs)
        ]

    def complete_round(self) -> list[ShardRoundInfo]:
        if self._ctxs is None:
            raise ConfigurationError("complete_round before begin_round")
        infos = []
        for (k, engine), ctx in zip(self._engine.items(), self._ctxs):
            result = engine.complete_round(ctx)
            infos.append(
                ShardRoundInfo(
                    shard=k,
                    round_number=result.round_number,
                    leader=result.leader,
                    block_serial=result.block.serial,
                    block_size=len(result.block.tx_list),
                    argues_sent=result.argues_sent,
                    carryover=engine.carryover_depth(),
                )
            )
        self._ctxs = None
        return infos

    def scan_commits(self, cursors: Sequence[int]) -> list[ShardScan]:
        return [
            scan_shard_commits(engine, k, cursors[k], self.provider_shard)
            for k, engine in self._engine.items()
        ]

    def relay(self, batches: Mapping[int, Sequence]) -> None:
        for shard, receipts in batches.items():
            self._engine[shard].inject_receipts(receipts)

    def repair_scan(self, shard: int) -> bool:
        return self._engine[shard].recovery_lagging()

    def collector_masses(self) -> dict[str, float]:
        masses: dict[str, float] = {}
        for engine in self.engines:
            masses.update(engine.collector_masses())
        return masses

    def release_collectors(
        self, by_shard: Mapping[int, Sequence[str]]
    ) -> dict[str, tuple[tuple[str, ...], object]]:
        return {
            cid: self._engine[shard].release_collector(cid)
            for shard, cids in by_shard.items()
            for cid in cids
        }

    def adopt_collectors(
        self, by_shard: Mapping[int, Sequence[tuple[str, tuple[str, ...], object]]]
    ) -> None:
        for shard, adoptions in by_shard.items():
            for cid, slots, behavior in adoptions:
                self._engine[shard].adopt_collector(cid, slots, behavior=behavior)

    def install_faults(self, shard: int, plan, tamperer=None) -> None:
        # The injector stays with its engine; read it via fault_stats().
        self._engine[shard].install_faults(plan, tamperer=tamperer)

    def fault_stats(self) -> dict[int, object]:
        """Fault-injector stats by shard (None where no plan is installed)."""
        return {
            k: None if engine.injector is None else engine.injector.stats
            for k, engine in self._engine.items()
        }

    def tip_hashes(self) -> list[str]:
        tips = []
        for engine in self.engines:
            height = engine.store.height
            tips.append(engine.store.retrieve(height).hash().hex() if height else "")
        return tips

    def chain_stats(self) -> list[ShardChainStats]:
        return [shard_chain_stats(engine, k) for k, engine in self._engine.items()]

    def finalize_engines(self) -> None:
        # The driver already ran the barrier-synchronized recovery drain
        # (see ShardCoordinator.finalize), so engines skip their own.
        for engine in self.engines:
            engine.finalize(drain=False)

    def now(self) -> float:
        return self.sim.now

    def close(self) -> None:  # in-process: nothing to tear down
        pass

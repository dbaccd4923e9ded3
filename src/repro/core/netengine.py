"""Packet-level protocol engine over the simulated synchronous network.

:class:`NetworkedProtocolEngine` executes the same protocol as
:class:`repro.core.protocol.ProtocolEngine`, but every interaction is a
real message through :class:`~repro.network.simnet.SyncNetwork` +
:class:`~repro.network.broadcast.AtomicBroadcast`, with the timing
structure of Algorithm 2:

* providers broadcast into per-collector *feed* groups at round start;
* collectors label on delivery and atomically broadcast uploads to the
  *uploads* group (all governors);
* each governor starts a Δ timer on the **first** report of a
  transaction (``starttime(tx, Δ)``) and screens it when the timer
  fires (``endtime(tx)``) — per-transaction, not per-batch;
* at the round cutoff the leader packs its screened records into a
  block and broadcasts it on the *blocks* group; every governor appends
  on delivery;
* providers then read the block from the store and send ``argue``
  messages point-to-point to every governor.

Message counts come from the network's real counters
(``engine.network.stats``), which lets tests cross-check the in-process
engine's analytic accounting against packet-level truth.

The engine is slower than the in-process one (every payload is a
scheduled event), so the big statistical experiments use
``ProtocolEngine``; this engine is the fidelity reference for
integration tests and the Δ-timing experiments.

**Fault tolerance** (``resilience=True``): the engine can run under a
seeded :class:`~repro.faults.FaultPlan` (``install_faults``) and still
uphold its safety properties.  Feed and upload traffic flows through an
ack/retransmit :class:`~repro.network.reliable.ReliableChannel`; the
block/upload broadcast groups repair sequence gaps via NACKs to a
sequencer endpoint with a deterministic backup
(:meth:`~repro.network.broadcast.AtomicBroadcast.enable_gap_repair`);
a crashed governor loses its volatile screening buffer, is retired from
leadership, and on recovery rejoins via
:func:`repro.ledger.sync.sync_replica` plus broadcast-cursor catch-up;
a crashed collector is retired from every governor's reputation book
and re-admitted under the membership churn rules (median bootstrap)
when it returns.  A crashed elected leader fails over deterministically
to the next live governor at pack time.

**Safety auditing & quarantine** (``audit``, on by default — see
:mod:`repro.audit.config`): every governor runs a
:class:`~repro.audit.SafetyAuditor`.  After appending a block each
governor sends a signed :class:`~repro.consensus.messages.CommitVote`
to every peer; a governor that signs two different hashes for one
serial (equivocation) hands any observer holding both votes a
*provable* violation.  A vote that contradicts the receiver's own
committed hash is forwarded to all peers as evidence, so the peer
subset that received the conflicting vote completes the proof.  On a
provable violation the engine **quarantines** the culprit: its
payloads are suppressed at every honest receiver, it is excluded from
leader election, and (for collectors) it is retired from every
reputation book.  Readmission goes through the same median-bootstrap
churn path as crash recovery (:meth:`release_quarantine`).  Audit
traffic rides a fixed-delay, fault-exempt path that consumes no RNG
from any simulation stream, so seeded ledgers are bit-identical with
the auditor on or off (locked in by ``tests/test_audit.py``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro import perf
from repro.agents.behaviors import CollectorBehavior, HonestBehavior
from repro.audit import config as audit_config
from repro.audit.auditor import AuditViolation, SafetyAuditor, ViolationType
from repro.audit.config import AuditConfig
from repro.consensus.messages import CommitVote
from repro.consensus.pos import LeaderElection
from repro.consensus.stake import StakeLedger
from repro.core.horizon import RoundBuckets
from repro.core.kernel import RoundKernel
from repro.core.params import ProtocolParams
from repro.core.rewards import distribute_rewards
from repro.crypto.identity import Role
from repro.crypto.signatures import sign
from repro.exceptions import (
    ConfigurationError,
    ProtocolViolationError,
    SimulationError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.ledger.block import Block
from repro.ledger.chain import Ledger
from repro.ledger.store import BlockStore
from repro.ledger.sync import sync_replica
from repro.ledger.transaction import (
    CheckStatus,
    Label,
    LabeledTransaction,
    SignedTransaction,
    TxRecord,
    make_signed_transaction,
)
from repro.network.broadcast import AtomicBroadcast
from repro.network.reliable import ReliableChannel
from repro.network.simnet import Message, Simulator, SyncNetwork
from repro.network.topology import Topology
from repro.obs.registry import MetricsRegistry
from repro.storage.checkpoints import reputation_digest
from repro.storage.durable import StorageConfig, open_durable_store, storage_metrics
from repro.storage.recovery import RecoveryReport
from repro.workloads.generator import TxSpec

__all__ = [
    "ArgueRequest",
    "NetworkedRoundResult",
    "NetworkedProtocolEngine",
    "RoundContext",
    "SEQUENCER_PRIMARY",
    "SEQUENCER_BACKUP",
]

#: Dedicated network identities of the broadcast sequencer's repair
#: endpoints (the Identity Manager's ordering service and its replica).
#: Distinct from every p*/c*/g* topology id.
SEQUENCER_PRIMARY = "seq-primary"
SEQUENCER_BACKUP = "seq-backup"


@dataclass(frozen=True)
class ArgueRequest:
    """A provider's ``argue(tx, s)`` message to a governor."""

    provider: str
    tx_id: str
    serial: int
    kind: str = "argue"


@dataclass
class NetworkedRoundResult:
    """Outcome of one networked round."""

    round_number: int
    leader: str
    block: Block
    argues_sent: int
    rewards: Mapping[str, float]


@dataclass
class RoundContext:
    """In-flight state of a phase-split round (see :meth:`begin_round`).

    :meth:`NetworkedProtocolEngine.run_round` is split into
    ``begin_round`` / ``begin_argue`` / ``complete_round`` so a
    :class:`~repro.sharding.ShardCoordinator` can start one round on
    *every* shard engine and drain them all with a single shared
    ``sim.run`` — the shards' rounds overlap in simulated time instead
    of running back to back.  The context carries everything the later
    phases need; callers must advance the shared simulator to
    ``drain_until`` between ``begin_round`` and ``begin_argue``, and to
    ``begin_argue``'s returned time before ``complete_round``.
    """

    round_number: int
    t0: float
    cutoff: float
    drain_until: float
    specs_count: int
    elected: str
    packed: dict
    actual_leader: dict
    argue_start: float = 0.0
    argues_sent: int = 0
    block: Block | None = None
    leader: str = ""


class NetworkedProtocolEngine(RoundKernel):
    """The protocol over real (simulated) packets.

    Args:
        topology: Node link structure.
        params: Protocol parameters; ``params.delta`` is the screening
            timer and must cover the upload-arrival spread, i.e. be at
            least ``2 * max_delay`` (checked at construction).
        behaviors: collector id -> behaviour (honest default).
        seed: Master seed for agents, network latencies, and draws.
        min_delay / max_delay: Channel latency bounds (the synchrony
            assumption's Δ-net).
        stake: governor id -> stake units (default 1 each).
        resilience: Enable the fault-tolerance machinery — reliable
            feed/upload delivery, broadcast gap repair with sequencer
            failover, and crash-recovery wiring.  Off by default: the
            fault-free engine's packet counts stay bit-identical to the
            pre-resilience implementation.
        obs: Optional :class:`~repro.obs.MetricsRegistry` threaded
            through every layer — network, broadcast, reliable channel,
            governors, reputation books — plus engine-level counters
            and sim-time spans (``round`` / ``pack`` / ``drain_recovery``).
            Same no-op convention as ``resilience``: absent or disabled,
            runs are bit-identical (see OBSERVABILITY.md).
        audit: Safety-auditor knobs; None snapshots the process-wide
            :mod:`repro.audit.config` switchboard (auditor ON by
            default).  With no violations present, auditor-on and
            auditor-off seeded runs produce bit-identical ledgers.
        sim: Optional externally owned :class:`~repro.network.simnet.Simulator`.
            When given, the engine schedules on that shared clock instead
            of creating its own — this is how a
            :class:`~repro.sharding.ShardCoordinator` runs ``S`` engines
            side by side in one simulated timeline.  The engine still
            owns its network, broadcast layer, and identity manager.
        network_factory: Optional transport backend constructor, called
            as ``factory(sim, min_delay=..., max_delay=..., seed=...,
            obs=...)``.  Defaults to :class:`SyncNetwork`; a cluster
            harness passes :class:`~repro.network.realnet.RealNetwork`
            (pre-bound to its custodian peers) so the identical engine
            runs over real sockets — see DESIGN.md §"Transport backend".
    """

    def __init__(
        self,
        topology: Topology,
        params: ProtocolParams,
        behaviors: Mapping[str, CollectorBehavior] | None = None,
        seed: int = 0,
        min_delay: float = 0.005,
        max_delay: float = 0.05,
        stake: Mapping[str, int] | None = None,
        resilience: bool = False,
        obs: MetricsRegistry | None = None,
        audit: AuditConfig | None = None,
        sim: Simulator | None = None,
        storage: StorageConfig | None = None,
        network_factory: Callable[..., SyncNetwork] | None = None,
    ):
        if params.delta < 2 * max_delay:
            raise ConfigurationError(
                f"screening timer delta={params.delta} must be >= 2*max_delay="
                f"{2 * max_delay} to cover the report spread"
            )
        super().__init__(params, seed, obs)
        self.topology = topology
        # The storage_* family registers unconditionally (like audit_*)
        # so the telemetry inventory is identical with durability off.
        self._m_storage = storage_metrics(self.obs)
        self.recovery_report: RecoveryReport | None = None
        if storage is not None:
            # Opening the store IS crash recovery: segments are
            # replayed and verified, corrupt tails truncated.  The
            # governors' replicas are re-anchored below, once built.
            self.store, self.recovery_report = open_durable_store(
                storage,
                obs=self.obs,
                book_digest_fn=lambda: reputation_digest(
                    {gid: gov.book for gid, gov in self.governors.items()}
                ),
                book_state_fn=lambda: {
                    gid: gov.book.export_state()
                    for gid, gov in self.governors.items()
                },
            )
        else:
            self.store = BlockStore()
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.obs.bind_clock(lambda: self.sim.now)
        # The transport backend is pluggable behind the narrow
        # repro.network.transport.Transport surface: the default is the
        # discrete-event SyncNetwork; a harness passes a factory that
        # builds e.g. repro.network.realnet.RealNetwork with the same
        # delay bounds and seed, so the engine (and every layer above
        # the network) runs unmodified over real sockets.
        factory = network_factory if network_factory is not None else SyncNetwork
        self.network = factory(
            self.sim, min_delay=min_delay, max_delay=max_delay, seed=seed + 1,
            obs=self.obs,
        )
        self.broadcast = AtomicBroadcast(self.network, obs=self.obs)
        self.resilience = resilience
        self.channel: ReliableChannel | None = (
            ReliableChannel(self.network, max_retries=5, obs=self.obs)
            if resilience
            else None
        )
        # Retention horizon H (DESIGN.md, "Retention horizon"): uploads
        # of a transaction more than H rounds old are dropped at ingress,
        # so the evidence and dedup state they would consult is evicted.
        self.horizon = params.horizon_rounds(
            self.network.max_delay,
            self.channel.delivery_bound
            if self.channel is not None
            else self.network.max_delay,
        )
        # t0 of the last H rounds.  An upload is admitted only if its
        # transaction is signed inside that window: not before the
        # oldest start (stale), nor after the newest (future-dated).
        self._round_starts: deque[float] = deque(maxlen=self.horizon)
        self._stale_before = -math.inf
        self._round_t0 = -math.inf
        self._m_stale_uploads = self.obs.counter(
            "engine_stale_uploads_total",
            "Uploads dropped at ingress: their transaction is stamped outside the horizon",
        )
        evicted = self.obs.counter(
            "engine_evicted_total",
            "Dedup entries dropped past the retention horizon, by kind",
            labels=("kind",),
        )
        self._m_evicted_timers = evicted.labels(kind="timer")
        self._m_evicted_packed = evicted.labels(kind="packed")
        self._m_crash_events = self.obs.counter(
            "engine_crash_events_total",
            "Node crash/recover transitions applied by the engine",
            labels=("event",),
        )
        self._m_audit_quarantines = self.obs.counter(
            "audit_quarantines_total",
            "Nodes quarantined on a provable violation, by role",
            labels=("role",),
        )
        self._m_audit_votes = self.obs.counter(
            "audit_commit_votes_total",
            "Commit votes sent, by origin (own vote vs forwarded evidence)",
            labels=("origin",),
        )
        self._m_receipt_dups = self.obs.counter(
            "shard_receipt_dups_total",
            "Duplicate cross-shard receipt deliveries discarded at a governor",
        )
        self.injector: FaultInjector | None = None
        self._crashed: set[str] = set()
        # (sim time, "crash"/"recover", node id, blocks synced on recovery)
        self.fault_log: list[tuple[float, str, str, int]] = []
        # -- safety auditing / quarantine -------------------------------
        self.audit = audit if audit is not None else audit_config.get_config()
        self.harness_auditor = SafetyAuditor("harness", im=None, obs=self.obs)
        self._quarantined: set[str] = set()
        # (sim time, round, node id, violation type)
        self.quarantine_log: list[tuple[float, int, str, str]] = []
        # gid -> vote strategy override (Byzantine equivocation hook);
        # called as strategy(gid, block, peers) -> {peer: CommitVote}.
        self._vote_strategies: dict = {}
        # evidence-forward dedup: (forwarder, vote governor, serial, hash)
        self._forwarded_votes: set[tuple] = set()
        # tx ids already packed into some block: the pack-time dedup
        # filter that lets late-screened records carry across rounds
        # without a later leader re-packing an on-chain transaction.
        self._packed_tx_ids: set[str] = set()
        self._packed_rounds = RoundBuckets()
        # Packed ids adopted from disk or a peer, and the latest
        # timestamp among their transactions.  They join the round
        # buckets only once a round starts after that timestamp: a
        # restarted engine's clock begins again at zero, so until then
        # the ingress rule cannot yet call their uploads stale.
        self._adopted_ids: list[str] = []
        self._adopted_until = -math.inf
        self.rewards_paid: dict[str, float] = {}
        # -- cross-shard receipts (enable_xshard) -----------------------
        # Relay endpoint id + signing key; None until a ShardCoordinator
        # enables cross-shard commits on this engine.  Enrolment is lazy
        # so non-sharded runs stay bit-identical (no extra key draw).
        self._xshard_relay: str | None = None
        self._relay_key = None
        # receipt ids already committed here (replay-proofing).
        self._applied_receipt_ids: set[str] = set()
        # Live collector -> provider links.  Starts as the topology's
        # static view but, unlike the frozen Topology, tracks epoch
        # migrations (adopt/release) so churn readmission keeps working
        # for collectors the original topology never knew.
        self.collector_providers: dict[str, tuple[str, ...]] = {
            cid: topology.providers_of(cid) for cid in topology.collectors
        }

        self._enroll_agents(
            {cid: topology.providers_of(cid) for cid in topology.collectors},
            topology.governors,
            behaviors,
            lambda governor: governor.register_topology(topology),
            providers={pid: topology.collectors_of(pid) for pid in topology.providers},
        )
        # Screened records awaiting pack, and (gid -> receipt_id ->)
        # cross-shard receipts awaiting pack, per governor.
        self._round_records: dict[str, list[TxRecord]] = {
            gid: [] for gid in topology.governors
        }
        self._receipt_buffers: dict[str, dict[str, object]] = {
            gid: {} for gid in topology.governors
        }
        # One auditor per governor (created even when disabled, so the
        # audit_* metric families are always registered; disabled
        # configs simply never call into them).
        self.auditors: dict[str, SafetyAuditor] = {
            gid: SafetyAuditor(gid, im=self.im, obs=self.obs)
            for gid in topology.governors
        }

        # -- restart-from-disk hand-off ---------------------------------
        # A durable store that recovered state re-seeds every governor's
        # replica: anchored at the checkpoint when the prefix was
        # compacted, then fast-forwarded through the replayed blocks via
        # the PR-1 rejoin path (sync_replica).  Peer sync (sync_from_peer)
        # later covers only the suffix the disk didn't have.
        if self.store.height > 0 or self.store.base_serial > 0:
            base = self.store.base_serial
            for gid, gov in self.governors.items():
                if base > 0:
                    gov.ledger = Ledger.from_checkpoint(
                        owner=gid, serial=base, tip_hash=self.store.base_hash
                    )
                sync_replica(gov.ledger, self.store)
            # Resume the round counter past the recovered tip so freshly
            # packed blocks never reuse a committed round number.
            self._round = (
                self.store.retrieve(self.store.height).round_number
                if self.store.height > base
                else base
            )
            for serial in range(base + 1, self.store.height + 1):
                self._adopt_packed(self.store.retrieve(serial).tx_list)
            self._restore_books_from_checkpoint()

        initial_stake = dict(stake) if stake else {g: 1 for g in topology.governors}
        self.stake = StakeLedger.from_balances(initial_stake)
        self.election = LeaderElection(im=self.im, governor_order=list(topology.governors))

        # -- network wiring ----------------------------------------------
        for cid in topology.collectors:
            self.broadcast.create_group(f"feed:{cid}", [cid])
        self.broadcast.create_group("uploads", list(topology.governors))
        self.broadcast.create_group("blocks", list(topology.governors))

        # With resilience on, nodes register behind the reliable channel
        # (plain traffic passes through it untouched) and the lossless
        # groups ride the ack/retransmit transport.
        self._register_node = (
            self.channel.register if self.channel is not None else self.network.register
        )
        for cid in topology.collectors:
            self._register_node(cid, self._collector_on_message(cid))
            self.broadcast.register_handler(
                f"feed:{cid}", cid, self._collector_on_feed(cid)
            )
        for gid in topology.governors:
            self._register_node(gid, self._governor_on_message(gid))
            self.broadcast.register_handler("uploads", gid, self._governor_on_upload(gid))
            self.broadcast.register_handler("blocks", gid, self._governor_on_block(gid))
        for pid in topology.providers:
            self._register_node(pid, lambda message: None)
        if self.resilience:
            reliable_groups = {f"feed:{cid}" for cid in topology.collectors}
            reliable_groups.add("uploads")
            self.broadcast.set_transport(self.channel, reliable_groups)
            self.broadcast.enable_gap_repair(
                primary=SEQUENCER_PRIMARY,
                backup=SEQUENCER_BACKUP,
                timeout=4 * max_delay,
            )

        # Per-governor Δ timers: (gid, tx_id) -> scheduled (once).
        self._timers_started: set[tuple[str, str]] = set()
        self._timer_rounds = RoundBuckets()

    def _restore_books_from_checkpoint(self) -> None:
        """Re-seed reputation books from the recovered checkpoint payload.

        The checkpoint carries the sparse book state pinned by its
        ``book_digest``; restoring it means a restarted node resumes with
        the reputation it had at checkpoint time instead of re-learning
        from scratch.  The digest is re-verified after the restore — on
        any mismatch (tampered payload, books from a different topology)
        the restore is rolled back to pristine initial books and the
        divergence is surfaced as a storage corruption metric.
        """
        report = self.recovery_report
        ckpt = report.checkpoint if report is not None else None
        if ckpt is None or ckpt.book_state is None:
            return
        pristine = {gid: gov.book.export_state() for gid, gov in self.governors.items()}
        try:
            for gid, gov in self.governors.items():
                state = ckpt.book_state.get(gid)
                if state is None:
                    raise KeyError(gid)
                gov.book.restore_state(state)
            digest = reputation_digest(
                {gid: gov.book for gid, gov in self.governors.items()}
            )
            if ckpt.book_digest and digest != ckpt.book_digest:
                raise ValueError("restored books do not match the pinned digest")
        except (KeyError, ValueError, TypeError, ProtocolViolationError):
            for gid, gov in self.governors.items():
                gov.book.restore_state(pristine[gid])
            self._m_storage["corruptions"].labels(kind="book-state-mismatch").inc()

    # -- handlers ---------------------------------------------------------

    def _collector_on_message(self, cid: str):
        def handle(message: Message) -> None:
            self.broadcast.on_message(cid, message)
        return handle

    def _collector_on_feed(self, cid: str):
        def handle(sender: str, tx: SignedTransaction) -> None:
            collector = self.collectors.get(cid)
            if collector is None:
                # Migrated away by a reshuffle while this frame was in
                # flight; the provider's other collectors still deliver.
                return
            for labeled in collector.process_all(tx, self.oracle):
                self.transcript.collector_uploads.add(tx.tx_id)
                self.broadcast.broadcast("uploads", cid, labeled)
        return handle

    def _governor_on_message(self, gid: str):
        def handle(message: Message) -> None:
            payload = message.payload
            if isinstance(payload, CommitVote):
                self._on_commit_vote(gid, payload)
                return
            if getattr(payload, "kind", None) == "xshard-receipt":
                self._ingest_receipt(gid, payload)
                return
            if self.broadcast.on_message(gid, message):
                return
            if isinstance(payload, ArgueRequest):
                if message.sender in self._quarantined:
                    return
                self._governor_on_argue(gid, payload)
        return handle

    def _governor_on_upload(self, gid: str):
        def handle(sender: str, upload: LabeledTransaction) -> None:
            # Quarantine containment: a provably-Byzantine collector's
            # uploads are suppressed at every honest receiver.  (The
            # broadcast seqno was still consumed upstream, so honest
            # traffic behind it keeps flowing.)
            if sender in self._quarantined:
                return
            # Outside the horizon: its dedup state may be evicted (or,
            # for a future-dated transaction, would be evicted before it
            # turned stale), so the upload is dropped before anything
            # consults it.  The age is the provider-signed timestamp; an
            # upload whose provider signature fails is a forgery whatever
            # its age, and goes on to the governor's forge check.
            tx = upload.tx
            ts = tx.timestamp
            if (ts < self._stale_before or ts > self._round_t0) and self.im.verify(
                tx.provider, tx.signed_message_bytes(), tx.provider_signature
            ):
                self._m_stale_uploads.inc()
                return
            # The collector's signature is checked once per delivery; the
            # auditor and the governor share the verdict.
            collector_ok = self.im.verify(
                upload.collector, upload.signed_message_bytes(), upload.collector_signature
            )
            if self.audit.enabled and self.audit.commit_votes:
                violation = self.auditors[gid].observe_upload(
                    upload, self._round, collector_ok
                )
                if (
                    violation is not None
                    and violation.provable
                    and self.audit.quarantine
                ):
                    self.quarantine_node(violation.culprit, violation)
                    return
            governor = self.governors[gid]
            tx_id = tx.tx_id
            fresh = not governor.has_buffered(tx_id)
            if governor.ingest_upload(upload, collector_ok) and fresh:
                # Algorithm 2's starttime(tx, Δ) — first report arms it.
                key = (gid, tx_id)
                if key not in self._timers_started:
                    self._timers_started.add(key)
                    self._timer_rounds.add(self._round, key)
                    self.sim.schedule_after(
                        self.params.delta, lambda: self._governor_endtime(gid, tx_id)
                    )
        return handle

    def _governor_endtime(self, gid: str, tx_id: str) -> None:
        """Algorithm 2's endtime(tx): screen when the Δ timer fires."""
        governor = self.governors[gid]
        if not governor.has_buffered(tx_id):
            return  # already screened (defensive; timers arm only once)
        record = governor.screen_single(tx_id)
        if record is not None:
            self._round_records[gid].append(record)

    def _governor_on_block(self, gid: str):
        def handle(sender: str, block: Block) -> None:
            governor = self.governors[gid]
            deliver = block
            if self.audit.enabled and self.audit.block_integrity:
                store_hash = (
                    self.store.retrieve(block.serial).hash()
                    if self.store.base_serial < block.serial <= self.store.height
                    else None
                )
                violations = self.auditors[gid].audit_block(
                    block,
                    expected_serial=governor.ledger.height + 1,
                    expected_prev=governor.ledger.tip_hash(),
                    round_number=self._round,
                    store_hash=store_hash,
                )
                # Containment for in-flight block tampering: fall back to
                # the authentic published copy so the local chain stays
                # intact (the tampered copy's own hash would poison the
                # next append).
                if (
                    any(v.type is ViolationType.BLOCK_TAMPER for v in violations)
                    and store_hash is not None
                ):
                    deliver = self.store.retrieve(block.serial)
            governor.ledger.append(deliver)
            self._clear_packed_receipts(gid, deliver)
            if (
                self.audit.enabled
                and self.audit.commit_votes
                and gid not in self._crashed
                and gid not in self._quarantined
            ):
                self._send_commit_votes(gid, deliver)
        return handle

    def _governor_on_argue(self, gid: str, request: ArgueRequest) -> None:
        record = self.governors[gid].handle_argue(request.tx_id)
        if record is not None:
            self._reevaluated_queue[request.tx_id] = record

    # -- cross-shard receipts (sharded deployments) ------------------------

    def enable_xshard(self, relay_id: str) -> None:
        """Accept cross-shard receipts relayed to this shard's governors.

        Enrols ``relay_id`` as the shard's receipt-relay identity (a
        provider-role member of this engine's alliance: receipt records
        carry its signature, so ``SafetyAuditor.audit_block`` verifies
        them like any other on-chain record) and registers its network
        endpoint.  Called once per engine by the
        :class:`~repro.sharding.ShardCoordinator`; a plain deployment
        never calls it and is bit-identical to pre-sharding builds.
        """
        if self._xshard_relay is not None:
            raise ConfigurationError(
                f"cross-shard relay already enabled ({self._xshard_relay!r})"
            )
        self._xshard_relay = relay_id
        self._relay_key = self.im.enroll(relay_id, Role.PROVIDER)
        self._register_node(relay_id, lambda message: None)

    def inject_receipts(self, receipts: Sequence) -> None:
        """Fan relayed cross-shard receipts out to every governor.

        The barrier-time injection point of the shard executors:
        :meth:`~repro.parallel.ShardHost.relay` calls it, in-process or
        in a worker process when a pickled relay batch arrives over its
        command pipe.  Receipts are
        sent from the relay endpoint to the **full** governor set (so a
        relay survives any single governor crash) in batch order —
        latency draws consume this engine's network RNG in exactly the
        order the serial coordinator's per-receipt relays would, which
        is what keeps parallel ledgers bit-identical to serial ones.
        """
        if self._xshard_relay is None:
            raise ConfigurationError("cross-shard relay not enabled on this engine")
        for receipt in receipts:
            for gid in self.topology.governors:
                self.network.send(self._xshard_relay, gid, receipt)

    def carryover_depth(self) -> int:
        """Records queued for re-evaluation (argue outcomes) next round.

        Part of the phase-command surface: shard drivers budget each
        round's fresh specs as ``b_limit - carryover_depth()`` so the
        re-packed records never push a block past the universal bound.
        """
        return len(self._reevaluated_queue)

    def recovery_lagging(self) -> bool:
        """True while unrepaired broadcast gaps remain (resilience only).

        One probe of the :meth:`drain_recovery` exit condition, with the
        same repair-triggering side effect (a scan NACKs every lagging
        member).  Shard drivers call it between barrier-synchronized
        drain slices so every backend walks the end-of-run recovery
        drain through identical clock targets — keeping the final
        simulated clock, and hence reported sim-time throughput,
        identical between serial and multi-process execution.
        """
        if not self.resilience:
            return False
        return (
            self.broadcast.force_repair_scan() != 0
            or self.broadcast.pending_gap_total() != 0
        )

    def _ingest_receipt(self, gid: str, receipt) -> None:
        """Buffer a relayed receipt at ``gid`` for the next pack, deduped.

        Replay-proofing happens here and at pack time: a receipt id that
        is already buffered or already on chain is discarded (and
        counted), so fault-injector duplicates and coordinator
        re-relays can never commit twice.
        """
        if gid in self._crashed or gid in self._quarantined:
            return
        rid = receipt.receipt_id
        if rid in self._applied_receipt_ids or rid in self._receipt_buffers[gid]:
            self._m_receipt_dups.inc()
            return
        self._receipt_buffers[gid][rid] = receipt

    def _receipt_record(self, receipt) -> TxRecord:
        """Materialise a buffered receipt as a committable ledger record.

        The transaction is signed by the shard's relay identity with a
        nonce and timestamp derived from the receipt itself, so every
        governor (and every retry) derives the **same** tx id.
        At-most-once commitment rests on the receipt id: the buffer
        dedup and the pack-time check against ``_applied_receipt_ids``,
        which the retention horizon never evicts.  Receipt records skip
        the upload path, so the horizon's ingress rule never sees their
        ``home_serial`` timestamps.
        """
        tx = make_signed_transaction(
            self._relay_key,
            payload={
                "xshard_receipt": receipt.receipt_id,
                "home_shard": receipt.home_shard,
                "origin_tx": receipt.tx_id,
            },
            timestamp=float(receipt.home_serial),
            nonce=int(receipt.receipt_id[:12], 16),
        )
        self.oracle.assign(tx, True)
        # The relay is the provider *and* collector of record for the
        # receipt (it was already screened on its home shard), so the
        # Almost-No-Creation transcript sees both broadcast legs.
        self.transcript.provider_broadcasts.add(tx.tx_id)
        self.transcript.collector_uploads.add(tx.tx_id)
        return TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.CHECKED)

    def _receipt_records(self, gid: str, budget: int) -> list[TxRecord]:
        """The leader's buffered receipts, as records, up to ``budget``.

        Receipts already on chain are skipped (and evicted): a duplicated
        relay message arriving in the window between one leader's pack
        and the block's observation can be re-buffered at the *next*
        round's leader, whose buffer dedup in ``_ingest_receipt`` ran
        before ``_applied_receipt_ids`` learned the id. Checking the
        applied set again at pack time closes that replay window.
        """
        if self._xshard_relay is None or budget <= 0:
            return []
        buffer = self._receipt_buffers[gid]
        stale = [rid for rid in buffer if rid in self._applied_receipt_ids]
        for rid in stale:
            del buffer[rid]
            self._m_receipt_dups.inc()
        buffered = sorted(
            buffer.values(),
            key=lambda r: (r.home_serial, r.receipt_id),
        )
        return [self._receipt_record(receipt) for receipt in buffered[:budget]]

    def _clear_packed_receipts(self, gid: str, block: Block) -> None:
        """Drop receipts ``gid`` buffered once the block carries them."""
        if self._xshard_relay is None:
            return
        for record in block.tx_list:
            payload = record.tx.body.payload
            if isinstance(payload, dict) and "xshard_receipt" in payload:
                rid = payload["xshard_receipt"]
                self._applied_receipt_ids.add(rid)
                self._receipt_buffers[gid].pop(rid, None)

    # -- safety auditing: commit votes & quarantine ------------------------

    def make_commit_vote(self, gid: str, serial: int, block_hash: bytes) -> CommitVote:
        """Build ``gid``'s signed commit vote for (serial, block_hash).

        Public so Byzantine vote strategies (equivocation scenarios) can
        mint *validly signed* conflicting votes — the provable-violation
        definition requires real signatures on both sides.
        """
        message = ("audit-commit", gid, serial, block_hash, self._round)
        return CommitVote(
            governor=gid,
            serial=serial,
            block_hash=block_hash,
            round_number=self._round,
            signature=sign(self.governors[gid].key, message),
        )

    def set_vote_strategy(self, gid: str, strategy) -> None:
        """Override ``gid``'s commit-vote behaviour (Byzantine hook).

        ``strategy(gid, block, peers) -> {peer: CommitVote}`` replaces
        the honest send-same-vote-to-everyone flow; pass ``None`` to
        restore honesty.
        """
        if strategy is None:
            self._vote_strategies.pop(gid, None)
        else:
            self._vote_strategies[gid] = strategy

    def _send_commit_votes(self, gid: str, block: Block) -> None:
        """Send ``gid``'s post-append commit vote to every peer governor.

        Votes travel at exactly ``max_delay`` (no latency RNG draw) and
        are fault-exempt by kind, so the auditor layer consumes nothing
        from any seeded simulation stream.
        """
        peers = [g for g in self.topology.governors if g != gid]
        strategy = self._vote_strategies.get(gid)
        if strategy is not None:
            votes = strategy(gid, block, peers)
        else:
            vote = self.make_commit_vote(gid, block.serial, block.hash())
            votes = {peer: vote for peer in peers}
        for peer, vote in votes.items():
            self.network.send(
                gid, peer, vote, fixed_delay=self.network.max_delay
            )
            self._m_audit_votes.labels(origin="own").inc()

    def _on_commit_vote(self, gid: str, vote: CommitVote) -> None:
        """Receiver side of the vote flow: audit, forward evidence, contain."""
        if not (self.audit.enabled and self.audit.commit_votes):
            return
        if gid in self._crashed or gid in self._quarantined:
            return
        if vote.governor in self._quarantined:
            return  # already contained; further evidence is redundant
        governor = self.governors[gid]
        own_hash = (
            governor.ledger.retrieve(vote.serial).hash()
            if governor.ledger.base_serial < vote.serial <= governor.ledger.height
            else None
        )
        violation, mismatch = self.auditors[gid].ingest_vote(
            vote, own_hash, self._round
        )
        if mismatch:
            # The vote contradicts this governor's committed hash: forward
            # it verbatim so peers holding the *other* signed vote can
            # complete the two-signatures proof.
            self._forward_evidence(gid, vote)
        if violation is not None and violation.provable and self.audit.quarantine:
            self.quarantine_node(violation.culprit, violation)

    def _forward_evidence(self, gid: str, vote: CommitVote) -> None:
        key = (gid, vote.governor, vote.serial, vote.block_hash)
        if key in self._forwarded_votes:
            return
        self._forwarded_votes.add(key)
        for peer in self.topology.governors:
            if peer in (gid, vote.governor):
                continue
            self.network.send(
                gid, peer, vote, fixed_delay=self.network.max_delay
            )
            self._m_audit_votes.labels(origin="forward").inc()

    @property
    def quarantined_nodes(self) -> frozenset[str]:
        """Nodes currently quarantined on a provable violation."""
        return frozenset(self._quarantined)

    def quarantine_node(self, node_id: str, violation: AuditViolation) -> None:
        """Contain a provably-Byzantine node.

        Its uploads/argues are suppressed at every honest receiver, it
        is skipped by leader election, and a collector is additionally
        retired from every reputation book (the churn rules).  The
        network link stays up: quarantine is an application-layer
        verdict, not a crash.
        """
        if node_id in self._quarantined:
            return
        self._quarantined.add(node_id)
        if node_id in self.governors:
            role = "governor"
        elif node_id in self.collectors:
            role = "collector"
            self._churn_out(node_id)
        else:
            role = "other"
        self.quarantine_log.append(
            (self.sim.now, self._round, node_id, violation.type.value)
        )
        self._m_audit_quarantines.labels(role=role).inc()

    def release_quarantine(self, node_id: str) -> None:
        """Readmit a quarantined node through the churn path.

        Mirrors crash recovery: a governor resyncs its replica from the
        published store and fast-forwards its broadcast cursors; a
        collector skips its missed feed and re-enters every reputation
        book at the incumbents' **median** weight (the bootstrap rule) —
        readmission never restores pre-quarantine standing.
        """
        if node_id not in self._quarantined:
            return
        self._quarantined.discard(node_id)
        if node_id in self.governors:
            sync_replica(self.governors[node_id].ledger, self.store)
            for group in ("uploads", "blocks"):
                self.broadcast.skip_to(
                    group, node_id, self.broadcast.current_seqno(group)
                )
        elif node_id in self.collectors:
            group = f"feed:{node_id}"
            self.broadcast.skip_to(group, node_id, self.broadcast.current_seqno(group))
            self._churn_in(node_id, self.collector_providers[node_id])

    def _end_of_round_audit(self, round_number: int) -> None:
        """Per-round invariant sweep (books, agreement, Theorem-1 bound)."""
        cfg = self.audit
        down = self._crashed | self._quarantined
        honest = [g for g in self.topology.governors if g not in down]
        if cfg.reputation_invariants:
            for gid in honest:
                self.auditors[gid].audit_book(
                    self.governors[gid].book, round_number
                )
        if len(honest) >= 2:
            self.harness_auditor.audit_agreement(
                [self.governors[gid].ledger for gid in honest], round_number
            )
        if cfg.theorem_guardrail and honest:
            measured = max(
                self.governors[gid].metrics.expected_loss for gid in honest
            )
            self.harness_auditor.audit_regret(
                measured,
                r=self.topology.r,
                beta=self.params.beta,
                round_number=round_number,
                s_min=cfg.s_min,
            )

    # -- fault injection & crash recovery ---------------------------------

    def install_faults(
        self, plan: FaultPlan, tamperer: object | None = None
    ) -> FaultInjector:
        """Run this engine under a seeded fault plan.

        Message faults intercept every send on the engine's network;
        node faults route through the engine's crash/recovery wiring so
        a "crash" is a real crash-stop (volatile state lost, churn
        applied), not just a link cut.  An optional ``tamperer``
        (:class:`repro.byzantine.tampering.MessageTamperer`) adds
        in-flight Byzantine corruption on top of the omission plan.
        Returns the installed injector (its ``stats`` record what
        actually fired).
        """
        injector = FaultInjector(
            plan=plan,
            on_crash=self.crash_node,
            on_recover=self.recover_node,
            tamperer=tamperer,
        )
        injector.install(self.network)
        self.injector = injector
        return injector

    @property
    def crashed_nodes(self) -> frozenset[str]:
        """Nodes currently crash-stopped."""
        return frozenset(self._crashed)

    def crash_node(self, node_id: str) -> None:
        """Crash-stop any node, with role-appropriate semantics."""
        if node_id in self.governors:
            self.crash_governor(node_id)
        elif node_id in self.collectors:
            self.crash_collector(node_id)
        else:
            self._crashed.add(node_id)
            self.network.partition(node_id)
            self.fault_log.append((self.sim.now, "crash", node_id, 0))
            self._m_crash_events.labels(event="crash").inc()

    def recover_node(self, node_id: str) -> None:
        """Recover a crashed node, with role-appropriate semantics."""
        if node_id in self.governors:
            self.recover_governor(node_id)
        elif node_id in self.collectors:
            self.recover_collector(node_id)
        elif node_id in self._crashed:
            self._crashed.discard(node_id)
            self.network.heal(node_id)
            self.fault_log.append((self.sim.now, "recover", node_id, 0))
            self._m_crash_events.labels(event="recover").inc()

    def crash_governor(self, gid: str) -> None:
        """Crash-stop a governor: connectivity cut, volatile state lost.

        The durable ledger replica survives; the in-memory report
        buffer, its armed Δ timers, and any screened-but-unpacked round
        records do not.  Idempotent.
        """
        if gid in self._crashed:
            return
        self._crashed.add(gid)
        self.network.partition(gid)
        self.governors[gid].crash_reset()
        self._round_records[gid].clear()
        self._receipt_buffers[gid].clear()
        self._timers_started = {k for k in self._timers_started if k[0] != gid}
        self.fault_log.append((self.sim.now, "crash", gid, 0))
        self._m_crash_events.labels(event="crash").inc()

    def recover_governor(self, gid: str) -> None:
        """Rejoin a crashed governor: ledger sync + broadcast catch-up.

        The governor heals its links, pulls every missed block from the
        published store (:func:`repro.ledger.sync.sync_replica` — the
        hash chain authenticates the catch-up), then advances its
        broadcast delivery cursors past the missed seqnos so buffered
        later messages flow again.  Uploads it missed entirely are
        covered by its peers, exactly as the paper's redundancy (m
        governors screen every transaction) intends.
        """
        if gid not in self._crashed:
            return
        self._crashed.discard(gid)
        self.network.heal(gid)
        synced = sync_replica(self.governors[gid].ledger, self.store)
        for group in ("uploads", "blocks"):
            self.broadcast.skip_to(group, gid, self.broadcast.current_seqno(group))
        self.fault_log.append((self.sim.now, "recover", gid, synced))
        self._m_crash_events.labels(event="recover").inc()

    def sync_from_peer(self, peer_store: BlockStore) -> int:
        """Pull the chain suffix this node lacks from a live peer.

        The second half of restart-from-disk: recovery replayed what the
        local segments held, and this fetches only the remainder from a
        peer's published store.  Each pulled block lands through
        ``publish`` (so a durable store persists it) and then through
        every governor replica's ``append`` — the hash chain, not the
        peer, authenticates the transfer.  Returns the number of blocks
        pulled.

        Raises:
            LedgerError: the peer's chain does not extend this node's
                verified tip (a divergent or corrupt peer).
        """
        pulled = 0
        while self.store.height < peer_store.height:
            block = peer_store.retrieve(self.store.height + 1)
            self.store.publish(block)
            self._adopt_packed(block.tx_list)
            self._m_storage["recovered"].labels(source="peer").inc()
            pulled += 1
        if pulled:
            for gov in self.governors.values():
                sync_replica(gov.ledger, self.store)
            self._round = max(
                self._round, self.store.retrieve(self.store.height).round_number
            )
            if self.audit.enabled and len(self.governors) >= 2:
                self.harness_auditor.audit_agreement(
                    [gov.ledger for gov in self.governors.values()], self._round
                )
        return pulled

    def crash_collector(self, cid: str, retire: bool = True) -> None:
        """Crash-stop a collector; by default churn it out immediately.

        With ``retire=True`` every governor retires the collector's
        reputation vector and scrubs its buffered labels (the churn
        rules); late in-flight uploads from it are then dropped at
        ingestion.  Idempotent.
        """
        if cid in self._crashed:
            return
        self._crashed.add(cid)
        self.network.partition(cid)
        if retire:
            self._churn_out(cid)
        self.fault_log.append((self.sim.now, "crash", cid, 0))
        self._m_crash_events.labels(event="crash").inc()

    def recover_collector(self, cid: str, bootstrap: str = "median") -> None:
        """Re-admit a recovered collector under the churn rules.

        Its feed cursor skips the transactions broadcast while it was
        down (they were labelled by its surviving peers), and every
        governor that retired it re-registers its reputation vector
        with the ``bootstrap`` weight (median of incumbents by default).
        """
        if cid not in self._crashed:
            return
        self._crashed.discard(cid)
        self.network.heal(cid)
        group = f"feed:{cid}"
        self.broadcast.skip_to(group, cid, self.broadcast.current_seqno(group))
        self._churn_in(cid, self.collector_providers[cid], bootstrap)
        self.fault_log.append((self.sim.now, "recover", cid, 0))
        self._m_crash_events.labels(event="recover").inc()

    # -- epoch migration (sharded deployments) -----------------------------

    def release_collector(self, cid: str) -> tuple[tuple[str, ...], CollectorBehavior]:
        """Expel a collector for migration to another shard.

        The departure side of an epoch reshuffle: every governor retires
        the collector's reputation vector (the same churn rules a crash
        applies), its providers unlink it, and the agent leaves the
        engine.  Returns the provider slots it occupied plus its live
        behaviour object, which travel to the destination shard's
        :meth:`adopt_collector`.
        """
        if cid not in self.collectors:
            raise ConfigurationError(f"unknown collector {cid!r}")
        providers = self.collector_providers.pop(cid)
        self._churn_out(cid)
        collector = self.collectors.pop(cid)
        for pid in providers:
            provider = self.providers[pid]
            provider.linked_collectors = tuple(
                c for c in provider.linked_collectors if c != cid
            )
        self._crashed.discard(cid)
        return providers, collector.behavior

    def adopt_collector(
        self,
        cid: str,
        providers: Sequence[str],
        behavior: CollectorBehavior | None = None,
    ) -> None:
        """Admit a migrating collector into this shard.

        The arrival side of an epoch reshuffle: the collector inherits
        the given provider slots (typically vacated by an outbound
        migrant, keeping the feed degree regular), is wired into the
        network/broadcast fabric, and re-enters every governor's book
        through the **median-bootstrap** churn path — migration never
        imports reputation from the previous shard.
        """
        if cid in self.collectors:
            raise ConfigurationError(f"collector {cid!r} already on this shard")
        providers = tuple(providers)
        self._enroll_collector(
            cid, providers, behavior if behavior is not None else HonestBehavior()
        )
        for pid in providers:
            self.im.register_link(cid, pid)
            provider = self.providers[pid]
            if cid not in provider.linked_collectors:
                provider.linked_collectors = tuple(provider.linked_collectors) + (cid,)
        group = f"feed:{cid}"
        if not self.broadcast.has_group(group):
            self.broadcast.create_group(group, [cid])
            if self.resilience:
                self.broadcast.add_reliable_group(group)
        self._register_node(cid, self._collector_on_message(cid))
        self.broadcast.register_handler(group, cid, self._collector_on_feed(cid))
        # A returning collector must not replay the feed it missed.
        self.broadcast.skip_to(group, cid, self.broadcast.current_seqno(group))
        self._churn_in(cid, providers)
        self.collector_providers[cid] = providers

    def _churn_out(self, cid: str) -> None:
        """Retire ``cid`` from every reputation book (the churn rules)."""
        for governor in self.governors.values():
            if governor.book.is_registered(cid):
                governor.drop_collector(cid)
        # A retired node's read cursor would otherwise leak forever
        # under churn soaks.
        self.store.forget_reader(cid)

    def _churn_in(
        self, cid: str, providers: Sequence[str], bootstrap: str = "median"
    ) -> None:
        """Re-admit ``cid`` to every book that retired it."""
        for governor in self.governors.values():
            if not governor.book.is_registered(cid):
                governor.admit_collector(cid, providers, bootstrap=bootstrap)

    def _live_leader(self, elected: str) -> str:
        """Deterministic leader failover: next eligible governor in order.

        Skips crashed *and* quarantined governors — a provably-Byzantine
        governor must never pack a block while contained.
        """
        down = self._crashed | self._quarantined
        if elected not in down:
            return elected
        order = list(self.topology.governors)
        start = order.index(elected)
        for offset in range(1, len(order) + 1):
            candidate = order[(start + offset) % len(order)]
            if candidate not in down:
                return candidate
        raise SimulationError(
            "all governors are crashed or quarantined; cannot pack a block"
        )

    # -- round execution ----------------------------------------------------

    def run_round(self, specs: Sequence[TxSpec]) -> NetworkedRoundResult:
        """Execute one full round in simulated time.

        Composed from the phase-split API (:meth:`begin_round` /
        :meth:`begin_argue` / :meth:`complete_round`) with this engine's
        own simulator driving the drains; single-engine behaviour is
        bit-identical to the pre-split monolithic implementation.
        """
        ctx = self.begin_round(specs)
        self.sim.run(until=ctx.drain_until)
        self.sim.run(until=self.begin_argue(ctx))
        return self.complete_round(ctx)

    def begin_round(self, specs: Sequence[TxSpec]) -> RoundContext:
        """Phases 1–3 of a round: broadcasts, forgeries, pack trigger.

        Schedules but does not drain — the caller advances the simulator
        to ``ctx.drain_until`` before :meth:`begin_argue`, which is what
        lets a :class:`~repro.sharding.ShardCoordinator` overlap all
        shards' rounds on one shared clock.
        """
        if len(specs) + len(self._reevaluated_queue) > self.params.b_limit:
            raise ConfigurationError("round exceeds b_limit")
        self._round += 1
        round_number = self._round
        t0 = self.sim.now
        starts = self._round_starts
        starts.append(t0)
        self._round_t0 = t0
        if len(starts) == self.horizon:
            self._stale_before = starts[0]
        if self._adopted_ids and t0 > self._adopted_until:
            for tx_id in self._adopted_ids:
                self._packed_rounds.add(round_number, tx_id)
            self._adopted_ids = []
        cutoff = t0 + 2 * self.network.max_delay + self.params.delta + 0.001

        # Phase 1: providers broadcast at t0.
        round_txs: list = []
        for spec in specs:
            provider, tx = self._intake(spec, t0)
            round_txs.append(tx)
            for cid in provider.linked_collectors:
                self.broadcast.broadcast(f"feed:{cid}", provider.provider_id, tx)
        # Pre-warm the IM's verification cache with this round's provider
        # signatures: when the drain below delivers the r-fold collector
        # fan-out and every governor re-checks each upload, they all hit
        # the cached verdict instead of redoing the HMAC.  Verification
        # consumes no randomness, so the drain is unaffected otherwise.
        if perf.ACTIVE.signature_cache:
            self.im.verify_batch(
                (tx.provider, tx.signed_message_bytes(), tx.provider_signature)
                for tx in round_txs
            )
        # Forgery opportunities: once per live collector per round.
        for collector in self.collectors.values():
            if collector.collector_id in self._crashed:
                continue
            forged = collector.maybe_forge(timestamp=t0)
            if forged is not None:
                self.broadcast.broadcast("uploads", collector.collector_id, forged)

        # Phase 3 trigger: leader packs at the cutoff.
        leader_id = self.election.run(self.stake, round_number)
        packed: dict[str, Block] = {}
        actual_leader: dict[str, str] = {}

        def pack_block() -> None:
            # Failover is resolved at pack time: the elected leader may
            # have crashed mid-round, in which case the next live
            # governor in the (deterministic, globally known) order
            # packs instead.
            live = self._live_leader(leader_id)
            actual_leader["id"] = live
            # The leader packs every record it has screened that is not
            # already on chain — including records carried over from
            # earlier rounds whose uploads arrived late (retransmits and
            # reordering can push the Δ timer past that round's cutoff;
            # destroying those records would silently drop the
            # transaction forever, defeating reliable delivery).
            fresh: list[TxRecord] = []
            seen: set[str] = set()
            for record in self._round_records[live]:
                tx_id = record.tx.tx_id
                if tx_id in self._packed_tx_ids or tx_id in seen:
                    continue
                seen.add(tx_id)
                fresh.append(record)
            budget = self.params.b_limit - len(self._reevaluated_queue)
            # Buffered cross-shard receipts commit ahead of fresh local
            # records: the remote leg of an already-home-committed
            # transaction must not starve behind new traffic (atomicity
            # latency), and an empty list on non-sharded engines keeps
            # this a no-op.
            receipts = self._receipt_records(live, max(budget, 0))
            fresh = fresh[: max(budget - len(receipts), 0)]
            records = list(self._reevaluated_queue.values()) + receipts + fresh
            self._reevaluated_queue.clear()
            # Pack against the canonical published tip.  A leader that
            # somehow lags (e.g. healed from a partition) must extend the
            # agreed chain, not its stale local copy; in a synchronous
            # deployment the two coincide.  ``tip_hash`` also covers a
            # store anchored at a compacted checkpoint base.
            prev_hash = self.store.tip_hash()
            block = Block(
                serial=self.store.height + 1,
                tx_list=tuple(records),
                prev_hash=prev_hash,
                proposer=live,
                round_number=round_number,
                b_limit=self.params.b_limit,
            )
            self.store.publish(block)
            self._mark_packed(records)
            packed["block"] = block
            self.broadcast.broadcast("blocks", live, block)

        self.sim.schedule_at(cutoff, pack_block)
        # Drain target: block dissemination takes one more hop past the
        # pack cutoff.
        return RoundContext(
            round_number=round_number,
            t0=t0,
            cutoff=cutoff,
            drain_until=cutoff + self.network.max_delay + 0.001,
            specs_count=len(specs),
            elected=leader_id,
            packed=packed,
            actual_leader=actual_leader,
        )

    def begin_argue(self, ctx: RoundContext) -> float:
        """Phase 4: providers read the packed block and raise argues.

        Call after draining the simulator to ``ctx.drain_until``.
        Returns the sim time the caller must drain to before
        :meth:`complete_round` (one hop for the argue messages).
        """
        # Prune every governor's screened records down to the not-yet-
        # packed ones.  Fault-free this empties the lists exactly like
        # the old unconditional clear (everything screened this round
        # was packed this round); under faults it is what carries a
        # late-screened record to the next leader's pack.
        for gid in self.topology.governors:
            self._round_records[gid] = [
                r
                for r in self._round_records[gid]
                if r.tx.tx_id not in self._packed_tx_ids
            ]
        block = ctx.packed.get("block")
        if block is None:
            raise SimulationError("leader failed to pack a block")
        ctx.block = block
        ctx.leader = ctx.actual_leader["id"]

        ctx.argue_start = self.sim.now
        for provider, tx_id, serial in self._argue_scan():
            ctx.argues_sent += 1
            request = ArgueRequest(
                provider=provider.provider_id, tx_id=tx_id, serial=serial
            )
            for gid in self.topology.governors:
                self.network.send(provider.provider_id, gid, request)
        return self.sim.now + self.network.max_delay + 0.001

    def complete_round(self, ctx: RoundContext) -> NetworkedRoundResult:
        """Close a round: rewards, end-of-round audit, telemetry."""
        round_number = ctx.round_number
        block = ctx.block
        leader_id = ctx.leader
        rewards = distribute_rewards(self.params, self.governors[leader_id].book)
        for cid, amount in rewards.items():
            self.rewards_paid[cid] = self.rewards_paid.get(cid, 0.0) + amount

        if self.audit.enabled:
            self._end_of_round_audit(round_number)

        self._count_round(ctx.specs_count, len(block.tx_list))
        self.obs.record_span(
            "argue_phase", ctx.argue_start, self.sim.now, round=round_number
        )
        self.obs.record_span(
            "round", ctx.t0, self.sim.now, round=round_number, leader=leader_id
        )
        self._evict_expired(round_number)

        return NetworkedRoundResult(
            round_number=round_number,
            leader=leader_id,
            block=block,
            argues_sent=ctx.argues_sent,
            rewards=rewards,
        )

    # -- retention horizon ----------------------------------------------------

    def _mark_packed(self, records: Sequence[TxRecord]) -> None:
        """Add on-chain tx ids to the pack-time dedup filter."""
        packed = self._packed_tx_ids
        for record in records:
            tx_id = record.tx.tx_id
            if tx_id not in packed:
                packed.add(tx_id)
                self._packed_rounds.add(self._round, tx_id)

    def _adopt_packed(self, records: Sequence[TxRecord]) -> None:
        """Add ids of blocks recovered from disk or pulled from a peer.

        They stay out of the round buckets until a round starts after
        every adopted timestamp, so none is evicted before the ingress
        rule drops its uploads as stale.
        """
        packed = self._packed_tx_ids
        for record in records:
            tx = record.tx
            self._adopted_until = max(self._adopted_until, tx.timestamp)
            if tx.tx_id not in packed:
                packed.add(tx.tx_id)
                self._adopted_ids.append(tx.tx_id)

    def _evict_expired(self, round_number: int) -> None:
        """Drop evidence and dedup state past the retention horizon.

        Entries first recorded ``H`` or more rounds ago go, whole round
        buckets at a time; vote evidence is kept for the top ``H``
        serials above the durable checkpoint base.  Uploads of a
        transaction older than ``H`` rounds are dropped at ingress, so
        no later upload can consult what is evicted here (DESIGN.md,
        "Retention horizon").
        """
        limit = round_number - self.horizon
        # A governor crash already dropped its timer keys: count only
        # what is removed here.
        timers = self._timers_started
        before = len(timers)
        timers.difference_update(self._timer_rounds.pop_through(limit))
        self._m_evicted_timers.inc(before - len(timers))
        evicted = self._packed_rounds.pop_through(limit)
        self._packed_tx_ids.difference_update(evicted)
        self._m_evicted_packed.inc(len(evicted))
        vote_floor = max(self.store.base_serial, self.store.height - self.horizon)
        for auditor in self.auditors.values():
            auditor.evict(limit, vote_floor)

    def retained_state(self) -> dict[str, int]:
        """Live horizon-bounded entries, summed over governors.

        ``labels`` and ``votes`` are auditor evidence, ``timers`` the
        armed-once Δ-timer keys and ``packed`` the pack-time dedup ids.
        """
        counts = {"labels": 0, "votes": 0}
        for auditor in self.auditors.values():
            for kind, held in auditor.held_counts().items():
                counts[kind] += held
        counts["timers"] = len(self._timers_started)
        counts["packed"] = len(self._packed_tx_ids)
        return counts

    def drain_recovery(self, grace: float | None = None) -> None:
        """Let in-flight retransmits and gap repairs complete.

        Runs the simulator for ``grace`` more simulated seconds (default
        covers several repair round trips).  With resilience on, call
        before asserting the zero-stuck-gap invariant; a no-op otherwise.
        """
        if not self.resilience:
            return
        if grace is None:
            grace = 40 * self.network.max_delay
        drain_start = self.sim.now
        # Several scan/run cycles: a repair NACK (or its answer) can be
        # crossing a link the moment a crashed endpoint heals, and the
        # first NACKs for a gap target the primary sequencer, which may
        # itself be dead — failover only kicks in after repeated
        # attempts.  The exit test needs both a zero scan (no member
        # lags its group tip — catches invisible gaps with nothing
        # buffered behind them) and empty gap buffers.
        cycles = 6
        for _ in range(cycles):
            if (
                self.broadcast.force_repair_scan() == 0
                and self.broadcast.pending_gap_total() == 0
            ):
                break
            self.sim.run(until=self.sim.now + grace / cycles)
        self.obs.record_span("drain_recovery", drain_start, self.sim.now)

    def finalize(self, drain: bool = True) -> None:
        """Reveal all pending unchecked truths (closes the loss books).

        Under resilience, first drains outstanding recovery traffic so
        no repairable gap survives the run.  Pass ``drain=False`` when a
        shard driver has already walked the recovery drain through
        barrier-synchronized clock targets (:meth:`recovery_lagging`) —
        an engine-local drain here would advance the clock off-barrier.
        """
        if drain:
            self.drain_recovery()
        self._reveal_pending()

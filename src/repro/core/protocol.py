"""The full protocol engine: collecting, uploading, processing, arguing.

:class:`ProtocolEngine` wires the whole hierarchy together — Identity
Manager, topology, provider/collector/governor agents, PoS leader
election, block store, reward distribution, optional stake-transform
consensus — and executes rounds:

1. **Collecting** — workload transactions are signed by their providers
   and delivered to the providers' ``r`` linked collectors.
2. **Uploading** — each collector labels per his behaviour (possibly
   concealing or forging) and uploads to every governor.
3. **Processing** — every governor verifies uploads and screens each
   transaction (its *own* draw, updating its *local* reputations); the
   round leader — elected via the VRF/PoS scheme — packs *his* records
   (plus any transactions re-validated after argues) into the block,
   which every governor appends (Agreement by construction, as the
   paper assumes governors do not subvert the chain).
4. **Arguing** — active providers scan the new block and argue about
   valid-but-unchecked-invalid records; admitted argues are re-validated,
   trigger case-3 reputation updates on every governor, and the records
   enter the *next* block.

This is the one in-process round: the streaming session
(:class:`~repro.streaming.session.StreamingSession`) runs it through a
few overrides (``_enroll``, ``_admit``, ``_instantiate``,
``_close_round``), and the transport-independent steps it shares with
the packet-level engine live in :class:`~repro.core.kernel.RoundKernel`.

Message accounting in this in-process engine is analytic: each phase
adds exactly the messages the real exchange would send, so the E7
complexity bench measures the paper's ``O(b_limit * m)`` ordinary-block
and ``O(m^2)`` stake-transform terms without a packet-level run
(the packet-level path is exercised separately by the
:mod:`repro.network`-backed integration tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.agents.behaviors import CollectorBehavior
from repro.agents.governor import Governor
from repro.audit import config as audit_config
from repro.consensus.pos import LeaderElection
from repro.consensus.stake import StakeLedger, StakeTransfer
from repro.consensus.messages import NewStateProposal
from repro.consensus.stake_consensus import StakeConsensusRound, make_proposal
from repro.core.kernel import RoundKernel
from repro.core.params import ProtocolParams
from repro.core.rewards import distribute_rewards
from repro.crypto.signatures import sign
from repro.exceptions import ConfigurationError, LeaderMisbehaviourError
from repro.ledger.block import Block
from repro.ledger.store import BlockStore
from repro.ledger.transaction import LabeledTransaction, TxRecord
from repro.network.topology import Topology
from repro.network.visibility import VisibilityMap
from repro.obs.registry import MetricsRegistry
from repro.workloads.generator import TxSpec

__all__ = ["RoundResult", "EngineMetrics", "ProtocolEngine"]


@dataclass
class RoundResult:
    """Summary of one executed round.

    ``uploads`` carries the round's verified collector uploads (the
    labeled transactions), so applications can read the per-collector
    labels — e.g. the car-sharing dispatcher reads driver willingness
    from them.
    """

    round_number: int
    leader: str
    block: Block
    transactions_offered: int
    argues_admitted: int
    rewards: Mapping[str, float]
    uploads: tuple[LabeledTransaction, ...] = ()
    stake_messages: int = 0


@dataclass
class EngineMetrics:
    """Run-level counters across all rounds."""

    rounds: int = 0
    transactions_offered: int = 0
    forged_uploads: int = 0
    provider_messages: int = 0
    collector_messages: int = 0
    governor_messages: int = 0
    stake_messages: int = 0
    argues_total: int = 0
    rewards_paid: dict[str, float] = field(default_factory=dict)


class ProtocolEngine(RoundKernel):
    """In-process execution of the full three-tier protocol.

    Args:
        topology: The provider/collector/governor link structure.
        params: Protocol parameters.
        behaviors: collector id -> behaviour; missing ids are honest.
        seed: Master seed; all agent RNGs derive from it.
        stake: governor id -> stake units (default: 1 each).
        visibility: Partial governor visibility (paper §3.1's "partial
            information" adjustment); None = the default full view.
            Must satisfy the coverage constraint (validated).
        abusive_providers: provider id -> spurious-argue rate; these
            providers also contest correctly-recorded invalid
            transactions, burning one governor validation per argue
            (bounded griefing; the record never flips).
        leader_rotation: When True, bypass the VRF election and rotate
            leaders round-robin (useful to de-noise non-consensus
            experiments); the default is the paper's PoS election.
        obs: Optional :class:`~repro.obs.MetricsRegistry`; when given,
            the engine, its governors, and their reputation books feed
            the ``engine_* / gov_* / rep_*`` metric families (see
            OBSERVABILITY.md).  Observability never touches RNG or
            control flow, so seeded runs are bit-identical with it on,
            off, or absent.
    """

    def __init__(
        self,
        topology: Topology,
        params: ProtocolParams,
        behaviors: Mapping[str, CollectorBehavior] | None = None,
        seed: int = 0,
        stake: Mapping[str, int] | None = None,
        leader_rotation: bool = False,
        visibility: VisibilityMap | None = None,
        abusive_providers: Mapping[str, float] | None = None,
        obs: MetricsRegistry | None = None,
        sparse_reputation: bool = False,
    ):
        if sparse_reputation and visibility is not None:
            raise ConfigurationError(
                "sparse_reputation does not support partial visibility"
            )
        if visibility is not None:
            visibility.validate(topology)
        super().__init__(params, seed, obs)
        self.topology = topology
        self.leader_rotation = leader_rotation
        self.sparse_reputation = sparse_reputation
        self.visibility = visibility
        self.store = BlockStore()
        self.metrics = EngineMetrics()
        # Harness-level AuditReport, filled by finalize() when the
        # safety auditor is enabled (repro.audit.config).
        self.audit_report = None
        self._enroll(behaviors, abusive_providers)

        initial_stake = dict(stake) if stake else {g: 1 for g in topology.governors}
        unknown_gov = set(initial_stake) - set(topology.governors)
        if unknown_gov:
            raise ConfigurationError(f"stake for unknown governors: {sorted(unknown_gov)}")
        self.stake = StakeLedger.from_balances(initial_stake)
        self._stake_nonce = 0
        self._byzantine: set[str] = set()
        self._expelled: set[str] = set()
        self.expulsions: list[tuple[str, str]] = []

    def _enroll(
        self,
        behaviors: Mapping[str, CollectorBehavior] | None,
        abusive: Mapping[str, float] | None,
    ) -> None:
        """Enrol the whole topology up front, providers first."""
        topology = self.topology

        def register(governor: Governor) -> None:
            if self.sparse_reputation:
                # Value-for-value the same registration (default rows at
                # initial reputation, identical member order), so seeded
                # runs are bit-identical to the dense path — locked by
                # tests/test_streaming.py's equivalence suite.
                governor.register_topology_sparse(topology)
            else:
                governor.register_topology(
                    topology,
                    None
                    if self.visibility is None
                    else self.visibility.collectors_for(governor.governor_id),
                )

        self._enroll_agents(
            {cid: topology.providers_of(cid) for cid in topology.collectors},
            topology.governors,
            behaviors,
            register,
            providers={pid: topology.collectors_of(pid) for pid in topology.providers},
            abusive=abusive,
        )

    # -- round execution -------------------------------------------------

    def run_round(self, specs: Sequence[TxSpec]) -> RoundResult:
        """Execute one full round over the given workload batch."""
        specs = self._admit(specs)
        self._round += 1
        round_number = self._round
        m = self.topology.m

        # Phase 1: collecting.
        timestamp = float(round_number)
        deliveries: list[tuple[str, object]] = []  # (collector, tx)
        for spec in specs:
            provider, tx = self._intake(spec, timestamp)
            for cid in provider.linked_collectors:
                deliveries.append((cid, tx))
            self.metrics.provider_messages += len(provider.linked_collectors)

        # Phase 2: uploading.
        uploads: list[LabeledTransaction] = []
        for cid, tx in deliveries:
            collector = self.collectors[cid]
            for labeled in collector.process_all(tx, self.oracle):
                uploads.append(labeled)
                self.transcript.collector_uploads.add(tx.tx_id)
        # Forgery opportunities: once per collector per round.
        for collector in self.collectors.values():
            forged = collector.maybe_forge(timestamp)
            if forged is not None:
                uploads.append(forged)
                self.metrics.forged_uploads += 1
        self.metrics.collector_messages += len(uploads) * m

        # Phase 3: processing — every governor screens independently.
        leader_id = self._elect_leader(round_number)
        leader = self.governors[leader_id]
        leader_records: list[TxRecord] = []
        # Every governor asks the same Identity Manager, so each upload's
        # collector signature is checked once and the verdict shared.
        verdicts = [
            self.im.verify(
                upload.collector, upload.signed_message_bytes(), upload.collector_signature
            )
            for upload in uploads
        ]
        for gid, governor in self.governors.items():
            for upload, collector_ok in zip(uploads, verdicts):
                if self.visibility is not None and not self.visibility.sees(
                    gid, upload.collector
                ):
                    continue
                governor.ingest_upload(upload, collector_ok)
            records = governor.screen_pending()
            if gid == leader_id:
                leader_records = records
        block_records = list(self._reevaluated_queue.values()) + leader_records
        self._reevaluated_queue.clear()
        block = Block(
            serial=self.store.height + 1,
            tx_list=tuple(block_records),
            prev_hash=leader.ledger.tip_hash(),
            proposer=leader_id,
            round_number=round_number,
            b_limit=self.params.b_limit,
        )
        for governor in self.governors.values():
            governor.ledger.append(block)
        self.store.publish(block)
        # Leader broadcasts the block to the other m-1 governors; the
        # paper's O(b_limit * m) term counts the payload size times m.
        self.metrics.governor_messages += m - 1

        # Phase 4: arguing.
        argues_admitted = 0
        for _provider, tx_id, _serial in self._argue_scan():
            self.metrics.argues_total += 1
            admitted_record: TxRecord | None = None
            for governor in self.governors.values():
                record = governor.handle_argue(tx_id)
                if record is not None:
                    admitted_record = record
            if admitted_record is not None:
                argues_admitted += 1
                self._reevaluated_queue[tx_id] = admitted_record

        rewards = self._close_round(leader)
        self.metrics.rounds += 1
        self.metrics.transactions_offered += len(specs)
        self._count_round(len(specs), len(block_records))

        return RoundResult(
            round_number=round_number,
            leader=leader_id,
            block=block,
            transactions_offered=len(specs),
            argues_admitted=argues_admitted,
            rewards=rewards,
            uploads=tuple(uploads),
        )

    def _admit(self, specs: Sequence[TxSpec]) -> Sequence[TxSpec]:
        """The round's batch: all of ``specs``, which must fit in a block."""
        if len(specs) + len(self._reevaluated_queue) > self.params.b_limit:
            raise ConfigurationError(
                f"round batch of {len(specs)} plus {len(self._reevaluated_queue)} "
                f"re-evaluated records exceeds b_limit={self.params.b_limit}"
            )
        return specs

    def _close_round(self, leader: Governor) -> Mapping[str, float]:
        """Pay the round's rewards from the leader's reputation view."""
        rewards = distribute_rewards(self.params, leader.book)
        for cid, amount in rewards.items():
            self.metrics.rewards_paid[cid] = (
                self.metrics.rewards_paid.get(cid, 0.0) + amount
            )
        return rewards

    def _elect_leader(self, round_number: int) -> str:
        eligible = [
            g for g in self.topology.governors if g not in self._expelled
        ]
        if self.leader_rotation:
            return eligible[(round_number - 1) % len(eligible)]
        # VRF announcements: every staked eligible governor broadcasts
        # y_j outputs to the other m-1 governors.
        staked = [g for g in eligible if self.stake.balance(g) > 0]
        self.metrics.governor_messages += len(staked) * (self.topology.m - 1)
        if not staked:
            # All stake sits with expelled governors: fall back to
            # round-robin among the eligible so the chain stays live.
            return eligible[(round_number - 1) % len(eligible)]
        filtered = StakeLedger.from_balances(
            {g: self.stake.balance(g) for g in staked}
        )
        election = LeaderElection(im=self.im, governor_order=eligible)
        return election.run(filtered, round_number)

    # -- stake transfers ---------------------------------------------------

    def transfer_stake(self, sender: str, receiver: str, amount: int) -> int:
        """Run a stake transfer through the 3-step consensus.

        A leader marked Byzantine (see :meth:`mark_byzantine_governor`)
        proposes a tampered NEW_STATE; honest governors broadcast expel
        evidence, the leader is removed from future elections, and the
        round re-runs under a new leader — the expulsion flow the paper
        adopts from CycLedger.

        Returns the number of governor messages the exchange took, which
        the E7 bench accumulates against the O(m^2) claim.
        """
        key = self.im.record(sender).key
        message = ("stake-transfer", sender, receiver, amount, self._stake_nonce)
        transfer = StakeTransfer(
            sender=sender,
            receiver=receiver,
            amount=amount,
            nonce=self._stake_nonce,
            signature=sign(key, message),
        )
        self._stake_nonce += 1
        total_messages = 0
        for _attempt in range(self.topology.m):
            leader = self._elect_leader(self._round + 1)
            consensus = StakeConsensusRound(
                im=self.im, governors=list(self.topology.governors)
            )
            tampered = None
            if leader in self._byzantine:
                honest = make_proposal(
                    self.im.record(leader).key, 0, self.stake, [transfer]
                )
                bad_state = dict(honest.new_state)
                bad_state[leader] = bad_state.get(leader, 0) + amount
                tampered = NewStateProposal(
                    round_number=honest.round_number,
                    leader=leader,
                    new_state=bad_state,
                    transfers_digest=honest.transfers_digest,
                    signature=honest.signature,
                )
            try:
                consensus.run(
                    leader, self.stake, [transfer], tampered_proposal=tampered
                )
            except LeaderMisbehaviourError:
                total_messages += consensus.messages_exchanged
                self.expel_governor(leader, reason="tampered NEW_STATE")
                continue
            self.stake.apply(transfer)
            total_messages += consensus.messages_exchanged
            self.metrics.stake_messages += total_messages
            self.metrics.governor_messages += total_messages
            return total_messages
        raise LeaderMisbehaviourError(
            "no honest leader could be elected for the stake transfer "
            f"(expelled: {sorted(self._expelled)})"
        )

    # -- failure injection & expulsion ---------------------------------------

    def mark_byzantine_governor(self, gid: str) -> None:
        """Fault-inject: this governor tampers NEW_STATE when leading."""
        if gid not in self.governors:
            raise ConfigurationError(f"unknown governor {gid!r}")
        self._byzantine.add(gid)

    def expel_governor(self, gid: str, reason: str = "") -> None:
        """Remove a governor from future leader elections.

        The expelled governor keeps its ledger replica (it can still
        read), but can no longer lead rounds or stake-consensus.

        Raises:
            ConfigurationError: expelling the last eligible governor.
        """
        if gid not in self.governors:
            raise ConfigurationError(f"unknown governor {gid!r}")
        remaining = [
            g for g in self.topology.governors
            if g != gid and g not in self._expelled
        ]
        if not remaining:
            raise ConfigurationError("cannot expel the last eligible governor")
        self._expelled.add(gid)
        self.expulsions.append((gid, reason))

    @property
    def expelled_governors(self) -> frozenset[str]:
        """Governors removed from leadership."""
        return frozenset(self._expelled)

    # -- finalisation -------------------------------------------------------

    def finalize(self) -> None:
        """Reveal every still-pending unchecked truth for loss accounting.

        Theorem 1 assumes all real states are revealed "sometime"; calling
        this at the end of a run closes the books so governor metrics
        reflect the full stream.  When the safety auditor is enabled
        (:mod:`repro.audit.config`, the default) it then runs the
        harness-level audit — cross-replica agreement plus the Theorem-1
        regret guardrail — and leaves the verdict in ``audit_report``.
        """
        self._reveal_pending()
        cfg = audit_config.get_config()
        if cfg.enabled:
            from repro.audit.auditor import harness_audit

            self.audit_report = harness_audit(
                "harness",
                self.ledgers(),
                list(self.governors.values()),
                r=self.topology.r,
                beta=self.params.beta,
                round_number=self._round,
                s_min=cfg.s_min,
                obs=self.obs,
            )

"""The transport-independent half of a protocol round.

Every round engine inherits :class:`RoundKernel`: the in-process
:class:`~repro.core.protocol.ProtocolEngine` (and the
:class:`~repro.streaming.session.StreamingSession` built on it) and the
packet-level :class:`~repro.core.netengine.NetworkedProtocolEngine`.
Agent enrolment, transaction intake, the provider argue scan, the
pending-truth reveal and the ``engine_*`` metric family are defined
here once; the engines differ only in how messages travel between the
phases.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.agents.behaviors import CollectorBehavior, HonestBehavior
from repro.agents.collector import Collector
from repro.agents.governor import Governor
from repro.agents.provider import Provider
from repro.core.params import ProtocolParams
from repro.crypto.identity import IdentityManager, Role
from repro.crypto.signatures import SigningKey
from repro.exceptions import ConfigurationError
from repro.ledger.properties import RunTranscript
from repro.ledger.transaction import SignedTransaction, TxRecord
from repro.ledger.validation import CountingOracle, GroundTruthOracle
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:  # the workloads package imports the engines
    from repro.workloads.generator import TxSpec

__all__ = ["RoundKernel"]


class RoundKernel:
    """State and steps shared by every round engine.

    Subclasses set ``self.store`` (the published
    :class:`~repro.ledger.store.BlockStore` the argue scan reads) and
    enrol their population through :meth:`_enroll_agents`.
    """

    def __init__(self, params: ProtocolParams, seed: int, obs: MetricsRegistry | None):
        self.params = params
        self.seed = seed
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.im = IdentityManager(seed=seed, obs=self.obs)
        self.oracle = GroundTruthOracle()
        self.transcript = RunTranscript()
        self._master = np.random.default_rng(seed)
        self._round = 0
        self._reevaluated_queue: dict[str, TxRecord] = {}
        self.providers: dict[str, Provider] = {}
        self.collectors: dict[str, Collector] = {}
        self.governors: dict[str, Governor] = {}
        self._m_rounds = self.obs.counter(
            "engine_rounds_total", "Protocol rounds executed"
        )
        self._m_tx_offered = self.obs.counter(
            "engine_tx_offered_total", "Workload transactions offered to providers"
        )
        self._m_engine_argues = self.obs.counter(
            "engine_argues_total", "Argue messages raised by providers"
        )
        self._m_block_size = self.obs.histogram(
            "engine_block_size",
            "Records packed per block",
            buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        )

    # -- enrolment ---------------------------------------------------------

    def _agent_rng(self) -> np.random.Generator:
        return np.random.default_rng(self._master.integers(2**63))

    def _enroll_agents(
        self,
        collectors: Mapping[str, Sequence[str]],
        governors: Sequence[str],
        behaviors: Mapping[str, CollectorBehavior] | None,
        register: Callable[[Governor], None],
        providers: Mapping[str, Sequence[str]] | None = None,
        abusive: Mapping[str, float] | None = None,
    ) -> None:
        """Enrol the population: providers (if eager), collectors, governors.

        ``collectors`` maps collector id -> linked providers and
        ``providers`` provider id -> linked collectors; a population that
        enrols providers lazily passes no ``providers`` (and registers
        their links on arrival).  ``register`` sets up each governor's
        reputation book.  The order — every identity-manager ``enroll``
        and every ``_master`` draw (provider abuse RNGs, then collectors,
        then governors) — is what seeded runs pin.
        """
        behaviors = dict(behaviors or {})
        unknown = set(behaviors) - set(collectors)
        if unknown:
            raise ConfigurationError(
                f"behaviours supplied for unknown collectors: {sorted(unknown)}"
            )
        providers = providers or {}
        abusive = dict(abusive or {})
        unknown = set(abusive) - set(providers)
        if unknown:
            raise ConfigurationError(
                f"abuse rates for unknown providers: {sorted(unknown)}"
            )
        for pid, linked in providers.items():
            self._enroll_provider(pid, linked, abusive.get(pid, 0.0))
        for cid, members in collectors.items():
            self._enroll_collector(cid, members, behaviors.get(cid, HonestBehavior()))
        for pid, linked in providers.items():
            for cid in linked:
                self.im.register_link(cid, pid)
        for gid in governors:
            governor = Governor(
                governor_id=gid,
                key=self.im.enroll(gid, Role.GOVERNOR),
                params=self.params,
                im=self.im,
                oracle=CountingOracle(inner=self.oracle),
                rng=self._agent_rng(),
                obs=self.obs,
            )
            register(governor)
            self.governors[gid] = governor

    def _key(self, node_id: str, role: Role) -> SigningKey:
        """``node_id``'s signing key, enrolling it on first sight.

        A re-admitted node (a re-arriving provider, a collector migrating
        back to a shard) keeps its enrolment record, so old signatures
        keep verifying.
        """
        if self.im.is_enrolled(node_id):
            return self.im.record(node_id).key
        return self.im.enroll(node_id, role)

    def _enroll_provider(
        self, pid: str, linked: Sequence[str], abuse_rate: float = 0.0
    ) -> Provider:
        provider = Provider(
            provider_id=pid,
            key=self._key(pid, Role.PROVIDER),
            linked_collectors=tuple(linked),
            argue_abuse_rate=abuse_rate,
            abuse_rng=self._agent_rng() if abuse_rate > 0.0 else None,
        )
        self.providers[pid] = provider
        self.store.join(pid)
        return provider

    def _enroll_collector(
        self, cid: str, members: Sequence[str], behavior: CollectorBehavior
    ) -> Collector:
        collector = Collector(
            collector_id=cid,
            key=self._key(cid, Role.COLLECTOR),
            linked_providers=members,
            behavior=behavior,
            rng=self._agent_rng(),
        )
        self.collectors[cid] = collector
        return collector

    # -- round steps -------------------------------------------------------

    def _instantiate(self, pid: str) -> Provider:
        """The provider agent that signs ``pid``'s next transaction."""
        return self.providers[pid]

    def _intake(
        self, spec: TxSpec, timestamp: float
    ) -> tuple[Provider, SignedTransaction]:
        """Phase 1's bookkeeping: sign, register the truth, log the broadcast."""
        provider = self._instantiate(spec.provider)
        tx = provider.create_transaction(spec.payload, timestamp)
        self.oracle.assign(tx, spec.is_valid)
        self.transcript.provider_broadcasts.add(tx.tx_id)
        if spec.is_valid and provider.active:
            self.transcript.honest_valid_tx.add(tx.tx_id)
        return provider, tx

    def _argue_scan(self) -> Iterator[tuple[Provider, str, int]]:
        """Phase 4's scan: every provider reads its unread blocks.

        Yields ``(provider, tx_id, serial)`` per argue raised, after
        logging it; the caller delivers it to the governors.
        """
        for provider in self.providers.values():
            fresh = self.store.next_for(provider.provider_id)
            while fresh is not None:
                for tx_id in provider.review_block(fresh, self.oracle):
                    self.transcript.argue_calls.add(tx_id)
                    self._m_engine_argues.inc()
                    yield provider, tx_id, fresh.serial
                fresh = self.store.next_for(provider.provider_id)

    def _count_round(self, offered: int, packed: int) -> None:
        self._m_rounds.inc()
        self._m_tx_offered.inc(offered)
        self._m_block_size.observe(float(packed))

    def _reveal_pending(self) -> None:
        """Reveal every still-pending unchecked truth (closes the loss books)."""
        for governor in self.governors.values():
            governor.reveal_pending(self.oracle)

    # -- accessors ---------------------------------------------------------

    @property
    def round_number(self) -> int:
        """Rounds executed so far."""
        return self._round

    def ledgers(self) -> list:
        """Every governor's ledger replica (for property checks)."""
        return [g.ledger for g in self.governors.values()]

    def collector_masses(self) -> dict[str, float]:
        """Each live collector's reputation mass (mean over governors).

        A collector's mass at one governor is the sum of its per-provider
        weights; averaging across governors gives the shard-assignment
        signal (RepChain-style reputation-balanced sharding) without
        privileging any single governor's book.
        """
        totals: dict[str, float] = {}
        counts: dict[str, int] = {}
        for governor in self.governors.values():
            book = governor.book
            for cid in book.collectors():
                mass = float(sum(book.vector(cid).provider_weights.values()))
                totals[cid] = totals.get(cid, 0.0) + mass
                counts[cid] = counts.get(cid, 0) + 1
        return {cid: totals[cid] / counts[cid] for cid in sorted(totals)}

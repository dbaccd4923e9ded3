"""Streaming protocol session: lazy provider lifecycle over virtual populations.

:class:`StreamingSession` executes the four-phase round of the
in-process :class:`~repro.core.protocol.ProtocolEngine` — collect,
upload, screen/pack, argue — but its provider population is a
:class:`~repro.streaming.universe.VirtualUniverse`: a provider agent is
**instantiated on first arrival** (key enrolment, link registration,
governor link maps) and **retired after a configurable idle window**
(agent dropped, cursors forgotten, link maps shrunk), so resident
memory is bounded by the *active set* plus the reputation rows
Algorithm 3 has actually touched — never by the universe size.  The
sparse reputation books
(:class:`~repro.core.reputation.SparseWeightMap` over
:class:`~repro.streaming.universe.CollectorMembers`) make the governor
side equally lazy.

The session *is* the engine's round
(:class:`~repro.core.protocol.ProtocolEngine` subclass); it overrides
only what the virtual population changes:

* ``_enroll`` — collectors and governors up front (sparse streaming
  books), provider keys drawn lazily at first arrival;
* ``_admit`` — arrivals exceeding ``b_limit`` spill into a FIFO
  **backlog** drained in later rounds (open-loop offered load vs. the
  engine's hard ``ConfigurationError``);
* ``_instantiate`` — provider lookup materializes the agent on arrival
  and resets its idle clock;
* ``_close_round`` — idle providers are **retired** at round end, and
  the per-round **reward distribution is skipped** (``log_score`` walks
  a collector's full membership, which is O(universe) here; rewards can
  be computed offline from the books).

Retirement saves only the provider's signing nonce: a retired provider
is *inactive* in the paper's sense (the Validity property does not
quantify over it), and any still-unchecked truth it leaves behind is
revealed at :meth:`finalize` exactly as the engine does.

Identity keys are stable across retire/re-arrive cycles (the Identity
Manager keeps the enrolment record), so old signatures keep verifying.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.agents.behaviors import CollectorBehavior
from repro.agents.governor import Governor
from repro.agents.provider import Provider
from repro.core.params import ProtocolParams
from repro.core.protocol import EngineMetrics, ProtocolEngine
from repro.exceptions import ConfigurationError
from repro.ledger.block import Block
from repro.obs.registry import MetricsRegistry
from repro.streaming.universe import VirtualUniverse, parse_provider_index
from repro.streaming.workload import StreamingWorkload
from repro.workloads.generator import TxSpec

__all__ = ["StreamingSession", "StreamMetrics", "stream_metrics"]


def stream_metrics(registry: MetricsRegistry) -> dict[str, object]:
    """Fetch-or-register the ``stream_*`` metric family on ``registry``."""
    return {
        "active": registry.gauge(
            "stream_active_providers",
            "Provider agents currently instantiated (the resident active set)",
        ),
        "instantiated": registry.counter(
            "stream_instantiations_total",
            "Provider instantiations, by kind (first arrival vs. re-arrival)",
            labels=("kind",),
        ),
        "retired": registry.counter(
            "stream_retirements_total",
            "Providers retired after the idle window",
        ),
        "backlog": registry.gauge(
            "stream_backlog",
            "Arrived transactions awaiting a block slot (b_limit spill)",
        ),
        "tx": registry.counter(
            "stream_tx_total",
            "Streaming workload transactions committed into rounds",
        ),
        "peak_rss": registry.gauge(
            "stream_peak_rss_bytes",
            "Process peak RSS sampled at session finalize (ru_maxrss)",
        ),
    }


@dataclass
class StreamMetrics(EngineMetrics):
    """Run-level streaming counters (plain numbers; obs mirrors them)."""

    instantiations: int = 0
    reinstantiations: int = 0
    retirements: int = 0
    peak_active: int = 0
    peak_backlog: int = 0

    @property
    def transactions(self) -> int:
        """Workload transactions packed into rounds."""
        return self.transactions_offered


class StreamingSession(ProtocolEngine):
    """Open-loop streaming execution over a virtual provider population.

    Args:
        universe: The virtual ``(universe, n, m, r)`` deployment.
        params: Protocol parameters (``b_limit`` caps the block batch;
            overflow arrives in the backlog).
        workload: The lazy spec stream; drive rounds via
            :meth:`run_round` (explicit specs) or :meth:`run` (pull
            ``workload.for_round`` per round).
        behaviors: collector id -> behaviour; missing ids are honest.
        seed: Master seed — collector/governor RNG derivation order
            matches the materialized engine (collectors first, then
            governors), so agent behaviour at equal population is
            comparable.
        retirement_rounds: Idle rounds before an instantiated provider
            is retired; ``None`` disables retirement ("always active",
            the equivalence-testing mode).
        leader_rotation: Round-robin leaders (default here — streaming
            benches measure workload scaling, not the VRF); ``False``
            restores the PoS election with unit stake.
        obs: Optional metrics registry (``engine_*`` and ``stream_*``
            families; see OBSERVABILITY.md).  Never touches RNG or
            control flow.
    """

    def __init__(
        self,
        universe: VirtualUniverse,
        params: ProtocolParams,
        workload: StreamingWorkload | None = None,
        behaviors: dict[str, CollectorBehavior] | None = None,
        seed: int = 0,
        retirement_rounds: int | None = 8,
        leader_rotation: bool = True,
        obs: MetricsRegistry | None = None,
    ):
        if retirement_rounds is not None and retirement_rounds < 1:
            raise ConfigurationError(
                f"retirement_rounds must be >= 1 or None, got {retirement_rounds}"
            )
        self.universe = universe
        self.workload = workload
        self.retirement_rounds = retirement_rounds
        # The universe stands in for the engine's topology: it answers
        # the same collectors / governors / m / r queries.
        super().__init__(
            universe,
            params,
            behaviors=behaviors,
            seed=seed,
            leader_rotation=leader_rotation,
            obs=obs,
            sparse_reputation=True,
        )
        self.metrics = StreamMetrics()
        self._backlog: deque[TxSpec] = deque()
        self._m = stream_metrics(self.obs)
        self._m_inst_first = self._m["instantiated"].labels(kind="first")
        self._m_inst_re = self._m["instantiated"].labels(kind="rearrival")
        # Idle clocks of the active providers, and the signing nonces
        # that survive a provider's retirement.
        self._last_seen: dict[str, int] = {}
        self._retired_nonces: dict[str, int] = {}

    # -- overrides of the engine's round ------------------------------------

    def _enroll(self, behaviors, abusive) -> None:
        """Collectors, then governors; provider keys are drawn at first arrival."""
        members = self.universe.collector_members()
        self._enroll_agents(
            members,
            self.universe.governors,
            behaviors,
            lambda governor: governor.register_streaming(members),
        )

    def _admit(self, specs: list[TxSpec] | None) -> list[TxSpec]:
        """Arrivals join the FIFO backlog; the round packs what fits."""
        if specs:
            self.offer(list(specs))
        budget = self.params.b_limit - len(self._reevaluated_queue)
        batch = [self._backlog.popleft() for _ in range(min(budget, len(self._backlog)))]
        self._m["backlog"].set(float(len(self._backlog)))
        self._m["tx"].inc(len(batch))
        return batch

    def _instantiate(self, pid: str) -> Provider:
        """Materialize a virtual provider on arrival and reset its idle clock."""
        provider = self.providers.get(pid)
        if provider is None:
            k = parse_provider_index(pid)
            if k is None or not self.universe.contains_provider(pid):
                raise ConfigurationError(
                    f"provider {pid!r} is outside the registered universe"
                )
            linked = self.universe.collectors_of_index(k)
            rearrival = self.im.is_enrolled(pid)
            provider = self._enroll_provider(pid, linked)
            if rearrival:
                provider._nonce = self._retired_nonces.pop(pid)
                self.metrics.reinstantiations += 1
                self._m_inst_re.inc()
            else:
                for cid in linked:
                    self.im.register_link(cid, pid)
                self.metrics.instantiations += 1
                self._m_inst_first.inc()
            for gov in self.governors.values():
                gov.link_provider(pid, linked)
            self.metrics.peak_active = max(self.metrics.peak_active, len(self.providers))
            self._m["active"].set(float(len(self.providers)))
        self._last_seen[pid] = self._round
        return provider

    def _close_round(self, leader: Governor) -> dict[str, float]:
        """Retire idle providers; no rewards (``log_score`` is O(universe))."""
        if self.retirement_rounds is not None:
            cutoff = self._round - self.retirement_rounds
            for pid in [p for p, seen in self._last_seen.items() if seen <= cutoff]:
                self._retired_nonces[pid] = self.providers.pop(pid)._nonce
                del self._last_seen[pid]
                self.store.forget_reader(pid)
                for gov in self.governors.values():
                    gov.unlink_provider(pid)
                self.metrics.retirements += 1
                self._m["retired"].inc()
            self._m["active"].set(float(len(self.providers)))
        return {}

    # -- driving -------------------------------------------------------------

    @property
    def active_providers(self) -> int:
        """Currently instantiated provider agents."""
        return len(self.providers)

    @property
    def backlog_depth(self) -> int:
        """Arrived transactions still awaiting a block slot."""
        return len(self._backlog)

    def offer(self, specs: list[TxSpec]) -> None:
        """Queue arrived transactions (open-loop: never rejects)."""
        self._backlog.extend(specs)
        self.metrics.peak_backlog = max(self.metrics.peak_backlog, len(self._backlog))
        self._m["backlog"].set(float(len(self._backlog)))

    def run_round(self, specs: list[TxSpec] | None = None) -> Block:
        """Execute one streaming round.

        ``specs`` (or the workload's per-round arrivals when driven via
        :meth:`run`) join the backlog; the round packs at most
        ``b_limit`` minus the re-evaluated queue.
        """
        return super().run_round(specs).block

    def run(self, rounds: int) -> None:
        """Drive ``rounds`` rounds from the configured workload's arrivals."""
        if self.workload is None:
            raise ConfigurationError("run() needs a workload; pass specs to run_round()")
        for _ in range(rounds):
            self.run_round(self.workload.for_round(self._round + 1))

    def finalize(self) -> None:
        """Reveal pending truths and run the harness audit, then sample peak RSS.

        The audit checks cross-replica agreement and the Theorem-1
        regret guardrail; neither walks the reputation books, so the
        cost is independent of the universe size.
        """
        super().finalize()
        import resource
        import sys

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is bytes on macOS, kilobytes on Linux.
        scale = 1 if sys.platform == "darwin" else 1024
        self._m["peak_rss"].set(float(rss_kb * scale))

    def touched_rows(self) -> int:
        """Total sparse-override entries across all books (memory proxy)."""
        total = 0
        for gov in self.governors.values():
            for cid in gov.book.collectors():
                total += gov.book.vector(cid).provider_weights.touched
        return total

"""Retention horizon: bounded evidence and dedup state in the networked engine.

The engine keeps auditor label evidence, commit-vote evidence, Δ-timer
keys and pack-time dedup ids only for ``H`` rounds (DESIGN.md,
"Retention horizon"), and drops an upload whose transaction is older
than ``H`` at ingress so nothing evicted is consulted again.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.audit import SafetyAuditor, ViolationType
from repro.byzantine import install_equivocation
from repro.core.horizon import RoundBuckets
from repro.core.netengine import NetworkedProtocolEngine
from repro.core.params import ProtocolParams
from repro.crypto.signatures import SigningKey
from repro.ledger.transaction import (
    CheckStatus,
    Label,
    make_labeled_transaction,
    make_signed_transaction,
)
from repro.network.reliable import ReliableChannel
from repro.network.simnet import Simulator, SyncNetwork
from repro.network.topology import Topology
from repro.obs import MetricsRegistry
from repro.storage import StorageConfig
from repro.workloads.generator import BernoulliWorkload


class TestRoundBuckets:
    def test_pops_whole_rounds_oldest_first(self):
        buckets = RoundBuckets()
        for round_number, key in [(1, "a"), (1, "b"), (2, "c"), (4, "d")]:
            buckets.add(round_number, key)
        assert buckets.pop_through(0) == []
        assert buckets.pop_through(2) == ["a", "b", "c"]
        assert buckets.pop_through(2) == []
        assert buckets.pop_through(9) == ["d"]
        assert buckets.pop_through(9) == []

    def test_refiling_an_evicted_round_starts_a_new_bucket(self):
        buckets = RoundBuckets()
        buckets.add(3, "a")
        assert buckets.pop_through(3) == ["a"]
        buckets.add(3, "b")
        buckets.add(5, "c")
        assert buckets.pop_through(4) == ["b"]
        assert buckets.pop_through(5) == ["c"]


class TestHorizonRounds:
    def test_argue_window_sets_the_default_horizon(self):
        params = ProtocolParams(delta=0.2)
        assert params.horizon_rounds(max_delay=0.05, hop_bound=0.05) == 64

    def test_late_delivery_sets_a_floor(self):
        # Plain network: feed + upload + Δ fit in one round.
        params = ProtocolParams(delta=0.2, argue_window=1)
        assert params.horizon_rounds(max_delay=0.05, hop_bound=0.05) == 1
        # Reliable channel, 5 retries: two hops of 4.7 s plus Δ over a
        # 0.4 s round.
        channel = ReliableChannel(
            SyncNetwork(Simulator(seed=0), max_delay=0.05), max_retries=5
        )
        assert channel.delivery_bound == pytest.approx(0.05 + 0.15 * 31)
        assert params.horizon_rounds(0.05, channel.delivery_bound) == 24

    @pytest.mark.parametrize("resilience", [False, True])
    def test_engine_derives_its_horizon_from_params(self, resilience):
        params = ProtocolParams(f=0.5, delta=0.2, argue_window=1)
        engine = NetworkedProtocolEngine(
            Topology.regular(l=8, n=4, m=3, r=2),
            params,
            seed=0,
            max_delay=0.05,
            resilience=resilience,
        )
        assert engine.horizon == (24 if resilience else 1)


def make_engine(argue_window=2, seed=0, obs=None, storage=None, l=8, n=4, m=3, r=2):
    topo = Topology.regular(l=l, n=n, m=m, r=r)
    engine = NetworkedProtocolEngine(
        topo,
        ProtocolParams(f=0.5, delta=0.2, argue_window=argue_window),
        seed=seed,
        max_delay=0.05,
        obs=obs,
        storage=storage,
    )
    return engine, topo


def packs_of(engine, tx_id):
    """Screened (not re-evaluated) records of ``tx_id`` on the chain."""
    store = engine.store
    return [
        rec
        for serial in range(store.base_serial + 1, store.height + 1)
        for rec in store.retrieve(serial).tx_list
        if rec.tx.tx_id == tx_id and rec.status is not CheckStatus.REEVALUATED
    ]


def counter(registry, name, **labels):
    metric = registry.get(name)
    return metric.value_of(**labels) if labels else metric.value


class TestHorizonSafety:
    """Detection inside ``H`` is intact; past ``H`` uploads are inert."""

    def _upload_of_next_round(self, engine, topo, seed, warmup=0):
        """Run ``warmup`` rounds, then one more; return an honest upload of it."""
        workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=seed)
        for _ in range(warmup):
            engine.run_round(workload.take(8))
        t0 = engine.sim.now
        block = engine.run_round(workload.take(8)).block
        record = next(
            rec
            for rec in block.tx_list
            if rec.tx.timestamp == t0 and rec.status is CheckStatus.CHECKED
        )
        tx_id = record.tx.tx_id
        return next(
            upload
            for upload in engine.auditors["g0"].held_uploads()
            if upload.tx.tx_id == tx_id
        )

    def _conflicting(self, engine, upload):
        key = engine.collectors[upload.collector].key
        return make_labeled_transaction(key, upload.tx, Label(-int(upload.label)))

    def test_equivocation_inside_horizon_is_detected_and_quarantined(self):
        registry = MetricsRegistry()
        engine, topo = make_engine(seed=3, obs=registry)
        # The tx comes from round k = H + 2, once eviction is under way.
        honest = self._upload_of_next_round(
            engine, topo, seed=4, warmup=engine.horizon + 1
        )
        k = engine.round_number
        assert counter(registry, "audit_evicted_total", kind="label") > 0
        # Its uploads are accepted through round k + H - 1.
        for _ in range(engine.horizon - 2):
            engine.run_round([])
        engine.broadcast.broadcast(
            "uploads", honest.collector, self._conflicting(engine, honest)
        )
        engine.run_round([])
        last = k + engine.horizon - 1
        assert engine.round_number == last
        assert counter(registry, "engine_stale_uploads_total") == 0
        ((_t, rnd, node, vtype),) = engine.quarantine_log
        assert (rnd, node, vtype) == (last, honest.collector, "collector-equivocation")
        # The first governor to hold the pair quarantines the collector;
        # the others then suppress its uploads.
        proofs = [
            v
            for auditor in engine.auditors.values()
            for v in auditor.report.by_type(ViolationType.COLLECTOR_EQUIVOCATION)
        ]
        assert proofs
        for violation in proofs:
            assert violation.provable
            first, second = violation.evidence
            assert first == honest and second.label != honest.label
            for upload in violation.evidence:
                assert engine.im.verify(
                    upload.collector,
                    upload.signed_message_bytes(),
                    upload.collector_signature,
                )

    def test_upload_older_than_horizon_is_dropped_and_counted(self):
        registry = MetricsRegistry()
        engine, topo = make_engine(seed=5, obs=registry)
        honest = self._upload_of_next_round(engine, topo, seed=6)
        tx_id = honest.tx.tx_id
        for _ in range(engine.horizon - 1):
            engine.run_round([])
        screened = {g: gov.metrics.transactions_screened
                    for g, gov in engine.governors.items()}
        # Round 1 + H: a verbatim replay and a conflicting label.
        engine.broadcast.broadcast("uploads", honest.collector, honest)
        engine.broadcast.broadcast(
            "uploads", honest.collector, self._conflicting(engine, honest)
        )
        result = engine.run_round([])
        assert engine.round_number == 1 + engine.horizon
        governors = len(engine.governors)
        assert counter(registry, "engine_stale_uploads_total") == 2 * governors
        assert not engine.quarantine_log
        for gid, gov in engine.governors.items():
            assert not engine.auditors[gid].report.violations
            assert all(u.tx.tx_id != tx_id for u in engine.auditors[gid].held_uploads())
            assert not gov.has_buffered(tx_id)
            assert gov.metrics.transactions_screened == screened[gid]
        assert all(rec.tx.tx_id != tx_id for rec in result.block.tx_list)
        # The round-1 evidence itself is gone from every live count.
        assert engine.retained_state()["labels"] == 0

    def test_last_accepted_upload_never_repacks(self):
        """An upload late in round r + H - 1 screens in round r + H, deduped."""
        engine, topo = make_engine(seed=13)
        honest = self._upload_of_next_round(engine, topo, seed=14)
        tx_id = honest.tx.tx_id
        # A crash wipes g0's buffer and Δ-timer keys, so the late copy
        # arms a fresh timer there.
        engine.crash_governor("g0")
        engine.recover_governor("g0")
        for _ in range(engine.horizon - 2):
            engine.run_round([])
        screened = engine.governors["g0"].metrics.transactions_screened
        engine.sim.schedule_at(
            engine.sim.now + 0.35,
            lambda: engine.broadcast.broadcast("uploads", honest.collector, honest),
        )
        engine.run_round([])
        assert engine.round_number == engine.horizon
        for _ in range(8):
            engine.run_round([])
        assert engine.governors["g0"].metrics.transactions_screened == screened + 1
        assert len(packs_of(engine, tx_id)) == 1

    def test_future_dated_upload_is_dropped_until_its_time(self):
        """A timestamp ahead of the round is not admitted, so it cannot
        outlive its dedup state; once the clock reaches it, it is an
        ordinary transaction: packed once, and stale ``H`` rounds on."""
        registry = MetricsRegistry()
        engine, topo = make_engine(seed=15, obs=registry)
        engine.run_round([])
        pid = topo.providers[0]
        ts = engine.sim.now + 4.0
        tx = engine.providers[pid].create_transaction("future", ts)
        engine.oracle.assign(tx, True)
        engine.transcript.provider_broadcasts.add(tx.tx_id)
        engine.transcript.collector_uploads.add(tx.tx_id)
        cid = topo.collectors_of(pid)[0]
        upload = make_labeled_transaction(engine.collectors[cid].key, tx, Label.VALID)
        governors = len(engine.governors)

        def replay_round():
            engine.broadcast.broadcast("uploads", cid, upload)
            engine.run_round([])

        def screened():
            return sum(g.metrics.transactions_screened for g in engine.governors.values())

        # Replayed every round for H + 1 rounds while still ahead of t0.
        before = screened()
        for _ in range(engine.horizon + 1):
            replay_round()
        assert engine.sim.now < ts
        dropped = (engine.horizon + 1) * governors
        assert counter(registry, "engine_stale_uploads_total") == dropped
        assert screened() == before
        assert not any(gov.has_buffered(tx.tx_id) for gov in engine.governors.values())
        assert not packs_of(engine, tx.tx_id)

        # Due: admitted, screened by every governor, packed once.
        while engine.sim.now < ts:
            engine.run_round([])
        replay_round()
        accepted = engine.round_number
        engine.run_round([])
        assert counter(registry, "engine_stale_uploads_total") == dropped
        assert screened() == before + governors
        assert len(packs_of(engine, tx.tx_id)) == 1

        # H rounds after it was admitted the same upload is stale.
        while engine.round_number < accepted + engine.horizon - 1:
            engine.run_round([])
        replay_round()
        engine.run_round([])
        assert counter(registry, "engine_stale_uploads_total") == dropped + governors
        assert screened() == before + governors
        assert len(packs_of(engine, tx.tx_id)) == 1

    def test_upload_from_before_a_restart_never_repacks(self, tmp_path):
        """A restarted engine's clock starts again at zero; ids recovered
        from disk stay until the new clock is past their timestamps."""
        storage = StorageConfig(directory=tmp_path, checkpoint_interval=0, fsync=False)
        first, topo = make_engine(seed=17, storage=storage)
        assert first.horizon == 2
        workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=18)
        for _ in range(8):
            first.run_round(workload.take(8))
        # The latest transaction the run before the restart packed valid.
        old = max(
            (
                u
                for u in first.auditors["g0"].held_uploads()
                if [r.label for r in packs_of(first, u.tx.tx_id)] == [Label.VALID]
            ),
            key=lambda u: u.tx.timestamp,
        )
        tx_id = old.tx.tx_id

        registry = MetricsRegistry()
        engine, _ = make_engine(seed=17, storage=storage, obs=registry)
        assert engine.store.height == first.store.height
        # The validity oracle lives in the process; the new one learns
        # the truth the old one held.
        engine.oracle.assign(old.tx, True)
        assert engine.sim.now < old.tx.timestamp
        rounds = 0
        while engine.sim.now < old.tx.timestamp + 2.0:
            engine.broadcast.broadcast("uploads", old.collector, old)
            engine.run_round([])
            rounds += 1
        assert rounds > engine.horizon + 1
        for _ in range(4):
            engine.run_round([])
        assert len(packs_of(engine, tx_id)) == 1
        # Ahead of the new clock it was dropped as future-dated; once due,
        # the recovered packed id kept it off the chain until it was stale.
        assert counter(registry, "engine_stale_uploads_total") > 0

    def test_stale_stamped_forgery_is_still_caught(self):
        registry = MetricsRegistry()
        engine, topo = make_engine(seed=7, obs=registry)
        old = self._upload_of_next_round(engine, topo, seed=8)
        for _ in range(engine.horizon - 1):
            engine.run_round([])
        # An old timestamp under a signature the provider never made.
        bogus = make_signed_transaction(
            SigningKey(owner=old.tx.provider, secret=b"\x00" * 32),
            payload="forged",
            timestamp=old.tx.timestamp,
            nonce=99,
        )
        forged = make_labeled_transaction(
            engine.collectors[old.collector].key, bogus, Label.VALID
        )
        caught = {g: gov.metrics.forgeries_caught for g, gov in engine.governors.items()}
        engine.broadcast.broadcast("uploads", old.collector, forged)
        engine.run_round([])
        assert counter(registry, "engine_stale_uploads_total") == 0
        for gid, gov in engine.governors.items():
            assert gov.metrics.forgeries_caught == caught[gid] + 1

    def test_governor_equivocation_after_eviction_starts_is_detected(self):
        engine, topo = make_engine(seed=9)
        serial = engine.horizon + 3
        install_equivocation(engine, "g2", serial=serial)
        workload = BernoulliWorkload(topo.providers, p_valid=0.85, seed=10)
        for _ in range(serial + 2):
            engine.run_round(workload.take(8))
        assert "g2" in engine.quarantined_nodes
        proofs = [
            v
            for auditor in engine.auditors.values()
            for v in auditor.report.by_type(ViolationType.GOVERNOR_EQUIVOCATION)
        ]
        assert proofs and all(v.provable and v.serial == serial for v in proofs)

    def test_vote_at_or_below_the_floor_is_stale(self):
        engine, _topo = make_engine(seed=11)
        engine.run_round([])
        vote = engine.make_commit_vote("g1", 1, b"\x01" * 32)
        registry = MetricsRegistry()
        auditor = SafetyAuditor("g0", im=engine.im, obs=registry)
        auditor.evict(label_round=0, vote_serial=1)
        assert auditor.ingest_vote(vote, None, 5) == (None, False)
        assert counter(registry, "audit_stale_votes_total") == 1
        assert auditor.held_counts()["votes"] == 0
        later = engine.make_commit_vote("g1", 2, b"\x01" * 32)
        assert auditor.ingest_vote(later, None, 5) == (None, False)
        assert auditor.held_counts()["votes"] == 1


# -- soak: retained state stays flat over 10x more rounds --------------------

_BOUNDED_FILES = ("audit/auditor.py", "core/horizon.py")


def _bounded_lines(engine):
    """Source lines of the engine code that inserts horizon-bounded state."""
    lines: set[int] = set()
    for code in (
        engine._governor_on_upload("g0").__code__,
        NetworkedProtocolEngine._mark_packed.__code__,
    ):
        lines.update(line for _s, _e, line in code.co_lines() if line is not None)
    return lines


def _bounded_bytes(engine) -> int:
    """tracemalloc-retained bytes allocated by horizon-bounded state."""
    gc.collect()
    lines = _bounded_lines(engine)
    total = 0
    for stat in tracemalloc.take_snapshot().statistics("lineno"):
        frame = stat.traceback[0]
        if frame.filename.endswith(_BOUNDED_FILES) or (
            frame.filename.endswith("core/netengine.py") and frame.lineno in lines
        ):
            total += stat.size
    return total


def _soak(rounds, per_round, argue_window, seed, **topology):
    engine, topo = make_engine(argue_window=argue_window, seed=seed, **topology)
    horizon = engine.horizon
    # Under insert/evict churn a hash table settles at its steady-state
    # size only after one resize past H, so the first sample is at 3H.
    assert rounds >= 3 * horizon
    governors, r = topo.m, topo.r
    bound = {
        "labels": governors * r * per_round * horizon,
        "votes": governors * (governors - 1) * horizon,
        "timers": governors * per_round * horizon,
        "packed": per_round * (horizon + 1),
    }
    workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=seed + 1)
    # A full collection also empties the interpreter's free lists, whose
    # recycled objects tracemalloc would not see.
    gc.collect()
    tracemalloc.start()
    try:
        samples = []
        for k in range(1, 10 * rounds + 1):
            engine.run_round(workload.take(per_round))
            if k in (rounds, 10 * rounds):
                samples.append((engine.retained_state(), _bounded_bytes(engine)))
    finally:
        tracemalloc.stop()
    (early_counts, early_bytes), (late_counts, late_bytes) = samples
    for counts in (early_counts, late_counts):
        for kind, live in counts.items():
            assert 0 < live <= bound[kind], (kind, live, bound[kind])
    assert late_bytes <= 1.1 * early_bytes + 4096, (early_bytes, late_bytes)


def test_soak_retained_state_is_flat():
    """12 then 120 rounds at a 4-round horizon: counts and bytes flat."""
    _soak(rounds=12, per_round=8, argue_window=4, seed=21)


@pytest.mark.soak
def test_soak_retained_state_is_flat_at_benchmark_shape():
    """The ``netsim-durable`` topology and load: 48 then 480 rounds, H = 16."""
    _soak(rounds=48, per_round=32, argue_window=16, seed=31, l=16, n=8, m=4, r=4)

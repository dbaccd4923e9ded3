"""Golden-value regression tests.

Every stochastic component is seeded, so whole runs are bit-for-bit
reproducible — which means we can pin exact outputs and catch *any*
unintended behavioural change (a reordered RNG draw, a changed hash
input, an off-by-one in an update rule) that the invariant-style tests
might tolerate.

If a change legitimately alters the protocol's draw sequence (e.g. a new
feature consuming randomness), these constants must be re-derived and
the change justified in the commit that updates them.
"""

from __future__ import annotations

import pytest

from repro.agents.behaviors import (
    AlwaysInvertBehavior,
    ConcealBehavior,
    HonestBehavior,
    MisreportBehavior,
)
from repro.core import ProtocolEngine, ProtocolParams
from repro.core.game import ReputationGame
from repro.core.netengine import NetworkedProtocolEngine
from repro.crypto.hashing import hash_value
from repro.crypto.signatures import SigningKey, sign
from repro.crypto.vrf import vrf_evaluate
from repro.network import Topology
from repro.storage.checkpoints import reputation_digest
from repro.storage.durable import StorageConfig
from repro.streaming import StreamingSession, StreamingWorkload, VirtualUniverse
from repro.workloads import BernoulliWorkload
from repro.workloads.arrivals import PoissonArrivals

# -- protocol-run goldens ----------------------------------------------------

GOLDEN_BLOCK_HASHES = [
    "52916a6829d77e0cbdaece472c9b85c90a057d719ae33162bf5d6495d8c50e70",
    "4ab1f4ec28c5447c042ae79bcd700e721877ed81f06eed2f2256ade2746da97e",
    "1dde647af721f649614d07e6d4753e6209e8e2ebc5f3366c009b86f19db143e0",
]


def test_golden_protocol_block_hashes():
    """Three rounds of a fixed configuration produce pinned block hashes."""
    topo = Topology.regular(l=8, n=4, m=3, r=2)
    engine = ProtocolEngine(
        topo,
        ProtocolParams(f=0.5),
        behaviors={"c0": MisreportBehavior(0.4)},
        seed=1234,
    )
    workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=5678)
    hashes = [engine.run_round(workload.take(8)).block.hash().hex() for _ in range(3)]
    assert hashes == GOLDEN_BLOCK_HASHES


# -- networked-engine golden ---------------------------------------------------

# (height, tip hash, reputation digest over the governors' books, auditor
# checks run across every governor auditor and the harness).
GOLDEN_NETWORKED = (
    22,
    "1d409fe13b82cc5dba084cd736bb3f4a7a6d3f3ecb340fc5f185b118b3acf8d3",
    "c7475ccaee0103f915cad6235d1b7e9bbdfb136a1355b0b3511660f7dc767ece",
    10424,
)


def test_golden_networked_engine(tmp_path):
    """The DES-networked engine in its benchmark shape reproduces its chain.

    l=16 n=8 m=4 r=4, c0 misreports and c1 conceals at 0.4, the auditor
    on and a durable store: 20 rounds of 32 transactions plus two empty
    flush rounds.  Misreporting and concealing are not equivocation, so
    every auditor stays clean.
    """
    topo = Topology.regular(l=16, n=8, m=4, r=4)
    engine = NetworkedProtocolEngine(
        topo,
        ProtocolParams(f=0.5, delta=0.2, b_limit=1024),
        behaviors={"c0": MisreportBehavior(0.4), "c1": ConcealBehavior(0.4)},
        seed=7,
        storage=StorageConfig(directory=str(tmp_path / "store")),
    )
    workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=8)
    for k in range(22):
        engine.run_round(workload.take(32) if k < 20 else [])
    engine.finalize()
    height, tip, digest, checks = GOLDEN_NETWORKED
    assert engine.store.height == height
    assert all(ledger.tip_hash().hex() == tip for ledger in engine.ledgers())
    books = {gid: gov.book for gid, gov in engine.governors.items()}
    assert reputation_digest(books).hex() == digest
    reports = [a.report for a in engine.auditors.values()] + [engine.harness_auditor.report]
    assert [len(report.violations) for report in reports] == [0] * len(reports)
    assert sum(report.checks_run for report in reports) == checks


# -- streaming-session goldens -------------------------------------------------

# leader_rotation -> (rounds, tip hash, reputation digest over the governors'
# books, (instantiations, re-arrivals, retirements, peak backlog)).
GOLDEN_STREAMING = {
    True: (
        14,
        "ffc09ac6533d1628d69547df0562fb1078f235134b65340ead33d938a2855ddd",
        "034b81bc32b35db65165409f8831a99fe810daecdc0c7f8178277e5df763ee36",
        (49, 30, 68, 28),
    ),
    False: (
        15,
        "f52f5394ac987bd82a617be7aabae9546918955ff02ba46c6e3a384b32b16b95",
        "2196a4935d9604050bed9a63851bb62f5e76f72ec19a3693a7cb029c33d17b75",
        (49, 31, 73, 28),
    ),
}


@pytest.mark.parametrize("leader_rotation", [True, False])
def test_golden_streaming_session(leader_rotation):
    """A seeded virtual-universe session reproduces its chain and books.

    Poisson arrivals at 10 per round against ``b_limit=8`` spill into
    the backlog, a two-round idle window retires providers that the
    uniform selection later brings back, and c0/c1 misreport and
    conceal; the session is flushed until the backlog is empty.
    """
    universe = VirtualUniverse(universe=64, n=4, m=3, r=2)
    workload = StreamingWorkload(
        universe,
        arrivals=PoissonArrivals(10.0, seed=21),
        selection="uniform",
        seed=21,
        p_valid=0.75,
    )
    session = StreamingSession(
        universe,
        ProtocolParams(f=0.5, b_limit=8),
        workload=workload,
        behaviors={"c0": MisreportBehavior(0.6), "c1": ConcealBehavior(0.6)},
        seed=21,
        retirement_rounds=2,
        leader_rotation=leader_rotation,
    )
    session.run(12)
    while session.backlog_depth:
        session.run_round()
    session.finalize()
    rounds, tip, digest, lifecycle = GOLDEN_STREAMING[leader_rotation]
    m = session.metrics
    assert session.round_number == session.store.height == rounds
    assert all(ledger.tip_hash().hex() == tip for ledger in session.ledgers())
    books = {gid: gov.book for gid, gov in session.governors.items()}
    assert reputation_digest(books).hex() == digest
    assert (m.instantiations, m.reinstantiations, m.retirements, m.peak_backlog) == lifecycle


# -- reputation-game goldens ---------------------------------------------------

def test_golden_game_losses_and_weights():
    """A fixed game run reproduces its exact losses and final weights."""
    game = ReputationGame(
        [
            HonestBehavior(),
            MisreportBehavior(0.5),
            ConcealBehavior(0.5),
            AlwaysInvertBehavior(),
        ],
        horizon=200,
        seed=99,
        track_curves=False,
    )
    result = game.run()
    assert result.expected_loss == pytest.approx(3.4905536614907997, rel=1e-12)
    assert result.realized_loss == 2.0
    assert result.final_weights["c0"] == 1.0
    assert result.final_weights["c1"] == pytest.approx(3.861414422033345e-28, rel=1e-9)
    assert result.final_weights["c2"] == pytest.approx(3.8896904024495416e-21, rel=1e-9)
    assert result.final_weights["c3"] == pytest.approx(1.7711179113991065e-64, rel=1e-9)


# -- crypto goldens --------------------------------------------------------------

def test_golden_canonical_hash():
    """The canonical encoding is part of the wire/storage format: pin it."""
    digest = hash_value(("tx", {"a": 1, "b": [True, None, "x"]}, 3.5)).hex()
    assert digest == hash_value(("tx", {"b": [True, None, "x"], "a": 1}, 3.5)).hex()
    # This constant *is* the storage format; a change breaks old chains.
    assert digest == (
        "772cfff325c6e5e3e6a8a4fbee8b2994f631f306d26c2e6295bf19c447968357"
    )


def test_golden_signature_and_vrf_determinism():
    """Fixed key + fixed input -> fixed tag and VRF value, stable across
    runs and platforms (pure HMAC-SHA256)."""
    key = SigningKey(owner="gold", secret=b"\x42" * 32)
    tag1 = sign(key, ("msg", 7)).tag
    tag2 = sign(key, ("msg", 7)).tag
    assert tag1 == tag2
    out1 = vrf_evaluate(key, 3, 1, 2)
    out2 = vrf_evaluate(key, 3, 1, 2)
    assert out1.value == out2.value
    assert out1.as_int() == int.from_bytes(out1.value, "big")

"""The benchmark's three workloads, driven through public entry points only.

Each workload is run as *episodes*: one episode builds the system from
the seed, drives a fixed number of rounds, flushes, finalizes and tears
down.  An episode is deterministic in everything but wall-clock time,
so every episode of one seed must commit identical tips, and the run
checks that.  A timed run repeats episodes until ``--seconds`` of drive
time have been measured (see ``run.py``).  ``inspect(stage, system)``
hooks let the traced and memory passes look at the live system right
after set-up (``"start"``) and right after finalize (``"end"``).

Time is taken around the driver's calls into the system
(:class:`Calls`): a transaction is *submitted* when the call that hands
it to the system starts (on ``stream-open``: when its round was *due*)
and *committed* at the end of the driver call whose block carries it.

**Host speed.**  The benchmark runs on shared hosts whose speed drifts
by tens of percent within seconds.  Before every service call the
driver times a fixed stdlib-only work unit (:func:`speed_probe`, no
``repro`` code), and each call's duration is rescaled by
``PROBE_REF_S / median(nearby probes)``: times are reported at the
reference speed.  Raw wall-clock figures are kept alongside.
"""

from __future__ import annotations

import gc
import hashlib
import math
import multiprocessing
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.agents.behaviors import ConcealBehavior, MisreportBehavior
from repro.audit.auditor import ViolationType
from repro.core.netengine import NetworkedProtocolEngine
from repro.core.params import ProtocolParams
from repro.exceptions import AgreementError
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.ledger.chain import check_agreement
from repro.ledger.transaction import Label
from repro.network.topology import Topology
from repro.sharding import ShardCoordinator
from repro.storage.durable import StorageConfig
from repro.streaming.session import StreamingSession
from repro.streaming.universe import VirtualUniverse
from repro.streaming.workload import StreamingWorkload
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.generator import BernoulliWorkload
from repro.workloads.xshard import CrossShardWorkload


def _behaviors(p: float):
    """``c0`` misreports and ``c1`` conceals, each with probability ``p``."""
    return {"c0": MisreportBehavior(p), "c1": ConcealBehavior(p)}


# -- netsim-durable ------------------------------------------------------

NETSIM_TOPOLOGY = dict(l=16, n=8, m=4, r=4)
NETSIM_PARAMS = ProtocolParams(f=0.5, delta=0.2, b_limit=1024)
NETSIM_PER_ROUND = 32
NETSIM_MISBEHAVIOUR = 0.4
#: Loaded rounds per episode: long enough that the per-round state growth
#: (auditor evidence, dedup sets) shows in ``peak_rss_mib``.
NETSIM_ROUNDS = 150
#: Empty rounds after the load: an argued record is re-evaluated in the
#: round after its block, and a late-screened one packs one round late.
NETSIM_FLUSH = 2

# -- stream-open ---------------------------------------------------------

STREAM_UNIVERSE = dict(universe=10**6, n=8, m=4, r=4)
STREAM_PARAMS = ProtocolParams(f=0.5, b_limit=96)
STREAM_RETIREMENT = 6
#: About 1% of transactions take the argue path (a second round).  At
#: 0.4 that share straddles 1% from seed to seed, so p99 would jump
#: between the one-round and two-round populations; at 0.8 it is about
#: 2% and p99 stays on the argue path.
STREAM_MISBEHAVIOUR = 0.8
#: Poisson mean arrivals per round.
STREAM_RATE = 60.0
#: Wall-clock seconds between round due times: the open-loop rate is
#: STREAM_RATE / STREAM_INTERVAL_S tx/s.  Calibrated once so that the
#: session's last rounds, the slowest (per-round cost grows with the
#: chain), stay below the interval even when the host runs slow.
STREAM_INTERVAL_S = 0.18
STREAM_FLUSH = 2

# -- shards-par ----------------------------------------------------------

SHARD_TOTALS = dict(l=24, n=8, m=8, r=2)
SHARDS = 2
SHARD_WORKERS = 2
SHARD_PARAMS = ProtocolParams(f=0.5, delta=0.2, b_limit=16)
SHARD_P_CROSS = 0.15
SHARD_EPOCH_ROUNDS = 4
#: Closed loop at nominal capacity: S * b_limit specs per super-round.
SHARD_PER_ROUND = SHARDS * SHARD_PARAMS.b_limit
SHARD_ROUNDS = 100
#: A timed run of S seconds runs ceil(S / this) parallel episodes, each
#: on its own sub-seed, because the record pile-up of defect (b) differs
#: a lot from seed to seed; five at S = 10, so that the median over the
#: episodes has a middle value even when one of them crashes.
SHARD_EPISODE_S = 2.0


def shard_episodes(seconds: float) -> int:
    """Number of (sub-seeded) parallel episodes in a timed run."""
    return max(2, math.ceil(seconds / SHARD_EPISODE_S))


def shard_subseed(seed: int, episode: int) -> int:
    return seed * 1000 + episode


# -- host-speed normalisation ---------------------------------------------

#: Time of one :func:`speed_probe` at the reference speed (the typical
#: speed of the 2-core host the benchmark was calibrated on).
PROBE_REF_S = 0.0025
#: Probes on each side of a call whose median sets the call's factor.
PROBE_WINDOW = 5


def speed_probe() -> float:
    """Seconds taken by a fixed unit of dict, string, hash and sort work.

    Uses the standard library only, so no change to the system under
    test can change it.
    """
    t0 = time.perf_counter()
    table: dict[str, int] = {}
    digest = hashlib.sha256()
    for i in range(3000):
        key = f"k{i % 512}"
        table[key] = table.get(key, 0) + i
        digest.update(key.encode())
        if i % 64 == 0:
            sorted(table.items())
    return time.perf_counter() - t0


def timed_setup(build: Callable):
    """``(build(), seconds at reference speed)``."""
    speed = PROBE_REF_S / statistics.median(speed_probe() for _ in range(3))
    t0 = time.perf_counter()
    built = build()
    return built, (time.perf_counter() - t0) * speed


@dataclass
class Episode:
    """What one episode measured.  Times are at the reference speed."""

    tips: tuple
    setup_s: float
    #: Wall time from the first call into the system to the end of finalize.
    drive_s: float = 0.0
    #: Time and CPU time inside service calls (generator calls excluded).
    service_s: float = 0.0
    cpu_s: float = 0.0
    #: Per committed workload tx: latency ms and simulated seconds.
    latency_ms: list = field(default_factory=list)
    sim_s: list = field(default_factory=list)
    offered_valid: int = 0
    committed_valid: int = 0
    rounds: int = 0
    #: Safety violations and broken checks: any entry fails the run.
    errors: list = field(default_factory=list)
    #: Reported-only auditor findings by type (see REPORTED_ONLY).
    findings: dict = field(default_factory=dict)
    #: Raw wall-clock figures and other facts for the detail line.
    extra: dict = field(default_factory=dict)
    #: Set when the system raised mid-episode: every honest-valid tx the
    #: episode offered then counts as a failed operation.
    crash: str | None = None
    #: Where and how it raised: ``(round, call, exception type, message)``.
    crash_at: tuple | None = None

    @property
    def committed(self) -> int:
        return len(self.latency_ms)


class SystemCrash(Exception):
    """The system under test raised inside one of the driver's calls.

    ``signature`` is ``(call, exception type, message)`` with the
    parallel backend's wrapping taken off: a ``WorkerOpError`` carries
    the type and message the worker raised, so a crash on either backend
    reads the same.
    """

    def __init__(self, call: str, exc: Exception):
        kind, detail = type(exc).__name__, str(exc)
        if hasattr(exc, "exc_type") and hasattr(exc, "phase"):  # WorkerOpError
            kind = exc.exc_type
            detail = detail.split(f"during phase {exc.phase!r}: ", 1)[-1]
        self.signature = (call, kind, detail)
        super().__init__(f"{call}: {type(exc).__name__}: {exc}")


class Calls:
    """Times the driver's calls into the system.

    Call :meth:`probe` before a service call; :meth:`finish` turns the
    log into reference-speed figures.  With a tracer, each call is also
    a top-level ``call.<name>`` span, so the traced drive-loop wall time
    is exactly the sum of these spans.  ``service=False`` marks a call
    (the open-loop generator) that is traced but not service time.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.probes: list[float] = []
        #: Raw wall time of every call, service or not, taken outside the
        #: tracer: the traced run checks its layer breakdown against it.
        self.wall_s = 0.0
        #: Per service call: [start, end, cpu seconds, latest probe index].
        self.log: list[list] = []

    def probe(self) -> None:
        self.probes.append(speed_probe())

    def __call__(self, name: str, fn: Callable, *args, service: bool = True):
        """``(call index or -1, start, end, result)``."""
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args)
            else:
                result = self.tracer.span("call." + name, fn, *args)
        except Exception as exc:
            raise SystemCrash(name, exc) from exc
        t1 = time.perf_counter()
        self.wall_s += t1 - t0
        if not service:
            return -1, t0, t1, result
        self.log.append([t0, t1, time.process_time() - c0, len(self.probes) - 1])
        return len(self.log) - 1, t0, t1, result

    def finish(self) -> None:
        """Per-call speed factors, reference-speed totals, latency prefix sums."""
        probes = self.probes
        self.factors = []
        for *_, p in self.log:
            window = probes[max(0, p - PROBE_WINDOW): p + PROBE_WINDOW + 1]
            self.factors.append(PROBE_REF_S / statistics.median(window))
        self.raw_s = sum(end - start for start, end, _, _ in self.log)
        self.service_s = sum((e - s) * f for (s, e, _, _), f in zip(self.log, self.factors))
        self.cpu_s = sum(cpu * f for (_, _, cpu, _), f in zip(self.log, self.factors))
        self.speed = statistics.median(self.factors)
        # Cumulative raw and rescaled durations of calls 0..k-1.
        self.raw_prefix, self.prefix = [0.0], [0.0]
        for (start, end, _, _), f in zip(self.log, self.factors):
            self.raw_prefix.append(self.raw_prefix[-1] + (end - start))
            self.prefix.append(self.prefix[-1] + (end - start) * f)

    def latency_ms(self, since: float, first: int, last: int, end: float, open_loop: bool) -> float:
        """Latency of a tx handed over at ``since`` and committed at ``end``.

        Closed loop: the rescaled time of calls ``first..last``; the gaps
        between calls are the driver's own work (generator, probes,
        bookkeeping).  Open loop: wall time from ``since`` (the due
        time) with the calls' share rescaled, since the waits between
        calls are real time the transaction spends waiting.
        """
        service = self.prefix[last + 1] - self.prefix[first]
        if open_loop:
            service += end - since - (self.raw_prefix[last + 1] - self.raw_prefix[first])
        return service * 1e3

    def close(self, ep: "Episode", commits: list[tuple], open_loop: bool = False) -> None:
        """Fill ``ep``'s time figures from ``(since, first, last, end)`` commits."""
        self.finish()
        ep.service_s, ep.cpu_s = self.service_s, self.cpu_s
        ep.latency_ms = [self.latency_ms(*c, open_loop) for c in commits]
        ep.extra["raw_service_s"] = self.raw_s
        ep.extra["raw_latency_ms"] = [(end - since) * 1e3 for since, _, _, end in commits]
        ep.extra["speed"] = self.speed
        ep.extra["calls_wall_s"] = self.wall_s


def _seq(record):
    """The workload sequence number a committed record carries, if any.

    Only a record labelled valid commits its transaction: a valid tx
    first recorded invalid-and-unchecked commits when its re-evaluated
    record lands, after the provider argued.
    """
    if record.label is not Label.VALID:
        return None
    payload = record.tx.body.payload
    if not isinstance(payload, dict):
        return None
    if "body" in payload:  # cross-shard wrapper
        payload = payload["body"]
        if not isinstance(payload, dict):
            return None
    return payload.get("seq")


def _check_replicas(ledgers, label: str) -> list[str]:
    ledgers = list(ledgers)
    errors = []
    try:
        check_agreement(ledgers)
    except AgreementError as exc:
        errors.append(f"{label}: replica agreement: {exc}")
    tips = {(ledger.height, ledger.tip_hash()) for ledger in ledgers}
    if len(tips) != 1:
        errors.append(f"{label}: replicas end at different tips {sorted(tips)}")
    return errors


#: Auditor findings reported but not fatal.  A half-applied receipt is a
#: cross-shard tx that did not commit: it is counted as a failed
#: operation.
REPORTED_ONLY = (ViolationType.RECEIPT_HALF_APPLIED,)
#: On ``stream-open`` only, the Theorem-1 guardrail is reported too: it
#: compares the *summed* loss of every provider's reputation sequence
#: with a single-sequence bound, so it fires on runs with thousands of
#: distinct providers without any replica being unsafe (defect (c) in
#: perfbench/README.md).  It stays fatal on the other workloads.
STREAM_REPORTED_ONLY = REPORTED_ONLY + (ViolationType.REGRET_BOUND,)


def _safety(reports, label: str, reported_only=REPORTED_ONLY) -> tuple[list[str], dict[str, int]]:
    """(fatal safety violations, counts of the reported-only findings)."""
    errors, findings = [], {}
    for report in reports:
        for v in report.safety_violations():
            if v.type in reported_only:
                findings[v.type.value] = findings.get(v.type.value, 0) + 1
            else:
                errors.append(f"{label}: safety violation {v.type.value}: {v.detail}")
    return errors, findings


# -- netsim-durable ------------------------------------------------------


def netsim_build(seed: int, directory: str, obs=None):
    """Topology, engine, identities and a fresh durable store."""
    topo = Topology.regular(**NETSIM_TOPOLOGY)
    engine = NetworkedProtocolEngine(
        topo,
        NETSIM_PARAMS,
        behaviors=_behaviors(NETSIM_MISBEHAVIOUR),
        seed=seed,
        storage=StorageConfig(directory=directory),
        obs=obs,
    )
    return engine, topo


def netsim_episode(
    seed: int, workdir: str, rounds: int = NETSIM_ROUNDS, tracer=None, obs=None,
    inspect: Callable | None = None,
) -> Episode:
    directory = os.path.join(workdir, "netsim-store")
    shutil.rmtree(directory, ignore_errors=True)
    (engine, topo), setup_s = timed_setup(lambda: netsim_build(seed, directory, obs))
    ep = Episode(tips=(), setup_s=setup_s)
    generator = BernoulliWorkload(topo.providers, p_valid=0.8, seed=seed + 1)
    if tracer is not None:
        tracer.reset()
    if inspect is not None:
        inspect("start", engine)
    calls = Calls(tracer)
    submitted: dict[int, tuple] = {}
    commits: list[tuple] = []
    drive0 = time.perf_counter()
    try:
        for k in range(rounds + NETSIM_FLUSH):
            specs = generator.take(NETSIM_PER_ROUND) if k < rounds else []
            sim0 = engine.sim.now
            calls.probe()
            i, start, end, result = calls("run_round", engine.run_round, specs)
            for spec in specs:
                submitted[spec.payload["seq"]] = (i, start, sim0, spec.is_valid)
                ep.offered_valid += spec.is_valid
            for record in result.block.tx_list:
                entry = submitted.pop(_seq(record), None)
                if entry is not None:
                    commits.append((entry[1], entry[0], i, end))
                    ep.sim_s.append(engine.sim.now - entry[2])
                    ep.committed_valid += entry[3]
        calls.probe()
        calls("finalize", engine.finalize)
    except SystemCrash as crash:
        ep.crash = str(crash)
        ep.drive_s = time.perf_counter() - drive0
        del engine
        gc.collect()
        shutil.rmtree(directory, ignore_errors=True)
        return ep
    ep.drive_s = time.perf_counter() - drive0
    if inspect is not None:
        inspect("end", engine)
    calls.close(ep, commits)
    ep.rounds = rounds + NETSIM_FLUSH
    ep.tips = (engine.store.tip_hash().hex(),)
    ep.errors += _check_replicas(engine.ledgers(), "netsim-durable")
    if engine.store.height != engine.ledgers()[0].height:
        ep.errors.append("netsim-durable: durable store height differs from the replicas")
    errors, ep.findings = _safety(
        [a.report for a in engine.auditors.values()] + [engine.harness_auditor.report],
        "netsim-durable",
    )
    ep.errors += errors
    del engine
    gc.collect()
    shutil.rmtree(directory, ignore_errors=True)
    return ep


# -- stream-open ---------------------------------------------------------


def stream_build(seed: int, obs=None, spec_hook=None):
    """Virtual universe, seeded arrival stream and streaming session."""
    universe = VirtualUniverse(**STREAM_UNIVERSE)
    workload = StreamingWorkload(
        universe,
        arrivals=PoissonArrivals(STREAM_RATE, seed=seed),
        validity="bernoulli",
        selection="uniform",
        seed=seed,
        p_valid=0.8,
        spec_hook=spec_hook,
    )
    session = StreamingSession(
        universe,
        STREAM_PARAMS,
        workload=workload,
        behaviors=_behaviors(STREAM_MISBEHAVIOUR),
        seed=seed,
        retirement_rounds=STREAM_RETIREMENT,
        obs=obs,
    )
    return session, workload


def _sleep_until(deadline: float) -> None:
    wait = deadline - time.perf_counter()
    if wait > 0:
        time.sleep(wait)


def stream_rounds(seconds: float) -> int:
    """Loaded rounds of one paced ``stream-open`` run of ``seconds``."""
    return max(1, round(seconds / STREAM_INTERVAL_S))


def stream_episode(
    seed: int, rounds: int, paced: bool, tracer=None, obs=None,
    inspect: Callable | None = None,
) -> Episode:
    """One ``stream-open`` session.

    Paced (the timed run): round ``k``'s arrivals are due at
    ``start + k * STREAM_INTERVAL_S`` and the round starts at the later
    of its due time and the end of the previous round; a transaction's
    latency counts from its round's due time.  Unpaced (replay, traced
    and memory passes): rounds run back to back and are due when their
    call starts.
    """
    arrival_round: dict[int, int] = {}
    current = [0]

    def tag(spec, index, rng):
        arrival_round[index] = current[0]
        return spec

    (session, workload), setup_s = timed_setup(lambda: stream_build(seed, obs, spec_hook=tag))
    ep = Episode(tips=(), setup_s=setup_s)
    if tracer is not None:
        tracer.reset()
    if inspect is not None:
        inspect("start", session)
    calls = Calls(tracer)
    valid: dict[int, bool] = {}
    # round -> (due time, index of its service call)
    due: dict[int, tuple[float, int]] = {}
    commits: list[tuple] = []
    lateness: list[float] = []
    drive0 = time.perf_counter()
    try:
        for k in range(1, rounds + STREAM_FLUSH + 1):
            current[0] = k
            specs: list = []
            if paced and k <= rounds:
                # The probe fills the end of the idle gap, so that it
                # runs in the state the round's call will run in.
                due_at = drive0 + k * STREAM_INTERVAL_S
                _sleep_until(due_at - (calls.probes[-1] if calls.probes else 0.0))
                calls.probe()
                _sleep_until(due_at)
                lateness.append(time.perf_counter() - due_at)
            else:
                calls.probe()
            if k <= rounds:
                _, _, _, specs = calls("for_round", workload.for_round, k, service=False)
            i, start, end, block = calls("run_round", session.run_round, specs)
            due[k] = (due_at if paced and k <= rounds else start, i)
            for spec in specs:
                valid[spec.payload["seq"]] = spec.is_valid
                ep.offered_valid += spec.is_valid
            for record in block.tx_list:
                seq = _seq(record)
                if seq is None or seq not in valid:
                    continue
                arrived = arrival_round.pop(seq, None)
                if arrived is None:
                    continue
                commits.append((due[arrived][0], due[arrived][1], i, end))
                # Session time is the round number; a tx committed in the
                # round it arrived in took one round.
                ep.sim_s.append(float(k - arrived + 1))
                ep.committed_valid += valid[seq]
        calls.probe()
        calls("finalize", session.finalize)
    except SystemCrash as crash:
        ep.crash = str(crash)
        ep.drive_s = time.perf_counter() - drive0
        return ep
    ep.drive_s = time.perf_counter() - drive0
    if inspect is not None:
        inspect("end", session)
    calls.close(ep, commits, open_loop=paced)
    ep.rounds = rounds + STREAM_FLUSH
    ep.tips = (session.ledgers()[0].tip_hash().hex(),)
    ep.errors += _check_replicas(session.ledgers(), "stream-open")
    if session.audit_report is not None:
        errors, ep.findings = _safety([session.audit_report], "stream-open", STREAM_REPORTED_ONLY)
        ep.errors += errors
    if lateness:
        ep.extra["lateness_ms"] = [x * 1e3 for x in lateness]
    ep.extra["backlog_end"] = session.backlog_depth
    del session, workload
    gc.collect()
    return ep


# -- shards-par ----------------------------------------------------------


def shard_build(seed: int, workers: int | None, obs=None):
    """Sharded topology, coordinator (worker spawn) and the E14 fault plan."""
    sharded = Topology.sharded(**SHARD_TOTALS, shards=SHARDS, seed=seed)
    coordinator = ShardCoordinator(
        sharded,
        SHARD_PARAMS,
        seed=seed,
        epoch_rounds=SHARD_EPOCH_ROUNDS,
        resilience=True,
        obs=obs,
        workers=workers,
    )
    for k in range(SHARDS):
        plan = FaultPlan(seed=seed + 100 + k).with_default_link(
            LinkFaultSpec(loss=0.02, duplicate=0.05)
        )
        if k == 0:
            plan.with_crash(sharded.shards[0].governors[-1], at=0.8, recover_at=1.6)
        coordinator.install_faults(k, plan)
    return coordinator, sharded


def shard_commit_rounds(coordinator, provider_shard) -> dict[int, int]:
    """seq -> super-round in which the tx became fully committed.

    Read from the in-process chains of a serial-backend run.  A
    cross-shard tx is complete when its receipt has also landed on the
    remote shard; until then it is not committed.
    """
    blocks = [
        (k, engine.store.retrieve(serial))
        for k, engine in enumerate(coordinator.engines)
        for serial in range(engine.store.base_serial + 1, engine.store.height + 1)
    ]
    home: dict[int, tuple[int, bool]] = {}
    tx_seq: dict[str, int] = {}
    for k, block in blocks:
        for record in block.tx_list:
            payload = record.tx.body.payload
            seq = _seq(record)
            if seq is None or seq in home:
                continue
            cross = "xshard_to" in payload and provider_shard.get(payload["xshard_to"]) != k
            home[seq] = (block.round_number, cross)
            tx_seq[record.tx.tx_id] = seq
    landed: dict[int, int] = {}
    for _, block in blocks:
        for record in block.tx_list:
            payload = record.tx.body.payload
            if isinstance(payload, dict) and "xshard_receipt" in payload:
                seq = tx_seq.get(payload["origin_tx"])
                if seq is not None:
                    landed[seq] = block.round_number
    done = {}
    for seq, (round_number, cross) in home.items():
        if not cross:
            done[seq] = round_number
        elif seq in landed:
            done[seq] = max(round_number, landed[seq])
    return done


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def shard_workers() -> list:
    """The live shard worker processes of this driver."""
    return [p for p in multiprocessing.active_children() if p.name.startswith("shard-worker")]


def close_coordinator(coordinator, procs) -> None:
    """Shut the backend down and wait until every worker has ended."""
    coordinator.close()
    for proc in procs:
        proc.join(timeout=10)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=10)


def shard_episode(
    seed: int, rounds: int = SHARD_ROUNDS, workers: int | None = SHARD_WORKERS,
    tracer=None, obs=None, inspect: Callable | None = None,
) -> tuple[Episode, dict]:
    """One ``shards-par`` run on either backend.

    Returns the episode (latencies not yet filled in) and the timing
    record :func:`shard_latencies` needs: the parallel backend reports
    only committed *counts* per super-round, so which tx each
    super-round committed is read from a serial-backend run of the same
    seed, whose chains are bit-identical (the caller compares tips and
    per-round counts).
    """
    (coordinator, sharded), setup_s = timed_setup(lambda: shard_build(seed, workers, obs))
    ep = Episode(tips=(), setup_s=setup_s)
    procs = shard_workers() if workers else []
    try:
        providers = [p for topo in sharded.shards for p in topo.providers]
        generator = CrossShardWorkload(
            BernoulliWorkload(providers, p_valid=0.8, seed=seed + 1),
            sharded.provider_shard,
            p_cross=SHARD_P_CROSS,
            seed=seed + 2,
        )
        if tracer is not None:
            tracer.reset()
        if inspect is not None:
            inspect("start", coordinator)
        calls = Calls(tracer)
        worker_cpu0 = sum(_proc_cpu_s(p.pid) for p in procs)
        timing = {"calls": calls, "submit": {}, "end": {}, "offered": {}, "counts": []}
        drive0 = time.perf_counter()
        at = "set-up"
        try:
            for j in range(1, rounds + 1):
                at = f"super-round {j}"
                specs = generator.take(SHARD_PER_ROUND)
                sim0 = coordinator.now
                calls.probe()
                i, start, _, _ = calls("submit", coordinator.submit, specs)
                i_run, _, end, result = calls("run_super_round", coordinator.run_super_round)
                timing["submit"][j] = (i, start, sim0)
                timing["end"][j] = (i_run, end, coordinator.now)
                timing["counts"].append(result.committed_tx)
                for spec in specs:
                    timing["offered"][_seq_of_spec(spec)] = (j, spec.is_valid)
                    ep.offered_valid += spec.is_valid
            calls.probe()
            at = "finalize"
            i_fin, _, end, report = calls("finalize", coordinator.finalize)
            timing["final"] = (i_fin, end, coordinator.now)
        except SystemCrash as crash:
            ep.crash = f"{at}: {crash}"
            ep.crash_at = (at, *crash.signature)
            ep.drive_s = time.perf_counter() - drive0
            return ep, timing
        ep.drive_s = time.perf_counter() - drive0
        if inspect is not None:
            inspect("end", coordinator)
        calls.finish()
        worker_cpu = sum(_proc_cpu_s(p.pid) for p in procs) - worker_cpu0
        ep.service_s = calls.service_s
        ep.cpu_s = calls.cpu_s + worker_cpu * calls.speed
        ep.extra.update(raw_service_s=calls.raw_s, speed=calls.speed, calls_wall_s=calls.wall_s)
        ep.extra["workers_peak_mib"] = sum(_proc_peak_mib(p.pid) for p in procs)
        ep.rounds = rounds
        ep.tips = tuple(coordinator.tip_hashes())
        errors, ep.findings = _safety([report], "shards-par")
        ep.errors += errors
        ep.extra["pending_receipts"] = len(coordinator.auditor.pending())
        ep.extra["backlog_end"] = coordinator.backlog_depth()
        if workers is None:
            timing["commit_rounds"] = shard_commit_rounds(coordinator, sharded.provider_shard)
            for k, engine in enumerate(coordinator.engines):
                label = f"shards-par shard {k}"
                ep.errors += _check_replicas(engine.ledgers(), label)
                errors, findings = _safety(
                    [a.report for a in engine.auditors.values()]
                    + [engine.harness_auditor.report],
                    label,
                )
                ep.errors += errors
                for kind, n in findings.items():
                    ep.findings[kind] = ep.findings.get(kind, 0) + n
    finally:
        close_coordinator(coordinator, procs)
    del coordinator
    gc.collect()
    return ep, timing


def _seq_of_spec(spec) -> int:
    payload = spec.payload
    return payload["body"]["seq"] if "body" in payload else payload["seq"]


def shard_latencies(ep: Episode, timing: dict, commit_rounds: dict[int, int]) -> None:
    """Fill ``ep``'s latencies from a commit-round map (see shard_episode).

    A tx submitted in super-round ``j`` is submitted when that round's
    ``submit`` call starts.  It is committed at the end of the
    ``run_super_round`` call of its commit round, or at the end of
    ``finalize`` when that round is one of finalize's flush rounds.
    """
    calls = timing["calls"]
    last = max(timing["end"]) if timing["end"] else 0
    raw = ep.extra["raw_latency_ms"] = []
    for seq, (j_submit, is_valid) in sorted(timing["offered"].items()):
        j_commit = commit_rounds.get(seq)
        if j_commit is None:
            continue
        i_end, end_wall, end_sim = timing["end"][j_commit] if j_commit <= last else timing["final"]
        i_start, start_wall, start_sim = timing["submit"][j_submit]
        ep.latency_ms.append(calls.latency_ms(start_wall, i_start, i_end, end_wall, False))
        raw.append((end_wall - start_wall) * 1e3)
        ep.sim_s.append(end_sim - start_sim)
        ep.committed_valid += is_valid

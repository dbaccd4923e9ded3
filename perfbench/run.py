#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload netsim-durable --seed 1 --seconds 10 --trace 0

``--trace 0`` is the timed run: it prints every end-to-end metric of
``BENCHMARK.json``.  ``--trace 1`` is the per-layer run: an untraced
episode, a traced one and a ``tracemalloc`` memory pass, printing every
per-layer metric.  Both check the outputs (replica agreement, identical
tips for every run of the seed, serial == parallel tips on
``shards-par``, no safety violation) and exit 1 if a check fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts the honest-valid transactions offered and ``failed`` those not
committed after the run's bounded flush.  Lines before it are a
human-readable table and a ``detail`` JSON line (sample counts,
percentiles that are not gated, generator lateness, host facts).

``--rounds`` overrides the episode length; it exists for the
self-tests' smoke runs and changes what the metrics mean.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
WORKLOADS = ("netsim-durable", "stream-open", "shards-par")
#: ``sharding.*`` metrics of the traced ``shards-par`` run taken from its
#: parallel episode (with every ``parallel.*`` one); the rest of its
#: metrics come from the serial twin.
PARALLEL_RUN_METRICS = ("sharding.coordinator.self_ms_per_round", "sharding.pending_receipts_end")
#: Set-up is timed at least MIN_SETUPS times per run, and again (up to
#: MAX_SETUPS times) until SETUP_BUDGET_S of set-up time is measured, so
#: that a set-up of a few milliseconds is the median of many samples.
MIN_SETUPS = 5
MAX_SETUPS = 101
SETUP_BUDGET_S = 0.25
#: Fewest identical ``netsim-durable`` episodes per run, so that the
#: median of their latency percentiles has a middle value.
MIN_REPEATS = 3
#: How far the traced layer breakdown may sit from the call time the
#: driver measures outside the tracer (share of the latter).  The gap
#: is the tracer's own enter/exit cost, a few microseconds per call.
BREAKDOWN_TOLERANCE = 0.01


def _import_paths() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src / 'repro'} not found; run from a full checkout")
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _children() -> list[int]:
    """Pids of this process's children that have not been waited for."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Shard workers are joined when their episode ends.  What outlives
    them is the resource tracker that the ``spawn`` start method
    launches with the first worker and would leave running after this
    process exits; closing its pipe stops it.  Any other child is killed.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    resource_tracker._resource_tracker._stop()
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def declared_metrics() -> dict[str, dict[str, dict]]:
    """``{"end_to_end": {name: spec}, "per_layer": {name: spec}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m for m in spec[key]} for key in ("end_to_end", "per_layer")}


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _peak_rss_mib() -> float:
    # ru_maxrss is kilobytes on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _meta() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


class Run:
    """Accumulates one invocation's episodes, checks and results."""

    def __init__(self, workload: str, seed: int, seconds: float, rounds: int | None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.rounds = rounds
        self.errors: list[str] = []
        #: Episodes in which the system raised: (seed, error, honest-valid offered).
        self.crashes: list[tuple] = []
        self.detail: dict = {"workload": workload, "seed": seed, "meta": _meta()}
        self.workdir = WORKDIR / f"run-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        stop_children()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def same_tips(self, label: str, *episodes) -> None:
        tips = {ep.tips for ep in episodes}
        if len(tips) != 1:
            self.errors.append(f"{label}: runs of seed {self.seed} committed different tips {sorted(tips)}")

    def completed(self, seed: int, episodes) -> list:
        """Episodes that ran to the end; crashed ones are recorded."""
        done = []
        for ep in episodes:
            if ep.crash is None:
                done.append(ep)
            else:
                self.crashes.append((seed, ep.crash, ep.offered_valid))
        return done

    def twins_agree(self, seed: int, par, twin) -> bool:
        """Whether a ``shards-par`` episode and its serial twin both completed.

        If either raised, both must have raised the same exception at
        the same point (a crash on one backend only is a divergence);
        the parallel episode's crash is recorded either way.
        """
        if par.crash is None and twin.crash is None:
            return True
        self.completed(seed, [par])
        if par.crash_at != twin.crash_at:
            self.errors.append(
                f"shards-par seed {seed}: parallel and serial runs differ: parallel "
                f"{par.crash or 'completed'}; serial {twin.crash or 'completed'}"
            )
        return False

    def check_breakdown(self, label: str, tracer, episode) -> dict:
        """The traced layer breakdown (ms), checked against the call time.

        The layer self times plus ``unattributed`` must add up to the
        wall time of the driver's calls, measured outside the tracer: a
        probe that fires outside the driver's calls breaks the sum.
        """
        breakdown = _breakdown_ms(tracer)
        covered = sum(v for k, v in breakdown.items() if k != "drive")
        wall = 1e3 * episode.extra["calls_wall_s"]
        if abs(covered - wall) > BREAKDOWN_TOLERANCE * wall:
            self.errors.append(
                f"{label}: layer self times {covered:.3f} ms do not add up to "
                f"the driver's call time {wall:.3f} ms"
            )
        return breakdown

    def collect_errors(self, *episodes) -> None:
        for ep in episodes:
            for error in ep.errors:
                if error not in self.errors:
                    self.errors.append(error)

    # -- timed run ---------------------------------------------------------

    def timed(self) -> tuple[dict, int, int]:
        import drivers as w

        setups: list[float] = []
        if self.workload == "netsim-durable":
            rounds = self.rounds or w.NETSIM_ROUNDS
            episodes = self.completed(
                self.seed, self._repeat(lambda: w.netsim_episode(self.seed, str(self.workdir), rounds))
            )
            peak = _peak_rss_mib()
            self.same_tips("netsim-durable", *episodes)
            if self.crashes and episodes:
                self.errors.append("netsim-durable: identical episodes differ: only some raised")
        elif self.workload == "stream-open":
            rounds = self.rounds or w.stream_rounds(self.seconds)
            paced = w.stream_episode(self.seed, rounds, paced=True)
            peak = _peak_rss_mib()
            replay = w.stream_episode(self.seed, rounds, paced=False)
            episodes = self.completed(self.seed, [paced])
            if episodes and replay.crash is None:
                self.same_tips("stream-open paced vs replay", paced, replay)
            elif episodes:
                self.errors.append(f"stream-open: the replay crashed but the paced run did not: {replay.crash}")
            setups.append(replay.setup_s)
            if episodes:
                lateness = paced.extra["lateness_ms"]
                self.detail["generator_lateness_ms"] = {
                    "p50": percentile(lateness, 50), "p99": percentile(lateness, 99),
                }
                self.detail["busy_fraction"] = paced.extra["raw_service_s"] / paced.drive_s
            self.collect_errors(replay)
        else:
            rounds = self.rounds or w.SHARD_ROUNDS
            subseeds = [w.shard_subseed(self.seed, e) for e in range(w.shard_episodes(self.seconds))]
            runs = [(sub, *w.shard_episode(sub, rounds)) for sub in subseeds]
            peak = _peak_rss_mib() + max(
                (ep.extra.get("workers_peak_mib", 0.0) for _, ep, _ in runs), default=0.0
            )
            episodes = []
            for sub, ep, timing in runs:
                twin, twin_timing = w.shard_episode(sub, rounds, workers=None)
                self.collect_errors(twin)
                if not self.twins_agree(sub, ep, twin):
                    continue
                w.shard_latencies(ep, timing, twin_timing["commit_rounds"])
                if timing["counts"] != twin_timing["counts"]:
                    self.errors.append(f"shards-par seed {sub}: parallel and serial per-round commits differ")
                self.same_tips(f"shards-par seed {sub} parallel vs serial", twin, ep)
                episodes.append(ep)
        if not episodes:
            raise RuntimeError(f"{self.workload}: the system raised in every episode: {self.crashes}")
        self.collect_errors(*episodes)
        setups += [ep.setup_s for ep in episodes]
        while len(setups) < MIN_SETUPS or (sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS):
            setups.append(self._setup_only(w))

        latency = [x for ep in episodes for x in ep.latency_ms]
        sim = [x for ep in episodes for x in ep.sim_s]
        committed = len(latency)
        lost = sum(offered for _, _, offered in self.crashes)
        attempted = sum(ep.offered_valid for ep in episodes) + lost
        committed_valid = sum(ep.committed_valid for ep in episodes)
        metrics = {
            "commit_tps": committed / sum(ep.service_s for ep in episodes),
            "cpu_ms_per_tx": 1e3 * sum(ep.cpu_s for ep in episodes) / committed,
            "commit_p50_ms": _episode_median(episodes, 50),
            "commit_p99_ms": _episode_median(episodes, 99),
            "sim_commit_mean_s": statistics.fmean(sim),
            "commit_ratio": statistics.median(
                [ep.committed_valid / ep.offered_valid for ep in episodes] + [0.0] * len(self.crashes)
            ),
            "peak_rss_mib": peak,
            "setup_s": statistics.median(setups),
        }
        self.detail.update(
            episodes=len(episodes),
            rounds_per_episode=episodes[0].rounds,
            committed_tx=committed,
            latency_samples=committed,
            drive_s=sum(ep.drive_s for ep in episodes),
            setup_samples=len(setups),
            host_speed_factor=statistics.median(ep.extra["speed"] for ep in episodes),
            raw_commit_tps=committed / sum(ep.extra["raw_service_s"] for ep in episodes),
            raw_commit_p50_ms=_episode_median(episodes, 50, raw=True),
            raw_commit_p99_ms=_episode_median(episodes, 99, raw=True),
            pooled_commit_p99_ms=percentile(latency, 99),
            episode_latency_samples=[ep.committed for ep in episodes],
            episode_commit_p50_ms=[percentile(ep.latency_ms, 50) for ep in episodes],
            episode_commit_p99_ms=[percentile(ep.latency_ms, 99) for ep in episodes],
            episode_sim_commit_mean_s=[statistics.fmean(ep.sim_s) for ep in episodes],
            sim_commit_p50_s=percentile(sim, 50),
            sim_commit_p99_s=percentile(sim, 99),
            auditor_findings=_findings(episodes),
            crashed_episodes=[{"seed": sd, "error": err, "honest_valid_lost": n} for sd, err, n in self.crashes],
            uncommitted_honest_valid=attempted - committed_valid,
            pooled_commit_ratio=committed_valid / attempted,
            tips=list(episodes[0].tips),
        )
        return metrics, attempted, attempted - committed_valid

    def _repeat(self, episode) -> list:
        """Episodes until ``seconds`` of drive time are measured (>= MIN_REPEATS)."""
        out, measured = [], 0.0
        while measured < self.seconds or len(out) < MIN_REPEATS:
            out.append(episode())
            measured += out[-1].drive_s
            if out[-1].crash is not None:
                break  # identical episodes: the next one would raise too
        return out

    def _setup_only(self, w) -> float:
        """One more timed set-up of this workload, torn down untimed."""
        if self.workload == "netsim-durable":
            directory = str(self.workdir / "setup-store")
            shutil.rmtree(directory, ignore_errors=True)
            _, seconds = w.timed_setup(lambda: w.netsim_build(self.seed, directory))
            shutil.rmtree(directory, ignore_errors=True)
        elif self.workload == "stream-open":
            _, seconds = w.timed_setup(lambda: w.stream_build(self.seed))
        else:
            (coordinator, _), seconds = w.timed_setup(
                lambda: w.shard_build(self.seed, w.SHARD_WORKERS)
            )
            w.close_coordinator(coordinator, w.shard_workers())
        return seconds

    # -- traced run ---------------------------------------------------------

    def traced(self) -> tuple[dict, int, int]:
        import drivers as w
        from repro.obs import MetricsRegistry
        from tracing import Probes, Tracer, install_layer_probes, retained_by_layer

        seed = self.seed

        def traced_episode(run_episode, registry: bool = True):
            """(episode, tracer, counter deltas, end-of-run facts)."""
            tracer, obs = Tracer(), MetricsRegistry() if registry else None
            seen: dict = {}
            probes = Probes(tracer)

            def inspect(stage, system):
                if stage == "end":
                    # Post-drive reads must not land in the trace.
                    probes.remove()
                    seen["facts"] = end_facts(system)
                seen[stage] = counter_totals(obs)

            with probes:
                install_layer_probes(probes)
                episode = run_episode(tracer, obs, inspect)
            _require_completed(episode)
            deltas = {
                key: value - seen["start"].get(key, 0.0) for key, value in seen["end"].items()
            }
            return episode, tracer, deltas, seen["facts"]

        def memory_pass(run_episode) -> tuple:
            seen: dict = {}

            def inspect(stage, system):
                if stage == "end":
                    seen["mib"] = retained_by_layer(tracemalloc.take_snapshot())

            tracemalloc.start()
            try:
                episode = run_episode(inspect)
            finally:
                tracemalloc.stop()
            _require_completed(episode)
            return episode, seen["mib"]

        if self.workload == "netsim-durable":
            rounds = self.rounds or w.NETSIM_ROUNDS
            wd = str(self.workdir)
            base = w.netsim_episode(seed, wd, rounds)
            _require_completed(base)
            ep, tracer, counts, facts = traced_episode(
                lambda t, o, i: w.netsim_episode(seed, wd, rounds, tracer=t, obs=o, inspect=i)
            )
            mem_ep, mem = memory_pass(lambda i: w.netsim_episode(seed, wd, rounds, inspect=i))
            primary, primary_ep = tracer, ep
            overhead = _tps(ep) / _tps(base)
            self.same_tips("netsim-durable traced", base, ep, mem_ep)
            episodes = [base, ep, mem_ep]
            rounds_run = ep.rounds
        elif self.workload == "stream-open":
            rounds = self.rounds or w.stream_rounds(self.seconds)
            base = w.stream_episode(seed, rounds, paced=False)
            _require_completed(base)
            ep, tracer, counts, facts = traced_episode(
                lambda t, o, i: w.stream_episode(seed, rounds, paced=False, tracer=t, obs=o, inspect=i)
            )
            mem_ep, mem = memory_pass(
                lambda i: w.stream_episode(seed, rounds, paced=False, inspect=i)
            )
            primary, primary_ep = tracer, ep
            overhead = _tps(ep) / _tps(base)
            self.same_tips("stream-open traced", base, ep, mem_ep)
            episodes = [base, ep, mem_ep]
            rounds_run = ep.rounds
        else:
            rounds = self.rounds or w.SHARD_ROUNDS
            # The first sub-seed whose run completes; crashed ones are
            # checked against their serial twin like in the timed run.
            for e in range(w.shard_episodes(self.seconds)):
                sub = w.shard_subseed(seed, e)
                base, base_timing = w.shard_episode(sub, rounds)
                if base.crash is None:
                    break
                self.twins_agree(sub, base, w.shard_episode(sub, rounds, workers=None)[0])
            _require_completed(base)
            seed = sub
            # No registry on the parallel run, as in the timed run (see
            # tracing.install_layer_probes for how its IPC is counted).
            (par, par_timing), par_tracer, par_counts, par_facts = traced_episode(
                lambda t, o, i: w.shard_episode(seed, rounds, tracer=t, obs=o, inspect=i),
                registry=False,
            )
            (ep, ser_timing), tracer, counts, facts = traced_episode(
                lambda t, o, i: w.shard_episode(seed, rounds, workers=None, tracer=t, obs=o, inspect=i)
            )
            (mem_ep, _), mem = memory_pass(
                lambda i: w.shard_episode(seed, rounds, workers=None, inspect=i)
            )
            commit_rounds = ser_timing["commit_rounds"]
            for e, timing in ((base, base_timing), (par, par_timing), (ep, ser_timing)):
                w.shard_latencies(e, timing, commit_rounds)
            self.same_tips("shards-par traced (parallel and serial)", base, par, ep, mem_ep)
            overhead = _tps(par) / _tps(base)
            primary, primary_ep = tracer, ep
            episodes = [base, par, ep, mem_ep]
            rounds_run = tracer.calls("sharding.coordinator")
        self.collect_errors(*episodes)

        committed = primary_ep.committed
        metrics = layer_metrics(tracer, counts, facts, committed, rounds_run)
        if self.workload == "shards-par":
            # The parallel backend and the coordinator are timed on the
            # parallel run (the configuration the timed run measures).
            # Receipt relays are read from the serial run's registry: the
            # coordinator relays the same receipts on both backends.
            par_rounds = par_tracer.calls("sharding.coordinator")
            par_metrics = layer_metrics(par_tracer, par_counts, par_facts, par.committed, par_rounds)
            for name in par_metrics:
                if name.startswith("parallel.") or name in PARALLEL_RUN_METRICS:
                    metrics[name] = par_metrics[name]
            self.detail["parallel_breakdown_ms"] = self.check_breakdown(
                "shards-par parallel trace", par_tracer, par
            )
        for layer, mib in mem.items():
            metrics[f"mem.{layer}.retained_mib"] = mib
        metrics["obs.trace_overhead_ratio"] = overhead

        breakdown = self.check_breakdown(f"{self.workload} trace", primary, primary_ep)
        self.detail.update(
            breakdown_ms=breakdown,
            calls_wall_ms=1e3 * primary_ep.extra["calls_wall_s"],
            traced_committed_tx=committed,
            traced_rounds=rounds_run,
            spans_recorded=len(primary.spans),
            spans_dropped=primary.dropped,
            auditor_findings=_findings(episodes),
            crashed_episodes=[{"seed": sd, "error": err} for sd, err, _ in self.crashes],
        )
        primary.write(WORKDIR / f"spans-{self.workload}-seed{seed}.jsonl")
        attempted = base.offered_valid + sum(offered for _, _, offered in self.crashes)
        return metrics, attempted, attempted - base.committed_valid


def _require_completed(episode) -> None:
    ep = episode[0] if isinstance(episode, tuple) else episode
    if ep.crash is not None:
        raise RuntimeError(f"the system raised: {ep.crash}")


def _episode_median(episodes, q: float, raw: bool = False) -> float:
    """Median over the episodes of each one's ``q``-th latency percentile.

    A burst of host noise inflates the tail of the episode it hits; the
    median keeps one such episode from setting the run's figure.
    """
    return statistics.median(
        percentile(ep.extra["raw_latency_ms"] if raw else ep.latency_ms, q)
        for ep in episodes
    )


def _findings(episodes) -> dict[str, int]:
    out: dict[str, int] = {}
    for ep in episodes:
        for kind, n in ep.findings.items():
            out[kind] = out.get(kind, 0) + n
    return out


def _tps(ep) -> float:
    return ep.committed / ep.service_s


def _breakdown_ms(tracer) -> dict:
    from tracing import layer_breakdown

    return {k: v * 1e3 for k, v in layer_breakdown(tracer).items()}


def counter_totals(obs) -> dict[str, float]:
    """Every counter of a registry, summed over labels, plus labelled series."""
    out: dict[str, float] = {}
    for metric in obs.metrics() if obs is not None else ():
        if metric.kind != "counter":
            continue
        for labels, value in metric.samples():
            out[metric.name] = out.get(metric.name, 0.0) + value
            if labels:
                out[metric.name + "{" + ",".join(labels) + "}"] = value
    return out


def end_facts(system) -> dict:
    """End-of-episode facts read from the live system."""
    facts: dict = {}
    if hasattr(system, "run_super_round"):  # ShardCoordinator
        facts["pending_receipts"] = len(system.auditor.pending())
        governors = (
            [g for e in system.engines for g in e.governors.values()]
            if system.backend.kind == "serial"
            else []
        )
    else:
        governors = list(system.governors.values())
    facts["screened"] = sum(g.metrics.transactions_screened for g in governors)
    facts["unchecked"] = sum(g.metrics.unchecked for g in governors)
    return facts


def layer_metrics(t, c: dict, facts: dict, committed: int, rounds: int) -> dict:
    """Per-layer metrics from one traced episode (see perfbench/README.md)."""

    def ms_tx(*names):
        return 1e3 * t.self_seconds(*names) / committed

    def ms_round(*names):
        return 1e3 * t.self_seconds(*names) / rounds

    get = lambda name: c.get(name, 0.0)  # noqa: E731
    m = {
        "crypto.verify.calls_per_tx": t.calls("crypto.verify") / committed,
        "crypto.verify.self_ms_per_tx": ms_tx("crypto.verify", "crypto.verify_batch"),
        "crypto.verify.cache_hit_ratio": _ratio(
            get("crypto_sig_cache_hits"),
            get("crypto_sig_cache_hits") + get("crypto_sig_cache_misses"),
        ),
        "crypto.encode.calls_per_tx": t.calls("crypto.encode") / committed,
        "crypto.encode.self_ms_per_tx": ms_tx("crypto.encode"),
        "ledger.tx_id.calls_per_tx": t.counts["ledger.tx_id"] / committed,
        "ledger.block_reads_per_tx": t.counts["ledger.block_reads"] / committed,
        "ledger.publish.self_ms_per_tx": ms_tx("ledger.publish"),
        "network.sim_run.self_ms_per_tx": ms_tx("network.sim_run"),
        "network.events_per_tx": t.counts["network.events"] / committed,
        "network.messages_per_tx": get("net_messages_sent_total") / committed,
        "network.broadcast.self_ms_per_tx": ms_tx("network.broadcast"),
        "agents.ingest_upload.self_ms_per_tx": ms_tx("agents.ingest_upload"),
        "agents.screen.self_ms_per_tx": ms_tx("agents.screen"),
        "agents.review_block.self_ms_per_tx": ms_tx("agents.review_block"),
        "agents.review_block.records_per_tx": t.counts["agents.review_records"] / committed,
        "agents.unchecked_ratio": _ratio(facts["unchecked"], facts["screened"]),
        "core.screen_transaction.self_ms_per_tx": ms_tx("core.screen_transaction"),
        "core.reputation_cache_hit_ratio": _ratio(
            get("rep_norm_cache_hits"),
            get("rep_norm_cache_hits") + get("rep_norm_cache_misses"),
        ),
        "core.rewards.self_ms_per_round": ms_round("core.rewards"),
        "audit.observe_upload.self_ms_per_tx": ms_tx("audit.observe_upload"),
        "audit.round.self_ms_per_round": ms_round("audit.round"),
        "storage.publish.self_ms_per_tx": ms_tx("storage.publish"),
        "storage.bytes_per_tx": get("storage_bytes_written_total") / committed,
        "storage.checkpoint.self_ms_per_round": ms_round("storage.checkpoint"),
        "parallel.barrier_wait_ms_per_round": ms_round("parallel.phase"),
        "parallel.ipc_bytes_per_tx": t.counts["parallel.ipc_bytes"] / committed,
        "parallel.ipc_msgs_per_round": t.counts["parallel.ipc_msgs"] / rounds,
        "sharding.coordinator.self_ms_per_round": ms_round("sharding.coordinator"),
        "sharding.relay_retries_per_receipt": _ratio(
            get("shard_receipt_relays_total{retry}"), get("shard_receipt_relays_total{first}")
        ),
        "sharding.pending_receipts_end": float(facts.get("pending_receipts", 0)),
        "streaming.instantiations_per_tx": get("stream_instantiations_total") / committed,
        "streaming.workload.self_ms_per_tx": ms_tx("streaming.workload"),
    }
    from tracing import layer_breakdown

    breakdown = layer_breakdown(t)
    for layer, seconds in breakdown.items():
        if layer == "drive":
            m["trace.drive_ms_per_tx"] = 1e3 * seconds / committed
        else:
            m[f"layer.{layer}.self_ms_per_tx"] = 1e3 * seconds / committed
    return m


def emit(kind: str, metrics: dict, correct: bool, attempted: int, failed: int, detail: dict) -> None:
    """Print the table, the detail line and the result line."""
    declared = declared_metrics()[kind]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        raise RuntimeError(f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}")
    width = max(len(name) for name in declared)
    for name in declared:
        print(f"{name:<{width}}  {metrics[name]:>14.6g}  {declared[name]['unit']}")
    print("detail " + json.dumps(detail, sort_keys=True, default=float))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": declared[name]["unit"]} for name in declared
        },
    }
    print(json.dumps(result), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="drive time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_paths()

    run = Run(args.workload, args.seed, args.seconds, args.rounds)
    try:
        if args.trace:
            metrics, attempted, failed = run.traced()
        else:
            metrics, attempted, failed = run.timed()
    finally:
        run.close()
    correct = not run.errors
    run.detail["errors"] = run.errors
    emit("per_layer" if args.trace else "end_to_end", metrics, correct, attempted, failed, run.detail)
    for error in run.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest perfbench -q

They check the declared metric names against what the runs emit, the
self-time arithmetic of the tracer, the comparator's verdicts, and a
tiny smoke run of every workload in both modes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from compare import verdict  # noqa: E402
from run import WORKLOADS, Run, _children, _import_paths, declared_metrics, stop_children  # noqa: E402
from tracing import LAYERS, Tracer, layer_breakdown  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert spec["command"][1] == "perfbench/run.py"
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in spec["workloads"]]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {f"mem.{layer}.retained_mib" for layer in LAYERS} <= {m["name"] for m in spec["per_layer"]}


class _Clock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_a_nested_span_tree():
    # call.x [0, 10] holds crypto.a [1, 4] (with crypto.b [2, 3]) and
    # ledger.c [5, 9], whose only child network.d covers it exactly.
    tracer = Tracer(clock=_Clock([0, 1, 2, 3, 4, 5, 5, 9, 9, 10]))
    tracer.enter("call.x")
    tracer.enter("crypto.a")
    tracer.enter("crypto.b")
    tracer.exit()
    tracer.exit()
    tracer.enter("ledger.c")
    tracer.enter("network.d")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    own = {name: stat[2] for name, stat in tracer.stats.items()}
    assert own == {"call.x": 3, "crypto.a": 2, "crypto.b": 1, "ledger.c": 0, "network.d": 4}
    assert tracer.top_level == 10
    ids = {span_id: name for span_id, _, name, _, _ in tracer.spans}
    parents = {name: ids.get(parent) for _, parent, name, _, _ in tracer.spans}
    assert parents == {
        "call.x": None, "crypto.a": "call.x", "crypto.b": "crypto.a",
        "ledger.c": "call.x", "network.d": "ledger.c",
    }
    breakdown = layer_breakdown(tracer)
    assert breakdown["crypto"] == 3 and breakdown["ledger"] == 0 and breakdown["network"] == 4
    assert breakdown["unattributed"] == 3 and breakdown["drive"] == 10
    assert sum(v for k, v in breakdown.items() if k != "drive") == breakdown["drive"]


def test_breakdown_is_checked_against_the_call_time():
    # call.run [0, 10] holds crypto.a [2, 5]; a probe then fires outside
    # any driver call, crypto.b [20, 24].
    tracer = Tracer(clock=_Clock([0, 2, 5, 10, 20, 24]))
    tracer.enter("call.run")
    tracer.span("crypto.a", lambda: None)
    tracer.exit()
    run = Run("netsim-durable", 1, 1.0, None)
    try:
        run.check_breakdown("inside calls only", tracer, SimpleNamespace(extra={"calls_wall_s": 10}))
        assert not run.errors
        tracer.span("crypto.b", lambda: None)
        run.check_breakdown("a probe outside the calls", tracer, SimpleNamespace(extra={"calls_wall_s": 10}))
        assert len(run.errors) == 1 and "a probe outside the calls" in run.errors[0]
    finally:
        run.close()


def test_tracer_reset_keeps_probe_references():
    tracer = Tracer()
    counts = tracer.counts
    counts["x"] += 1
    tracer.reset()
    assert tracer.counts is counts and not counts


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [120] * 10, "improved"),
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [100, 101, 99, 100, 102, 98, 100, 101, 99, 100], "unchanged"),
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [80, 81, 79, 80, 82, 78, 80, 81, 79, 80], "worse"),
        ([50, 150, 60, 140, 100, 70, 130, 90, 110, 100], [52, 152, 62, 142, 102, 72, 132, 92, 112, 102], "unresolved"),
        # Every change run beats every parent run, but the medians differ
        # by less than the parent's quartile distance: no gain.
        (list(range(90, 110, 2)), [108.5 + 0.1 * i for i in range(10)], "unchanged"),
    ],
)
def test_comparator_verdicts(parent, change, expected):
    spec = {"better": "higher", "bound": 0.1}
    assert verdict(parent, change, spec)[0] == expected


def test_a_worker_crash_reads_like_the_same_crash_in_process():
    _import_paths()
    from drivers import SystemCrash
    from repro.exceptions import WorkerOpError

    remote = WorkerOpError(1, "run_until", "KeyError", "'c2'")
    assert SystemCrash("run_super_round", remote).signature == (
        SystemCrash("run_super_round", KeyError("c2")).signature
    )
    assert SystemCrash("run_super_round", remote).signature != (
        SystemCrash("run_super_round", KeyError("c3")).signature
    )


def test_a_crash_on_one_backend_only_is_a_divergence():
    crash = SimpleNamespace(
        crash="super-round 5: run_super_round: KeyError: 'c2'",
        crash_at=("super-round 5", "run_super_round", "KeyError", "'c2'"),
        offered_valid=10,
    )
    later = SimpleNamespace(crash="super-round 6: ...", crash_at=("super-round 6", *crash.crash_at[1:]))
    done = SimpleNamespace(crash=None, crash_at=None, offered_valid=10)
    run = Run("shards-par", 1, 1.0, None)
    try:
        assert run.twins_agree(1, done, done)
        assert not run.twins_agree(2, crash, crash) and not run.errors
        assert not run.twins_agree(3, done, crash) and len(run.errors) == 1
        assert not run.twins_agree(4, crash, later) and len(run.errors) == 2
        assert [seed for seed, _, _ in run.crashes] == [2, 4]
    finally:
        run.close()


def test_regret_bound_is_fatal_except_on_stream_open():
    _import_paths()
    from drivers import REPORTED_ONLY, STREAM_REPORTED_ONLY, _safety
    from repro.audit.auditor import ViolationType

    report = SimpleNamespace(safety_violations=lambda: [
        SimpleNamespace(type=ViolationType.REGRET_BOUND, detail="loss over the bound"),
        SimpleNamespace(type=ViolationType.RECEIPT_HALF_APPLIED, detail="pending"),
    ])
    errors, findings = _safety([report], "netsim-durable", REPORTED_ONLY)
    assert len(errors) == 1 and "regret-bound" in errors[0]
    assert findings == {"receipt-half-applied": 1}
    errors, findings = _safety([report], "stream-open", STREAM_REPORTED_ONLY)
    assert not errors and findings == {"regret-bound": 1, "receipt-half-applied": 1}


def test_no_process_outlives_the_run():
    import multiprocessing
    import time

    proc = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(60,))
    proc.start()
    assert proc.pid in _children()
    stop_children()
    assert _children() == []
    assert multiprocessing.active_children() == []


SMOKE_ROUNDS = 10


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = _run([
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
        "--rounds", str(SMOKE_ROUNDS),
    ])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in declared)


def test_refuses_to_run_without_the_system(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(["--workload", "stream-open", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""The repository benchmark: three closed workloads through the public drivers.

Run it through the launcher, from the repository root::

    python3 perfbench/run.py --workload hybrid-matched --seed 42 --seconds 42 --trace 0

Each workload is one seeded simulation run to its horizon, repeated
for ``--seconds``.  Each repeat's times are scaled by a host-speed
probe (``perfbench/probe.py``); the end-to-end times are means over
the repeats (set-up: median).  ``--trace 1`` alternates untraced and
traced repeats and reports per-layer counts and self times (see
``perfbench/layers.py``).
``perfbench/README.md`` documents every metric and workload.

The timed scenarios use the fixed traffic seed ``TRAFFIC_SEED``: with
the paper's heavy-tailed web-search sizes, the work in one 8-cluster
run varies by a factor of two between traffic seeds, far more than a
code change should be judged against.  ``--seed`` seeds a second,
shorter run of the same engine on a fresh traffic draw whose outputs
are checked too, so every change is also exercised on seeds it was not
written against.

Fidelity compares against an all-DES run of the same config.  That
reference is deterministic for a given source tree, so it is computed
once per checkout (``--build-references``, outside every timed region)
and cached under ``.perfbench_cache``, keyed by the sha256 of ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODEL_DIR = HERE / "model"
CACHE_DIR = ROOT / ".perfbench_cache"

#: sha256 of the committed model bundle (see ``model_digest``).
MODEL_SHA256 = "b154fba82d476877ea13c4500547e0d18e6ab45ce1bee7b36eef0956b86b7ff5"
#: Traffic seed of every timed scenario (the seed of the repository's other benchmarks).
TRAFFIC_SEED = 42
#: The seeded check run: 8 clusters, 1 ms, traffic seed ``--seed``.
CHECK_CLUSTERS = 8
CHECK_DURATION_S = 0.001
#: Fewest untraced repeats per run.
MIN_REPEATS = 3
#: The host-speed probe (see ``HostProbe``).
PROBE = HERE / "probe.py"
#: What one probe pass took on the host the bounds were set on (2 vCPUs
#: of a shared Intel Xeon, Python 3.11).  It only sets the unit of the
#: scaled times: a repeat's times are multiplied by this over its probe.
PROBE_REFERENCE_S = 0.4
#: CPUs the benchmark may use, as it was started.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
#: Every simulation must end this long after the run started; one that
#: is still going counts as failed.  The launcher kills the run at 170 s.
DEADLINE_S = 150


def model_digest(directory: Path) -> str:
    """sha256 over the bundle's files, in name order."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def source_digest() -> str:
    """sha256 over every file under ``src/``: the reference cache key."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ks(a: list[float], b: list[float]) -> float:
    from repro.analysis.stats import ks_distance

    if not a or not b:
        raise ValueError("fidelity needs samples on both sides")
    return ks_distance(a, b)


def experiment(clusters: int, duration_s: float, seed: int):
    from repro.core import ExperimentConfig
    from repro.topology.clos import ClosParams

    return ExperimentConfig(
        clos=ClosParams(clusters=clusters), load=0.25, duration_s=duration_s, seed=seed
    )


# ----------------------------------------------------------------------
# One simulation and what it reports
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one driver call returned, reduced to the benchmark's needs."""

    run_s: float
    signature: str
    flows_completed: int
    events: int
    rtts: list[float]
    fcts: list[float]
    model_calls: int = 0
    #: Exact counts read from the driver's result (cascade, shards).
    counts: dict = field(default_factory=dict)
    #: Seconds read from the driver's result (shard stall, CPU, inference).
    seconds: dict = field(default_factory=dict)
    #: Output checks that failed.
    problems: list[str] = field(default_factory=list)


def simulate_des(config) -> Outcome:
    from repro.core import run_full_simulation

    result = run_full_simulation(config).result
    return _packet_outcome(result)


def simulate_hybrid(config) -> Outcome:
    from repro.core import TrainedClusterModel, run_hybrid_simulation
    from repro.core.hybrid import HybridConfig

    trained = TrainedClusterModel.load(MODEL_DIR)
    result, _ = run_hybrid_simulation(
        config, trained, hybrid=HybridConfig(elide_remote_traffic=False)
    )
    return _packet_outcome(result)


def simulate_cascade(config) -> Outcome:
    from repro.cascade import CascadeConfig, run_cascade_simulation
    from repro.core import TrainedClusterModel

    trained = TrainedClusterModel.load(MODEL_DIR)
    cascade, _ = run_cascade_simulation(config, trained, cascade=CascadeConfig())
    summary = cascade.summary
    counts = {
        "cascade.epochs": summary["epochs"],
        "cascade.flows_diverted": summary["flows_diverted"],
        "cascade.promotions": summary["promotions"],
        "cascade.demotions": summary["demotions"],
        "flowsim.flows_admitted": summary["fluid"]["flows_admitted"],
        "flowsim.rate_recomputes": summary["fluid"]["rate_recomputes"],
    }
    outcome = _packet_outcome(cascade.result)
    outcome.signature = sha256(
        json.dumps(
            [cascade.result.determinism_signature(), cascade.fluid_fcts, counts],
            sort_keys=True,
        )
    )
    outcome.flows_completed = cascade.total_flows_completed
    outcome.fcts = cascade.all_fcts
    outcome.counts = counts
    return outcome


def simulate_sharded(config) -> Outcome:
    from repro.core.hybrid import HybridConfig
    from repro.pdes import HybridShardConfig, run_hybrid_sharded
    from repro.pdes.hybrid_shard import ModelRef

    result = run_hybrid_sharded(
        config,
        ModelRef(str(MODEL_DIR)),
        shard=HybridShardConfig(workers=2, worker_timeout_s=DEADLINE_S),
        hybrid=HybridConfig(),
    )
    busiest = max(result.worker_stats, key=lambda s: s.cpu_seconds)
    # The worker whose own clocks account for most of the wall time.
    longest = max(result.worker_stats, key=lambda s: s.cpu_seconds + s.stall_seconds)
    outcome = Outcome(
        run_s=result.wallclock_seconds,
        signature=sha256(result.outcome_signature()),
        flows_completed=result.flows_completed,
        events=result.events_executed,
        rtts=result.rtt_samples,
        fcts=result.fcts,
        model_calls=result.model_packets,
        counts={
            "pdes.windows": result.windows,
            "pdes.exchanges": result.exchanges,
            "pdes.messages": result.messages,
            "pdes.lookahead_violations": result.lookahead_violations,
            "pdes.invariant_violations": result.invariant_violations,
        },
        seconds={
            "pdes.stall_s": result.stall_seconds,
            "pdes.busiest_cpu_s": busiest.cpu_seconds,
            "infer.predict_s": sum(s.inference_seconds for s in result.worker_stats),
            # That worker's CPU plus its waits, and the part of it in
            # named layers (synchronisation stall and inference).
            "accounted_s": longest.cpu_seconds + longest.stall_seconds,
            "attributed_s": longest.stall_seconds + longest.inference_seconds,
        },
    )
    if result.lookahead_violations:
        outcome.problems.append(f"{result.lookahead_violations} lookahead violations")
    if result.invariant_violations:
        outcome.problems.append(f"{result.invariant_violations} invariant violations")
    return outcome


def _packet_outcome(result) -> Outcome:
    return Outcome(
        run_s=result.wallclock_seconds,
        signature=sha256(result.determinism_signature()),
        flows_completed=result.flows_completed,
        events=result.events_executed,
        rtts=list(result.rtt_samples),
        fcts=list(result.fcts),
        model_calls=result.model_packets,
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    clusters: int
    duration_s: float
    simulate: Callable
    #: Set-up ends when shard workers are released, not at the first event.
    sharded: bool = False
    #: Compare DES FCTs of focal-cluster flows only (elided hybrids).
    focal_flows_only: bool = False

    def config(self, seed: int = TRAFFIC_SEED):
        return experiment(self.clusters, self.duration_s, seed)

    def check_config(self, seed: int):
        return experiment(CHECK_CLUSTERS, CHECK_DURATION_S, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hybrid-matched", 8, 0.002, simulate_hybrid),
        Workload("cascade-128", 128, 0.002, simulate_cascade),
        Workload(
            "pdes-hybrid", 8, 0.004, simulate_sharded, sharded=True, focal_flows_only=True
        ),
    )
}


# ----------------------------------------------------------------------
# All-DES references (untimed, cached per source tree)
# ----------------------------------------------------------------------
def reference_path(workload: Workload) -> Path:
    key = sha256(f"{source_digest()}:{workload.config()!r}")
    return CACHE_DIR / f"reference-{key[:24]}.json"


def build_reference(workload: Workload) -> dict:
    """Run the all-DES reference of a workload's timed config."""
    from layers import SetupProbe
    from repro.core import run_full_simulation

    probe = SetupProbe().install()
    try:
        result = run_full_simulation(workload.config()).result
        network, generator = probe.networks[0], probe.generators[0]
    finally:
        probe.restore()
    cluster_of = {node.name: node.cluster for node in network.topology.servers()}
    focal_flows = [
        record.fct
        for record in generator.flows
        if record.fct is not None
        and 0 in (cluster_of[record.src], cluster_of[record.dst])
    ]
    return {
        "signature": sha256(result.determinism_signature()),
        "events": result.events_executed,
        "wallclock_s": result.wallclock_seconds,
        "rtts": list(result.rtt_samples),
        "fcts": list(result.fcts),
        "focal_flow_fcts": focal_flows,
    }


def load_reference(workload: Workload) -> dict:
    path = reference_path(workload)
    if not path.exists():
        raise FileNotFoundError(
            f"no all-DES reference for {workload.name}; "
            "run perfbench/bench.py --build-references first"
        )
    return json.loads(path.read_text())


def ensure_reference(workload: Workload) -> None:
    path = reference_path(workload)
    if path.exists():
        return
    reference = build_reference(workload)
    CACHE_DIR.mkdir(exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(reference))
    partial.replace(path)


def fidelity(workload: Workload, outcome: Outcome, reference: dict) -> dict[str, float]:
    """K-S distances of focal RTTs and FCTs against the all-DES reference."""
    fcts = reference["focal_flow_fcts"] if workload.focal_flows_only else reference["fcts"]
    return {
        "focal_rtt_ks": ks(reference["rtts"], outcome.rtts),
        "fct_ks": ks(fcts, outcome.fcts),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class Repeat:
    outcome: Outcome
    setup_s: float
    cpu_s: float
    probe: object


def rotate_cpu(workload: Workload, index: int) -> Optional[int]:
    """Pin a single-process workload's repeat ``index`` to the next CPU.

    On a shared host each vCPU has fast and slow spells of its own, tens
    of seconds long.  Taking the CPUs in turn makes every run average
    them, instead of reporting the CPU the process happened to start on.
    Sharded workloads stay unpinned: their workers inherit the affinity.
    Returns the CPU pinned, if any.
    """
    if len(CPUS) < 2 or workload.sharded:
        return None
    cpu = CPUS[index % len(CPUS)]
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostProbe:
    """``probe.py --serve`` in a helper process, one pass per request.

    The helper lives for the whole run and is stopped only after
    ``peak_rss_mb`` is read, so its memory never enters the reaped
    children's peak that figure takes for shard workers.
    """

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(PROBE), "--serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def seconds(self, cpu: Optional[int]) -> float:
        """Seconds of one pass on ``cpu``; if None, mean of one per CPU.

        An unpinned repeat is a sharded one, whose workers use every CPU.
        """
        passes = [self._pass(c) for c in ([cpu] if cpu is not None else CPUS or [None])]
        return statistics.fmean(passes)

    def _pass(self, cpu: Optional[int]) -> float:
        if cpu is not None:
            os.sched_setaffinity(self.process.pid, {cpu})
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"host probe exited with code {self.process.wait()}")
        return float(line)

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def cpu_seconds() -> float:
    """CPU of this process plus its reaped children (shard workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def measure(workload: Workload, config, probe, require_progress: bool = True) -> Repeat:
    gc.collect()
    probe.install()
    started = time.perf_counter()
    cpu_started = cpu_seconds()
    try:
        outcome = workload.simulate(config)
    finally:
        probe.restore()
    cpu_s = cpu_seconds() - cpu_started
    setup_end = probe.workers_ready if workload.sharded else probe.run_entry
    if setup_end is None:
        raise RuntimeError("the run never reached its first event")
    if require_progress:
        if outcome.flows_completed <= 0:
            outcome.problems.append("no flow completed")
        if outcome.events <= 0:
            outcome.problems.append("no event executed")
    return Repeat(outcome, setup_end - started, cpu_s, probe)


class Tally:
    """Runs attempted and failed.

    A run fails when it raises, passes the deadline or fails a check.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.deadline = time.monotonic() + DEADLINE_S

    def run(self, label: str, fn: Callable[[], Repeat]) -> Optional[Repeat]:
        self.attempted += 1
        remaining = self.deadline - time.monotonic()
        signal.signal(signal.SIGALRM, _timed_out)
        signal.setitimer(signal.ITIMER_REAL, max(remaining, 0.001))
        try:
            result = fn()
        except Exception as exc:  # a failed run is counted, not fatal
            self.failed += 1
            self.notes.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        problems = result.outcome.problems
        if problems:
            self.failed += 1
            self.notes.append(f"{label}: {'; '.join(problems)}")
        return result

    def mismatch(self, label: str, detail: str) -> None:
        self.failed += 1
        self.notes.append(f"{label}: {detail}")


def _timed_out(signum, frame) -> None:
    raise TimeoutError(f"still running {DEADLINE_S} s after the benchmark started")


def repeat_until(seconds: float, minimum: int, step: Callable[[], float]) -> None:
    """Call ``step`` (returns its wall time) until the budget is spent.

    Stops before a call that would likely overrun the budget, once
    ``minimum`` calls are done.
    """
    started = time.perf_counter()
    slowest, done = 0.0, 0
    while True:
        slowest = max(slowest, step())
        done += 1
        elapsed = time.perf_counter() - started
        if done >= minimum and elapsed + slowest > seconds:
            return


def seed_check(workload: Workload, seed: int, tally: Tally) -> Optional[str]:
    """One run of the engine on traffic seed ``seed``; its signature hash."""
    from layers import SetupProbe

    # A 1 ms draw may complete no flow (in paper mode, not even touch the
    # focal cluster); it must still run and pass the engine's own checks.
    repeat = tally.run(
        f"seed-check {seed}",
        lambda: measure(
            workload, workload.check_config(seed), SetupProbe(), require_progress=False
        ),
    )
    return repeat.outcome.signature if repeat is not None else None


def signatures_agree(repeats: list[Repeat], tally: Tally, label: str) -> None:
    signatures = {r.outcome.signature for r in repeats}
    if len(signatures) > 1:
        tally.mismatch(label, f"{len(signatures)} different signatures across repeats")


def run_untraced(workload: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    from layers import SetupProbe

    reference = load_reference(workload)
    repeats: list[Repeat] = []
    # The seconds of each repeat's probe pass.
    probes: list[float] = []
    host = HostProbe()

    def step() -> float:
        started = time.perf_counter()
        probe_s = host.seconds(rotate_cpu(workload, len(repeats)))
        repeat = tally.run(
            f"repeat {len(repeats) + 1}",
            lambda: measure(workload, workload.config(), SetupProbe()),
        )
        if repeat is not None:
            repeats.append(repeat)
            probes.append(probe_s)
        return time.perf_counter() - started

    try:
        repeat_until(seconds, MIN_REPEATS, step)
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    finally:
        host.close()
    if not repeats:
        raise RuntimeError("every repeat failed")
    signatures_agree(repeats, tally, "repeats")
    first = repeats[0].outcome
    run_s = [r.outcome.run_s for r in repeats]
    cpu_s = [r.cpu_s for r in repeats]
    setup_s = [r.setup_s for r in repeats]

    def scaled(values: list[float]) -> list[float]:
        return [value * PROBE_REFERENCE_S / pass_s for value, pass_s in zip(values, probes)]

    metrics = {
        "run_s": (statistics.fmean(scaled(run_s)), "s"),
        "cpu_s": (statistics.fmean(scaled(cpu_s)), "s"),
        "setup_s": (statistics.median(scaled(setup_s)), "s"),
        "peak_rss_mb": (max(self_rss, child_rss) / 1024.0, "MB"),
    }
    for name, value in fidelity(workload, first, reference).items():
        metrics[name] = (value, "fraction")
    counts = {
        "repeats": len(repeats),
        # The unscaled figures, as the host ran them.
        "wall_run_s": statistics.fmean(run_s),
        "wall_cpu_s": statistics.fmean(cpu_s),
        "wall_setup_s": statistics.median(setup_s),
        "probe_s": statistics.median(probes),
        "des.events": first.events,
        "model.calls": first.model_calls,
        "flows_completed": first.flows_completed,
        **first.counts,
        "signature": first.signature,
    }
    return metrics, counts


def run_traced(workload: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    from layers import KINDS, LayerTrace, SetupProbe

    reference = load_reference(workload)
    untraced: list[Repeat] = []
    traced: list[Repeat] = []
    # The break-even pair compares the hybrid with the all-DES engine
    # timed untraced in this process, alongside the hybrid's own repeats.
    des = replace(workload, simulate=simulate_des)
    des_runs: list[Repeat] = []
    break_even = workload.simulate is simulate_hybrid

    def step() -> float:
        started = time.perf_counter()
        rotate_cpu(workload, len(traced))
        plain = tally.run(
            f"untraced {len(untraced) + 1}",
            lambda: measure(workload, workload.config(), SetupProbe()),
        )
        if plain is not None:
            untraced.append(plain)
        if break_even:
            timed_des = tally.run(
                f"all-DES {len(des_runs) + 1}",
                lambda: measure(des, des.config(), SetupProbe()),
            )
            if timed_des is not None:
                des_runs.append(timed_des)
        probed = tally.run(
            f"traced {len(traced) + 1}",
            lambda: measure(
                workload, workload.config(), LayerTrace(setup_only=workload.sharded)
            ),
        )
        if probed is not None:
            traced.append(probed)
        return time.perf_counter() - started

    repeat_until(seconds, 1, step)
    if not untraced or not traced:
        raise RuntimeError("no traced/untraced pair completed")
    signatures_agree(untraced + traced, tally, "traced vs untraced")

    traces = [r.probe for r in traced]
    counted = [_trace_counts(t, KINDS) for t in traces]
    if any(c != counted[0] for c in counted):
        tally.mismatch("traced repeats", "layer counts differ between traced repeats")

    def self_s(layer: str) -> float:
        return statistics.median([t.self_s.get(layer, 0.0) for t in traces])

    first = traced[0].outcome
    calls = counted[0]["model.calls"]
    untraced_run_s = statistics.fmean([r.outcome.run_s for r in untraced])
    traced_run_s = statistics.fmean([r.outcome.run_s for r in traced])
    model_us = (
        statistics.median([t.inclusive_s.get("model", 0.0) for t in traces]) / calls * 1e6
        if calls
        else 0.0
    )
    infer_calls = counted[0]["infer.calls"] or first.model_calls
    infer_s = self_s("infer") if not workload.sharded else first.seconds["infer.predict_s"]
    events_removed = cost_events = 0.0
    if break_even and calls:
        if not des_runs:
            raise RuntimeError("no all-DES timing run completed")
        if {r.outcome.signature for r in des_runs} != {reference["signature"]}:
            tally.mismatch("all-DES timing", "differs from the all-DES reference")
        # With e seconds per DES event, the hybrid pays off when its run
        # beats the DES run: hybrid_events * e + calls * c < des_events * e,
        # i.e. when c / e, the call's cost in DES events, is below the
        # events it removes.
        events_removed = (reference["events"] - first.events) / calls
        des_s_per_event = (
            statistics.median([r.outcome.run_s for r in des_runs]) / reference["events"]
        )
        cost_events = untraced_run_s / des_s_per_event / calls - first.events / calls
    if workload.sharded:
        accounted = [r.outcome.seconds["accounted_s"] / r.outcome.run_s for r in traced]
        attributed = [r.outcome.seconds["attributed_s"] / r.outcome.run_s for r in traced]
    else:
        accounted = [r.probe.in_run_s / r.outcome.run_s for r in traced]
        attributed = [
            (r.probe.in_run_s - r.probe.self_s.get("des.loop", 0.0)) / r.outcome.run_s
            for r in traced
        ]

    pdes_seconds = {
        name: statistics.median([r.outcome.seconds.get(name, 0.0) for r in traced])
        for name in ("pdes.stall_s", "pdes.busiest_cpu_s")
    }
    metrics: dict[str, tuple[float, str]] = {
        "des.events": (first.events, "count"),
        **{f"des.events.{kind}": (counted[0][f"kind.{kind}"], "count") for kind in KINDS},
        "des.queue_s": (self_s("des.queue"), "s"),
        "des.loop_s": (self_s("des.loop"), "s"),
        "des.ns_per_event": (
            untraced_run_s / first.events * 1e9 if first.events else 0.0,
            "ns",
        ),
        "net.port.enqueues": (counted[0]["net.port.enqueues"], "count"),
        "net.port_s": (self_s("net.port"), "s"),
        "net.port.drops": (counted[0]["net.port.drops"], "count"),
        "net.switch.receives": (counted[0]["net.switch.receives"], "count"),
        "net.switch_s": (self_s("net.switch"), "s"),
        "net.flow_hash.calls": (counted[0]["net.flow_hash.calls"], "count"),
        "net.flow_hash_s": (self_s("net.flow_hash"), "s"),
        "routing.select_s": (self_s("routing.select"), "s"),
        "tcp_s": (self_s("tcp"), "s"),
        "tcp.retransmissions": (counted[0]["tcp.retransmissions"], "count"),
        "tcp.timeouts": (counted[0]["tcp.timeouts"], "count"),
        "traffic.flows_launched": (counted[0]["traffic.flows_launched"], "count"),
        "traffic_s": (self_s("traffic"), "s"),
        "model.calls": (first.model_calls, "count"),
        "model.us_per_call": (model_us, "us"),
        "model.bookkeeping_s": (self_s("model"), "s"),
        "features.extract_s": (self_s("features"), "s"),
        "infer.predict_s": (infer_s, "s"),
        "infer.us_per_call": (infer_s / infer_calls * 1e6 if infer_calls else 0.0, "us"),
        "macro.observe_s": (self_s("macro"), "s"),
        "model.events_removed_per_call": (events_removed, "events"),
        "model.call_cost_events": (cost_events, "events"),
        "flowsim.flows_admitted": (first.counts.get("flowsim.flows_admitted", 0), "count"),
        "flowsim.rate_recomputes": (first.counts.get("flowsim.rate_recomputes", 0), "count"),
        "flowsim_s": (self_s("flowsim"), "s"),
        "cascade.epochs": (first.counts.get("cascade.epochs", 0), "count"),
        "cascade.flows_diverted": (first.counts.get("cascade.flows_diverted", 0), "count"),
        "cascade.promotions": (first.counts.get("cascade.promotions", 0), "count"),
        "cascade.demotions": (first.counts.get("cascade.demotions", 0), "count"),
        "cascade.controller_s": (self_s("cascade.controller"), "s"),
        "cascade.dispatch_s": (self_s("cascade.dispatch"), "s"),
        "setup.topology_s": (self_s("setup.topology"), "s"),
        "setup.routing_s": (self_s("setup.routing"), "s"),
        "setup.network_s": (self_s("setup.network"), "s"),
        "setup.model_s": (self_s("setup.model"), "s"),
        "setup.schedule_s": (self_s("setup.schedule"), "s"),
        "setup.workers_s": (self_s("setup.workers"), "s"),
        "pdes.windows": (first.counts.get("pdes.windows", 0), "count"),
        "pdes.exchanges": (first.counts.get("pdes.exchanges", 0), "count"),
        "pdes.messages": (first.counts.get("pdes.messages", 0), "count"),
        "pdes.stall_s": (pdes_seconds["pdes.stall_s"], "s"),
        "pdes.busiest_cpu_s": (pdes_seconds["pdes.busiest_cpu_s"], "s"),
        "pdes.lookahead_violations": (
            first.counts.get("pdes.lookahead_violations", 0),
            "count",
        ),
        "pdes.invariant_violations": (
            first.counts.get("pdes.invariant_violations", 0),
            "count",
        ),
        "trace.coverage": (statistics.median(accounted), "ratio"),
        "trace.attributed": (statistics.median(attributed), "ratio"),
        "trace.overhead": (traced_run_s / untraced_run_s, "ratio"),
    }
    counts = {
        "untraced_repeats": len(untraced),
        "traced_repeats": len(traced),
        "untraced_run_s": untraced_run_s,
        "traced_run_s": traced_run_s,
        "signature": first.signature,
    }
    return metrics, counts


def _trace_counts(trace, kinds) -> dict[str, int]:
    return {
        **{f"kind.{kind}": trace.event_kinds.get(kind, 0) for kind in kinds},
        **{
            label: trace.calls.get(label, 0)
            for label in (
                "net.port.enqueues",
                "net.switch.receives",
                "net.flow_hash.calls",
                "traffic.flows_launched",
                "model.calls",
                "infer.calls",
            )
        },
        "net.port.drops": trace.port_drops,
        "tcp.retransmissions": trace.retransmissions,
        "tcp.timeouts": trace.timeouts,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def host_info(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "traffic_seed": TRAFFIC_SEED,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=TRAFFIC_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--build-references",
        action="store_true",
        help="compute the workload's cached all-DES reference and exit",
    )
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.build_references:
        ensure_reference(workload)
        return 0

    digest = model_digest(MODEL_DIR)
    if digest != MODEL_SHA256:
        print(
            f"model bundle {MODEL_DIR} has sha256 {digest}, expected {MODEL_SHA256}; "
            "retrain with perfbench/train_model.py and update MODEL_SHA256",
            file=sys.stderr,
        )
        return 2

    # Import every driver before any probe patches, so no module binds
    # a wrapper at import time.
    import repro.cascade  # noqa: F401
    import repro.core  # noqa: F401
    import repro.pdes  # noqa: F401

    print("# host " + json.dumps(host_info(args.seed)), flush=True)
    tally = Tally()
    check_signature = seed_check(workload, args.seed, tally)
    runner = run_traced if args.trace else run_untraced
    metrics, counts = runner(workload, args.seconds, tally)
    counts["seed_check_signature"] = check_signature
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    print("# counts " + json.dumps(counts, sort_keys=True))
    for note in tally.notes:
        print(f"# failed: {note}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

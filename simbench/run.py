#!/usr/bin/env python3
"""The simulator benchmark: four closed-loop workloads, one process each.

Run one workload (end-to-end metrics, untraced)::

    python3 simbench/run.py --workload dirlookup_thread --seed 0 --seconds 20 --trace 0

``--trace 1`` prints the per-layer metrics instead, from traced runs
alternated with untraced ones.  ``--workload all`` runs every workload
both ways and prints every metric.  ``--compare A B`` diffs the exact
counts of two saved outputs; ``--record`` re-pins ``digests.json``.
See ``simbench/README.md`` for the metrics and why each workload exists.

Every run builds its inputs from ``--seed`` through public constructors
only, runs the default engine kernel for a fixed simulated horizon,
and checks a digest of the simulated results.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402
from repro import (DirectoryLookupWorkload, DirWorkloadSpec, Machine,  # noqa: E402
                   MachineSpec, Observability, Simulator)
from repro.obs.bus import EventBus  # noqa: E402
from repro.obs.export import write_jsonl  # noqa: E402
from repro.obs.stream import StreamProfiler  # noqa: E402
from repro.sched import registry  # noqa: E402
from repro.workloads import scenarios  # noqa: E402

from hostspeed import (WARM_UP_CALLS, ScaledClock,  # noqa: E402
                       reference_seconds)
from spans import LayerTime, SpanRecorder  # noqa: E402

if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
    # Another installed copy would be measured instead of this tree.
    raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")

#: Simulated cycles per workload run.  The caches start empty, so the
#: run includes their warm-up; CoreTime's migrations ramp up over the
#: first ~500k cycles.
HORIZON = 1_500_000
#: Events exported between two laps of the clock on the observed
#: workload (about 60 ms of export).
LAP_EVENTS = 4_000
#: Monitoring window for CoreTime (the quick migration-heavy setting).
MONITOR_INTERVAL = 50_000
#: Seeds whose digests ``digests.json`` pins.
PINNED_SEEDS = range(32)
DIGESTS = HERE / "digests.json"
#: Scratch space for recordings and span dumps, inside the checkout.
WORKDIR = ROOT / ".simbench"
#: Untraced runs a ``--trace 0`` measurement makes at least.
MIN_RUNS = 3
#: Set-ups ``setup_s`` is the median of, at least: workloads with long
#: runs are set up again without running until there are this many.
MIN_SETUPS = 10

LINE_ACCESS_COUNTERS = ("l1_hits", "l2_hits", "l3_hits", "remote_hits",
                        "dram_loads")


@dataclass(frozen=True)
class Workload:
    name: str
    #: "dirlookup" (the quick fig4a point) or "pipeline" (the scenario).
    inputs: str
    scheduler: str
    observed: bool
    #: Layers predicted to have the largest self time when traced.
    predicted_top: tuple
    #: Simulated cycles per ``Simulator.run`` call, about 50 ms of host
    #: time.  Host speed is sampled between calls
    #: (:class:`hostspeed.ScaledClock`): shorter slices follow the host's
    #: slow spells more closely, but the reference loop then evicts more
    #: of the simulator's working set.  Results depend on the slices where
    #: idle time matters: the engine charges it at the end of each call,
    #: and CoreTime's monitor reads it.
    slice_cycles: int = 50_000


# Why each workload exists: BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("dirlookup_thread", "dirlookup", "thread", False,
             ("mem.scan",)),
    Workload("dirlookup_coretime", "dirlookup", "coretime", False,
             ("sim", "mem.scan")),
    Workload("pipeline_coretime", "pipeline", "coretime", False,
             ("mem.line",), slice_cycles=250_000),
    Workload("observed_coretime", "dirlookup", "coretime", True,
             ("obs.publish", "obs.export", "obs.stream.ingest",
              "obs.stream.feed", "obs.stream.render")),
)}


# ---------------------------------------------------------------------------
# metric tables (BENCHMARK.json lists the same names, units and directions)
# ---------------------------------------------------------------------------

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "line_accesses_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better, exact).  Exact metrics repeat bit for bit on
#: the same code and seed; ``--compare`` diffs them exactly.
PER_LAYER = {
    "sim.run_s": ("s", "lower", False),
    "sim.self_s": ("s", "lower", False),
    "sim.steps": ("count", "lower", True),
    "sim.migrations": ("count", "lower", True),
    "sim.steps_per_s": ("1/s", "higher", False),
    "mem.scan.calls": ("count", "lower", True),
    "mem.scan.lines": ("count", "lower", True),
    "mem.scan.self_s": ("s", "lower", False),
    "mem.scan.ns_per_line": ("ns", "lower", False),
    "mem.load.calls": ("count", "lower", True),
    "mem.store.calls": ("count", "lower", True),
    "mem.line.self_s": ("s", "lower", False),
    "mem.l1_hits": ("count", "higher", True),
    "mem.l2_hits": ("count", "higher", True),
    "mem.l3_hits": ("count", "higher", True),
    "mem.remote_hits": ("count", "lower", True),
    "mem.dram_loads": ("count", "lower", True),
    "mem.l1_hit_ratio": ("ratio", "higher", True),
    "mem.invalidations": ("count", "lower", True),
    "mem.dram_queued_cycles": ("cycles", "lower", True),
    "sched.ct_start.calls": ("count", "lower", True),
    "sched.ct_end.calls": ("count", "lower", True),
    "sched.on_idle.calls": ("count", "lower", True),
    "sched.self_s": ("s", "lower", False),
    "threads.lock_acquires": ("count", "higher", True),
    "threads.lock_spins": ("count", "lower", True),
    "threads.acquire_ratio": ("ratio", "higher", True),
    "workloads.setup_s": ("s", "lower", False),
    "workloads.items": ("count", "higher", True),
    "workloads.self_s": ("s", "lower", False),
    "obs.events": ("count", "lower", True),
    "obs.events_dropped": ("count", "lower", True),
    "obs.publish.calls": ("count", "lower", True),
    "obs.publish.self_s": ("s", "lower", False),
    "obs.export_s": ("s", "lower", False),
    "obs.export_bytes": ("B", "lower", True),
    "obs.stream.feed_s": ("s", "lower", False),
    "obs.stream.render_s": ("s", "lower", False),
    "sim.ops": ("count", "higher", True),
    "sim.kops_per_sec": ("kops/s", "higher", True),
    "sim.op_latency_p50_cycles": ("cycles", "lower", True),
    "sim.op_latency_p99_cycles": ("cycles", "lower", True),
    "trace.overhead_frac": ("ratio", "lower", False),
}


# ---------------------------------------------------------------------------
# building and instrumenting one run
# ---------------------------------------------------------------------------

def instrument_memory(tracer: SpanRecorder, memory) -> None:
    """Wrap the memory system's entry points.  The engine binds them at
    construction, so this must run before the ``Simulator`` exists."""
    line_size = memory.line_size
    scan = memory.scan
    counts = tracer.counts

    def counted_scan(core_id, addr, nbytes, now, per_line_compute=0):
        if nbytes > 0:
            counts["mem.scan.lines"] += ((addr + nbytes - 1) // line_size
                                         - addr // line_size + 1)
        return scan(core_id, addr, nbytes, now, per_line_compute)

    memory.scan = tracer.wrap("mem.scan", counted_scan)
    memory.load = tracer.wrap("mem.load", memory.load)
    memory.store = tracer.wrap("mem.store", memory.store)


def instrument_scheduler(tracer: SpanRecorder, scheduler) -> None:
    for hook in ("on_ct_start", "on_ct_end", "on_idle"):
        setattr(scheduler, hook,
                tracer.wrap(f"sched.{hook[3:]}", getattr(scheduler, hook)))


def instrument_spawn(tracer: SpanRecorder, sim: Simulator) -> None:
    """Record every resumption of every spawned program generator."""
    spawn = sim.spawn

    def traced_program(program):
        resume = tracer.wrap("workloads.next", program.__next__)
        while True:
            try:
                item = resume()
            except StopIteration:
                return
            yield item

    def traced_spawn(program, *args, **kwargs):
        return spawn(traced_program(program), *args, **kwargs)

    sim.spawn = traced_spawn


def instrument_bus(tracer: SpanRecorder, obs: Observability) -> None:
    """Record ``EventBus.publish``.  The bus has ``__slots__``, so the
    instance moves to a slot-compatible subclass instead."""
    traced = type("TracedEventBus", (EventBus,), {
        "__slots__": (),
        "publish": tracer.wrap("obs.publish", EventBus.publish)})
    obs.bus.__class__ = traced


def _span(tracer: Optional[SpanRecorder], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def build(workload: Workload, seed: int,
          tracer: Optional[SpanRecorder] = None):
    """Machine, scheduler, simulator and workload with threads spawned
    (the order the bench harness uses).  Returns ``(sim, obs)``."""
    if workload.inputs == "dirlookup":
        machine = Machine(MachineSpec.scaled(8))
    else:
        machine = Machine(MachineSpec.tiny())
    if workload.scheduler == "thread":
        scheduler = registry.create("thread")
    else:
        scheduler = registry.coretime_factory(
            monitor_interval=MONITOR_INTERVAL)()
    obs = Observability(events=True) if workload.observed else None
    if tracer is not None:
        instrument_memory(tracer, machine.memory)
        instrument_scheduler(tracer, scheduler)
        if obs is not None:
            instrument_bus(tracer, obs)
    sim = Simulator(machine, scheduler, obs=obs)
    with _span(tracer, "workloads.setup"):
        if workload.inputs == "dirlookup":
            inputs = DirectoryLookupWorkload(machine, DirWorkloadSpec.scaled(
                8, n_dirs=160, popularity="uniform", seed=seed))
        else:
            inputs = scenarios.build(
                machine, scenarios.ScenarioSpec(name="pipeline", seed=seed))
    if tracer is not None:
        instrument_spawn(tracer, sim)
    inputs.spawn_all(sim)
    return sim, obs


# ---------------------------------------------------------------------------
# one run of a workload
# ---------------------------------------------------------------------------

@dataclass
class Run:
    #: Scaled host seconds (:class:`hostspeed.ScaledClock`).
    setup_s: float
    sim_s: float
    wall_s: float
    #: Exact simulated results; :func:`digest` hashes them.
    exact: Dict[str, object]
    export_bytes: int = 0
    events_dropped: int = 0
    #: Threads left mid-way through a contended acquire at the horizon.
    spinning_at_end: int = 0
    #: Traced runs only: the recorder (kept for the last traced run of
    #: a measurement, to be written out), its per-span summary and the
    #: lines the scans covered.
    spans: Optional[SpanRecorder] = None
    layers: Dict[str, LayerTime] = field(default_factory=dict)
    scan_lines: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def line_accesses(self) -> int:
        counters = self.exact["counters"]
        return sum(counters[name] for name in LINE_ACCESS_COUNTERS)

    @property
    def digest(self) -> str:
        return digest(self.exact)


def digest(exact: Dict[str, object]) -> str:
    text = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def lapping(events, clock: ScaledClock, tracer: Optional[SpanRecorder]):
    """Yield ``events`` with a clock lap after every :data:`LAP_EVENTS`
    of them.  A traced run records each lap as a span of its own, so the
    reference loop is no part of the enclosing span's self time."""
    for index, event in enumerate(events, 1):
        yield event
        if index % LAP_EVENTS == 0:
            with _span(tracer, "hostspeed.lap"):
                clock.lap()


def run_once(workload: Workload, seed: int, traced: bool = False,
             horizon: Optional[int] = None) -> Run:
    """Set up, simulate ``horizon`` cycles (default :data:`HORIZON`) in
    slices of ``workload.slice_cycles`` and, on the observed workload,
    export and stream-profile the recording.  Times are scaled host
    seconds, from a :class:`hostspeed.ScaledClock` lap after each of
    these steps (and within the export)."""
    tracer = SpanRecorder() if traced else None
    clock = ScaledClock()
    sim, obs = build(workload, seed, tracer)
    setup_s = clock.lap()
    horizon = horizon or HORIZON
    step = workload.slice_cycles
    for until in [*range(step, horizon, step), horizon]:
        with _span(tracer, "sim.run"):
            result = sim.run(until=until)
        clock.lap()
    sim_s = clock.total - setup_s
    exact: Dict[str, object] = {
        "counters": result.counters, "ops": result.ops,
        "migrations": result.migrations, "steps": result.steps,
        "dram_queued_cycles": result.dram_queued_cycles,
        "kops_per_sec": result.kops_per_sec}
    run = Run(setup_s=setup_s, sim_s=sim_s, wall_s=0.0, exact=exact,
              spans=tracer,
              spinning_at_end=sum(t.spinning for t in sim.threads))
    if obs is not None:
        WORKDIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
            path = os.path.join(tmp, "events.jsonl.gz")
            with _span(tracer, "obs.export"):
                write_jsonl(path, lapping(obs.events(), clock, tracer))
            clock.lap()
            run.export_bytes = os.path.getsize(path)
            profiler = StreamProfiler()
            if tracer is not None:
                profiler.feed = tracer.wrap("obs.stream.feed", profiler.feed)
            with _span(tracer, "obs.stream.ingest"):
                profiler.feed_path(path)
            clock.lap()
            with _span(tracer, "obs.stream.render"):
                report = profiler.render()
        run.events_dropped = obs.log.dropped
        exact["events"] = len(obs.log.events) + obs.log.dropped
        exact["report_sha256"] = hashlib.sha256(report.encode()).hexdigest()
        exact["op_latency_p50_cycles"] = result.op_latency.percentile(0.50)
        exact["op_latency_p99_cycles"] = result.op_latency.percentile(0.99)
        if run.events_dropped:
            run.problems.append(f"{run.events_dropped} events dropped")
    clock.lap()
    run.wall_s = clock.total
    if tracer is not None:
        run.layers = tracer.summary()
        run.scan_lines = tracer.counts["mem.scan.lines"]
        run.problems.extend(cross_check(run))
    return run


def cross_check(run: Run) -> List[str]:
    """Identities between layers' independent accounting, traced runs
    only: every line access is one scanned line or one load/store call,
    and every step resumes a program or retries a contended acquire (the
    first failed attempt of an acquire is both, unless it is still
    spinning at the horizon)."""
    calls = {name: layer.calls for name, layer in run.layers.items()}
    problems = []
    lines = (run.scan_lines + calls.get("mem.load", 0)
             + calls.get("mem.store", 0))
    if lines != run.line_accesses:
        problems.append(f"line accesses {run.line_accesses} != scanned "
                        f"lines + loads + stores {lines}")
    steps = (calls.get("workloads.next", 0)
             + run.exact["counters"]["lock_spins"] - run.spinning_at_end)
    if steps != run.exact["steps"]:
        problems.append(f"steps {run.exact['steps']} != program items + "
                        f"lock spins - still spinning {steps}")
    return problems


# ---------------------------------------------------------------------------
# measurement loop and metrics
# ---------------------------------------------------------------------------

def pinned_digest(workload: str, seed: int) -> Optional[str]:
    with open(DIGESTS) as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


@dataclass
class Measurement:
    untraced: List[Run] = field(default_factory=list)
    traced: List[Run] = field(default_factory=list)
    #: Host seconds of every untraced set-up, run or set-up only.
    setups: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def measure(workload: Workload, seed: int, seconds: float,
            trace: bool) -> Measurement:
    """Repeat runs until ``seconds`` is spent (at least :data:`MIN_RUNS`
    untraced runs, or one untraced/traced pair with ``trace``), then
    top set-ups up to :data:`MIN_SETUPS` without ``trace``.

    A run fails if it raises, drops events, breaks a cross-check, or its
    digest differs from the pinned one for this seed (from the first
    run's when no digest is pinned)."""
    try:
        # Warm lazy imports and first-call paths outside the measurement.
        run_once(workload, seed, horizon=HORIZON // 30)
    except Exception:
        pass   # the measured runs raise again and count as failed
    for _ in range(WARM_UP_CALLS):
        reference_seconds()
    gc.collect()
    expected = pinned_digest(workload.name, seed)
    out = Measurement()
    start = time.perf_counter()
    kinds = (False, True) if trace else (False,)
    while True:
        for traced in kinds:
            out.attempted += 1
            try:
                run = run_once(workload, seed, traced=traced)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out.failed += 1
                continue
            if expected is None:
                expected = run.digest
            if run.digest != expected:
                run.problems.append(f"digest {run.digest[:16]} != "
                                    f"expected {expected[:16]}")
            if run.problems:
                out.failed += 1
                print(f"failed run: {'; '.join(run.problems)}",
                      file=sys.stderr)
            if traced:
                if out.traced:
                    out.traced[-1].spans = None   # keep one recorder
                out.traced.append(run)
            else:
                out.untraced.append(run)
                out.setups.append(run.setup_s)
            gc.collect()
        elapsed = time.perf_counter() - start
        cycles = max(1, out.attempted // len(kinds))
        if (trace or cycles >= MIN_RUNS) \
                and elapsed + elapsed / cycles > seconds:
            break
    while out.untraced and not trace and len(out.setups) < MIN_SETUPS:
        clock = ScaledClock()
        build(workload, seed)
        out.setups.append(clock.lap())
        gc.collect()
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(m: Measurement) -> Dict[str, float]:
    runs = m.untraced
    return {
        "setup_s": _median(m.setups),
        "wall_s": _median([r.wall_s for r in runs]),
        "line_accesses_per_s": _median(
            [r.line_accesses / r.sim_s for r in runs]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


#: Layer -> the spans whose self time it sums.  ``<layer>.self_s`` and
#: the top-layer verdict both read these sums.
LAYERS = {
    "sim": ("sim.run",),
    "mem.scan": ("mem.scan",),
    "mem.line": ("mem.load", "mem.store"),
    "sched": ("sched.ct_start", "sched.ct_end", "sched.on_idle"),
    "workloads": ("workloads.next",),
    "obs.publish": ("obs.publish",),
    "obs.export": ("obs.export",),
    "obs.stream.ingest": ("obs.stream.ingest",),
    "obs.stream.feed": ("obs.stream.feed",),
    "obs.stream.render": ("obs.stream.render",),
}


def median_self_s(m: Measurement) -> Dict[str, float]:
    """Median over the traced runs of each layer's self seconds."""
    return {layer: _median([sum(r.layers[n].self_ns for n in names
                                if n in r.layers) for r in m.traced]) / 1e9
            for layer, names in LAYERS.items()}


def per_layer_metrics(m: Measurement) -> Dict[str, float]:
    """Counts from the last traced run (all runs agree on them, or they
    failed); host times are medians over the traced runs."""
    run = m.traced[-1]
    layers = run.layers
    exact = run.exact
    counters = exact["counters"]
    self_s = median_self_s(m)

    def calls(name):
        return layers[name].calls if name in layers else 0

    def total_s(name):
        return _median([r.layers[name].total_ns for r in m.traced]) / 1e9

    scan_lines = run.scan_lines
    acquires, spins = counters["lock_acquires"], counters["lock_spins"]
    return {
        "sim.run_s": total_s("sim.run"),
        "sim.self_s": self_s["sim"],
        "sim.steps": exact["steps"],
        "sim.migrations": exact["migrations"],
        "sim.steps_per_s":
            exact["steps"] / _median([r.sim_s for r in m.untraced]),
        "mem.scan.calls": calls("mem.scan"),
        "mem.scan.lines": scan_lines,
        "mem.scan.self_s": self_s["mem.scan"],
        "mem.scan.ns_per_line":
            self_s["mem.scan"] * 1e9 / max(1, scan_lines),
        "mem.load.calls": calls("mem.load"),
        "mem.store.calls": calls("mem.store"),
        "mem.line.self_s": self_s["mem.line"],
        **{f"mem.{name}": counters[name] for name in LINE_ACCESS_COUNTERS},
        "mem.l1_hit_ratio": counters["l1_hits"] / run.line_accesses,
        "mem.invalidations": counters["invalidations"],
        "mem.dram_queued_cycles": exact["dram_queued_cycles"],
        "sched.ct_start.calls": calls("sched.ct_start"),
        "sched.ct_end.calls": calls("sched.ct_end"),
        "sched.on_idle.calls": calls("sched.on_idle"),
        "sched.self_s": self_s["sched"],
        "threads.lock_acquires": acquires,
        "threads.lock_spins": spins,
        "threads.acquire_ratio": acquires / max(1, acquires + spins),
        "workloads.setup_s": total_s("workloads.setup"),
        "workloads.items": calls("workloads.next"),
        "workloads.self_s": self_s["workloads"],
        "obs.events": exact.get("events", 0),
        "obs.events_dropped": run.events_dropped,
        "obs.publish.calls": calls("obs.publish"),
        "obs.publish.self_s": self_s["obs.publish"],
        # These spans have no child spans: self time is their duration.
        "obs.export_s": self_s["obs.export"],
        "obs.export_bytes": run.export_bytes,
        "obs.stream.feed_s": self_s["obs.stream.feed"],
        "obs.stream.render_s": self_s["obs.stream.render"],
        "sim.ops": exact["ops"],
        "sim.kops_per_sec": exact["kops_per_sec"],
        "sim.op_latency_p50_cycles": exact.get("op_latency_p50_cycles", 0),
        "sim.op_latency_p99_cycles": exact.get("op_latency_p99_cycles", 0),
        "trace.overhead_frac":
            _median([r.wall_s for r in m.traced])
            / _median([r.wall_s for r in m.untraced]) - 1,
    }


def top_layer_line(workload: Workload, m: Measurement) -> str:
    self_s = median_self_s(m)
    top = max(self_s, key=self_s.get)
    verdict = ("matches" if top in workload.predicted_top
               else "DOES NOT MATCH")
    ranked = ", ".join(f"{name} {value:.3f}s" for name, value in
                       sorted(self_s.items(), key=lambda kv: -kv[1])
                       if value > 0)
    return (f"top layer by self time: {top} ({verdict} the prediction "
            f"{'/'.join(workload.predicted_top)}); {ranked}")


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def result_object(m: Measurement, metrics: Dict[str, float],
                  units: Dict[str, str]) -> dict:
    return {"correct": m.failed == 0 and m.attempted > 0,
            "attempted": m.attempted, "failed": m.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def print_table(title: str, metrics: Dict[str, float],
                units: Dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else f"{value}"
        print(f"  {name:<28} {shown:>16} {units[name]}")


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    m = measure(workload, seed, seconds, trace)
    label = f"{workload.name} seed={seed} trace={int(trace)}"
    if trace and m.traced and m.untraced:
        metrics = per_layer_metrics(m)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        print_table(f"{label}: per-layer (traced)", metrics, units)
        print(top_layer_line(workload, m))
        WORKDIR.mkdir(exist_ok=True)
        path = m.traced[-1].spans.write(
            str(WORKDIR / f"{workload.name}.spans"))
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    elif not trace and m.untraced:
        metrics = end_to_end_metrics(m)
        units = {name: spec[0] for name, spec in END_TO_END.items()}
        print_table(f"{label}: end to end (untraced, median of "
                    f"{len(m.untraced)} runs, scaled host seconds)",
                    metrics, units)
    else:
        metrics, units = {}, {}
    print("simulated results are unvalidated against real hardware; "
          "no error figure is given")
    return result_object(m, metrics, units)


def compare(path_a: str, path_b: str) -> int:
    """Diff the exact metrics of two saved outputs (last line of each)."""
    def load(path):
        with open(path) as handle:
            return json.loads(handle.read().strip().splitlines()[-1])

    a, b = load(path_a)["metrics"], load(path_b)["metrics"]
    exact = [name for name, spec in PER_LAYER.items() if spec[2]]
    diffs = [(name, a[name]["value"], b[name]["value"]) for name in exact
             if name in a and name in b
             and a[name]["value"] != b[name]["value"]]
    for name, left, right in diffs:
        print(f"{name}: {left} != {right}")
    shared = sum(1 for name in exact if name in a and name in b)
    print(f"{len(diffs)} of {shared} exact metrics differ")
    return 1 if diffs else 0


def record() -> int:
    """Re-pin the digests of every workload for :data:`PINNED_SEEDS`."""
    pinned = {}
    for name, workload in WORKLOADS.items():
        pinned[name] = {}
        for seed in PINNED_SEEDS:
            pinned[name][str(seed)] = run_once(workload, seed).digest
            print(f"{name} seed {seed}: {pinned[name][str(seed)][:16]}",
                  flush=True)
    with open(DIGESTS, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            result = run_workload(workload, args.seed, args.seconds, trace)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Simulator performance kernels and the benchmark-regression gate.

``python -m repro.bench perf`` times three representative workload
kernels — the Figure 2 residency workload, a Figure 4(a) sweep point,
and a migration-heavy CoreTime run — measuring **only** the simulation
loop (workload/image construction is excluded), and writes the results
to ``BENCH_simulator.json``.

Raw wall-clock numbers are useless across machines, so a pure-Python
*calibration burst* exercising the same interpreter operations the
simulator leans on (ordered-dict inserts/evictions, holder-set
mutation) runs adjacent to every timed repeat, and each repeat is
normalized by its own burst — pairing them cancels machine-load drift
within a run.  Kernel throughput is reported both raw (steps/second)
and *normalized* — steps per second divided by the paired calibration
score — and the CI gate (``--check``) compares normalized
throughput against the committed baseline with a symmetric tolerance
band: a drop beyond it fails the build, a gain beyond it warns that the
baseline is stale.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import summarise
from repro.bench.harness import SCHEDULERS, coretime_factory
from repro.cpu.machine import Machine
from repro.cpu.topology import MachineSpec
from repro.sim.engine import Simulator
from repro.workloads.dirlookup import DirectoryLookupWorkload, DirWorkloadSpec

#: Schema version of BENCH_simulator.json.  3: kernel entries are keyed
#: by plain workload name (the simulator has one run loop).
SCHEMA = 3

#: Default repeats per kernel (first repeat is discarded as warm-up
#: unless it is the only one).
DEFAULT_REPEATS = 5

#: Relative tolerance of the regression gate: normalized throughput may
#: drift this far from the committed baseline before CI reacts.
DEFAULT_TOLERANCE = 0.20

#: Iterations of the calibration burst.
_CALIBRATION_N = 300_000


# ---------------------------------------------------------------------------
# kernels: build (untimed) -> run (timed)
# ---------------------------------------------------------------------------

def _fig2_setup() -> Tuple[Simulator, int]:
    """The Figure 2 machine/workload (quick profile geometry)."""
    spec = MachineSpec(
        name="fig2-4core", n_chips=1, cores_per_chip=4,
        l1_bytes=2048, l2_bytes=12 * 1024, l3_bytes=32 * 1024,
        migration_cost=250)
    machine = Machine(spec)
    simulator = Simulator(machine, SCHEDULERS["thread"]())
    workload_spec = DirWorkloadSpec(
        n_dirs=20, files_per_dir=128, cluster_bytes=512,
        think_cycles=12, threads_per_core=4, seed=42)
    DirectoryLookupWorkload(machine, workload_spec).spawn_all(simulator)
    return simulator, 3_000_000


def _fig4a_setup() -> Tuple[Simulator, int]:
    """One Figure 4(a) sweep point (quick profile, thread scheduler)."""
    from repro.bench.figures import BENCH_SCALE
    machine = Machine(MachineSpec.scaled(BENCH_SCALE))
    simulator = Simulator(machine, SCHEDULERS["thread"]())
    workload_spec = DirWorkloadSpec.scaled(BENCH_SCALE, n_dirs=160)
    DirectoryLookupWorkload(machine, workload_spec).spawn_all(simulator)
    return simulator, 1_500_000


def _migration_setup() -> Tuple[Simulator, int]:
    """The same sweep point under CoreTime (migration-heavy path)."""
    from repro.bench.figures import BENCH_SCALE
    machine = Machine(MachineSpec.scaled(BENCH_SCALE))
    simulator = Simulator(
        machine, coretime_factory(monitor_interval=50_000)())
    workload_spec = DirWorkloadSpec.scaled(BENCH_SCALE, n_dirs=160)
    DirectoryLookupWorkload(machine, workload_spec).spawn_all(simulator)
    return simulator, 1_500_000


KERNELS: Dict[str, Callable[[], Tuple[Simulator, int]]] = {
    "fig2": _fig2_setup,
    "fig4a": _fig4a_setup,
    "migration": _migration_setup,
}


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def _calibration_burst(n: int = _CALIBRATION_N) -> int:
    """Fixed interpreter work shaped like the simulator's hot path."""
    lines: "OrderedDict[int, None]" = OrderedDict()
    holders: Dict[int, set] = {}
    total = 0
    for i in range(n):
        key = i & 1023
        if key in lines:
            lines.move_to_end(key)
        else:
            lines[key] = None
            if len(lines) > 512:
                victim = lines.popitem(last=False)[0]
                total += victim
        bucket = holders.get(i & 511)
        if bucket is None:
            holders[i & 511] = {i & 255}
        else:
            bucket.add(i & 255)
    return total + len(lines) + len(holders)


def calibrate(repeats: int = 3) -> float:
    """Calibration score: burst iterations per second (best of repeats)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        _calibration_burst()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return _CALIBRATION_N / best


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted samples."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1 - fraction) + sorted_values[high] * fraction


def _stats_dict(values: List[float]) -> Dict[str, float]:
    stats = summarise(values)
    ordered = sorted(values)
    return {
        "n": stats.n,
        "mean": stats.mean,
        "stdev": stats.stdev,
        "min": stats.minimum,
        "max": stats.maximum,
        "p50": _percentile(ordered, 0.50),
        "p95": _percentile(ordered, 0.95),
    }


def run_kernel(name: str, repeats: int = DEFAULT_REPEATS) -> Dict:
    """Time one kernel ``repeats`` times; returns raw samples + stats.

    Each repeat builds a fresh simulator (untimed) and times only
    ``Simulator.run``.  The first repeat is discarded as interpreter
    warm-up when more than one was requested.

    A calibration burst runs *adjacent to every repeat* and each
    repeat is normalized by its own burst: machine load drifts on the
    scale of whole perf runs, so one calibration at process start can
    sample a quiet (or busy) instant and skew every kernel measured
    minutes later.  Pairing them cancels the drift; the per-kernel
    ``normalized_throughput`` is the *median* paired ratio — a max
    would reward repeats whose burst happened to land on a busy
    instant (slow burst inflates the ratio), which is exactly the
    noise the pairing is meant to cancel.
    """
    setup = KERNELS[name]
    samples: List[float] = []
    scores: List[float] = []
    steps = 0
    for _ in range(repeats + (1 if repeats > 1 else 0)):
        started = time.perf_counter()
        _calibration_burst()
        scores.append(_CALIBRATION_N / (time.perf_counter() - started))
        simulator, until = setup()
        started = time.perf_counter()
        simulator.run(until=until)
        elapsed = time.perf_counter() - started
        steps = simulator.total_steps
        samples.append(elapsed)
    if len(samples) > 1:
        samples = samples[1:]
        scores = scores[1:]
    throughput = [steps / s for s in samples]
    return {
        "steps": steps,
        "wall_seconds": _stats_dict(samples),
        "steps_per_sec": _stats_dict(throughput),
        "calibration": _stats_dict(scores),
        "normalized_throughput": _percentile(
            sorted(t / s for t, s in zip(throughput, scores)), 0.50),
    }


def run_perf(repeats: int = DEFAULT_REPEATS,
             kernels: Optional[Sequence[str]] = None) -> Dict:
    """Run the calibration burst plus every requested kernel."""
    names = list(kernels) if kernels else list(KERNELS)
    score = calibrate()
    report: Dict = {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "calibration_score": score,
        "kernels": {},
    }
    for name in names:
        report["kernels"][name] = run_kernel(name, repeats)
    return report


# ---------------------------------------------------------------------------
# regression gate
# ---------------------------------------------------------------------------

def compare(current: Dict, baseline: Dict,
            tolerance: float = DEFAULT_TOLERANCE) -> Tuple[List[str],
                                                           List[str]]:
    """Compare normalized throughput against a committed baseline.

    Returns ``(regressions, improvements)`` message lists.  Only kernels
    present in both reports are compared; a kernel missing from the
    current run counts as a regression (the gate must not silently pass
    because a kernel stopped running).
    """
    regressions: List[str] = []
    improvements: List[str] = []
    for name, base in baseline.get("kernels", {}).items():
        base_norm = base.get("normalized_throughput")
        if base_norm is None:
            continue
        now = current.get("kernels", {}).get(name)
        if now is None:
            regressions.append(f"{name}: kernel missing from current run")
            continue
        ratio = now["normalized_throughput"] / base_norm
        line = (f"{name}: normalized throughput {ratio:.3f}x of baseline "
                f"({now['normalized_throughput']:.3f} vs {base_norm:.3f})")
        if ratio < 1.0 - tolerance:
            regressions.append(line)
        elif ratio > 1.0 + tolerance:
            improvements.append(line)
    return regressions, improvements


def format_report(report: Dict) -> str:
    lines = [
        "simulator perf kernels "
        f"(python {report['python']}, {report['repeats']} repeats, "
        f"calibration score {report['calibration_score']:,.0f}/s)",
    ]
    for name, kernel in report["kernels"].items():
        sps = kernel["steps_per_sec"]
        lines.append(
            f"  {name:<10} {sps['p50']:>12,.0f} steps/s p50 "
            f"(p95 {sps['p95']:,.0f}, mean {sps['mean']:,.0f}) "
            f"normalized {kernel['normalized_throughput']:.3f}")
    return "\n".join(lines)


def main_perf(args) -> int:
    """Back end of ``python -m repro.bench perf``."""
    kernels = args.kernels.split(",") if args.kernels else None
    if kernels:
        unknown = [k for k in kernels if k not in KERNELS]
        if unknown:
            print(f"unknown kernels: {', '.join(unknown)} "
                  f"(choose from {', '.join(KERNELS)})", file=sys.stderr)
            return 2
    report = run_perf(repeats=args.repeats, kernels=kernels)
    print(format_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"perf report -> {args.out}")
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as stream:
            baseline = json.load(stream)
        regressions, improvements = compare(report, baseline,
                                            tolerance=args.tolerance)
        for line in improvements:
            print(f"IMPROVEMENT (refresh the baseline?): {line}")
        for line in regressions:
            print(f"REGRESSION: {line}", file=sys.stderr)
        if args.check and regressions:
            return 1
    return 0

"""Shared test helpers (importable from any test module)."""

from __future__ import annotations

from repro.cpu.topology import MachineSpec


def tiny_spec(**overrides) -> MachineSpec:
    """The shared small-machine preset (see :meth:`MachineSpec.tiny`).

    Thin wrapper kept for import stability: the actual defaults live on
    the preset so the fuzzer (:mod:`repro.verify.fuzz`) and the test
    suite build identical machines.
    """
    return MachineSpec.tiny(**overrides)


# ---------------------------------------------------------------------------
# list-based oracles for the streaming analysis: each holds whole runs in
# memory, the way repro-analyze's diff and timeline once did, so the
# constant-memory versions are checked against code that shares none of
# their folds.
# ---------------------------------------------------------------------------

def split_runs(events):
    """``(label, event list)`` per run: the stream cut at each
    ``RunMarker``, events before the first one labelled ``run``."""
    from repro.obs.events import RunMarker

    runs = []
    for event in events:
        if type(event) is RunMarker:
            runs.append((event.label, []))
            continue
        if not runs:
            runs.append(("run", []))
        runs[-1][1].append(event)
    return runs


def diff_by_lists(baseline, candidate):
    """The rows ``repro-analyze diff`` prints for two event lists (their
    markers ignored), from per-operation sample lists."""
    from repro.analysis import summarise
    from repro.obs.events import (CacheEvicted, CacheInvalidated,
                                  LockContended, MigrationStarted,
                                  OperationFinished)
    from repro.obs.profile import MetricDelta

    def summary(events):
        samples = [[], [], [], [], []]
        counts = dict.fromkeys(
            ("ops", "migrations", "migration cycles",
             "contended lock acquires", "L3 evictions",
             "invalidated copies", "horizon (cycles)"), 0)
        for event in events:
            etype, ts = type(event), event.ts
            if etype is OperationFinished:
                counts["ops"] += 1
                samples[0].append(event.cycles)
                if event.dram is not None:
                    for sample, value in zip(samples[1:], (
                            event.dram, event.remote, event.mem_stall,
                            event.spin)):
                        sample.append(value)
            elif etype is MigrationStarted:
                counts["migrations"] += 1
                counts["migration cycles"] += event.arrive_ts - event.ts
                ts = max(ts, event.arrive_ts)
            elif etype is LockContended:
                counts["contended lock acquires"] += 1
            elif etype is CacheEvicted:
                counts["L3 evictions"] += 1
            elif etype is CacheInvalidated:
                counts["invalidated copies"] += event.copies
            counts["horizon (cycles)"] = max(counts["horizon (cycles)"], ts)
        return samples, counts

    base_samples, base_counts = summary(split_events(baseline))
    cand_samples, cand_counts = summary(split_events(candidate))
    deltas = []
    for name, base, cand in zip(
            ("op latency (cycles/op)", "dram loads/op", "remote hits/op",
             "mem-stall (cycles/op)", "lock-spin (cycles/op)"),
            base_samples, cand_samples):
        if base and cand:
            deltas.append(MetricDelta(name, summarise(base),
                                      summarise(cand)))
    for name, value in base_counts.items():
        if value or cand_counts[name]:
            deltas.append(MetricDelta(name, None, None, float(value),
                                      float(cand_counts[name])))
    return deltas


def split_events(events):
    """``events`` without their run markers, in stream order."""
    return [event for _, run in split_runs(events) for event in run]


def timeline_by_lists(events, n_cores=None, width=72):
    """One run's ops/bucket strip from lists of its operations and
    departures."""
    from repro.obs.events import MigrationStarted, OperationFinished

    ramp = " .:-=+*#@"
    ops = [e for e in events if type(e) is OperationFinished]
    migrations = [e for e in events if type(e) is MigrationStarted]
    if not ops and not migrations:
        return "(no operations recorded)"
    horizon = max(e.ts for e in ops + migrations)
    if n_cores is None:
        n_cores = 1 + max(e.core for e in ops + migrations)
    width = max(8, width)
    bucket = max(1, -(-horizon // width))
    op_counts = [[0] * width for _ in range(n_cores)]
    migrated = [[False] * width for _ in range(n_cores)]
    for event in ops:
        if event.core < n_cores:
            op_counts[event.core][min(width - 1, event.ts // bucket)] += 1
    for event in migrations:
        if event.core < n_cores:
            migrated[event.core][min(width - 1, event.ts // bucket)] = True
    peak = max((max(row) for row in op_counts), default=0)
    lines = [f"ops/bucket timeline  (bucket = {bucket:,} cycles, "
             f"peak = {peak} ops)"]
    for core_id in range(n_cores):
        row = []
        for index in range(width):
            if migrated[core_id][index]:
                row.append("M")
            elif peak:
                level = op_counts[core_id][index] * (len(ramp) - 1)
                row.append(ramp[-(-level // peak) if level else 0])
            else:
                row.append(" ")
        lines.append(f"core {core_id:>3} |{''.join(row)}|")
    lines.append(f"         0{'cycles'.center(width - 1)}{horizon:,}")
    return "\n".join(lines)

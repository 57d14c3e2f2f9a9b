"""Declarative sweep specifications and their expansion into cases.

A :class:`SweepSpec` names the grid an experiment covers — machine
topologies x scheduler configurations x workload specs x seeds — and
expands it into a deterministic list of :class:`SweepCase` cells.  Each
case is a self-contained, picklable, JSON-round-trippable description of
one ``repro.bench.harness.run_point`` call, hashable to a stable content
key so the result store (:mod:`repro.sweep.store`) can skip cells that
were already computed by an earlier (possibly killed) run.

Two identities matter here:

* ``SweepCase.key()`` — SHA-256 over the case's canonical JSON form.
  Two cases with the same key measure the same experiment, whatever
  process, host or session expands them.
* :func:`code_fingerprint` — SHA-256 over the ``repro`` package sources
  (excluding ``repro/sweep``, which orchestrates but never touches a
  simulated cycle).  A cached result is only reused when both match, so
  editing the simulator invalidates every cell while editing the sweep
  machinery invalidates none.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.cpu.topology import LatencySpec, MachineSpec
from repro.errors import ConfigError
from repro.sim.rng import derive_seed
from repro.workloads.dirlookup import DirWorkloadSpec
from repro.workloads.scenarios import ScenarioSpec
from repro.workloads.synthetic import ObjectOpsSpec
from repro.workloads.webserver import WebServerSpec

#: Workload kinds a case may name; each maps to its spec dataclass.  The
#: runner resolves the matching workload *class* lazily (they pull in the
#: fs/machine layers, which workers import on first use).
WORKLOAD_SPECS: Dict[str, type] = {
    "dirlookup": DirWorkloadSpec,
    "scenario": ScenarioSpec,
    "synthetic": ObjectOpsSpec,
    "webserver": WebServerSpec,
}


def _to_jsonable(value):
    """Canonical JSON-safe form of a spec field value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [_to_jsonable(item) for item in value]
    return value


def machine_to_dict(spec: MachineSpec) -> dict:
    return _to_jsonable(spec)


def machine_from_dict(data: dict) -> MachineSpec:
    fields = dict(data)
    if fields.get("latency") is not None:
        fields["latency"] = LatencySpec(**fields["latency"])
    if fields.get("core_speeds") is not None:
        fields["core_speeds"] = tuple(fields["core_speeds"])
    spec = MachineSpec(**fields)
    spec.validate()
    return spec


def workload_to_dict(kind: str, spec) -> dict:
    if kind not in WORKLOAD_SPECS:
        raise ConfigError(f"unknown workload kind {kind!r}; "
                          f"choose from {sorted(WORKLOAD_SPECS)}")
    if type(spec) is not WORKLOAD_SPECS[kind]:
        raise ConfigError(
            f"workload kind {kind!r} expects "
            f"{WORKLOAD_SPECS[kind].__name__}, got {type(spec).__name__}")
    return _to_jsonable(spec)


def workload_from_dict(kind: str, data: dict):
    try:
        cls = WORKLOAD_SPECS[kind]
    except KeyError:
        raise ConfigError(f"unknown workload kind {kind!r}; "
                          f"choose from {sorted(WORKLOAD_SPECS)}") from None
    spec = cls(**data)
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# one grid cell
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCase:
    """One fully-specified measurement: a single cell of the grid."""

    machine_label: str
    machine: MachineSpec
    scheduler: str                       # name in the scheduler registry
    workload_kind: str                   # key of WORKLOAD_SPECS
    workload_label: str
    workload: object                     # the matching spec dataclass
    seed_index: int = 0
    #: Workload RNG seed; None keeps the workload spec's own seed.
    seed: Optional[int] = None
    warmup_cycles: int = 1_500_000
    measure_cycles: int = 1_500_000
    #: Sweep coordinate for reports (defaults to the workload's data KB).
    x: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "machine_label": self.machine_label,
            "machine": machine_to_dict(self.machine),
            "scheduler": self.scheduler,
            "workload_kind": self.workload_kind,
            "workload_label": self.workload_label,
            "workload": workload_to_dict(self.workload_kind,
                                         self.workload),
            "seed_index": self.seed_index,
            "seed": self.seed,
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "x": self.x,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepCase":
        fields = dict(data)
        fields["machine"] = machine_from_dict(fields["machine"])
        fields["workload"] = workload_from_dict(fields["workload_kind"],
                                                fields["workload"])
        return cls(**fields)

    def key(self) -> str:
        """Stable content hash identifying this case (40 hex chars)."""
        canonical = json.dumps(self.as_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:40]

    def describe(self) -> str:
        return (f"{self.machine_label}/{self.scheduler}/"
                f"{self.workload_label}/s{self.seed_index}")


# ---------------------------------------------------------------------------
# the grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MachineAxis:
    label: str
    spec: MachineSpec


@dataclass(frozen=True)
class WorkloadAxis:
    label: str
    kind: str
    spec: object
    x: Optional[float] = None


@dataclass
class SweepSpec:
    """Declarative experiment grid with named axes and exclusion filters.

    ``filters`` is a tuple of dicts; a case whose axis labels match every
    key of any filter is excluded.  Keys: ``machine``, ``scheduler``,
    ``workload`` (axis labels / registry names).  Filters are plain data
    so specs survive the JSON round trip through ``spec.json``.
    """

    name: str
    machines: Tuple[MachineAxis, ...]
    schedulers: Tuple[str, ...]
    workloads: Tuple[WorkloadAxis, ...]
    n_seeds: int = 1
    root_seed: Optional[int] = None
    warmup_cycles: int = 1_500_000
    measure_cycles: int = 1_500_000
    filters: Tuple[Dict[str, str], ...] = ()

    def validate(self) -> None:
        if not self.machines or not self.schedulers or not self.workloads:
            raise ConfigError("sweep needs at least one machine, "
                              "scheduler and workload")
        if self.n_seeds < 1:
            raise ConfigError("n_seeds must be >= 1")
        if self.warmup_cycles < 0 or self.measure_cycles <= 0:
            raise ConfigError("warmup must be >= 0 and measure window > 0")
        labels = [m.label for m in self.machines]
        if len(set(labels)) != len(labels):
            raise ConfigError("machine axis labels must be unique")
        labels = [w.label for w in self.workloads]
        if len(set(labels)) != len(labels):
            raise ConfigError("workload axis labels must be unique")
        for axis in self.workloads:
            workload_to_dict(axis.kind, axis.spec)   # validates pairing
        for rule in self.filters:
            unknown = set(rule) - {"machine", "scheduler", "workload"}
            if unknown:
                raise ConfigError(
                    f"filter keys must name axes, got {sorted(unknown)}")

    def _excluded(self, machine: str, scheduler: str,
                  workload: str) -> bool:
        labels = {"machine": machine, "scheduler": scheduler,
                  "workload": workload}
        return any(all(labels.get(axis) == value
                       for axis, value in rule.items())
                   for rule in self.filters)

    def expand(self) -> List[SweepCase]:
        """All cases, in deterministic (machine, workload, scheduler,
        seed) order.

        Per-case seeds come from
        :func:`repro.sim.rng.derive_seed(root_seed, machine, scheduler,
        workload, seed_index)`, so a cell's seed is a pure function of
        its coordinates — reordering or filtering the grid never changes
        any other cell's result.  With ``root_seed=None`` and one seed,
        workload specs keep their own baked-in seeds.
        """
        self.validate()
        cases: List[SweepCase] = []
        for machine in self.machines:
            for workload in self.workloads:
                for scheduler in self.schedulers:
                    if self._excluded(machine.label, scheduler,
                                      workload.label):
                        continue
                    for seed_index in range(self.n_seeds):
                        if self.root_seed is None and self.n_seeds == 1:
                            seed = None
                        else:
                            root = (self.root_seed
                                    if self.root_seed is not None else 0)
                            seed = derive_seed(
                                root, machine.label, scheduler,
                                workload.label, seed_index)
                        cases.append(SweepCase(
                            machine_label=machine.label,
                            machine=machine.spec,
                            scheduler=scheduler,
                            workload_kind=workload.kind,
                            workload_label=workload.label,
                            workload=workload.spec,
                            seed_index=seed_index,
                            seed=seed,
                            warmup_cycles=self.warmup_cycles,
                            measure_cycles=self.measure_cycles,
                            x=workload.x))
        return cases

    # ------------------------------------------------------------------
    # persistence (spec.json inside a sweep store)
    # ------------------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "machines": [{"label": m.label,
                          "spec": machine_to_dict(m.spec)}
                         for m in self.machines],
            "schedulers": list(self.schedulers),
            "workloads": [{"label": w.label, "kind": w.kind,
                           "spec": workload_to_dict(w.kind, w.spec),
                           "x": w.x}
                          for w in self.workloads],
            "n_seeds": self.n_seeds,
            "root_seed": self.root_seed,
            "warmup_cycles": self.warmup_cycles,
            "measure_cycles": self.measure_cycles,
            "filters": [dict(rule) for rule in self.filters],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        spec = cls(
            name=data["name"],
            machines=tuple(
                MachineAxis(m["label"], machine_from_dict(m["spec"]))
                for m in data["machines"]),
            schedulers=tuple(data["schedulers"]),
            workloads=tuple(
                WorkloadAxis(w["label"], w["kind"],
                             workload_from_dict(w["kind"], w["spec"]),
                             w.get("x"))
                for w in data["workloads"]),
            n_seeds=data.get("n_seeds", 1),
            root_seed=data.get("root_seed"),
            warmup_cycles=data.get("warmup_cycles", 1_500_000),
            measure_cycles=data.get("measure_cycles", 1_500_000),
            filters=tuple(data.get("filters", ())),
        )
        spec.validate()
        return spec

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# code fingerprint
# ---------------------------------------------------------------------------

def code_fingerprint() -> str:
    """Hash of every ``repro`` source file that can influence a result.

    ``repro/sweep`` itself is excluded: the orchestration layer decides
    *which* cells run and *where*, never what a cell measures, so
    iterating on it must not invalidate a populated cache.
    """
    import repro
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith("sweep/"):
            continue
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]

"""repro — a reproduction of "Reinventing Scheduling for Multicore
Systems" (Boyd-Wickizer, Morris, Kaashoek; HotOS 2009).

The package implements the paper's O2 scheduler, **CoreTime**, together
with everything it runs on: a deterministic discrete-event multicore
simulator (caches, coherence, interconnect, DRAM), a cooperative threading
runtime, baseline thread schedulers, and the modified-EFSL FAT file system
used in the paper's evaluation.

Quick start::

    from repro import (Machine, MachineSpec, Simulator,
                       CoreTimeScheduler, ThreadScheduler,
                       DirectoryLookupWorkload, DirWorkloadSpec)

    machine = Machine(MachineSpec.scaled(8))
    sim = Simulator(machine, CoreTimeScheduler())
    workload = DirectoryLookupWorkload(machine, DirWorkloadSpec.scaled(8))
    workload.spawn_all(sim)
    result = sim.run(until=2_000_000)
    print(result.kops_per_sec, "thousand resolutions/s")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproductions.
"""

from repro._version import __version__
from repro.core import (CoreTimeConfig, CoreTimeScheduler, CtObject,
                        ObjectTable, ct_object, operation)
from repro.cpu import Core, LatencySpec, Machine, MachineSpec
from repro.errors import (ConfigError, DeadlockError, FilesystemError,
                          PackingError, ReproError, SchedulerError,
                          SimulationError)
from repro.fs import EfslFat, FatFilesystem
from repro.obs import Observability
from repro.sched import (SchedulerRuntime, ThreadClusteringScheduler,
                         ThreadScheduler, WorkStealingScheduler)
from repro.sim import RunResult, Simulator
from repro.threads import SimThread, SpinLock
from repro.workloads import (DirectoryLookupWorkload, DirWorkloadSpec,
                             ObjectOpsSpec, ObjectOpsWorkload,
                             WebServerSpec, WebServerWorkload)

__all__ = [
    "ConfigError",
    "Core",
    "CoreTimeConfig",
    "CoreTimeScheduler",
    "CtObject",
    "DeadlockError",
    "DirWorkloadSpec",
    "DirectoryLookupWorkload",
    "EfslFat",
    "FatFilesystem",
    "FilesystemError",
    "LatencySpec",
    "Machine",
    "MachineSpec",
    "ObjectOpsSpec",
    "ObjectOpsWorkload",
    "ObjectTable",
    "Observability",
    "WebServerSpec",
    "WebServerWorkload",
    "PackingError",
    "ReproError",
    "RunResult",
    "SchedulerError",
    "SchedulerRuntime",
    "SimThread",
    "SimulationError",
    "Simulator",
    "SpinLock",
    "ThreadClusteringScheduler",
    "ThreadScheduler",
    "WorkStealingScheduler",
    "ct_object",
    "operation",
    "__version__",
]

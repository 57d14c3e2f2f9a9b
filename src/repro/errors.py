"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A machine or workload specification is inconsistent.

    Examples: a cache smaller than one line, zero cores per chip, or a
    latency table missing an entry.
    """


class AllocationError(ReproError):
    """The simulated address-space allocator ran out of room."""


class SimulationError(ReproError):
    """The simulator reached an impossible state.

    This indicates a bug in a scheduler or workload program rather than a
    user mistake — for example a thread releasing a lock it does not hold,
    or a core stepping a thread that is not assigned to it.
    """


class DeadlockError(SimulationError):
    """All cores are idle, no events are pending, and work remains."""


class SchedulerError(ReproError):
    """A scheduler produced an invalid decision (e.g. an unknown core id)."""


class PackingError(ReproError):
    """The cache-packing algorithm was given unsatisfiable input."""


class ProfileError(ReproError):
    """An offline-analysis input is malformed.

    Raised by :mod:`repro.obs.profile` for unparsable JSONL, unknown
    event kinds, field mismatches, or a stream whose schema version is
    newer than the analyzer understands, and by :mod:`repro.obs.stream`
    for invalid profile artifacts or merges of incompatible profiles
    (mismatched sampling parameters).  Messages name the offending file
    and line when the input came from disk, so a bad shard in a fleet
    merge is identifiable.
    """


class FilesystemError(ReproError):
    """An error in the simulated FAT file-system image."""


"""FAT image consistency checking (an ``fsck`` for the substrate).

The benchmarks build large synthetic images; a silent corruption (a
crossed cluster chain, an entry that decodes to the wrong name) would
quietly change scan lengths and invalidate results.  :func:`fsck`
validates a :class:`~repro.fs.image.FatFilesystem` end to end and returns
a report; tests and the image builder's property tests run it.

Checks performed:

* boot-sector geometry matches the :class:`~repro.fs.fat.FatParams`;
* every FAT entry is FREE, EOC, or a link to an in-range cluster;
* no cluster is referenced by two chains (cross-linking);
* every directory's chain is long enough for its entry capacity;
* every used directory entry decodes and its name is unique within the
  directory;
* root entries point at valid chains.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List

from repro.fs.fat import DIR_ENTRY_SIZE, FIRST_CLUSTER, FREE, FatImage
from repro.fs.image import FatFilesystem


@dataclass
class FsckReport:
    """Outcome of a consistency check."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    directories_checked: int = 0
    entries_checked: int = 0
    clusters_used: int = 0

    @property
    def clean(self) -> bool:
        return not self.errors

    def error(self, message: str) -> None:
        self.errors.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def __str__(self) -> str:
        status = "clean" if self.clean else f"{len(self.errors)} error(s)"
        lines = [f"fsck: {status}; {self.directories_checked} dirs, "
                 f"{self.entries_checked} entries, "
                 f"{self.clusters_used} clusters used"]
        lines.extend(f"  ERROR: {error}" for error in self.errors)
        lines.extend(f"  warn:  {warning}" for warning in self.warnings)
        return "\n".join(lines)


def _check_boot_sector(image: FatImage, report: FsckReport) -> None:
    params = image.params
    try:
        (_, oem, bytes_per_sector, sectors_per_cluster, reserved,
         n_fats, root_entries, _) = struct.unpack_from(
            "<3s8sHBHBHH", image.data, 0)
    except struct.error:
        report.error("boot sector truncated")
        return
    if image.data[510:512] != b"\x55\xaa":
        report.error("boot sector signature missing")
    if bytes_per_sector != params.bytes_per_sector:
        report.error(f"boot sector bytes/sector {bytes_per_sector} != "
                     f"params {params.bytes_per_sector}")
    if sectors_per_cluster != params.sectors_per_cluster:
        report.error("boot sector sectors/cluster mismatch")
    if root_entries != params.root_entries:
        report.error("boot sector root entry count mismatch")
    if n_fats != params.n_fats:
        report.error("boot sector FAT count mismatch")


def _check_fat_links(image: FatImage, report: FsckReport) -> None:
    params = image.params
    limit = FIRST_CLUSTER + params.n_clusters
    for cluster in range(FIRST_CLUSTER, limit):
        value = image.fat_read(cluster)
        if value == FREE or value >= 0xFFF8:
            continue
        if not FIRST_CLUSTER <= value < limit:
            report.error(
                f"cluster {cluster} links to out-of-range {value}")


def _walk_chain(image: FatImage, first: int, owner: str,
                owners: Dict[int, str], report: FsckReport) -> int:
    """Walk a chain claiming clusters for ``owner``; returns length."""
    length = 0
    cluster = first
    limit = FIRST_CLUSTER + image.params.n_clusters
    seen = set()
    while cluster < 0xFFF8:
        if not FIRST_CLUSTER <= cluster < limit:
            report.error(f"{owner}: chain reaches invalid cluster "
                         f"{cluster}")
            return length
        if cluster in seen:
            report.error(f"{owner}: chain cycles at cluster {cluster}")
            return length
        seen.add(cluster)
        previous_owner = owners.get(cluster)
        if previous_owner is not None:
            report.error(f"cluster {cluster} cross-linked between "
                         f"{previous_owner} and {owner}")
        owners[cluster] = owner
        length += 1
        cluster = image.fat_read(cluster)
    return length


def fsck(fs: FatFilesystem) -> FsckReport:
    """Validate an entire file system; never raises, always reports.

    An independent check of the image builder, which the simulation
    never calls: ``tests/test_fsck.py`` runs it over every benchmark
    image shape and over planted corruptions, and
    ``tests/test_efsl.py::TestConstruction::test_duplicate_name_rejected``
    holds ``EfslFat``'s name index to the same duplicate rule.
    """
    report = FsckReport()
    image = fs.image
    params = fs.params
    _check_boot_sector(image, report)
    _check_fat_links(image, report)

    owners: Dict[int, str] = {}
    for name, directory in sorted(fs.directories.items()):
        report.directories_checked += 1
        length = _walk_chain(image, directory.first_cluster,
                             f"dir:{name}", owners, report)
        needed = -(-directory.capacity_entries * DIR_ENTRY_SIZE
                   // params.cluster_bytes)
        if length < needed:
            report.error(f"dir:{name}: chain has {length} clusters, "
                         f"capacity needs {needed}")
            continue
        seen_names = set()
        for index in range(directory.n_entries):
            report.entries_checked += 1
            try:
                entry = directory.entry_at(index)
            except Exception as exc:     # decoding failure is the finding
                report.error(f"dir:{name}[{index}]: undecodable: {exc}")
                continue
            if entry is None:
                report.error(f"dir:{name}[{index}]: free slot below "
                             "n_entries")
                continue
            if entry.name in seen_names:
                report.error(f"dir:{name}: duplicate entry "
                             f"{entry.name!r}")
            seen_names.add(entry.name)
        # Slots past n_entries must be free.
        if directory.n_entries < directory.capacity_entries:
            probe = directory.entry_at(directory.n_entries)
            if probe is not None:
                report.warn(f"dir:{name}: data past n_entries")
    report.clusters_used = len(owners)
    return report

"""Workload generators for the paper's benchmarks and ablations."""

from repro.workloads.dirlookup import (DirectoryLookupWorkload,
                                       DirWorkloadSpec)
from repro.workloads.popularity import (OscillatingPopularity, Popularity,
                                        UniformPopularity, ZipfPopularity,
                                        popularity_for_spec)
from repro.workloads.scenarios import ScenarioEntry, ScenarioSpec
from repro.workloads.synthetic import ObjectOpsSpec, ObjectOpsWorkload
from repro.workloads.webserver import WebServerSpec, WebServerWorkload

__all__ = [
    "WebServerSpec",
    "WebServerWorkload",
    "DirWorkloadSpec",
    "DirectoryLookupWorkload",
    "ObjectOpsSpec",
    "ObjectOpsWorkload",
    "OscillatingPopularity",
    "Popularity",
    "UniformPopularity",
    "ZipfPopularity",
    "ScenarioEntry",
    "ScenarioSpec",
    "popularity_for_spec",
]

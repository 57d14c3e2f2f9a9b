"""Cooperative threading runtime for the simulated machine."""

from repro.threads.program import (ITEM_TYPES, Acquire, Compute, CtEnd,
                                   CtStart, Release, Scan, Store)
from repro.threads.runqueue import RunQueue
from repro.threads.sync import SpinLock
from repro.threads.thread import Program, SimThread, ThreadState

__all__ = [
    "Acquire",
    "Compute",
    "CtEnd",
    "CtStart",
    "ITEM_TYPES",
    "Program",
    "Release",
    "RunQueue",
    "Scan",
    "SimThread",
    "SpinLock",
    "Store",
    "ThreadState",
]

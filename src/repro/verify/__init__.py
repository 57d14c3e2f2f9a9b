"""repro.verify — the verification layer.

Four tools that keep the simulator honest (DESIGN.md §9):

* :class:`InvariantChecker` — opt-in machine-wide invariant assertions,
  hooked into the engine's event loop via
  ``Simulator(..., checker=InvariantChecker())``; violations raise a
  structured :class:`InvariantViolation` carrying a bounded
  flight-recorder dump.
* :class:`FaultPlan` — seeded, deterministic corruption of live
  simulator state (drop/delay a migration, evict a line behind the
  directory's back, mark a holder without a copy in the directory,
  corrupt a counter, stall a core), used to prove the checker catches
  real bugs.
* :class:`ReferenceMemory` (:mod:`repro.verify.reference`) — a
  deliberately naive model of the memory hierarchy; :func:`shadow`
  checks every access of a live memory system against it and
  :func:`compare` checks the end state, raising
  :class:`ReferenceMismatch`.
* the property-based fuzzer (:mod:`repro.verify.fuzz`) — random
  topology × workload × scheduler cases checked for invariant
  cleanliness, same-seed determinism and agreement with the reference
  memory model, with greedy shrinking to a one-command repro:
  ``python -m repro.verify fuzz --seeds 25``.
"""

from __future__ import annotations

from repro.verify.faults import EXPECTED_RULE, FAULT_KINDS, FaultPlan
from repro.verify.fuzz import (FuzzCase, FuzzFailure, check_case,
                               generate_case, repro_command, run_case,
                               run_mutation, shrink)
from repro.verify.invariants import (DEFAULT_RULES, InvariantChecker,
                                     InvariantViolation)
from repro.verify.reference import (ReferenceMemory, ReferenceMismatch,
                                    compare, shadow)

__all__ = [
    "DEFAULT_RULES",
    "EXPECTED_RULE",
    "FAULT_KINDS",
    "FaultPlan",
    "FuzzCase",
    "FuzzFailure",
    "InvariantChecker",
    "InvariantViolation",
    "ReferenceMemory",
    "ReferenceMismatch",
    "check_case",
    "compare",
    "generate_case",
    "repro_command",
    "run_case",
    "run_mutation",
    "shadow",
    "shrink",
]

"""CoreTime — the paper's O2 scheduler (primary contribution).

Public surface:

* :class:`CoreTimeScheduler` / :class:`CoreTimeConfig` — the runtime;
* :func:`ct_object` / :func:`operation` — annotation API;
* :mod:`repro.core.packing` — the cache packing rule;
* :class:`Monitor`, :class:`Rebalancer` — counter-driven adaptation;
* §6.2 extensions: :class:`ReplicationPolicy`, :class:`LfuReplacement`,
  :class:`AffinityTracker`.
"""

from repro.core.api import ct_object, method_operation, operation
from repro.core.clustering import AffinityTracker
from repro.core.coretime import CoreTimeConfig, CoreTimeScheduler
from repro.core.monitor import CoreLoad, Monitor
from repro.core.object_table import CtObject, ObjectTable
from repro.core.packing import CacheBudget, make_budgets
from repro.core.policies import LfuReplacement, ReplicationPolicy
from repro.core.rebalancer import RebalanceEvent, Rebalancer

__all__ = [
    "AffinityTracker",
    "CacheBudget",
    "CoreLoad",
    "CoreTimeConfig",
    "CoreTimeScheduler",
    "CtObject",
    "LfuReplacement",
    "Monitor",
    "ObjectTable",
    "RebalanceEvent",
    "Rebalancer",
    "ReplicationPolicy",
    "ct_object",
    "make_budgets",
    "method_operation",
    "operation",
]

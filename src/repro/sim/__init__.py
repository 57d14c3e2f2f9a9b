"""Discrete-event simulation engine."""

from repro.obs import Observability
from repro.sim.engine import RunResult, Simulator
from repro.sim.rng import make_rng, stream_seed

__all__ = [
    "Observability",
    "RunResult",
    "Simulator",
    "make_rng",
    "stream_seed",
]

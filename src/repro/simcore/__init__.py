"""Deterministic discrete-event simulation kernel (SimPy-like, from scratch)."""

from .engine import (
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    run_all,
)
from .cells import cell_name
from .monitor import Counter, Histogram, MetricRegistry, MetricScope, Tally
from .rand import RandomStreams, stable_hash64
from .resources import Resource
from .stores import Store
from .trace import EventRecord, EventTrace, event_label

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Counter",
    "Environment",
    "Event",
    "EventRecord",
    "EventTrace",
    "event_label",
    "Histogram",
    "Interrupt",
    "MetricRegistry",
    "MetricScope",
    "Process",
    "RandomStreams",
    "run_all",
    "cell_name",
    "Resource",
    "SimulationError",
    "stable_hash64",
    "Store",
    "Tally",
    "Timeout",
]

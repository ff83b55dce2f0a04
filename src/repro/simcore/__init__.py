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
    StopProcess,
    Timeout,
    run_all,
)
from .cells import cell_name
from .monitor import Counter, Histogram, MetricRegistry, MetricScope, Series, Tally
from .profile import ComponentProfile, SimProfiler
from .rand import RandomStreams, stable_hash64
from .resources import Container, PriorityResource, Resource
from .stores import FilterStore, PriorityStore, Store, StoreFull
from .trace import EventRecord, EventTrace, event_label

__all__ = [
    "AllOf",
    "AnyOf",
    "ComponentProfile",
    "Condition",
    "Container",
    "Counter",
    "Environment",
    "Event",
    "EventRecord",
    "EventTrace",
    "event_label",
    "FilterStore",
    "Histogram",
    "Interrupt",
    "MetricRegistry",
    "MetricScope",
    "PriorityResource",
    "PriorityStore",
    "Process",
    "RandomStreams",
    "run_all",
    "cell_name",
    "Resource",
    "Series",
    "SimProfiler",
    "SimulationError",
    "stable_hash64",
    "StopProcess",
    "Store",
    "StoreFull",
    "Tally",
    "Timeout",
]

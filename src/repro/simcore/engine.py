"""Discrete-event simulation engine.

A compact, deterministic, generator-based discrete-event kernel in the
style of SimPy, built from scratch for this project.  Every stateful
component of the reproduction (NVMe devices, GPFS metadata servers, the
HVAC data-mover threads, DL training loops) runs as a :class:`Process`
over a shared :class:`Environment`.

Semantics
---------
* A *process* is a Python generator that ``yield``\\ s :class:`Event`
  objects.  The process is suspended until the yielded event triggers,
  at which point the event's value is sent back into the generator (or
  its exception raised inside it).
* Simulated time is a float (seconds, by convention in this project).
  Events scheduled at equal times fire in FIFO order of scheduling,
  which makes every run bit-for-bit deterministic.
* :meth:`Process.interrupt` raises :class:`Interrupt` inside a running
  process — used for cancellation (e.g. tearing down HVAC servers when
  a job ends).
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from .trace import event_label

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "run_all",
]

# Event state markers (kept as module-level singletons for cheap checks).
_PENDING = object()

# Scheduling priorities: URGENT beats NORMAL at the same timestamp.  The
# engine uses URGENT internally for process resumption so that a chain of
# zero-delay events completes before the clock is allowed to advance past
# co-scheduled timeouts.
URGENT = 0
NORMAL = 1


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupting party supplies ``cause``, available via
    :attr:`cause` on the caught exception.
    """

    @property
    def cause(self) -> Any:
        return self.args[0]


class Event:
    """A condition that may happen at some point in simulated time.

    An event starts *pending*; it becomes *triggered* once it has a
    value (or exception) and has been scheduled; it is *processed* after
    its callbacks have run.  Callbacks are ``f(event)`` callables.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused = False

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} at {id(self):#x} {self._state_str()}>"

    def _state_str(self) -> str:
        if self._value is _PENDING:
            return "pending"
        if self.callbacks is not None:
            return "triggered"
        return "processed"

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True after callbacks have executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only when triggered)."""
        if self._value is _PENDING:
            raise SimulationError("Event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or stored exception if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("Event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        if env._observed:
            env._schedule(self, NORMAL, 0.0)
        else:
            heappush(env._queue, (env._now, NORMAL, next(env._seq), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every process waiting on this
        event.  If nothing ever waits, the engine raises it at the end
        of the step (unless :meth:`defused`).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy success/failure from another (triggered) event."""
        if event._ok:
            self.succeed(event._value)
        else:
            self._defuse_other(event)
            self.fail(event._value)

    @staticmethod
    def _defuse_other(event: "Event") -> None:
        event._defused = True

    def defused(self) -> "Event":
        """Mark a failed event as handled so the kernel won't re-raise."""
        self._defused = True
        return self

    # -- composition ------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return AnyOf(self.env, [self, other])


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"Negative delay {delay!r}")
        # Slots set directly, not through Event.__init__: a Timeout is
        # built for every modelled delay, so the super() call and the
        # _schedule() hop are per-event overhead when nothing observes.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        if env._observed:
            env._schedule(self, NORMAL, delay)
        else:
            heappush(env._queue, (env._now + delay, NORMAL, next(env._seq), self))


class Initialize(Event):
    """Internal: kicks a freshly created process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule(self, URGENT, 0.0)


class Process(Event):
    """A running generator.  Also an event: it triggers when the
    generator returns (value = return value) or raises (failure)."""

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # The event this process is currently waiting on (None while active).
        self._target: Optional[Event] = None
        Initialize(env, self)

    def __repr__(self) -> str:
        return f"<Process({self.name}) {self._state_str()}>"

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside this process.

        Interrupting a finished process is an error; interrupting a
        process from itself is also an error.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("A process is not allowed to interrupt itself")
        # Deliver the interrupt through a throw-event at the head of the queue.
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume)
        self.env._schedule(event, URGENT, 0.0)

    # -- engine internals ---------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the triggering event's outcome."""
        env = self.env
        env._active_proc = self
        # Detach from the event we were waiting on (relevant for interrupts:
        # the original target stays scheduled but must no longer resume us).
        if self._target is not None and self._target is not event:
            try:
                self._target.callbacks.remove(self._resume)
            except (ValueError, AttributeError):
                pass
            # A waiting store get must also leave its wait queue, or it
            # becomes a phantom consumer that swallows an item nobody
            # receives.
            withdraw = getattr(self._target, "_withdraw", None)
            if withdraw is not None:
                withdraw()
        self._target = None

        while True:
            try:
                if event._ok:
                    next_evt = self._generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    next_evt = self._generator.throw(type(exc), exc, None)
            except StopIteration as stop:
                outcome, ok = stop.value, True
                break
            except BaseException as err:
                outcome, ok = err, False
                break

            if not isinstance(next_evt, Event):
                # Misbehaving process: yielded a non-event.
                err = SimulationError(
                    f"Process {self.name!r} yielded non-event {next_evt!r}"
                )
                outcome, ok = err, False
                break
            if next_evt.env is not env:
                err = SimulationError("Event belongs to a different Environment")
                outcome, ok = err, False
                break

            if next_evt.callbacks is not None:
                # Event still pending or triggered-but-unprocessed: wait on it.
                next_evt.callbacks.append(self._resume)
                self._target = next_evt
                env._active_proc = None
                return
            # Event already processed: loop immediately with its outcome.
            event = next_evt

        # Generator finished (or died).
        self._ok = ok
        self._value = outcome
        if not ok and isinstance(outcome, BaseException):
            # If nobody is waiting on this process the error must surface.
            self._defused = bool(self.callbacks)
        env._schedule(self, URGENT, 0.0)
        env._active_proc = None


class Condition(Event):
    """Composite event over multiple sub-events.

    Triggers when ``evaluate(events, n_done)`` returns True, with a dict
    mapping each *triggered* sub-event to its value.  Fails as soon as
    any sub-event fails.
    """

    __slots__ = ("_events", "_evaluate", "_count", "_fired")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list, int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0
        self._fired: set[int] = set()
        for evt in self._events:
            if evt.env is not env:
                raise SimulationError("Events from different environments")
        if not self._events:
            self.succeed({})
            return
        for evt in self._events:
            if evt.callbacks is None:
                self._check(evt)
            else:
                evt.callbacks.append(self._check)

    def _collect_values(self) -> dict:
        return {
            evt: evt._value
            for evt in self._events
            if id(evt) in self._fired and evt._ok
        }

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            if not event._ok:
                event._defused = True
            return
        self._count += 1
        self._fired.add(id(event))
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())
        if self._value is not _PENDING:
            self._withdraw_losers()

    def _withdraw_losers(self) -> None:
        """Cancel still-pending wait-queue sub-events once the condition
        has resolved: an abandoned ``store.get()`` losing a
        ``get | timeout`` race must not linger as a phantom consumer
        that swallows the next item."""
        for evt in self._events:
            if evt._value is _PENDING:
                withdraw = getattr(evt, "_withdraw", None)
                if withdraw is not None:
                    withdraw()


def _all_done(events: list, count: int) -> bool:
    """AllOf evaluator, hoisted to module level: conditions are built
    per request on hot paths, so per-instance lambdas are a per-event
    closure allocation (PERF102)."""
    return count >= len(events)


def _any_done(events: list, count: int) -> bool:
    """AnyOf evaluator, hoisted to module level (see :func:`_all_done`)."""
    return count >= 1


class AllOf(Condition):
    """Triggers once *all* sub-events have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, _all_done, events)


class AnyOf(Condition):
    """Triggers once *any* sub-event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, _any_done, events)


class Environment:
    """The simulation kernel: clock + event queue + process scheduler."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list = []  # heap of (time, priority, seq, event)
        self._seq = itertools.count()
        self._active_proc: Optional[Process] = None
        # Opt-in observers, consolidated behind one `_observed` flag so
        # the disabled fast path pays a single attribute test per event
        # and never constructs a label (zero-allocation when detached).
        self._trace = None  # event-stream fingerprinting (simcore/trace.py)
        self._sanitizer = None  # sim-time race sanitizer (check/races.py)
        self._observed = False

    def _update_observed(self) -> None:
        self._observed = self._trace is not None or self._sanitizer is not None

    # -- tracing -------------------------------------------------------
    @property
    def trace(self):
        """The attached :class:`~repro.simcore.trace.EventTrace`, if any."""
        return self._trace

    def attach_trace(self, trace) -> None:
        """Fingerprint every fired event into ``trace`` from now on."""
        self._trace = trace
        self._update_observed()

    def detach_trace(self) -> None:
        self._trace = None
        self._update_observed()

    # -- race sanitizing ----------------------------------------------
    @property
    def sanitizer(self):
        """The attached race sanitizer, if any."""
        return self._sanitizer

    def attach_sanitizer(self, sanitizer) -> None:
        """Record shared-state access sets per fired event from now on.

        The sanitizer observes only — it creates no events and draws no
        RNG, so the event-stream fingerprint is unchanged.
        """
        self._sanitizer = sanitizer
        self._update_observed()

    def detach_sanitizer(self) -> None:
        self._sanitizer = None
        self._update_observed()

    def note_access(self, cell: str, mode: str, tag=None) -> None:
        """Declare a read (``"r"``) or write (``"w"``) of a registered
        shared-state cell by the currently executing event.

        Pay-for-what-you-use: one ``is None`` check when no sanitizer
        is attached.  ``tag`` marks idempotent writes — two pure writes
        of the same tag at one timestamp commute and are not a race.
        """
        if self._sanitizer is not None:
            self._sanitizer.note(cell, mode, tag)

    # -- public surface ----------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_proc

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """A bare, manually-triggered event."""
        return Event(self)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling / stepping ----------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        seq = next(self._seq)
        heappush(self._queue, (self._now + delay, priority, seq, event))
        if self._observed and self._sanitizer is not None:
            # Same-timestamp causality: a zero-delay child's order after
            # its scheduler is program-defined, not insertion-accidental.
            self._sanitizer.note_schedule(seq, delay)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event."""
        try:
            self._now, priority, seq, event = heappop(self._queue)
        except IndexError:
            raise SimulationError("No scheduled events") from None

        observed = self._observed
        if observed:
            label = event_label(event)
            if self._trace is not None:
                self._trace.record(self._now, priority, seq, label)
            if self._sanitizer is not None:
                self._sanitizer.begin_event(self._now, priority, seq, label)

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if observed and self._sanitizer is not None:
            self._sanitizer.end_event()

        if not event._ok and not event._defused:
            # Unhandled failure: crash the simulation loudly.
            exc = event._value
            raise exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a time,
        or an :class:`Event` (run until it triggers; returns its value).
        """
        if until is None:
            stop_at = float("inf")
            stop_evt: Optional[Event] = None
        elif isinstance(until, Event):
            stop_evt = until
            stop_at = float("inf")
            if stop_evt.callbacks is None:  # already processed
                return stop_evt._value
        else:
            stop_at = float(until)
            stop_evt = None
            if stop_at <= self._now:
                raise SimulationError(
                    f"until={stop_at} must be greater than now={self._now}"
                )

        # Hoisted loop-invariant lookups: run() drives every experiment,
        # so the per-step overhead here multiplies by the event count.
        # With no observer attached both loops pop and dispatch inline
        # (the body of step() minus its observer hooks); the flag is
        # re-read per event, so an observer attached mid-run sees every
        # event from the next one on.
        queue = self._queue
        step = self.step
        if stop_evt is not None:
            done = []
            stop_evt.callbacks.append(done.append)
            while queue and not done:
                if self._observed:
                    step()
                    continue
                self._now, _, _, event = heappop(queue)
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            if done:
                evt = done[0]
                if not evt._ok:
                    evt._defused = True
                    raise evt._value
                return evt._value
            raise SimulationError("Event was never triggered: queue ran dry")

        while queue and queue[0][0] < stop_at:
            if self._observed:
                step()
                continue
            self._now, _, _, event = heappop(queue)
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
        if self._queue and stop_at != float("inf"):
            self._now = stop_at
        return None


def _wait_all(env: Environment, procs: list) -> Generator:
    yield AllOf(env, procs)


def run_all(env: Environment, procs: list, name: str) -> float:
    """Run until every process in ``procs`` ends, waiting in a process
    named ``name``; returns the sim seconds that took."""
    t0 = env.now
    env.run(env.process(_wait_all(env, procs), name=name))
    return env.now - t0

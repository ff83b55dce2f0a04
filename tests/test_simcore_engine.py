"""Unit tests for the discrete-event engine."""

import pytest

from repro.simcore import (
    AllOf,
    AnyOf,
    Environment,
    EventTrace,
    Interrupt,
    Resource,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(3.5)

    env.process(proc())
    env.run()
    assert env.now == 3.5


def test_timeout_value_passthrough():
    env = Environment()
    got = []

    def proc():
        v = yield env.timeout(1.0, value="hello")
        got.append(v)

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_process_return_value_via_run():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 42

    assert env.run(env.process(proc())) == 42


def test_sequential_timeouts_accumulate():
    env = Environment()
    marks = []

    def proc():
        yield env.timeout(1)
        marks.append(env.now)
        yield env.timeout(2)
        marks.append(env.now)

    env.process(proc())
    env.run()
    assert marks == [1.0, 3.0]


def test_fifo_order_at_equal_time():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in "abc":
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(1)

    env.process(proc())
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_past_time_raises():
    env = Environment()
    env.process(iter_timeout(env))
    env.run(until=5)
    with pytest.raises(SimulationError):
        env.run(until=5)


def iter_timeout(env):
    while True:
        yield env.timeout(1)


def test_process_waiting_on_process():
    env = Environment()

    def child():
        yield env.timeout(2)
        return "done"

    def parent():
        result = yield env.process(child())
        return result

    assert env.run(env.process(parent())) == "done"
    assert env.now == 2


def test_event_manual_trigger():
    env = Environment()
    evt = env.event()
    results = []

    def waiter():
        v = yield evt
        results.append((env.now, v))

    def trigger():
        yield env.timeout(4)
        evt.succeed(99)

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert results == [(4.0, 99)]


def test_event_double_trigger_fails():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_failed_event_raises_in_waiter():
    env = Environment()
    evt = env.event()
    caught = []

    def waiter():
        try:
            yield evt
        except ValueError as e:
            caught.append(str(e))

    def trigger():
        yield env.timeout(1)
        evt.fail(ValueError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("crash")

    env.process(bad())
    with pytest.raises(RuntimeError, match="crash"):
        env.run()


def test_exception_captured_by_waiting_parent():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("inner")

    def parent():
        try:
            yield env.process(bad())
        except RuntimeError:
            return "handled"

    assert env.run(env.process(parent())) == "handled"


def test_interrupt_running_process():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def interrupter(v):
        yield env.timeout(3)
        v.interrupt("stop now")

    v = env.process(victim())
    env.process(interrupter(v))
    env.run()
    assert log == [(3.0, "stop now")]


def test_interrupt_then_continue():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(5)
        log.append(env.now)

    def interrupter(v):
        yield env.timeout(2)
        v.interrupt()

    v = env.process(victim())
    env.process(interrupter(v))
    env.run()
    assert log == [7.0]


def test_interrupt_dead_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_self_interrupt_is_error():
    env = Environment()
    errors = []

    def selfish(handle):
        yield env.timeout(1)
        try:
            handle[0].interrupt()
        except SimulationError:
            errors.append(True)

    handle = []
    handle.append(env.process(selfish(handle)))
    env.run()
    assert errors == [True]


def test_allof_waits_for_all():
    env = Environment()

    def proc():
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(5, value="b")
        result = yield AllOf(env, [t1, t2])
        return (env.now, sorted(result.values()))

    assert env.run(env.process(proc())) == (5.0, ["a", "b"])


def test_anyof_returns_on_first():
    env = Environment()

    def proc():
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(5, value="slow")
        result = yield AnyOf(env, [t1, t2])
        return (env.now, list(result.values()))

    assert env.run(env.process(proc())) == (1.0, ["fast"])


def test_condition_operators():
    env = Environment()

    def proc():
        a = env.timeout(1, value=1)
        b = env.timeout(2, value=2)
        yield a & b
        return env.now

    assert env.run(env.process(proc())) == 2.0


def test_empty_allof_triggers_immediately():
    env = Environment()

    def proc():
        result = yield AllOf(env, [])
        return result

    assert env.run(env.process(proc())) == {}


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_peek_and_step():
    env = Environment()
    env.timeout(3)
    assert env.peek() == 3.0
    env.step()
    assert env.now == 3.0
    assert env.peek() == float("inf")


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_run_until_event_already_processed():
    env = Environment()
    t = env.timeout(1, value="x")
    env.run()
    assert env.run(until=t) == "x"


def test_run_until_never_triggered_event_raises():
    env = Environment()
    evt = env.event()
    env.timeout(1)
    with pytest.raises(SimulationError, match="never"):
        env.run(until=evt)


def test_many_processes_determinism():
    def run_once():
        env = Environment()
        trace = []

        def worker(i):
            for k in range(5):
                yield env.timeout((i % 3) + 0.5)
                trace.append((env.now, i, k))

        for i in range(20):
            env.process(worker(i))
        env.run()
        return trace

    assert run_once() == run_once()


def test_process_is_alive_flag():
    env = Environment()

    def proc():
        yield env.timeout(2)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_cross_environment_event_rejected():
    env1, env2 = Environment(), Environment()
    foreign = env2.timeout(1)

    def proc():
        yield foreign

    env1.process(proc())
    with pytest.raises(SimulationError):
        env1.run()


def _resource_run(trace=None, attach_at=None):
    """Two workers contending for a capacity-1 resource; with
    ``attach_at``, a process attaches ``trace`` at that time."""
    env = Environment()
    res = Resource(env, capacity=1)
    log = []
    if trace is not None and attach_at is None:
        env.attach_trace(trace)

    def worker(i):
        for _ in range(3):
            with res.request() as req:
                yield req
                yield env.timeout(0.5 + i)
            log.append((env.now, i))

    def attacher():
        yield env.timeout(attach_at)
        env.attach_trace(trace)

    for i in range(2):
        env.process(worker(i), name=f"w{i}")
    if attach_at is not None:
        env.process(attacher(), name="attach")
    env.run()
    return log


def test_observed_and_unobserved_runs_agree():
    # The unobserved fast path must build the same heap as _schedule.
    trace = EventTrace()
    assert _resource_run() == _resource_run(trace)
    assert trace.count > 0


def test_observer_attached_mid_run_sees_every_later_event():
    full = EventTrace(keep_all=True)
    _resource_run(full)
    late = EventTrace(keep_all=True)
    _resource_run(late, attach_at=1.0)
    later = [(r.time, r.label) for r in full.records if r.time > 1.0]
    seen = [(r.time, r.label) for r in late.records if r.time > 1.0]
    assert seen == later and later

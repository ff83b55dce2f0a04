"""Remaining kernel branches: trigger propagation, defusing and run
semantics."""

import pytest

from repro.simcore import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    SimulationError,
)


class TestEventPlumbing:
    def test_trigger_copies_success(self):
        env = Environment()
        src, dst = env.event(), env.event()
        src.succeed("payload")
        env.run()  # process src
        dst.trigger(src)
        assert dst.triggered
        assert dst.value == "payload"

    def test_trigger_copies_failure_and_defuses_source(self):
        env = Environment()
        src, dst = env.event(), env.event()
        src.fail(ValueError("x"))
        dst.trigger(src)
        dst.defused()
        caught = []

        def waiter():
            try:
                yield dst
            except ValueError:
                caught.append(True)

        env.process(waiter())
        env.run()
        assert caught == [True]

    def test_value_before_trigger_raises(self):
        env = Environment()
        evt = env.event()
        with pytest.raises(SimulationError):
            _ = evt.value
        with pytest.raises(SimulationError):
            _ = evt.ok

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_unwaited_failure_crashes_run(self):
        env = Environment()
        env.event().fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_defused_failure_is_silent(self):
        env = Environment()
        env.event().fail(RuntimeError("handled")).defused()
        env.run()  # must not raise

    def test_condition_failure_propagates_once(self):
        env = Environment()
        good = env.timeout(1)
        bad = env.event()
        caught = []

        def waiter():
            try:
                yield AllOf(env, [good, bad])
            except KeyError:
                caught.append(True)

        def failer():
            yield env.timeout(0.5)
            bad.fail(KeyError("boom"))

        env.process(waiter())
        env.process(failer())
        env.run()
        assert caught == [True]

    def test_anyof_after_failure_defuses_late_events(self):
        env = Environment()
        fast = env.timeout(1, value="ok")
        slow = env.event()
        results = []

        def waiter():
            result = yield AnyOf(env, [fast, slow])
            results.append(list(result.values()))

        def late_failer():
            yield env.timeout(2)
            slow.fail(RuntimeError("late"))
            slow.defused()

        env.process(waiter())
        env.process(late_failer())
        env.run()
        assert results == [["ok"]]


class TestRunSemantics:
    def test_run_returns_process_value_even_with_pending_events(self):
        env = Environment()

        def quick():
            yield env.timeout(1)
            return "done"

        def forever():
            while True:
                yield env.timeout(10)

        env.process(forever())
        assert env.run(env.process(quick())) == "done"
        assert env.peek() < float("inf")  # the other process still queued

    def test_until_event_failure_reraised_at_run(self):
        env = Environment()

        def dies():
            yield env.timeout(1)
            raise OSError("disk on fire")

        with pytest.raises(OSError, match="disk on fire"):
            env.run(env.process(dies()))

"""Unit tests for Resource."""

import pytest

from repro.simcore import Environment, Resource, SimulationError


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    grants = []

    def user(i):
        with res.request() as req:
            yield req
            grants.append((env.now, i))
            yield env.timeout(10)

    for i in range(3):
        env.process(user(i))
    env.run()
    # Two immediately, third at t=10 when one releases.
    assert grants == [(0.0, 0), (0.0, 1), (10.0, 2)]


def test_resource_fifo_queueing():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(i):
        with res.request() as req:
            yield req
            order.append(i)
            yield env.timeout(1)

    for i in range(5):
        env.process(user(i))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_count_and_queued():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(5)

    def waiter():
        with res.request() as req:
            yield req

    env.process(holder())
    env.process(waiter())
    env.run(until=1)
    assert res.count == 1
    assert res.queued == 1
    env.run()
    assert res.count == 0


def test_explicit_release():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def a():
        req = res.request()
        yield req
        yield env.timeout(2)
        req.cancel()
        log.append(("a-released", env.now))
        yield env.timeout(10)

    def b():
        yield env.timeout(1)
        req = res.request()
        yield req
        log.append(("b-granted", env.now))

    env.process(a())
    env.process(b())
    env.run()
    assert log == [("a-released", 2.0), ("b-granted", 2.0)]


def test_cancel_waiting_request_leaves_queue():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def impatient():
        req = res.request()
        # Change of heart before grant.
        yield env.timeout(1)
        req.cancel()

    env.process(holder())
    env.process(impatient())
    env.run(until=2)
    assert res.queued == 0

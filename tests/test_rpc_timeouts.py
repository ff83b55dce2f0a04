"""RPC timeout-path tests: deadline expiry, message loss, hangs, and
death-mid-call — the silent failures only a caller's deadline can see."""

import pytest

from repro.cluster import Fabric, NetworkSpec
from repro.rpc import RPCEndpoint, RPCError, RPCTimeout
from repro.simcore import Environment, EventTrace


def make_fabric(env, n=4):
    spec = NetworkSpec(
        nic_bandwidth=1e6,
        link_latency=0.001,
        bisection_bandwidth_per_node=1e6,
        per_message_overhead=0.0,
        loopback_bandwidth=1e7,
    )
    return Fabric(env, spec, n)


def make_pair(env, fab, handler_delay=0.0, reply="ok"):
    server = RPCEndpoint(env, fab, node_id=1, name="srv")
    client = RPCEndpoint(env, fab, node_id=0, name="cli")

    def handler(payload, src):
        yield env.timeout(handler_delay)
        return reply

    server.register("op", handler)
    return server, client


def run_call(env, client, server, caught, **kw):
    def caller():
        try:
            value = yield from client.call(server, "op", **kw)
        except RPCError as err:
            caught.append((env.now, err))
        else:
            caught.append((env.now, value))

    env.process(caller())


class TestDeadlineExpiry:
    def test_slow_handler_times_out_at_deadline(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab, handler_delay=10.0)
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run(until=2.0)
        t, err = caught[0]
        assert isinstance(err, RPCTimeout)
        # Deadline starts after the request crosses the wire (~1 ms).
        assert t == pytest.approx(0.5, abs=0.01)

    def test_fast_handler_beats_deadline(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab, handler_delay=0.01)
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run(until=2.0)
        t, value = caught[0]
        assert value == "ok"
        assert t < 0.5

    def test_late_reply_after_timeout_is_harmless(self):
        """The abandoned handler finishes after the caller gave up; the
        kernel must not crash on the orphaned reply."""
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab, handler_delay=1.0)
        caught = []
        run_call(env, client, server, caught, timeout=0.1)
        env.run()  # drain everything, including the late handler
        assert isinstance(caught[0][1], RPCTimeout)


class TestMessageLoss:
    def test_lost_request_times_out_after_full_deadline(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab)
        fab.set_link_fault(0, 1, drop_prob=1.0)
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run()
        t, err = caught[0]
        assert isinstance(err, RPCTimeout)
        assert "request lost" in str(err)
        assert t == pytest.approx(0.5, abs=0.01)
        assert fab.metrics.counter("fabric.dropped_messages").value >= 1

    def test_lost_request_without_deadline_fails_immediately(self):
        # timeout=None cannot wait forever on a lost message; the raise
        # is immediate (the no-deadline path is for trusted local use).
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab)
        fab.set_link_fault(0, 1, drop_prob=1.0)
        caught = []
        run_call(env, client, server, caught)
        env.run()
        assert isinstance(caught[0][1], RPCTimeout)

    def test_lost_reply_times_out_and_handler_side_effects_land(self):
        """One-way fault on the reply direction: the handler runs to
        completion, the caller sees only silence."""
        env = Environment()
        fab = make_fabric(env)
        server = RPCEndpoint(env, fab, node_id=1, name="srv")
        client = RPCEndpoint(env, fab, node_id=0, name="cli")
        served = []

        def handler(payload, src):
            yield env.timeout(0.01)
            served.append(payload)
            return "reply"

        server.register("op", handler)
        fab.set_link_fault(1, 0, drop_prob=1.0, symmetric=False)
        caught = []
        run_call(env, client, server, caught, payload="x", timeout=0.5)
        env.run()
        assert served == ["x"]  # request got through
        assert isinstance(caught[0][1], RPCTimeout)

    def test_clear_link_fault_restores_delivery(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab)
        fab.set_link_fault(0, 1, drop_prob=1.0)
        fab.clear_link_fault(0, 1)
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run()
        assert caught[0][1] == "ok"

    def test_loopback_immune_to_partition(self):
        env = Environment()
        fab = make_fabric(env)
        server = RPCEndpoint(env, fab, node_id=0, name="srv")
        client = RPCEndpoint(env, fab, node_id=0, name="cli")

        def handler(payload, src):
            yield env.timeout(0)
            return "local"

        server.register("op", handler)
        fab.isolate(0)
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run()
        assert caught[0][1] == "local"


class TestDeathMidCall:
    def test_server_dies_while_serving_raises_rpcerror(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab, handler_delay=0.2)
        caught = []
        run_call(env, client, server, caught, timeout=5.0)

        def killer():
            yield env.timeout(0.1)  # mid-handler
            server.shutdown()

        env.process(killer())
        env.run()
        t, err = caught[0]
        assert isinstance(err, RPCError) and not isinstance(err, RPCTimeout)
        assert "died" in str(err)
        assert t < 5.0  # death is detected as an error, not a timeout

    def test_dead_endpoint_fails_fast_not_timeout(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab)
        server.shutdown()
        caught = []
        run_call(env, client, server, caught, timeout=5.0)
        env.run()
        t, err = caught[0]
        assert isinstance(err, RPCError) and not isinstance(err, RPCTimeout)
        assert t == pytest.approx(0.0, abs=0.01)


class TestHang:
    def test_hung_endpoint_only_deadline_detects(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab)
        server.hang()
        assert server.alive  # hung is not dead: no error signal exists
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run()
        t, err = caught[0]
        assert isinstance(err, RPCTimeout)
        assert t == pytest.approx(0.5, abs=0.01)

    def test_unhang_restores_service(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab)
        server.hang()
        server.unhang()
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run()
        assert caught[0][1] == "ok"

    def test_restart_clears_hang(self):
        env = Environment()
        fab = make_fabric(env)
        server, _ = make_pair(env, fab)
        server.hang()
        server.restart()
        assert not server.hung and server.alive


#: when a request header sent at t=0 lands (make_fabric: zero overhead,
#: 1 ms latency, 192 header bytes at 1 MB/s) — the deadline's origin
REQUEST_LANDS = 0.0 + (0.001 + 192 / 1e6)


class TestDeadlineResolvesReplyEvent:
    """The deadline timer resolves the call's reply event itself; every
    server-side reply is posted only while that event is pending."""

    def test_expiry_after_a_completed_call_is_a_no_op(self):
        env = Environment()
        fab = make_fabric(env)
        server, client = make_pair(env, fab, handler_delay=0.01)
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run(until=0.1)
        assert caught[0][1] == "ok"
        # The dead timer is still queued, holding only the reply event.
        pending = [evt for *_, evt in env._queue]
        assert [type(evt).__name__ for evt in pending] == ["Timeout"]
        assert pending[0].value.processed
        env.run()  # the timer fires into an already-answered call
        assert env.now == REQUEST_LANDS + 0.5
        assert len(caught) == 1 and caught[0][1] == "ok"

    @pytest.mark.parametrize("outcome", ["reply", "raise", "die"])
    def test_server_outcome_after_the_deadline_raises_nothing(self, outcome):
        env = Environment()
        fab = make_fabric(env)
        server = RPCEndpoint(env, fab, node_id=1, name="srv")
        client = RPCEndpoint(env, fab, node_id=0, name="cli")

        def handler(payload, src):
            yield env.timeout(1.0)
            if outcome == "raise":
                raise ValueError("late failure")
            if outcome == "die":
                server.shutdown()
            return "late"

        server.register("op", handler)
        caught = []
        run_call(env, client, server, caught, timeout=0.1)
        env.run()  # no "already triggered" from the late server side
        assert len(caught) == 1
        t, err = caught[0]
        assert isinstance(err, RPCTimeout)
        assert t == REQUEST_LANDS + 0.1
        assert env.now > 1.0

    def test_handler_that_raises_maps_to_rpcerror(self):
        env = Environment()
        fab = make_fabric(env)
        server = RPCEndpoint(env, fab, node_id=1, name="srv")
        client = RPCEndpoint(env, fab, node_id=0, name="cli")

        def handler(payload, src):
            yield env.timeout(0.01)
            raise KeyError("missing")

        server.register("op", handler)
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run()
        t, err = caught[0]
        assert isinstance(err, RPCError) and not isinstance(err, RPCTimeout)
        assert isinstance(err.__cause__, KeyError)
        assert t == REQUEST_LANDS + 0.01

    def test_endpoint_dying_mid_serve_maps_to_rpcerror(self):
        env = Environment()
        fab = make_fabric(env)
        server = RPCEndpoint(env, fab, node_id=1, name="srv")
        client = RPCEndpoint(env, fab, node_id=0, name="cli")

        def handler(payload, src):
            yield env.timeout(0.01)
            server.shutdown()
            return "lost"

        server.register("op", handler)
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run()
        t, err = caught[0]
        assert isinstance(err, RPCError) and not isinstance(err, RPCTimeout)
        assert "died" in str(err)
        assert t == REQUEST_LANDS + 0.01

    def test_endpoint_hanging_after_serving_times_out_exactly(self):
        env = Environment()
        fab = make_fabric(env)
        server = RPCEndpoint(env, fab, node_id=1, name="srv")
        client = RPCEndpoint(env, fab, node_id=0, name="cli")
        served = []

        def handler(payload, src):
            yield env.timeout(0.01)
            server.hang()
            served.append(env.now)
            return "never sent"

        server.register("op", handler)
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run()
        t, err = caught[0]
        assert served and isinstance(err, RPCTimeout)
        assert t == REQUEST_LANDS + 0.5

    def test_call_trace_has_no_handler_process_or_condition(self):
        env = Environment()
        trace = EventTrace(keep_all=True)
        env.attach_trace(trace)
        fab = make_fabric(env)
        server, client = make_pair(env, fab, handler_delay=0.01)
        caught = []
        run_call(env, client, server, caught, timeout=0.5)
        env.run()
        assert caught[0][1] == "ok"
        labels = [r.label for r in trace.records]
        assert "Process:srv.op" in labels  # the serving process
        assert "Process:srv.op.h" not in labels  # the handler runs inline
        assert "AnyOf" not in labels

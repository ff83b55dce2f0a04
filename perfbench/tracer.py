"""Per-layer host and simulated time, measured from outside ``src/``.

The traced run wraps the public entry points of each layer and every
process root the kernel starts.  A wrapper is a transparent generator
proxy: it forwards ``send``/``throw``/``close`` to the real generator,
keeps its ``__name__`` (the kernel names unnamed processes after it, and
the name is part of the event fingerprint), and brackets each resume
with a push/pop on a layer stack.  A layer's self time is the host time
during which it sits on top of that stack; time with an empty stack
belongs to the kernel (``simcore``).

Wrapping adds no events and draws no randomness, so the traced run's
:class:`~repro.simcore.EventTrace` fingerprint must equal the untraced
one; ``run.py`` fails the run when it does not.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

#: layers, each with the ``repro`` module that defines it
LAYERS = {
    "dl": "repro.dl",
    "workloads.mdtest": "repro.workloads.mdtest",
    "core.client": "repro.core.client",
    "rpc": "repro.rpc",
    "core.server": "repro.core.server",
    "core.cache": "repro.core.cache",
    "cluster.network": "repro.cluster.network",
    "cluster.nvme": "repro.cluster.nvme",
    "storage.gpfs": "repro.storage.gpfs",
    "storage.localfs": "repro.storage.localfs",
}


def layer_of_module(module: str) -> str | None:
    """The layer a ``repro`` module belongs to, or None (kernel/other)."""
    for layer, prefix in LAYERS.items():
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class LayerTracer:
    """Layer stack plus per-layer accumulators for one traced run."""

    def __init__(self):
        self.env = None
        self.stack: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Zero every accumulator (call right before the timed run)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.sim_s: dict[str, float] = defaultdict(float)
        #: calls entering a layer from another layer, plus process starts
        self.calls: Counter = Counter()
        #: every invocation of a wrapped method, keyed ``Class.method``
        self.method_calls: Counter = Counter()
        #: push/pop pairs — the unit of wrapper cost
        self.switches = 0
        self._last = perf_counter()

    def enter(self, layer: str) -> None:
        now = perf_counter()
        stack = self.stack
        if stack:
            self.self_s[stack[-1]] += now - self._last
        self._last = now
        stack.append(layer)
        self.switches += 1

    def leave(self) -> None:
        now = perf_counter()
        self.self_s[self.stack.pop()] += now - self._last
        self._last = now

    def top(self) -> str | None:
        return self.stack[-1] if self.stack else None

    def wrap_generator(self, gen, layer: str, push: bool) -> "TimedGenerator":
        if push:
            self.calls[layer] += 1
        return TimedGenerator(gen, layer, self, push)

    # -- hooks -----------------------------------------------------------
    def process_hook(self, process):
        """Wrap ``env.process`` so every process root is timed."""

        def traced_process(generator, name=""):
            if isinstance(generator, TimedGenerator):
                if not generator.push:
                    # created inside its own layer, now resumed by the
                    # kernel with an empty stack: it must push itself
                    generator.push = True
                    self.calls[generator.layer] += 1
            else:
                frame = getattr(generator, "gi_frame", None)
                layer = (
                    layer_of_module(frame.f_globals.get("__name__", ""))
                    if frame is not None
                    else None
                )
                if layer is not None:
                    generator = self.wrap_generator(generator, layer, push=True)
            return process(generator, name)

        return traced_process

    def wrap_method(self, cls, name: str, layer: str):
        """A replacement for ``cls.name`` that times calls into ``layer``."""
        func = cls.__dict__[name]
        label = f"{cls.__name__}.{name}"
        tracer = self

        if inspect.isgeneratorfunction(func):

            def traced(*args, **kwargs):
                tracer.method_calls[label] += 1
                return tracer.wrap_generator(
                    func(*args, **kwargs), layer, push=tracer.top() != layer
                )

        else:

            def traced(*args, **kwargs):
                tracer.method_calls[label] += 1
                if tracer.top() == layer:
                    return func(*args, **kwargs)
                tracer.calls[layer] += 1
                tracer.enter(layer)
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer.leave()

        traced.__name__ = func.__name__
        traced.__qualname__ = func.__qualname__
        return traced

    def wrap_register(self, register):
        """Wrap ``RPCEndpoint.register`` so every handler is timed."""
        tracer = self

        def traced_register(endpoint, op, handler):
            func = getattr(handler, "__func__", handler)
            layer = layer_of_module(func.__module__)
            if layer is None:
                return register(endpoint, op, handler)

            def traced_handler(payload, src):
                return tracer.wrap_generator(handler(payload, src), layer, push=True)

            return register(endpoint, op, traced_handler)

        return traced_register


def calibrate(n: int = 20_000, rounds: int = 5) -> float:
    """Host seconds one pushing resume through a wrapper adds, the best
    of ``rounds`` timings of ``n`` resumes against a bare generator."""

    def spin():
        while True:
            yield None

    class Clock:
        now = 0.0

    tracer = LayerTracer()
    tracer.env = Clock
    bare = spin()
    timed = tracer.wrap_generator(spin(), "calibration", push=True)
    next(bare)
    next(timed)
    best = float("inf")
    for _ in range(rounds):
        t0 = perf_counter()
        for _ in range(n):
            bare.send(None)
        t1 = perf_counter()
        for _ in range(n):
            timed.send(None)
        t2 = perf_counter()
        best = min(best, (t2 - t1) - (t1 - t0))
    return max(0.0, best / n)


class TimedGenerator:
    """Transparent proxy over one layer generator (see module docstring)."""

    __slots__ = ("_gen", "layer", "_tracer", "push", "_t0")

    def __init__(self, gen, layer: str, tracer: LayerTracer, push: bool):
        self._gen = gen
        self.layer = layer
        self._tracer = tracer
        self.push = push
        self._t0 = None

    @property
    def __name__(self) -> str:
        return self._gen.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def _resume(self, method, *args):
        if not self.push:
            # nested inside its own layer: already on top of the stack
            return method(*args)
        tracer = self._tracer
        if self._t0 is None:
            self._t0 = tracer.env.now
        tracer.enter(self.layer)
        try:
            return method(*args)
        except BaseException:
            # StopIteration (a return) or an error: the call is over
            tracer.sim_s[self.layer] += tracer.env.now - self._t0
            raise
        finally:
            tracer.leave()

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self):
        return self._gen.close()


#: the layer entry points the traced run wraps: (module, class, methods);
#: ``None`` wraps every public function the class itself defines
WRAPPED = (
    ("repro.core.client", "HVACClient", ("open", "read", "close")),
    ("repro.rpc.endpoint", "RPCEndpoint", ("call", "bulk_pull", "bulk_push")),
    ("repro.core.cache", "CacheManager", ("read", "insert")),
    ("repro.cluster.nvme", "NVMeDevice", None),
    ("repro.cluster.network", "Fabric", ("transfer", "message")),
    ("repro.storage.gpfs", "GPFS", None),
    ("repro.storage.localfs", "LocalFS", None),
)


@contextmanager
def traced_layers(tracer: LayerTracer):
    """Patch every wrapped entry point for the duration of the block."""
    saved = []
    try:
        for module_name, cls_name, names in WRAPPED:
            cls = getattr(importlib.import_module(module_name), cls_name)
            if names is None:
                names = [
                    n
                    for n, v in vars(cls).items()
                    if not n.startswith("_") and inspect.isfunction(v)
                ]
            layer = layer_of_module(module_name)
            for name in names:
                saved.append((cls, name, cls.__dict__[name]))
                setattr(cls, name, tracer.wrap_method(cls, name, layer))
        from repro.rpc.endpoint import RPCEndpoint

        register = RPCEndpoint.__dict__["register"]
        saved.append((RPCEndpoint, "register", register))
        RPCEndpoint.register = tracer.wrap_register(register)
        yield tracer
    finally:
        for cls, name, original in reversed(saved):
            setattr(cls, name, original)

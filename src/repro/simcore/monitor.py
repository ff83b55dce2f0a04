"""Lightweight instrumentation for simulation components.

Collectors are O(1)-memory accumulators (counters, Welford tallies,
geometric-binned histograms), so hot paths pay one update per sample and
never touch the kernel.

Names are hierarchical, dot-joined strings.  A :class:`MetricScope` is a
prefix view over one shared :class:`MetricRegistry` — components hold a
scope (``hvac.c3.detector``) instead of hand-assembling prefixes, and
scopes nest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Tally",
    "Histogram",
    "MetricScope",
    "MetricRegistry",
]


class Counter:
    """Monotonic named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def incr(self, by: int = 1) -> None:
        self.value += by

    def __int__(self) -> int:
        return self.value


class Tally:
    """Streaming scalar statistics (count/mean/min/max/variance).

    Welford's algorithm; O(1) memory regardless of sample count, which
    matters for multi-million-transaction MDTest runs.
    """

    __slots__ = ("name", "n", "_mean", "_m2", "_min", "_max")

    def __init__(self, name: str):
        self.name = name
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    @property
    def mean(self) -> float:
        return self._mean if self.n else float("nan")

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def std(self) -> float:
        return self.variance**0.5

    @property
    def min(self) -> float:
        return self._min if self.n else float("nan")

    @property
    def max(self) -> float:
        return self._max if self.n else float("nan")


class Histogram:
    """Geometric-binned distribution with O(1) memory and quantiles.

    Bins grow by a constant factor (``bins_per_decade`` per power of
    ten) between ``lo`` and ``hi``, with explicit under/overflow bins,
    so latencies spanning microseconds to seconds all resolve.  ``add``
    is O(1) (one log, one increment) and never touches the kernel, so
    histograms are safe on hot paths.  Quantiles interpolate at the
    geometric midpoint of the covering bin, clamped to the observed
    min/max — deterministic, and within one bin width of exact.
    """

    __slots__ = (
        "name", "lo", "_log_growth", "_n_bins", "counts",
        "n", "_sum", "_min", "_max",
    )

    def __init__(
        self,
        name: str,
        lo: float = 1e-7,
        hi: float = 1e4,
        bins_per_decade: int = 8,
    ):
        if lo <= 0 or hi <= lo or bins_per_decade < 1:
            raise ValueError("need 0 < lo < hi and bins_per_decade >= 1")
        self.name = name
        self.lo = lo
        self._log_growth = math.log(10.0) / bins_per_decade
        self._n_bins = max(1, math.ceil(math.log10(hi / lo) * bins_per_decade))
        # counts[0] = underflow (x <= lo), counts[-1] = overflow (x > hi)
        self.counts = [0] * (self._n_bins + 2)
        self.n = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def add(self, x: float) -> None:
        if x <= self.lo:
            idx = 0
        else:
            b = int(math.log(x / self.lo) / self._log_growth) + 1
            idx = b if b <= self._n_bins else self._n_bins + 1
        self.counts[idx] += 1
        self.n += 1
        self._sum += x
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    @property
    def mean(self) -> float:
        return self._sum / self.n if self.n else float("nan")

    @property
    def min(self) -> float:
        return self._min if self.n else float("nan")

    @property
    def max(self) -> float:
        return self._max if self.n else float("nan")

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (0..1) from the bin counts."""
        if not self.n:
            return float("nan")
        if q <= 0.0:
            return self._min
        if q >= 1.0:
            return self._max
        target = q * self.n
        cum = 0
        for idx, c in enumerate(self.counts):
            if c == 0:
                continue
            cum += c
            if cum >= target:
                if idx == 0:
                    value = self.lo
                elif idx == self._n_bins + 1:
                    value = self._max  # overflow: all we know is the max
                else:
                    b_lo = self.lo * math.exp((idx - 1) * self._log_growth)
                    value = b_lo * math.exp(self._log_growth / 2.0)
                return min(max(value, self._min), self._max)
        return self._max  # pragma: no cover — cum always reaches n

    def percentiles(self) -> dict[str, float]:
        """The SLO trio: p50/p95/p99."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricScope:
    """A dotted-prefix view over a shared registry; scopes nest.

    ``registry.scope("hvac").scope("c3").counter("reads")`` names the
    same collector as ``registry.counter("hvac.c3.reads")`` — scopes add
    no storage beyond a per-scope collector cache, only naming
    discipline.  The cache makes repeated lookups lazy about label
    construction: the dotted name is built once per (scope, name), not
    once per sample, so hot paths that look collectors up by name pay a
    plain dict hit (PERF103).
    """

    __slots__ = ("registry", "prefix", "_counters", "_tallies", "_histograms")

    def __init__(self, registry: "MetricRegistry", prefix: str):
        self.registry = registry
        self.prefix = prefix
        self._counters: dict[str, Counter] = {}
        self._tallies: dict[str, Tally] = {}
        self._histograms: dict[str, Histogram] = {}

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name  # perf: waive PERF103 -- miss path only; hits come from the per-scope collector cache

    def scope(self, name: str) -> "MetricScope":
        return MetricScope(self.registry, self._name(name))

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = self.registry.counter(self._name(name))
        return c

    def tally(self, name: str) -> Tally:
        t = self._tallies.get(name)
        if t is None:
            t = self._tallies[name] = self.registry.tally(self._name(name))
        return t

    def histogram(self, name: str, **kwargs) -> Histogram:
        if kwargs:
            # Custom binning must reach the registry (first caller wins
            # there, same as before) — don't cache past the kwargs.
            return self.registry.histogram(self._name(name), **kwargs)
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = self.registry.histogram(self._name(name))
        return h

    def __repr__(self) -> str:
        return f"<MetricScope {self.prefix!r}>"


@dataclass
class MetricRegistry:
    """Namespaced container of collectors shared across one simulation."""

    counters: dict[str, Counter] = field(default_factory=dict)
    tallies: dict[str, Tally] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def tally(self, name: str) -> Tally:
        t = self.tallies.get(name)
        if t is None:
            t = self.tallies[name] = Tally(name)
        return t

    def histogram(self, name: str, **kwargs) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, **kwargs)
        return h

    def scope(self, prefix: str) -> MetricScope:
        """A nestable dotted-prefix view (see :class:`MetricScope`)."""
        return MetricScope(self, prefix)

    def snapshot(self) -> dict:
        """A plain-dict view of every collector (for result records)."""
        out: dict = {}
        for name, c in self.counters.items():
            out[name] = c.value
        for name, t in self.tallies.items():
            # perf: waive PERF105 -- post-run snapshot assembly, not per-event
            out[name] = {
                "n": t.n,
                "mean": t.mean,
                "std": t.std,
                "min": t.min,
                "max": t.max,
            }
        for name, h in self.histograms.items():
            # perf: waive PERF105 -- post-run snapshot assembly, not per-event
            out[name] = {
                "n": h.n,
                "mean": h.mean,
                "min": h.min,
                "max": h.max,
                **h.percentiles(),
            }
        return out

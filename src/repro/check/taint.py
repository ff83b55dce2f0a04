"""Interprocedural taint propagation over the call graph (SIM011).

A function is *tainted* when its body — or anything it transitively
calls — touches a nondeterminism primitive without an inline waiver:
wall-clock reads (SIM001), RNG outside ``RandomStreams`` (SIM002),
salted builtin ``hash()`` (SIM003), unordered-set iteration (SIM004),
blocking calls (SIM007).  Taint flows *backwards* along call edges, so
the per-function AST rules effectively fire at the call site inside sim
code even when the primitive lives in a helper function or another
module — the case the single-function pass is blind to (notably:
helpers in ``runtime``/``posix`` scope, where SIM001/SIM007 are exempt
at the definition but calling them from sim code is still a bug).

Each diagnostic is emitted as **SIM011** at the sim-scope call site and
carries the full source→sink chain, e.g.::

    uses.py:7:12: SIM011 call to 'stamp' reaches wall-clock read
    time.time (SIM001) via stamp -> clock.now_ms

A second, value-level flavor catches unordered-set *arguments*: if the
callee (transitively) iterates one of its parameters and the caller
passes a known ``set`` in that position, the call site is flagged —
the helper's ``for x in items:`` is innocent until someone hands it a
set.

The third flavor runs the same idea forwards through *returns*
(**SIM013**): a function that returns a set expression — or forwards
another unordered producer's result verbatim via ``return g(...)`` —
is an unordered producer, and any sim-scope ``for``/comprehension
iterating its call result replays in hash order.  The diagnostic lands
at the loop's call site, where the fix (``sorted(...)``) belongs.

The fourth flavor follows *yield paths* (**SIM014**): ``yield from``
over a set — or a delegation chain that reaches one, hopping through
``yield from g(...)`` and ``return g(...)`` alike — makes a generator
an unordered producer too, and any sim-scope loop draining it replays
in hash order.  The return-tracking pass cannot see this (a generator
function's ``return`` is its StopIteration, not its items), so the
yield path gets its own fixpoint; the diagnostic again lands at the
consuming loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .callgraph import CallGraph, FunctionInfo
from .rules import Violation

__all__ = ["FunctionTaint", "propagate", "taint_violations"]


@dataclass(frozen=True)
class FunctionTaint:
    """Why one function is tainted, with the shortest known chain."""

    rule: str  #: underlying primitive rule (SIM001/002/003/004/007)
    kind: str  #: e.g. ``"wall-clock read time.time"``
    chain: tuple[str, ...]  #: qualnames from this function down to the source


def propagate(graph: CallGraph) -> dict[str, dict[str, FunctionTaint]]:
    """Fixpoint taint propagation: ``function key -> rule -> taint``.

    Also folds iterated-parameter summaries through pass-through calls,
    so ``f(items)`` → ``g(items)`` → ``for x in items`` marks *f* as
    iterating its parameter too.
    """
    taints: dict[str, dict[str, FunctionTaint]] = {}
    for key, info in graph.functions.items():
        own: dict[str, FunctionTaint] = {}
        for src in info.sources:
            if src.rule not in own:
                own[src.rule] = FunctionTaint(src.rule, src.kind, (info.qualname,))
        if own:
            taints[key] = own

    # Reverse edges: callee key -> [(caller info, call site)]
    callers: dict[str, list[tuple[FunctionInfo, object]]] = {}
    for info in graph.functions.values():
        for call in info.calls:
            if call.target is not None:
                callers.setdefault(call.target, []).append((info, call))

    # -- taint fixpoint (chains capped so cycles terminate) ----------------
    worklist = list(taints)
    while worklist:
        key = worklist.pop()
        callee_taints = taints.get(key, {})
        for caller, _call in callers.get(key, ()):  # noqa: B007
            mine = taints.setdefault(caller.key, {})
            changed = False
            for rule, t in callee_taints.items():
                if rule not in mine and len(t.chain) < 12:
                    mine[rule] = FunctionTaint(
                        rule, t.kind, (caller.qualname, *t.chain)
                    )
                    changed = True
            if changed:
                worklist.append(caller.key)

    # -- iterated-parameter fixpoint ---------------------------------------
    changed = True
    while changed:
        changed = False
        for info in graph.functions.values():
            for call in info.calls:
                if call.target is None or not call.param_args:
                    continue
                callee = graph.functions[call.target]
                for pos, param in call.param_args:
                    if (
                        pos < len(callee.params)
                        and callee.params[pos] in callee.iterated_params
                        and param not in info.iterated_params
                    ):
                        info.iterated_params.add(param)
                        changed = True

    # -- unordered-return fixpoint (SIM013) --------------------------------
    # ``return g(...)`` forwards g's container verbatim, so a function
    # whose return expression is a call to an unordered producer is an
    # unordered producer itself.
    changed = True
    while changed:
        changed = False
        for info in graph.functions.values():
            if info.returns_unordered:
                continue
            for call in info.calls:
                if (
                    call.in_return
                    and call.target is not None
                    and graph.functions[call.target].returns_unordered
                ):
                    info.returns_unordered = True
                    changed = True
                    break

    # -- unordered yield-path fixpoint (SIM014) ----------------------------
    # ``yield from g(...)`` drains g's container or generator in
    # whatever order it produces, and ``return g(...)`` forwards a
    # tainted generator verbatim — yield taint follows both edges.
    # Runs after the return fixpoint so ``yield from`` of a finished
    # unordered *returner* is caught too.
    changed = True
    while changed:
        changed = False
        for info in graph.functions.values():
            if info.yields_unordered:
                continue
            for call in info.calls:
                if call.target is None:
                    continue
                callee = graph.functions[call.target]
                if (
                    call.in_yield_from
                    and (callee.returns_unordered or callee.yields_unordered)
                ) or (call.in_return and callee.yields_unordered):
                    info.yields_unordered = True
                    changed = True
                    break
    return taints


_MESSAGE = (
    "transitively-tainted call: '{display}' reaches {kind} ({rule}) "
    "via {chain} — hoist the primitive behind env.now/RandomStreams/"
    "stable_hash64/sorted(...), or waive at the source"
)

_SET_ARG_MESSAGE = (
    "transitively-tainted call: '{display}' iterates its argument "
    "#{pos} and this call passes an unordered set ({chain}) — pass "
    "sorted(...) or an ordered container"
)

_RETURN_MESSAGE = (
    "iterating the result of '{display}': {callee} (transitively) "
    "returns an unordered container, so hash order crosses the return "
    "boundary into this loop — return sorted(...) from the producer or "
    "sort at this call site"
)

_YIELD_MESSAGE = (
    "iterating the result of '{display}': {callee} (transitively) "
    "yields from an unordered container, so hash order flows down the "
    "yield path into this loop — yield from sorted(...) in the "
    "producer or sort at this call site"
)


def taint_violations(
    graph: CallGraph,
    taints: dict[str, dict[str, FunctionTaint]] | None = None,
) -> list[Violation]:
    """SIM011 diagnostics at every sim-scope call site of a tainted
    function (plus set-argument hand-offs into param-iterating helpers),
    and SIM013 at loops iterating an unordered producer's return."""
    if taints is None:
        taints = propagate(graph)
    out: list[Violation] = []
    seen: set[tuple] = set()
    for info in graph.functions.values():
        if info.scope != "sim":
            continue
        for call in info.calls:
            if call.target is None:
                continue
            callee = graph.functions[call.target]
            if call.iterated and callee.returns_unordered:
                key = (info.path, call.line, call.col, "SIM013")
                if key not in seen:
                    seen.add(key)
                    out.append(
                        Violation(
                            "SIM013",
                            info.path,
                            call.line,
                            call.col,
                            _RETURN_MESSAGE.format(
                                display=call.display,
                                callee=callee.qualname,
                            ),
                        )
                    )
            if call.iterated and callee.yields_unordered:
                key = (info.path, call.line, call.col, "SIM014")
                if key not in seen:
                    seen.add(key)
                    out.append(
                        Violation(
                            "SIM014",
                            info.path,
                            call.line,
                            call.col,
                            _YIELD_MESSAGE.format(
                                display=call.display,
                                callee=callee.qualname,
                            ),
                        )
                    )
            for rule, t in sorted(taints.get(call.target, {}).items()):
                key = (info.path, call.line, call.col, rule)
                if key in seen:
                    continue
                seen.add(key)
                out.append(
                    Violation(
                        "SIM011",
                        info.path,
                        call.line,
                        call.col,
                        _MESSAGE.format(
                            display=call.display,
                            kind=t.kind,
                            rule=rule,
                            chain=" -> ".join(t.chain),
                        ),
                    )
                )
            for pos in call.set_args:
                if (
                    pos < len(callee.params)
                    and callee.params[pos] in callee.iterated_params
                ):
                    key = (info.path, call.line, call.col, "set-arg", pos)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(
                        Violation(
                            "SIM011",
                            info.path,
                            call.line,
                            call.col,
                            _SET_ARG_MESSAGE.format(
                                display=call.display,
                                pos=pos,
                                chain=f"{call.display} iterates "
                                f"'{callee.params[pos]}'",
                            ),
                        )
                    )
    out.sort(key=lambda v: (v.path, v.line, v.col))
    return out

"""Module-level call graph for the interprocedural taint pass.

The per-function AST rules in :mod:`.rules` see one function body at a
time, so a wall-clock read (or any other nondeterminism primitive)
hidden one call deep in a helper — possibly in another module — is
invisible at the call site.  This module parses a set of files together
and extracts, per function:

* the nondeterminism *primitives* its body touches directly
  (wall clocks, non-``RandomStreams`` RNG, salted ``hash()``,
  unordered-set iteration, blocking calls), minus any that carry an
  inline ``# simlint: waive`` — a waived primitive is a sanctioned
  site, not a taint source;
* its outgoing *call sites*, resolved through import aliases, relative
  imports, one level of package re-export, and ``self.``/``cls.``
  method dispatch;
* which of its *parameters* it iterates (directly or by passing them
  on), so a caller handing a ``set`` to an innocent-looking helper is
  still caught;
* whether it *returns* an unordered container — directly, or verbatim
  through another call (resolved by a fixpoint in :mod:`.taint`) — and
  which of its call sites feed a ``for``/comprehension, so hash order
  crossing a return boundary is flagged at the loop (SIM013).

:mod:`.taint` runs the interprocedural fixpoint over this graph.
Resolution is deliberately conservative: a call that cannot be resolved
to a known function contributes nothing (no false SIM011s from duck
typing), and ``obj.method()`` on an unknown object is skipped.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import NamedTuple

from .rules import (
    _BLOCKING,
    _RNG_CONSTRUCT,
    _RNG_GLOBAL_DRAW,
    _WALL_CLOCK,
    ScopeWalker,
    SetOrderWalker,
    module_name_for,
    name_chain,
    qualified_name,
)

__all__ = [
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "TaintSource",
    "module_matches",
    "module_name_for",
]

#: maximum re-export hops followed when resolving ``from pkg import name``
_REEXPORT_DEPTH = 3


@dataclass(frozen=True)
class TaintSource:
    """A nondeterminism primitive touched directly by one function."""

    rule: str  #: the underlying SIM rule code (SIM001/002/003/004/007)
    kind: str  #: human-readable primitive, e.g. ``"wall-clock read time.time"``
    line: int  #: line within the defining file


@dataclass
class CallSite:
    """One outgoing call from a function body."""

    line: int
    col: int
    display: str  #: the call target as written in source ("helpers.now")
    ref: tuple | None  #: unresolved reference, resolved in :meth:`CallGraph.build`
    target: str | None = None  #: resolved function key, if any
    set_args: tuple[int, ...] = ()  #: positional args that are known sets
    param_args: tuple[tuple[int, str], ...] = ()  #: (pos, caller param) pass-throughs
    in_return: bool = False  #: the call is the caller's ``return`` expression
    in_yield_from: bool = False  #: the call is a ``yield from`` delegate
    iterated: bool = False  #: the call's result feeds a ``for``/comprehension


@dataclass
class FunctionInfo:
    """One module- or class-level function and its taint-relevant facts."""

    key: str  #: graph key: ``"<module>::<qualname>"``
    module: str
    qualname: str
    path: str
    line: int
    scope: str  #: ``"sim"`` | ``"runtime"`` (from :func:`..linter.scope_of`)
    params: tuple[str, ...]  #: positional params, the method's ``self`` stripped
    sources: list[TaintSource] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    iterated_params: set[str] = field(default_factory=set)
    returns_unordered: bool = False  #: returns a set expr (or, after the
    #: fixpoint in :mod:`.taint`, passes through a callee that does)
    yields_unordered: bool = False  #: ``yield from``-s a set expr (or,
    #: after the fixpoint in :mod:`.taint`, delegates to one that does)


def module_matches(module: str, suffixes: tuple[str, ...]) -> bool:
    """Is ``module`` one of ``suffixes``, or a module ending in one?"""
    return any(module == s or module.endswith("." + s) for s in suffixes)


class _ModuleScanner(SetOrderWalker, ScopeWalker):
    """Extract :class:`FunctionInfo` records from one parsed module.

    Import aliases and set bindings come from the shared
    :class:`.rules.SetOrderWalker`, so a name simlint treats as a set
    is exactly the name this scanner treats as a taint source; function
    attribution and ``self`` calls from :class:`.rules.ScopeWalker`.
    """

    def __init__(self, file):
        super().__init__(file.module)
        self.file = file  # a :class:`..linter.SourceFile`
        self.functions: dict[str, FunctionInfo] = {}
        self._info: FunctionInfo | None = None  # the enclosing function
        self._nested_depth = 0  # inside a nested def: returns belong to it
        self._return_calls: set[int] = set()  # id()s of return-position Calls
        self._yield_calls: set[int] = set()  # id()s of yield-from delegate Calls
        self._iterated_calls: set[int] = set()  # id()s of for/comp-iter Calls

    # -- function structure --------------------------------------------------
    def function(self, node) -> None:
        params = [a.arg for a in (*node.args.posonlyargs, *node.args.args)]
        if self.self_name is not None:
            params = params[1:]
        info = FunctionInfo(
            key=f"{self.module}::{self.qual}",
            module=self.module,
            qualname=self.qual,
            path=self.file.path,
            line=node.lineno,
            scope=self.file.scope,
            params=tuple(params),
        )
        self.functions[self.qual] = info
        self._info = info
        self.generic_visit(node)
        self._info = None

    def nested_def(self, node) -> None:
        # A closure's primitives taint the parent (conservative), but
        # its returns do not leave the parent.
        self._nested_depth += 1
        self.generic_visit(node)
        self._nested_depth -= 1

    # -- primitives and call sites -----------------------------------------
    def _source(self, rule: str, kind: str, node: ast.AST) -> None:
        if self._info is None:
            return  # module-level code: nothing to taint through
        if self.file.waived(node.lineno, rule):
            return  # explicitly sanctioned: not a taint source
        self._info.sources.append(TaintSource(rule, kind, node.lineno))

    #: wrappers that pass their argument's order through to the loop
    _ORDER_PRESERVING = ("list", "tuple", "iter", "enumerate", "reversed")

    def iterated(self, iter_node: ast.expr, target: ast.expr | None) -> None:
        # Loops and comprehensions only: the taint pass leaves the
        # order-fixing call arguments (``list(s)``, ``max(s)``) to the
        # per-function rules.
        info = self._info
        if info is None or target is None:
            return
        if isinstance(iter_node, ast.Name) and iter_node.id in info.params:
            info.iterated_params.add(iter_node.id)
        elif self.sets.holds(iter_node):
            self._source("SIM004", "unordered-set iteration", iter_node)
        # SIM013: mark call results that feed the loop, unwrapping
        # order-preserving shims (``sorted(f())`` neutralizes and is
        # not unwrapped, so it never marks the inner call).
        node = iter_node
        while (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._ORDER_PRESERVING
            and node.args
        ):
            node = node.args[0]
        if isinstance(node, ast.Call):
            self._iterated_calls.add(id(node))

    def visit_Return(self, node: ast.Return) -> None:
        # SIM013 bookkeeping: a function that returns a set expression
        # hands unordered iteration order to every caller; one that
        # returns another call's result verbatim may do so transitively
        # (resolved by the fixpoint in :mod:`.taint`).  Nested defs keep
        # their returns to themselves.
        info = self._info
        if info is not None and not self._nested_depth and node.value is not None:
            if self.file.waived(node.lineno, "SIM013"):
                pass  # sanctioned producer: never a SIM013 source
            elif self.sets.holds(node.value):
                info.returns_unordered = True
            elif isinstance(node.value, ast.Call):
                self._return_calls.add(id(node.value))
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        # SIM014 bookkeeping: ``yield from <set>`` drains the container
        # in hash order, and ``yield from g(...)`` forwards whatever
        # order the delegate produces (resolved by the fixpoint in
        # :mod:`.taint`).  Order-preserving shims are unwrapped just as
        # at iteration sites, so ``yield from list(g())`` still follows
        # g; ``sorted(...)`` neutralizes.  Nested defs keep their
        # yields to themselves.
        info = self._info
        if info is not None and not self._nested_depth:
            value = node.value
            while (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in self._ORDER_PRESERVING
                and value.args
            ):
                value = value.args[0]
            if self.file.waived(node.lineno, "SIM014"):
                pass  # sanctioned producer: never a SIM014 source
            elif self.sets.holds(value):
                info.yields_unordered = True
            elif isinstance(value, ast.Call):
                self._yield_calls.add(id(value))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        qual = (
            qualified_name(self.imports, func)
            if isinstance(func, (ast.Attribute, ast.Name))
            else None
        )
        if qual is not None:
            if qual in _WALL_CLOCK:
                self._source("SIM001", f"wall-clock read {qual}", node)
            elif qual in _RNG_CONSTRUCT or qual in _RNG_GLOBAL_DRAW:
                self._source("SIM002", f"unmanaged RNG {qual}", node)
            elif qual in _BLOCKING:
                self._source("SIM007", f"blocking call {qual}", node)
        if isinstance(func, ast.Name) and func.id == "hash":
            self._source("SIM003", "salted builtin hash()", node)
        self._record_call(node)
        super().visit_Call(node)

    def _record_call(self, node: ast.Call) -> None:
        info = self._info
        ref = self.reference(node.func) if info is not None else None
        if ref is None:
            return
        set_args = tuple(
            i for i, a in enumerate(node.args) if self.sets.holds(a)
        )
        param_args = tuple(
            (i, a.id)
            for i, a in enumerate(node.args)
            if isinstance(a, ast.Name) and a.id in info.params
        )
        info.calls.append(
            CallSite(
                line=node.lineno,
                col=node.col_offset,
                display=".".join(name_chain(node.func)),
                ref=ref,
                set_args=set_args,
                param_args=param_args,
                in_return=id(node) in self._return_calls,
                in_yield_from=id(node) in self._yield_calls,
                iterated=id(node) in self._iterated_calls,
            )
        )


class _Module(NamedTuple):
    functions: dict[str, FunctionInfo]  #: qualname -> function
    imports: dict[str, str]  #: alias -> dotted target


class CallGraph:
    """All functions across a file set, with resolved call edges."""

    def __init__(self):
        self.modules: dict[str, _Module] = {}
        self.functions: dict[str, FunctionInfo] = {}

    # -- construction -------------------------------------------------------
    @classmethod
    def build(cls, files) -> "CallGraph":
        """``files`` are :class:`..linter.SourceFile` records; their
        simlint waivers sanction taint sources."""
        graph = cls()
        for file in files:
            scanner = _ModuleScanner(file)
            scanner.visit(file.tree)
            graph.modules[file.module] = _Module(scanner.functions, scanner.imports)
            for info in scanner.functions.values():
                graph.functions[info.key] = info
        graph._resolve_calls()
        return graph

    # -- import / call resolution -------------------------------------------
    def _find_module(self, dotted: str) -> _Module | None:
        """Exact key, dotted-suffix match, or the package ``__init__``."""
        for candidate in (dotted, f"{dotted}.__init__"):
            if candidate in self.modules:
                return self.modules[candidate]
        tail = "." + dotted
        init_tail = tail + ".__init__"
        hits = [
            m
            for name, m in self.modules.items()
            if name.endswith(tail) or name.endswith(init_tail)
        ]
        return hits[0] if len(hits) == 1 else None

    def _function_in(self, mod: _Module, name: str, depth: int = 0):
        """``name`` may be ``func`` or ``Class.method``; follows one
        level of ``from .x import name`` re-export per hop."""
        if name in mod.functions:
            return mod.functions[name]
        if depth >= _REEXPORT_DEPTH:
            return None
        head = name.split(".", 1)[0]
        target = mod.imports.get(head)
        if target is None:
            return None
        rest = name[len(head):]  # "" or ".method"
        return self._resolve_dotted(tuple((target + rest).split(".")), depth + 1)

    def _resolve_dotted(self, chain: tuple[str, ...], depth: int = 0):
        """Resolve ``("pkg", "mod", "Class", "meth")``-style chains by
        trying every module/function split point, longest module first."""
        for split in range(len(chain) - 1, 0, -1):
            mod = self._find_module(".".join(chain[:split]))
            if mod is None:
                continue
            found = self._function_in(mod, ".".join(chain[split:]), depth)
            if found is not None:
                return found
        return None

    def _resolve(self, mod: _Module, ref: tuple):
        kind = ref[0]
        if kind == "self":
            _, klass, name = ref
            return mod.functions.get(f"{klass}.{name}")
        if kind == "name":
            name = ref[1]
            if name in mod.functions:
                return mod.functions[name]
            target = mod.imports.get(name)
            if target is not None:
                return self._resolve_dotted(tuple(target.split(".")))
            return None
        # ("dotted", chain): resolve the leading alias, then the chain
        chain = list(ref[1])
        chain[0] = mod.imports.get(chain[0], chain[0])
        flat: list[str] = []
        for part in chain:
            flat.extend(part.split("."))
        return self._resolve_dotted(tuple(flat))

    def _resolve_calls(self) -> None:
        for mod in self.modules.values():
            for info in mod.functions.values():
                for call in info.calls:
                    target = self._resolve(mod, call.ref)
                    if target is not None and target.key != info.key:
                        call.target = target.key

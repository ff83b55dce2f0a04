"""``repro check --cells`` — the whole-program shared-state auditor.

The runtime race sanitizer (:mod:`.races`) only watches the cells the
code remembers to ``note_access``; an attribute nobody celled is
invisible to it.  This pass closes that soundness gap statically, by
diffing two whole-program inventories:

1. **Concurrently-reachable writes.**  Every process-spawn site
   (``env.process(gen)``, including staging workers, gossip/repair
   agents, fault injectors) and every RPC-handler registration
   (``endpoint.register(op, self._handle)``) is a *root*.  Walking the
   module-level call graph (:mod:`.callgraph`) from every root yields,
   per function, how many concurrent process instances can be executing
   it: a root spawned in a loop (or a re-entrant RPC handler) counts as
   two.  Any ``self``-attribute write in a function reachable from two
   or more concurrent instances is shared-state by construction.
2. **The declared cell inventory.**  :mod:`.cell_registry` extracts
   every ``note_access`` site with its cell-name *shape* resolved, and
   carries the declared registry (``DECLARED_CELLS`` plus per-module
   ``RACE_CELLS`` literals).

The diff emits RACE2xx findings:

========  ============================================================
RACE201   multi-root-reachable attribute write in a function with no
          ``note_access`` in scope and no declared cell covering the
          attribute — the sanitizer cannot see this mutation
RACE202   a declared cell that no site ever write-notes — a dead or
          stale declaration giving false confidence of coverage
RACE203   a write to an attribute a declared cell *does* guard, in a
          function outside any ``note_access`` scope — the cell exists
          but this mutation bypasses it
RACE204   a cell-name template that can collide across entities: two
          distinct families producing the same concrete name, or
          adjacent f-string holes with no separating literal
========  ============================================================

Coverage granularity is the *function*: a function that notes any cell
is assumed to note the cells its own writes need (the runtime sanitizer
then checks the actual interleavings).  Kernel modules (``simcore.*``)
are exempt — the event loop's own bookkeeping is serialized by
construction; cells exist for *model* state.

False positives are silenced inline, loudly and with a reason::

    self.invalidated.add(sid)  # race: waive RACE201 -- monotone insert

Waivers that stop suppressing anything are reported as *stale* and fail
the check (same machinery as simlint's and perf's).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .callgraph import CallGraph, module_matches
from .cell_registry import (
    DECLARED_CELLS,
    CellDecl,
    NoteSite,
    extract_note_sites,
    parse_race_cells,
    registry_drift,
    shapes_intersect,
)
from .linter import Program, TreeLint, settle_waivers
from .rules import ScopeWalker, Violation, terminal_name

__all__ = [
    "RACE_RULES",
    "CellAudit",
    "audit_files",
    "audit_source",
    "audit_tree",
]

#: rule code -> one-line rationale (mirrored in docs/INTERNALS.md)
RACE_RULES: dict[str, str] = {
    "RACE201": "attribute write reachable from >=2 concurrent process "
    "roots with no note_access in scope and no declared cell — the race "
    "sanitizer cannot see this mutation; note a cell or waive with a "
    "reason",
    "RACE202": "declared sanitizer cell that no site ever write-notes — "
    "a dead or stale declaration giving false confidence of coverage; "
    "delete it or note the writes",
    "RACE203": "write to an attribute a declared cell guards, outside any "
    "note_access scope — the cell exists but this mutation bypasses it",
    "RACE204": "cell-name template can collide across entities (two "
    "families intersect, or adjacent f-string holes have no separating "
    "literal) — distinct entities would share one cell and false-positive "
    "or mask each other",
}

#: construction/teardown functions whose writes are setup, not shared
#: mutation — they run before (or after) any concurrent root exists
_SETUP_EXEMPT = {"__init__", "__post_init__"}

#: method names that mutate their receiver in place
_MUTATORS = {
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popleft", "remove", "setdefault", "update",
}

#: module parts exempt from write collection: the kernel's own
#: bookkeeping is serialized by the event loop itself
_KERNEL_PARTS = {"simcore"}


def _is_kernel(module: str) -> bool:
    return any(part in _KERNEL_PARTS for part in module.split("."))


@dataclass(frozen=True)
class _Write:
    """One attribute write site inside a top-level function."""

    path: str
    line: int
    col: int
    module: str
    qual: str  #: enclosing function qualname (callgraph convention)
    attr: str  #: dotted self-rooted chain ("x" or "x.y")
    verb: str  #: "assign" | "augment" | "del" | a mutator name


@dataclass(frozen=True)
class _Spawn:
    """One process-spawn or handler-registration site."""

    path: str
    line: int
    module: str
    qual: str  #: enclosing function qualname ("" at module level)
    ref: tuple | None  #: callgraph-style reference to the generator
    replicated: bool  #: spawned in a loop / re-entrant handler
    kind: str  #: "process" | "handler"


class _AuditScanner(ScopeWalker):
    """Writes and spawn roots for one module, keyed like the call
    graph's functions (nested defs belong to their top-level one)."""

    def __init__(self, module: str, path: str):
        super().__init__()
        self.module = module
        self.path = path
        self.writes: list[_Write] = []
        self.spawns: list[_Spawn] = []
        #: local alias -> self attribute it names (``w = self._wakeups``)
        self._aliases: dict[str, str] = {}
        self._loop_depth = 0

    def function(self, node) -> None:
        saved = self._aliases, self._loop_depth
        self._aliases, self._loop_depth = {}, 0
        self.generic_visit(node)
        self._aliases, self._loop_depth = saved

    # -- write detection ---------------------------------------------------
    def _written_attr(self, target: ast.expr) -> str | None:
        if isinstance(target, ast.Attribute):
            return self.self_chain(target)
        if isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Attribute):
                return self.self_chain(base)
            if isinstance(base, ast.Name):
                return self._aliases.get(base.id)
        return None

    def _record_write(self, node: ast.AST, attr: str, verb: str) -> None:
        if not self.qual:
            return  # module-level: import time, single-threaded
        if self.qual.rsplit(".", 1)[-1] in _SETUP_EXEMPT:
            return
        self.writes.append(
            _Write(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                module=self.module,
                qual=self.qual,
                attr=attr,
                verb=verb,
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            attr = self._written_attr(target)
            if attr is not None:
                self._record_write(node, attr, "assign")
            # Alias tracking: ``w = self._wakeups`` makes later
            # ``w[k] = ...`` a write to _wakeups.
            if isinstance(target, ast.Name):
                chain = self.self_chain(node.value)
                if chain is not None and "." not in chain:
                    self._aliases[target.id] = chain
                else:
                    self._aliases.pop(target.id, None)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            attr = self._written_attr(node.target)
            if attr is not None:
                self._record_write(node, attr, "assign")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = self._written_attr(node.target)
        if attr is not None:
            self._record_write(node, attr, "augment")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            attr = self._written_attr(target)
            if attr is not None:
                self._record_write(node, attr, "del")
        self.generic_visit(node)

    # -- loops (spawn replication) ------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        self._loop_depth += 1
        for stmt in [*node.body, *node.orelse]:
            self.visit(stmt)
        self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._loop_depth += 1
        for stmt in [*node.body, *node.orelse]:
            self.visit(stmt)
        self._loop_depth -= 1

    def _visit_comp(self, node) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_ListComp = visit_SetComp = visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp

    # -- spawn roots ---------------------------------------------------------
    def _record_spawn(self, node, ref, replicated, kind) -> None:
        self.spawns.append(
            _Spawn(
                path=self.path,
                line=node.lineno,
                module=self.module,
                qual=self.qual,
                ref=ref,
                replicated=replicated,
                kind=kind,
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # In-place mutation of a self attribute (or a local alias of one)
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            base = func.value
            attr: str | None = None
            if isinstance(base, ast.Attribute):
                attr = self.self_chain(base)
            elif isinstance(base, ast.Subscript):
                inner = base.value
                if isinstance(inner, ast.Attribute):
                    attr = self.self_chain(inner)
                elif isinstance(inner, ast.Name):
                    attr = self._aliases.get(inner.id)
            elif isinstance(base, ast.Name):
                attr = self._aliases.get(base.id)
            if attr is not None:
                self._record_write(node, attr, func.attr)
        # Process spawn: <...env>.process(gen, ...)
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "process"
            and node.args
        ):
            owner = terminal_name(func.value) or ""
            gen = node.args[0]
            if owner.endswith("env") or owner == "environment":
                self._record_spawn(
                    node,
                    self.reference(gen.func) if isinstance(gen, ast.Call) else None,
                    replicated=self._loop_depth > 0,
                    kind="process",
                )
        # RPC handler registration: <...endpoint>.register(op, handler)
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "register"
            and len(node.args) >= 2
            and "endpoint" in (terminal_name(func.value) or "").lower()
        ):
            for arg in node.args[1:]:
                ref = self.reference(arg)
                if ref is not None and ref[0] != "dotted":
                    # Handlers re-enter per incoming message: replicated.
                    self._record_spawn(node, ref, replicated=True,
                                       kind="handler")
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# the audit
# ---------------------------------------------------------------------------

@dataclass
class CellAudit(TreeLint):
    """The result of a ``--cells`` pass over one file set."""

    freshness: list[str]  #: registry-drift errors (separate CI gate)
    n_roots: int  #: distinct concurrent root functions found
    n_writes: int  #: attribute write sites collected


def _closure(graph: CallGraph, root: str) -> list[str]:
    seen = {root}
    frontier = [root]
    while frontier:
        info = graph.functions.get(frontier.pop())
        if info is None:
            continue
        for call in info.calls:
            if call.target is not None and call.target not in seen:
                seen.add(call.target)
                frontier.append(call.target)
    return sorted(seen)


def declared_cells(program: Program) -> list[CellDecl]:
    """The file set's ``RACE_CELLS`` declarations, then every registry
    declaration whose component is in the file set."""
    decls = [d for f in program.files for d in parse_race_cells(f.tree, f.path)]
    modules = [f.module for f in program.files]
    decls += [
        d for d in DECLARED_CELLS
        if any(module_matches(m, (d.component,)) for m in modules)
    ]
    return decls


def _note_sites(program: Program) -> list[NoteSite]:
    return extract_note_sites((f.path, f.tree) for f in program.files)


def program_freshness(program: Program) -> list[str]:
    """Registry drift alone: the note sites diffed against the declared
    cells, with no call graph and no RACE2xx analysis."""
    return registry_drift(_note_sites(program), declared_cells(program))


def audit_program(program: Program) -> CellAudit:
    """Run the shared-state audit over a parsed file set."""
    graph = program.graph
    writes: list[_Write] = []
    spawns: list[_Spawn] = []
    for f in program.files:
        if f.scope != "sim" or _is_kernel(f.module):
            continue
        scanner = _AuditScanner(f.module, f.path)
        scanner.visit(f.tree)
        writes.extend(scanner.writes)
        spawns.extend(scanner.spawns)

    decls = declared_cells(program)
    note_sites = _note_sites(program)
    noted_funcs = {f"{s.module}::{s.func}" for s in note_sites}

    # -- concurrency roots and their closures -------------------------------
    root_weight: dict[str, int] = {}
    for spawn in spawns:
        mod = graph.modules.get(spawn.module)
        target = None
        if spawn.ref is not None and mod is not None:
            target = graph._resolve(mod, spawn.ref)
        if target is not None:
            key = target.key
        elif spawn.qual:
            # Unresolvable generator (local name, nested def): the
            # spawned body is attributed to the enclosing function, so
            # the enclosing function becomes the root.
            key = f"{spawn.module}::{spawn.qual}"
            if key not in graph.functions:
                continue
        else:
            continue
        root_weight[key] = root_weight.get(key, 0) + (
            2 if spawn.replicated else 1
        )

    func_weight: dict[str, int] = {}
    func_roots: dict[str, set[str]] = {}
    for rkey, weight in root_weight.items():
        for fkey in _closure(graph, rkey):
            func_weight[fkey] = func_weight.get(fkey, 0) + weight
            func_roots.setdefault(fkey, set()).add(rkey)

    # -- RACE201 / RACE203: un-noted writes ---------------------------------
    raw: list[Violation] = []
    for w in writes:
        key = f"{w.module}::{w.qual}"
        if key in noted_funcs:
            continue  # the function notes a cell; runtime checks the rest
        decl = next(
            (
                d
                for d in decls
                if w.attr in d.attrs and module_matches(w.module, (d.component,))
            ),
            None,
        )
        if decl is not None:
            raw.append(
                Violation(
                    "RACE203", w.path, w.line, w.col,
                    f"{w.verb} of self.{w.attr} in {w.qual}() bypasses "
                    f"declared cell '{decl.pattern}' — no note_access in "
                    "scope, so the race sanitizer cannot see this mutation",
                )
            )
        elif func_weight.get(key, 0) >= 2:
            roots = sorted(
                graph.functions[r].qualname for r in func_roots.get(key, ())
            )
            shown = ", ".join(roots[:3]) + (", ..." if len(roots) > 3 else "")
            raw.append(
                Violation(
                    "RACE201", w.path, w.line, w.col,
                    f"{w.verb} of self.{w.attr} in {w.qual}() is reachable "
                    f"from {func_weight[key]} concurrent process instances "
                    f"(roots: {shown}) with no declared cell and no "
                    "note_access in scope",
                )
            )

    # -- RACE202: dead declarations -----------------------------------------
    path_of_module = {f.module: f.path for f in program.files}
    write_shapes = {
        shape.tokens
        for site in note_sites
        if not site.forwarded and site.mode in ("w", "?")
        for shape in site.shapes
    }
    for decl in decls:
        if decl.shape.tokens in write_shapes:
            continue
        if decl.line and decl.path in path_of_module.values():
            anchor_path, anchor_line = decl.path, decl.line
        else:
            anchor_path = next(
                (
                    p
                    for m, p in sorted(path_of_module.items())
                    if module_matches(m, (decl.component,))
                ),
                decl.path,
            )
            anchor_line = 1
        raw.append(
            Violation(
                "RACE202", anchor_path, anchor_line, 0,
                f"declared cell '{decl.pattern}' (guarding "
                f"{', '.join(decl.attrs) or 'no attrs'}) is never "
                "write-noted anywhere in the file set — dead or stale "
                "declaration",
            )
        )

    # -- RACE204: colliding name templates ----------------------------------
    first_site: dict[tuple[str, ...], object] = {}
    for site in note_sites:
        if site.forwarded:
            continue
        for shape in site.shapes:
            first_site.setdefault(shape.tokens, (site, shape))
    families = list(first_site.values())
    for site, shape in families:
        if shape.has_adjacent_holes:
            raw.append(
                Violation(
                    "RACE204", site.path, site.line, site.col,
                    f"cell family '{shape.render()}' interpolates two "
                    "entity ids with no separating literal — distinct id "
                    "pairs can produce the same cell name",
                )
            )
    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            site_a, shape_a = families[i]
            site_b, shape_b = families[j]
            if shapes_intersect(shape_a, shape_b):
                raw.append(
                    Violation(
                        "RACE204", site_b.path, site_b.line, site_b.col,
                        f"cell family '{shape_b.render()}' can collide "
                        f"with '{shape_a.render()}' "
                        f"(noted at {site_a.path}:{site_a.line}) — two "
                        "entities would share one cell",
                    )
                )

    violations, stale = settle_waivers(program, "race", raw)
    return CellAudit(
        violations=violations,
        stale_waivers=stale,
        n_files=len(program.files),
        freshness=registry_drift(note_sites, decls),
        n_roots=len(root_weight),
        n_writes=len(writes),
    )


def audit_files(files: list[tuple[str, str]]) -> CellAudit:
    """Run the shared-state audit over ``(path, source)`` pairs."""
    return audit_program(Program(files))


def audit_tree(paths: list[str]) -> CellAudit:
    """Audit every ``.py`` file under the given files/directories."""
    return audit_program(Program.from_paths(paths))


def audit_source(source: str, path: str = "<string>") -> list[Violation]:
    """Audit one module's source text (the fixture-test entry point)."""
    return audit_files([(path, source)]).violations

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
import re
from dataclasses import dataclass

from .callgraph import CallGraph, module_matches, module_name_for
from .cell_registry import (
    DECLARED_CELLS,
    CellDecl,
    extract_note_sites,
    parse_race_cells,
    registry_freshness,
    shapes_intersect,
)
from .linter import (
    StaleWaiver,
    _apply_waivers,
    _waiver_comment_lines,
    no_waiver,
    read_sources,
    scope_of,
)
from .rules import Violation

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

_RACE_WAIVE_RE = re.compile(r"#\s*race:\s*waive\b([^#\n]*)")
_RACE_CODE_RE = re.compile(r"RACE\d{3}")

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


class _AuditScanner(ast.NodeVisitor):
    """Writes and spawn roots for one module.

    Mirrors :class:`.callgraph._ModuleScanner`'s attribution rules —
    nested defs belong to their enclosing top-level function — so the
    function keys line up with the call graph's.
    """

    def __init__(self, module: str, path: str):
        self.module = module
        self.path = path
        self.writes: list[_Write] = []
        self.spawns: list[_Spawn] = []
        self._class_stack: list[str] = []
        self._func_stack: list[str] = []  # top-level qualnames only
        self._self = "self"
        #: local alias -> self attribute it names (``w = self._wakeups``)
        self._aliases: dict[str, str] = {}
        self._loop_depth = 0

    # -- structure ---------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node) -> None:
        if self._func_stack:
            # Nested def: its body belongs to the enclosing function.
            self.generic_visit(node)
            return
        qual = ".".join([*self._class_stack, node.name])
        args = [*node.args.posonlyargs, *node.args.args]
        saved_self, saved_aliases, saved_loop = (
            self._self, self._aliases, self._loop_depth,
        )
        self._self = args[0].arg if (args and self._class_stack) else "self"
        self._aliases = {}
        self._loop_depth = 0
        self._func_stack.append(qual)
        self.generic_visit(node)
        self._func_stack.pop()
        self._self, self._aliases, self._loop_depth = (
            saved_self, saved_aliases, saved_loop,
        )

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_func

    # -- write detection ---------------------------------------------------
    def _is_self(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in (
            self._self, "self", "cls",
        )

    def _self_chain(self, node: ast.expr) -> str | None:
        """Dotted attribute chain rooted at self (``"x"``, ``"x.y"``)."""
        parts: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if parts and self._is_self(cur):
            return ".".join(reversed(parts))
        return None

    def _written_attr(self, target: ast.expr) -> str | None:
        if isinstance(target, ast.Attribute):
            return self._self_chain(target)
        if isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Attribute):
                return self._self_chain(base)
            if isinstance(base, ast.Name):
                return self._aliases.get(base.id)
        return None

    def _record_write(self, node: ast.AST, attr: str, verb: str) -> None:
        if not self._func_stack:
            return  # module-level: import time, single-threaded
        qual = self._func_stack[-1]
        if qual.rsplit(".", 1)[-1] in _SETUP_EXEMPT:
            return
        self.writes.append(
            _Write(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                module=self.module,
                qual=qual,
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
                chain = (
                    self._self_chain(node.value)
                    if isinstance(node.value, ast.Attribute)
                    else None
                )
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
    @staticmethod
    def _owner_name(node: ast.expr) -> str:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return ""

    def _gen_ref(self, gen: ast.expr) -> tuple | None:
        """Callgraph-style reference to a spawned generator call."""
        if not isinstance(gen, ast.Call):
            return None
        func = gen.func
        if isinstance(func, ast.Name):
            return ("name", func.id)
        if isinstance(func, ast.Attribute):
            chain = [func.attr]
            root = func.value
            while isinstance(root, ast.Attribute):
                chain.append(root.attr)
                root = root.value
            if isinstance(root, ast.Name):
                chain.append(root.id)
                chain.reverse()
                if (
                    root.id in ("self", "cls", self._self)
                    and len(chain) == 2
                    and self._class_stack
                ):
                    return ("self", self._class_stack[-1], chain[1])
                return ("dotted", tuple(chain))
        return None

    def _record_spawn(self, node, ref, replicated, kind) -> None:
        self.spawns.append(
            _Spawn(
                path=self.path,
                line=node.lineno,
                module=self.module,
                qual=self._func_stack[-1] if self._func_stack else "",
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
                attr = self._self_chain(base)
            elif isinstance(base, ast.Subscript):
                inner = base.value
                if isinstance(inner, ast.Attribute):
                    attr = self._self_chain(inner)
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
            owner = self._owner_name(func.value)
            if owner.endswith("env") or owner == "environment":
                self._record_spawn(
                    node,
                    self._gen_ref(node.args[0]),
                    replicated=self._loop_depth > 0,
                    kind="process",
                )
        # RPC handler registration: <...endpoint>.register(op, handler)
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "register"
            and len(node.args) >= 2
            and "endpoint" in self._owner_name(func.value).lower()
        ):
            for arg in node.args[1:]:
                ref: tuple | None = None
                if (
                    isinstance(arg, ast.Attribute)
                    and self._is_self(arg.value)
                    and self._class_stack
                ):
                    ref = ("self", self._class_stack[-1], arg.attr)
                elif isinstance(arg, ast.Name):
                    ref = ("name", arg.id)
                if ref is not None:
                    # Handlers re-enter per incoming message: replicated.
                    self._record_spawn(node, ref, replicated=True,
                                       kind="handler")
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# the audit
# ---------------------------------------------------------------------------

@dataclass
class CellAudit:
    """The result of a ``--cells`` pass over one file set."""

    violations: list[Violation]
    stale_waivers: list[StaleWaiver]
    freshness: list[str]  #: registry-drift errors (separate CI gate)
    n_files: int
    n_roots: int  #: distinct concurrent root functions found
    n_writes: int  #: attribute write sites collected

    @property
    def clean(self) -> bool:
        return not self.violations and not self.stale_waivers


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


def audit_files(files: list[tuple[str, str]]) -> CellAudit:
    """Run the shared-state audit over ``(path, source)`` pairs."""
    parsed: list[tuple[str, str, ast.Module]] = []
    for path, source in files:
        parsed.append((path, source, ast.parse(source, filename=path)))

    graph = CallGraph.build(
        (path, tree, scope_of(path), no_waiver) for path, _, tree in parsed
    )

    writes: list[_Write] = []
    spawns: list[_Spawn] = []
    decls: list[CellDecl] = []
    for path, _, tree in parsed:
        module = module_name_for(path)
        decls.extend(parse_race_cells(tree, path))
        if scope_of(path) != "sim" or _is_kernel(module):
            continue
        scanner = _AuditScanner(module, path)
        scanner.visit(tree)
        writes.extend(scanner.writes)
        spawns.extend(scanner.spawns)

    # Registry declarations are in scope when their component is.
    for decl in DECLARED_CELLS:
        if any(module_matches(m, (decl.component,)) for m in graph.modules):
            decls.append(decl)

    note_sites = extract_note_sites((p, t) for p, _, t in parsed)
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
    path_of_module = {module_name_for(p): p for p, _, _ in parsed}
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

    freshness = registry_freshness(
        ((p, t) for p, _, t in parsed), registry=decls
    )

    # -- waivers -------------------------------------------------------------
    by_path: dict[str, list[Violation]] = {}
    for v in raw:
        by_path.setdefault(v.path, []).append(v)
    violations: list[Violation] = []
    stale: list[StaleWaiver] = []
    for path, source, _ in parsed:
        lines = source.splitlines()
        found = sorted(
            by_path.get(path, ()), key=lambda v: (v.line, v.col, v.rule)
        )
        kept, used = _apply_waivers(
            found, lines, _RACE_WAIVE_RE, _RACE_CODE_RE
        )
        violations.extend(kept)
        for lineno, codes in sorted(
            _waiver_comment_lines(source, _RACE_WAIVE_RE, _RACE_CODE_RE).items()
        ):
            if lineno not in used:
                stale.append(StaleWaiver(path, lineno, frozenset(codes)))
    violations.extend(
        sorted(
            (v for v in raw if v.path not in {p for p, _, _ in parsed}),
            key=lambda v: (v.path, v.line, v.rule),
        )
    )

    return CellAudit(
        violations=violations,
        stale_waivers=stale,
        freshness=freshness,
        n_files=len(files),
        n_roots=len(root_weight),
        n_writes=len(writes),
    )


def audit_tree(paths: list[str]) -> CellAudit:
    """Audit every ``.py`` file under the given files/directories."""
    return audit_files(read_sources(paths))


def audit_source(source: str, path: str = "<string>") -> list[Violation]:
    """Audit one module's source text (the fixture-test entry point)."""
    return audit_files([(path, source)]).violations

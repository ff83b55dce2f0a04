"""The declared sanitizer-cell inventory, machine-readable.

The runtime race sanitizer (:mod:`.races`) watches exactly the cells
the code remembers to ``note_access`` — its guarantee is as strong as
that inventory.  This module makes the inventory a *checked contract*:

* :data:`DECLARED_CELLS` is the registry — one :class:`CellDecl` per
  cell family, mirroring the cell table in docs/INTERNALS.md §1, with
  the attribute names each cell guards.  The static auditor
  (:mod:`.cells`) diffs it against the code.
* :func:`extract_note_sites` recovers the *actual* inventory from the
  AST: every ``note_access(...)`` call in a file set, with the cell
  name resolved — through f-strings, locals, attribute/dict stores,
  helper methods, and :func:`repro.simcore.cell_name` calls — into a
  :class:`Shape` (literal runs + ``<hole>`` placeholders).
* :func:`registry_freshness` reports both drift directions: a noted
  cell family no declaration covers, and (via RACE202 in the auditor)
  a declaration no write site ever notes.

Name resolution is deliberately conservative: a cell-name expression
the resolver cannot reduce to a string template is reported as
*unresolved* rather than silently matched, so the registry can never
look fresh by accident.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..simcore.cells import cell_name
from .rules import ScopeWalker, module_name_for, terminal_name

__all__ = [
    "CellDecl",
    "DECLARED_CELLS",
    "NoteSite",
    "Shape",
    "extract_note_sites",
    "parse_race_cells",
    "registry_drift",
    "registry_freshness",
    "shape_of_pattern",
    "shapes_intersect",
]

#: marker for one entity-id hole in a cell-name template
HOLE = "\x00"


@dataclass(frozen=True)
class Shape:
    """A normalized cell-name template: literal runs split by holes.

    ``tokens`` alternates literal strings with :data:`HOLE` markers;
    the hole's *content* (``<j>`` vs ``{tid}``) is erased, so a
    declared pattern and a noted f-string compare equal exactly when
    their literal skeletons agree.
    """

    tokens: tuple[str, ...]

    def render(self) -> str:
        return "".join("<…>" if t == HOLE else t for t in self.tokens)

    @property
    def has_adjacent_holes(self) -> bool:
        """Two holes with no literal between them: the name cannot be
        parsed back into its entity ids, so distinct id pairs collide
        (``t=1,n=12`` vs ``t=11,n=2``)."""
        return any(
            a == HOLE and b == HOLE
            for a, b in zip(self.tokens, self.tokens[1:])
        )


def _normalize(parts: list[str]) -> Shape:
    """Merge adjacent literals, drop empties, return a Shape."""
    tokens: list[str] = []
    for part in parts:
        if part == "":
            continue
        if part != HOLE and tokens and tokens[-1] != HOLE:
            tokens[-1] += part
        else:
            tokens.append(part)
    return Shape(tuple(tokens))


def shape_of_pattern(pattern: str) -> Shape:
    """Shape of a registry pattern: ``<...>`` spans become holes."""
    parts: list[str] = []
    rest = pattern
    while True:
        lo = rest.find("<")
        hi = rest.find(">", lo + 1)
        if lo < 0 or hi < 0:
            parts.append(rest)
            break
        parts.append(rest[:lo])
        parts.append(HOLE)
        rest = rest[hi + 1:]
    return _normalize(parts)


def shapes_intersect(a: Shape, b: Shape) -> bool:
    """Can two distinct templates produce the same concrete name?

    Holes stand for arbitrary *non-empty* strings; the check is the
    standard product construction over the two wildcard patterns.
    Two families that intersect can collide across entities — the
    RACE204 condition.
    """
    def atoms(shape: Shape) -> list[str]:
        out: list[str] = []
        for tok in shape.tokens:
            if tok == HOLE:
                out.append("\x01")  # exactly one arbitrary char
                out.append("\x02")  # zero or more arbitrary chars
            else:
                out.extend(tok)
        return out

    aa, bb = atoms(a), atoms(b)
    seen: set[tuple[int, int]] = set()
    stack = [(0, 0)]
    while stack:
        i, j = stack.pop()
        if (i, j) in seen:
            continue
        seen.add((i, j))
        if i == len(aa) and j == len(bb):
            return True
        # Stars may match the empty string.
        if i < len(aa) and aa[i] == "\x02":
            stack.append((i + 1, j))
        if j < len(bb) and bb[j] == "\x02":
            stack.append((i, j + 1))
        if i < len(aa) and j < len(bb):
            x, y = aa[i], bb[j]
            wild_x = x in ("\x01", "\x02")
            wild_y = y in ("\x01", "\x02")
            if wild_x or wild_y or x == y:
                # Jointly consume one character; a star stays put.
                for ni in ((i,) if x == "\x02" else (i + 1,)):
                    for nj in ((j,) if y == "\x02" else (j + 1,)):
                        stack.append((ni, nj))
    return False


# ---------------------------------------------------------------------------
# the declared registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellDecl:
    """One declared cell family."""

    pattern: str  #: name template, ``<x>`` spans are entity-id holes
    component: str  #: dotted module suffix owning the writers
    attrs: tuple[str, ...]  #: instance attributes the cell guards
    why: str  #: one-line rationale (mirrors the INTERNALS table)
    path: str = ""  #: declaration site (fixture ``RACE_CELLS``) if any
    line: int = 0

    @property
    def shape(self) -> Shape:
        return shape_of_pattern(self.pattern)


_REGISTRY_PATH = os.path.abspath(__file__)


def _decl(pattern: str, component: str, attrs: tuple[str, ...], why: str) -> CellDecl:
    return CellDecl(pattern, component, attrs, why, path=_REGISTRY_PATH, line=1)


#: The in-tree inventory.  One entry per cell family in the INTERNALS
#: §1 cell table; ``attrs`` lists the shared mutable attributes each
#: cell guards (the auditor reports RACE203 when one is written in a
#: function that never notes an access).  Entity-id formatting for the
#: parameterized families comes from :func:`repro.simcore.cell_name`,
#: the same helper the writers use, so the two cannot drift.
DECLARED_CELLS: tuple[CellDecl, ...] = (
    _decl(
        "cache.<name>",
        "core.cache",
        ("_sizes", "_stored", "_used"),
        "the byte budget couples entries: any insert can evict any path",
    ),
    _decl(
        "s<id>.inflight:<path>",
        "core.server",
        ("_inflight",),
        "per-path fetch-dedup slot decides which request fetches and "
        "which wait",
    ),
    _decl(
        "view.<owner>.m<sid>",
        "membership.view",
        ("_state", "_inc", "_stamp", "_since"),
        "one member's lattice slot in one membership view; adoptions "
        "are tagged (sid, inc, state)",
    ),
    _decl(
        "limiter.<name>",
        "cluster.network",
        ("_ready",),
        "throttle is read-modify-write on the shared rate reservation",
    ),
    _decl(
        cell_name("tenancy.quota", "t", "<j>"),
        "tenancy.quota",
        ("_used_bytes", "_used_files"),
        "charges and releases land from whichever server's data mover "
        "inserts or evicts; the byte budget couples the byte/file pair",
    ),
    _decl(
        cell_name("prefetch.queue", "s", "<id>"),
        "prefetch.scheduler",
        ("_credits",),
        "one staging worker's credit pool; single-writer by design, "
        "celled so a second writer is caught",
    ),
    _decl(
        "fuzz.reads.<label>",
        "fuzz.executor",
        ("started", "done"),
        "per-reader invariant counters; the epoch watchdog reads them "
        "all at the deadline",
    ),
    _decl(
        "fuzz.autopilot.corpus",
        "fuzz.autopilot",
        ("corpus",),
        "digest-keyed corpus folds; driver-side today, celled so "
        "in-loop feedback stays sanitizer-visible",
    ),
)


def parse_race_cells(tree: ast.Module, path: str) -> list[CellDecl]:
    """Module-level ``RACE_CELLS`` declarations in one file.

    The convention lets a module (or a lint fixture) declare cells
    adjacent to the code that notes them::

        RACE_CELLS = (
            ("board.slot.k<k>", ("slots",), "why this is one cell"),
        )

    Each entry is ``(pattern, attrs)`` or ``(pattern, attrs, why)``.
    """
    out: list[CellDecl] = []
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "RACE_CELLS"
            for t in node.targets
        ):
            continue
        try:
            value = ast.literal_eval(node.value)
        except (ValueError, SyntaxError):
            continue
        for entry in value:
            if not entry or not isinstance(entry[0], str):
                continue
            attrs = tuple(entry[1]) if len(entry) > 1 else ()
            why = entry[2] if len(entry) > 2 else ""
            out.append(
                CellDecl(
                    entry[0],
                    module_name_for(path),
                    attrs,
                    why,
                    path=path,
                    line=node.lineno,
                )
            )
    return out


# ---------------------------------------------------------------------------
# note-site extraction
# ---------------------------------------------------------------------------

@dataclass
class NoteSite:
    """One ``note_access(...)`` call, with its resolved name family."""

    path: str
    line: int
    col: int
    module: str
    func: str  #: enclosing qualname ("" at module level)
    mode: str  #: "r" | "w" | "?" when not a literal
    shapes: tuple[Shape, ...]  #: resolved templates (empty = unresolved)
    raw: str  #: the name expression as written
    forwarded: bool = False  #: the name is a bare parameter pass-through
    #: (the engine's ``note_access`` shim) — not an origination site

    @property
    def resolved(self) -> bool:
        return bool(self.shapes)


@dataclass
class _TemplateIndex:
    """File-set-wide stores feeding cell-name resolution."""

    #: (class, attr) -> exprs directly assigned (self.attr = expr)
    direct: dict[tuple[str, str], list[ast.expr]] = field(default_factory=dict)
    #: (class, attr) -> element exprs (subscript stores, dict values,
    #: dict-comp values, setdefault defaults)
    elements: dict[tuple[str, str], list[ast.expr]] = field(default_factory=dict)
    #: (class, func) -> returned string-template exprs
    returns: dict[tuple[str, str], list[ast.expr]] = field(default_factory=dict)
    #: per-expr context: id(expr) -> (class, self-name) where collected
    ctx: dict[int, tuple[str, str | None]] = field(default_factory=dict)


class _IndexBuilder(ScopeWalker):
    def __init__(self, index: _TemplateIndex):
        super().__init__()
        self.index = index

    def function(self, node) -> None:
        # a nested def's returns are indexed under both names
        for stmt in ast.walk(node):
            if (
                isinstance(stmt, ast.Return)
                and stmt.value is not None
                and isinstance(stmt.value, (ast.JoinedStr, ast.Constant, ast.Call))
            ):
                self.index.returns.setdefault(
                    (self.klass, node.name), []
                ).append(stmt.value)
                self._ctx(stmt.value)
        self.generic_visit(node)

    nested_def = function

    def _ctx(self, expr: ast.expr) -> None:
        # simlint: waive SIM009 -- lookup-only map (AST node identity); never iterated
        self.index.ctx[id(expr)] = (self.klass, self.self_name)

    def _store(self, target: ast.expr, value: ast.expr | None) -> None:
        if value is None:
            return
        if isinstance(target, ast.Attribute) and self.is_self(target.value):
            key = (self.klass, target.attr)
            if isinstance(value, ast.Dict):
                for v in value.values:
                    if v is not None:
                        self.index.elements.setdefault(key, []).append(v)
                        self._ctx(v)
            elif isinstance(value, ast.DictComp):
                self.index.elements.setdefault(key, []).append(value.value)
                self._ctx(value.value)
            else:
                self.index.direct.setdefault(key, []).append(value)
                self._ctx(value)
        elif (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and self.is_self(target.value.value)
        ):
            key = (self.klass, target.value.attr)
            self.index.elements.setdefault(key, []).append(value)
            self._ctx(value)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._store(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._store(node.target, node.value)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "setdefault"
            and isinstance(func.value, ast.Attribute)
            and self.is_self(func.value.value)
            and len(node.args) >= 2
        ):
            key = (self.klass, func.value.attr)
            self.index.elements.setdefault(key, []).append(node.args[1])
            self._ctx(node.args[1])
        self.generic_visit(node)


class _Resolver:
    """Reduce a cell-name expression to its :class:`Shape` templates."""

    _MAX_DEPTH = 6

    def __init__(self, index: _TemplateIndex):
        self.index = index

    def resolve(
        self,
        expr: ast.expr,
        klass: str,
        self_name: str | None,
        local_assigns: dict[str, list[ast.expr]],
        depth: int = 0,
    ) -> list[Shape]:
        if depth > self._MAX_DEPTH:
            return []
        rec = lambda e, k=klass, s=self_name: self.resolve(  # noqa: E731
            e, k, s, local_assigns, depth + 1
        )

        def is_self(node: ast.expr) -> bool:
            return isinstance(node, ast.Name) and node.id == self_name

        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return [_normalize([expr.value])]
        if isinstance(expr, ast.JoinedStr):
            parts: list[str] = []
            for piece in expr.values:
                if isinstance(piece, ast.Constant):
                    parts.append(str(piece.value))
                else:
                    parts.append(HOLE)
            return [_normalize(parts)]
        if isinstance(expr, ast.Name):
            out: list[Shape] = []
            for value in local_assigns.get(expr.id, ()):
                out.extend(rec(value))
            return _dedup(out)
        if isinstance(expr, ast.Attribute):
            if is_self(expr.value):
                return self._from_store(
                    expr.attr, klass, "direct", local_assigns, depth
                )
            # foo.attr on a non-self object: fall back to any function/
            # property of that name returning a template (duck-typed
            # hop, e.g. a dict-comp over ``u.cell``).
            return self._from_returns(expr.attr, None, local_assigns, depth)
        if isinstance(expr, ast.Subscript):
            container = expr.value
            if isinstance(container, ast.Attribute) and is_self(container.value):
                return self._from_store(
                    container.attr, klass, "elements", local_assigns, depth
                )
            if isinstance(container, ast.Name):
                out = []
                for value in local_assigns.get(container.id, ()):
                    if isinstance(value, ast.Dict):
                        for v in value.values:
                            if v is not None:
                                out.extend(rec(v))
                    elif isinstance(value, ast.DictComp):
                        out.extend(rec(value.value))
                return _dedup(out)
            return []
        if isinstance(expr, ast.Call):
            func = expr.func
            name = terminal_name(func)
            if name == "cell_name":
                return self._from_cell_name(expr)
            if (
                name == "get"
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and is_self(func.value.value)
            ):
                return self._from_store(
                    func.value.attr, klass, "elements", local_assigns, depth
                )
            if name is not None:
                # Helper method/function returning the template.
                receiver_is_self = isinstance(func, ast.Attribute) and is_self(
                    func.value
                )
                return self._from_returns(
                    name, klass if receiver_is_self else None,
                    local_assigns, depth,
                )
        return []

    def _from_cell_name(self, call: ast.Call) -> list[Shape]:
        if len(call.args) < 3:
            return []
        family, entity, ident = call.args[:3]
        if not (
            isinstance(family, ast.Constant) and isinstance(family.value, str)
            and isinstance(entity, ast.Constant) and isinstance(entity.value, str)
        ):
            return []
        tail: list[str]
        if isinstance(ident, ast.Constant):
            tail = [str(ident.value)]
        else:
            tail = [HOLE]
        # Mirror cell_name()'s join exactly — the helper is the
        # formatting authority (see repro/simcore/cells.py).
        head = cell_name(family.value, entity.value, "")
        return [_normalize([head, *tail])]

    def _from_store(
        self,
        attr: str,
        klass: str,
        kind: str,
        local_assigns: dict[str, list[ast.expr]],
        depth: int,
    ) -> list[Shape]:
        table = getattr(self.index, kind)
        exprs = table.get((klass, attr))
        if exprs is None:
            # Same attribute declared in a different class (duck-typed
            # receiver): accept a unique cross-class match.
            hits = [v for (k, a), vs in table.items() if a == attr for v in vs]
            exprs = hits or None
        out: list[Shape] = []
        for value in exprs or ():
            k, s = self.index.ctx.get(id(value), (klass, "self"))
            out.extend(self.resolve(value, k, s, local_assigns, depth + 1))
        return _dedup(out)

    def _from_returns(
        self,
        name: str,
        klass: Optional[str],
        local_assigns: dict[str, list[ast.expr]],
        depth: int,
    ) -> list[Shape]:
        exprs: list[ast.expr] = []
        if klass is not None:
            exprs = list(self.index.returns.get((klass, name), ()))
        if not exprs:
            exprs = [
                v
                for (_k, fname), vs in self.index.returns.items()
                if fname == name
                for v in vs
            ]
        out: list[Shape] = []
        for value in exprs:
            k, s = self.index.ctx.get(id(value), ("", "self"))
            out.extend(self.resolve(value, k, s, local_assigns, depth + 1))
        return _dedup(out)


def _dedup(shapes: list[Shape]) -> list[Shape]:
    seen: set[tuple[str, ...]] = set()
    out: list[Shape] = []
    for s in shapes:
        if s.tokens not in seen:
            seen.add(s.tokens)
            out.append(s)
    return out


class _NoteScanner(ScopeWalker):
    """Find ``note_access`` calls and resolve their name argument."""

    def __init__(self, path: str, module: str, index: _TemplateIndex):
        super().__init__()
        self.path = path
        self.module = module
        self.resolver = _Resolver(index)
        self.sites: list[NoteSite] = []
        #: the enclosing top-level function's local assignments and
        #: parameter names
        self._locals: dict[str, list[ast.expr]] = {}
        self._params: set[str] = set()

    def function(self, node) -> None:
        a = node.args
        self._locals = {}
        self._params = {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
        self.generic_visit(node)
        self._locals, self._params = {}, set()

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.qual:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._locals.setdefault(target.id, []).append(node.value)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name == "note_access" and node.args:
            mode = "?"
            if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                mode = str(node.args[1].value)
            for kw in node.keywords:
                if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                    mode = str(kw.value.value)
            cell_arg = node.args[0]
            forwarded = (
                isinstance(cell_arg, ast.Name)
                and cell_arg.id in self._params
                and cell_arg.id not in self._locals
            )
            shapes = () if forwarded else self.resolver.resolve(
                cell_arg, self.klass, self.self_name, self._locals
            )
            self.sites.append(
                NoteSite(
                    path=self.path,
                    line=node.lineno,
                    col=node.col_offset,
                    module=self.module,
                    func=self.qual,
                    mode=mode,
                    shapes=tuple(shapes),
                    raw=ast.unparse(cell_arg),
                    forwarded=forwarded,
                )
            )
        self.generic_visit(node)


def extract_note_sites(
    parsed: Iterable[tuple[str, ast.Module]],
) -> list[NoteSite]:
    """Every ``note_access`` call across ``(path, tree)`` pairs, with
    cell names resolved against a file-set-wide template index."""
    parsed = list(parsed)
    index = _TemplateIndex()
    for path, tree in parsed:
        _IndexBuilder(index).visit(tree)
    sites: list[NoteSite] = []
    for path, tree in parsed:
        scanner = _NoteScanner(path, module_name_for(path), index)
        scanner.visit(tree)
        sites.extend(scanner.sites)
    return sites


def registry_freshness(
    parsed: Iterable[tuple[str, ast.Module]],
    registry: Iterable[CellDecl] = DECLARED_CELLS,
) -> list[str]:
    """Drift between the declared registry and the noted inventory.

    Returns human-readable error lines; empty means fresh.  Covers the
    noted→declared direction (an undeclared family, or an unresolvable
    name expression); the declared→noted direction is the auditor's
    RACE202.
    """
    return registry_drift(extract_note_sites(parsed), registry)


def registry_drift(
    sites: Iterable[NoteSite], registry: Iterable[CellDecl]
) -> list[str]:
    """:func:`registry_freshness` over already-extracted note sites."""
    declared = {d.shape.tokens for d in registry}
    errors: list[str] = []
    for site in sites:
        if site.forwarded:
            continue
        if not site.resolved:
            errors.append(
                f"{site.path}:{site.line}: note_access name {site.raw!r} "
                "could not be resolved to a template — register the "
                "store/helper shape or simplify the expression"
            )
            continue
        for shape in site.shapes:
            if shape.tokens not in declared:
                errors.append(
                    f"{site.path}:{site.line}: note_access names cell "
                    f"family '{shape.render()}' which no "
                    "cell_registry.DECLARED_CELLS entry declares"
                )
    return errors

"""AST rules for the sim-safety linter (``repro check``).

Each rule guards one way the reproduction's bit-for-bit determinism
contract (docs/INTERNALS.md, "Determinism contract") has been broken in
the wild, or plausibly will be:

========  ============================================================
SIM001    wall-clock reads (``time.time`` & friends) in sim code
SIM002    RNG constructed or global-state RNG drawn outside
          :class:`repro.simcore.rand.RandomStreams`
SIM003    salted builtin ``hash()`` used for placement/ordering
SIM004    iteration over an unordered ``set`` (scheduling/RNG hazards)
SIM005    an event created in a process generator but never yielded
SIM006    ``==``/``!=`` on float sim timestamps (``env.now``)
SIM007    blocking calls (``time.sleep``, bare ``.join()``) in sim code
SIM008    float reduction (``sum``/``fsum``/``np.sum``) over an
          unordered ``set`` — accumulation order changes the result
SIM009    dict keyed by ``id(...)`` — key values are memory addresses,
          so any iteration over it replays in allocation order
SIM010    event scheduling (``.succeed()``/``.callbacks.append``/
          ``env.process``) from iteration over an unordered ``set``
SIM011    call into a helper that *transitively* reaches one of the
          above primitives (emitted by the interprocedural taint pass
          with the full source→sink chain)
SIM012    ``set`` stored in an attribute by one method, iterated in
          another — taint carried by container membership across
          method boundaries
SIM013    iterating the result of a call whose callee (transitively)
          *returns* an unordered container — taint carried by the
          return value across function boundaries
SIM014    iterating a generator that (transitively) ``yield from``-s an
          unordered container — taint carried down the yield path
          across delegation hops
SIM015    ``set`` stored as an *element* of a list/dict/tuple and later
          iterated at a sim-scope site — taint carried by container
          elements, which name-based set tracking cannot see
SIM016    ``set`` carried in a dataclass/namedtuple *field* and later
          iterated through the record — taint laundered through typed
          record attributes (field annotations, construction-site
          arguments, positional unpacking)
========  ============================================================

The set-order rules (SIM004, SIM008, SIM010, SIM012, SIM015, SIM016)
are one analysis.  A single walk (:class:`SetOrderWalker`, shared with
the call-graph scanner behind SIM011/SIM013/SIM014) tracks set bindings
in textual order and visits every order-fixing site; at each site one
provenance question decides which rule, if any, the iterated expression
breaks, with SIM004 taking precedence.

The rules are deliberately heuristic: they aim at the handful of
patterns that actually corrupt replay determinism, and anything flagged
in error can be waived inline with ``# simlint: waive SIMxxx -- why``.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterable

__all__ = ["RULES", "Violation", "collect_violations"]

#: rule code -> one-line rationale (mirrored in docs/INTERNALS.md)
RULES: dict[str, str] = {
    "SIM001": "wall-clock read in sim code; simulated time must come from env.now",
    "SIM002": "RNG constructed/drawn outside simcore.rand.RandomStreams; "
    "use a named stream so draws in one component don't perturb another",
    "SIM003": "builtin hash() is salted per interpreter; use "
    "simcore.rand.stable_hash64 for cross-run-stable placement/ordering",
    "SIM004": "iterating an unordered set; order feeds scheduling/RNG — "
    "iterate sorted(...) or keep an ordered structure",
    "SIM005": "event created but discarded inside a process generator; "
    "did you forget to yield it?",
    "SIM006": "== / != on float sim timestamps; compare with <=/>= or a tolerance",
    "SIM007": "blocking call in sim code; real threads/sleeps break the "
    "single-threaded deterministic event loop",
    "SIM008": "float reduction over an unordered set; FP addition is "
    "non-associative, so accumulation order changes the result — "
    "reduce over sorted(...) or an ordered container",
    "SIM009": "dict keyed by id(...); id values are memory addresses that "
    "differ across runs, so iterating the dict (or sorting its keys) "
    "replays in allocation order — key by a stable identity instead",
    "SIM010": "event scheduling from iteration over an unordered set; the "
    "trigger/callback/spawn order becomes the set's hash order, which is "
    "exactly the heap insertion sequence the kernel ties on — iterate "
    "sorted(...) or keep an ordered structure",
    "SIM011": "call into a helper that transitively reaches a "
    "nondeterminism primitive (wall clock, unmanaged RNG, salted hash(), "
    "unordered-set iteration, blocking call); fix at the source or waive "
    "the call site — reported by the interprocedural taint pass",
    "SIM012": "set stored in an attribute by one method and iterated in "
    "another; the container membership carries the unordered taint across "
    "methods, where sequential tracking loses it — iterate sorted(...) "
    "or keep an ordered structure",
    "SIM013": "iterating the result of a call whose callee (transitively) "
    "returns an unordered container; hash order crosses the return "
    "boundary into the caller's loop, where local set tracking cannot "
    "see it — return sorted(...) from the callee or sort at the call "
    "site — reported by the interprocedural taint pass",
    "SIM014": "iterating a generator whose yield path (transitively) "
    "drains an unordered container; yield from forwards hash order "
    "through every delegation hop, where the return-tracking pass "
    "cannot see it — yield from sorted(...) in the producer or sort at "
    "the call site — reported by the interprocedural taint pass",
    "SIM015": "iterating a set stored as an element of a list/dict/tuple; "
    "the outer container is ordered but its elements carry the unordered "
    "taint, which name-based set tracking loses at the insertion — "
    "iterate sorted(elem) or store ordered elements",
    "SIM016": "iterating a set carried in a dataclass/namedtuple field; "
    "the record is ordered but the field value is not, and name-based "
    "set tracking loses the taint at construction — iterate "
    "sorted(rec.field) or store an ordered field",
}

#: SIM001 targets (fully-qualified after import-alias resolution)
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}

#: SIM002 targets: RNG constructors and module-global-state draws
_RNG_CONSTRUCT = {
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.Philox",
}
_RNG_GLOBAL_DRAW = {
    "random.seed",
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.choices",
    "random.shuffle",
    "random.sample",
    "random.uniform",
    "random.gauss",
    "numpy.random.seed",
    "numpy.random.rand",
    "numpy.random.randn",
    "numpy.random.randint",
    "numpy.random.random",
    "numpy.random.choice",
    "numpy.random.shuffle",
    "numpy.random.permutation",
    "numpy.random.uniform",
}

#: SIM005: pure-condition factories whose result is useless unless yielded
_EVENT_FACTORIES = {"timeout", "event", "all_of", "any_of"}

#: SIM007 module-level blocking calls
_BLOCKING = {"time.sleep", "input"}

#: SIM008 qualified float reducers (the ``sum`` builtin is special-cased)
_FLOAT_REDUCERS = {"math.fsum", "numpy.sum", "numpy.nansum"}


@dataclass(frozen=True)
class Violation:
    """One rule hit, addressable as ``path:line``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


def name_chain(node: ast.expr) -> list[str] | None:
    """``["a", "b", "c"]`` for ``a.b.c``; None unless the chain is
    rooted at a bare name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def _root_name(node: ast.expr) -> str | None:
    """The leftmost name of an attribute chain (``a`` for ``a.b.c``)."""
    chain = name_chain(node)
    return chain[0] if chain else None


def terminal_name(node: ast.expr) -> str | None:
    """``C`` for ``C`` and for ``pkg.mod.C``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# ---------------------------------------------------------------------------
# the front end shared with the call-graph scanner (:mod:`.callgraph`)
# ---------------------------------------------------------------------------

def module_name_for(path: str) -> str:
    """A dotted module name derived from the file path.

    Only used for *suffix* matching and relative-import anchoring, so
    the leading directories (``src``, a tmp dir, ...) are harmless.
    """
    norm = os.path.normpath(path)
    if norm.endswith(".py"):
        norm = norm[:-3]
    parts = [p for p in norm.split(os.sep) if p not in ("", ".", "..")]
    return ".".join(parts)


def record_import(
    imports: dict[str, str], module: str, node: ast.Import | ast.ImportFrom
) -> None:
    """Fold one import statement into ``imports`` (local alias ->
    dotted target); relative imports anchor on ``module``'s package."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            imports[alias.asname or alias.name.split(".")[0]] = alias.name
        return
    base = node.module or ""
    if node.level:  # level 1 = this package (strip the module filename only)
        parts = module.split(".")
        anchor = parts[: len(parts) - node.level]
        base = ".".join(anchor + ([node.module] if node.module else []))
    for alias in node.names:
        if base and alias.name != "*":
            imports[alias.asname or alias.name] = f"{base}.{alias.name}"


def qualified_name(imports: dict[str, str], node: ast.expr) -> str | None:
    """Dotted name of a call target with import aliases resolved.

    ``np.random.default_rng`` -> ``numpy.random.default_rng``;
    ``__import__("random").Random`` -> ``random.Random``.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(imports.get(node.id, node.id))
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "__import__"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        parts.append(node.args[0].value)
    else:
        return None
    return ".".join(reversed(parts))


#: annotation heads that denote an unordered set type
_SET_ANNOTATIONS = (
    "set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet",
)


def is_set_annotation(ann: ast.expr | None) -> bool:
    """``set``, ``typing.Set[str]``, ``"FrozenSet[int]"`` and friends."""
    if isinstance(ann, ast.Name):
        return ann.id in _SET_ANNOTATIONS
    if isinstance(ann, ast.Attribute):
        return ann.attr in _SET_ANNOTATIONS
    if isinstance(ann, ast.Subscript):
        return is_set_annotation(ann.value)
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        head = ann.value.split("[", 1)[0].strip()
        return head.rsplit(".", 1)[-1] in _SET_ANNOTATIONS
    return False


def is_set_expr(value: ast.expr | None) -> bool:
    """Literal/comprehension/constructor expressions that produce an
    unordered set."""
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("set", "frozenset")
    )


def _bound_name(target: ast.expr) -> str | None:
    """``x`` or ``obj.x`` binding targets, keyed by bare name."""
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
        return target.attr
    return None


class SetBindings:
    """Which bare names and ``obj.`` attributes currently hold a set.

    Flow-sensitive in textual order across the whole module, last
    binding wins: a set value or a set annotation binds, any other
    value unbinds, and an annotation without a value of another type
    leaves the binding alone.
    """

    __slots__ = ("names",)

    def __init__(self):
        self.names: set[str] = set()

    def bind(
        self,
        target: ast.expr,
        value: ast.expr | None,
        annotation: ast.expr | None = None,
    ) -> None:
        name = _bound_name(target)
        if name is None:
            return
        if self.holds(value) or is_set_annotation(annotation):
            self.names.add(name)
        elif value is not None:
            self.names.discard(name)

    def holds(self, node: ast.expr | None) -> bool:
        """Is ``node`` a set: a set expression or a bound name?"""
        if is_set_expr(node):
            return True
        if isinstance(node, (ast.Name, ast.Attribute)):
            return _bound_name(node) in self.names
        return False


#: calls that fix the iteration order of their first argument
_ITER_CALLS = ("list", "tuple", "iter", "enumerate", "max", "min")


class SetOrderWalker(ast.NodeVisitor):
    """The textual-order walk both set-order consumers share.

    Tracks import aliases and :class:`SetBindings` as it goes, and hands
    every order-fixing site to :meth:`iterated`: a ``for`` loop's
    iterable, each comprehension generator's iterable, and the first
    argument of an :data:`_ITER_CALLS` call.  ``set_loop_depth`` counts
    the enclosing loops and comprehensions whose iterable
    :meth:`SetBindings.holds`.
    Subclasses extend the ``visit_*`` methods through ``super()``.
    """

    def __init__(self, module: str):
        super().__init__()
        self.module = module
        #: local alias -> dotted target ("np" -> "numpy")
        self.imports: dict[str, str] = {}
        self.sets = SetBindings()
        self.set_loop_depth = 0

    def iterated(self, expr: ast.expr, target: ast.expr | None) -> None:
        """Hook: ``expr`` is iterated in an order-fixing way, binding
        ``target`` per item (``None`` for a call argument)."""

    def visit_Import(self, node: ast.Import | ast.ImportFrom) -> None:
        record_import(self.imports, self.module, node)
        self.generic_visit(node)

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self.sets.bind(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.sets.bind(node.target, node.value, node.annotation)
        self.generic_visit(node)

    def _loop(self, node: ast.AST, sites) -> None:
        over_set = False
        for it, target in sites:
            self.iterated(it, target)
            over_set = over_set or self.sets.holds(it)
        self.set_loop_depth += over_set
        self.generic_visit(node)
        self.set_loop_depth -= over_set

    def visit_For(self, node: ast.For) -> None:
        self._loop(node, [(node.iter, node.target)])

    def _visit_comp(self, node) -> None:
        self._loop(node, [(gen.iter, gen.target) for gen in node.generators])

    visit_ListComp = visit_SetComp = visit_GeneratorExp = visit_DictComp = _visit_comp

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _ITER_CALLS
            and node.args
        ):
            self.iterated(node.args[0], None)
        self.generic_visit(node)


class ScopeWalker(ast.NodeVisitor):
    """Where a walk is: the class stack, the enclosing top-level
    function and the method's ``self`` name.

    Every whole-program scanner keys its facts by the call graph's
    function qualnames, so they share this one notion of scope.  A def
    nested in a function belongs to the enclosing *top-level* function
    (``qual``); the ``self`` name is the first positional parameter of
    a function defined directly in a class (a static method has none),
    and nothing elsewhere.  Subclasses hook :meth:`function` (a
    top-level def, with the scope set) and :meth:`nested_def`; both
    must visit the body.
    """

    def __init__(self):
        super().__init__()
        self.class_stack: list[str] = []
        self.qual = ""  #: enclosing top-level function ("" at module level)
        self.self_name: str | None = None

    @property
    def klass(self) -> str:
        return self.class_stack[-1] if self.class_stack else ""

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_def(self, node) -> None:
        if self.qual:
            self.nested_def(node)
            return
        args = [*node.args.posonlyargs, *node.args.args]
        self.qual = ".".join([*self.class_stack, node.name])
        if args and self.class_stack and not any(
            terminal_name(d) == "staticmethod" for d in node.decorator_list
        ):
            self.self_name = args[0].arg
        self.function(node)
        self.qual, self.self_name = "", None

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_def

    def function(self, node) -> None:
        self.generic_visit(node)

    def nested_def(self, node) -> None:
        self.generic_visit(node)

    def is_self(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id == self.self_name

    def self_chain(self, node: ast.expr) -> str | None:
        """The attribute chain below ``self`` (``"x"``, ``"x.y"``)."""
        chain = name_chain(node)
        if chain and len(chain) > 1 and chain[0] == self.self_name:
            return ".".join(chain[1:])
        return None

    def reference(self, node: ast.expr) -> tuple | None:
        """How the call graph names the function ``node`` denotes:
        ``("name", f)``, ``("self", class, method)`` or ``("dotted",
        chain)``; None for anything not rooted at a bare name."""
        chain = name_chain(node)
        if chain is None:
            return None
        if len(chain) == 1:
            return ("name", chain[0])
        if len(chain) == 2 and chain[0] == self.self_name:
            return ("self", self.klass, chain[1])
        return ("dotted", tuple(chain))


# ---------------------------------------------------------------------------
# whole-module facts the provenance question needs (SIM012/015/016)
# ---------------------------------------------------------------------------

def _self_name(method) -> str | None:
    args = method.args.posonlyargs + method.args.args
    return args[0].arg if args else None


def _class_set_attrs(node: ast.ClassDef) -> dict[ast.AST, tuple]:
    """SIM012 facts for one class: ``method node -> (self name, method
    name, attr -> binding methods)``.

    An attribute is class-wide set state when some method binds it to
    a set value or annotation and no method binds it to anything else
    (a mixed attribute is left to the flow-sensitive tracker).
    """
    methods = [
        m for m in node.body
        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _self_name(m) is not None
    ]
    set_attrs: dict[str, set[str]] = {}
    non_set: set[str] = set()
    for method in methods:
        self_name = _self_name(method)
        for sub in ast.walk(method):
            if isinstance(sub, ast.Assign):
                targets, value, ann = sub.targets, sub.value, None
            elif isinstance(sub, ast.AnnAssign):
                targets, value, ann = [sub.target], sub.value, sub.annotation
            else:
                continue
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == self_name
                ):
                    continue
                if is_set_expr(value) or is_set_annotation(ann):
                    set_attrs.setdefault(target.attr, set()).add(method.name)
                elif value is not None:
                    non_set.add(target.attr)
    flaggable = {
        attr: binders for attr, binders in set_attrs.items()
        if attr not in non_set
    }
    if not flaggable:
        return {}
    return {m: (_self_name(m), m.name, flaggable) for m in methods}


def _container_with_set_elements(value: ast.expr | None) -> bool:
    if isinstance(value, (ast.List, ast.Tuple)):
        return any(is_set_expr(e) for e in value.elts)
    if isinstance(value, ast.Dict):
        return any(v is not None and is_set_expr(v) for v in value.values)
    return False


def _element_containers(tree: ast.AST) -> set[str]:
    """SIM015 facts: bare-name containers that ever hold a set element
    (literal elements, ``append``/``insert``/``setdefault``, keyed
    assignment)."""
    tainted: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and _container_with_set_elements(node.value)
                ):
                    tainted.add(target.id)
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and is_set_expr(node.value)
                ):
                    tainted.add(target.value.id)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.args
        ):
            attr, args = node.func.attr, node.args
            if (
                (attr == "append" and is_set_expr(args[0]))
                or (attr == "insert" and len(args) >= 2 and is_set_expr(args[1]))
                or (
                    attr == "setdefault"
                    and len(args) >= 2
                    and is_set_expr(args[1])
                )
            ):
                tainted.add(node.func.value.id)
    return tainted


def _element_aliases(
    target: ast.expr, it: ast.expr, containers: set[str]
) -> dict[str, str]:
    """Names a loop over ``it`` binds to set elements of a tainted
    container (direct, ``.values()``, or the value half of
    ``.items()``) -> that container."""
    if isinstance(it, ast.Name) and it.id in containers:
        container, values_only = it.id, True
    elif (
        isinstance(it, ast.Call)
        and isinstance(it.func, ast.Attribute)
        and isinstance(it.func.value, ast.Name)
        and it.func.value.id in containers
        and it.func.attr in ("values", "items")
    ):
        container, values_only = it.func.value.id, it.func.attr == "values"
    else:
        return {}
    if isinstance(target, ast.Name):
        return {target.id: container} if values_only else {}
    if (
        isinstance(target, (ast.Tuple, ast.List))
        and not values_only
        and len(target.elts) == 2
        and isinstance(target.elts[1], ast.Name)
    ):
        # for k, g in X.items(): the second name is the element
        return {target.elts[1].id: container}
    return {}


def _decorator_name(dec: ast.expr) -> str | None:
    return terminal_name(dec.func if isinstance(dec, ast.Call) else dec)


class _RecordFields:
    """SIM016 facts: which dataclass/namedtuple fields hold sets, and
    which names hold record instances or set fields.

    Record classes are ``@dataclass``-decorated, ``NamedTuple``
    subclasses and ``collections.namedtuple`` factories; a field is
    set-valued through its annotation, a ``field(default_factory=set)``
    default, or a set-expression construction argument.  Instances are
    followed through construction, annotation and name aliasing; set
    fields through attribute aliasing and positional unpacking.
    """

    def __init__(self, tree: ast.AST):
        #: record class -> field names in declaration order
        self._fields: dict[str, list[str]] = {}
        #: record class -> the set-valued subset
        self._set_fields: dict[str, set[str]] = {}
        #: bare variable -> record class it holds an instance of
        self._instances: dict[str, str] = {}
        #: bare names a set-valued field was unpacked or aliased into
        self._unpacked: set[str] = set()
        # Record classes first (a construction site may lexically
        # precede the class definition it instantiates).
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                self._collect_class(node)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                self._collect_namedtuple(node)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._collect_binding(node)
            elif isinstance(node, ast.Call):
                # construction sites taint fields wherever they appear
                # (returns, nested calls), not just in assignments
                self._record_call(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs:
                    if (
                        isinstance(arg.annotation, ast.Name)
                        and arg.annotation.id in self._fields
                    ):
                        self._instances[arg.arg] = arg.annotation.id

    def _collect_class(self, node: ast.ClassDef) -> None:
        is_record = any(
            _decorator_name(d) == "dataclass" for d in node.decorator_list
        ) or any(
            (isinstance(b, ast.Name) and b.id == "NamedTuple")
            or (isinstance(b, ast.Attribute) and b.attr == "NamedTuple")
            for b in node.bases
        )
        if not is_record:
            return
        fields: list[str] = []
        tainted: set[str] = set()
        for stmt in node.body:
            if not (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ):
                continue
            name = stmt.target.id
            fields.append(name)
            if is_set_annotation(stmt.annotation) or is_set_expr(stmt.value):
                tainted.add(name)
            elif (
                isinstance(stmt.value, ast.Call)
                and _decorator_name(stmt.value.func) == "field"
            ):
                for kw in stmt.value.keywords:
                    if (
                        kw.arg == "default_factory"
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id in ("set", "frozenset")
                    ):
                        tainted.add(name)
        self._fields[node.name] = fields
        self._set_fields[node.name] = tainted

    def _collect_namedtuple(self, node: ast.Assign) -> None:
        target, value = node.targets[0], node.value
        if not (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Call)
            and _decorator_name(value.func) == "namedtuple"
            and len(value.args) >= 2
        ):
            return
        spec = value.args[1]
        fields: list[str] = []
        if isinstance(spec, ast.Constant) and isinstance(spec.value, str):
            fields = spec.value.replace(",", " ").split()
        elif isinstance(spec, (ast.List, ast.Tuple)):
            fields = [
                e.value
                for e in spec.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
        self._fields[target.id] = fields
        self._set_fields[target.id] = set()

    def _record_call(self, value: ast.expr) -> str | None:
        """Record class name if ``value`` constructs a known record,
        folding any set-expression arguments into its tainted fields."""
        if not (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in self._fields
        ):
            return None
        klass = value.func.id
        fields = self._fields[klass]
        for i, arg in enumerate(value.args):
            if i < len(fields) and is_set_expr(arg):
                self._set_fields[klass].add(fields[i])
        for kw in value.keywords:
            if kw.arg in fields and is_set_expr(kw.value):
                self._set_fields[klass].add(kw.arg)
        return klass

    def _collect_binding(self, node: ast.Assign | ast.AnnAssign) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        value = node.value
        klass = self._record_call(value) if value is not None else None
        if (
            klass is None
            and isinstance(node, ast.AnnAssign)
            and isinstance(node.annotation, ast.Name)
            and node.annotation.id in self._fields
        ):
            klass = node.annotation.id
        if klass is None and isinstance(value, ast.Name):
            klass = self._instances.get(value.id)
        for target in targets:
            if isinstance(target, ast.Name):
                if klass is not None:
                    self._instances[target.id] = klass
                elif value is not None and self.source(value):
                    # alias: s = rec.paths carries the taint to a name
                    self._unpacked.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)) and klass is not None:
                # positional unpack: names at set-valued field slots
                fields = self._fields[klass]
                tainted = self._set_fields[klass]
                for i, elt in enumerate(target.elts):
                    if (
                        isinstance(elt, ast.Name)
                        and i < len(fields)
                        and fields[i] in tainted
                    ):
                        self._unpacked.add(elt.id)

    def source(self, expr: ast.expr) -> str | None:
        """Human label if ``expr`` denotes a set-valued record field."""
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            klass = self._instances.get(expr.value.id)
            if klass is not None and expr.attr in self._set_fields[klass]:
                return f"{klass}.{expr.attr}"
        if isinstance(expr, ast.Name) and expr.id in self._unpacked:
            return f"unpacked {expr.id!r}"
        return None


# ---------------------------------------------------------------------------
# the per-file rule visitor
# ---------------------------------------------------------------------------

class _SimVisitor(SetOrderWalker):
    """One file's worth of rule checks.

    Set-order findings come from one question asked at every
    order-fixing site, :meth:`_provenance`; everything else is a
    local pattern match.
    """

    def __init__(self, path: str, scope: str, tree: ast.AST):
        super().__init__(module_name_for(path))
        self.path = path
        self.scope = scope  # "sim" | "runtime"
        self.violations: list[Violation] = []
        #: stack of (function node, is_generator)
        self._funcs: list[tuple[ast.AST, bool]] = []
        #: SIM012: method node -> facts, and the methods being visited
        self._class_methods: dict[ast.AST, tuple] = {}
        self._methods: list[tuple] = []
        #: SIM015/SIM016 facts (sim scope only)
        self._containers: set[str] = set()
        self._records: _RecordFields | None = None
        if scope == "sim":
            self._containers = _element_containers(tree)
            self._records = _RecordFields(tree)
        #: live element aliases (loop vars drawn from a tainted
        #: container) -> the container they came from
        self._elements: dict[str, str] = {}

    # -- plumbing ---------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str | None = None) -> None:
        self.violations.append(
            Violation(
                rule,
                self.path,
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                message or RULES[rule],
            )
        )

    # -- set order (SIM004/SIM012/SIM015/SIM016) ---------------------------
    def _provenance(self, expr: ast.expr) -> list[tuple[str, str]]:
        """Why iterating ``expr`` replays in hash order, as
        ``(rule, message)`` findings.

        A flow-sensitive set binding is SIM004 and takes precedence at
        its site.  Otherwise: a class-wide set attribute bound in
        another method is SIM012; in sim scope, an element of a
        set-holding container is SIM015 and a set field of a record is
        SIM016.
        """
        if self.sets.holds(expr):
            return [("SIM004", RULES["SIM004"])]
        found = []
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            for self_name, method, attrs in self._methods:
                binders = attrs.get(expr.attr)
                if (
                    expr.value.id == self_name
                    and binders
                    and binders != {method}
                ):
                    found.append((
                        "SIM012",
                        RULES["SIM012"] + f" (self.{expr.attr} is bound in "
                        f"{', '.join(sorted(binders))}())",
                    ))
        if self._records is not None:
            container = None
            if isinstance(expr, ast.Name):
                container = self._elements.get(expr.id)
            elif (
                isinstance(expr, ast.Subscript)
                and isinstance(expr.value, ast.Name)
                and expr.value.id in self._containers
            ):
                container = expr.value.id
            if container is not None:
                found.append((
                    "SIM015", RULES["SIM015"] + f" (element of {container!r})"
                ))
            field = self._records.source(expr)
            if field is not None:
                found.append(("SIM016", RULES["SIM016"] + f" ({field})"))
        return found

    def iterated(self, expr: ast.expr, target: ast.expr | None) -> None:
        for rule, message in self._provenance(expr):
            self._emit(rule, expr, message)
        if target is not None and self._containers:
            self._elements.update(
                _element_aliases(target, expr, self._containers)
            )

    def _loop(self, node: ast.AST, sites) -> None:
        # element aliases live for the loop (or comprehension) only
        saved = dict(self._elements)
        super()._loop(node, sites)
        self._elements = saved

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_methods.update(_class_set_attrs(node))
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        if self._is_id_call(node.key):
            self._emit("SIM009", node)
        self._visit_comp(node)

    # -- id()-keyed dicts (SIM009) ------------------------------------------
    @staticmethod
    def _is_id_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # d[id(x)] — reads and writes alike seed an address-keyed table;
        # id(x) in a *set* (pure membership, never iterated for order)
        # stays legal, which is why the rule keys on subscripts.
        if self._is_id_call(node.slice):
            self._emit("SIM009", node)
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        if any(key is not None and self._is_id_call(key) for key in node.keys):
            self._emit("SIM009", node)
        self.generic_visit(node)

    # -- function context (SIM005/SIM007, SIM012 methods) --------------------
    @staticmethod
    def _is_generator(node) -> bool:
        """Does this function contain a yield of its own (ignoring
        nested defs/lambdas)?"""
        stack = list(ast.iter_child_nodes(node))
        while stack:
            child = stack.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, (ast.Yield, ast.YieldFrom)):
                return True
            stack.extend(ast.iter_child_nodes(child))
        return False

    def _visit_func(self, node) -> None:
        method = self._class_methods.get(node)
        if method is not None:
            self._methods.append(method)
        self._funcs.append((node, self._is_generator(node)))
        self.generic_visit(node)
        self._funcs.pop()
        if method is not None:
            self._methods.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_func

    @property
    def _in_generator(self) -> bool:
        return bool(self._funcs) and self._funcs[-1][1]

    # -- statement-level (SIM005) -------------------------------------------
    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if self._in_generator and isinstance(value, ast.Call):
            func = value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _EVENT_FACTORIES
                and (_root_name(func.value) or "").endswith("env")
            ) or (
                isinstance(func, ast.Name)
                and func.id in ("Timeout", "AllOf", "AnyOf")
            ):
                self._emit("SIM005", node)
        self.generic_visit(node)

    # -- comparisons (SIM006) ------------------------------------------------
    @staticmethod
    def _is_sim_clock(node: ast.expr) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "now"

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, (lhs, rhs) in zip(node.ops, zip(operands, operands[1:])):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                self._is_sim_clock(lhs) or self._is_sim_clock(rhs)
            ):
                self._emit("SIM006", node)
                break
        self.generic_visit(node)

    # -- calls (SIM001/002/003/007/008/010) -----------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        qual = qualified_name(self.imports, node.func)
        if qual is not None:
            if self.scope == "sim" and qual in _WALL_CLOCK:
                self._emit("SIM001", node)
            if qual in _RNG_CONSTRUCT:
                self._emit("SIM002", node)
            elif qual in _RNG_GLOBAL_DRAW:
                self._emit(
                    "SIM002", node,
                    RULES["SIM002"] + " (module-global RNG state)",
                )
            if self.scope == "sim" and qual in _BLOCKING:
                self._emit("SIM007", node)
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            self._emit("SIM003", node)
        if node.args and self.sets.holds(node.args[0]) and (
            (isinstance(node.func, ast.Name) and node.func.id == "sum")
            or qual in _FLOAT_REDUCERS
        ):
            # accumulation order over a set is the hash order; float
            # addition is non-associative, so the total drifts with it
            self._emit("SIM008", node)
        if (
            self.scope == "sim"
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and not node.args
            and all(kw.arg == "timeout" for kw in node.keywords)
        ):
            # str.join always takes a positional iterable; a bare
            # .join() / .join(timeout=...) is a thread join.
            self._emit("SIM007", node, RULES["SIM007"] + " (thread join)")
        if self.set_loop_depth > 0 and self._is_scheduling_call(node):
            # the set's hash order becomes the callback/trigger/spawn
            # order, i.e. the kernel's same-timestamp tie-break order
            self._emit("SIM010", node)
        super().visit_Call(node)

    @staticmethod
    def _is_scheduling_call(node: ast.Call) -> bool:
        """Calls that feed the event queue: triggering an event,
        registering a callback, or spawning a process."""
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr in ("succeed", "fail", "trigger", "interrupt"):
            return True
        if (
            func.attr == "append"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "callbacks"
        ):
            return True
        return func.attr == "process" and (
            (_root_name(func.value) or "").endswith("env")
        )


def collect_violations(
    tree: ast.AST,
    path: str,
    scope: str = "sim",
    rules: Iterable[str] | None = None,
) -> list[Violation]:
    """All rule hits in one parsed module.

    ``scope`` is ``"sim"`` for code that runs under the DES kernel and
    ``"runtime"`` for code that legitimately touches real clocks and
    threads (``repro.runtime``, ``repro.posix``); the wall-clock and
    blocking rules only apply to sim scope, and so do the container and
    record set-order rules (SIM015/SIM016).  Every rule runs; ``rules``
    only filters the result, so precedence between rules never depends
    on the selection.
    """
    visitor = _SimVisitor(path, scope, tree)
    visitor.visit(tree)
    if rules is None:
        return visitor.violations
    active = set(rules)
    return [v for v in visitor.violations if v.rule in active]

"""The parsed program, inline waivers, and the simlint front end.

Usage::

    from repro.check import lint_paths
    violations = lint_paths(["src"])

Every static pass of ``repro check`` (simlint, the taint pass, the perf
analyzer, the cells audit and registry freshness) is a function of one
:class:`Program`: the file set parsed once, with each file's scope,
module name, lines and waiver tables, and one shared call graph.

A violation can be silenced at the offending line (or the line directly
above it) with an explicit, reasoned waiver::

    gen = np.random.default_rng(s)  # simlint: waive SIM002 -- sanctioned site

``# simlint: waive`` with no codes waives every rule on that line; a
comma-separated code list waives only those.  The perf analyzer and the
cells audit have their own dialects (``# perf: waive PERFxxx``,
``# race: waive RACExxx``) on the same machinery.  Waivers are
deliberately loud in the diff — the acceptance bar is "fixed or
explicitly waived", never silently ignored.  To keep them from rotting,
every pass also reports *stale* waivers: comments that no longer
suppress any violation (``repro check`` exits nonzero on them).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .callgraph import CallGraph
from .rules import RULES, Violation, collect_violations, module_name_for
from .taint import taint_violations

__all__ = [
    "Program",
    "SourceFile",
    "StaleWaiver",
    "TreeLint",
    "lint_file",
    "lint_paths",
    "lint_program",
    "lint_source",
    "lint_tree",
    "read_sources",
    "scope_of",
    "settle_waivers",
]

#: waiver dialect -> (comment pattern, code pattern)
DIALECTS: dict[str, tuple[re.Pattern, re.Pattern]] = {
    name: (
        re.compile(rf"#\s*{name}:\s*waive\b([^#\n]*)"),
        re.compile(rf"{prefix}\d{{3}}"),
    )
    for name, prefix in (("simlint", "SIM"), ("perf", "PERF"), ("race", "RACE"))
}

#: the rules only the interprocedural taint pass reports
TAINT_RULES = frozenset({"SIM011", "SIM013", "SIM014"})

#: package path fragments whose code legitimately touches real clocks,
#: threads, and files — SIM001/SIM007 do not apply there
_RUNTIME_PARTS = ("runtime", "posix")

#: directories never descended into
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "build", "dist"}


def scope_of(path: str) -> str:
    """``"runtime"`` for real-clock/thread packages, else ``"sim"``."""
    parts = os.path.normpath(path).split(os.sep)
    return "runtime" if any(p in _RUNTIME_PARTS for p in parts) else "sim"


def _waived_codes(line: str, dialect: str) -> set[str] | None:
    """Codes waived by ``line``'s comment in ``dialect``: a set,
    ``{"*"}`` for all, or ``None`` when there is no waiver."""
    waive_re, code_re = DIALECTS[dialect]
    m = waive_re.search(line)
    if m is None:
        return None
    return set(code_re.findall(m.group(1))) or {"*"}


def _iter_python_files(root: str) -> Iterator[str]:
    if os.path.isfile(root):
        yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def read_sources(paths: Iterable[str]) -> list[tuple[str, str]]:
    """``(path, source)`` for every ``.py`` file under the given
    files/directories, in a stable walk order."""
    files: list[tuple[str, str]] = []
    for root in paths:
        for path in _iter_python_files(root):
            with open(path, encoding="utf-8") as fh:
                files.append((path, fh.read()))
    return files


class SourceFile:
    """One parsed module and the per-file facts every pass reads."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.scope = scope_of(path)
        self.module = module_name_for(path)
        self.lines = source.splitlines()

    def waiver_line(self, line: int, rule: str, dialect: str) -> int | None:
        """The line whose ``dialect`` waiver covers ``rule`` at ``line``
        (the flagged line itself, or a comment-only line above)."""
        for lineno in (line, line - 1):
            if not 1 <= lineno <= len(self.lines):
                continue
            text = self.lines[lineno - 1]
            if lineno != line and not text.lstrip().startswith("#"):
                continue
            codes = _waived_codes(text, dialect)
            if codes is not None and ("*" in codes or rule in codes):
                return lineno
        return None

    def waived(self, line: int, rule: str) -> bool:
        """Is ``rule`` simlint-waived at ``line``?  (The taint-source
        hook: a waived primitive is a sanctioned site, never a source.)"""
        return self.waiver_line(line, rule, "simlint") is not None

    @cached_property
    def waivers(self) -> dict[str, dict[int, set[str]]]:
        """Every *real* waiver comment, per dialect: ``line -> codes``.

        Tokenize-based so waiver syntax quoted inside docstrings (this
        file's own docstring, for one) is not mistaken for a live
        waiver; falls back to a line scan if the file does not tokenize.
        """
        tables: dict[str, dict[int, set[str]]] = {d: {} for d in DIALECTS}

        def note(lineno: int, text: str) -> None:
            for dialect, table in tables.items():
                codes = _waived_codes(text, dialect)
                if codes is not None:
                    table[lineno] = codes

        try:
            for tok in tokenize.generate_tokens(io.StringIO(self.source).readline):
                if tok.type == tokenize.COMMENT:
                    note(tok.start[0], tok.string)
        except (tokenize.TokenError, IndentationError, SyntaxError):
            for i, line in enumerate(self.lines, start=1):
                note(i, line)
        return tables


class Program:
    """A file set parsed once, with its one call graph.

    ``files`` is an iterable of ``(path, source)`` pairs.
    """

    def __init__(self, files: Iterable[tuple[str, str]]):
        self.files = [SourceFile(path, source) for path, source in files]

    @classmethod
    def from_paths(cls, paths: Iterable[str]) -> "Program":
        return cls(read_sources(paths))

    @cached_property
    def graph(self) -> CallGraph:
        """The module-level call graph, built with simlint waivers (they
        only suppress taint sources and unordered-return/yield flags,
        which the perf and cells passes never read)."""
        return CallGraph.build(self.files)


@dataclass(frozen=True)
class StaleWaiver:
    """An inline waiver that no longer suppresses anything."""

    path: str
    line: int
    codes: frozenset[str]  #: waived codes (``{"*"}`` for a bare waiver)

    def render(self) -> str:
        what = "all rules" if "*" in self.codes else ", ".join(sorted(self.codes))
        return (
            f"{self.path}:{self.line}: stale waiver ({what}) — "
            "suppresses no violation; remove it or fix the code it excuses"
        )


def settle_waivers(
    program: Program,
    dialect: str,
    found: Iterable[Violation],
    exempt: Callable[[set[str]], bool] = lambda codes: False,
) -> tuple[list[Violation], list[StaleWaiver]]:
    """Apply one dialect's waivers to a pass's findings.

    Returns the unwaived findings, per file in program order and sorted
    by position (findings anchored outside the file set follow, sorted
    by path), and the waivers that suppressed nothing, except those
    ``exempt(codes)`` excuses.
    """
    by_path: dict[str, list[Violation]] = {}
    for v in found:
        by_path.setdefault(v.path, []).append(v)
    kept: list[Violation] = []
    stale: list[StaleWaiver] = []
    for f in program.files:
        used: set[int] = set()
        for v in sorted(by_path.get(f.path, ()), key=lambda v: (v.line, v.col, v.rule)):
            lineno = f.waiver_line(v.line, v.rule, dialect)
            if lineno is None:
                kept.append(v)
            else:
                used.add(lineno)
        for lineno, codes in sorted(f.waivers[dialect].items()):
            if lineno not in used and not exempt(codes):
                stale.append(StaleWaiver(f.path, lineno, frozenset(codes)))
    in_set = {f.path for f in program.files}
    rest = [v for path, vs in by_path.items() if path not in in_set for v in vs]
    kept.extend(sorted(rest, key=lambda v: (v.path, v.line, v.rule)))
    return kept, stale


@dataclass
class TreeLint:
    """The result of one pass over a file set: violations + waiver
    hygiene."""

    violations: list[Violation]
    stale_waivers: list[StaleWaiver]
    n_files: int

    @property
    def clean(self) -> bool:
        return not self.violations and not self.stale_waivers

    @property
    def status(self) -> str:
        bits = []
        if self.violations:
            bits.append(f"{len(self.violations)} violation(s)")
        if self.stale_waivers:
            bits.append(f"{len(self.stale_waivers)} stale waiver(s)")
        return ", ".join(bits) if bits else "clean"


def lint_program(
    program: Program,
    rules: Iterable[str] | None = None,
    taint: bool = False,
) -> TreeLint:
    """Lint a parsed file set; see :func:`lint_tree`."""
    active = set(rules) if rules is not None else set(RULES)
    unknown = active - set(RULES)
    if unknown:
        raise ValueError(f"unknown rule codes: {sorted(unknown)}")

    found: list[Violation] = []
    for f in program.files:
        found += collect_violations(f.tree, f.path, scope=f.scope, rules=active)
    if active & TAINT_RULES:
        if taint:
            graphs = [program.graph]
        else:
            graphs = [CallGraph.build([f]) for f in program.files]
        for graph in graphs:
            found += [v for v in taint_violations(graph) if v.rule in active]
    # A subset run would mis-flag the waivers of the rules it skipped,
    # and only the cross-module pass can consume a taint-rule waiver.
    violations, stale = settle_waivers(
        program,
        "simlint",
        found,
        exempt=lambda codes: rules is not None
        or (not taint and bool(codes & TAINT_RULES)),
    )
    return TreeLint(violations, stale, n_files=len(program.files))


def lint_source(
    source: str,
    path: str = "<string>",
    scope: str | None = None,
    rules: Iterable[str] | None = None,
) -> list[Violation]:
    """Lint one module's source text (the fixture-test entry point).

    Includes the *single-module* interprocedural taint pass (SIM011 for
    helpers defined in the same file); ``repro check --taint`` widens
    that to the whole tree.
    """
    program = Program([(path, source)])
    if scope is not None:
        program.files[0].scope = scope
    return lint_program(program, rules=rules).violations


def lint_file(path: str, rules: Iterable[str] | None = None) -> list[Violation]:
    with open(path, encoding="utf-8") as fh:
        return lint_source(fh.read(), path=path, rules=rules)


def lint_tree(
    paths: Iterable[str],
    rules: Iterable[str] | None = None,
    taint: bool = False,
) -> TreeLint:
    """Lint every ``.py`` file under ``paths``.

    With ``taint=True`` the interprocedural pass runs over the *whole*
    file set at once, so SIM011 crosses module boundaries.  Stale-waiver
    detection only runs with the full rule set (a subset run would
    mis-flag waivers for the rules it skipped); waivers naming SIM011
    are likewise exempt when the cross-module pass is off.
    """
    return lint_program(Program.from_paths(paths), rules=rules, taint=taint)


def lint_paths(
    paths: Iterable[str],
    rules: Iterable[str] | None = None,
    taint: bool = False,
) -> list[Violation]:
    """Lint every ``.py`` file under the given files/directories."""
    return lint_tree(paths, rules=rules, taint=taint).violations

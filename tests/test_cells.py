"""Shared-state auditor: per-rule fixtures, waivers, shape model,
registry round-trip, and the repo-audits-clean gate."""

import ast
import os
import re

import pytest

from repro.check import DECLARED_CELLS, run_cells, run_cells_freshness
from repro.check.cell_registry import (
    extract_note_sites,
    registry_freshness,
    shape_of_pattern,
    shapes_intersect,
)
from repro.check.cells import RACE_RULES, audit_files, audit_source, audit_tree

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
INTERNALS = os.path.join(REPO_ROOT, "docs", "INTERNALS.md")


def fixture(name):
    return os.path.join(FIXTURES, name)


def _src_files():
    out = []
    for dirpath, dirnames, filenames in os.walk(SRC_ROOT):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                with open(path, encoding="utf-8") as fh:
                    out.append((path, fh.read()))
    return out


# ---------------------------------------------------------------------------
# Per-rule fixtures: every rule fires on its bad file, stays silent on
# the good one.
# ---------------------------------------------------------------------------


class TestRuleFixtures:
    @pytest.mark.parametrize("rule", sorted(RACE_RULES))
    def test_bad_fixture_fires_exactly_its_rule(self, rule):
        audit = audit_tree([fixture(f"{rule.lower()}_bad.py")])
        assert audit.violations, rule
        assert {v.rule for v in audit.violations} == {rule}
        assert audit.stale_waivers == []

    @pytest.mark.parametrize("rule", sorted(RACE_RULES))
    def test_good_fixture_clean(self, rule):
        audit = audit_tree([fixture(f"{rule.lower()}_good.py")])
        assert audit.violations == []
        assert audit.stale_waivers == []
        assert audit.freshness == []

    def test_race201_names_the_roots(self):
        audit = audit_tree([fixture("race201_bad.py")])
        (v,) = audit.violations
        assert "Pool._worker" in v.message
        assert "2 concurrent process instances" in v.message

    def test_race204_names_both_families(self):
        audit = audit_tree([fixture("race204_bad.py")])
        messages = " ".join(v.message for v in audit.violations)
        assert "pool.<…>" in messages
        assert "no separating literal" in messages


# ---------------------------------------------------------------------------
# Waivers share the generalized simlint machinery: suppression works,
# stale waivers fail.
# ---------------------------------------------------------------------------

_UNNOTED = (
    "class Pool:\n"
    "    def __init__(self, env, jobs):\n"
    "        self.env = env\n"
    "        self.jobs = jobs\n"
    "        self.total = 0\n\n"
    "    def start(self):\n"
    "        for job in self.jobs:\n"
    "            self.env.process(self._worker(job))\n\n"
    "    def _worker(self, job):\n"
    "        yield self.env.timeout(1.0)\n"
    "        {line}\n"
)


class TestWaivers:
    def test_waiver_suppresses(self):
        src = _UNNOTED.format(
            line="self.total += job  # race: waive RACE201 -- commutes"
        )
        assert audit_source(src, "mod.py") == []

    def test_waiver_line_above(self):
        src = _UNNOTED.format(
            line="# race: waive RACE201 -- commutes\n        self.total += job"
        )
        assert audit_source(src, "mod.py") == []

    def test_unwaived_fires(self):
        src = _UNNOTED.format(line="self.total += job")
        (v,) = audit_source(src, "mod.py")
        assert v.rule == "RACE201"

    def test_stale_waiver_fails(self):
        src = _UNNOTED.format(
            line="return job  # race: waive RACE201 -- suppresses nothing"
        )
        audit = audit_files([("mod.py", src)])
        assert audit.violations == []
        (w,) = audit.stale_waivers
        assert w.codes == frozenset({"RACE201"})
        assert not audit.clean

    def test_simlint_waiver_syntax_is_not_a_race_waiver(self):
        src = _UNNOTED.format(
            line="self.total += job  # simlint: waive SIM004 -- wrong ns"
        )
        (v,) = audit_source(src, "mod.py")
        assert v.rule == "RACE201"


# ---------------------------------------------------------------------------
# The shape model behind RACE204.
# ---------------------------------------------------------------------------


class TestShapes:
    def test_pattern_round_trip(self):
        shape = shape_of_pattern("tenancy.quota.t<j>")
        assert shape.render() == "tenancy.quota.t<…>"
        assert not shape.has_adjacent_holes

    def test_adjacent_holes_flagged(self):
        assert shape_of_pattern("job.<t><n>").has_adjacent_holes

    def test_dot_separated_families_intersect(self):
        a = shape_of_pattern("pool.<a>")
        b = shape_of_pattern("pool.<a>.<b>")
        assert shapes_intersect(a, b)

    def test_distinct_literal_prefixes_do_not(self):
        a = shape_of_pattern("pool.slot.<a>")
        b = shape_of_pattern("pool.sub.<a>.<b>")
        assert not shapes_intersect(a, b)

    def test_identical_literals_intersect(self):
        a = shape_of_pattern("fuzz.autopilot.corpus")
        assert shapes_intersect(a, a)


# ---------------------------------------------------------------------------
# Registry round-trip: the declared inventory, the extracted in-tree
# note sites, and the INTERNALS cell table all agree.
# ---------------------------------------------------------------------------


class TestRegistryRoundTrip:
    def test_registry_matches_extracted_note_sites(self):
        files = _src_files()
        parsed = [(p, ast.parse(s, filename=p)) for p, s in files]
        assert registry_freshness(parsed) == []
        sites = [s for s in extract_note_sites(parsed) if not s.forwarded]
        noted = {shape.tokens for s in sites for shape in s.shapes}
        declared = {d.shape.tokens for d in DECLARED_CELLS}
        # every declared family is noted somewhere in the tree, and
        # every noted family matches a declaration (no drift either way)
        assert declared <= noted
        for s in sites:
            for shape in s.shapes:
                assert any(
                    shapes_intersect(d.shape, shape) for d in DECLARED_CELLS
                ), shape.render()

    def test_registry_matches_internals_cell_table(self):
        with open(INTERNALS, encoding="utf-8") as fh:
            text = fh.read()
        table = re.search(
            r"\| cell \| component \|.*?\n((?:\|.*\n)+)", text
        )
        assert table is not None
        patterns = {
            m.group(1)
            for m in re.finditer(r"^\| `([^`]+)` \|", table.group(1), re.M)
        }
        assert patterns == {d.pattern for d in DECLARED_CELLS}

    def test_every_declared_component_exists(self):
        for decl in DECLARED_CELLS:
            rel = decl.component.replace(".", os.sep) + ".py"
            assert os.path.exists(os.path.join(SRC_ROOT, rel)), decl.component


class TestSelfName:
    """Only a method's first parameter names ``self``: a free function's
    parameter is just an object, so its stores feed no class's cells."""

    _SUBCLASS = (
        "class Worker:\n"
        "    def __init__(self, env, wid):\n"
        "        self.env = env\n"
        "        self._cell = f\"worker.w{wid}\"\n\n\n"
        "class Sub(Worker):\n"
        "    def step(self):\n"
        "        self.env.note_access(self._cell, \"w\")\n"
    )
    _FREE = "\n\ndef relabel(obj):\n    obj._cell = \"other.cell\"\n"

    def _families(self, source):
        (site,) = extract_note_sites([("mod.py", ast.parse(source))])
        return [shape.render() for shape in site.shapes]

    def test_subclass_resolves_the_base_store(self):
        assert self._families(self._SUBCLASS) == ["worker.w<…>"]

    def test_free_function_parameter_is_not_self(self):
        assert self._families(self._SUBCLASS + self._FREE) == ["worker.w<…>"]


# ---------------------------------------------------------------------------
# The repo gate: the tree audits clean, and the gate actually has teeth.
# ---------------------------------------------------------------------------


class TestRepoIsClean:
    def test_tree_audits_clean(self):
        audit = audit_tree([SRC_ROOT])
        assert audit.violations == [], "\n".join(
            v.render() for v in audit.violations
        )
        assert audit.stale_waivers == []
        assert audit.freshness == []
        assert audit.clean
        assert audit.n_roots > 20  # the spawn-root inventory is populated
        assert audit.n_writes > 100

    def test_removing_one_note_flips_the_gate(self):
        """Deleting the staging worker's note_access must fail the
        audit: its queue-head writes lose their only coverage."""
        files = _src_files()
        target = os.path.join(SRC_ROOT, "prefetch", "scheduler.py")
        marker = "# staging-queue head advances"
        mutated = []
        found = False
        for path, source in files:
            if path == target:
                assert marker in source
                source = "\n".join(
                    line for line in source.splitlines()
                    if marker not in line
                ) + "\n"
                found = True
            mutated.append((path, source))
        assert found
        audit = audit_files(mutated)
        assert any(
            v.rule == "RACE201" and v.path == target
            for v in audit.violations
        ), "stripping the note should expose the worker's un-noted writes"
        assert not audit.clean


# ---------------------------------------------------------------------------
# CLI entry points.
# ---------------------------------------------------------------------------


class TestCLI:
    def test_run_cells_bad_fixture_nonzero(self, tmp_path, capsys):
        out = tmp_path / "cells.txt"
        rc = run_cells([fixture("race201_bad.py")], output=str(out))
        assert rc == 1
        assert "RACE201" in capsys.readouterr().out
        assert "RACE201" in out.read_text()

    def test_run_cells_good_fixture_clean(self, tmp_path, capsys):
        out = tmp_path / "cells.txt"
        rc = run_cells([fixture("race201_good.py")], output=str(out))
        assert rc == 0
        assert "clean" in capsys.readouterr().out
        assert "clean" in out.read_text()

    def test_run_cells_repo_clean(self):
        assert run_cells([SRC_ROOT], verbose=False) == 0

    def test_run_cells_freshness_repo_clean(self, capsys):
        assert run_cells_freshness([SRC_ROOT]) == 0
        assert "fresh" in capsys.readouterr().out

    def test_check_cli_cells_only_flag(self):
        from repro.cli import main

        assert main(["check", "--cells-only", fixture("race203_bad.py")]) == 1
        assert main(["check", "--cells-only", fixture("race203_good.py")]) == 0

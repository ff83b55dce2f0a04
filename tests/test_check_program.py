"""The parse-once contract of ``repro check``: every static pass reads
one parsed :class:`repro.check.Program` and its one call graph."""

import ast
import os

import repro.check as check
from repro.check.callgraph import CallGraph

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)


def _count_calls(monkeypatch):
    """Record every ``ast.parse`` filename and count ``CallGraph.build``."""
    parsed: list[str] = []
    builds = []
    real_parse = ast.parse
    real_build = CallGraph.build.__func__

    def parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    def build(cls, files):
        builds.append(1)
        return real_build(cls, files)

    monkeypatch.setattr(ast, "parse", parse)
    monkeypatch.setattr(CallGraph, "build", classmethod(build))
    return parsed, builds


def _python_files():
    return sorted(
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(SRC_ROOT)
        for name in names
        if name.endswith(".py")
    )


def test_every_static_pass_shares_one_parse_and_one_graph(monkeypatch, capsys):
    parsed, builds = _count_calls(monkeypatch)
    rc = check.run_check(
        [SRC_ROOT], lint_only=True, taint=True, perf=True, cells=True
    )
    capsys.readouterr()
    assert rc == 0
    assert sorted(parsed) == _python_files()
    assert len(builds) == 1


def test_freshness_needs_no_call_graph(monkeypatch, capsys):
    parsed, builds = _count_calls(monkeypatch)
    assert check.run_cells_freshness([SRC_ROOT]) == 0
    assert "fresh" in capsys.readouterr().out
    assert sorted(parsed) == _python_files()
    assert builds == []

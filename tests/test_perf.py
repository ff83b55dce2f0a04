"""Hot-path analyzer (``repro check --perf``) and the bench trajectory
format."""

import os

import pytest

from repro.bench import (
    SCENARIOS,
    TRACED_SCENARIOS,
    BenchResult,
    compare_bench,
    load_bench,
    run_bench,
)
from repro.check import (
    PERF_RULES,
    default_lint_roots,
    perf_lint_files,
    perf_lint_source,
    perf_lint_tree,
    run_perf,
)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def codes(source, path="mod.py"):
    return [v.rule for v in perf_lint_source(source, path=path)]


# ---------------------------------------------------------------------------
# Per-rule fixtures: every PERF rule fires on its bad file and stays
# silent on the corresponding good one.
# ---------------------------------------------------------------------------


class TestRuleFixtures:
    @pytest.mark.parametrize("rule", sorted(PERF_RULES))
    def test_bad_fixture_fires(self, rule):
        path = fixture(f"{rule.lower()}_bad.py")
        result = perf_lint_tree([path])
        assert rule in [v.rule for v in result.violations]
        assert result.all_hot  # no kernel module in the set → plain lint

    @pytest.mark.parametrize("rule", sorted(PERF_RULES))
    def test_good_fixture_clean(self, rule):
        path = fixture(f"{rule.lower()}_good.py")
        result = perf_lint_tree([path])
        assert result.violations == []
        assert result.stale_waivers == []

    @pytest.mark.parametrize("rule", sorted(PERF_RULES))
    def test_cli_exits_nonzero_on_bad_fixture(self, rule, capsys):
        rc = run_perf([fixture(f"{rule.lower()}_bad.py")])
        assert rc != 0
        out = capsys.readouterr().out
        assert rule in out


# ---------------------------------------------------------------------------
# Hot-set semantics: with a kernel module present, only code reachable
# from the roots is held to the rules.
# ---------------------------------------------------------------------------

_ENGINE_SRC = (
    "from util import dispatch\n\n"
    "def step(queue):\n"
    "    return dispatch(queue)\n"
)

_UTIL_SRC = (
    "def dispatch(queue):\n"
    "    def key(item):\n"  # reachable from the engine: flagged
    "        return item[1]\n"
    "    return sorted(queue, key=key)\n\n"
    "def offline_report(rows):\n"
    "    def key(row):\n"  # unreachable: setup/report code is exempt
    "        return row[1]\n"
    "    return sorted(rows, key=key)\n"
)


class TestHotSet:
    def test_reachability_gates_the_rules(self):
        result = perf_lint_files(
            [
                ("src/repro/simcore/engine.py", _ENGINE_SRC),
                ("src/repro/util.py", _UTIL_SRC),
            ]
        )
        assert not result.all_hot
        assert [v.rule for v in result.violations] == ["PERF102"]
        (v,) = result.violations
        assert v.path.endswith("util.py")
        assert v.line == 2  # dispatch's closure, not offline_report's

    def test_setup_functions_are_exempt(self):
        src = (
            "class Gauge:\n"
            "    def __init__(self, name):\n"
            "        self.label = f\"gauge.{name}\"\n"  # once per object: fine
        )
        assert codes(src) == []


# ---------------------------------------------------------------------------
# Waivers: same machinery as simlint, separate namespace.
# ---------------------------------------------------------------------------


class TestWaivers:
    def test_waiver_suppresses(self):
        src = (
            "def drain(queue, out):\n"
            "    while queue:\n"
            "        out.append(queue.pop(0))  # perf: waive PERF105 -- queue is bounded at 2\n"
        )
        assert codes(src) == []

    def test_waiver_line_above(self):
        src = (
            "def drain(queue, out):\n"
            "    while queue:\n"
            "        # perf: waive PERF105 -- queue is bounded at 2\n"
            "        out.append(queue.pop(0))\n"
        )
        assert codes(src) == []

    def test_simlint_waiver_does_not_cross_namespaces(self):
        src = (
            "def drain(queue, out):\n"
            "    while queue:\n"
            "        out.append(queue.pop(0))  # simlint: waive SIM004 -- wrong dialect\n"
        )
        assert "PERF105" in codes(src)

    def test_stale_waiver_reported(self):
        src = (
            "def drain(queue, out):\n"
            "    queue.reverse()  # perf: waive PERF105 -- nothing to excuse\n"
            "    while queue:\n"
            "        out.append(queue.pop())\n"
        )
        result = perf_lint_files([("mod.py", src)])
        assert result.violations == []
        assert len(result.stale_waivers) == 1
        assert result.stale_waivers[0].line == 2
        assert not result.clean

    def test_stale_waiver_fails_the_cli(self, capsys):
        pass_through = (
            "def f(x):\n"
            "    return x  # perf: waive PERF103 -- nothing here\n"
        )
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mod.py")
            with open(path, "w") as fh:
                fh.write(pass_through)
            assert run_perf([path]) != 0
        assert "stale" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The repo itself holds the bar the analyzer sets.
# ---------------------------------------------------------------------------


class TestRepoIsClean:
    def test_tree_is_perf_clean(self):
        result = perf_lint_tree(default_lint_roots())
        assert [v.render() for v in result.violations] == []
        assert [w.render() for w in result.stale_waivers] == []
        # the real tree must resolve a hot set, not fall back to all-hot
        assert not result.all_hot
        assert result.n_hot > 0


# ---------------------------------------------------------------------------
# Bench trajectory: format round-trip and the comparison gates.
# ---------------------------------------------------------------------------


def _result(**scenarios):
    r = BenchResult(repeats=2)
    for name, (events, eps) in scenarios.items():
        r.scenarios[name] = {
            "events": events,
            "best_wall_s": round(events / eps, 6),
            "events_per_sec": eps,
            "traced": False,
        }
    return r


class TestBenchFormat:
    def test_round_trip(self, tmp_path):
        r = _result(epochs=(1000, 50000.0), membership=(2000, 60000.0))
        path = tmp_path / "BENCH_engine.json"
        r.write(str(path))
        back = load_bench(str(path))
        assert back.to_dict() == r.to_dict()

    def test_version_gate(self):
        with pytest.raises(ValueError, match="version"):
            BenchResult.from_dict({"version": 999, "scenarios": {}})

    def test_render_lists_every_scenario(self):
        r = _result(epochs=(1000, 50000.0))
        assert "epochs" in r.render()

    def test_checked_in_trajectory_is_valid(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        result = load_bench(os.path.join(root, "BENCH_engine.json"))
        assert len(result.scenarios) >= 3
        for entry in result.scenarios.values():
            assert entry["events"] > 0
            assert entry["events_per_sec"] > 0
        # the with/without-tracing pair that guards the observer gate
        assert {"epochs", "epochs_traced"} <= set(result.scenarios)
        assert result.scenarios["epochs_traced"]["traced"] is True

    def test_checked_in_event_counts_still_reproduce(self):
        # Event counts are the deterministic half of the bench: a fresh
        # run must hit the checked-in counts exactly, wall clock aside.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        baseline = load_bench(os.path.join(root, "BENCH_engine.json"))
        current = run_bench(scenarios=["epochs"], repeats=1)
        assert (
            current.scenarios["epochs"]["events"]
            == baseline.scenarios["epochs"]["events"]
        )


class TestCompareBench:
    def test_within_band_is_quiet(self):
        base = _result(epochs=(1000, 50000.0))
        cur = _result(epochs=(1000, 45000.0))
        assert compare_bench(cur, base, tolerance=0.2) == []

    def test_throughput_floor(self):
        base = _result(epochs=(1000, 50000.0))
        cur = _result(epochs=(1000, 30000.0))
        problems = compare_bench(cur, base, tolerance=0.2)
        assert len(problems) == 1
        assert "below" in problems[0]

    def test_event_drift_is_hard_failure(self):
        base = _result(epochs=(1000, 50000.0))
        cur = _result(epochs=(1001, 50000.0))
        problems = compare_bench(cur, base, tolerance=0.2)
        assert any("drifted" in p for p in problems)

    def test_missing_scenario_is_flagged(self):
        base = _result(epochs=(1000, 50000.0), membership=(2000, 60000.0))
        cur = _result(epochs=(1000, 50000.0))
        problems = compare_bench(cur, base, tolerance=0.2)
        assert any("missing" in p for p in problems)


class TestScenarioRegistry:
    def test_pinned_set(self):
        assert {"epochs", "epochs_traced", "membership"} <= set(SCENARIOS)
        assert "epochs_traced" in TRACED_SCENARIOS
        assert "epochs" not in TRACED_SCENARIOS

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            run_bench(scenarios=["nope"], repeats=1)

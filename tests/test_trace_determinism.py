"""Event-stream fingerprinting, the divergence bisector, and the
double-run determinism guarantee on a real experiment."""

import repro.check as check
from repro.check import (
    find_first_divergence,
    fingerprint_run,
    run_determinism,
)
from repro.check.divergence import _divergent_block
from repro.cli import main
from repro.dl import IMAGENET21K, ALL_MODELS
from repro.experiments import Scale, run_training
from repro.simcore import Environment, EventTrace


def simple_run(delays):
    """A trace runnable: one process yielding the given timeouts."""

    def run(trace):
        env = Environment()
        env.attach_trace(trace)

        def proc():
            for d in delays:
                yield env.timeout(d)

        env.process(proc(), name="p")
        env.run()

    return run


class TestEventTrace:
    def test_identical_runs_identical_fingerprints(self):
        a = fingerprint_run(simple_run([1.0, 2.0, 3.0]))
        b = fingerprint_run(simple_run([1.0, 2.0, 3.0]))
        assert a.count == b.count > 0
        assert a.fingerprint == b.fingerprint

    def test_different_runs_different_fingerprints(self):
        a = fingerprint_run(simple_run([1.0, 2.0, 3.0]))
        b = fingerprint_run(simple_run([1.0, 2.5, 3.0]))
        assert a.fingerprint != b.fingerprint

    def test_checkpoints_and_records(self):
        trace = EventTrace(checkpoint_every=2, keep_all=True)
        simple_run([1.0, 2.0, 3.0])(trace)
        assert len(trace.records) == trace.count
        assert len(trace.checkpoints) == trace.count // 2
        # records carry the fired order and the process label
        assert [r.index for r in trace.records] == list(range(trace.count))
        assert any(r.label == "Process:p" for r in trace.records)
        assert trace.records[0].time <= trace.records[-1].time

    def test_keep_window(self):
        trace = EventTrace(keep_window=(1, 3))
        simple_run([1.0, 2.0, 3.0])(trace)
        assert [r.index for r in trace.records] == [1, 2]

    def test_detach(self):
        env = Environment()
        trace = EventTrace()
        env.attach_trace(trace)
        assert env.trace is trace
        env.detach_trace()
        env.timeout(1.0)
        env.run()
        assert trace.count == 0


class TestBisector:
    @staticmethod
    def nondeterministic_run():
        """Alternates the middle delay on every other invocation —
        a reproducible stand-in for a stray unseeded RNG."""
        calls = {"n": 0}

        def run(trace):
            calls["n"] += 1
            middle = 2.0 if calls["n"] % 2 else 2.5
            simple_run([1.0, middle, 3.0])(trace)

        return run

    def test_deterministic_run_reports_none(self):
        assert find_first_divergence(simple_run([1.0, 2.0]), block=2) is None

    def test_bisects_to_first_divergent_event(self):
        report = find_first_divergence(self.nondeterministic_run(), block=2)
        assert report is not None
        assert report.fingerprint_a != report.fingerprint_b
        # the first divergent event is the reordered/retimed timeout
        assert report.first is not None and report.second is not None
        assert report.first.index == report.second.index == report.index
        assert report.first.time != report.second.time
        assert "first divergent event" in report.describe()

    def test_divergent_block_tail(self):
        # [1,2,3] fires Init + 3 Timeouts + the Process event (5 events);
        # [1,2,3,4] shares the first 4 exactly, so with block=2 both
        # checkpoints agree and the divergence sits in the tail window.
        a = EventTrace(checkpoint_every=2)
        b = EventTrace(checkpoint_every=2)
        simple_run([1.0, 2.0, 3.0])(a)
        simple_run([1.0, 2.0, 3.0, 4.0])(b)
        assert a.checkpoints == b.checkpoints[: len(a.checkpoints)]
        lo, hi = _divergent_block(a, b, 2)
        assert (lo, hi) == (4, b.count)


class TestExperimentDeterminism:
    def test_epochs_double_run_identical_fingerprints(self):
        """Two same-seed runs of a small epochs experiment must produce
        identical event streams (the repo's core reproducibility claim)."""
        scale = Scale(files_per_rank=4, sim_batch_size=2, repetitions=1,
                      procs_per_node=2)

        def run(trace):
            run_training(
                "hvac2", ALL_MODELS["resnet50"], IMAGENET21K, 2, scale,
                seed=7, trace=trace,
            )

        a = fingerprint_run(run)
        b = fingerprint_run(run)
        assert a.count == b.count > 100
        assert a.fingerprint == b.fingerprint

    def test_different_seeds_diverge(self):
        scale = Scale(files_per_rank=4, sim_batch_size=2, repetitions=1,
                      procs_per_node=2)

        def run_with(seed):
            trace = EventTrace()
            run_training(
                "hvac2", ALL_MODELS["resnet50"], IMAGENET21K, 2, scale,
                seed=seed, trace=trace,
            )
            return trace

        assert run_with(0).fingerprint != run_with(1).fingerprint

    def test_run_determinism_exit_code(self, capsys):
        assert run_determinism(seed=3, n_nodes=2, files_per_rank=2) == 0
        assert "determinism: OK" in capsys.readouterr().out


class TestHashSeedLeg:
    """``run_determinism`` also replays the epochs run in child
    interpreters under each ``PYTHONHASHSEED`` in ``HASH_SEEDS``."""

    def test_children_reproduce_the_pinned_stream(self):
        # the CI ``repro check`` configuration: seed 0, 2 nodes, 4 files
        # per rank
        in_process = fingerprint_run(check._epochs_run(0, 2, 4))
        expected = "1496 a5e26349627b43a94732d2e81fa720cc"
        assert f"{in_process.count} {in_process.fingerprint}" == expected
        assert check._hash_seed_fingerprints(0, 2, 4) == {
            "0": expected,
            "12345": expected,
        }

    def test_hash_seed_divergence_fails_the_check(self, monkeypatch, capsys):
        monkeypatch.setattr(
            check, "_hash_seed_fingerprints", lambda *a: {"12345": "1 beef"}
        )
        assert run_determinism(seed=3, n_nodes=2, files_per_rank=2) == 1
        out = capsys.readouterr().out
        assert "determinism: FAILED" in out
        assert "PYTHONHASHSEED=12345: 1 beef" in out

    def test_child_failure_is_reported(self, monkeypatch):
        monkeypatch.setattr(check, "HASH_SEEDS", ("not-a-seed",))
        (got,) = check._hash_seed_fingerprints(0, 2, 2).values()
        assert got.startswith("child failed:")


class TestCheckCLI:
    def test_lint_only_clean(self, capsys):
        assert main(["check", "--lint-only"]) == 0
        assert "simlint" in capsys.readouterr().out

    def test_determinism_only(self, capsys):
        assert main([
            "check", "--determinism-only",
            "--nodes", "2", "--files-per-rank", "2",
        ]) == 0
        assert "identical event streams" in capsys.readouterr().out

    def test_lint_flags_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nr = random.Random(1)\n")
        assert main(["check", "--lint-only", str(bad)]) == 1
        assert "SIM002" in capsys.readouterr().out

"""Smoke tests: every shipped example must run to completion.

Examples are documentation that executes; these tests keep them from
rotting.  Each runs in a subprocess exactly as a user would run it.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        res = run_example("quickstart.py")
        assert res.returncode == 0, res.stderr
        assert "speedup" in res.stdout
        assert "cache purged at job end: True" in res.stdout

    def test_imagenet_scaling_study_quick(self):
        res = run_example("imagenet_scaling_study.py", "--quick")
        assert res.returncode == 0, res.stderr
        assert "Fig 8" in res.stdout
        assert "Improvement over GPFS" in res.stdout

    def test_mdtest_motivation(self):
        res = run_example("mdtest_motivation.py")
        assert res.returncode == 0, res.stderr
        assert "Fig 3" in res.stdout and "Fig 4" in res.stdout

    def test_failover_and_replication(self):
        res = run_example("failover_and_replication.py")
        assert res.returncode == 0, res.stderr
        assert "PFS fallbacks" in res.stdout
        # the flaky link must drop live traffic in both configurations
        lines = res.stdout.splitlines()
        header = next(line for line in lines if line.startswith("config"))
        assert header.endswith("dropped msgs")
        rows = [row for row in map(str.split, lines) if row[:1] in (["r=1"], ["r=2"])]
        assert len(rows) == 2
        assert all(int(row[-1]) > 0 for row in rows)

    def test_real_file_cache_demo(self):
        res = run_example("real_file_cache_demo.py")
        assert res.returncode == 0, res.stderr
        assert "hit rate" in res.stdout

    def test_profile_and_prefetch(self):
        res = run_example("profile_and_prefetch.py")
        assert res.returncode == 0, res.stderr
        assert "whole-file single-read pattern : True" in res.stdout
        assert "prefetch removed" in res.stdout

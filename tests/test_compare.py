"""The shared mode-comparison layer (``repro.experiments.compare``).

Pinned for every driver that uses it:

1. **entry-point validation** — bad user input raises ``ValueError``
   with a clear message before any simulation runs;
2. **artifacts** — ``write_artifacts`` writes ``render()`` plus each
   determinism log byte-for-byte and returns the same artifact names
   the CLI and CI upload.
"""

import json

import pytest

from repro.experiments import (
    membership_comparison,
    prefetch_comparison,
    slo_scenario,
    tenancy_isolation,
)

BAD_INPUT = [
    (slo_scenario, dict(n_nodes=1), "nodes"),
    (slo_scenario, dict(windows=0), "windows"),
    (membership_comparison, dict(n_nodes=2), "nodes"),
    (membership_comparison, dict(windows=0), "windows"),
    (membership_comparison, dict(outage_epochs=0), "outage epoch"),
    (membership_comparison, dict(n_nodes=4, victims=(1, 5)), "collide"),
    (tenancy_isolation, dict(n_nodes=1), "nodes"),
    (tenancy_isolation, dict(windows=0), "windows"),
    (prefetch_comparison, dict(n_nodes=1), "nodes"),
    (prefetch_comparison, dict(epochs=1), "epochs"),
    (prefetch_comparison, dict(windows=0), "windows"),
]


@pytest.mark.parametrize(
    "driver, kwargs, match",
    [
        pytest.param(
            fn, kw, match,
            id=fn.__name__ + "-" + ",".join(
                f"{k}={v}".replace(" ", "") for k, v in kw.items()
            ),
        )
        for fn, kw, match in BAD_INPUT
    ],
)
def test_entry_point_rejects_bad_input(driver, kwargs, match):
    with pytest.raises(ValueError, match=match):
        driver(**kwargs)


def _span_logs(result):
    return {
        f"spans[{label}]": "".join(line + "\n" for line in rec.to_jsonl_lines())
        for label, rec in result.recorders.items()
    }


#: driver -> (smoke-size run, report file, a line the report must hold,
#: expected artifact names, expected log texts keyed by artifact name)
ARTIFACTS = {
    "membership": (
        lambda: membership_comparison(
            n_nodes=4, n_files=12, victims=(1, 2), outage_epochs=1,
            windows=6, repair_bandwidths=(0.0,),
        ),
        "report.txt",
        "full stack strictly dominates detector-only",
        ["report", "transitions"],
        lambda r: {"transitions": r.transition_log()},
    ),
    "tenancy": (
        lambda: tenancy_isolation(
            n_nodes=3, victim_files=12, aggressor_files=120,
            file_size=100_000, storm_passes=2, windows=8, n_jobs=6,
            cache_fraction=0.2, seed=0,
        ),
        "report.txt",
        "weighted-fair strictly dominates shared global LRU",
        ["report", "windows"],
        lambda r: {"windows": r.window_log()},
    ),
    "prefetch": (
        lambda: prefetch_comparison(
            n_nodes=3, n_files=96, epochs=3, windows=8, seed=0
        ),
        "report.txt",
        "clairvoyant strictly dominates reactive",
        ["report", "windows"],
        lambda r: {"windows": r.window_log()},
    ),
    "slo": (
        lambda: slo_scenario(n_nodes=3, n_files=12, windows=8),
        "dashboard.txt",
        "failure-detector transitions per window",
        ["dashboard", "spans[baseline]", "spans[crash@0.002s]"],
        _span_logs,
    ),
}


@pytest.mark.parametrize("driver", list(ARTIFACTS))
def test_write_artifacts(driver, tmp_path):
    run, report_file, marker, names, expected_logs = ARTIFACTS[driver]
    result = run()
    paths = result.write_artifacts(str(tmp_path))
    assert list(paths) == names
    report = (tmp_path / report_file).read_text(encoding="utf-8")
    assert report == result.render() + "\n"
    assert marker in report
    logs = expected_logs(result)
    assert sorted(logs) == sorted(names[1:])
    for name, text in logs.items():
        assert text.strip(), f"{name} log is empty"
        with open(paths[name], encoding="utf-8") as fh:
            assert fh.read() == text
    if driver == "membership":
        assert logs["transitions"].count("->") > 0
    if driver == "slo":
        for name in names[1:]:
            with open(paths[name], encoding="utf-8") as fh:
                first = json.loads(fh.readline())
            assert {"sid", "name", "t0", "t1"} <= set(first)

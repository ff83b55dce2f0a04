"""``repro check`` — the determinism & sim-safety analyzer.

Three layers, all runnable from the CLI and from tests:

* **Static, per-function**: an AST lint pass (:mod:`.rules`,
  :mod:`.linter`) with repro-specific rules SIM001–SIM010 guarding the
  engine's bit-for-bit determinism contract (see docs/INTERNALS.md).
* **Static, interprocedural**: a module-level call-graph + taint pass
  (:mod:`.callgraph`, :mod:`.taint`) that propagates nondeterminism
  primitives through helpers and across modules, reporting SIM011 at
  the sim-scope call site with the full source→sink chain
  (``repro check --taint``).
* **Static, whole-program**: a shared-state audit (:mod:`.cells`,
  :mod:`.cell_registry`) that walks the call graph from every
  process-spawn root, finds attribute writes reachable from two or
  more concurrent roots, and diffs them against the declared
  race-sanitizer cell inventory — proving the runtime sanitizer sees
  every shared mutable cell (``repro check --cells``).

  The static layers, and the hot-path analyzer (:mod:`.perf`), read
  one :class:`.linter.Program`: the file set parsed once, with one
  call graph.
* **Runtime**: event-stream fingerprinting
  (:class:`repro.simcore.EventTrace`) plus a double-run comparison
  that, on divergence, bisects to the first divergent kernel event
  (:mod:`.divergence`); and a sim-time race sanitizer (:mod:`.races`)
  that flags same-timestamp events whose order is decided only by heap
  insertion sequence yet touch the same shared-state cell
  (``repro check --races``).
"""

from __future__ import annotations

import os
import subprocess
import sys

from .divergence import DivergenceReport, find_first_divergence, fingerprint_run
from .linter import (
    Program,
    StaleWaiver,
    TreeLint,
    lint_file,
    lint_paths,
    lint_program,
    lint_source,
    lint_tree,
    scope_of,
)
from .perf import (
    PERF_RULES,
    PerfLint,
    perf_lint_files,
    perf_lint_source,
    perf_lint_tree,
    perf_program,
)
from .cells import (
    RACE_RULES,
    CellAudit,
    audit_program,
    audit_source,
    audit_tree,
    program_freshness,
)
from .cell_registry import DECLARED_CELLS, CellDecl, registry_freshness
from .races import RaceReport, RaceSanitizer
from .rules import RULES, Violation

__all__ = [
    "DECLARED_CELLS",
    "PERF_RULES",
    "RACE_RULES",
    "RULES",
    "Violation",
    "CellAudit",
    "CellDecl",
    "DivergenceReport",
    "PerfLint",
    "RaceReport",
    "RaceSanitizer",
    "StaleWaiver",
    "TreeLint",
    "audit_source",
    "audit_tree",
    "find_first_divergence",
    "fingerprint_run",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_tree",
    "perf_lint_files",
    "perf_lint_source",
    "perf_lint_tree",
    "registry_freshness",
    "scope_of",
    "default_lint_roots",
    "run_lint",
    "run_perf",
    "run_cells",
    "run_cells_freshness",
    "run_determinism",
    "run_races",
    "run_check",
]


def default_lint_roots() -> list[str]:
    """The in-tree source root, resolved from this package's location."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [pkg_root]  # .../src/repro


def _program(paths: list[str] | None) -> Program:
    return Program.from_paths(paths or default_lint_roots())


def _report(result: TreeLint, summary: str, verbose: bool) -> int:
    """Print a pass's findings and stale waivers, then (``verbose``)
    its one-line ``summary``; return the pass's exit code."""
    for v in result.violations:
        print(v.render())
    for w in result.stale_waivers:
        print(w.render())
    if verbose:
        print(summary)
    return 0 if result.clean else 1


def _lint(program: Program, taint: bool, verbose: bool = True) -> int:
    result = lint_program(program, taint=taint)
    name = "simlint+taint" if taint else "simlint"
    return _report(
        result, f"{name}: {result.n_files} file(s) checked, {result.status}",
        verbose,
    )


def _perf(program: Program, verbose: bool = True) -> int:
    result = perf_program(program)
    hot = "all functions hot" if result.all_hot else f"{result.n_hot} hot function(s)"
    return _report(
        result,
        f"perf: {result.n_files} file(s) checked, {hot}, {result.status}",
        verbose,
    )


def _cells(program: Program, output: str | None, verbose: bool = True) -> int:
    result = audit_program(program)
    if output:
        lines = [v.render() for v in result.violations]
        lines += [w.render() for w in result.stale_waivers]
        os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
        with open(output, "w", encoding="utf-8") as fh:
            if lines:
                fh.write("\n".join(lines) + "\n")
            else:
                fh.write(
                    f"cells: clean — {result.n_files} file(s), "
                    f"{result.n_roots} root(s), {result.n_writes} write(s)\n"
                )
    return _report(
        result,
        f"cells: {result.n_files} file(s), {result.n_roots} concurrency "
        f"root(s), {result.n_writes} write site(s), {result.status}",
        verbose,
    )


def _freshness(program: Program, verbose: bool = True) -> int:
    drift = program_freshness(program)
    for line in drift:
        print(line)
    if verbose:
        status = f"{len(drift)} drift error(s)" if drift else "fresh"
        print(f"cells-registry: {len(program.files)} file(s), {status}")
    return 1 if drift else 0


def run_lint(
    paths: list[str] | None = None, verbose: bool = True, taint: bool = False
) -> int:
    """Lint the tree; print violations + stale waivers; return exit code."""
    return _lint(_program(paths), taint, verbose)


def run_perf(paths: list[str] | None = None, verbose: bool = True) -> int:
    """Run the hot-path analyzer; print findings; return exit code."""
    return _perf(_program(paths), verbose)


def run_cells(
    paths: list[str] | None = None,
    output: str | None = None,
    verbose: bool = True,
) -> int:
    """Run the shared-state audit; print findings; return exit code."""
    return _cells(_program(paths), output, verbose)


def run_cells_freshness(
    paths: list[str] | None = None, verbose: bool = True
) -> int:
    """Check registry drift only: every in-tree ``note_access`` family
    must resolve to a declared cell template.  Separate from the audit
    gate so CI can pinpoint 'you added a cell but not its declaration';
    it needs no call graph, so it skips the rest of the audit."""
    return _freshness(_program(paths), verbose)


def _epochs_run(seed: int, n_nodes: int, files_per_rank: int):
    """A small same-seed ``epochs``-style experiment as a trace runnable."""
    from ..dl import IMAGENET21K, ALL_MODELS
    from ..experiments import Scale, run_training

    scale = Scale(
        files_per_rank=files_per_rank,
        sim_batch_size=2,
        repetitions=1,
        procs_per_node=2,
        epochs_simulated=2,
    )

    def run(trace):
        run_training(
            "hvac2",
            ALL_MODELS["resnet50"],
            IMAGENET21K,
            n_nodes,
            scale,
            seed=seed,
            trace=trace,
        )

    return run


#: interpreter hash seeds the determinism check also replays under;
#: string hashing, and with it set iteration order, differs between them
HASH_SEEDS = ("0", "12345")


def _hash_seed_fingerprints(
    seed: int, n_nodes: int, files_per_rank: int
) -> dict[str, str]:
    """Replay the epochs run in one child interpreter per
    :data:`HASH_SEEDS` value, concurrently: ``PYTHONHASHSEED`` ->
    ``"<events> <fingerprint>"``, or the child's error."""
    src_root = os.path.dirname(default_lint_roots()[0])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    code = (
        "from repro.check import _epochs_run, fingerprint_run\n"
        f"t = fingerprint_run(_epochs_run({seed}, {n_nodes}, {files_per_rank}))\n"
        "print(t.count, t.fingerprint)\n"
    )
    children = {
        h: subprocess.Popen(
            [sys.executable, "-c", code],
            env=dict(env, PYTHONHASHSEED=h),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for h in HASH_SEEDS
    }
    out: dict[str, str] = {}
    for h, child in children.items():
        stdout, stderr = child.communicate()
        if child.returncode == 0:
            out[h] = stdout.strip()
        else:
            lines = stderr.strip().splitlines() or [f"exit {child.returncode}"]
            out[h] = f"child failed: {lines[-1]}"
    return out


def run_determinism(
    seed: int = 0,
    n_nodes: int = 2,
    files_per_rank: int = 4,
    block: int = 2048,
    verbose: bool = True,
) -> int:
    """Run the epochs experiment twice with one seed and compare
    fingerprints; then replay it in child interpreters under every
    :data:`HASH_SEEDS` value, which must reproduce the same stream."""
    run = _epochs_run(seed, n_nodes, files_per_rank)
    a = fingerprint_run(run, checkpoint_every=block)
    b = fingerprint_run(run, checkpoint_every=block)
    report = find_first_divergence(run, block=block, traces=(a, b))
    if report is not None:
        print(f"determinism: FAILED (seed={seed})")
        print(report.describe())
        return 1
    expected = f"{a.count} {a.fingerprint}"
    replays = _hash_seed_fingerprints(seed, n_nodes, files_per_rank)
    diverged = {h: got for h, got in replays.items() if got != expected}
    if diverged:
        print(
            f"determinism: FAILED (seed={seed}) — the event stream depends "
            "on the interpreter's hash seed"
        )
        print(f"  in-process: {expected}")
        for h, got in diverged.items():
            print(f"  PYTHONHASHSEED={h}: {got}")
        return 1
    if verbose:
        print(
            f"determinism: OK — two seed={seed} runs produced identical "
            f"event streams ({a.count} events, fingerprint {a.fingerprint})"
        )
    return 0


def run_races(
    seed: int = 0,
    n_nodes: int = 4,
    n_files: int = 12,
    output: str | None = None,
    verbose: bool = True,
) -> int:
    """Run the membership smoke scenario under the race sanitizer with
    two seeds (different jitter landscapes); report every same-timestamp
    shared-state conflict found."""
    from .races import membership_smoke

    reports: list[tuple[int, RaceReport]] = []
    for s in (seed, seed + 1):
        sanitizer = RaceSanitizer()
        membership_smoke(seed=s, n_nodes=n_nodes, n_files=n_files,
                         sanitizer=sanitizer)
        reports.extend((s, r) for r in sanitizer.reports)

    text_blocks = [
        f"[seed {s}] {r.describe()}" for s, r in reports
    ]
    for block_ in text_blocks:
        print(block_)
    if output:
        os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
        with open(output, "w", encoding="utf-8") as fh:
            if text_blocks:
                fh.write("\n\n".join(text_blocks) + "\n")
            else:
                fh.write(
                    f"races: clean — seeds {seed},{seed + 1}, "
                    f"{n_nodes} nodes, {n_files} files\n"
                )
    if verbose:
        status = "clean" if not reports else f"{len(reports)} race(s)"
        print(
            f"races: seeds {seed},{seed + 1} on the membership smoke "
            f"scenario — {status}"
        )
    return 1 if reports else 0


def run_check(
    paths: list[str] | None = None,
    lint_only: bool = False,
    determinism_only: bool = False,
    races_only: bool = False,
    seed: int = 0,
    n_nodes: int = 2,
    files_per_rank: int = 4,
    block: int = 2048,
    taint: bool = False,
    races: bool = False,
    races_output: str | None = None,
    perf: bool = False,
    cells: bool = False,
    cells_only: bool = False,
    cells_freshness_only: bool = False,
    cells_output: str | None = None,
) -> int:
    """The full ``repro check``: lint (+taint), optionally the hot-path
    analyzer (``--perf``), the shared-state audit (``--cells``), the
    double-run comparison, and optionally the sim-time race sanitizer."""
    rc = 0
    if races_only:
        return run_races(seed=seed, output=races_output)
    if cells_only:
        return run_cells(paths, output=cells_output)
    if cells_freshness_only:
        return run_cells_freshness(paths)
    if not determinism_only:
        # one parse and one call graph for every static pass
        program = _program(paths)
        rc |= _lint(program, taint)
        if perf:
            rc |= _perf(program)
        if cells:
            rc |= _cells(program, cells_output)
    if not lint_only:
        rc |= run_determinism(
            seed=seed,
            n_nodes=n_nodes,
            files_per_rank=files_per_rank,
            block=block,
        )
    if races:
        rc |= run_races(seed=seed, output=races_output)
    return rc

"""Command-line interface: regenerate the paper's figures and run
ad-hoc simulations without pytest.

    python -m repro fig9 --nodes 2 8 32
    python -m repro mdtest --file-size 32768 --nodes 1 4 16
    python -m repro train --system hvac4 --model resnet50 --nodes 16
    python -m repro info
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analysis import format_kv, format_series
from .cluster import SUMMIT
from .dl import ALL_MODELS, COSMOUNIVERSE, DEEPCAM_CLIMATE, IMAGENET21K
from .experiments import (
    Scale,
    generate_report,
    accuracy_comparison,
    fault_matrix,
    load_balance,
    mdtest_scaling,
    mdtest_scaling_analytic,
    membership_comparison,
    node_scaling,
    node_scaling_analytic,
    normalized_to_gpfs,
    overhead_vs_xfs,
    prefetch_comparison,
    resilience_sweep,
    run_training,
    slo_scenario,
    tenancy_isolation,
)

__all__ = ["main"]

_MODEL_DATASET = {
    "resnet50": IMAGENET21K,
    "tresnet_m": IMAGENET21K,
    "cosmoflow": COSMOUNIVERSE,
    "deepcam": DEEPCAM_CLIMATE,
}


def _scale(args: argparse.Namespace) -> Scale:
    return Scale(
        files_per_rank=args.files_per_rank,
        sim_batch_size=8,
        repetitions=args.repetitions,
        procs_per_node=args.procs_per_node,
    )


def _add_scale_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--files-per-rank", type=int, default=8,
                   help="sampled files per rank (event-count knob)")
    p.add_argument("--procs-per-node", type=int, default=4)
    p.add_argument("--repetitions", type=int, default=1)


def _add_comparison_args(p: argparse.ArgumentParser, writes: str) -> None:
    """The flags every mode-comparison command shares (see :func:`_emit`)."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", default="", help=f"also write {writes} here")
    p.add_argument("--smoke", action="store_true",
                   help="tiny fast run (CI artifact smoke test)")


def cmd_info(args: argparse.Namespace) -> int:
    spec = SUMMIT
    print(format_kv({
        "cluster": spec.name,
        "total nodes": spec.total_nodes,
        "GPFS aggregate bandwidth (TB/s)": spec.pfs.aggregate_bandwidth / 1e12,
        "GPFS metadata ceiling (tx/s)": spec.pfs.aggregate_metadata_ops
        / (spec.pfs.ops_per_open + spec.pfs.ops_per_close),
        "NVMe per node (GB/s)": spec.node.nvme.read_bandwidth / 1e9,
        "NVMe capacity per node (TB)": spec.node.nvme.capacity_bytes / 1e12,
        "NIC per node (GB/s)": spec.network.nic_bandwidth / 1e9,
        "HVAC mover overhead (us)": spec.hvac.server_request_overhead * 1e6,
    }, title="Calibrated Summit model (cluster/specs.py)"))
    print()
    print(format_kv(
        {name: f"{m.samples_per_sec_per_gpu:.0f} samples/s/GPU, "
               f"{m.n_parameters:,} params" for name, m in ALL_MODELS.items()},
        title="Workload models",
    ))
    return 0


def cmd_mdtest(args: argparse.Namespace) -> int:
    res = mdtest_scaling(
        args.file_size, args.nodes,
        ranks_per_node=args.procs_per_node,
        files_per_rank=args.files_per_rank,
    )
    print(res.render())
    if args.analytic:
        print()
        print(mdtest_scaling_analytic(
            args.file_size, [1, 4, 16, 64, 256, 1024, 4096]
        ).render() + "   [analytic]")
    return 0


def cmd_fig8(args: argparse.Namespace) -> int:
    model = ALL_MODELS[args.model]
    dataset = _MODEL_DATASET[args.model]
    res = node_scaling(
        model, dataset, args.nodes, _scale(args),
        systems=tuple(args.systems), total_epochs=args.epochs,
    )
    print(res.render())
    return 0


def cmd_fig9(args: argparse.Namespace) -> int:
    model = ALL_MODELS[args.model]
    dataset = _MODEL_DATASET[args.model]
    res = node_scaling(
        model, dataset, args.nodes, _scale(args), total_epochs=args.epochs
    )
    print(format_series("nodes", res.node_counts, normalized_to_gpfs(res),
                        title="Fig 9a: % improvement over GPFS"))
    print()
    print(format_series("nodes", res.node_counts, overhead_vs_xfs(res),
                        title="Fig 9b: % overhead vs XFS-on-NVMe"))
    if args.analytic:
        full = node_scaling_analytic(
            model, dataset, [1, 16, 64, 256, 512, 1024], total_epochs=args.epochs
        )
        print()
        print(format_series("nodes", full.node_counts, normalized_to_gpfs(full),
                            title="Fig 9a [analytic, full sweep]"))
    return 0


def cmd_fig14(args: argparse.Namespace) -> int:
    print(accuracy_comparison(n_epochs=args.epochs).render())
    return 0


def cmd_fig15(args: argparse.Namespace) -> int:
    print(load_balance(args.nodes, n_files=args.files).render())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    text = generate_report(
        scale=_scale(args),
        node_counts=args.nodes,
        include_des=not args.analytic_only,
    )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    model = ALL_MODELS[args.model]
    dataset = _MODEL_DATASET[args.model]
    res = run_training(args.system, model, dataset, args.nodes[0], _scale(args))
    print(format_kv({
        "system": res.system_label,
        "config": res.config_label,
        "epoch-1 (s)": res.first_epoch,
        "steady epoch (s)": res.best_random_epoch,
        f"extrapolated total, {args.epochs} epochs (min)":
            res.extrapolate_total(args.epochs) / 60,
        "cache hit rate": res.cache_hit_rate,
    }, title="Training simulation"))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .check import run_check

    return run_check(
        paths=args.paths or None,
        lint_only=args.lint_only,
        determinism_only=args.determinism_only,
        races_only=args.races_only,
        seed=args.seed,
        n_nodes=args.nodes,
        files_per_rank=args.files_per_rank,
        block=args.block,
        taint=args.taint,
        races=args.races,
        races_output=args.races_output,
        perf=args.perf,
        cells=args.cells,
        cells_only=args.cells_only,
        cells_freshness_only=args.cells_freshness,
        cells_output=args.cells_output,
    )


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import run_bench_cli

    return run_bench_cli(
        output=args.output,
        compare=args.compare,
        tolerance=args.tolerance,
        repeats=args.repeats,
        scenarios=args.scenarios or None,
    )


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import InvariantConfig, replay_case, run_campaign
    from .fuzz.campaign import render_violations

    if args.replay:
        report, expected, scenario = replay_case(
            args.replay, original=args.original
        )
        which = "original" if args.original else "shrunk"
        print(f"replayed {which} scenario "
              f"({scenario.n_nodes} nodes, {len(scenario.faults)} faults, "
              f"workload {scenario.workload.kind})")
        print(f"expected violations: {', '.join(expected) or '(none)'}")
        print("observed:")
        print(render_violations(report.violations))
        if set(expected) <= set(report.violated):
            print("reproduced")
            return 0
        print("NOT reproduced")
        return 2

    config = InvariantConfig(determinism_every=args.determinism_every)
    sanitizer = None
    if args.races:
        from .check.races import RaceSanitizer

        sanitizer = RaceSanitizer()
    result = run_campaign(
        runs=args.runs,
        seed=args.seed,
        corpus_dir=args.corpus_dir or None,
        time_budget=args.time_budget,
        config=config,
        sanitizer=sanitizer,
    )
    print(result.render())
    for path in result.case_paths:
        print(f"wrote {path}")
    rc = 0
    if sanitizer is not None:
        sanitizer.finish()
        if sanitizer.reports:
            print(f"\n{len(sanitizer.reports)} same-timestamp race(s):")
            for rep in sanitizer.reports:
                print(rep.describe())
            rc = 1
        else:
            print("\nrace sanitizer: clean")
    return 1 if result.cases else rc


def _smoke(args: argparse.Namespace, **caps) -> None:
    """``--smoke``: cap each named argument for a tiny CI run."""
    if args.smoke:
        for name, cap in caps.items():
            setattr(args, name, min(getattr(args, name), cap))


def _emit(result, output_dir: str | None) -> None:
    """Print the rendered report; with ``output_dir``, also write the
    artifacts and list them."""
    print(result.render())
    if output_dir:
        paths = result.write_artifacts(output_dir)
        print()
        for name, path in paths.items():
            print(f"wrote {name}: {path}")


def cmd_resilience(args: argparse.Namespace) -> int:
    sweep = resilience_sweep(
        fail_fractions=args.fractions,
        n_nodes=args.nodes,
        n_files=args.files,
        seed=args.seed,
    )
    print(sweep.render())
    print()
    matrix = fault_matrix(
        n_nodes=min(args.nodes, 4), n_files=args.files, seed=args.seed
    )
    print(matrix.render())
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    _smoke(args, nodes=3, files=12, windows=8)
    result = slo_scenario(
        n_nodes=args.nodes,
        n_files=args.files,
        fault_time=args.fault_time,
        fault_node=args.fault_node,
        windows=args.windows,
        seed=args.seed,
    )
    _emit(result, args.output_dir)
    return 0


def cmd_membership(args: argparse.Namespace) -> int:
    _smoke(args, nodes=4, files=12, windows=8)
    if args.smoke:
        args.repair_bandwidths = args.repair_bandwidths[:2]
    result = membership_comparison(
        n_nodes=args.nodes,
        n_files=args.files,
        victims=tuple(args.victims),
        outage_epochs=args.outage_epochs,
        windows=args.windows,
        repair_bandwidths=tuple(args.repair_bandwidths),
        seed=args.seed,
    )
    _emit(result, args.output_dir)
    return 0


def cmd_tenancy(args: argparse.Namespace) -> int:
    _smoke(args, nodes=3, victim_files=12, aggressor_files=120,
           file_size=100_000, storm_passes=2, windows=8, jobs=6)
    # Shrink the caches so the reduced-scale aggressor still thrashes
    # (12 MB dataset vs a 6 MB fleet pool).
    cache_fraction = 0.2 if args.smoke else None
    result = tenancy_isolation(
        n_nodes=args.nodes,
        victim_files=args.victim_files,
        aggressor_files=args.aggressor_files,
        file_size=args.file_size,
        storm_passes=args.storm_passes,
        windows=args.windows,
        n_jobs=args.jobs,
        think=args.think,
        streams=args.streams,
        cache_fraction=cache_fraction,
        seed=args.seed,
    )
    _emit(result, args.output_dir)
    return 0 if result.dominates() else 1


def cmd_prefetch(args: argparse.Namespace) -> int:
    _smoke(args, nodes=3, files=96, epochs=3, windows=8)
    result = prefetch_comparison(
        n_nodes=args.nodes,
        n_files=args.files,
        file_size=args.file_size,
        epochs=args.epochs,
        windows=args.windows,
        lookahead=args.lookahead,
        outstanding=args.outstanding,
        cache_fraction=args.cache_fraction,
        compression_ratio=args.compression_ratio,
        decompress_cost_per_byte=args.decompress_cost,
        decompress_budget=args.decompress_budget,
        fault=not args.no_fault,
        seed=args.seed,
    )
    _emit(result, args.output_dir)
    return 0 if result.dominates() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HVAC reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="show the calibrated system model")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("mdtest", help="Figs 3-4: MDTest sweep")
    p.add_argument("--file-size", type=int, default=32 * 1024)
    p.add_argument("--nodes", type=int, nargs="+", default=[1, 4, 16])
    p.add_argument("--analytic", action="store_true")
    _add_scale_args(p)
    p.set_defaults(func=cmd_mdtest)

    p = sub.add_parser("fig8", help="Fig 8: training-time node sweep")
    p.add_argument("--model", choices=sorted(ALL_MODELS), default="resnet50")
    p.add_argument("--nodes", type=int, nargs="+", default=[2, 8])
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--systems", nargs="+",
                   default=["gpfs", "hvac1", "hvac4", "xfs"])
    _add_scale_args(p)
    p.set_defaults(func=cmd_fig8)

    p = sub.add_parser("fig9", help="Fig 9: normalized improvement/overhead")
    p.add_argument("--model", choices=sorted(ALL_MODELS), default="resnet50")
    p.add_argument("--nodes", type=int, nargs="+", default=[2, 8])
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--analytic", action="store_true")
    _add_scale_args(p)
    p.set_defaults(func=cmd_fig9)

    p = sub.add_parser("fig14", help="Fig 14: accuracy comparison")
    p.add_argument("--epochs", type=int, default=10)
    p.set_defaults(func=cmd_fig14)

    p = sub.add_parser("fig15", help="Fig 15: load balance")
    p.add_argument("--nodes", type=int, nargs="+", default=[32, 128, 512])
    p.add_argument("--files", type=int, default=50_000)
    p.set_defaults(func=cmd_fig15)

    p = sub.add_parser("report", help="full evaluation report (all figures)")
    p.add_argument("--nodes", type=int, nargs="+", default=[2, 8])
    p.add_argument("--analytic-only", action="store_true",
                   help="skip the DES; instant analytic-only report")
    p.add_argument("--output", default="",
                   help="write to a file instead of stdout")
    _add_scale_args(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "resilience",
        help="§III-H: epoch time vs failed servers + per-fault-kind matrix",
    )
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--files", type=int, default=48,
                   help="files per node per epoch")
    p.add_argument("--fractions", type=float, nargs="+",
                   default=[0.0, 0.25, 0.5],
                   help="fractions of nodes to crash")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_resilience)

    p = sub.add_parser(
        "slo",
        help="SLO dashboard: span-level telemetry for a crash-at-t "
        "scenario vs its no-fault baseline (+ JSONL span timelines)",
    )
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--files", type=int, default=32,
                   help="files per node per epoch")
    p.add_argument("--fault-time", type=float, default=0.002,
                   help="crash lands this many seconds into the epoch")
    p.add_argument("--fault-node", type=int, default=1)
    p.add_argument("--windows", type=int, default=12,
                   help="SLO window count across the measured epoch")
    _add_comparison_args(p, "dashboard.txt + span-timeline JSONL")
    p.set_defaults(func=cmd_slo)

    p = sub.add_parser(
        "membership",
        help="gossip membership, fault-aware remapping, peer repair: "
        "four failover modes on one crash/recover scenario "
        "+ repair-bandwidth sweep",
    )
    p.add_argument("--nodes", type=int, default=6)
    p.add_argument("--files", type=int, default=36,
                   help="files per node per epoch")
    p.add_argument("--victims", type=int, nargs="+", default=[1, 2],
                   help="nodes crashed as a correlated burst (adjacent "
                   "pair = whole replica sets lost)")
    p.add_argument("--outage-epochs", type=int, default=2,
                   help="measured epochs while the victims are down")
    p.add_argument("--windows", type=int, default=12,
                   help="SLO window count across the post-crash range")
    p.add_argument("--repair-bandwidths", type=float, nargs="+",
                   default=[1e6, 1e7, 1e8, 0.0],
                   help="repair throttle sweep, bytes/s (0 = unthrottled)")
    _add_comparison_args(p, "report.txt + transitions.log")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser(
        "tenancy",
        help="multi-tenant fleet: hot-storm isolation under partition-"
        "vs-share cache policies + admission-controlled arrival mix "
        "(exit 0 iff weighted-fair dominates shared LRU for the victim)",
    )
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--victim-files", type=int, default=40,
                   help="victim tenant dataset size (files)")
    p.add_argument("--aggressor-files", type=int, default=400,
                   help="aggressor tenant dataset size (files); sized "
                   "past the aggregate cache so the shared pool thrashes")
    p.add_argument("--file-size", type=int, default=200_000)
    p.add_argument("--storm-passes", type=int, default=2,
                   help="measured passes both tenants make during the storm")
    p.add_argument("--windows", type=int, default=12,
                   help="SLO window count across the storm")
    p.add_argument("--jobs", type=int, default=8,
                   help="arrival-mix jobs for the admission demo")
    p.add_argument("--think", type=float, default=0.08,
                   help="victim service pacing (s); must exceed the shared "
                   "pool's eviction horizon for the storm to bite")
    p.add_argument("--streams", type=int, default=4,
                   help="parallel aggressor sweep streams per node")
    _add_comparison_args(p, "report.txt + windows.log")
    p.set_defaults(func=cmd_tenancy)

    p = sub.add_parser(
        "prefetch",
        help="clairvoyant prefetch: reactive bulk vs look-ahead staging "
        "vs compressed tier under contention + a mid-run crash (exit 0 "
        "iff clairvoyant dominates reactive on epoch-1 time and steady "
        "p99, and compression cuts PFS bytes within the CPU budget)",
    )
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--files", type=int, default=128,
                   help="dataset size (files); sized past the aggregate "
                   "cache so the uncompressed modes thrash")
    p.add_argument("--file-size", type=int, default=75_000)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--windows", type=int, default=12,
                   help="SLO window count across the steady state")
    p.add_argument("--lookahead", type=int, default=8,
                   help="files staged ahead of each client's cursor")
    p.add_argument("--outstanding", type=int, default=2,
                   help="staged fetches in flight per server")
    p.add_argument("--cache-fraction", type=float, default=0.21,
                   help="per-node NVMe share given to the cache")
    p.add_argument("--compression-ratio", type=float, default=0.45,
                   help="stored/raw byte ratio of the compressed tier")
    p.add_argument("--decompress-cost", type=float, default=2e-9,
                   help="sim-seconds of decompression per raw byte on hit")
    p.add_argument("--decompress-budget", type=float, default=1.0,
                   help="max total decompression seconds for dominance")
    p.add_argument("--no-fault", action="store_true",
                   help="skip the mid-run crash/recover leg")
    _add_comparison_args(p, "report.txt + windows.log")
    p.set_defaults(func=cmd_prefetch)

    p = sub.add_parser(
        "fuzz",
        help="scenario fuzzer: seeded campaigns over random topologies/"
        "faults/workloads, six resilience invariants, autopilot "
        "near-violation bias, minimized JSON repro cases",
    )
    p.add_argument("--runs", type=int, default=25,
                   help="scenarios to execute")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (generator + autopilot)")
    p.add_argument("--time-budget", type=float, default=0.0,
                   help="stop after this many wall seconds (0 = no limit)")
    p.add_argument("--corpus-dir", default="",
                   help="write shrunk JSON case files here on violation")
    p.add_argument("--replay", metavar="CASE",
                   help="re-run one case file instead of a campaign "
                   "(exit 0 iff the recorded violations reproduce)")
    p.add_argument("--original", action="store_true",
                   help="with --replay: run the original scenario, "
                   "not the shrunk core")
    p.add_argument("--determinism-every", type=int, default=4,
                   help="double-run the fingerprint check every N-th "
                   "scenario (0 = never)")
    p.add_argument("--races", action="store_true",
                   help="attach the race sanitizer across all runs")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "check",
        help="determinism & sim-safety analyzer: SIM lint rules + "
        "same-seed double-run event-stream fingerprint comparison",
    )
    p.add_argument("paths", nargs="*",
                   help="files/dirs to lint (default: the installed repro tree)")
    p.add_argument("--lint-only", action="store_true",
                   help="skip the double-run determinism check")
    p.add_argument("--determinism-only", action="store_true",
                   help="skip the lint pass")
    p.add_argument("--taint", action="store_true",
                   help="run the interprocedural taint pass (SIM011): flag "
                   "sim-scope calls that transitively reach a "
                   "nondeterminism primitive in a helper/another module")
    p.add_argument("--races", action="store_true",
                   help="also run the sim-time race sanitizer over the "
                   "membership smoke scenario (two seeds)")
    p.add_argument("--races-only", action="store_true",
                   help="run only the race sanitizer")
    p.add_argument("--perf", action="store_true",
                   help="also run the hot-path performance analyzer "
                   "(PERF101-PERF105 over the sim-hot set)")
    p.add_argument("--races-output", metavar="FILE",
                   help="write race reports (or a clean marker) to FILE")
    p.add_argument("--cells", action="store_true",
                   help="also run the static shared-state audit "
                   "(RACE201-RACE204): prove every mutable cell reachable "
                   "from two concurrent process roots is sanitizer-noted")
    p.add_argument("--cells-only", action="store_true",
                   help="run only the shared-state audit")
    p.add_argument("--cells-freshness", action="store_true",
                   help="run only the cell-registry drift check (every "
                   "in-tree note_access family must have a declaration)")
    p.add_argument("--cells-output", metavar="FILE",
                   help="write the RACE report (or a clean marker) to FILE")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", type=int, default=2,
                   help="nodes in the determinism-check experiment")
    p.add_argument("--files-per-rank", type=int, default=4)
    p.add_argument("--block", type=int, default=2048,
                   help="fingerprint checkpoint interval (bisection grain)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "bench",
        help="engine throughput on pinned scenarios (the perf "
        "trajectory behind BENCH_engine.json)",
    )
    p.add_argument("--output", metavar="FILE",
                   help="write the bench JSON (e.g. BENCH_engine.json)")
    p.add_argument("--compare", metavar="FILE",
                   help="compare against a checked-in bench JSON; exit "
                   "nonzero on regression")
    p.add_argument("--tolerance", type=float, default=0.6,
                   help="allowed events/sec drop vs the baseline "
                   "(0.6 = fail below 40%% of baseline)")
    p.add_argument("--repeats", type=int, default=3,
                   help="timing runs per scenario (best-of-N)")
    p.add_argument("--scenarios", nargs="*", metavar="NAME",
                   help="subset of pinned scenarios to run")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", help="one training simulation")
    p.add_argument("--system", default="hvac1",
                   help="gpfs | hvac1 | hvac2 | hvac4 | xfs")
    p.add_argument("--model", choices=sorted(ALL_MODELS), default="resnet50")
    p.add_argument("--nodes", type=int, nargs="+", default=[8])
    p.add_argument("--epochs", type=int, default=10)
    _add_scale_args(p)
    p.set_defaults(func=cmd_train)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

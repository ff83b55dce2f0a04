"""The one system builder, the kernel's ``run_all``, and the figure
drivers' system resolution."""

import ast
from pathlib import Path

import pytest

from repro.baselines import (
    SYSTEM_SETUPS,
    HVACSetup,
    LPCCLikeSetup,
    XFSSetup,
    build_hvac,
)
from repro.cluster import TESTING
from repro.dl import IMAGENET21K, RESNET50, SyntheticDataset
from repro.experiments import Scale, compare
from repro.experiments.batch import batch_size_scaling
from repro.experiments.epochs import epoch_scaling, per_epoch_analysis
from repro.experiments.scaling import node_scaling
from repro.faults import FAULT_SPEC_OVERRIDES
from repro.fuzz.scenario import BASE_OVERRIDES
from repro.simcore import Environment, run_all

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SCALE = Scale().smaller()


def one_registry(dep):
    return dep.metrics is dep.allocation.metrics is dep.pfs.metrics


class TestBuilder:
    def test_hvac_shares_one_registry(self):
        dep = build_hvac(Environment(), TESTING, 2, seed=1)
        assert one_registry(dep)
        assert dep.n_servers == 2

    def test_locality_split_shares_one_registry(self):
        dep = build_hvac(Environment(), TESTING, 2, local_fraction=1.0)
        assert one_registry(dep)
        assert dep.placement.local_fraction == 1.0

    def test_compare_rig_shares_one_registry(self):
        env, dep, pfs = compare.build(TESTING, 2, seed=0)
        assert pfs is dep.pfs and dep.env is env
        assert one_registry(dep)

    @pytest.mark.parametrize(
        "setup", [*SYSTEM_SETUPS.values(), LPCCLikeSetup()], ids=lambda s: s.label
    )
    def test_handles_report_the_system_registry(self, setup):
        env = Environment()
        ds = SyntheticDataset.scaled(IMAGENET21K, 8)[0]
        handle = setup.build(env, TESTING, 2, ds)
        if handle.pfs is not None:
            assert handle.pfs.metrics is handle.metrics
        if handle.deployment is not None:
            assert one_registry(handle.deployment)
            assert handle.deployment.metrics is handle.metrics

    def test_xfs_stage_reads_into_the_handle_registry(self):
        env = Environment()
        ds = SyntheticDataset.scaled(IMAGENET21K, 8)[0]
        handle = XFSSetup(instant_stage=False).build(env, TESTING, 2, ds)
        assert handle.run_stage() > 0
        assert handle.metrics.counter("gpfs.opens").value == 2 * len(ds)


class TestRunAll:
    def test_waits_for_every_process(self):
        env = Environment()

        def sleep(d):
            yield env.timeout(d)

        procs = [env.process(sleep(d)) for d in (0.5, 2.0, 1.0)]
        assert run_all(env, procs, "wait") == 2.0
        assert all(not p.is_alive for p in procs)

    def test_compare_reexports_the_kernel_run_all(self):
        assert compare.run_all is run_all


def test_fuzz_timing_derives_from_the_fault_experiments():
    assert compare.FAULT_SPEC_OVERRIDES is FAULT_SPEC_OVERRIDES
    assert BASE_OVERRIDES == {**FAULT_SPEC_OVERRIDES, "probation_period": 0.02}


# -- figure drivers accept what run_training accepts ------------------------
DRIVERS = {
    "node_scaling": lambda systems: node_scaling(
        RESNET50, IMAGENET21K, [2], SCALE, systems=systems
    ).total_minutes,
    "epoch_scaling": lambda systems: epoch_scaling(
        RESNET50, IMAGENET21K, epoch_counts=[2], n_nodes=2, scale=SCALE,
        systems=systems,
    ).total_minutes,
    "per_epoch_analysis": lambda systems: per_epoch_analysis(
        RESNET50, IMAGENET21K, SCALE, n_nodes=2, epochs=2, systems=systems
    ).epoch1,
    "batch_size_scaling": lambda systems: batch_size_scaling(
        RESNET50, IMAGENET21K, [4], SCALE, n_nodes=2, systems=systems
    ).total_minutes,
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_driver_accepts_a_setup_instance(driver):
    assert list(DRIVERS[driver]((HVACSetup(3),))) == ["HVAC(3x1)"]


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_driver_names_an_unknown_system(driver):
    with pytest.raises(ValueError, match="unknown system 'hvac3'; choose from"):
        DRIVERS[driver](("hvac3",))


# -- structure: one builder, one wait process --------------------------------
BUILDER = SRC / "baselines" / "setups.py"
ASSEMBLY = {"Allocation", "GPFS", "HVACDeployment"}


def modules():
    """The package plus the examples and benchmarks built on it."""
    for top in (SRC, ROOT / "examples", ROOT / "benchmarks"):
        for path in sorted(top.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def called_name(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def test_only_the_builder_assembles_a_system():
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno} {called_name(node)}"
        for path, tree in modules()
        if path != BUILDER
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and called_name(node) in ASSEMBLY
    ]
    assert found == []


def only_waits(func) -> bool:
    """A function whose whole body is ``yield AllOf(...)``."""
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]  # docstring
    return (
        len(body) == 1
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Yield)
        and isinstance(body[0].value.value, ast.Call)
        and called_name(body[0].value.value) == "AllOf"
    )


def test_only_the_kernel_run_all_waits():
    waits = [
        (str(path.relative_to(ROOT)), node.name)
        for path, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and only_waits(node)
    ]
    assert waits == [("src/repro/simcore/engine.py", "_wait_all")]

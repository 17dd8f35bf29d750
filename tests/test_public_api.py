"""Guards on the public API surface: __all__ resolves everywhere."""

import importlib

import pytest

MODULES = [
    "repro",
    "repro.analysis",
    "repro.batch",
    "repro.batch.kernel",
    "repro.batch.lanes",
    "repro.batch.adapter",
    "repro.boost",
    "repro.chaos",
    "repro.chaos.experiment",
    "repro.chaos.impairments",
    "repro.chaos.injector",
    "repro.chaos.invariants",
    "repro.chaos.plan",
    "repro.chaos.recovery",
    "repro.core",
    "repro.core.metrics",
    "repro.core.parameters",
    "repro.engine",
    "repro.experiments",
    "repro.faults",
    "repro.hpav",
    "repro.mac",
    "repro.obs",
    "repro.obs.analyze",
    "repro.obs.capture",
    "repro.obs.probe",
    "repro.obs.profiler",
    "repro.obs.recording",
    "repro.obs.registry",
    "repro.obs.trace",
    "repro.phy",
    "repro.report",
    "repro.runner",
    "repro.service",
    "repro.service.journal",
    "repro.service.orchestrator",
    "repro.service.quarantine",
    "repro.service.signals",
    "repro.service.state",
    "repro.service.status",
    "repro.service.submit",
    "repro.service.worker",
    "repro.tools",
    "repro.traffic",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_is_sorted_reasonably(module_name):
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__)), (
        f"{module_name}.__all__ has duplicates"
    )


def test_version_exposed():
    import repro

    assert repro.__version__


def test_headline_api_importable():
    from repro import (  # noqa: F401
        CsmaConfig,
        ScenarioConfig,
        SlotSimulator,
        sim_1901,
    )
    from repro.analysis import HeterogeneousModel, Model1901  # noqa: F401
    from repro.boost import boost_report  # noqa: F401
    from repro.experiments import build_testbed  # noqa: F401
    from repro.tools import Ampstat, Faifa  # noqa: F401

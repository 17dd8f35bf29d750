"""Import budget: a task loads only the scipy subpackages it calls.

Each check starts a fresh interpreter, runs one task (or imports the
model packages) and reports which ``scipy`` modules ended up in
``sys.modules``.  Simulator and testbed tasks call no scipy at all;
a 1901 model curve calls the ``scipy.special`` ufunc behind the
deferral-jump pmf and nothing else.  ``scipy.optimize`` and
``scipy.stats`` are reserved for the delay percentiles and
``optimal_tau``, which import them on their first call.
"""

import json
import subprocess
import sys

import pytest

from repro.core.config import CsmaConfig, ScenarioConfig, TimingConfig
from repro.runner import Task, TaskKind
from repro.runner.seeding import SeedSpec
from repro.runner.serialize import (
    csma_to_jsonable,
    scenario_to_jsonable,
    timing_to_jsonable,
)
from tests.support import env


#: Runs one task the way argv[1] names — ``run_task``, a one-point
#: ``BatchRunner.run_points``, or ``import`` of the model packages —
#: and prints the scipy modules.
CHILD = """\
import json, sys
from repro.runner import BatchRunner
from repro.runner.serialize import scenario_from_jsonable
from repro.runner.tasks import run_task, task_from_description

entry, described = sys.argv[1], json.loads(sys.argv[2])
if entry == "import":
    import repro.analysis, repro.boost, repro.experiments
elif entry == "run_points":
    task = task_from_description(described)
    BatchRunner().run_points(
        [(scenario_from_jsonable(task.payload["scenario"]), task.seed)]
    )
else:
    run_task(task_from_description(described))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _scipy_modules_after(entry, task):
    described = None if task is None else task.describe()
    out = subprocess.run(
        [sys.executable, "-c", CHILD, entry, json.dumps(described)],
        capture_output=True,
        text=True,
        env=env(),
        timeout=120,
        check=True,
    )
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def _scenario():
    return scenario_to_jsonable(
        ScenarioConfig.homogeneous(
            num_stations=2, sim_time_us=1e5, seed=1
        )
    )


def _seed():
    return SeedSpec(root_seed=1, point_index=0, repetition=0)


def _model_curve(family):
    config = (
        CsmaConfig.ieee80211()
        if family == "80211"
        else CsmaConfig.default_1901()
    )
    return Task(
        kind=TaskKind.MODEL_CURVE,
        payload={
            "family": family,
            "csma": csma_to_jsonable(config),
            "timing": timing_to_jsonable(TimingConfig()),
            "station_counts": [1, 2, 5],
            "method": "recursive",
        },
    )


def _simulate():
    return Task(
        kind=TaskKind.SIMULATE,
        payload={"scenario": _scenario()},
        seed=_seed(),
    )


SCIPY_FREE = {
    "simulate": lambda: ("run_task", _simulate()),
    "batch_run_points": lambda: ("run_points", _simulate()),
    "collision_test": lambda: (
        "run_task",
        Task(
            kind=TaskKind.COLLISION_TEST,
            payload={
                "num_stations": 2,
                "duration_us": 2e5,
                "warmup_us": 1e4,
                "seed": 1,
            },
        ),
    ),
    "model_curve_80211": lambda: ("run_task", _model_curve("80211")),
    "import_model_packages": lambda: ("import", None),
}


@pytest.mark.parametrize("name", sorted(SCIPY_FREE))
def test_loads_no_scipy(name):
    assert _scipy_modules_after(*SCIPY_FREE[name]()) == set()


def test_1901_model_curve_loads_scipy_special_alone():
    loaded = _scipy_modules_after("run_task", _model_curve("1901"))
    assert "scipy.special" in loaded
    subpackages = {".".join(m.split(".")[:2]) for m in loaded}
    assert "scipy.optimize" not in subpackages
    assert "scipy.stats" not in subpackages

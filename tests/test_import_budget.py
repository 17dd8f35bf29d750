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
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.config import CsmaConfig, ScenarioConfig, TimingConfig
from repro.runner import Task, TaskKind
from repro.runner.seeding import SeedSpec
from repro.runner.serialize import (
    csma_to_jsonable,
    scenario_to_jsonable,
    timing_to_jsonable,
)

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: Runs the task described by argv[1] and prints the scipy modules.
CHILD = """\
import json, sys
from repro.runner.seeding import SeedSpec
from repro.runner.tasks import Task, run_task

described = json.loads(sys.argv[1])
if described is None:
    import repro.analysis, repro.boost, repro.experiments
else:
    seed = described["seed"]
    run_task(
        Task(
            described["kind"],
            described["payload"],
            SeedSpec.from_jsonable(seed) if seed else None,
        )
    )
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _scipy_modules_after(task):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    described = None if task is None else task.describe()
    out = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(described)],
        capture_output=True,
        text=True,
        env=env,
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


SCIPY_FREE = {
    "simulate": lambda: Task(
        kind=TaskKind.SIMULATE,
        payload={"scenario": _scenario()},
        seed=_seed(),
    ),
    "simulate_batch": lambda: Task(
        kind=TaskKind.SIMULATE_BATCH,
        payload={
            "points": [
                {"scenario": _scenario(), "seed": _seed().as_jsonable()}
            ]
        },
    ),
    "collision_test": lambda: Task(
        kind=TaskKind.COLLISION_TEST,
        payload={
            "num_stations": 2,
            "duration_us": 2e5,
            "warmup_us": 1e4,
            "seed": 1,
        },
    ),
    "model_curve_80211": lambda: _model_curve("80211"),
    "import_model_packages": lambda: None,
}


@pytest.mark.parametrize("name", sorted(SCIPY_FREE))
def test_loads_no_scipy(name):
    assert _scipy_modules_after(SCIPY_FREE[name]()) == set()


def test_1901_model_curve_loads_scipy_special_alone():
    loaded = _scipy_modules_after(_model_curve("1901"))
    assert "scipy.special" in loaded
    subpackages = {".".join(m.split(".")[:2]) for m in loaded}
    assert "scipy.optimize" not in subpackages
    assert "scipy.stats" not in subpackages

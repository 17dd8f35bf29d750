"""A hung service worker is reaped by the watchdog.

``repro-plc serve`` runs with ``task_hang`` armed and a 2 s task
timeout: the hung worker overruns it, is SIGKILLed, and the
retry completes the sweep bit-identically to an uninterrupted
in-process ``ExperimentRunner``.  The orchestrator's kill points and a
worker's hard death are cells of the conformance matrix
(``tests/integration/test_conformance.py``).
"""

from repro.runner import ExperimentRunner
from repro.runner.cache import ResultCache, cache_key
from repro.service import TaskState, build_submission, fold_journal, write_submission
from repro.service.orchestrator import ServicePaths
from tests.support import cli, events, finish, sim_tasks


class TestWorkerKill:
    def test_worker_hang_reaped_by_watchdog(self, tmp_path):
        """A hung worker overruns the task timeout, is SIGKILLed, and
        the retry completes the sweep."""
        tasks = sim_tasks((2, 3))
        want = ExperimentRunner().run(tasks)
        sdir = tmp_path / "svc"
        write_submission(ServicePaths(sdir).inbox, build_submission(tasks))
        serve = ["serve", "--service-dir", sdir, "--workers", 2,
                 "--task-timeout", 2, "--exit-when-idle"]
        hang = {
            "REPRO_FAULT": "task_hang:times=1,seconds=60",
            "REPRO_FAULT_DIR": str(tmp_path / "faults"),
        }
        code, out = finish(cli(serve, hang), timeout=300)
        assert code == 0, out[-2000:]
        assert events(sdir, "task_failed")
        assert fold_journal(sdir).counts()[TaskState.COMPLETED] == len(tasks)
        cache = ResultCache(ServicePaths(sdir).cache)
        for task, expected in zip(tasks, want):
            assert cache.get(cache_key(task.describe())) == expected

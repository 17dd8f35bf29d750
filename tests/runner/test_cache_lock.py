"""Advisory cache locking and size/age pruning (PR 9 satellites)."""

import os
import subprocess
import sys
import time

from repro.checkpoint.integrity import FileLock
from repro.runner.cache import LOCK_FILENAME, ResultCache
from tests.support import env


def _fill(cache, n, size=0):
    """Write n entries keyed e0..e{n-1}, optionally padded, oldest first."""
    keys = []
    for i in range(n):
        key = f"e{i:02d}"
        cache.put(key, {"i": i, "pad": "x" * size}, {"kind": "t", "i": i})
        keys.append(key)
    return keys


def _backdate(cache, key, age_s):
    path = cache.path_for(key)
    old = time.time() - age_s
    os.utime(path, (old, old))


class TestFileLock:
    def test_context_manager_acquires_and_releases(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        assert not lock.held
        with lock:
            assert lock.held
        assert not lock.held

    def test_reentrant_in_process(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        with lock:
            with lock:  # same process re-enters without deadlocking
                assert lock.held
            assert lock.held  # inner release keeps the outer hold
        assert not lock.held

    def test_excludes_other_processes(self, tmp_path):
        """While held here, a second process cannot take the lock."""
        lock_path = tmp_path / "x.lock"
        probe = (
            "import fcntl, os, sys\n"
            "fd = os.open(sys.argv[1], os.O_RDWR | os.O_CREAT)\n"
            "try:\n"
            "    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
            "except OSError:\n"
            "    sys.exit(3)  # correctly excluded\n"
            "sys.exit(0)\n"
        )
        with FileLock(lock_path):
            rc = subprocess.run(
                [sys.executable, "-c", probe, str(lock_path)]
            ).returncode
            assert rc == 3
        rc = subprocess.run(
            [sys.executable, "-c", probe, str(lock_path)]
        ).returncode
        assert rc == 0

    def test_cache_put_creates_lock_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"v": 1}, {"kind": "t"})
        assert (tmp_path / LOCK_FILENAME).exists()
        # The lock file is not an entry.
        assert len(cache) == 1

    def test_clear_removes_lock_file_too(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"v": 1}, {"kind": "t"})
        assert cache.clear() == 1
        assert list(tmp_path.glob("*")) == []


class TestPruneByAge:
    def test_old_entries_evicted_young_kept(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 4)
        _backdate(cache, "e00", 3600)
        _backdate(cache, "e01", 3600)
        report = cache.prune(max_age_s=600)
        assert report["removed"] == 2
        assert report["kept"] == 2
        assert cache.get("e00") is None
        assert cache.get("e03") is not None

    def test_age_prune_sweeps_stale_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 1)
        orphan = tmp_path / ".tmp-orphan.json"
        orphan.write_text("{", encoding="utf-8")
        old = time.time() - 3600
        os.utime(orphan, (old, old))
        cache.prune(max_age_s=600)
        assert not orphan.exists()
        assert cache.get("e00") is not None


class TestPruneBySize:
    def test_lru_eviction_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 4, size=2000)
        for i in range(4):  # make mtime order deterministic
            _backdate(cache, f"e{i:02d}", (4 - i) * 100)
        entry_size = cache.path_for("e00").stat().st_size
        report = cache.prune(max_bytes=2 * entry_size)
        assert report["removed"] == 2
        assert cache.get("e00") is None and cache.get("e01") is None
        assert cache.get("e02") is not None and cache.get("e03") is not None
        assert report["bytes"] <= 2 * entry_size

    def test_zero_budget_clears_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 3)
        report = cache.prune(max_bytes=0)
        assert report["removed"] == 3
        assert len(cache) == 0


class TestPruneProtection:
    def test_protected_keys_survive_both_policies(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 3, size=2000)
        for i in range(3):
            _backdate(cache, f"e{i:02d}", 3600)
        report = cache.prune(
            max_age_s=600, max_bytes=0, protect={"e01"}
        )
        assert cache.get("e01") is not None
        assert cache.get("e00") is None
        assert cache.get("e02") is None
        assert report["protected"] >= 1

    def test_no_bounds_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 2)
        report = cache.prune()
        assert report["removed"] == 0
        assert len(cache) == 2


class TestConcurrentWriters:
    def test_parallel_puts_from_two_processes(self, tmp_path):
        """Two processes hammer the same cache; every entry lands whole."""
        writer = (
            "import sys\n"
            "from repro.runner.cache import ResultCache\n"
            "cache = ResultCache(sys.argv[1])\n"
            "base = int(sys.argv[2])\n"
            "for i in range(20):\n"
            "    key = 'k%04d' % (base + i)\n"
            "    cache.put(key, {'i': base + i}, {'kind': 't'})\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", writer, str(tmp_path), str(base)],
                env=env(),
            )
            for base in (0, 1000)
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        cache = ResultCache(tmp_path)
        assert len(cache) == 40
        for base in (0, 1000):
            for i in range(20):
                assert cache.get("k%04d" % (base + i)) == {"i": base + i}

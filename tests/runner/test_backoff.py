"""Full-jitter retry backoff: caps, bounds, reproducibility."""

from repro.runner import FullJitterBackoff
from repro.runner.backoff import FullJitterBackoff as _direct


class TestCap:
    def test_cap_doubles_from_base(self):
        b = FullJitterBackoff(base_s=0.1, max_s=100.0)
        assert b.cap(1) == 0.1
        assert b.cap(2) == 0.2
        assert b.cap(3) == 0.4
        assert b.cap(4) == 0.8

    def test_cap_clamps_at_max(self):
        b = FullJitterBackoff(base_s=0.1, max_s=0.5)
        assert b.cap(10) == 0.5
        assert b.cap(100) == 0.5

    def test_attempt_floor(self):
        b = FullJitterBackoff(base_s=0.1, max_s=1.0)
        assert b.cap(0) == b.cap(1) == 0.1

    def test_reexported_from_runner_package(self):
        assert FullJitterBackoff is _direct


class TestSample:
    def test_samples_within_zero_and_cap(self):
        b = FullJitterBackoff(base_s=0.05, max_s=2.0, seed=123)
        for attempt in range(1, 12):
            for _ in range(50):
                s = b.sample(attempt)
                assert 0.0 <= s <= b.cap(attempt)

    def test_seed_reproducible(self):
        a = FullJitterBackoff(base_s=0.05, max_s=2.0, seed=7)
        b = FullJitterBackoff(base_s=0.05, max_s=2.0, seed=7)
        assert [a.sample(k) for k in range(1, 20)] == [
            b.sample(k) for k in range(1, 20)
        ]

    def test_different_seeds_differ(self):
        a = FullJitterBackoff(seed=1)
        b = FullJitterBackoff(seed=2)
        assert [a.sample(k) for k in range(1, 20)] != [
            b.sample(k) for k in range(1, 20)
        ]

    def test_jitter_false_returns_cap_exactly(self):
        b = FullJitterBackoff(base_s=0.1, max_s=1.0, jitter=False)
        assert b.sample(1) == 0.1
        assert b.sample(2) == 0.2
        assert b.sample(30) == 1.0

    def test_jitter_independent_of_global_random(self):
        import random

        # Same-seed samplers agree regardless of global random state:
        # the sampler owns a private Random, never the module one.
        random.seed(99)
        a = FullJitterBackoff(seed=5)
        first = [a.sample(k) for k in (1, 2, 3)]
        random.seed(0)
        b = FullJitterBackoff(seed=5)
        assert [b.sample(k) for k in (1, 2, 3)] == first


"""Full-jitter exponential backoff for the HTTP sweep client.

Deterministic capped exponential backoff ``min(max, base * 2**(k-1))``
synchronizes many clients retrying against one service (the HTTP
front end): every client that failed together retries together, and
the retry storm re-creates the overload that caused the failures.  The
standard fix is *full jitter* (Brooker, "Exponential Backoff And
Jitter"): sleep ``uniform(0, cap(k))`` instead of ``cap(k)``, which
decorrelates the herd while keeping the same worst-case delay
envelope.  :class:`~repro.service.net.client.SweepClient` uses it;
the runner and the orchestrator, each retrying its own workers, retry
a failed task at once.

Determinism is preserved where it matters:

- the **cap** schedule is exactly the capped exponential above;
- the jitter stream is a private seedable ``random.Random`` — pass a
  ``seed`` and the delay sequence is reproducible (what the tests do);
  never the global ``random`` state, and never the task's
  :class:`~repro.runner.seeding.SeedSpec` (backoff timing must not be
  able to change results);
- ``jitter=False`` degrades to the deterministic schedule.
"""

from __future__ import annotations

import random
from typing import Optional

__all__ = ["FullJitterBackoff"]


class FullJitterBackoff:
    """Seedable full-jitter delays over a capped exponential schedule.

    ``cap(attempt)`` is the deterministic ceiling
    ``min(max_s, base_s * 2**(attempt-1))`` (attempt is 1-based);
    ``sample(attempt)`` draws ``uniform(0, cap(attempt))`` from a
    private RNG — or returns the cap itself when ``jitter=False``.
    """

    def __init__(
        self,
        base_s: float = 0.05,
        max_s: float = 2.0,
        jitter: bool = True,
        seed: Optional[int] = None,
    ) -> None:
        if base_s < 0 or max_s < 0:
            raise ValueError("base_s and max_s must be >= 0")
        self.base_s = base_s
        self.max_s = max_s
        self.jitter = jitter
        self._rng = random.Random(seed)

    def cap(self, attempt: int) -> float:
        """Deterministic delay ceiling before retry ``attempt`` (1-based)."""
        return min(self.max_s, self.base_s * (2 ** max(0, attempt - 1)))

    def sample(self, attempt: int) -> float:
        """The actual delay to sleep before retry ``attempt``."""
        cap = self.cap(attempt)
        if not self.jitter or cap <= 0.0:
            return cap
        return self._rng.uniform(0.0, cap)

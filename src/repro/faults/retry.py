"""Retry with capped exponential backoff and deterministic jitter.

Used by the serving gate: a submission shed by a full queue (or a
breaker-open gate) is re-offered after a backoff delay instead of being
rejected outright.  The jitter decorrelates retry storms — but unlike
wall-clock jitter it is a pure function of ``(seed, submission_id,
attempt)``, so a seeded service run stays byte-reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import FaultError

#: Exponential growth factor of the backoff per attempt.
MULTIPLIER = 2.0
#: Jitter span as a fraction of the backoff: the addition is drawn
#: deterministically from ``[0, JITTER * delay]``.
JITTER = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attributes:
        max_retries: re-offers after the first failed attempt
            (0 disables retrying — the pre-hardening behaviour).
        base_delay: backoff before the first retry, seconds; retry
            ``k`` waits ``base_delay * MULTIPLIER**k`` plus jitter.
        max_delay: backoff cap, seconds (before jitter).
        seed: seeds the jitter stream.
    """

    max_retries: int = 3
    base_delay: float = 2.0
    max_delay: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise FaultError("max_retries must be >= 0")
        if self.base_delay <= 0 or self.max_delay < self.base_delay:
            raise FaultError("need 0 < base_delay <= max_delay")

    def backoff(self, submission_id: int, attempt: int) -> float:
        """Delay before retry number ``attempt`` (0-based) of a submission."""
        if attempt < 0:
            raise FaultError("attempt must be >= 0")
        delay = min(self.base_delay * MULTIPLIER**attempt, self.max_delay)
        spread = random.Random(
            f"{self.seed}:{submission_id}:{attempt}"
        ).uniform(0.0, JITTER * delay)
        return delay + spread

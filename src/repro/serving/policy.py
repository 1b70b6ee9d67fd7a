"""Robustness policy: per-request deadlines and bounded retry with backoff.

Calls to a real hosted LLM fail transiently (rate limits, connection
resets) and take unpredictable time; the serving engine wraps every
forecast in a :class:`RetryPolicy` and bounds the whole request with a
:class:`Deadline`.  Both are plain, dependency-free objects so tests can
inject a recording ``sleep`` and virtual clocks.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.exceptions import ConfigError, GenerationError

__all__ = ["Deadline", "RetryPolicy"]


class Deadline:
    """A wall-clock budget started at construction time.

    ``Deadline(None)`` is the unbounded deadline: it never expires and
    reports ``remaining() is None``, so callers can pass it straight to
    ``Future.result(timeout=...)``.
    """

    def __init__(self, seconds: float | None, *, clock=time.monotonic) -> None:
        if seconds is not None and seconds <= 0:
            raise ConfigError(f"deadline must be > 0 seconds, got {seconds}")
        self.seconds = seconds
        self._clock = clock
        self._started = clock()

    @property
    def unbounded(self) -> bool:
        """True when no time budget was set."""
        return self.seconds is None

    def elapsed(self) -> float:
        """Seconds since the deadline started."""
        return self._clock() - self._started

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0), or None when unbounded."""
        if self.seconds is None:
            return None
        return max(0.0, self.seconds - self.elapsed())

    @property
    def expired(self) -> bool:
        """True once the budget has been used up."""
        return self.seconds is not None and self.elapsed() >= self.seconds

    def __repr__(self) -> str:
        if self.seconds is None:
            return "Deadline(unbounded)"
        return f"Deadline({self.seconds}s, remaining={self.remaining():.3f}s)"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff on :class:`GenerationError`.

    ``max_attempts`` counts the first try, so ``max_attempts=1`` disables
    retrying.  The delay before attempt ``k+1`` is
    ``base_delay * multiplier**(k-1)`` capped at ``max_delay`` — and further
    capped at the deadline's remaining budget, so backoff never sleeps a
    request past its own deadline.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ConfigError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise ConfigError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay < 0:
            raise ConfigError(f"max_delay must be >= 0, got {self.max_delay}")

    def delays(self) -> Iterator[float]:
        """Backoff delays before attempts 2, 3, ... (``max_attempts - 1`` of them)."""
        delay = self.base_delay
        for _ in range(self.max_attempts - 1):
            yield min(delay, self.max_delay)
            delay *= self.multiplier

    def run(
        self,
        task: Callable[[], object],
        *,
        deadline: Deadline | None = None,
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Callable[[int, Exception], None] | None = None,
    ):
        """Call ``task`` until it succeeds or the policy is exhausted.

        Returns ``(result, attempts_used)``.  Retries only on
        :class:`GenerationError` (the substrate's transient-failure type);
        anything else propagates immediately.  A deadline that has expired
        when an attempt fails, or expires between attempts, stops retrying
        and re-raises the last error (``on_retry`` is not called for it).
        """
        delays = self.delays()
        for attempt in range(1, self.max_attempts + 1):
            if deadline is not None and deadline.expired:
                raise GenerationError(
                    f"deadline expired before attempt {attempt}"
                )
            try:
                return task(), attempt
            except GenerationError as error:
                if attempt == self.max_attempts or (
                    deadline is not None and deadline.expired
                ):
                    raise
                if on_retry is not None:
                    on_retry(attempt, error)
                delay = next(delays)
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining is not None:
                        if remaining <= 0:
                            raise
                        delay = min(delay, remaining)
                if delay > 0:
                    sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

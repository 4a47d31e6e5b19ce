"""The serving front door: admission control, deadline drops, batching.

One FIFO queue sits between the arrival trace and the replica fleet.
Three ways a request can fail to be served, each booked under its own
status so the report can price them separately:

* **rejected** — admission control: the request arrived while the queue
  already held ``queue_capacity`` waiters (load shedding at the front
  door, the 429/503 a real gateway returns under pressure).
* **error** — the arrival landed inside an API-error burst window of the
  fault calendar; the front door itself was failing.
* **dropped** — deadline policy: by the time a replica could start the
  request, it had already waited longer than ``deadline_ms``; serving a
  dead request wastes capacity, so the queue drops it at dispatch time.

A fourth loss class, **shed** (:data:`SHED`), is booked by the
resilience layer (`repro.resilience`) *before* the queue is consulted:
an open circuit breaker or a priority tier over its depth threshold
fails the request fast at the front door without it ever holding a
queue slot.  The open-loop simulation never produces it.

Batches are formed against :class:`repro.serving.BatchingConfig` — the
same ``window_close`` semantics the closed-loop lab batcher uses — so
loadgen's operations layer and the Unit-6 batching simulation cannot
drift apart.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.serving.batching import BatchingConfig

# request terminal statuses (int8 codes in the result arrays)
SERVED = 0
REJECTED = 1   # admission control: queue full at arrival
DROPPED = 2    # deadline exceeded while queued
ERROR = 3      # arrived during an API-error burst window
FAILED = 4     # in flight on a replica an outage killed
SHED = 5       # load-shed at the front door (breaker open / tier over threshold)


@dataclass(frozen=True)
class AdmissionConfig:
    """Front-door policy knobs."""

    queue_capacity: int = 512
    deadline_ms: float = 1000.0

    def __post_init__(self) -> None:
        if self.queue_capacity <= 0:
            raise ValidationError(f"queue capacity must be positive: {self!r}")
        if self.deadline_ms <= 0:
            raise ValidationError(f"deadline must be positive: {self!r}")

    @property
    def deadline_s(self) -> float:
        return self.deadline_ms / 1e3


class RequestQueue:
    """FIFO of admitted request indices, with the three loss policies.

    The queue never inspects the clock itself: the simulation loop feeds
    it arrivals and dispatch instants in chronological order, and every
    decision is a pure function of those inputs — no RNG, no ambient
    state, which is what keeps the whole operations layer order-invariant.
    """

    def __init__(
        self,
        admission: AdmissionConfig,
        batching: BatchingConfig,
        arrivals_s: np.ndarray,
        status: np.ndarray,
        *,
        enqueued_at: np.ndarray | None = None,
    ) -> None:
        self.admission = admission
        self.batching = batching
        self._capacity = admission.queue_capacity
        self._arrivals = arrivals_s
        # per-request enqueue instants: the arrival array itself in the
        # open-loop simulation, a writable copy under closed-loop retries
        # (an attempt's deadline and batch-window run from the *attempt*
        # arrival, not the original request's).  Both per-request arrays
        # are accessed through memoryviews: Python scalars, no numpy boxing
        self._times = memoryview(enqueued_at if enqueued_at is not None else arrivals_s)
        self._status = memoryview(status)
        #: The waiting request indices, oldest first.  Only the queue
        #: changes it; the simulation loop reads ``len(pending)`` as the
        #: depth without a property call per event.
        self.pending: deque[int] = deque()
        self.max_depth = 0
        self.rejected = 0
        self.errored = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.pending)

    @property
    def depth(self) -> int:
        return len(self.pending)

    def head_arrival(self) -> float:
        """Enqueue time of the oldest waiter (queue must be non-empty)."""
        return float(self._times[self.pending[0]])

    # -- arrival side -------------------------------------------------------

    def offer(self, idx: int, *, in_burst: bool) -> bool:
        """Admit request ``idx`` (True) or book its loss (False)."""
        if in_burst:
            self._status[idx] = ERROR
            self.errored += 1
            return False
        if len(self.pending) >= self._capacity:
            self._status[idx] = REJECTED
            self.rejected += 1
            return False
        self.pending.append(idx)
        if len(self.pending) > self.max_depth:
            self.max_depth = len(self.pending)
        return True

    # -- dispatch side ------------------------------------------------------

    def expire(self, start_s: float) -> list[int]:
        """Drop queued requests whose wait would exceed the deadline if
        service started at ``start_s``.  Returns the dropped indices (so
        a closed-loop client layer can schedule their retries).

        Boundary semantics: a waiter whose wait *equals* the deadline is
        still served — the drop condition is strictly ``wait > deadline``
        (the request is dead only once the deadline has passed, exactly
        like :meth:`RetryPolicy.allows_retry`'s ``elapsed >= deadline``
        refusal is the mirror-image give-up rule on the client side).

        Only the front of the queue can be expired (FIFO: later waiters
        arrived later and have waited less), so this is a prefix walk.
        """
        deadline = self.admission.deadline_s
        dropped: list[int] = []
        while self.pending and start_s - self._times[self.pending[0]] > deadline:
            idx = self.pending.popleft()
            self._status[idx] = DROPPED
            self.dropped += 1
            dropped.append(idx)
        return dropped

    def take_batch(self, earliest_start_s: float) -> list[int]:
        """Form one batch whose leader could start at ``earliest_start_s``.

        Followers join while they arrived inside the batching window and
        the batch is below ``max_batch`` — the exact
        :meth:`~repro.serving.BatchingConfig.window_close` rule of
        :func:`repro.serving.simulate_batching`.  Caller must have
        admitted all arrivals up to the window close first.
        """
        if not self.pending:
            return []
        close = self.batching.window_close(earliest_start_s)
        batch: list[int] = [self.pending.popleft()]
        while (
            self.pending
            and len(batch) < self.batching.max_batch
            and self._times[self.pending[0]] <= close
        ):
            batch.append(self.pending.popleft())
        return batch

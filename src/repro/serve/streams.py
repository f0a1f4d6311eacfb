"""Streaming results channel: bounded subscriptions with backpressure.

Per-step results (energies, coordinates committed to the trajectory
stream, job status transitions, warm-layer snapshots) are published as
`StreamEvent` records to a `ResultChannel`. Subscribers attach bounded
buffers; when a subscriber falls behind, the channel does **not** drop
frames — instead `ResultChannel.should_throttle` reports the jobs whose
subscribers are saturated and the service stops *drawing tasks* of
those jobs for the drive loop until the buffers drain below the low
watermark. The
buffer can therefore overshoot its capacity only by the frames already
in flight when the throttle engaged — a bound set by the coordinator's
live-step skew, not by the trajectory length.

The bounds are constants: a subscription is sized for `CAPACITY` events,
the throttle engages above `HIGH_WATERMARK` buffered events and releases
at `LOW_WATERMARK`.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

#: events a subscription is sized for
CAPACITY = 64

#: buffered events above which a subscriber's jobs are throttled
HIGH_WATERMARK = CAPACITY // 2

#: buffered events at or below which the throttle releases
LOW_WATERMARK = CAPACITY // 4


@dataclass(frozen=True)
class StreamEvent:
    """One item on the results stream.

    ``kind`` is one of ``step`` (a retired MD step), ``status`` (a job
    state transition), or ``warm_layer`` (a shared-cache counters
    snapshot); ``payload`` carries the kind-specific fields.
    """

    job_id: str
    kind: str
    step: int | None = None
    payload: dict = field(default_factory=dict)


class Subscription:
    """One subscriber's buffered view of the channel.

    Events are delivered in publish order. ``get`` blocks (with an
    optional timeout) until an event arrives or the subscription is
    closed and drained.
    """

    def __init__(self, channel: "ResultChannel", job_id: str | None) -> None:
        self._channel = channel
        self.job_id = job_id
        self._buf: deque[StreamEvent] = deque()
        self._closed = False

    def _matches(self, event: StreamEvent) -> bool:
        return self.job_id is None or event.job_id == self.job_id

    def __len__(self) -> int:
        return len(self._buf)

    def get(self, timeout: float | None = None) -> StreamEvent | None:
        """Next event, or None on timeout / closed-and-drained."""
        with self._channel._cond:
            self._channel._cond.wait_for(
                lambda: self._buf or self._closed, timeout=timeout
            )
            if not self._buf:
                return None
            event = self._buf.popleft()
            self._channel._cond.notify_all()
            return event

    def drain(self) -> list[StreamEvent]:
        """All currently buffered events (non-blocking)."""
        with self._channel._cond:
            out = list(self._buf)
            self._buf.clear()
            self._channel._cond.notify_all()
            return out

    def close(self) -> None:
        """Detach from the channel; buffered events remain drainable."""
        with self._channel._cond:
            self._closed = True
            self._channel._subs.discard(self)
            self._channel._cond.notify_all()


class ResultChannel:
    """Publish/subscribe hub for `StreamEvent` records.

    The throttle engages above `HIGH_WATERMARK` and releases at
    `LOW_WATERMARK`, so a briefly slow consumer does not flap the
    scheduler.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._subs: set[Subscription] = set()
        #: jobs currently held back by a saturated subscriber
        self._throttled: set[str] = set()
        self.events_published = 0
        #: publishes that landed in an over-watermark buffer
        self.stalls = 0

    def subscribe(self, job_id: str | None = None) -> Subscription:
        """New subscription (``job_id=None`` receives every job)."""
        sub = Subscription(self, job_id)
        with self._cond:
            self._subs.add(sub)
        return sub

    def publish(self, event: StreamEvent) -> None:
        """Deliver to every matching subscription (never drops)."""
        with self._cond:
            self.events_published += 1
            for sub in self._subs:
                if sub._matches(event):
                    sub._buf.append(event)
                    if len(sub._buf) > HIGH_WATERMARK:
                        self.stalls += 1
            self._cond.notify_all()

    def should_throttle(self, job_id: str) -> bool:
        """True while the job's task release should be held back.

        Hysteresis: engages when any matching subscription is above the
        high watermark, releases only once all are at or below the low
        watermark.
        """
        with self._cond:
            depth = max(
                (
                    len(sub._buf) for sub in self._subs
                    if sub.job_id is None or sub.job_id == job_id
                ),
                default=0,
            )
            if job_id in self._throttled:
                if depth <= LOW_WATERMARK:
                    self._throttled.discard(job_id)
                    return False
                return True
            if depth > HIGH_WATERMARK:
                self._throttled.add(job_id)
                return True
            return False

    def stats(self) -> dict:
        """Counters snapshot."""
        with self._cond:
            return {
                "events_published": self.events_published,
                "stalls": self.stalls,
                "subscriptions": len(self._subs),
                "throttled_jobs": sorted(self._throttled),
            }

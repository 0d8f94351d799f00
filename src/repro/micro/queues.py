"""Event-driven network elements: links with drop-tail queues.

A :class:`LinkQueue` serializes packets at a configured rate, holds at
most ``buffer_bytes`` of backlog (tail-dropping the excess), and
delivers each packet ``delay`` seconds after its serialization
completes.  Chain two of them (forward data path, reverse ACK path) and
you have the micro simulator's network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.engine import Engine

__all__ = ["LinkQueue"]


@dataclass
class LinkQueue:
    """A rate-limited, delay-imposing, finite drop-tail queue."""

    engine: Engine
    rate: float  # bytes/s
    delay: float  # one-way propagation, seconds
    buffer_bytes: float = float("inf")
    deliver: Callable[[object], None] = lambda pkt: None
    #: byte-size accessor for queued objects
    size_of: Callable[[object], float] = lambda pkt: getattr(pkt, "length", 60.0)

    backlog: float = 0.0
    busy: bool = False
    dropped_packets: int = 0
    dropped_bytes: float = 0.0
    delivered_bytes: float = 0.0
    _queue: list = field(default_factory=list)

    def send(self, pkt: object) -> bool:
        """Offer a packet; returns False when it was tail-dropped."""
        size = self.size_of(pkt)
        if self.backlog + size > self.buffer_bytes:
            self.dropped_packets += 1
            self.dropped_bytes += size
            return False
        self.backlog += size
        self._queue.append(pkt)
        if not self.busy:
            self._serve_next()
        return True

    def _serve_next(self) -> None:
        if not self._queue:
            self.busy = False
            return
        self.busy = True
        pkt = self._queue.pop(0)
        size = self.size_of(pkt)
        tx_time = size / self.rate
        self.engine.call_in(tx_time, lambda: self._on_serialized(pkt, size))

    def _on_serialized(self, pkt: object, size: float) -> None:
        self.backlog -= size
        self.delivered_bytes += size
        # propagation happens in parallel with serving the next packet
        self.engine.call_in(self.delay, lambda: self.deliver(pkt))
        self._serve_next()

"""Reliable delivery: acknowledgements, timeouts and retransmissions.

Section 1.1's gold consumers "expect reliable and fast delivery, which
places extra overhead on the system to process acknowledgements".  In the
optimization model this overhead is folded into the per-consumer cost
``G_{b,j}`` (gold classes carry a higher ``G``); this module supplies the
mechanism itself, so the simulator can *exhibit* the overhead the constant
abstracts:

* each delivery travels with one-way latency ``rtt/2`` and may be lost;
* the consumer acks; the ack may also be lost;
* the broker retransmits after ``timeout`` (default ``2*rtt``) up to
  ``max_retries`` times, charging the node meter per send and per ack
  processed;
* duplicate deliveries (retransmit racing a late ack) are suppressed at
  the consumer by message sequence number.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass

from repro.events.broker import DeliveryService
from repro.events.engine import EventEngine
from repro.events.metering import ResourceMeter
from repro.events.pubsub import Consumer, EventMessage
from repro.model.entities import ClassId, NodeId


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retransmission: wait ``timeout`` for an acknowledgement,
    retransmit up to ``max_retries`` times, then abandon.

    The ack/timeout/retransmit pattern of this module's reliable pub/sub
    channel, factored out so the asynchronous LRGP runtime can apply the
    same machinery to unacknowledged rate announcements
    (:mod:`repro.runtime.asynchronous`).
    """

    timeout: float = 2.0
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.timeout <= 0.0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )


@dataclass(frozen=True)
class ReliabilityConfig:
    """Reliable-channel parameters for one consumer class."""

    rtt: float = 0.01
    loss_probability: float = 0.0
    max_retries: int = 3
    #: Node resource units charged per transmission attempt and per ack
    #: processed (the "extra overhead" of section 1.1).
    send_cost: float = 0.0
    ack_cost: float = 0.0
    #: Retransmission timeout; defaults to ``2 * rtt`` when None.
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.rtt <= 0.0:
            raise ValueError("rtt must be positive")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.send_cost < 0.0 or self.ack_cost < 0.0:
            raise ValueError("costs must be non-negative")
        if self.timeout is not None and self.timeout <= 0.0:
            raise ValueError("timeout must be positive")

    @property
    def effective_timeout(self) -> float:
        return self.timeout if self.timeout is not None else 2.0 * self.rtt


@dataclass
class ReliabilityStats:
    """Counters for one reliable class."""

    sends: int = 0
    delivered: int = 0
    duplicates_suppressed: int = 0
    acks_processed: int = 0
    retransmissions: int = 0
    abandoned: int = 0


class ReliableDelivery(DeliveryService):
    """A :class:`DeliveryService` adding acks and retransmission.

    Classes without a config fall back to direct synchronous delivery.
    All randomness comes from the supplied seeded RNG.
    """

    def __init__(
        self,
        engine: EventEngine,
        meter: ResourceMeter,
        configs: Mapping[ClassId, ReliabilityConfig],
        rng: random.Random | None = None,
    ) -> None:
        self._engine = engine
        self._meter = meter
        self._configs = dict(configs)
        self._rng = rng if rng is not None else random.Random(0)
        self.stats: dict[ClassId, ReliabilityStats] = {
            class_id: ReliabilityStats() for class_id in self._configs
        }
        #: (consumer id, flow, sequence) already delivered — duplicate guard.
        self._delivered: set[tuple[str, str, int]] = set()

    def deliver(
        self,
        consumer: Consumer,
        message: EventMessage,
        now: float,
        node_id: NodeId,
        class_id: ClassId,
    ) -> None:
        config = self._configs.get(class_id)
        if config is None:
            consumer.deliver(message, now)
            return
        self._attempt(consumer, message, node_id, class_id, config, attempt=0)

    # -- the reliable channel ------------------------------------------------

    def _attempt(
        self,
        consumer: Consumer,
        message: EventMessage,
        node_id: NodeId,
        class_id: ClassId,
        config: ReliabilityConfig,
        attempt: int,
    ) -> None:
        stats = self.stats[class_id]
        stats.sends += 1
        if attempt > 0:
            stats.retransmissions += 1
        if config.send_cost > 0.0:
            self._meter.charge_node(node_id, config.send_cost)

        data_lost = self._rng.random() < config.loss_probability
        ack_lost = self._rng.random() < config.loss_probability
        acked = not data_lost and not ack_lost

        if not data_lost:
            self._engine.schedule_in(
                config.rtt / 2.0,
                lambda: self._arrive(consumer, message, class_id),
            )
        if acked:
            self._engine.schedule_in(
                config.rtt,
                lambda: self._ack(node_id, class_id, config),
            )
            return
        # No ack will come: retransmit after the timeout, or give up.
        if attempt < config.max_retries:
            self._engine.schedule_in(
                config.effective_timeout,
                lambda: self._attempt(
                    consumer, message, node_id, class_id, config, attempt + 1
                ),
            )
        else:
            stats.abandoned += 1

    def _arrive(self, consumer: Consumer, message: EventMessage, class_id: ClassId) -> None:
        key = (consumer.consumer_id, message.flow_id, message.sequence)
        stats = self.stats[class_id]
        if key in self._delivered:
            stats.duplicates_suppressed += 1
            return
        self._delivered.add(key)
        consumer.deliver(message, self._engine.now)
        stats.delivered += 1

    def _ack(self, node_id: NodeId, class_id: ClassId, config: ReliabilityConfig) -> None:
        self.stats[class_id].acks_processed += 1
        if config.ack_cost > 0.0:
            self._meter.charge_node(node_id, config.ack_cost)

"""The kernel event bus: typed run events for zero-or-more subscribers.

The flight-recorder observability layer rests on this module.  The
:class:`~repro.sim.network.Simulation` kernel emits one frozen event
object per observable occurrence -- sends, deliveries, corruptions,
decisions, wait blocking/waking, protocol-phase entry and exit -- to an
:class:`EventBus`.  Subscribers are plain callables; the kernel guards
every emission site with a truthiness check on the subscriber list, so a
run with nothing attached pays one attribute read and one branch per
site (measured by ``benchmarks/bench_observability_overhead.py``).

Events reference live kernel objects only through immutable snapshots:
a :class:`DeliverEvent` carries the payload *reference* for subscribers
that want to inspect it at delivery time (the trusted-measurement use
case, e.g. experiment E1b), plus a :class:`PayloadSummary` that stays
valid however the payload object is treated later.  Anything persisted
must persist the summary, never the reference; :func:`without_payload`
is the one way to drop the reference.

Payload discipline: nothing mutates a message after it is submitted.
Mailboxes already alias one payload object across every receiver of a
broadcast, and the kernel relies on the same rule to snapshot each
payload object once, at its first delivery, and share that
:class:`PayloadSummary` across all of the object's deliveries.

``step`` on every event is the kernel's global delivery counter at
emission time, so events are totally ordered by (step, index-in-log).

The JSONL flight-recording schema is versioned here
(:data:`EVENT_SCHEMA`, :data:`EVENT_SCHEMA_VERSION`); bump the version
whenever an event gains, loses or renames a field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, Hashable, Union

if TYPE_CHECKING:
    from repro.sim.messages import Message

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_SCHEMA_VERSION",
    "CorruptEvent",
    "DecideEvent",
    "DeliverEvent",
    "EventBus",
    "KernelEvent",
    "PayloadSummary",
    "PhaseEvent",
    "SendEvent",
    "WaitBlockEvent",
    "WaitWakeEvent",
    "event_from_record",
    "event_to_record",
    "summarize_payload",
    "without_payload",
]

EVENT_SCHEMA = "repro.flight"
# v2: WaitBlockEvent/WaitWakeEvent carry the parked process's causal
# depth, so wait latency is measurable in causal time, not just steps;
# DeliverEvent carries ``sent_step`` so link latency (how long the
# adversary held a message) is a per-event subtraction instead of a
# send/deliver join.
EVENT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class PayloadSummary:
    """Immutable snapshot of a protocol message, safe to persist.

    Captures the complexity-relevant facts (kind, instance, size in
    paper-words) plus the payload's ``repr`` at snapshot time.  Recording
    the summary instead of the live object keeps recordings free of
    references to protocol objects.

    The kernel takes the snapshot at a payload object's first delivery
    and reuses it for every later delivery of the same object (one
    broadcast is one object delivered to n processes).  That is exact
    because nothing mutates a payload after submission; a payload that
    must differ (e.g. a lossy-link bit flip) is a new object.
    """

    kind: str
    instance: Hashable
    words: int
    text: str


def summarize_payload(message: "Message") -> PayloadSummary:
    """Snapshot ``message`` into an immutable :class:`PayloadSummary`."""
    return PayloadSummary(
        kind=type(message).__name__,
        instance=message.instance,
        words=message.words(),
        text=repr(message),
    )


@dataclass(frozen=True)
class SendEvent:
    """A message entered the network (``Simulation.submit``)."""

    kind = "send"

    step: int
    seq: int
    sender: int
    dest: int
    instance: Hashable
    message_kind: str
    words: int
    depth: int
    sender_correct: bool


@dataclass(frozen=True)
class DeliverEvent:
    """A message left the network and reached its destination.

    ``sent_step`` is the delivery counter when the message entered the
    network (the matching :class:`SendEvent`'s ``step``), so
    ``step - sent_step`` is the link latency without a send/deliver
    join.  ``payload`` is the live message object -- valid to inspect
    *during* the subscriber callback, never to store (store
    ``summary``, or the event passed through :func:`without_payload`).
    ``summary`` is shared by every delivery of the same payload object.
    """

    kind = "deliver"

    step: int
    seq: int
    sender: int
    dest: int
    instance: Hashable
    message_kind: str
    words: int
    depth: int
    sent_step: int
    summary: PayloadSummary
    payload: Any = None


@dataclass(frozen=True)
class CorruptEvent:
    """A process fell to the adversary (budget-permitting corruption)."""

    kind = "corrupt"

    step: int
    pid: int


@dataclass(frozen=True)
class DecideEvent:
    """A correct process recorded its irrevocable decision."""

    kind = "decide"

    step: int
    pid: int
    value: Any
    depth: int


@dataclass(frozen=True)
class WaitBlockEvent:
    """A protocol coroutine parked on an unsatisfied wait-condition.

    ``depth`` is the process's causal depth at the moment it parked;
    paired with the matching :class:`WaitWakeEvent`'s depth it gives the
    wait's latency in causal time (how many message hops elapsed while
    the process was blocked), the unit the paper's running-time claims
    are stated in.
    """

    kind = "wait_block"

    step: int
    pid: int
    description: str
    subscribed: bool
    depth: int


@dataclass(frozen=True)
class WaitWakeEvent:
    """A parked wait-condition fired and its coroutine resumed.

    ``depth`` is the process's causal depth at wake time (already
    advanced by the delivery that satisfied the condition).
    """

    kind = "wait_wake"

    step: int
    pid: int
    description: str
    depth: int


@dataclass(frozen=True)
class PhaseEvent:
    """A protocol span opened (``enter``) or closed (``exit``).

    Emitted by :meth:`repro.sim.process.ProcessContext.span`; ``phase``
    is the span label (e.g. ``"ba-round"``, ``"whp_coin"``), ``instance``
    the protocol instance it covers.  Round starts and ends are phase
    events with phase ``"ba-round"``.
    """

    kind = "phase"

    step: int
    pid: int
    phase: str
    instance: Hashable
    action: str  # "enter" | "exit"


def without_payload(event: DeliverEvent) -> DeliverEvent:
    """``event`` with its live payload reference dropped, safe to keep.

    Positional construction: subscribers that store events call this
    once per delivery, and ``dataclasses.replace`` costs several times
    as much.
    """
    return DeliverEvent(
        event.step,
        event.seq,
        event.sender,
        event.dest,
        event.instance,
        event.message_kind,
        event.words,
        event.depth,
        event.sent_step,
        event.summary,
    )


KernelEvent = Union[
    SendEvent,
    DeliverEvent,
    CorruptEvent,
    DecideEvent,
    WaitBlockEvent,
    WaitWakeEvent,
    PhaseEvent,
]

_EVENT_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        SendEvent,
        DeliverEvent,
        CorruptEvent,
        DecideEvent,
        WaitBlockEvent,
        WaitWakeEvent,
        PhaseEvent,
    )
}


class EventBus:
    """Dispatches kernel events to zero or more subscriber callables.

    The kernel holds a reference to :attr:`subscribers` and checks its
    truthiness before *constructing* an event, so the no-subscriber cost
    per emission site is one attribute read plus one branch.  Subscribers
    are invoked synchronously in subscription order and must not mutate
    the kernel or the payloads they are shown.
    """

    __slots__ = ("subscribers",)

    def __init__(self) -> None:
        self.subscribers: list[Callable[[KernelEvent], None]] = []

    def subscribe(self, callback: Callable[[KernelEvent], None]) -> Callable:
        """Register ``callback``; returns it (handy for unsubscribe)."""
        if callback not in self.subscribers:
            self.subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: Callable[[KernelEvent], None]) -> None:
        if callback in self.subscribers:
            self.subscribers.remove(callback)

    def emit(self, event: KernelEvent) -> None:
        for callback in self.subscribers:
            callback(event)

    def __bool__(self) -> bool:
        return bool(self.subscribers)


# -- serialization -------------------------------------------------------------

# Per event class, the fields a record carries verbatim, in declaration
# order (a deliver event's summary is inlined, its payload dropped).
_FIELD_NAMES: dict[type, tuple[str, ...]] = {
    cls: tuple(
        spec.name for spec in fields(cls) if spec.name not in ("summary", "payload")
    )
    for cls in _EVENT_TYPES.values()
}


def event_to_record(event: KernelEvent) -> dict[str, Any]:
    """Flatten ``event`` into a JSON-friendly dict (``k`` = event kind).

    Deliver events drop the live payload reference and inline the
    summary's fields; everything else serialises field-for-field.  The
    inverse is :func:`event_from_record`.
    """
    record: dict[str, Any] = {"k": event.kind}
    for name in _FIELD_NAMES[type(event)]:
        record[name] = getattr(event, name)
    if type(event) is DeliverEvent:
        summary = event.summary
        record["payload_words"] = summary.words
        record["payload_text"] = summary.text
    return record


def _as_instance(value: Any) -> Hashable:
    """Recover hashable instance labels from JSON round-trips (list->tuple)."""
    if isinstance(value, list):
        # Recurse only into nested lists; scalars are most of the items.
        return tuple(
            [_as_instance(item) if isinstance(item, list) else item for item in value]
        )
    return value


def event_from_record(
    record: dict[str, Any], version: int = EVENT_SCHEMA_VERSION
) -> KernelEvent:
    """Rebuild a typed event from :func:`event_to_record` output.

    Tolerates JSON round-trips: instance tuples come back from lists.
    Raises ``ValueError`` on unknown kinds or an unknown schema
    ``version`` (pass the recording header's version through), so schema
    drift fails loudly instead of misrendering.
    """
    if version != EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"unknown {EVENT_SCHEMA} schema version {version!r}: this build "
            f"reads version {EVENT_SCHEMA_VERSION}; re-record the run or "
            "load it with a matching build"
        )
    data = dict(record)
    kind = data.pop("k", None)
    cls = _EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r} in record {record!r}")
    instance = data.get("instance")
    if type(instance) is list:
        data["instance"] = instance = _as_instance(instance)
    value = data.get("value")
    if type(value) is list:
        data["value"] = _as_instance(value)
    if cls is DeliverEvent:
        data["summary"] = PayloadSummary(
            data["message_kind"],
            instance,
            data.pop("payload_words"),
            data.pop("payload_text"),
        )
    return cls(**data)

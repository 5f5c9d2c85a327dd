"""Transcripts: the complete broadcast history of a protocol execution.

The paper defines a transcript as "a list of all messages sent so far as
well as who sent which message and when" (Section 1.1).  A
:class:`Transcript` is an append-only sequence of :class:`BroadcastEvent`
records.  Transcripts are the objects whose *distributions* the paper's
theorems bound, so they support hashable encodings (:meth:`key`) suitable
for use as dictionary keys in distribution estimation.

Because the model is a broadcast clique, the sequence of senders is fixed by
the scheduler; the information content of a transcript is exactly the
message payloads in order, which is what :meth:`key` encodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["BroadcastEvent", "Transcript"]


@dataclass(frozen=True)
class BroadcastEvent:
    """A single broadcast: processor ``sender`` sent ``message`` (an integer
    in ``[0, 2^width)``) at global ``turn`` within ``round_index``."""

    turn: int
    round_index: int
    sender: int
    message: int
    width: int

    def bits(self) -> tuple[int, ...]:
        """The message as a little-endian tuple of ``width`` bits."""
        return tuple((self.message >> i) & 1 for i in range(self.width))


class Transcript:
    """Append-only broadcast history.

    Events are kept in turn order with non-decreasing rounds, and the
    start offset of every round is indexed as events arrive, so reading
    one round is a slice rather than a scan.
    """

    __slots__ = ("_events", "_round_starts", "_rebased")

    def __init__(self, events: Iterable[BroadcastEvent] | None = None):
        self._events: list[BroadcastEvent] = []
        #: ``_round_starts[r]`` is the offset of the first event whose
        #: round is ``>= r``, for every ``r`` up to the last event's round.
        self._round_starts: list[int] = []
        #: Cached :meth:`rebased` view: ``(skip_rounds, n, view, source
        #: events consumed, view length)``.  Derived state, never encoded.
        self._rebased: tuple[int, int, Transcript, int, int] | None = None
        for event in events or ():
            if event.round_index != len(self._round_starts) - 1 or not self._events:
                self._open_round(event.round_index)
            self._events.append(event)

    # ------------------------------------------------------------------
    # Mutation (simulator-only)
    # ------------------------------------------------------------------
    def append(self, event: BroadcastEvent) -> None:
        events = self._events
        if events:
            if event.turn != events[-1].turn + 1:
                raise ValueError(
                    f"non-consecutive turn {event.turn} after {events[-1].turn}"
                )
            # An event in the previous event's round indexes nothing.
            if event.round_index != len(self._round_starts) - 1:
                self._open_round(event.round_index)
        else:
            if event.turn != 0:
                raise ValueError(f"first event must have turn 0, got {event.turn}")
            self._open_round(event.round_index)
        events.append(event)

    def _open_round(self, round_index: int) -> None:
        """Index the rounds up to ``round_index``, which the next event to
        be stored opens; rounds never decrease."""
        starts = self._round_starts
        if round_index < 0:
            raise ValueError(f"negative round {round_index}")
        if round_index < len(starts) - 1:
            raise ValueError(f"round {round_index} after round {len(starts) - 1}")
        offset = len(self._events)
        while len(starts) <= round_index:
            starts.append(offset)

    def rebased(self, skip_rounds: int, n: int) -> "Transcript":
        """This transcript with its first ``skip_rounds`` rounds removed and
        turn/round indices renumbered from zero (``n`` turns per round).

        Wrappers that run a payload after rounds of their own present this
        view, so the payload sees the local history it would see running
        stand-alone.  The view is cached here and extended with only the
        events appended since the previous call; it is rebuilt when
        ``(skip_rounds, n)`` changes or when its length no longer matches
        what was fed to it.  The cache is not part of the transcript's
        value: equality, hashing, copies and encodings ignore it.
        """
        if skip_rounds < 0:
            raise ValueError(f"skip_rounds must be non-negative, got {skip_rounds}")
        events = self._events
        cache = self._rebased
        if (
            cache is not None
            and cache[0] == skip_rounds
            and cache[1] == n
            and len(cache[2]) == cache[4]
        ):
            view, consumed = cache[2], cache[3]
        else:
            view, consumed = Transcript(), 0
        if consumed < len(events):
            starts = self._round_starts
            first = starts[skip_rounds] if skip_rounds < len(starts) else len(events)
            skip_turns = skip_rounds * n
            for event in events[max(consumed, first):]:
                view.append(
                    BroadcastEvent(
                        event.turn - skip_turns,
                        event.round_index - skip_rounds,
                        event.sender,
                        event.message,
                        event.width,
                    )
                )
        self._rebased = (skip_rounds, n, view, len(events), len(view))
        return view

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[BroadcastEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> BroadcastEvent:
        return self._events[index]

    @property
    def n_turns(self) -> int:
        """Number of broadcasts recorded so far."""
        return len(self._events)

    @property
    def total_bits(self) -> int:
        """Total number of bits broadcast (sum of message widths)."""
        return sum(e.width for e in self._events)

    def messages_from(self, sender: int) -> list[BroadcastEvent]:
        """All broadcasts made by a given processor, in order."""
        return [e for e in self._events if e.sender == sender]

    def messages_in_round(self, round_index: int) -> list[BroadcastEvent]:
        """All broadcasts of a given round, in turn order."""
        starts = self._round_starts
        if not 0 <= round_index < len(starts):
            return []
        end = starts[round_index + 1] if round_index + 1 < len(starts) else None
        return self._events[starts[round_index]:end]

    def last_round_messages(self) -> list[BroadcastEvent]:
        """Broadcasts of the most recent (possibly partial) round."""
        if not self._events:
            return []
        return self._events[self._round_starts[-1]:]

    # ------------------------------------------------------------------
    # Encodings
    # ------------------------------------------------------------------
    def key(self) -> tuple[int, ...]:
        """Hashable encoding: the tuple of message payloads in turn order.

        Sender/round structure is scheduler-determined, so payloads alone
        identify the transcript among executions of the same protocol.
        """
        return tuple(e.message for e in self._events)

    def bits(self) -> tuple[int, ...]:
        """Flattened little-endian bit string of all payloads in order."""
        out: list[int] = []
        for e in self._events:
            out.extend(e.bits())
        return tuple(out)

    def prefix(self, n_turns: int) -> "Transcript":
        """The transcript of the first ``n_turns`` broadcasts."""
        if n_turns > len(self._events):
            raise ValueError(
                f"prefix of {n_turns} turns requested, only {len(self._events)} exist"
            )
        return self._head(self._events[:n_turns])

    def copy(self) -> "Transcript":
        return self._head(self._events[:])

    def _head(self, events: list[BroadcastEvent]) -> "Transcript":
        """A transcript of ``events``, a leading slice of this one, reusing
        this transcript's round index instead of re-validating each event."""
        head = Transcript()
        head._events = events
        if events:
            head._round_starts = self._round_starts[: events[-1].round_index + 1]
        return head

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transcript):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(tuple(self._events))

    def __getstate__(self) -> tuple[None, dict[str, list[BroadcastEvent]]]:
        # The events alone, in the default slotted-object shape: the round
        # index is rebuilt on load and the rebased view is a per-run cache.
        return (None, {"_events": self._events})

    def __setstate__(self, state: tuple[None, dict[str, list[BroadcastEvent]]]) -> None:
        Transcript.__init__(self, state[1]["_events"])

    def __repr__(self) -> str:
        return f"Transcript(turns={self.n_turns}, bits={self.total_bits})"

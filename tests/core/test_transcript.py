"""Tests for transcripts and broadcast events."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BroadcastEvent, Transcript
from repro.exec.wire import decode_value, encode_value


def make_event(turn, round_index=0, sender=0, message=1, width=1):
    return BroadcastEvent(turn, round_index, sender, message, width)


class TestBroadcastEvent:
    def test_bits_little_endian(self):
        event = make_event(0, message=0b101, width=3)
        assert event.bits() == (1, 0, 1)

    def test_single_bit(self):
        assert make_event(0, message=1, width=1).bits() == (1,)

    def test_frozen(self):
        event = make_event(0)
        with pytest.raises(AttributeError):
            event.turn = 5


class TestTranscript:
    def test_append_and_length(self):
        t = Transcript()
        t.append(make_event(0))
        t.append(make_event(1, sender=1))
        assert len(t) == 2
        assert t.n_turns == 2

    def test_turn_ordering_enforced(self):
        t = Transcript()
        t.append(make_event(0))
        with pytest.raises(ValueError):
            t.append(make_event(2))

    def test_first_turn_must_be_zero(self):
        t = Transcript()
        with pytest.raises(ValueError):
            t.append(make_event(1))

    def test_total_bits(self):
        t = Transcript()
        t.append(make_event(0, width=3, message=5))
        t.append(make_event(1, width=1))
        assert t.total_bits == 4

    def test_messages_from(self):
        t = Transcript()
        t.append(make_event(0, sender=0, message=1))
        t.append(make_event(1, sender=1, message=0))
        t.append(make_event(2, sender=0, message=0))
        from_zero = t.messages_from(0)
        assert [e.message for e in from_zero] == [1, 0]

    def test_messages_in_round(self):
        t = Transcript()
        t.append(make_event(0, round_index=0))
        t.append(make_event(1, round_index=0))
        t.append(make_event(2, round_index=1))
        assert len(t.messages_in_round(0)) == 2
        assert len(t.messages_in_round(1)) == 1
        assert len(t.last_round_messages()) == 1

    def test_last_round_of_empty(self):
        assert Transcript().last_round_messages() == []

    def test_key_and_bits(self):
        t = Transcript()
        t.append(make_event(0, message=2, width=2))
        t.append(make_event(1, message=1, width=2))
        assert t.key() == (2, 1)
        assert t.bits() == (0, 1, 1, 0)

    def test_prefix(self):
        t = Transcript()
        for turn in range(4):
            t.append(make_event(turn, sender=turn % 2))
        prefix = t.prefix(2)
        assert prefix.n_turns == 2
        with pytest.raises(ValueError):
            t.prefix(5)

    def test_equality_and_hash(self):
        a, b = Transcript(), Transcript()
        a.append(make_event(0))
        b.append(make_event(0))
        assert a == b
        assert hash(a) == hash(b)

    def test_copy_is_independent(self):
        a = Transcript()
        a.append(make_event(0))
        b = a.copy()
        b.append(make_event(1))
        assert a.n_turns == 1
        assert b.n_turns == 2

    def test_getitem_and_iter(self):
        t = Transcript()
        t.append(make_event(0, message=1))
        t.append(make_event(1, message=0))
        assert t[0].message == 1
        assert [e.message for e in t] == [1, 0]


def build(rounds, n=3):
    """A transcript whose event ``t`` lies in ``rounds[t]``."""
    return Transcript(
        [
            make_event(turn, round_index=r, sender=turn % n, message=turn % 2)
            for turn, r in enumerate(rounds)
        ]
    )


def linear_scan(t, round_index):
    return [e for e in t if e.round_index == round_index]


class TestRoundIndex:
    def test_append_rejects_earlier_round(self):
        t = Transcript()
        t.append(make_event(0, round_index=1))
        with pytest.raises(ValueError):
            t.append(make_event(1, round_index=0))

    def test_constructor_rejects_earlier_round(self):
        with pytest.raises(ValueError):
            Transcript([make_event(0, round_index=2), make_event(1, round_index=1)])

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            Transcript().append(make_event(0, round_index=-1))

    def test_rounds_with_gaps(self):
        t = build([1, 1, 3, 4, 4])
        assert t.messages_in_round(0) == []
        assert [e.turn for e in t.messages_in_round(1)] == [0, 1]
        assert t.messages_in_round(2) == []
        assert [e.turn for e in t.messages_in_round(3)] == [2]
        assert [e.turn for e in t.last_round_messages()] == [3, 4]
        assert t.messages_in_round(5) == [] and t.messages_in_round(-1) == []

    def test_reading_a_round_copies(self):
        t = build([0, 0])
        t.messages_in_round(0).clear()
        assert len(t.messages_in_round(0)) == 2


monotone_rounds = st.lists(st.integers(0, 3), max_size=30).map(
    lambda steps: [sum(steps[: i + 1]) for i in range(len(steps))]
)


@given(rounds=monotone_rounds, probe=st.integers(-2, 95), cut=st.integers(0, 30))
@settings(max_examples=150, deadline=None)
def test_round_index_matches_linear_scan(rounds, probe, cut):
    """Indexed reads equal a scan, whether the transcript was built by the
    constructor, by append, or as a prefix or copy of another."""
    built = build(rounds)
    appended = Transcript()
    for event in built:
        appended.append(event)
    cut = min(cut, len(built))
    for t in (built, appended, built.prefix(cut), appended.copy()):
        assert t.messages_in_round(probe) == linear_scan(t, probe)
        for r in set(rounds):
            assert t.messages_in_round(r) == linear_scan(t, r)
        last = linear_scan(t, t[-1].round_index) if len(t) else []
        assert t.last_round_messages() == last


def rebuilt(t, skip_rounds, n):
    """The rebased view built from scratch, event by event."""
    return Transcript(
        [
            BroadcastEvent(
                e.turn - skip_rounds * n, e.round_index - skip_rounds,
                e.sender, e.message, e.width,
            )
            for e in t
            if e.round_index >= skip_rounds
        ]
    )


class TestRebased:
    def test_drops_and_renumbers(self):
        n = 2
        t = build([0, 0, 1, 1, 2, 2], n=n)
        view = t.rebased(1, n)
        renumbered = [(e.turn, e.round_index) for e in view]
        assert renumbered == [(0, 0), (1, 0), (2, 1), (3, 1)]
        assert view.key() == t.key()[2:]

    def test_extended_incrementally(self):
        n = 2
        t = Transcript()
        views = []
        for turn in range(10):
            t.append(make_event(turn, round_index=turn // n, sender=turn % n))
            views.append(t.rebased(2, n))
            assert views[-1] == rebuilt(t, 2, n)
        assert all(v is views[0] for v in views)

    def test_rebuilt_when_key_changes(self):
        t = build([0, 0, 1, 1, 2, 2], n=2)
        first = t.rebased(1, 2)
        second = t.rebased(2, 2)
        assert second is not first and second == rebuilt(t, 2, 2)
        assert t.rebased(1, 2) == rebuilt(t, 1, 2)

    def test_rebuilt_when_view_was_appended_to(self):
        t = build([0, 0, 1, 1], n=2)
        view = t.rebased(1, 2)
        view.append(make_event(2, round_index=1))
        fresh = t.rebased(1, 2)
        assert fresh is not view and fresh == rebuilt(t, 1, 2)

    def test_skipping_everything(self):
        t = build([0, 0, 1], n=2)
        assert len(t.rebased(5, 2)) == 0
        assert len(t.rebased(0, 2)) == 3

    def test_negative_skip_rejected(self):
        with pytest.raises(ValueError):
            build([0]).rebased(-1, 2)


class TestRebasedCacheIsNotState:
    """A transcript with a cached view is indistinguishable from a fresh
    transcript of the same events."""

    @pytest.fixture
    def pair(self):
        t = build([0, 0, 0, 1, 1, 1, 2], n=3)
        t.rebased(1, 3)
        return t, Transcript(list(t))

    def test_equality_hash_key(self, pair):
        t, fresh = pair
        assert t == fresh and hash(t) == hash(fresh) and t.key() == fresh.key()

    def test_pickle(self, pair):
        t, fresh = pair
        assert pickle.dumps(t) == pickle.dumps(fresh)
        loaded = pickle.loads(pickle.dumps(t))
        assert loaded == fresh and loaded._rebased is None
        assert loaded.messages_in_round(1) == fresh.messages_in_round(1)

    def test_deepcopy_and_copy(self, pair):
        t, fresh = pair
        for clone in (copy.deepcopy(t), copy.copy(t), t.copy(), t.prefix(len(t))):
            assert clone == fresh and clone._rebased is None
            assert clone.last_round_messages() == fresh.last_round_messages()

    def test_wire_encoding(self, pair):
        t, fresh = pair
        assert encode_value(t) == encode_value(fresh)
        decoded = decode_value(encode_value(t))
        assert decoded == fresh and decoded._rebased is None
        assert decoded.messages_in_round(2) == fresh.messages_in_round(2)

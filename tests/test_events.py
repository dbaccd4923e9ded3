"""Unit tests for the deterministic event queue."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.network.events import EventQueue


class TestScheduling:
    def test_fires_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(2.0, lambda: fired.append("b"))
        q.schedule(1.0, lambda: fired.append("a"))
        q.schedule(3.0, lambda: fired.append("c"))
        while q:
            q.pop().callback()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        q = EventQueue()
        fired = []
        for name in "abcde":
            q.schedule(1.0, lambda n=name: fired.append(n))
        while q:
            q.pop().callback()
        assert fired == list("abcde")

    def test_callback_arguments_are_carried(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, fired.append, "x")
        event = q.pop()
        event.callback(*event.args)
        assert fired == ["x"]

    def test_len_tracks_live_events(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        assert len(q) == 2
        q.pop()
        assert len(q) == 1

    def test_negative_time_rejected(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.schedule(-1.0, lambda: None)

    def test_nan_and_inf_rejected(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            q.schedule(float("inf"), lambda: None)

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()


class TestCancellation:
    def test_cancelled_event_skipped(self):
        q = EventQueue()
        fired = []
        ev = q.schedule(1.0, lambda: fired.append("x"))
        q.schedule(2.0, lambda: fired.append("y"))
        q.cancel(ev)
        while q:
            q.pop().callback()
        assert fired == ["y"]

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        q.cancel(ev)
        q.cancel(ev)
        assert len(q) == 0

    def test_cancel_after_pop_is_a_no_op(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        assert q.pop() is ev
        q.cancel(ev)
        assert len(q) == 1

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        ev = q.schedule(1.0, lambda: None)
        q.schedule(5.0, lambda: None)
        q.cancel(ev)
        assert q.peek_time() == 5.0

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_bool_reflects_liveness(self):
        q = EventQueue()
        assert not q
        ev = q.schedule(1.0, lambda: None)
        assert q
        q.cancel(ev)
        assert not q


class TestAgainstSortedReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["schedule", "schedule", "cancel", "pop", "pop_due"]),
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
            st.integers(min_value=0, max_value=50),
        ),
        max_size=60,
    ))
    def test_random_ops_match_sorted_time_seq(self, ops):
        """Schedule/cancel/pop agree with a sorted ``(time, seq)`` list."""
        q = EventQueue()
        handles = []  # (time, seq, event) in schedule order
        live: list[tuple[float, int]] = []
        for op, time, pick in ops:
            if op == "schedule":
                seq = len(handles)
                handles.append((time, seq, q.schedule(time, lambda: None)))
                live.append((time, seq))
            elif op == "cancel" and handles:
                time_, seq, event = handles[pick % len(handles)]
                q.cancel(event)
                if (time_, seq) in live:
                    live.remove((time_, seq))
            elif op == "pop":
                if not live:
                    with pytest.raises(SimulationError):
                        q.pop()
                    continue
                expected = min(live)
                live.remove(expected)
                assert q.pop() is handles[expected[1]][2]
            elif op == "pop_due":
                due = [key for key in live if key[0] <= time]
                event = q.pop_due(time)
                if not due:
                    assert event is None
                    continue
                expected = min(due)
                live.remove(expected)
                assert event is handles[expected[1]][2]
            assert len(q) == len(live)
            assert q.peek_time() == (min(live)[0] if live else None)

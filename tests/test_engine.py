"""Unit tests for the discrete-event engine."""

import time

import pytest

from repro.engine import DeadlineExceeded, Engine


def test_events_run_in_time_order():
    engine = Engine()
    log = []
    engine.schedule(30, lambda: log.append("c"))
    engine.schedule(10, lambda: log.append("a"))
    engine.schedule(20, lambda: log.append("b"))
    engine.run()
    assert log == ["a", "b", "c"]
    assert engine.now == 30


def test_ties_break_by_insertion_order():
    engine = Engine()
    log = []
    for i in range(5):
        engine.schedule(7, lambda i=i: log.append(i))
    engine.run()
    assert log == [0, 1, 2, 3, 4]


def test_run_until_stops_before_boundary_events():
    engine = Engine()
    log = []
    engine.schedule(5, lambda: log.append("early"))
    engine.schedule(10, lambda: log.append("boundary"))
    engine.schedule(15, lambda: log.append("late"))
    engine.run(until=10)
    assert log == ["early"]
    assert engine.now == 10
    engine.run(until=20)
    assert log == ["early", "boundary", "late"]
    assert engine.now == 20


def test_run_until_advances_time_with_empty_queue():
    engine = Engine()
    engine.run(until=1000)
    assert engine.now == 1000


def test_callbacks_can_schedule_more_events():
    engine = Engine()
    log = []

    def recurring():
        log.append(engine.now)
        if engine.now < 50:
            engine.schedule(10, recurring)

    engine.schedule(10, recurring)
    engine.run(until=200)
    assert log == [10, 20, 30, 40, 50]


def test_cannot_schedule_in_the_past():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    with pytest.raises(ValueError):
        engine.schedule(-1, lambda: None)
    with pytest.raises(ValueError):
        engine.schedule_at(5, lambda: None)


def test_stop_halts_the_loop():
    engine = Engine()
    log = []
    engine.schedule(1, lambda: (log.append(1), engine.stop()))
    engine.schedule(2, lambda: log.append(2))
    engine.run()
    assert log == [1]
    assert engine.pending_events == 1


def test_schedule_at_current_time_is_allowed():
    engine = Engine()
    log = []
    engine.schedule(5, lambda: engine.schedule(0, lambda: log.append("x")))
    engine.run()
    assert log == ["x"]
    assert engine.now == 5


def test_schedule_during_drain_runs_after_queued_same_cycle_events():
    # An event scheduled at the *current* cycle while that cycle's bucket
    # is draining must run in this cycle, after the events that were
    # already queued — insertion order, not re-sorted order.
    engine = Engine()
    log = []
    engine.schedule(
        5, lambda: (log.append("a"), engine.schedule(0, lambda: log.append("d")))
    )
    engine.schedule(5, lambda: log.append("b"))
    engine.schedule(5, lambda: log.append("c"))
    engine.run()
    assert log == ["a", "b", "c", "d"]
    assert engine.now == 5


def test_deadline_caught_after_first_slow_event():
    # A single slow callback at the head of the run must not evade the
    # watchdog for a whole check window: the clock is sampled right after
    # the first event.
    engine = Engine()
    engine.schedule(1, lambda: time.sleep(0.05))
    engine.schedule(2, lambda: None)
    with pytest.raises(DeadlineExceeded) as excinfo:
        engine.run(wall_deadline=time.monotonic() + 0.01)
    assert excinfo.value.pending_events == 1
    assert engine.pending_events == 1  # the un-run event stays queued


def test_deadline_checked_once_more_on_drain():
    # When the *last* event is the slow one, the loop exits before the
    # next periodic sample — the drain check must still raise.
    engine = Engine()
    engine.schedule(1, lambda: None)
    engine.schedule(2, lambda: time.sleep(0.05))
    with pytest.raises(DeadlineExceeded):
        engine.run(wall_deadline=time.monotonic() + 0.02)
    assert engine.pending_events == 0


def test_no_deadline_means_no_deadline_checks():
    engine = Engine()
    engine.schedule(1, lambda: time.sleep(0.01))
    assert engine.run() == 1


def test_stop_mid_cycle_preserves_remaining_same_cycle_events():
    engine = Engine()
    log = []
    engine.schedule(5, lambda: log.append("a"))
    engine.schedule(5, lambda: (log.append("b"), engine.stop()))
    engine.schedule(5, lambda: log.append("c"))
    engine.run()
    assert log == ["a", "b"]
    assert engine.stopped_early
    assert engine.pending_events == 1
    engine.run()
    assert log == ["a", "b", "c"]


def test_raising_callback_preserves_remaining_events():
    engine = Engine()
    log = []

    def boom():
        raise RuntimeError("injected")

    engine.schedule(5, boom)
    engine.schedule(5, lambda: log.append("same-cycle"))
    engine.schedule(9, lambda: log.append("later"))
    with pytest.raises(RuntimeError):
        engine.run()
    assert engine.pending_events == 2  # the failing event itself is consumed
    engine.run()
    assert log == ["same-cycle", "later"]


def test_deadline_inside_a_livelocked_cycle():
    # A zero-delay self-rescheduling callback never lets the current cycle
    # end; the deadline check must fire inside the same-cycle batch.
    engine = Engine()

    def spin():
        engine.schedule(0, spin)

    engine.schedule(3, spin)
    with pytest.raises(DeadlineExceeded):
        engine.run(wall_deadline=time.monotonic() + 0.02)
    assert engine.now == 3

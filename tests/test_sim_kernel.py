"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import InvalidState
from repro.sim.kernel import Delay, Event, Simulator, all_of


def test_delay_advances_time():
    sim = Simulator()
    trace = []

    def proc():
        yield Delay(10.0)
        trace.append(sim.now)
        yield Delay(5.0)
        trace.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert trace == [10.0, 15.0]


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1.0)


def test_processes_interleave_in_time_order():
    sim = Simulator()
    trace = []

    def proc(name, step):
        for _ in range(3):
            yield Delay(step)
            trace.append((sim.now, name))

    sim.spawn(proc("a", 10.0))
    sim.spawn(proc("b", 4.0))
    sim.run()
    assert trace == sorted(trace, key=lambda item: item[0])
    assert trace[0] == (4.0, "b")
    assert (10.0, "a") in trace


def test_same_time_fifo_order():
    """Events scheduled for the same instant fire in scheduling order."""
    sim = Simulator()
    trace = []

    def proc(name):
        yield Delay(5.0)
        trace.append(name)

    for name in ("first", "second", "third"):
        sim.spawn(proc(name))
    sim.run()
    assert trace == ["first", "second", "third"]


def test_run_until_stops_early():
    sim = Simulator()
    trace = []

    def proc():
        while True:
            yield Delay(10.0)
            trace.append(sim.now)

    sim.spawn(proc())
    sim.run(until=35.0)
    assert trace == [10.0, 20.0, 30.0]
    assert sim.now == 35.0


def test_event_wakes_waiters_with_value():
    sim = Simulator()
    event = sim.event()
    got = []

    def waiter():
        value = yield event
        got.append((sim.now, value))

    def trigger():
        yield Delay(7.0)
        event.trigger("payload")

    sim.spawn(waiter())
    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert got == [(7.0, "payload"), (7.0, "payload")]


def test_wait_on_already_triggered_event():
    sim = Simulator()
    event = sim.event()
    event.trigger(42)
    got = []

    def waiter():
        value = yield event
        got.append(value)

    sim.spawn(waiter())
    sim.run()
    assert got == [42]


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.trigger(None)
    with pytest.raises(InvalidState):
        event.trigger(None)


def test_process_result_and_done_event():
    sim = Simulator()

    def worker():
        yield Delay(3.0)
        return "result"

    process = sim.spawn(worker())
    sim.run()
    assert process.finished
    assert process.result == "result"
    assert process.done_event.triggered


def test_call_at_runs_callback_at_time():
    sim = Simulator()
    trace = []
    sim.call_at(12.0, lambda: trace.append(sim.now))
    sim.call_at(4.0, lambda: trace.append(sim.now))

    def keep_alive():
        yield Delay(20.0)

    sim.spawn(keep_alive())
    sim.run()
    assert trace == [4.0, 12.0]


def test_call_at_in_the_past_runs_now():
    sim = Simulator()
    trace = []

    def proc():
        yield Delay(10.0)
        sim.call_at(5.0, lambda: trace.append(sim.now))
        yield Delay(1.0)

    sim.spawn(proc())
    sim.run()
    assert trace == [10.0]


def test_run_until_complete():
    sim = Simulator()

    def worker():
        yield Delay(2.0)
        return 99

    def background():
        while True:
            yield Delay(1.0)

    sim.spawn(background())
    process = sim.spawn(worker())
    assert sim.run_until_complete(process) == 99


def test_run_until_complete_detects_deadlock():
    sim = Simulator()
    event = sim.event()  # never triggered

    def stuck():
        yield event

    process = sim.spawn(stuck())
    with pytest.raises(InvalidState):
        sim.run_until_complete(process)


def test_all_of_waits_for_all():
    sim = Simulator()
    finished = []

    def worker(delay):
        yield Delay(delay)
        finished.append(delay)

    workers = [sim.spawn(worker(d)) for d in (5.0, 1.0, 3.0)]
    done = []

    def waiter():
        yield from all_of(sim, workers)
        done.append(sim.now)

    sim.spawn(waiter())
    sim.run()
    assert done == [5.0]
    assert sorted(finished) == [1.0, 3.0, 5.0]


def test_stop_interrupts_run():
    sim = Simulator()
    trace = []

    def proc():
        while True:
            yield Delay(1.0)
            trace.append(sim.now)
            if sim.now >= 3.0:
                sim.stop()

    sim.spawn(proc())
    sim.run()
    assert trace == [1.0, 2.0, 3.0]


def test_stop_interrupts_run_until_complete():
    # run() and run_until_complete() share one drain loop; stop() must
    # interrupt both entry points identically.
    sim = Simulator()
    trace = []

    def stopper():
        while True:
            yield Delay(1.0)
            trace.append(sim.now)
            if sim.now >= 3.0:
                sim.stop()

    def forever():
        while True:
            yield Delay(10.0)

    sim.spawn(stopper())
    target = sim.spawn(forever())
    result = sim.run_until_complete(target)
    assert result is None          # interrupted, not finished
    assert not target.finished
    assert trace == [1.0, 2.0, 3.0]
    assert sim.now == 3.0

    # A subsequent run() resumes from where stop() left off (the stopper
    # fires at t=4.0 and immediately stops the simulation again).
    trace.clear()
    sim.run(until=5.0)
    assert trace == [4.0]
    assert sim.now == 4.0


def test_stop_then_run_resumes():
    sim = Simulator()
    seen = []

    def proc():
        for _ in range(4):
            yield Delay(1.0)
            seen.append(sim.now)
            sim.stop()

    sim.spawn(proc())
    for expected in (1.0, 2.0, 3.0, 4.0):
        sim.run()
        assert seen[-1] == expected


def test_stop_mid_timestamp_keeps_scheduling_order():
    # Four processes and a callback are due at t=5; the second process
    # stops the run and schedules one more callback for the same instant.
    # What was not delivered stays queued and comes out in scheduling
    # order: the rest of the t=5 batch first, then the zero-delay
    # follow-ups and the late callback in the order they were scheduled.
    sim = Simulator()
    trace = []

    def proc(name):
        yield Delay(5.0)
        trace.append(name)
        if name == "p1":
            sim.stop()
            sim.call_at(5.0, lambda: trace.append("late"))
        yield Delay(0.0)
        trace.append(name + "+0")
        yield Delay(1.0)
        trace.append(name + "+1")

    def schedule_callback():
        sim.call_at(5.0, lambda: trace.append("cb"))
        return
        yield

    sim.spawn(proc("p0"))
    sim.spawn(proc("p1"))
    sim.spawn(schedule_callback())  # lands between p1 and p2 at t=5
    sim.spawn(proc("p2"))
    sim.spawn(proc("p3"))

    assert sim.run() == 5.0
    assert trace == ["p0", "p1"]
    assert sim.pending() == 6  # cb, p2, p3 + p0+0, late, p1+0
    assert sim.events_processed == 7

    assert sim.run(until=5.0) == 5.0
    assert trace[2:] == ["cb", "p2", "p3",
                         "p0+0", "late", "p1+0", "p2+0", "p3+0"]
    assert sim.pending() == 4
    assert sim.events_processed == 15

    assert sim.run() == 6.0
    assert trace[10:] == ["p0+1", "p1+1", "p2+1", "p3+1"]
    assert sim.pending() == 0
    assert sim.events_processed == 19


def test_yielding_garbage_raises():
    sim = Simulator()

    def bad():
        yield "not a delay"

    sim.spawn(bad())
    with pytest.raises(TypeError):
        sim.run()


def test_clock_view():
    sim = Simulator()
    clock = sim.clock()

    def proc():
        yield Delay(8.0)

    sim.spawn(proc())
    sim.run()
    assert clock.now == 8.0

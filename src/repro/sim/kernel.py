"""Event loop, processes, and events for the discrete-event simulator.

Time is a ``float`` in *microseconds*; the paper's latency numbers
(InfiniBand RDMA in single-digit microseconds, Ethernet round trips in tens
of microseconds) are most natural at this scale.

Processes are plain generator functions.  A process may yield:

* :class:`Delay` -- suspend for a fixed amount of simulated time,
* :class:`Event` -- suspend until the event is triggered; ``event.value``
  is sent back into the generator when it resumes.

One ordering rule: every scheduled event is a ``(when, seq)`` entry of one
heap, and events fire in ``(when, seq)`` order.  ``seq`` is the number of
schedules made before it, so events due at the same instant fire in
scheduling order -- unless a :class:`SchedulerPolicy` is installed, which
mints ``(when, seq)`` for every schedule instead.  The kernel is
deterministic: a fixed random seed reproduces the exact same run.

The event loop is the hottest code in the repository -- every simulated
request is at least one generator resume and one heap push and pop -- so
:meth:`Simulator._drain` binds its dependencies to locals and dispatches
on the exact yield types (``Delay`` and ``Event`` are final; anything
else is a ``TypeError``).  Optimizations here must be behaviour-invariant;
the digests pinned in ``tests/test_determinism.py`` enforce that.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.errors import InvalidState

ProcessGenerator = Generator[Any, Any, Any]


class Delay:
    """Yield value suspending the process for ``duration`` microseconds."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative delay: {duration}")
        self.duration = duration

    def __repr__(self) -> str:
        return f"Delay({self.duration})"


class Event:
    """A one-shot event processes can wait on.

    ``trigger(value)`` wakes every waiting process and delivers ``value``
    as the result of the ``yield``.  Waiting on an already-triggered event
    resumes the process immediately (at the current timestamp).
    """

    __slots__ = ("sim", "triggered", "value", "_waiters")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._waiters: List["Process"] = []

    def trigger(self, value: Any = None) -> None:
        if self.triggered:
            raise InvalidState("event already triggered")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        sim = self.sim
        for process in waiters:
            sim._push(sim.now, process, value)


class Process:
    """Wrapper around a running generator coroutine."""

    __slots__ = ("sim", "generator", "name", "finished", "result", "done_event")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str) -> None:
        self.sim = sim
        self.generator = generator
        self.name = name
        self.finished = False
        self.result: Any = None
        self.done_event = Event(sim)

    def __repr__(self) -> str:
        state = "done" if self.finished else "running"
        return f"<Process {self.name} {state}>"


#: One queued event: ``(when, seq, process, value)``.  ``value`` is sent
#: into ``process`` when it resumes; with ``process`` None, ``value`` is a
#: :meth:`Simulator.call_at` callback.
QueueEntry = Tuple[float, int, Optional[Process], Any]


class SimClock:
    """Read-only view of simulator time, shareable with components."""

    __slots__ = ("_sim",)

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim

    @property
    def now(self) -> float:
        return self._sim.now


class SchedulerPolicy:
    """Pluggable perturbation of the kernel's scheduling decisions.

    Every event pushed onto the heap carries ``(when, seq)``; by default
    ``seq`` is a monotonically increasing counter, which makes same-time
    events fire in scheduling order (FIFO).  A policy may move ``when``
    forward and/or replace ``seq`` to explore alternative interleavings
    of the same program -- the schedule-exploration race detector in
    :mod:`repro.san` builds its random/PCT/replay schedules on this hook.
    The loop that delivers the events is the same with or without one.

    Contract: the returned ``when`` must be ``>= now`` (events cannot fire
    in the past) and the returned ``seq`` must be unique per simulator
    (heap tuples must never compare equal in their first two fields).
    A policy that also records its decisions can later replay a run
    deterministically by returning the recorded pairs verbatim.
    """

    def on_schedule(self, when: float, now: float,
                    process: Optional[Process]) -> Tuple[float, int]:
        """Decide ``(when, seq)`` for one event.

        ``process`` is the resuming process, or ``None`` for a plain
        ``call_at`` callback (state mutations in the simulated fabric).
        """
        raise NotImplementedError


class Simulator:
    """The discrete-event scheduler.

    Typical use::

        sim = Simulator()
        sim.spawn(worker(), name="worker-0")
        sim.run(until=1_000_000.0)   # one simulated second

    ``policy`` (default ``None``) mints the ``(when, seq)`` of every
    schedule, for race exploration; the events still go through the one
    heap and the one loop.
    """

    def __init__(self, policy: Optional[SchedulerPolicy] = None) -> None:
        self.now: float = 0.0
        self._queue: List[QueueEntry] = []
        self._next_seq: Callable[[], int] = itertools.count().__next__
        self._stopped = False
        self._policy = policy
        #: Events delivered so far (resumes + callbacks); the scale suite
        #: reports events/s from this.
        self.events_processed: int = 0

    # -- scheduling ------------------------------------------------------

    def spawn(self, generator: ProcessGenerator, name: str = "proc") -> Process:
        """Register ``generator`` as a process starting at the current time."""
        process = Process(self, generator, name)
        self._push(self.now, process, None)
        return process

    def _push(self, when: float, process: Optional[Process], value: Any) -> None:
        """Queue one event at absolute time ``when`` (``>= now``).
        :meth:`_drain` inlines this for the resumes it schedules."""
        policy = self._policy
        if policy is None:
            heapq.heappush(self._queue, (when, self._next_seq(), process, value))
            return
        when, seq = policy.on_schedule(when, self.now, process)
        heapq.heappush(self._queue, (when, seq, process, value))

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run a plain callback at absolute simulated time ``when`` (now,
        if ``when`` is past), without a Process wrapper -- callbacks are
        the fabric's hot path."""
        self._push(max(when, self.now), None, callback)

    def event(self) -> Event:
        return Event(self)

    # -- execution -------------------------------------------------------

    def _drain(
        self,
        until: Optional[float],
        target: Optional[Process],
        limit: Optional[float],
    ) -> None:
        """The event loop behind :meth:`run` and
        :meth:`run_until_complete`.

        Pops events in ``(when, seq)`` order until the heap empties,
        :meth:`stop` is called, ``target`` finishes, or the next event
        lies beyond ``until`` (pause: the event stays queued) or
        ``limit`` (error).  A stop returns after the in-flight event and
        leaves the rest queued for the next call.  The ``until`` /
        ``limit`` checks are paid only when the clock advances.  The
        process step is inlined, and so is :meth:`_push` for the resume
        it schedules; under a policy, ``on_schedule`` sees every schedule
        in the order :meth:`_push` would make it.
        """
        queue = self._queue
        pop = heapq.heappop
        push = heapq.heappush
        next_seq = self._next_seq
        policy = self._policy
        on_schedule = None if policy is None else policy.on_schedule
        delay_cls = Delay
        event_cls = Event
        now = self.now
        wake: float
        events = 0
        try:
            while queue:
                if self._stopped or (target is not None and target.finished):
                    return
                when, _seq, process, value = queue[0]
                if when > now:
                    if until is not None and when > until:
                        self.now = until
                        return
                    if limit is not None and when > limit:
                        raise InvalidState(
                            f"{target.name if target else 'run'} did not "
                            f"finish before {limit}"
                        )
                    self.now = now = when
                pop(queue)
                events += 1
                if process is None:
                    value()  # plain callback scheduled via call_at
                    continue
                if process.finished:
                    continue
                try:
                    yielded = process.generator.send(value)
                except StopIteration as stop:
                    process.finished = True
                    process.result = stop.value
                    process.done_event.trigger(stop.value)
                    continue
                cls = yielded.__class__
                if cls is delay_cls:
                    wake = now + yielded.duration
                    value = None
                elif cls is not event_cls:
                    raise TypeError(
                        f"process {process.name!r} yielded {yielded!r}; "
                        f"expected Delay or Event"
                    )
                elif yielded.triggered:
                    wake = now
                    value = yielded.value
                else:
                    yielded._waiters.append(process)
                    continue
                if on_schedule is None:
                    push(queue, (wake, next_seq(), process, value))
                else:
                    wake, seq = on_schedule(wake, now, process)
                    push(queue, (wake, seq, process, value))
        finally:
            self.events_processed += events

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains, :meth:`stop` is called, or
        simulated time reaches ``until``.  Returns the final simulated
        time.
        """
        self._stopped = False
        self._drain(until, None, None)
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        return self.now

    def run_until_complete(self, process: Process, limit: float = 1e12) -> Any:
        """Run until ``process`` finishes; returns its result.

        :meth:`stop` interrupts this entry point too (returning ``None``
        when the process has not finished); an empty queue with the
        process still pending is a deadlock.
        """
        self._stopped = False
        self._drain(None, process, limit)
        if process.finished:
            return process.result
        if self._stopped:
            return None
        raise InvalidState(
            f"deadlock: {process.name} pending with empty event queue"
        )

    def stop(self) -> None:
        """Stop the current :meth:`run` / :meth:`run_until_complete`
        after the in-flight step."""
        self._stopped = True

    # -- helpers ---------------------------------------------------------

    def clock(self) -> SimClock:
        return SimClock(self)

    def pending(self) -> int:
        return len(self._queue)


def all_of(sim: Simulator, processes: Iterable[Process]) -> ProcessGenerator:
    """A coroutine that waits for every process in ``processes``."""
    for process in processes:
        if not process.finished:
            yield process.done_event

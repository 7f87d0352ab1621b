"""The simulated fabric: real protocol code, simulated time.

This module is the bridge between the library and the discrete-event
kernel.  Every processing-node worker is a simulated "thread" running the
*actual* transaction code (:mod:`repro.core`); the fabric decides when
each storage or commit-manager request completes, charging:

* wire latency and bandwidth (per the configured network profile),
* per-message CPU on both endpoints (the kernel-TCP tax on Ethernet),
* storage-node service time through a multi-core FIFO pool -- including
  the synchronous-replication wait, which occupies the master's worker
  and is what makes RF3 expensive under write-heavy load (Figure 5),
* processing-node CPU for query processing (Compute effects).

State mutations execute via ``Simulator.call_at`` at the exact simulated
instant the storage node services them, so LL/SC conflicts arise from
genuine request interleavings.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro import effects
from repro.core.commit_manager import CommitManager
from repro.core.record import VersionedRecord
from repro.dispatch import (
    KIND_BATCH,
    KIND_CM_START,
    KIND_COMPUTE,
    KIND_SCAN,
    KIND_SLEEP,
    KIND_STORE,
    DispatchContext,
    Interceptor,
    compose,
    kind_of,
)
from repro.errors import TellError, WrongOwner
from repro.net.profiles import NetworkProfile, profile_by_name
from repro.runtime.config import SimulationConfig
from repro.sim.kernel import Delay, Simulator
from repro.store.cell import approx_size, request_size
from repro.store.cluster import StorageCluster

#: Simulated cores of every processing node and every storage node (one
#: NUMA unit of the paper's testbed, Section 6.1).
PN_CORES = 4
SN_CORES = 4
#: Response-size estimates by request kind (bytes); used for wire time.
READ_RESPONSE_BYTES = 280
WRITE_RESPONSE_BYTES = 24
CM_MESSAGE_BYTES = 96
SN_SERVICE_CM_US = 0.6
#: Backup write amplification: a replica put appends to the backup's log
#: and buffers it for persistent storage, costing more than the master's
#: in-memory update.
REPL_WRITE_AMP = 2.0
REPL_FIXED_US = 5.0


#: The positions of a one-member message (:meth:`SimFabric.prepare_single`).
_ONLY_MEMBER = (0,)


class CorePool:
    """A multi-server FIFO of CPU cores (reserve = find earliest core)."""

    __slots__ = ("_free",)

    def __init__(self, cores: int):
        self._free = [0.0] * cores
        heapq.heapify(self._free)

    def earliest(self, at: float) -> float:
        return max(at, self._free[0])

    def reserve(
        self,
        at: float,
        duration: float,
        _heapreplace=heapq.heapreplace,
    ) -> Tuple[float, float]:
        free = self._free
        head = free[0]
        start = at if at > head else head
        end = start + duration
        _heapreplace(free, end)
        return start, end


class FabricStats:
    __slots__ = ("messages", "store_ops", "bytes_sent")

    def __init__(self) -> None:
        self.messages = 0
        self.store_ops = 0
        self.bytes_sent = 0


class _Message:
    """One storage request message, from send until its sender wakes.

    The kernel calls the message itself at service time (a bound
    ``apply`` would be one more object per message kept alive across
    simulated time).  It carries ``request`` -- one single-key store
    request, or a :class:`~repro.effects.Batch` of which it serves the
    keys at ``positions`` -- with ``pids[p]`` key ``p``'s partition.
    Results land in the sender's batch-wide columns, ``results[p]`` and
    ``versions[p]`` (a single-key request's result is ``results[0]``);
    a :class:`~repro.errors.TellError` lands in ``error``.
    """

    __slots__ = ("fabric", "node_id", "request", "positions", "pids",
                 "results", "versions", "error")

    def __init__(self, fabric: "SimFabric", node_id: int, request: Any,
                 positions: Sequence[int], pids: List[int],
                 results: List[Any], versions: Optional[List[int]]) -> None:
        self.fabric = fabric
        self.node_id = node_id
        self.request = request
        self.positions = positions
        self.pids = pids
        self.results = results
        self.versions = versions
        self.error: Optional[BaseException] = None

    def apply(self) -> None:
        """Serve the message on its node, then drop what it carried."""
        positions, pids, request = self.positions, self.pids, self.request
        node_id = self.node_id
        fabric = self.fabric
        cluster = fabric.cluster
        try:
            if fabric.elastic_active:
                # Ownership may have changed between routing (send time)
                # and service (now).  Reject the whole message BEFORE
                # applying anything: a write landing on a demoted master
                # would be silently lost by the next migration batch, and
                # a half-applied group could not be retried.  The epoch
                # rides the error so the redirect interceptor can report
                # staleness.
                assignments = cluster.partition_map.assignments
                for position in positions:
                    pid = pids[position]
                    if node_id not in assignments[pid].replicas:
                        raise WrongOwner(
                            pid, node_id, cluster.partition_map.epoch
                        )
                if request.is_write:
                    for position in positions:
                        pid = pids[position]
                        if assignments[pid].replicas[0] != node_id:
                            raise WrongOwner(
                                pid, node_id, cluster.partition_map.epoch
                            )
            target = cluster.nodes[node_id]  # as of now, not send time
            versions = self.versions
            if versions is not None:
                cluster.serve_batch(target, request, pids, positions,
                                    self.results, versions)
            elif request.is_write:
                pid = pids[0]
                old = cluster.master_cell(pid, request.space, request.key)
                self.results[0] = request.apply(target, pid)
                cluster.replicate(pid, request.space, request.key, old)
            else:
                self.results[0] = request.apply(target, pids[0])
        except TellError as exc:
            self.error = exc
        del self.positions, self.pids, self.request

    __call__ = apply


class SimFabric:
    """Times and applies requests for all processing nodes."""

    def __init__(
        self,
        sim: Simulator,
        cluster: StorageCluster,
        commit_managers: List[CommitManager],
        config: SimulationConfig,
    ):
        self.sim = sim
        self.cluster = cluster
        self.commit_managers = commit_managers
        self.config = config
        self.profile: NetworkProfile = profile_by_name(config.network)
        self.sn_pools = {
            node_id: CorePool(SN_CORES) for node_id in cluster.nodes
        }
        self.cm_pools = [CorePool(2) for _ in commit_managers]
        self.stats = FabricStats()
        # Per-run constants of the CM round trip, hoisted off the hot path.
        self._cm_wire_us = self.profile.one_way(CM_MESSAGE_BYTES)
        self._cm_service_us = SN_SERVICE_CM_US + self.profile.server_cpu_per_msg_us
        # ... and of the synchronous-replication hop (request, ack).
        self._repl_wire_us = self.profile.one_way(64)
        self._repl_ack_us = self.profile.one_way(32)
        #: Set by the elastic coordinator when live topology change is in
        #: play.  Arms the apply-time ownership guard in
        #: :meth:`_send_group`: a request that was routed before a
        #: migration promoted a new master must fail with
        #: :class:`~repro.errors.WrongOwner` *before any state mutation*
        #: (the redirect interceptor then re-routes it).  False on the
        #: static path -- the guard costs nothing when elasticity is off.
        self.elastic_active = False

    def register_node(self, node_id: int) -> None:
        """Give a freshly attached storage node its simulated core pool."""
        if node_id not in self.sn_pools:
            self.sn_pools[node_id] = CorePool(SN_CORES)

    # -- top-level dispatch ------------------------------------------------------

    def perform(self, pn_pool: CorePool, cm_index: int,
                request: effects.Request, pn_id: int = -1) -> Generator:
        """Sub-generator (yields Delay/Event) resolving one request.

        The only executor of a request under simulation: every driver
        reaches the fabric through :func:`drive`, whose chain ends here.
        Routing is the shared :func:`repro.dispatch.kind_of`
        classification; this fabric owns only the *timing* model for
        each kind.  Checks are ordered by request frequency: single-key
        storage ops and Compute dominate the stream.
        """
        kind = kind_of(request)
        if kind == KIND_STORE:
            message, wait = self.prepare_single(pn_pool, request)
            if wait > 0:
                yield Delay(wait)
            if message.error is not None:
                raise message.error
            return message.results[0]
        if kind == KIND_COMPUTE:
            now = self.sim.now
            _start, end = pn_pool.reserve(now, request.duration)
            if end > now:
                yield Delay(end - now)
            return None
        if kind == KIND_SLEEP:
            yield Delay(request.duration)
            return None
        if kind == KIND_BATCH:
            return (yield from self._perform_batch(pn_pool, request))
        if kind == KIND_SCAN:
            return (yield from self._perform_scan(pn_pool, request))
        # Remaining kinds are the commit-manager round trips.
        result, wait = self.prepare_cm(cm_index, request, pn_id, kind)
        yield Delay(wait)
        return result

    # -- storage messages ------------------------------------------------------------

    def prepare_single(
        self, pn_pool: CorePool, op: effects.StoreRequest
    ) -> Tuple[_Message, float]:
        """One single-key op: the degenerate one-message batch.

        Performs every reservation and schedules the state transition,
        then returns ``(message, wait_us)``; :meth:`perform` owns the
        single suspension and unwraps the message's one value.  Routing
        is inlined (partitioner + master lookup) so the hot path
        allocates nothing beyond the message.
        """
        cluster = self.cluster
        partition_id = cluster.partitioner.partition_of(op.key)
        node_id = cluster.partition_map.assignments[partition_id].replicas[0]
        now = self.sim.now
        t_send = now
        client_cpu = self.profile.client_cpu_per_msg_us
        if client_cpu > 0:
            _s, t_send = pn_pool.reserve(t_send, client_cpu)
        message, t_done = self._send_group(
            t_send, node_id, op, _ONLY_MEMBER, [partition_id], [None], None,
        )
        if client_cpu > 0:
            _s, t_done = pn_pool.reserve(t_done, client_cpu)
        return message, t_done - now

    def _perform_batch(
        self, pn_pool: CorePool, batch: effects.Batch
    ) -> Generator:
        """A batch as one message per storage node -- with batching off,
        one round trip per key, in key order, as the single-key requests
        it stands for; resolves per :class:`~repro.effects.Batch`'s
        result contract.

        The keys, their partition ids and the result columns are
        batch-wide parallel lists and a message carries the positions of
        its keys, so nothing per key references a request or a result;
        the sender keeps only the columns.
        """
        count = len(batch.keys)
        results: List[Any] = [None] * count
        versions = [0] * count
        pids, groups = self.cluster.group_by_master(batch.keys)
        rounds = [groups]
        if not self.config.batching:
            master = {p: node for node, group in groups.items() for p in group}
            rounds = [{master[p]: [p]} for p in range(count)]
        client_cpu = self.profile.client_cpu_per_msg_us
        for round_groups in rounds:
            now = self.sim.now
            # Send-side CPU: one charge per outgoing message.
            t_send = now
            if client_cpu > 0:
                for _ in round_groups:
                    _s, t_send = pn_pool.reserve(t_send, client_cpu)
            messages = []
            t_done = t_send
            for node_id, positions in round_groups.items():
                message, t_response = self._send_group(
                    t_send, node_id, batch, positions, pids, results, versions,
                )
                messages.append(message)
                if t_response > t_done:
                    t_done = t_response
            # Receive-side CPU, one charge per response message.
            if client_cpu > 0:
                for _ in round_groups:
                    _s, t_done = pn_pool.reserve(t_done, client_cpu)
            wait = t_done - now
            if wait > 0:
                yield Delay(wait)
            errors = [m.error for m in messages if m.error is not None]
            if errors:
                raise errors[-1]
        return results, versions

    def _send_group(
        self,
        now: float,
        node_id: int,
        request: Any,
        positions: Sequence[int],
        pids: List[int],
        results: List[Any],
        versions: Optional[List[int]],
    ) -> Tuple[_Message, float]:
        """Schedule one request message; returns (message, t_response).

        ``request`` is one single-key store request (``versions`` None,
        its result lands in ``results[0]``) or a batch, of which the
        message carries the keys at ``positions``: key ``p`` lives in
        partition ``pids[p]`` and its result lands in ``results[p]`` and
        ``versions[p]``.
        """
        profile = self.profile
        cluster = self.cluster
        node = cluster.nodes[node_id]
        is_write = request.is_write
        if versions is None:
            request_bytes = request_size(request)
        else:
            keys, values = request.keys, request.values
            request_bytes = 24 * len(positions)
            for position in positions:
                request_bytes += approx_size(keys[position])
            if is_write:
                for position in positions:
                    request_bytes += approx_size(values[position])
        # Service time accumulates per key: a product would round
        # differently.
        service = profile.server_cpu_per_msg_us
        if is_write:
            service_us = node.service_us_write
            response_bytes = 16 + WRITE_RESPONSE_BYTES * len(positions)
        else:
            service_us = node.service_us_read
            response_bytes = 16 + READ_RESPONSE_BYTES * len(positions)
        for _ in positions:
            service += service_us

        stats = self.stats
        stats.messages += 1
        stats.store_ops += len(positions)
        stats.bytes_sent += request_bytes

        t_arrive = now + profile.one_way(request_bytes)

        pool = self.sn_pools[node_id]
        # Synchronous replication: the master worker is held until every
        # backup acknowledged (RAMCloud-style), so the wait extends the
        # reservation -- this is what throttles write capacity and
        # inflates commit latency under RF3 (Figure 5).  A backup write
        # is costlier than a master write (log append + buffer flush:
        # the ``REPL_WRITE_AMP`` factor plus a fixed per-put cost), and a
        # master pipelines its group's puts one at a time.
        repl_extra = 0.0
        if is_write and cluster.replication_factor > 1:
            backup_targets: Dict[int, int] = {}
            assignments = cluster.partition_map.assignments
            for position in positions:
                for backup_id in assignments[pids[position]].replicas[1:]:
                    backup_targets[backup_id] = backup_targets.get(backup_id, 0) + 1
            sent = pool.earliest(t_arrive) + service
            repl_wire_us, repl_ack_us = self._repl_wire_us, self._repl_ack_us
            for backup_id, write_count in backup_targets.items():
                backup_node = cluster.nodes[backup_id]
                backup_pool = self.sn_pools[backup_id]
                b_arrive = sent + repl_wire_us
                backup_service = write_count * (
                    backup_node.service_us_write * REPL_WRITE_AMP
                    + REPL_FIXED_US
                )
                _bs, b_end = backup_pool.reserve(b_arrive, backup_service)
                repl_extra += max(0.0, b_end + repl_ack_us - sent)
        _s, t_service_end = pool.reserve(t_arrive, service + repl_extra)

        message = _Message(self, node_id, request, positions, pids, results,
                           versions)
        self.sim.call_at(t_service_end, message)
        t_response = t_service_end + profile.one_way(response_bytes)
        return message, t_response

    def _perform_scan(self, pn_pool: CorePool, op: effects.Scan) -> Generator:
        """Fan a scan out to every master; wait for the slowest slice.

        The event delivers the merged rows, or the
        :class:`~repro.errors.TellError` the scan raised."""
        profile = self.profile
        now = self.sim.now
        slices: Dict[int, List[int]] = {}
        for pid, node_id in self.cluster.scan_routing(op):
            slices.setdefault(node_id, []).append(pid)
        t_done = now
        for node_id, pids in slices.items():
            node = self.cluster.nodes[node_id]
            pool = self.sn_pools[node_id]
            t_arrive = now + profile.one_way(64)
            # Scans are served by a dedicated thread; cost grows with the
            # partition's population (approximated per stored cell).
            cells = sum(
                sum(len(s) for s in node.partitions[pid].spaces.values())
                for pid in pids
                if pid in node.partitions
            )
            service = profile.server_cpu_per_msg_us + 0.05 * max(cells, 1)
            _s, t_end = pool.reserve(t_arrive, service)
            t_done = max(t_done, t_end)
            self.stats.messages += 1

        event = self.sim.event()

        def run_scan() -> None:
            outcome: Any
            try:
                outcome = rows = self.cluster.execute_scan(op)
                response_bytes = 64 + 16 * len(rows)
                for _key, value, _version in rows:
                    # An unfiltered scan ships whole records, which cache
                    # their size; pushed-down rows take the generic path.
                    response_bytes += (
                        value.approx_size()
                        if value.__class__ is VersionedRecord
                        else approx_size(value)
                    )
            except TellError as exc:
                outcome = exc
                response_bytes = 64
            # The response wire time depends on how much the scan ships:
            # storage-side push-down (Section 5.2) earns its keep here.
            self.stats.bytes_sent += response_bytes
            self.sim.call_at(
                self.sim.now + profile.one_way(response_bytes),
                lambda: event.trigger(outcome),
            )

        self.sim.call_at(t_done, run_scan)
        outcome = yield event
        if isinstance(outcome, TellError):
            raise outcome
        return outcome

    # -- commit manager messages -----------------------------------------------------

    def prepare_cm(
        self, cm_index: int, request: effects.CommitManagerRequest,
        pn_id: int, kind: int,
    ) -> Tuple[Any, float]:
        """One commit-manager round trip.

        Manager state executes at issue time (its operations are
        microsecond-cheap and commute across the tiny reordering window);
        the latency charged is arrival + queueing + response, plus one
        storage round trip whenever serving a start required refilling the
        manager's tid range from the shared counter.  Returns
        ``(result, wait_us)``; ``wait_us`` is always positive (two wire
        hops), :meth:`perform` owns the suspension.
        """
        manager = self.commit_managers[cm_index]
        pool = self.cm_pools[cm_index]
        now = self.sim.now
        self.stats.messages += 1
        result = manager.serve(request, pn_id)
        cm_wire = self._cm_wire_us
        _s, t_end = pool.reserve(now + cm_wire, self._cm_service_us)
        t_response = t_end + cm_wire
        if kind == KIND_CM_START and result.range_refilled:
            t_response += self.profile.round_trip() + 2.0
        return result, t_response - now


def drive(fabric: SimFabric, interceptors: Sequence[Interceptor],
          pool: CorePool, cm_index: int, gen: Generator,
          pn_id: int = -1) -> Generator:
    """Run a protocol coroutine under the fabric (a sim process body).

    The one trampoline of the simulated runtime: every request ``gen``
    yields flows through the composed :mod:`repro.dispatch` chain into
    :meth:`SimFabric.perform` (an empty chain is that call and nothing
    else), and a :class:`~repro.errors.TellError` raised on the way is
    thrown back into ``gen`` at the yield that issued the request.
    """
    step = compose(
        interceptors,
        lambda request: fabric.perform(pool, cm_index, request, pn_id),
        DispatchContext(pn_id=pn_id, clock=fabric.sim.clock()),
    )
    send_value: Any = None
    throw_exc: Optional[BaseException] = None
    while True:
        try:
            if throw_exc is not None:
                request = gen.throw(throw_exc)
                throw_exc = None
            else:
                request = gen.send(send_value)
        except StopIteration as stop:
            return stop.value
        try:
            send_value = yield from step(request)
        except TellError as exc:
            send_value = None
            throw_exc = exc

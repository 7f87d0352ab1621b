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
    simulated time).  It carries ``members[p]`` for each ``p`` in
    ``positions``: store requests, or -- with ``space`` set -- the keys
    of a columnar read; ``pids[p]`` is member ``p``'s partition and
    ``writes`` the positions of its replicated writes.  Results land in
    the sender's batch-wide columns: ``values[p]`` (plus ``versions[p]``
    for a columnar read); a :class:`~repro.errors.TellError` lands in
    ``error``.
    """

    __slots__ = ("fabric", "node_id", "positions", "pids", "members",
                 "space", "writes", "values", "versions", "error")

    def __init__(self, fabric: "SimFabric", node_id: int,
                 positions: Sequence[int], pids: List[int],
                 members: List[Any], space: Optional[str],
                 writes: List[int], values: List[Any],
                 versions: Optional[List[int]]) -> None:
        self.fabric = fabric
        self.node_id = node_id
        self.positions = positions
        self.pids = pids
        self.members = members
        self.space = space
        self.writes = writes
        self.values = values
        self.versions = versions
        self.error: Optional[BaseException] = None

    def apply(self) -> None:
        """Serve the message on its node, then drop what it carried."""
        positions, pids, members = self.positions, self.pids, self.members
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
                for position in self.writes:
                    pid = pids[position]
                    if assignments[pid].replicas[0] != node_id:
                        raise WrongOwner(
                            pid, node_id, cluster.partition_map.epoch
                        )
            target = cluster.nodes[node_id]  # as of now, not send time
            space, versions = self.space, self.versions
            if space is not None and versions is not None:
                target.do_get_columns(space, members, pids, positions,
                                      self.values, versions)
            else:
                values = self.values
                for position in positions:
                    values[position] = members[position].apply(
                        target, pids[position]
                    )
                for position in self.writes:
                    cluster.replicate(members[position], pids[position])
        except TellError as exc:
            self.error = exc
        del self.positions, self.pids, self.members, self.writes

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
            node_id: CorePool(config.sn_cores) for node_id in cluster.nodes
        }
        self.cm_pools = [CorePool(2) for _ in commit_managers]
        self.stats = FabricStats()
        # Per-run constants of the CM round trip, hoisted off the hot path.
        self._cm_wire_us = self.profile.one_way(CM_MESSAGE_BYTES)
        self._cm_service_us = SN_SERVICE_CM_US + self.profile.server_cpu_per_msg_us
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
            self.sn_pools[node_id] = CorePool(self.config.sn_cores)

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
            return message.values[0]
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
            # A one-key columnar read is one message either way; the
            # batch path serves it without a Get or a (value, version)
            # pair.
            keys = request.keys
            if self.config.batching and (
                keys is not None or request.op_count > 1
            ):
                return (yield from self._perform_batch(pn_pool, request))
            # Nothing to batch: one round trip per op.
            if keys is None:
                results = []
                for op in request.ops:
                    results.append(
                        (yield from self.perform(pn_pool, cm_index, op, pn_id))
                    )
                return results
            space = request.get_space
            values: List[Any] = []
            versions: List[int] = []
            for key in keys:
                value, version = yield from self.perform(
                    pn_pool, cm_index, effects.Get(space, key), pn_id
                )
                values.append(value)
                versions.append(version)
            return values, versions
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
            t_send, node_id, _ONLY_MEMBER, [partition_id], [op], None,
            [None], None,
        )
        if client_cpu > 0:
            _s, t_done = pn_pool.reserve(t_done, client_cpu)
        return message, t_done - now

    def prepare_batch(
        self, pn_pool: CorePool, batch: effects.Batch,
        values: List[Any], versions: Optional[List[int]],
    ) -> Tuple[List[_Message], float]:
        """Send a batch grouped per target storage node, one message
        each; returns ``(messages, wait_us)``.

        The members (the ops of an op-list batch, the keys of a columnar
        one), their partition ids and the result columns ``values`` /
        ``versions`` are batch-wide parallel lists, and a node's group is
        the list of its members' positions, so nothing per member
        references a request or a result.  None of them outlives the
        messages: the sender keeps only the columns.
        """
        space = batch.get_space
        members = batch.keys
        if members is None:
            members = batch.ops
            keys: List[Any] = [op.key for op in members]
        else:
            keys = members
        pids, groups = self.cluster.group_by_master(keys)
        now = self.sim.now
        # Send-side CPU: one charge per outgoing message.
        t_send = now
        client_cpu = self.profile.client_cpu_per_msg_us
        if client_cpu > 0:
            for _ in groups:
                _s, t_send = pn_pool.reserve(t_send, client_cpu)
        messages = []
        t_done = t_send
        for node_id, positions in groups.items():
            message, t_response = self._send_group(
                t_send, node_id, positions, pids, members, space,
                values, versions,
            )
            messages.append(message)
            if t_response > t_done:
                t_done = t_response
        # Receive-side CPU, one charge per response message.
        if client_cpu > 0:
            for _ in groups:
                _s, t_done = pn_pool.reserve(t_done, client_cpu)
        return messages, t_done - now

    def _perform_batch(
        self, pn_pool: CorePool, batch: effects.Batch
    ) -> Generator:
        """A batch as one message per storage node; resolves per
        :class:`~repro.effects.Batch`'s result contract."""
        count = batch.op_count
        values: List[Any] = [None] * count
        versions = None if batch.keys is None else [0] * count
        messages, wait = self.prepare_batch(pn_pool, batch, values, versions)
        if wait > 0:
            yield Delay(wait)
        error: Optional[BaseException] = None
        for message in messages:
            if message.error is not None:
                error = message.error
        if error is not None:
            raise error
        return values if versions is None else (values, versions)

    def _send_group(
        self,
        now: float,
        node_id: int,
        positions: Sequence[int],
        pids: List[int],
        members: List[Any],
        space: Optional[str],
        values: List[Any],
        versions: Optional[List[int]],
    ) -> Tuple[_Message, float]:
        """Schedule one request message; returns (message, t_response).

        The message carries ``members[p]`` for each ``p`` in
        ``positions``: store requests, or -- with ``space`` set -- the
        keys of a columnar read, each served as the ``Get`` it stands
        for; ``pids[p]`` is member ``p``'s partition, and its result
        lands in ``values[p]`` (and ``versions[p]``).
        """
        profile = self.profile
        cluster = self.cluster
        node = cluster.nodes[node_id]
        pool = self.sn_pools[node_id]
        service_us_read = node.service_us_read
        service_us_write = node.service_us_write

        # One pass over the members computes wire size, service time, and
        # the replicated-write set (positions) together.  Service time
        # accumulates per member: a product would round differently.
        request_bytes = 0
        service = profile.server_cpu_per_msg_us
        response_bytes = 16
        writes: List[int] = []
        if space is not None:
            for position in positions:
                request_bytes += 24 + approx_size(members[position])
                service += service_us_read
            response_bytes += READ_RESPONSE_BYTES * len(positions)
        else:
            for position in positions:
                op = members[position]
                request_bytes += request_size(op)
                if op.is_write:
                    service += service_us_write
                    response_bytes += WRITE_RESPONSE_BYTES
                    writes.append(position)
                else:
                    service += service_us_read
                    response_bytes += READ_RESPONSE_BYTES

        stats = self.stats
        stats.messages += 1
        stats.store_ops += len(positions)
        stats.bytes_sent += request_bytes

        t_arrive = now + profile.one_way(request_bytes)

        start = pool.earliest(t_arrive)
        # Synchronous replication: the master worker is held until every
        # backup acknowledged (RAMCloud-style), so the wait extends the
        # reservation -- this is what throttles write capacity and
        # inflates commit latency under RF3 (Figure 5).  A backup write
        # is costlier than a master write (log append + buffer flush:
        # the ``REPL_WRITE_AMP`` factor plus a fixed per-put cost), and a
        # master pipelines its group's puts one at a time.
        repl_extra = 0.0
        if writes and cluster.replication_factor > 1:
            backup_targets: Dict[int, int] = {}
            backups_of = cluster.partition_map.backups_of
            for position in writes:
                for backup_id in backups_of(pids[position]):
                    backup_targets[backup_id] = backup_targets.get(backup_id, 0) + 1
            sent = start + service
            for backup_id, write_count in backup_targets.items():
                backup_node = cluster.nodes[backup_id]
                backup_pool = self.sn_pools[backup_id]
                b_arrive = sent + profile.one_way(64)
                backup_service = write_count * (
                    backup_node.service_us_write * REPL_WRITE_AMP
                    + REPL_FIXED_US
                )
                _bs, b_end = backup_pool.reserve(b_arrive, backup_service)
                repl_extra += max(0.0, b_end + profile.one_way(32) - sent)
        _s, t_service_end = pool.reserve(t_arrive, service + repl_extra)

        message = _Message(self, node_id, positions, pids, members, space,
                           writes, values, versions)
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
        DispatchContext(pn_id=pn_id, clock=fabric.sim.clock(), engine="sim"),
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

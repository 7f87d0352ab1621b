"""Deterministic autoscaling: observability signals -> elastic decisions.

The autoscaler is a simulated process that ticks at a fixed interval,
samples the deployment's observability signals (storage queue depth,
committed-transaction p99, abort rate -- the same quantities the
``repro.obs`` gauges export), and emits add/remove decisions through the
:class:`~repro.elastic.coordinator.ElasticCoordinator`.

Everything is a pure function of simulated time and deployment state:
no randomness, no wall clock.  A fixed seed therefore reproduces the
identical decision log, migration schedule, and epoch history -- which
is what makes autoscaling testable at all (the determinism suite pins
the decision log down byte for byte).

Policy shape (deliberately boring):

* **storage scale-out** when the worst SN queue backlog stays above
  ``out_queue_us`` (or p99 above ``out_p99_us``) for ``evidence_ticks``
  consecutive ticks;
* **storage scale-in** when backlog and p99 stay below the ``in_*``
  thresholds for ``evidence_ticks`` ticks;
* **processing grow** when p99 is high while storage queues are short
  (the bottleneck is PN-side);
* **processing shrink** when the abort rate exceeds
  ``max_abort_rate`` (contention thrashing: fewer concurrent
  transactions resolve it, Section 6 of the paper).

Each action is followed by ``cooldown_ticks`` of enforced silence so the
system observes the new topology before judging it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from repro.elastic.coordinator import ElasticCoordinator
from repro.errors import InvalidState
from repro.runtime.metrics import percentile
from repro.sim.kernel import Delay


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Thresholds and pacing for the deterministic scaling policy."""

    interval_us: float = 250_000.0
    #: storage scale-out: sustained backlog or tail latency
    out_queue_us: float = 40.0
    out_p99_us: float = 2_500.0
    #: storage scale-in: sustained idleness
    in_queue_us: float = 2.0
    in_p99_us: float = 900.0
    #: processing shrink: contention thrashing
    max_abort_rate: float = 0.25
    evidence_ticks: int = 2
    cooldown_ticks: int = 3
    min_storage_nodes: int = 1
    max_storage_nodes: int = 64
    min_processing_nodes: int = 1
    max_processing_nodes: int = 64

    def __post_init__(self) -> None:
        if self.interval_us <= 0:
            raise InvalidState("autoscaler interval must be positive")
        if self.evidence_ticks < 1 or self.cooldown_ticks < 0:
            raise InvalidState("evidence/cooldown ticks out of range")
        if self.min_storage_nodes > self.max_storage_nodes:
            raise InvalidState("min_storage_nodes > max_storage_nodes")
        if self.min_processing_nodes > self.max_processing_nodes:
            raise InvalidState("min_processing_nodes > max_processing_nodes")


class Decision:
    """One autoscaler tick's outcome (kept even when it decided nothing)."""

    __slots__ = ("at_us", "action", "reason", "signals")

    def __init__(self, at_us: float, action: Optional[str], reason: str,
                 signals: Dict[str, float]):
        self.at_us = at_us
        self.action = action
        self.reason = reason
        self.signals = signals

    def __repr__(self) -> str:
        return (f"Decision(t={self.at_us:.0f}us action={self.action} "
                f"reason={self.reason!r})")


class Autoscaler:
    """Ticks on the sim timeline and drives the elastic coordinator."""

    def __init__(
        self,
        coordinator: ElasticCoordinator,
        policy: Optional[AutoscalerPolicy] = None,
    ):
        self.coordinator = coordinator
        self.deployment = coordinator.deployment
        self.sim = coordinator.sim
        self.policy = policy or AutoscalerPolicy()
        self.decisions: List[Decision] = []
        self._high_ticks = 0
        self._low_ticks = 0
        self._cooldown = 0
        # metric deltas between ticks
        self._seen_latencies: Dict[str, int] = {}
        self._seen_conflicts = 0
        self._seen_finished = 0
        obs = self.deployment.obs
        if obs is not None:
            from repro.obs.collect import collect_autoscaler

            obs.registry.register_collector(
                lambda reg: collect_autoscaler(reg, self))

    # -- signal sampling ----------------------------------------------------

    def sample(self) -> Dict[str, float]:
        """Read the tick's signals from live deployment state.

        The worst SN queue backlog comes from the fabric's core pools,
        the p99 and abort rate from the bench ``TxnMetrics`` series since
        the last tick; each decision's signals are exported afterwards
        as ``repro_autoscaler_signals``.  Reading live state keeps a tick
        O(nodes) instead of materializing a full snapshot.
        """
        fabric = self.deployment.fabric
        now = self.sim.now
        queue_us = 0.0
        for node_id in sorted(fabric.sn_pools):
            backlog = fabric.sn_pools[node_id].earliest(now) - now
            if backlog > queue_us:
                queue_us = backlog
        metrics = self.deployment.metrics
        fresh: List[float] = []
        for name in sorted(metrics.latencies_us):
            series = metrics.latencies_us[name]
            start = self._seen_latencies.get(name, 0)
            if len(series) > start:
                fresh.extend(series[start:])
            self._seen_latencies[name] = len(series)
        p99_us = percentile(sorted(fresh), 0.99) if fresh else 0.0
        conflicts = metrics.total_conflicts
        finished = metrics.total_finished
        d_conflicts = conflicts - self._seen_conflicts
        d_finished = finished - self._seen_finished
        self._seen_conflicts = conflicts
        self._seen_finished = finished
        abort_rate = d_conflicts / d_finished if d_finished else 0.0
        return {
            "queue_us": queue_us,
            "p99_us": p99_us,
            "abort_rate": abort_rate,
            "txns": float(d_finished),
        }

    # -- the decision function ----------------------------------------------

    def decide(self, signals: Dict[str, float]) -> Optional[str]:
        """Pure policy step: signals -> action (or None).  Mutates only
        the evidence/cooldown counters."""
        policy = self.policy
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        if signals["txns"] <= 0:
            return None  # nothing finished this tick: no evidence either way
        n_sn = len(self.deployment.cluster.nodes)
        n_pn = len(self.deployment.active_pn_ids())
        if signals["abort_rate"] > policy.max_abort_rate:
            if n_pn > policy.min_processing_nodes:
                return "pn-shrink"
            return None
        high = (signals["queue_us"] > policy.out_queue_us
                or signals["p99_us"] > policy.out_p99_us)
        low = (signals["queue_us"] < policy.in_queue_us
               and signals["p99_us"] < policy.in_p99_us)
        if high:
            self._high_ticks += 1
            self._low_ticks = 0
        elif low:
            self._low_ticks += 1
            self._high_ticks = 0
        else:
            self._high_ticks = 0
            self._low_ticks = 0
            return None
        if self._high_ticks >= policy.evidence_ticks:
            if signals["queue_us"] <= policy.out_queue_us:
                # tail latency without storage backlog: PN-bound
                if n_pn < policy.max_processing_nodes:
                    return "pn-grow"
                return None
            if n_sn < policy.max_storage_nodes:
                return "sn-add"
            return None
        if self._low_ticks >= policy.evidence_ticks:
            if n_sn > policy.min_storage_nodes:
                return "sn-remove"
            return None
        return None

    # -- the sim process -----------------------------------------------------

    def process(self, until_us: float) -> Generator:
        """The autoscaler loop; spawn with ``sim.spawn(a.process(end))``."""
        tick = Delay(self.policy.interval_us)
        while self.sim.now + self.policy.interval_us <= until_us:
            yield tick
            signals = self.sample()
            action = self.decide(signals)
            decision = Decision(
                self.sim.now, action,
                self._reason(action, signals), signals,
            )
            self.decisions.append(decision)
            if action is None:
                continue
            self._high_ticks = 0
            self._low_ticks = 0
            self._cooldown = self.policy.cooldown_ticks
            yield from self._execute(action)

    def _execute(self, action: str) -> Generator:
        coordinator = self.coordinator
        if action == "sn-add":
            yield from coordinator.add_storage_node()
        elif action == "sn-remove":
            victim = max(coordinator.cluster.partition_map.node_ids)
            yield from coordinator.remove_storage_node(victim, drain=True)
        elif action == "pn-grow":
            coordinator.grow_pns(1)
        elif action == "pn-shrink":
            yield from coordinator.shrink_pns(1)
        else:  # pragma: no cover - decide() only emits the four above
            raise InvalidState(f"unknown autoscaler action {action!r}")

    def _reason(self, action: Optional[str],
                signals: Dict[str, float]) -> str:
        return (
            f"queue={signals['queue_us']:.1f}us p99={signals['p99_us']:.0f}us "
            f"aborts={signals['abort_rate'] * 100:.1f}% -> {action or 'hold'}"
        )

    def decision_log(self) -> List[str]:
        """Compact, digest-friendly rendering of every decision."""
        return [
            f"{decision.at_us:.0f} {decision.action or '-'}"
            for decision in self.decisions
        ]

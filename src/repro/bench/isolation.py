"""The isolation-protocol comparison (``python -m repro.bench isolation``).

A Table-3-style experiment the paper never ran: the same skew-heavy
workload under each isolation protocol (SI / WSI / SSI,
:mod:`repro.core.isolation`), comparing throughput, abort rate, and the
anomaly count measured by the sanitizer's dependency-graph oracle.

The workload is a bank of doctor-pair scripts (the write-skew shape:
overlapping reads, disjoint writes) plus read-only auditors, driven over
the simulated fabric by the same :class:`~repro.san.scenarios.SimWorld`
harness the conflict scenarios use.  Everything is deterministic -- no
RNG, fixed interleaving policy -- so per-mode numbers are reproducible
and the anomaly counts are exact:

* under SI both doctors of a racing pair commit and the oracle counts a
  write-skew cycle;
* under WSI/SSI commit-time validation aborts one of them, trading
  throughput for zero anomalies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List

from repro.errors import TellError, TransactionAborted

if TYPE_CHECKING:
    from repro.bench.experiments import BenchProfile

#: Modes compared, in presentation order.
MODES = ("si", "wsi", "ssi")

#: Key space of the paired on-call rows (disjoint from the scenario keys).
_PAIR_BASE = 940_000


def _pair_keys(pair: int) -> tuple:
    return (_PAIR_BASE + 2 * pair, _PAIR_BASE + 2 * pair + 1)


def _doctor(world: Any, pn_id: int, pair: int, side: int,
            rounds: int, counts: Dict[str, int]) -> Generator:
    """One doctor: repeatedly check the pair's on-call total and go
    off-call when the constraint allows -- the write-skew shape."""
    pn = world.pns[pn_id]
    keys = _pair_keys(pair)
    for _round in range(rounds):
        try:
            txn = yield from pn.begin()
            values = yield from txn.read_many(list(keys))
            on_call = sum(
                payload[0] for payload in values.values()
                if payload is not None
            )
            if on_call >= 2:
                yield from txn.update(keys[side], (0,))
            else:
                # Go back on call so later rounds race again.
                yield from txn.update(keys[side], (1,))
            yield from txn.commit()
            counts["committed"] += 1
        except (TransactionAborted, TellError):
            counts["aborted"] += 1
    return None


def _auditor(world: Any, pn_id: int, pairs: int, rounds: int,
             counts: Dict[str, int]) -> Generator:
    """Read-only sweeps over every pair (exercises the read-only fast
    path, which no protocol validates)."""
    pn = world.pns[pn_id]
    keys = [key for pair in range(pairs) for key in _pair_keys(pair)]
    for _round in range(rounds):
        try:
            txn = yield from pn.begin()
            yield from txn.read_many(keys)
            yield from txn.commit()
            counts["committed"] += 1
        except (TransactionAborted, TellError):
            counts["aborted"] += 1
    return None


def run_isolation_point(mode: str, pairs: int = 4, rounds: int = 6) -> Dict[str, Any]:
    """Run the skew workload under ``mode`` and measure the trade-off."""
    from repro.san.scenarios import SimWorld

    world = SimWorld(n_pns=2, isolation=mode)
    seed_rows: Dict[Any, Any] = {}
    for pair in range(pairs):
        for key in _pair_keys(pair):
            seed_rows[key] = (1,)
    world.seed(seed_rows)

    counts = {"committed": 0, "aborted": 0}
    processes = []
    for pair in range(pairs):
        for side in range(2):
            pn_id = (2 * pair + side) % len(world.pns)
            processes.append(world.spawn(
                pn_id,
                _doctor(world, pn_id, pair, side, rounds, counts),
                f"doctor-{pair}-{side}",
            ))
    processes.append(world.spawn(
        0, _auditor(world, 0, pairs, rounds, counts), "auditor"
    ))
    started_us = world.sim.now
    world.run_all(processes)
    elapsed_us = max(world.sim.now - started_us, 1.0)

    cycles = world.sanitizer.analyze()
    manager = world.commit_managers[0]
    finished = counts["committed"] + counts["aborted"]
    return {
        "mode": mode,
        "committed": counts["committed"],
        "aborted": counts["aborted"],
        "abort_rate": counts["aborted"] / finished if finished else 0.0,
        "txns_per_s": counts["committed"] / (elapsed_us / 1e6),
        "anomalies": len(cycles),
        "validations": manager.validations,
        "validation_aborts": manager.validation_aborts,
        "sanitizer_clean": world.log.clean,
    }


def run_isolation(profile: BenchProfile) -> List[Dict[str, Any]]:
    """One row per isolation mode; the workload has one size, whatever
    the profile."""
    return [run_isolation_point(mode) for mode in MODES]


def check_isolation(rows: List[Dict[str, Any]]) -> None:
    """Beyond the paper (Section 4.1 names serializable SI as future
    work): SI admits write skew -- the oracle counts the cycles and no
    commit is validated -- while WSI and SSI validate at commit time and
    trade throughput for zero anomalies (docs/isolation.md)."""
    by_mode = {row["mode"]: row for row in rows}
    si = by_mode["si"]
    assert si["anomalies"] >= 1, "SI should admit the write skew"
    assert si["validations"] == 0, "SI validates no commit"
    for mode in ("wsi", "ssi"):
        row = by_mode[mode]
        assert row["anomalies"] == 0, f"{mode} let a write skew through"
        assert row["validation_aborts"] > 0, f"{mode} aborted nothing"
        assert row["committed"] < si["committed"], (
            f"{mode} should pay for serializability in commits")
    assert all(row["sanitizer_clean"] for row in rows), "sanitizer violations"

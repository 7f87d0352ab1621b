"""Compare two ledgers: ``python3 benchmarks/ledger/compare.py A.json B.json``.

A is the base (the parent commit, or the first of two sets of runs), B the
candidate.  One row per (workload, end-to-end metric) with both medians and
quartiles, the ratio B/A, the bound and a verdict:

* ``ok``         -- B's median is no worse than A's by more than the bound;
* ``worse``      -- it is;
* ``unresolved`` -- either side's quartile spread is wider than the bound,
  so the runs cannot tell.

Exact per-layer metrics, ``calls_in`` and digests must be *equal*: with a
fixed seed the simulator repeats them bit-for-bit, so a difference means the
modelled behaviour changed.  Exit status 1 on any ``worse`` or inequality.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

from layers import END_TO_END, PER_LAYER


def _spread(summary: Dict[str, Any]) -> float:
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def _cell(summary: Dict[str, Any]) -> str:
    return (f"{summary['median']:.5g} "
            f"[{summary['q1']:.5g}..{summary['q3']:.5g}]")


def _verdict(metric, base: Dict[str, Any], cand: Dict[str, Any]) -> str:
    if max(_spread(base), _spread(cand)) > metric.bound:
        return "unresolved"
    change = cand["median"] / base["median"] - 1.0
    worsening = -change if metric.better == "higher" else change
    return "worse" if worsening > metric.bound else "ok"


def compare(base: Dict[str, Any], cand: Dict[str, Any]) -> List[str]:
    """Print the table; return the list of blocking findings."""
    findings: List[str] = []
    for key in ("seed", "seconds"):
        if base[key] != cand[key]:
            findings.append(f"ledgers differ in {key}: "
                            f"{base[key]} vs {cand[key]}")
    print(f"{'workload':20s} {'metric':18s} {'A median [q1..q3]':>34s} "
          f"{'B median [q1..q3]':>34s} {'B/A':>7s} {'bound':>6s} verdict")
    for name, entry_a in base["workloads"].items():
        entry_b = cand["workloads"].get(name)
        if entry_b is None:
            findings.append(f"{name}: missing from B")
            continue
        for metric in END_TO_END:
            a = entry_a["end_to_end"][metric.name]
            b = entry_b["end_to_end"][metric.name]
            verdict = _verdict(metric, a, b)
            print(f"{name:20s} {metric.name:18s} {_cell(a):>34s} "
                  f"{_cell(b):>34s} {b['median'] / a['median']:>7.3f} "
                  f"{metric.bound:>6.2f} {verdict} "
                  f"(base A = {a['median']:.5g} {metric.unit})")
            if verdict == "worse":
                findings.append(f"{name}: {metric.name} worse than A by more "
                                f"than {metric.bound:.0%}")
        for label in ("digest", "calls_in", "failed_share"):
            if entry_a.get(label) != entry_b.get(label):
                findings.append(f"{name}: {label} differs")
        both_layered = "per_layer" in entry_a and "per_layer" in entry_b
        for metric in PER_LAYER if both_layered else ():
            if metric.kind != "exact":
                continue
            value_a = entry_a["per_layer"][metric.name]["value"]
            value_b = entry_b["per_layer"][metric.name]["value"]
            if value_a != value_b:
                findings.append(f"{name}: exact metric {metric.name} differs: "
                                f"{value_a!r} vs {value_b!r}")
        if entry_b["failed_share"]:
            findings.append(f"{name}: failed_share is "
                            f"{entry_b['failed_share']} in B")
    return findings


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            ledgers.append(json.load(handle))
    findings = compare(*ledgers)
    for finding in findings:
        print(f"FINDING: {finding}")
    print("agree" if not findings else f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

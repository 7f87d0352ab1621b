"""Snapshot exporters: JSON schema ``repro-obs/2``, Prometheus text, and
the aligned text tables ``repro-obs`` and ``python -m repro.bench`` print.

The JSON snapshot is the canonical artifact -- the bench harness writes
one next to every figure/table result, the CLI renders it, and CI
validates it.  Determinism matters more than prettiness: all keys are
sorted and all timestamps come from the simulated clock, so two
same-seed runs serialize byte-identically.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

OBS_SCHEMA = "repro-obs/2"


def validate_snapshot(snapshot: dict) -> List[str]:
    """Return a list of schema problems (empty == valid)."""
    problems: List[str] = []
    if not isinstance(snapshot, dict):
        return ["snapshot is not an object"]
    if snapshot.get("schema") != OBS_SCHEMA:
        problems.append(f"schema is {snapshot.get('schema')!r}, "
                        f"expected {OBS_SCHEMA!r}")
    for section in ("counters", "gauges"):
        value = snapshot.get(section)
        if not isinstance(value, dict):
            problems.append(f"missing or non-object section {section!r}")
            continue
        for name, num in value.items():
            if not isinstance(num, (int, float)):
                problems.append(f"{section}[{name!r}] is not a number")
    histograms = snapshot.get("histograms")
    if not isinstance(histograms, dict):
        problems.append("missing or non-object section 'histograms'")
    else:
        for name, cell in histograms.items():
            if not isinstance(cell, dict) or not {
                    "count", "sum", "max", "buckets"} <= set(cell):
                problems.append(f"histograms[{name!r}] malformed")
    spans = snapshot.get("spans")
    if not isinstance(spans, dict) or "finished_roots" not in spans:
        problems.append("missing or malformed section 'spans'")
    meta = snapshot.get("meta")
    if not isinstance(meta, dict) or "clock" not in meta:
        problems.append("missing or malformed section 'meta'")
    return problems


def to_json(snapshot: dict, indent: int = 2) -> str:
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def _parse_series(series: str) -> Tuple[str, Dict[str, str]]:
    """``name{a=b,c=d}`` -> ``("name", {"a": "b", "c": "d"})``."""
    name, _, rest = series.partition("{")
    if not rest:
        return name, {}
    return name, dict(
        pair.split("=", 1) for pair in rest.rstrip("}").split(","))


def _prom_name(series: str) -> str:
    """``name{a=b}`` -> Prometheus ``name{a="b"}``."""
    name, labels = _parse_series(series)
    if not labels:
        return name
    quoted = ",".join(f'{k}="{v}"' for k, v in labels.items())
    return f"{name}{{{quoted}}}"


def to_prometheus(snapshot: dict) -> str:
    """Render the snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    typed: set = set()

    def type_line(series: str, kind: str) -> None:
        name = series.partition("{")[0]
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for series, value in snapshot.get("counters", {}).items():
        type_line(series, "counter")
        lines.append(f"{_prom_name(series)} {value}")
    for series, value in snapshot.get("gauges", {}).items():
        type_line(series, "gauge")
        lines.append(f"{_prom_name(series)} {value}")
    for series, cell in snapshot.get("histograms", {}).items():
        type_line(series, "histogram")
        name, _, rest = series.partition("{")
        labels = rest.rstrip("}") if rest else ""
        cumulative = 0
        for bucket in sorted(cell["buckets"], key=int):
            cumulative += cell["buckets"][bucket]
            upper = float(2 ** int(bucket))
            merged = f"{labels},le={upper}" if labels else f"le={upper}"
            lines.append(f"{_prom_name(f'{name}_bucket{{{merged}}}')} "
                         f"{cumulative}")
        merged = f"{labels},le=+Inf" if labels else "le=+Inf"
        lines.append(f"{_prom_name(f'{name}_bucket{{{merged}}}')} "
                     f"{cell['count']}")
        suffix = f"{{{labels}}}" if labels else ""
        lines.append(f"{_prom_name(f'{name}_sum{suffix}')} {cell['sum']}")
        lines.append(f"{_prom_name(f'{name}_count{suffix}')} "
                     f"{cell['count']}")
    return "\n".join(lines) + "\n"


#: Table-4 columns after txn / count / total, in presentation order.
_TABLE_PHASES = ("snapshot", "read", "validate", "write", "commit", "other")

PHASE_TABLE_HEADERS = ["Txn", "Count", "Total (ms)"] + [
    f"{phase.capitalize()} (ms)" for phase in _TABLE_PHASES]


def phase_table_rows(snapshot: dict) -> List[list]:
    """Tabular per-phase latency breakdown (the Table-4 shape), rendered
    from the ``repro_txn_us`` / ``repro_txn_phase_us`` histograms.

    Columns: txn, count, mean total (ms), then mean ms in each of
    snapshot / read / validate / write / commit / other.  The validate
    column is the WSI/SSI commit-time validation round trip; it renders
    "-" under plain SI, which never opens that phase.
    """
    totals: Dict[str, dict] = {}
    phase_sums: Dict[Tuple[str, str], float] = {}
    for series, cell in snapshot.get("histograms", {}).items():
        name, labels = _parse_series(series)
        if name == "repro_txn_us":
            totals[labels["txn"]] = cell
        elif name == "repro_txn_phase_us":
            phase_sums[labels["txn"], labels["phase"]] = cell["sum"]
    rows = []
    for txn in sorted(totals):
        count = totals[txn]["count"]
        row = [txn, count, f"{totals[txn]['sum'] / count / 1000.0:.3f}"]
        for phase in _TABLE_PHASES:
            total_us = phase_sums.get((txn, phase))
            # Phase means are per-transaction: total phase time spread
            # over every transaction of this type, not per occurrence.
            row.append("-" if total_us is None
                       else f"{total_us / count / 1000.0:.3f}")
        rows.append(row)
    return rows


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    cells = [[_format(value) for value in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in cells)) if cells else len(header)
        for i, header in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _format(value: Any) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:,.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def print_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> None:
    print()
    print(format_table(headers, rows, title))
    print()

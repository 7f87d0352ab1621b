"""Initial TPC-C database population.

Follows the spec's cardinalities and value rules, scaled by
:class:`~repro.workloads.tpcc.params.TpccScale`.  String fillers are kept
short (the spec pads rows to hundreds of bytes to stress disk layouts; in
an in-memory reproduction only relative sizes matter and short fillers
keep the Python heap reasonable).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Generator, Iterator, List, Tuple

from repro.sql.schema import Catalog
from repro.workloads.loader import BulkLoader
from repro.workloads.tpcc.params import TpccScale, last_name

#: Fraction of initial orders already delivered (spec: 2100 of 3000).
DELIVERED_FRACTION = 0.7


_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _text(rng: random.Random, length: int = 12) -> str:
    return "".join(rng.choices(_ALPHABET, k=length))


def _zip(rng: random.Random) -> str:
    return f"{rng.randint(0, 9999):04d}11111"


def item_rows(scale: TpccScale, rng: random.Random) -> Iterator[Dict[str, Any]]:
    for i_id in range(1, scale.items + 1):
        original = rng.randint(1, 10) == 1
        yield {
            "i_id": i_id,
            "i_im_id": rng.randint(1, 10_000),
            "i_name": _text(rng, 14),
            "i_price": round(rng.uniform(1.0, 100.0), 2),
            "i_data": ("ORIGINAL" if original else _text(rng, 16)),
        }


def warehouse_row(w_id: int, rng: random.Random) -> Dict[str, Any]:
    return {
        "w_id": w_id,
        "w_name": _text(rng, 8),
        "w_street_1": _text(rng),
        "w_street_2": _text(rng),
        "w_city": _text(rng),
        "w_state": _text(rng, 2).upper(),
        "w_zip": _zip(rng),
        "w_tax": round(rng.uniform(0.0, 0.2), 4),
        "w_ytd": 300_000.0,
    }


def district_rows(
    w_id: int, scale: TpccScale, rng: random.Random
) -> Iterator[Dict[str, Any]]:
    for d_id in range(1, scale.districts_per_warehouse + 1):
        yield {
            "d_w_id": w_id,
            "d_id": d_id,
            "d_name": _text(rng, 8),
            "d_street_1": _text(rng),
            "d_street_2": _text(rng),
            "d_city": _text(rng),
            "d_state": _text(rng, 2).upper(),
            "d_zip": _zip(rng),
            "d_tax": round(rng.uniform(0.0, 0.2), 4),
            "d_ytd": 30_000.0,
            "d_next_o_id": scale.initial_orders_per_district + 1,
        }


def customer_rows(
    w_id: int, scale: TpccScale, rng: random.Random
) -> Iterator[Dict[str, Any]]:
    name_range = scale.name_range
    for d_id in range(1, scale.districts_per_warehouse + 1):
        for c_id in range(1, scale.customers_per_district + 1):
            # Spec: the first 1000 customers get sequential last names,
            # the rest NURand-distributed; scaled via name_range.
            if c_id <= name_range:
                c_last = last_name((c_id - 1) % 1000)
            else:
                c_last = last_name(rng.randint(0, name_range - 1) % 1000)
            yield {
                "c_w_id": w_id,
                "c_d_id": d_id,
                "c_id": c_id,
                "c_first": _text(rng, 10),
                "c_middle": "OE",
                "c_last": c_last,
                "c_street_1": _text(rng),
                "c_city": _text(rng),
                "c_state": _text(rng, 2).upper(),
                "c_zip": _zip(rng),
                "c_phone": f"{rng.randint(0, 10**10 - 1):010d}",
                "c_since": 0.0,
                "c_credit": "BC" if rng.randint(1, 10) == 1 else "GC",
                "c_credit_lim": 50_000.0,
                "c_discount": round(rng.uniform(0.0, 0.5), 4),
                "c_balance": -10.0,
                "c_ytd_payment": 10.0,
                "c_payment_cnt": 1,
                "c_delivery_cnt": 0,
                "c_data": _text(rng, 24),
            }


def stock_rows(
    w_id: int, scale: TpccScale, rng: random.Random
) -> Iterator[Dict[str, Any]]:
    for i_id in range(1, scale.items + 1):
        yield {
            "s_w_id": w_id,
            "s_i_id": i_id,
            "s_quantity": rng.randint(10, 100),
            "s_ytd": 0.0,
            "s_order_cnt": 0,
            "s_remote_cnt": 0,
            "s_data": _text(rng, 16),
            "s_dist_01": _text(rng, 24),
        }


def order_rows(
    w_id: int, scale: TpccScale, rng: random.Random
) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Orders, new-order and order-line rows for one warehouse, as
    ``(table, row)`` pairs in generation order."""
    delivered_upto = int(scale.initial_orders_per_district * DELIVERED_FRACTION)
    for d_id in range(1, scale.districts_per_warehouse + 1):
        # Spec: o_c_id is a permutation of the customer ids.
        customers = list(range(1, scale.customers_per_district + 1))
        rng.shuffle(customers)
        for o_id in range(1, scale.initial_orders_per_district + 1):
            delivered = o_id <= delivered_upto
            ol_cnt = rng.randint(5, 15)
            yield "orders", {
                "o_w_id": w_id,
                "o_d_id": d_id,
                "o_id": o_id,
                "o_c_id": customers[(o_id - 1) % len(customers)],
                "o_entry_d": 0.0,
                "o_carrier_id": rng.randint(1, 10) if delivered else None,
                "o_ol_cnt": ol_cnt,
                "o_all_local": 1,
            }
            if not delivered:
                yield "neworder", {
                    "no_w_id": w_id, "no_d_id": d_id, "no_o_id": o_id,
                }
            for number in range(1, ol_cnt + 1):
                yield "orderline", {
                    "ol_w_id": w_id,
                    "ol_d_id": d_id,
                    "ol_o_id": o_id,
                    "ol_number": number,
                    "ol_i_id": rng.randint(1, scale.items),
                    "ol_supply_w_id": w_id,
                    "ol_delivery_d": 0.0 if delivered else None,
                    "ol_quantity": 5,
                    "ol_amount": (
                        0.0 if delivered else round(rng.uniform(0.01, 9999.99), 2)
                    ),
                    "ol_dist_info": _text(rng, 24),
                }


def warehouse_rows(
    w_id: int, scale: TpccScale, rng: random.Random
) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Every row one warehouse adds, as ``(table, row)`` pairs in the
    order they draw from ``rng``."""
    yield "warehouse", warehouse_row(w_id, rng)
    for row in district_rows(w_id, scale, rng):
        yield "district", row
    for row in customer_rows(w_id, scale, rng):
        yield "customer", row
    for row in stock_rows(w_id, scale, rng):
        yield "stock", row
    yield from order_rows(w_id, scale, rng)


#: Tables filled per warehouse, in load order.
_WAREHOUSE_TABLES = (
    "warehouse", "district", "customer", "stock", "orders", "orderline",
    "neworder",
)


def populate(
    catalog: Catalog,
    loader: BulkLoader,
    scale: TpccScale,
    seed: int = 7,
) -> Generator:
    """Load the whole database; returns {table: row count}.

    Each row becomes its payload tuple (the object the store keeps) as
    it is generated.  Warehouses draw their rows of every table in turn
    from one ``rng``, so those payloads wait in one list per table until
    the tables load, one after another.
    """
    rng = random.Random(seed)
    counts: Dict[str, int] = {}
    counts["item"] = yield from loader.load_table(
        "item", map(catalog.table("item").make_row, item_rows(scale, rng))
    )

    make_row = {table: catalog.table(table).make_row for table in _WAREHOUSE_TABLES}
    payloads: Dict[str, List[Tuple[Any, ...]]] = {
        table: [] for table in _WAREHOUSE_TABLES
    }
    for w_id in range(1, scale.warehouses + 1):
        for table, row in warehouse_rows(w_id, scale, rng):
            payloads[table].append(make_row[table](row))
    for table in _WAREHOUSE_TABLES:
        counts[table] = yield from loader.load_table(table, payloads.pop(table))
    counts["history"] = yield from loader.load_table("history", [])
    return counts

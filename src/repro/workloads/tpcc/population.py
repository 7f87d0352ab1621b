"""Initial TPC-C database population.

Follows the spec's cardinalities and value rules, scaled by
:class:`~repro.workloads.tpcc.params.TpccScale`.  String fillers are kept
short (the spec pads rows to hundreds of bytes to stress disk layouts; in
an in-memory reproduction only relative sizes matter and short fillers
keep the Python heap reasonable).
"""

from __future__ import annotations

import random
from itertools import repeat
from math import floor
from typing import Any, Dict, Generator, Iterator, List, Tuple

from repro.workloads.loader import BulkLoader
from repro.workloads.tpcc.params import TpccScale, last_name

#: Fraction of initial orders already delivered (spec: 2100 of 3000).
DELIVERED_FRACTION = 0.7

#: One payload tuple: a row's values in its table's column order.
Row = Tuple[Any, ...]


_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _text(rng: random.Random, length: int = 12) -> str:
    """``length`` random letters: the draws of ``rng.choices(_ALPHABET,
    k=length)``, written out without its per-call overhead."""
    draw = rng.random
    return "".join([_ALPHABET[floor(draw() * 26.0)]
                    for _ in repeat(None, length)])


def _zip(rng: random.Random) -> str:
    return f"{rng.randint(0, 9999):04d}11111"


# Each row function yields payload tuples in schema column order
# (repro.workloads.tpcc.schema); every value is already of its column's
# storage class, so a tuple is what the store keeps.  A tuple display
# evaluates left to right, so the draws from ``rng`` keep their order.


def item_rows(scale: TpccScale, rng: random.Random) -> Iterator[Row]:
    for i_id in range(1, scale.items + 1):
        original = rng.randint(1, 10) == 1
        yield (
            i_id,                                           # i_id
            rng.randint(1, 10_000),                         # i_im_id
            _text(rng, 14),                                 # i_name
            round(rng.uniform(1.0, 100.0), 2),              # i_price
            "ORIGINAL" if original else _text(rng, 16),     # i_data
        )


def warehouse_row(w_id: int, rng: random.Random) -> Row:
    return (
        w_id,                                   # w_id
        _text(rng, 8),                          # w_name
        _text(rng),                             # w_street_1
        _text(rng),                             # w_street_2
        _text(rng),                             # w_city
        _text(rng, 2).upper(),                  # w_state
        _zip(rng),                              # w_zip
        round(rng.uniform(0.0, 0.2), 4),        # w_tax
        300_000.0,                              # w_ytd
    )


def district_rows(
    w_id: int, scale: TpccScale, rng: random.Random
) -> Iterator[Row]:
    for d_id in range(1, scale.districts_per_warehouse + 1):
        yield (
            w_id,                                   # d_w_id
            d_id,                                   # d_id
            _text(rng, 8),                          # d_name
            _text(rng),                             # d_street_1
            _text(rng),                             # d_street_2
            _text(rng),                             # d_city
            _text(rng, 2).upper(),                  # d_state
            _zip(rng),                              # d_zip
            round(rng.uniform(0.0, 0.2), 4),        # d_tax
            30_000.0,                               # d_ytd
            scale.initial_orders_per_district + 1,  # d_next_o_id
        )


def customer_rows(
    w_id: int, scale: TpccScale, rng: random.Random
) -> Iterator[Row]:
    name_range = scale.name_range
    for d_id in range(1, scale.districts_per_warehouse + 1):
        for c_id in range(1, scale.customers_per_district + 1):
            # Spec: the first 1000 customers get sequential last names,
            # the rest NURand-distributed; scaled via name_range.
            if c_id <= name_range:
                c_last = last_name((c_id - 1) % 1000)
            else:
                c_last = last_name(rng.randint(0, name_range - 1) % 1000)
            yield (
                w_id,                                           # c_w_id
                d_id,                                           # c_d_id
                c_id,                                           # c_id
                _text(rng, 10),                                 # c_first
                "OE",                                           # c_middle
                c_last,                                         # c_last
                _text(rng),                                     # c_street_1
                _text(rng),                                     # c_city
                _text(rng, 2).upper(),                          # c_state
                _zip(rng),                                      # c_zip
                f"{rng.randint(0, 10**10 - 1):010d}",           # c_phone
                0.0,                                            # c_since
                "BC" if rng.randint(1, 10) == 1 else "GC",      # c_credit
                50_000.0,                                       # c_credit_lim
                round(rng.uniform(0.0, 0.5), 4),                # c_discount
                -10.0,                                          # c_balance
                10.0,                                           # c_ytd_payment
                1,                                              # c_payment_cnt
                0,                                              # c_delivery_cnt
                _text(rng, 24),                                 # c_data
            )


def stock_rows(
    w_id: int, scale: TpccScale, rng: random.Random
) -> Iterator[Row]:
    for i_id in range(1, scale.items + 1):
        yield (
            w_id,                       # s_w_id
            i_id,                       # s_i_id
            rng.randint(10, 100),       # s_quantity
            0.0,                        # s_ytd
            0,                          # s_order_cnt
            0,                          # s_remote_cnt
            _text(rng, 16),             # s_data
            _text(rng, 24),             # s_dist_01
        )


def order_rows(
    w_id: int, scale: TpccScale, rng: random.Random
) -> Iterator[Tuple[str, Row]]:
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
            yield "orders", (
                w_id,                                           # o_w_id
                d_id,                                           # o_d_id
                o_id,                                           # o_id
                customers[(o_id - 1) % len(customers)],         # o_c_id
                0.0,                                            # o_entry_d
                rng.randint(1, 10) if delivered else None,      # o_carrier_id
                ol_cnt,                                         # o_ol_cnt
                1,                                              # o_all_local
            )
            if not delivered:
                yield "neworder", (
                    w_id,   # no_w_id
                    d_id,   # no_d_id
                    o_id,   # no_o_id
                )
            for number in range(1, ol_cnt + 1):
                yield "orderline", (
                    w_id,                                   # ol_w_id
                    d_id,                                   # ol_d_id
                    o_id,                                   # ol_o_id
                    number,                                 # ol_number
                    rng.randint(1, scale.items),            # ol_i_id
                    w_id,                                   # ol_supply_w_id
                    0.0 if delivered else None,             # ol_delivery_d
                    5,                                      # ol_quantity
                    (0.0 if delivered                       # ol_amount
                     else round(rng.uniform(0.01, 9999.99), 2)),
                    _text(rng, 24),                         # ol_dist_info
                )


def warehouse_rows(
    w_id: int, scale: TpccScale, rng: random.Random
) -> Iterator[Tuple[str, Row]]:
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
    loader: BulkLoader,
    scale: TpccScale,
    seed: int = 7,
) -> Generator:
    """Load the whole database; returns {table: row count}.

    Every row is drawn as its payload tuple (the object the store
    keeps).  Warehouses draw their rows of every table in turn from one
    ``rng``, so those payloads wait in one list per table until the
    tables load, one after another.
    """
    rng = random.Random(seed)
    counts: Dict[str, int] = {}
    counts["item"] = yield from loader.load_table("item", item_rows(scale, rng))

    payloads: Dict[str, List[Row]] = {table: [] for table in _WAREHOUSE_TABLES}
    for w_id in range(1, scale.warehouses + 1):
        for table, row in warehouse_rows(w_id, scale, rng):
            payloads[table].append(row)
    for table in _WAREHOUSE_TABLES:
        counts[table] = yield from loader.load_table(table, payloads.pop(table))
    counts["history"] = yield from loader.load_table("history", [])
    return counts

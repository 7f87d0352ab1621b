"""Tests for column types, schemas, and the shared catalog."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import effects
from repro.dispatch import Dispatcher
from repro.effects import run_direct
from repro.errors import ConflictError, SchemaError
from repro.index.btree import MAX_RID
from repro.sql.keyenc import encode_key
from repro.sql.schema import Catalog, Column, TableSchema
from repro.sql.types import ColumnType, coerce
from repro.store.cluster import StorageCluster


class TestColumnType:
    def test_aliases(self):
        assert ColumnType.from_sql("VARCHAR(16)") is ColumnType.TEXT
        assert ColumnType.from_sql("integer") is ColumnType.INT
        assert ColumnType.from_sql("DECIMAL(12,2)") is ColumnType.DECIMAL
        assert ColumnType.from_sql("double") is ColumnType.FLOAT

    def test_unknown_type(self):
        with pytest.raises(SchemaError):
            ColumnType.from_sql("BLOB")


class TestCoerce:
    def test_none_passthrough(self):
        assert coerce(None, ColumnType.INT) is None

    def test_int(self):
        assert coerce(5, ColumnType.INT) == 5
        assert coerce(5.0, ColumnType.INT) == 5
        with pytest.raises(SchemaError):
            coerce("x", ColumnType.INT)
        with pytest.raises(SchemaError):
            coerce(True, ColumnType.INT)
        with pytest.raises(SchemaError):
            coerce(5.5, ColumnType.INT)

    def test_float(self):
        assert coerce(5, ColumnType.FLOAT) == 5.0
        assert isinstance(coerce(5, ColumnType.DECIMAL), float)
        with pytest.raises(SchemaError):
            coerce("x", ColumnType.FLOAT)

    def test_text(self):
        assert coerce("abc", ColumnType.TEXT) == "abc"
        with pytest.raises(SchemaError):
            coerce(5, ColumnType.TEXT)

    def test_bool(self):
        assert coerce(True, ColumnType.BOOL) is True
        with pytest.raises(SchemaError):
            coerce(1, ColumnType.BOOL)


class TestTableSchema:
    def make(self):
        return TableSchema(
            1, "t",
            [
                Column("id", ColumnType.INT, nullable=False),
                Column("name", ColumnType.TEXT, default="anon"),
                Column("score", ColumnType.FLOAT),
            ],
            ["id"],
        )

    def test_make_row_defaults(self):
        schema = self.make()
        row = schema.make_row({"id": 1})
        assert row == (1, "anon", None)

    def test_make_row_not_null(self):
        schema = self.make()
        with pytest.raises(SchemaError):
            schema.make_row({"name": "x"})

    def test_make_row_unknown_column(self):
        schema = self.make()
        with pytest.raises(SchemaError):
            schema.make_row({"id": 1, "ghost": 2})

    def test_key_of(self):
        schema = self.make()
        assert schema.key_of((7, "n", 1.0)) == (7,)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(1, "t", [Column("a", ColumnType.INT)] * 2, ["a"])

    def test_pk_column_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema(1, "t", [Column("a", ColumnType.INT)], ["b"])

    def test_row_to_dict(self):
        schema = self.make()
        assert schema.row_to_dict((1, "x", 2.0)) == {
            "id": 1, "name": "x", "score": 2.0
        }


class TestCatalog:
    def test_define_table_creates_pk_index(self):
        catalog = Catalog()
        schema = catalog.define_table(
            "t", [Column("id", ColumnType.INT)], ["id"]
        )
        assert schema.primary_index.unique
        assert schema.primary_index.columns == ("id",)

    def test_table_ids_unique(self):
        catalog = Catalog()
        a = catalog.define_table("a", [Column("x", ColumnType.INT)], ["x"])
        b = catalog.define_table("b", [Column("x", ColumnType.INT)], ["x"])
        assert a.table_id != b.table_id

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.define_table("t", [Column("x", ColumnType.INT)], ["x"])
        with pytest.raises(SchemaError):
            catalog.define_table("T", [Column("x", ColumnType.INT)], ["x"])

    def test_index_on_unknown_column(self):
        catalog = Catalog()
        catalog.define_table("t", [Column("x", ColumnType.INT)], ["x"])
        with pytest.raises(SchemaError):
            catalog.define_index("i", "t", ["nope"])

    def test_drop_table_removes_indexes(self):
        catalog = Catalog()
        catalog.define_table("t", [Column("x", ColumnType.INT)], ["x"])
        catalog.define_index("i", "t", ["x"])
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        assert "i" not in catalog.indexes
        assert "t_pk" not in catalog.indexes

    def test_persistence_roundtrip(self):
        cluster = StorageCluster(n_nodes=1)
        dispatcher = Dispatcher(cluster)
        catalog = Catalog()
        catalog.define_table("t", [Column("x", ColumnType.INT)], ["x"])
        run_direct(catalog.save(), dispatcher)
        loaded, version = run_direct(Catalog.load(), dispatcher)
        assert loaded.has_table("t")
        assert version == 1
        assert loaded is not catalog  # deep copy

    def test_concurrent_ddl_conflicts(self):
        cluster = StorageCluster(n_nodes=1)
        dispatcher = Dispatcher(cluster)
        catalog = Catalog()
        run_direct(catalog.save(), dispatcher)
        a, version_a = run_direct(Catalog.load(), dispatcher)
        b, version_b = run_direct(Catalog.load(), dispatcher)
        a.define_table("from_a", [Column("x", ColumnType.INT)], ["x"])
        run_direct(a.save_if_version(version_a), dispatcher)
        b.define_table("from_b", [Column("x", ColumnType.INT)], ["x"])
        with pytest.raises(ConflictError):
            run_direct(b.save_if_version(version_b), dispatcher)


def _one(value):
    return encode_key((value,))


class TestKeyEncoding:
    def test_null_sorts_first(self):
        assert _one(None) < _one(-10**9)
        assert _one(None) < _one("")

    def test_numbers_before_strings(self):
        assert _one(10**9) < _one("a")

    def test_int_float_interoperate(self):
        assert _one(1) < _one(1.5)
        assert _one(2.0) == _one(2)

    def test_bool_separate_from_int(self):
        assert _one(True) < _one(0)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            _one([1])

    def test_encode_key_tuple(self):
        encoded = encode_key((None, 5, "x"))
        assert encoded == (0, False, 2, 5, 3, "x")

    def test_total_order_over_mixed_population(self):
        values = [None, True, False, -3, 0, 2.5, 7, "", "a", "b", b"z"]
        encoded = [_one(value) for value in values]
        assert sorted(encoded) is not None  # must not raise


# -- the flat encoding orders exactly like (rank, value) pairs ----------------


def _nested(key):
    """Reference encoding: one ``(rank, value)`` pair per component."""
    pairs = []
    for value in key:
        if value is None:
            pairs.append((0, False))
        elif isinstance(value, bool):
            pairs.append((1, value))
        elif isinstance(value, (int, float)):
            pairs.append((2, value))
        elif isinstance(value, str):
            pairs.append((3, value))
        else:
            pairs.append((4, value))
    return tuple(pairs)


def _order(a, b):
    return (a > b) - (a < b)


_component = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.sampled_from(["", "a", "ab", "b"]),
    st.sampled_from([b"", b"a", b"b"]),
)
_keys = st.lists(_component, min_size=0, max_size=4).map(tuple)


@settings(max_examples=300, deadline=None)
@given(a=_keys, b=_keys, extend=st.lists(_component, max_size=2).map(tuple),
       bound_a=st.booleans(), bound_b=st.booleans(),
       rids=st.tuples(st.integers(0, 1 << 40), st.integers(0, 1 << 40)))
def test_flat_key_orders_like_nested_pairs(a, b, extend, bound_a, bound_b, rids):
    """Random mixed-type keys, of equal arity, of different arity, and as
    prefixes of each other, with and without the inclusive range bound
    (``MAX_RID`` after the key), compare the same in both forms; and a
    B+tree entry, ``encode_key(key) + (rid,)``, sits on the same side of
    every bound as its key does."""
    same_arity = b[:len(a)] + a[len(b):]
    pairs = [(a, b), (a, same_arity), (a, a + extend), (a + extend, a)]
    for left, right in pairs:
        flat_left, flat_right = encode_key(left), encode_key(right)
        nested_left, nested_right = _nested(left), _nested(right)
        if bound_a:
            flat_left += (MAX_RID,)
            nested_left += ((MAX_RID,),)
        if bound_b:
            flat_right += (MAX_RID,)
            nested_right += ((MAX_RID,),)
        assert _order(flat_left, flat_right) == _order(nested_left, nested_right)
        assert (flat_left == flat_right) == (nested_left == nested_right)
    # Entries of one index (equal arity) order as (key, rid) pairs would.
    rid_a, rid_b = rids
    for rid_left, rid_right in ((rid_a, rid_b), (rid_b, rid_a), (rid_a, rid_a)):
        assert _order(encode_key(a) + (rid_left,),
                      encode_key(same_arity) + (rid_right,)) == _order(
            (_nested(a), rid_left), (_nested(same_arity), rid_right))
    # An entry against the bounds built from a key or key prefix.
    key = a + extend
    for prefix in (a, key, same_arity[:len(a)]):
        entry = encode_key(key) + (rid_a,)
        bound = encode_key(prefix)
        truncated = _nested(key)[:len(prefix)]
        assert (entry >= bound) == (_nested(key) >= _nested(prefix))
        assert (entry < bound) == (_nested(key) < _nested(prefix))
        assert (entry < bound + (MAX_RID,)) == (truncated <= _nested(prefix))
"""Total-order encoding of index keys.

SQL values of mixed types (and NULLs) are not comparable as raw Python
values, but B+tree entries must have a total order.  Every component is
therefore preceded by its type rank:

* NULL sorts first (rank 0; the value slot holds ``False``),
* booleans (rank 1),
* numbers (rank 2; int/float compare naturally),
* strings (rank 3),
* bytes (rank 4).

An encoded key is one flat tuple ``(rank0, value0, rank1, value1, ...)``.
Comparing two such tuples compares rank, then value, component by
component, so it orders exactly as a tuple of ``(rank, value)`` pairs
would -- prefixes before their extensions included -- with one tuple per
key instead of one per component.  A B+tree entry appends the rid to it
(``repro.index.btree``), and ``btree.MAX_RID`` after a key or key prefix
sorts above every entry that extends it: above any type rank here, and
above any rid.  ``BTreeNode.approx_size`` still charges each component as
a ``(rank, value)`` pair (one tuple header, 8 B, more than its two flat
slots), so the simulated size of an index entry does not depend on this
in-memory layout.

Encoding happens at the tree boundary only -- table rows and user-facing
keys stay raw.
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple

#: An encoded index key: ``(rank0, value0, rank1, value1, ...)``.
EncodedKey = Tuple[Any, ...]


def _rank(value: Any) -> int:
    """Type rank of a value that is not an exact ``int``, ``float``,
    ``str`` or ``None`` (bool before int: ``bool`` subclasses ``int``)."""
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 2
    if isinstance(value, str):
        return 3
    if isinstance(value, bytes):
        return 4
    raise TypeError(f"cannot index value of type {type(value).__name__}")


def encode_key(key: Iterable[Any]) -> EncodedKey:
    """Encode a whole index key (any iterable of its column values)."""
    # Keys are a few components long, so growing the tuple by
    # concatenation beats appending to a list and converting it.
    # Exact-class checks settle the overwhelmingly common scalar types
    # before the isinstance ladder.
    encoded: EncodedKey = ()
    for value in key:
        cls = value.__class__
        if cls is int or cls is float:
            encoded += (2, value)
        elif cls is str:
            encoded += (3, value)
        elif value is None:
            encoded += (0, False)
        else:
            encoded += (_rank(value), value)
    return encoded

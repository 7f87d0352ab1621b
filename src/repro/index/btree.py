"""A latch-free distributed B+tree stored in the shared record store.

Following Section 5.3, every tree node is one key-value pair in the
storage system, and all structural changes are installed with LL/SC
conditional writes -- no node is ever modified in place, so no latches
exist and system-wide progress is guaranteed (a failed conditional write
simply retries on the fresh copy).

The concrete design is a *B-link tree* (Lehman & Yao), the classic
latch-free-friendly B+tree variant the Bw-tree also builds on: every node
carries a ``high_key`` and a ``right_id`` sibling pointer, so a reader
that lands on a node that has since split simply follows the link
rightwards.  This makes half-finished splits harmless to concurrent
readers and writers on other processing nodes.

An index entry is one flat tuple: the components of its key (a tuple,
the same length for every key of one index), then the rid.  The rid
makes every entry unique even for non-unique secondary indexes, and --
as Section 5.3.2 prescribes -- entries carry *no versioning information*:
one entry per record, maintained only when the indexed key changes.
Entries order as ``(key, rid)`` pairs would, because all keys of one
index have the same length; a key alone (or a prefix of it) sorts before
every entry that extends it, and ``key + (MAX_RID,)`` after every one.

Caching (Section 5.3.1): inner nodes are cached on the processing node;
the node an operation reads or writes is always fetched from the store.
Every walk is one descent (:meth:`DistributedBTree._descend`) to a level:
when a fetched leaf does not cover the probed key (its range no longer
matches what the cached parent promised), the reader follows sibling
links for correctness and invalidates the cached ancestors so the next
traversal re-fetches them.  Every change to an existing node is one
conditional write (:meth:`DistributedBTree._install`).
"""

from __future__ import annotations

import bisect
import itertools
import operator
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro import effects
from repro.core.spaces import INDEX_SPACE, META_SPACE
from repro.errors import DuplicateKey, InvalidState
from repro.store.cell import approx_size

#: An entry ``key + (rid,)``; separators and high keys are entries too,
#: and a bound is a key or key prefix, optionally followed by MAX_RID.
EntryKey = Tuple[Any, ...]

#: Greater than any rid and any key component's type rank: ``prefix +
#: (MAX_RID,)`` sorts after every entry that extends ``prefix``, which
#: makes it the inclusive upper bound of a key or of a key prefix.
MAX_RID = float("inf")

#: Share of ``max_entries`` each node holds after :meth:`bulk_build`.
BULK_FILL = 0.75


class BTreeNode:
    """Immutable node: leaves hold entry keys, inner nodes separators."""

    __slots__ = ("node_id", "level", "entries", "children", "high_key",
                 "right_id", "_size")

    def __init__(
        self,
        node_id: int,
        level: int,
        entries: Tuple[EntryKey, ...],
        children: Optional[Tuple[int, ...]] = None,
        high_key: Optional[EntryKey] = None,
        right_id: Optional[int] = None,
    ):
        self.node_id = node_id
        self.level = level
        self.entries = entries
        self.children = children  # None for leaves; len(entries)+1 for inner
        self.high_key = high_key  # None means +infinity
        self.right_id = right_id
        self._size = -1

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def with_entries(
        self,
        entries: Tuple[EntryKey, ...],
        children: Optional[Tuple[int, ...]] = None,
    ) -> "BTreeNode":
        """This node with new content; id, level, high key and right
        link stay."""
        return BTreeNode(self.node_id, self.level, entries, children,
                         self.high_key, self.right_id)

    def covers(self, entry_key: EntryKey) -> bool:
        """Does this node's range still include ``entry_key``?"""
        return self.high_key is None or entry_key < self.high_key

    def child_for(self, entry_key: EntryKey) -> int:
        assert self.children is not None
        position = bisect.bisect_right(self.entries, entry_key)
        return self.children[position]

    def approx_size(self) -> int:
        # Estimated from the first entry: entries of one index are
        # homogeneous, and sizing is on the hot path of every node write.
        if self._size < 0:
            per_entry = 8
            if self.entries:
                first = self.entries[0]
                # Charged as a (key tuple, rid) pair, one tuple header
                # more than the flat entry, whose encoded key
                # (repro.sql.keyenc) has each (rank, value) component
                # charged as a pair: one more header per two slots.
                per_entry = approx_size(first) + 8 + 8 * ((len(first) - 1) >> 1)
            size = 24 + per_entry * len(self.entries)
            if self.children is not None:
                size += 8 * len(self.children)
            self._size = size
        return self._size

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"inner(l{self.level})"
        return f"<BTreeNode {self.node_id} {kind} {len(self.entries)} entries>"


class IndexCache:
    """PN-local cache of inner nodes: node_id -> (node, cell_version)."""

    def __init__(self) -> None:
        self._nodes: Dict[int, Tuple[BTreeNode, int]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, node_id: int) -> Optional[Tuple[BTreeNode, int]]:
        cached = self._nodes.get(node_id)
        if cached is not None:
            self.hits += 1
        return cached

    def put(self, node: BTreeNode, cell_version: int) -> None:
        if not node.is_leaf:  # leaves are never cached (Section 5.3.1)
            self._nodes[node.node_id] = (node, cell_version)

    def invalidate(self, node_id: int) -> None:
        self._nodes.pop(node_id, None)

    def clear(self) -> None:
        self._nodes.clear()


class BTreeStats:
    """Traversal / SMO accounting, harvested by ``repro.obs`` collectors.

    Plain integer counters so the hot path pays one increment; never read
    by the protocol itself.
    """

    __slots__ = ("node_fetches", "leaf_fetches", "smo_splits",
                 "smo_retries", "entries_pruned")

    def __init__(self) -> None:
        self.node_fetches = 0
        self.leaf_fetches = 0
        self.smo_splits = 0
        self.smo_retries = 0
        self.entries_pruned = 0


class DistributedBTree:
    """One index tree; instantiate per (index, processing node) pair.

    All PNs operating on the same ``index_id`` share the tree through the
    store; the object itself only holds the PN-local cache.
    """

    def __init__(self, index_id: int, max_entries: int = 64):
        if max_entries < 4:
            raise InvalidState("B+tree fanout must be at least 4")
        self.index_id = index_id
        self.max_entries = max_entries
        self.stats = BTreeStats()
        self.cache = IndexCache()
        # Cached root pointer (node_id, level).  A stale root is safe as a
        # descent entry point (inner nodes are never deleted and sibling
        # links cover splits); it is refreshed when staleness is detected.
        self._root_cache: Optional[Tuple[int, int]] = None

    # -- storage helpers -------------------------------------------------------

    def _node_key(self, node_id: int) -> Tuple[int, int]:
        return (self.index_id, node_id)

    def _root_key(self) -> Tuple[int, str]:
        return (self.index_id, "root")

    def _fetch(self, node_id: int) -> Generator:
        """Fetch a node from the store; returns (node, cell_version)."""
        value, version = yield effects.Get(INDEX_SPACE, self._node_key(node_id))
        if value is None:
            raise InvalidState(
                f"index {self.index_id}: node {node_id} vanished"
            )
        self.cache.misses += 1
        stats = self.stats
        stats.node_fetches += 1
        if value.is_leaf:
            stats.leaf_fetches += 1
        return value, version

    def _install(self, node: BTreeNode, version: int) -> Generator:
        """Conditionally replace the node's cell; True when the write won.

        The one way an existing node changes: a lost write means another
        PN changed the node since it was read, and the caller retries on
        the fresh copy.
        """
        ok, _ = yield effects.PutIfVersion(
            INDEX_SPACE, self._node_key(node.node_id), node, version
        )
        if ok:
            self.cache.invalidate(node.node_id)
        return ok

    def _new_node_ids(self, count: int = 1) -> Generator:
        """Allocate ``count`` consecutive node ids in one counter bump."""
        top = yield effects.Increment(
            META_SPACE, ("counter", ("index_node", self.index_id)), count
        )
        return range(top - count + 2, top + 2)  # id 1 is the initial root leaf

    # -- lifecycle -------------------------------------------------------------

    def create(self) -> Generator:
        """Initialize an empty tree (id 1 = empty root leaf).

        Safe to race: only the first creator's conditional writes win.
        """
        leaf = BTreeNode(1, 0, ())
        yield effects.PutIfVersion(INDEX_SPACE, self._node_key(1), leaf, 0)
        yield effects.PutIfVersion(INDEX_SPACE, self._root_key(), (1, 0), 0)

    def _root(self) -> Generator:
        if self._root_cache is not None:
            return self._root_cache
        value, _version = yield effects.Get(INDEX_SPACE, self._root_key())
        if value is None:
            raise InvalidState(f"index {self.index_id} does not exist")
        self._root_cache = value
        return value  # (root_node_id, root_level)

    # -- traversal ---------------------------------------------------------------

    def _descend(self, entry_key: EntryKey, level: int = 0) -> Generator:
        """Walk to the node at ``level`` whose range holds ``entry_key``.

        Returns ``(node, cell_version, path)`` where ``path[l]`` is the
        node id traversed at level ``l`` (split-insertion hints).  Nodes
        above ``level`` come through the PN cache; the node at ``level``
        is fetched, since a conditional write on it needs its cell
        version.  A leaf reached only through sibling links means the
        cached parents were stale: they are dropped so the next
        traversal re-fetches them (Section 5.3.1).
        """
        node_id, node_level = yield from self._root()
        path: Dict[int, int] = {}
        while True:
            node, version, moved = yield from self._move_right(
                node_id, entry_key, use_cache=node_level > level
            )
            path[node_level] = node.node_id
            if node_level == level:
                if moved and level == 0:
                    for parent_id in path.values():  # the leaf is never cached
                        self.cache.invalidate(parent_id)
                return node, version, path
            node_id = node.child_for(entry_key)
            node_level -= 1

    def _move_right(
        self, node_id: int, entry_key: EntryKey, use_cache: bool
    ) -> Generator:
        """Load ``node_id`` and follow right links until a node covers
        ``entry_key`` (B-link move-right).

        Returns ``(node, cell_version, moved)``.  With ``use_cache`` nodes
        come from the PN cache when present, and a cached node the walk
        passes over is dropped from it.
        """
        moved = False
        while True:
            cached = self.cache.get(node_id) if use_cache else None
            if cached is None:
                node, version = yield from self._fetch(node_id)
                if use_cache:
                    self.cache.put(node, version)
            else:
                node, version = cached
            if node.right_id is None or node.covers(entry_key):
                return node, version, moved
            if use_cache:
                self.cache.invalidate(node_id)
            node_id = node.right_id
            moved = True

    # -- lookups ---------------------------------------------------------------

    def lookup(self, key: EntryKey) -> Generator:
        """All rids indexed under ``key`` (non-unique aware)."""
        entries = yield from self.range_entries(key, key + (MAX_RID,))
        return [entry[-1] for entry in entries]

    def lookup_many(self, keys: List[EntryKey]) -> Generator:
        """Point lookups for several keys with batched leaf fetches.

        This is the index side of Tell's aggressive batching (Section
        5.1): inner nodes come from the PN cache, so the leaves for all
        probed keys are fetched in a single round trip.  Keys whose leaf
        cannot be predicted from the cache (cold cache, stale range) fall
        back to individual descents.  Returns ``{key: [rids]}``.
        """
        result: Dict[EntryKey, List[int]] = {}
        by_leaf: Dict[int, List[EntryKey]] = {}
        fallback: List[EntryKey] = []
        for key in keys:
            leaf_id = self._cached_leaf_for(key)
            if leaf_id is None:
                fallback.append(key)
            else:
                by_leaf.setdefault(leaf_id, []).append(key)
        if by_leaf:
            leaf_ids = list(by_leaf.keys())
            leaves, _versions = yield effects.multi_get(
                INDEX_SPACE, [self._node_key(lid) for lid in leaf_ids]
            )
            for leaf_id, leaf in zip(leaf_ids, leaves):
                for key in by_leaf[leaf_id]:
                    rids = None if leaf is None else self._rids_in_leaf(leaf, key)
                    if rids is None:
                        fallback.append(key)
                    else:
                        result[key] = rids
        for key in fallback:
            result[key] = yield from self.lookup(key)
        return result

    @staticmethod
    def _rids_in_leaf(leaf: BTreeNode, key: EntryKey) -> Optional[List[int]]:
        """The rids of ``key`` in ``leaf``, or None when the leaf alone
        cannot answer the lookup.

        It can when it covers every entry of ``key``: the key's upper
        bound is below the high key, and no entry of the key opens the
        leaf (the run could then start in a left sibling after a
        stale-cache descent).
        """
        if not leaf.is_leaf:
            return None
        high = key + (MAX_RID,)
        if leaf.high_key is not None and high >= leaf.high_key:
            return None
        entries = leaf.entries
        start = bisect.bisect_left(entries, key)
        stop = bisect.bisect_left(entries, high, start)
        if start == 0 and stop:
            return None  # run may extend into the left sibling
        return [entry[-1] for entry in entries[start:stop]]

    def _cached_leaf_for(self, entry_key: EntryKey) -> Optional[int]:
        """Predict the leaf for ``entry_key`` using only cached nodes."""
        if self._root_cache is None:
            return None
        node_id, level = self._root_cache
        while level > 0:
            cached = self.cache.get(node_id)
            if cached is None:
                return None
            node, _version = cached
            if not node.covers(entry_key):
                return None  # stale range: take the slow path
            node_id = node.child_for(entry_key)
            level = node.level - 1
        return node_id

    def range_entries(
        self,
        low: EntryKey,
        high: Optional[EntryKey],
        limit: Optional[int] = None,
    ) -> Generator:
        """Entries with ``low <= entry < high`` in order.

        ``high=None`` scans to the end of the index.
        """
        leaf, _version, _path = yield from self._descend(low)
        results: List[EntryKey] = []
        while True:
            entries = leaf.entries
            start = bisect.bisect_left(entries, low)
            stop = (len(entries) if high is None
                    else bisect.bisect_left(entries, high, start))
            results += entries[start:stop]
            if limit is not None and len(results) >= limit:
                del results[limit:]
                return results
            if stop < len(entries) or leaf.right_id is None:
                return results
            if high is not None and leaf.high_key is not None and leaf.high_key >= high:
                return results
            leaf, _version = yield from self._fetch(leaf.right_id)

    # -- insert -----------------------------------------------------------------

    def insert(
        self,
        key: EntryKey,
        rid: int,
        unique: Optional[Callable[[EntryKey, int], Generator]] = None,
    ) -> Generator:
        """Insert the entry ``key + (rid,)``.

        ``unique`` makes ``key`` unique: a coroutine function
        ``unique(key, other_rid)`` that returns whether an existing
        same-key entry is live.  The tree knows no versions (Section
        5.3.2) and entries outlive their rows, so the caller decides;
        a live entry raises :class:`DuplicateKey`.
        Returns False if the exact entry already existed.
        """
        entry = key + (rid,)
        while True:
            leaf, version, path = yield from self._descend(entry)
            entries = leaf.entries
            position = bisect.bisect_left(entries, entry)
            if position < len(entries) and entries[position] == entry:
                return False
            # Same-key entries are contiguous, so one would sit right
            # beside the insertion point -- or, when the leaf starts
            # there, in the left sibling's tail.  Below the entry, one
            # above ``key`` extends it; above, one below its bound.
            if unique is not None and (
                (position == 0 and entries)
                or (position > 0 and entries[position - 1] > key)
                or (position < len(entries)
                    and entries[position] < key + (MAX_RID,))
            ):
                for other in (yield from self.lookup(key)):
                    if (yield from unique(key, other)):
                        raise DuplicateKey(
                            f"index {self.index_id}: key {key!r} already present"
                        )
            entries = entries[:position] + (entry,) + entries[position:]
            if len(entries) > self.max_entries:
                if (yield from self._split(leaf, version, entries, path)):
                    return True
            elif (yield from self._install(leaf.with_entries(entries), version)):
                return True
            else:
                self.stats.smo_retries += 1  # raced: retry from a fresh descent

    def _split(
        self,
        node: BTreeNode,
        version: int,
        entries: Tuple[EntryKey, ...],
        path: Dict[int, int],
        children: Optional[Tuple[int, ...]] = None,
    ) -> Generator:
        """Split ``node``, whose new content ``entries`` (and, for an inner
        node, ``children``) overflows it, and hook the new right sibling
        into the parent level.

        Returns False when the conditional write of the left half lost a
        race (the caller retries the whole operation).
        """
        mid = len(entries) // 2
        split_key = entries[mid]
        (right_id,) = yield from self._new_node_ids()
        # An inner split moves the separator at ``mid`` up: it stays in
        # neither half.
        upper = mid if children is None else mid + 1
        right = BTreeNode(
            right_id, node.level, entries[upper:],
            None if children is None else children[upper:],
            node.high_key, node.right_id,
        )
        left = BTreeNode(
            node.node_id, node.level, entries[:mid],
            None if children is None else children[:upper],
            split_key, right_id,
        )
        yield effects.Put(INDEX_SPACE, self._node_key(right_id), right)
        if not (yield from self._install(left, version)):
            # Lost the race; the fresh right node is unreachable garbage.
            yield effects.Delete(INDEX_SPACE, self._node_key(right_id))
            self.stats.smo_retries += 1
            return False
        self.stats.smo_splits += 1
        yield from self._insert_separator(
            node.level + 1, split_key, right_id, path
        )
        return True

    def _insert_separator(
        self, level: int, split_key: EntryKey, child_id: int, path: Dict[int, int]
    ) -> Generator:
        """Install ``split_key -> child_id`` at ``level`` (growing the root
        if the tree is shorter than ``level``)."""
        while True:
            root_id, root_level = yield from self._root()
            if root_level < level:
                grown = yield from self._grow_root(
                    root_id, root_level, level, split_key, child_id
                )
                if grown:
                    return
                continue
            hint = path.get(level)
            if hint is None:
                node, version, _path = yield from self._descend(split_key, level)
            else:
                node, version, _moved = yield from self._move_right(
                    hint, split_key, use_cache=False
                )
                if node.level != level:
                    # Path hint was stale (e.g. root changed); re-resolve.
                    path.pop(level, None)
                    continue
            entries = node.entries
            position = bisect.bisect_left(entries, split_key)
            if position < len(entries) and entries[position] == split_key:
                return  # separator already installed by a helper
            entries = entries[:position] + (split_key,) + entries[position:]
            children = (
                node.children[: position + 1]
                + (child_id,)
                + node.children[position + 1:]
            )
            if len(entries) > self.max_entries:
                if (yield from self._split(node, version, entries, path, children)):
                    return
            elif (yield from self._install(
                node.with_entries(entries, children), version
            )):
                return

    def _grow_root(
        self,
        old_root_id: int,
        old_root_level: int,
        new_level: int,
        split_key: EntryKey,
        child_id: int,
    ) -> Generator:
        """Create a taller root; returns False when the root CAS lost."""
        (new_root_id,) = yield from self._new_node_ids()
        new_root = BTreeNode(
            new_root_id, new_level, (split_key,),
            children=(old_root_id, child_id),
        )
        yield effects.Put(INDEX_SPACE, self._node_key(new_root_id), new_root)
        current, root_version = yield effects.Get(INDEX_SPACE, self._root_key())
        if current != (old_root_id, old_root_level):
            self._root_cache = current  # our view was stale; adopt reality
            yield effects.Delete(INDEX_SPACE, self._node_key(new_root_id))
            return False
        ok, _ = yield effects.PutIfVersion(
            INDEX_SPACE, self._root_key(), (new_root_id, new_level), root_version
        )
        if ok:
            self._root_cache = (new_root_id, new_level)
        else:
            self._root_cache = None
            yield effects.Delete(INDEX_SPACE, self._node_key(new_root_id))
        return ok

    # -- delete ---------------------------------------------------------------

    def delete(self, key: EntryKey, rid: int) -> Generator:
        """Remove the entry ``key + (rid,)``; returns False if absent.

        Leaves may become empty; they are not merged (a simplification --
        the Bw-tree merges lazily, and empty leaves are harmless to
        correctness, only to space, which the paper's workloads never
        stressed).  A failed conditional write retries on the fresh copy,
        matching Section 5.4's "GC is retried with the next read".
        """
        entry = key + (rid,)
        while True:
            leaf, version, _path = yield from self._descend(entry)
            entries = leaf.entries
            position = bisect.bisect_left(entries, entry)
            if position >= len(entries) or entries[position] != entry:
                return False
            if (yield from self._install(
                leaf.with_entries(entries[:position] + entries[position + 1:]),
                version,
            )):
                self.stats.entries_pruned += 1
                return True

    # -- bulk loading ------------------------------------------------------------

    def bulk_build(self, entries: List[EntryKey]) -> Generator:
        """Build the tree bottom-up from sorted entries (initial load).

        Must only be used on an index no other node is accessing -- this
        is the database-population fast path, not a concurrent operation.
        ``(key, rid)`` pairs, told apart by the key tuple in their first
        slot (no key component is a tuple), are flattened first.  Nodes
        are filled to :data:`BULK_FILL`.  Returns the number of nodes
        written.
        """
        if entries and entries[0][0].__class__ is tuple:
            entries = [key + (rid,) for key, rid in entries]
        if any(map(operator.gt, entries, itertools.islice(entries, 1, None))):
            raise InvalidState("bulk_build requires sorted entries")
        per_node = max(4, int(self.max_entries * BULK_FILL))
        # Each level chunks the first keys of the level below.
        levels = [[
            tuple(entries[i : i + per_node])
            for i in range(0, len(entries), per_node)
        ] or [()]]
        while len(levels[-1]) > 1:
            firsts = [chunk[0] for chunk in levels[-1]]
            levels.append([
                tuple(firsts[i : i + per_node])
                for i in range(0, len(firsts), per_node)
            ])
        total = sum(len(chunks) for chunks in levels)
        ids = yield from self._new_node_ids(total)
        keys: List[Any] = []
        nodes: List[Any] = []
        below: Sequence[int] = ()
        for level, chunks in enumerate(levels):
            level_ids = ids[len(keys) : len(keys) + len(chunks)]
            for position, chunk in enumerate(chunks):
                last = position + 1 == len(chunks)
                high_key = None if last else chunks[position + 1][0]
                right_id = None if last else level_ids[position + 1]
                if level == 0:
                    node = BTreeNode(level_ids[position], 0, chunk,
                                     high_key=high_key, right_id=right_id)
                else:
                    # The first key of each child but the first separates.
                    first = position * per_node
                    node = BTreeNode(
                        level_ids[position], level, chunk[1:],
                        children=tuple(below[first : first + len(chunk)]),
                        high_key=high_key, right_id=right_id,
                    )
                keys.append(self._node_key(node.node_id))
                nodes.append(node)
            below = level_ids
        root = (ids[-1], len(levels) - 1)
        keys.append(self._root_key())
        nodes.append(root)
        chunk_size = 512
        for i in range(0, len(keys), chunk_size):
            yield effects.multi_put(INDEX_SPACE, keys[i : i + chunk_size],
                                    nodes[i : i + chunk_size])
        self._root_cache = root
        self.cache.clear()
        return total

    # -- whole-index iteration (for scans and verification) -----------------------

    def all_entries(self) -> Generator:
        """Every entry, left to right (used by tests and index rebuilds)."""
        root_id, root_level = yield from self._root()
        node_id = root_id
        level = root_level
        while level > 0:
            node, _version = yield from self._fetch(node_id)
            node_id = node.children[0]
            level = node.level - 1
        results: List[EntryKey] = []
        while node_id is not None:
            leaf, _version = yield from self._fetch(node_id)
            results.extend(leaf.entries)
            node_id = leaf.right_id
        return results

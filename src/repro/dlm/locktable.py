"""Interval-indexed lock tables for the lock server and the client cache.

Every lock request asks the same questions of a resource's granted
locks: which of them overlap these extents and conflict with this mode
(conflicts, upgrade blockers, the mSN, the early-grant check), and where
does the nearest conflicting lock start beyond the request (range
expansion).  The client asks which cached lock covers an extent.  A
linear scan answers each in O(table); under the paper's contended
patterns the tables hold thousands of locks and the scans made the grant
path quadratic in the number of writes.

Both tables index their locks' extents in **buckets** keyed by
``(group, length class)``, each bucket sorted by start:

* an extent of length ``n`` has class ``c = n.bit_length()``, so every
  length in a bucket is below ``width = 2**c``.  An extent of that
  bucket ending after ``b0`` must start after ``b0 - width``, so a query
  costs one bisected slice per bucket, whose only false positives are
  the bucket's shorter members.  EOF-expanded locks share the top class;
  class 0 holds zero-length extents, which overlap nothing but still cap
  range expansion;
* ``group`` is the lock's (mode, state) code on the server, so a query
  visits only the groups its compatibility mask flags; the client uses
  group 0;
* a bucket is ``[width, starts, items]`` with ``items[k] = (end, seq,
  lock)`` for the extent starting at ``starts[k]``.  A multi-extent
  (datatype) lock has one entry per extent.

Results come back in **insertion order**, the order the old linear scans
walked: each lock carries the sequence number of its insertion, and a
query collects ``seq -> lock`` and sorts by ``seq``.  The server sends
revocations in conflict order, and that order feeds simulated event
order, so this is what keeps every run byte-identical to the scans.

* :class:`LockTable` is the server's ``lock_id -> ServerLock`` mapping.
  It is a ``dict`` (plain reads, ``len`` and iteration stay C-speed)
  whose mutators maintain the index.  Mode and state changes of a stored
  lock go through :meth:`LockTable.set_mode_state`.  Replacing an
  existing ``lock_id`` keeps its position and its ``seq``, as a ``dict``
  keeps the key's position.
* :class:`CachedLocks` is a client's insertion-ordered, identity-keyed
  set of cached locks for one resource.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.dlm.extent import EOF
from repro.dlm.types import LockMode, LockState

__all__ = ["LockTable", "LockCounter", "CachedLocks", "group_mask"]

#: Bucket keys are ``group << _CLASS_BITS | length class``.
_CLASS_BITS = 7
_CLASS_MASK = (1 << _CLASS_BITS) - 1


def group_mask(pred) -> Tuple[bool, ...]:
    """Flags indexed by group code (``mode.code * 2 + state.code``):
    ``pred(mode, state)`` for every (mode, state) pair."""
    mask = [False] * (len(LockMode) * len(LockState))
    for mode in LockMode:
        for state in LockState:
            mask[mode.code * 2 + state.code] = bool(pred(mode, state))
    return tuple(mask)


def _index_add(buckets: Dict[int, list], lock, seq: int, group: int) -> None:
    extents = lock.extents
    for s, e in extents:
        if e < s:
            raise ValueError(f"inverted extent {(s, e)} in lock "
                             f"{getattr(lock, 'lock_id', lock)!r}")
    for s, e in extents:
        c = (e - s).bit_length()
        key = group << _CLASS_BITS | c
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = [1 << c, [], []]
        starts = bucket[1]
        i = bisect_right(starts, s)
        starts.insert(i, s)
        bucket[2].insert(i, (e, seq, lock))


def _index_discard(buckets: Dict[int, list], lock, group: int) -> None:
    for s, e in lock.extents:
        key = group << _CLASS_BITS | (e - s).bit_length()
        _width, starts, items = buckets[key]
        i = bisect_left(starts, s)
        while items[i][2] is not lock:
            i += 1
        del starts[i]
        del items[i]
        if not starts:
            del buckets[key]


class LockCounter:
    """Running number of locks across every table that shares it."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class LockTable(dict):
    """``lock_id -> ServerLock`` with an extent index grouped by (mode,
    state).

    Item assignment, ``del``, :meth:`pop` and :meth:`clear` maintain the
    index (and the optional shared :class:`LockCounter`); the other
    ``dict`` mutators are refused.  Query results are in table order.
    """

    __slots__ = ("_buckets", "_where", "_next_seq", "counter")

    def __init__(self, counter: Optional[LockCounter] = None) -> None:
        super().__init__()
        self._buckets: Dict[int, list] = {}
        #: lock_id -> (seq, group code) of the stored lock.
        self._where: Dict[int, Tuple[int, int]] = {}
        self._next_seq = 0
        self.counter = counter

    # ---------------------------------------------------------- mutation
    def __setitem__(self, lock_id, lock) -> None:
        where = self._where.get(lock_id)
        seq = self._next_seq if where is None else where[0]
        code = lock.mode.code * 2 + lock.state.code
        _index_add(self._buckets, lock, seq, code)  # raises before any change
        if where is None:
            self._next_seq = seq + 1
            if self.counter is not None:
                self.counter.value += 1
        else:
            # Replacing a key keeps its position, so the new lock keeps
            # the old one's seq.
            _index_discard(self._buckets, dict.__getitem__(self, lock_id),
                           where[1])
        self._where[lock_id] = (seq, code)
        dict.__setitem__(self, lock_id, lock)

    def __delitem__(self, lock_id) -> None:
        lock = dict.pop(self, lock_id)
        _index_discard(self._buckets, lock, self._where.pop(lock_id)[1])
        if self.counter is not None:
            self.counter.value -= 1

    _MISSING = object()

    def pop(self, lock_id, default=_MISSING):
        lock = dict.get(self, lock_id, self._MISSING)
        if lock is self._MISSING:
            if default is self._MISSING:
                raise KeyError(lock_id)
            return default
        del self[lock_id]
        return lock

    def clear(self) -> None:
        if self.counter is not None:
            self.counter.value -= len(self)
        dict.clear(self)
        self._buckets.clear()
        self._where.clear()

    def _refuse(self, *args, **kwargs):
        raise TypeError("LockTable supports item assignment, del, pop "
                        "and clear only")

    popitem = setdefault = update = __ior__ = _refuse

    def set_mode_state(self, lock, mode: LockMode, state: LockState) -> None:
        """Change a stored lock's mode and state (revoke ack, downgrade),
        moving it between groups without changing its position."""
        seq, code = self._where[lock.lock_id]
        _index_discard(self._buckets, lock, code)
        lock.mode = mode
        lock.state = state
        code = mode.code * 2 + state.code
        _index_add(self._buckets, lock, seq, code)
        self._where[lock.lock_id] = (seq, code)

    # ----------------------------------------------------------- queries
    def overlapping(self, extents: Sequence[Tuple[int, int]],
                    mask: Sequence[bool]) -> list:
        """Locks of the groups flagged in ``mask`` sharing a byte with
        any of ``extents``, in table order."""
        hits: dict = {}
        for b0, b1 in extents:
            if b0 >= b1:
                continue  # an empty extent overlaps nothing
            for key, (width, starts, items) in self._buckets.items():
                if key & _CLASS_MASK and mask[key >> _CLASS_BITS]:
                    i = bisect_right(starts, b0 - width)
                    for k in range(i, bisect_left(starts, b1, i)):
                        e, seq, lock = items[k]
                        if e > b0:
                            hits[seq] = lock
        if not hits:
            return []
        if len(hits) == 1:
            return [*hits.values()]
        return [hits[seq] for seq in sorted(hits)]

    def overlaps_any(self, extents: Sequence[Tuple[int, int]],
                     mask: Sequence[bool]) -> bool:
        """Whether :meth:`overlapping` would return anything (stops at
        the first hit: a chain of EOF-expanded locks can be long)."""
        for b0, b1 in extents:
            if b0 >= b1:
                continue
            for key, (width, starts, items) in self._buckets.items():
                if key & _CLASS_MASK and mask[key >> _CLASS_BITS]:
                    i = bisect_right(starts, b0 - width)
                    for k in range(i, bisect_left(starts, b1, i)):
                        if items[k][0] > b0:
                            return True
        return False

    def expansion_bound(self, start: int, end: int,
                        mask: Sequence[bool]) -> Optional[int]:
        """The range-expansion scan of a request ``[start, end)`` over
        the flagged groups: None when some extent has ``s < end and e >
        start`` (zero-length ones included; the request cannot grow),
        else the smallest extent start ``>= end`` (``EOF`` when there is
        none)."""
        bound = EOF
        for key, (width, starts, items) in self._buckets.items():
            if not mask[key >> _CLASS_BITS]:
                continue
            j = bisect_left(starts, end)
            for k in range(bisect_right(starts, start - width), j):
                if items[k][0] > start:
                    return None
            if j < len(starts) and starts[j] < bound:
                bound = starts[j]
        return bound


class CachedLocks:
    """A client's cached locks for one resource: an insertion-ordered,
    identity-keyed set with an extent index for cover lookups."""

    __slots__ = ("_seqs", "_buckets", "_next_seq")

    def __init__(self) -> None:
        self._seqs: Dict[object, int] = {}
        self._buckets: Dict[int, list] = {}
        self._next_seq = 0

    def __iter__(self) -> Iterator:
        return iter(self._seqs)

    def append(self, lock) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        self._seqs[lock] = seq
        _index_add(self._buckets, lock, seq, 0)

    def discard(self, lock) -> None:
        if self._seqs.pop(lock, None) is not None:
            _index_discard(self._buckets, lock, 0)

    def covering(self, extents: Sequence[Tuple[int, int]]) -> list:
        """Cached locks whose extents cover every one of ``extents``, in
        insertion order."""
        if not extents:
            return list(self._seqs)
        # Candidates: an extent containing the first requested one.  An
        # extent of a bucket of width ``width`` reaching ``e`` starts
        # after ``e - width``.
        s, e = extents[0]
        hits: dict = {}
        for width, starts, items in self._buckets.values():
            i = bisect_right(starts, e - width)
            for k in range(i, bisect_right(starts, s, i)):
                end, seq, lock = items[k]
                if end >= e:
                    hits[seq] = lock
        if not hits:
            return []
        if len(hits) == 1:
            locks = [*hits.values()]
        else:
            locks = [hits[seq] for seq in sorted(hits)]
        if len(extents) > 1:
            locks = [cl for cl in locks if cl.covers(extents)]
        return locks

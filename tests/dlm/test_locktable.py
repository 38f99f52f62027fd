"""Interval-indexed lock tables vs the linear scans they replaced.

Hypothesis builds random lock tables through the same mutations the
protocol performs — grants (multi-extent datatype locks, zero-length
extents, EOF-expanded ranges), releases, revoke acks and downgrades,
upgrades that absorb a client's locks, and recovery reinstalls that
overwrite an existing ``lock_id`` (which keeps its dict position) — and
checks every indexed query against ``tests/dlm/reference_scans.py``,
result order included.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dlm import EOF, LockMode, LockState
from repro.dlm.client import ClientLock
from repro.dlm.locktable import CachedLocks, LockCounter, LockTable
from repro.dlm.messages import LockRequestMsg, LockStateRecord, MsnQueryMsg
from repro.dlm.server import ServerLock, _Pending
from repro.dlm.types import severity_lub
from tests.dlm import reference_scans as ref
from tests.dlm.test_protocol import Rig

MODES = list(LockMode)
STATES = list(LockState)
CLIENTS = ("a", "b", "c")
DLMS = ("seqdlm", "dlm-basic", "dlm-lustre", "dlm-datatype")

coord = st.integers(0, 48)
extent = st.one_of(
    st.tuples(coord, coord).map(lambda t: (min(t), max(t))),
    st.tuples(coord, coord).map(lambda t: (t[0], t[0])),  # zero-length
    coord.map(lambda s: (s, EOF)),                        # EOF-expanded
)
extents_st = st.lists(extent, min_size=1, max_size=3).map(tuple)
pick = st.integers(0, 1 << 16)

ops_st = st.lists(st.one_of(
    st.tuples(st.just("grant"), st.sampled_from(CLIENTS),
              st.sampled_from(MODES), st.sampled_from(STATES), extents_st,
              st.booleans()),
    st.tuples(st.just("release"), pick),
    st.tuples(st.just("revoke_ack"), pick),
    st.tuples(st.just("downgrade"), pick, st.sampled_from(MODES)),
    st.tuples(st.just("upgrade"), pick, st.integers(1, 3)),
    st.tuples(st.just("reinstall"), pick, st.sampled_from(MODES),
              st.sampled_from(STATES), extents_st),
    st.tuples(st.just("pop_missing")),
), min_size=1, max_size=45)

request_st = st.tuples(st.sampled_from(CLIENTS), st.sampled_from(MODES),
                       extents_st)


class _Reply:
    def respond(self, value, nbytes=0):
        self.value = value


class Model:
    """A server resource driven through the table API, mirrored by a
    plain dict that defines the expected order."""

    def __init__(self, dlm):
        self.rig = Rig(dlm=dlm, clients=1)
        self.server = self.rig.server
        self.res = self.server._res("r")
        self.res.next_sn = 1000
        self.mirror = {}
        self.next_id = 1

    def _nth(self, k):
        ids = list(self.mirror)
        return ids[k % len(ids)] if ids else None

    def apply(self, op):
        kind, *args = op
        table, mirror = self.res.granted, self.mirror
        if kind == "grant":
            client, mode, state, extents, revoke_sent = args
            lock = ServerLock(self.next_id, "r", client, mode, extents,
                              self.next_id % 997, state,
                              revoke_sent=revoke_sent)
            table[lock.lock_id] = mirror[lock.lock_id] = lock
            self.next_id += 1
            return
        if kind == "pop_missing":
            assert table.pop(-1, None) is None
            return
        lock_id = self._nth(args[0])
        if lock_id is None:
            return
        lock = mirror[lock_id]
        if kind == "release":
            assert table.pop(lock_id) is lock
            del mirror[lock_id]
        elif kind == "revoke_ack":
            table.set_mode_state(lock, lock.mode, LockState.CANCELING)
        elif kind == "downgrade":
            table.set_mode_state(lock, args[1], lock.state)
        elif kind == "upgrade":
            # _grant's absorb: drop up to n of the client's locks and
            # insert one merged lock over their union.
            absorb = [g for g in mirror.values()
                      if g.client_name == lock.client_name][:args[1]]
            mode = absorb[0].mode
            for g in absorb:
                mode = severity_lub(mode, g.mode)
                del table[g.lock_id]
                del mirror[g.lock_id]
            lo = min(s for g in absorb for s, _e in g.extents)
            hi = max(e for g in absorb for _s, e in g.extents)
            merged = ServerLock(self.next_id, "r", lock.client_name, mode,
                                ((lo, hi),), self.next_id % 997)
            table[merged.lock_id] = mirror[merged.lock_id] = merged
            self.next_id += 1
        elif kind == "reinstall":
            # §IV-C2 recovery path: a re-asserted record replaces the
            # stored lock under the same id, in the same position.
            mode, state, extents = args[1:]
            self.server._on_recover_lock(LockStateRecord(
                lock_id=lock_id, resource_id="r", mode=mode,
                extents=extents, sn=lock.sn, state=state,
                client_name=lock.client_name))
            mirror[lock_id] = table[lock_id]
            assert mirror[lock_id] is not lock
        else:  # pragma: no cover
            raise AssertionError(kind)

    def check(self, client, mode, extents, queue=()):
        server, res = self.server, self.res
        locks = list(self.mirror.values())
        assert list(res.granted) == list(self.mirror)
        assert all(a is b for a, b in zip(res.granted.values(), locks))
        assert server.lock_table_size == len(locks)
        lcm = server.config.lcm
        msg = LockRequestMsg(resource_id="r", mode=mode, extents=extents,
                             client_name=client, incarnation=1)

        want = ref.conflicts(locks, lcm, mode, extents)
        got = server._conflicts(res, msg)
        assert _ids(got) == _ids(want)

        want_abs, want_blk = ref.upgrade_set(locks, lcm, msg, want)
        got_abs, got_blk = server._upgrade_set(res, msg, want)
        assert (_ids(got_abs), _ids(got_blk)) == \
            (_ids(want_abs), _ids(want_blk))

        res.queue.extend(_Pending(LockRequestMsg(
            resource_id="r", mode=m, extents=e, client_name=c), None, 0.0)
            for c, m, e in queue)
        try:
            for m in {mode, LockMode.PW}:
                assert server._expand(res, msg, m, extents) == \
                    ref.expand(locks, res.queue, server.config, msg, m,
                               extents)
        finally:
            res.queue.clear()

        reply = _Reply()
        server._on_msn_query(MsnQueryMsg("r", extents), reply)
        assert reply.value == ref.msn(locks, extents, res.next_sn)

        assert server._is_early_grant(res, mode, extents) == \
            ref.early_grant(locks, mode, extents)


def _ids(locks):
    return None if locks is None else [id(g) for g in locks]


@pytest.mark.parametrize("dlm", DLMS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_st, requests=st.lists(request_st, min_size=1, max_size=4),
       queue=st.lists(request_st, max_size=2))
def test_server_queries_match_linear_scans(dlm, ops, requests, queue):
    model = Model(dlm)
    for i, op in enumerate(ops):
        model.apply(op)
        client, mode, extents = requests[i % len(requests)]
        model.check(client, mode, extents, queue)


def test_lustre_cap_engages_on_a_large_table():
    """The Lustre cap only applies above LUSTRE_LOCK_COUNT_TRIGGER locks;
    make sure the differential check covers it at least once."""
    model = Model("dlm-lustre")
    for i in range(40):
        model.apply(("grant", "b", LockMode.PR, LockState.GRANTED,
                     ((i * 10, i * 10 + 5),), False))
    model.check("a", LockMode.PW, ((1000, 1010),))
    model.check("a", LockMode.PR, ((1000, 1010),))


# ------------------------------------------------------------- the client
client_ops_st = st.lists(st.one_of(
    st.tuples(st.just("cache"), st.sampled_from(MODES),
              st.sampled_from(STATES), extents_st),
    st.tuples(st.just("forget"), pick),
    st.tuples(st.just("revoke"), pick),
    st.tuples(st.just("cancel"), pick),
    st.tuples(st.just("downgrade"), pick, st.sampled_from(MODES)),
), min_size=1, max_size=30)


@settings(max_examples=150, deadline=None)
@given(ops=client_ops_st, requests=st.lists(
    st.tuples(st.sampled_from(MODES), extents_st), min_size=1, max_size=4))
def test_client_picks_first_matching_cached_lock(ops, requests):
    rig = Rig(dlm="seqdlm", clients=1)
    client = rig.clients[0]
    cached = client._cache["r"] = CachedLocks()
    mirror = []
    for i, op in enumerate(ops):
        kind, *args = op
        if kind == "cache":
            mode, state, extents = args
            lock = ClientLock(i, "r", mode, extents, i, state)
            cached.append(lock)
            mirror.append(lock)
        elif mirror:
            lock = mirror[args[0] % len(mirror)]
            if kind == "forget":
                cached.discard(lock)
                mirror.remove(lock)
            elif kind == "revoke":
                lock.state = LockState.CANCELING
            elif kind == "cancel":
                lock.cancel_started = True
            else:
                lock.mode = args[1]
        assert list(cached) == mirror
        mode, extents = requests[i % len(requests)]
        want = ref.cache_lookup(mirror, extents, mode)
        got = client._cache_lookup("r", extents, mode)
        assert got is want


# --------------------------------------------------------- table plumbing
def test_lock_table_counts_and_refuses_unindexed_mutators():
    counter = LockCounter()
    a, b = LockTable(counter), LockTable(counter)
    lock = ServerLock(1, "r", "x", LockMode.NBW, ((0, 10),), 1)
    a[1] = lock
    b[1] = ServerLock(1, "s", "x", LockMode.PR, ((0, 10),), 1)
    b[2] = ServerLock(2, "s", "x", LockMode.PR, ((5, 10),), 1)
    a[1] = ServerLock(1, "r", "x", LockMode.PW, ((0, 20),), 1)  # replace
    assert counter.value == 3
    del b[2]
    assert b.pop(7, "gone") == "gone"
    with pytest.raises(KeyError):
        b.pop(7)
    with pytest.raises(KeyError):
        del b[7]
    assert counter.value == 2
    a.clear()
    assert counter.value == 1 and not a
    for mutate in (lambda: b.update({}), lambda: b.setdefault(3, lock),
                   lambda: b.popitem()):
        with pytest.raises(TypeError):
            mutate()
    with pytest.raises(ValueError, match="inverted"):
        a[5] = ServerLock(5, "r", "x", LockMode.NBW, ((10, 0),), 1)
    assert 5 not in a and counter.value == 1


def test_locks_compare_by_identity():
    a = ServerLock(1, "r", "x", LockMode.NBW, ((0, 10),), 1)
    b = ServerLock(1, "r", "x", LockMode.NBW, ((0, 10),), 1)
    assert a != b and a == a and len({a, b}) == 2
    ca = ClientLock(1, "r", LockMode.NBW, ((0, 10),), 1, LockState.GRANTED)
    cb = ClientLock(1, "r", LockMode.NBW, ((0, 10),), 1, LockState.GRANTED)
    locks = CachedLocks()
    locks.append(ca)
    locks.discard(cb)  # equal fields, different lock: not removed
    assert list(locks) == [ca]


def test_lock_table_size_is_tracked_across_resources_and_resets():
    rig = Rig(dlm="seqdlm", clients=1)
    server = rig.server
    for rid in ("r", "s", "t"):
        res = server._res(rid)
        for i in range(3):
            res.granted[i] = ServerLock(i, rid, "x", LockMode.PR,
                                        ((i, i + 1),), 1)
    del server._res("s").granted[0]
    assert server.lock_table_size == 8 == sum(
        len(res.granted) for res in server._resources.values())
    server.reset_state()
    assert server.lock_table_size == 0
    server._res("r").granted[1] = ServerLock(1, "r", "x", LockMode.PR,
                                             ((0, 1),), 1)
    assert server.lock_table_size == 1

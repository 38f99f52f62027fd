"""Linear-scan reference for the lock-table queries (test-only).

These are the scans the lock server and the lock client ran over every
granted/cached lock before the tables were interval-indexed
(:mod:`repro.dlm.locktable`).  They define the expected answers,
*including order*, for the differential test in
``tests/dlm/test_locktable.py``.  ``locks`` is always the table's locks
in table order (``list(res.granted.values())`` or a client's cache).
"""

from repro.dlm.config import (
    LUSTRE_EXPANSION_CAP,
    LUSTRE_LOCK_COUNT_TRIGGER,
    ExpansionPolicy,
)
from repro.dlm.extent import EOF
from repro.dlm.types import (
    LockMode,
    LockState,
    can_satisfy,
    is_write_mode,
    severity_lub,
)


def conflicts(locks, lcm, mode, extents):
    """``LockServer._conflicts``: overlapping locks the mode conflicts
    with, in table order."""
    if len(extents) == 1:
        b0, b1 = extents[0]
        if b0 < b1:
            out = []
            for g in locks:
                mine = g.extents
                if len(mine) == 1:
                    a0, a1 = mine[0]
                    if not (a0 < b1 and b0 < a1 and a0 < a1):
                        continue
                elif not g.overlaps_extents(extents):
                    continue
                if not lcm(mode, g.mode, g.state):
                    out.append(g)
            return out
    return [g for g in locks
            if g.overlaps_extents(extents)
            and not lcm(mode, g.mode, g.state)]


def _absorbable(g, client_name):
    return (g.client_name == client_name
            and g.state is LockState.GRANTED and not g.revoke_sent)


def upgrade_set(locks, lcm, msg, conflicting):
    """``LockServer._upgrade_set``: ``(absorb or None, blockers)``."""
    absorb = list(conflicting)
    mode = msg.mode
    for c in absorb:
        mode = severity_lub(mode, c.mode)
    while True:
        lo = min([s for s, _e in msg.extents]
                 + [s for c in absorb for s, _e in c.extents])
        hi = max([e for _s, e in msg.extents]
                 + [e for c in absorb for _s, e in c.extents])
        blockers = []
        grew = False
        for g in locks:
            if g in absorb:
                continue
            if not g.overlaps_extents(((lo, hi),)):
                continue
            if lcm(mode, g.mode, g.state):
                continue
            if _absorbable(g, msg.client_name):
                absorb.append(g)
                mode = severity_lub(mode, g.mode)
                grew = True
                break
            blockers.append(g)
        if grew:
            continue
        if blockers:
            return None, blockers
        return absorb, []


def expand(locks, queue, config, msg, mode, extents):
    """``LockServer._expand``: ``(extents, expanded)``."""
    policy = config.expansion
    if policy is ExpansionPolicy.NONE or len(extents) != 1:
        return extents, False
    start, end = extents[0]
    if end >= EOF:
        return extents, False
    lcm = config.lcm
    bound = EOF
    for g in locks:
        mine = g.extents
        if len(mine) == 1:
            gs, ge = mine[0]
            if ge <= start and gs < end:
                continue
        if lcm(mode, g.mode, g.state):
            continue
        for (gs, ge) in g.extents:
            if gs >= end:
                bound = min(bound, gs)
            elif ge > start:
                return extents, False
    for other in queue:
        om = other.msg
        if om is msg or om.client_name == msg.client_name:
            continue
        if lcm(mode, om.mode, LockState.GRANTED) and \
                lcm(om.mode, mode, LockState.GRANTED):
            continue
        for (os_, oe) in om.extents:
            if os_ >= end:
                bound = min(bound, os_)
            elif oe > start:
                return extents, False
    if policy is ExpansionPolicy.LUSTRE and \
            len(locks) > LUSTRE_LOCK_COUNT_TRIGGER:
        bound = min(bound, end + LUSTRE_EXPANSION_CAP)
    if bound <= end:
        return extents, False
    return ((start, bound),), True


def msn(locks, extents, next_sn):
    """``LockServer._on_msn_query``'s answer."""
    sns = [g.sn for g in locks
           if is_write_mode(g.mode) and g.overlaps_extents(extents)]
    return min(sns) - 1 if sns else next_sn - 1


def early_grant(locks, mode, extents):
    """The early-grant accounting test in ``LockServer._grant``."""
    return is_write_mode(mode) and any(
        g.state is LockState.CANCELING and g.mode is LockMode.NBW
        and g.overlaps_extents(extents)
        for g in locks)


def cache_lookup(locks, extents, mode):
    """``LockClient._cache_lookup``'s choice (without the refcount)."""
    for cl in locks:
        if (cl.state is LockState.GRANTED and not cl.cancel_started
                and can_satisfy(cl.mode, mode) and cl.covers(extents)):
            return cl
    return None

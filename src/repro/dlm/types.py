"""Lock modes, states, and the Fig. 9 severity lattice.

SeqDLM keeps the traditional read lock (PR) and splits the traditional
write lock into three modes (§III-C):

* ``NBW`` — non-blocking write: write-only, relinquishes the blocking
  feature; eligible for early grant / early revocation.
* ``BW``  — blocking write: write-only but keeps the blocking feature;
  used for atomic writes spanning multiple lock resources (§III-B1).
* ``PW``  — protective write: read+write, identical to the traditional
  write lock; used for atomic read-update operations (§III-B2).

The traditional DLM variants use only ``PR``/``PW`` (the paper states PW
"has the same semantics as the traditional write lock"), which lets one
implementation serve all four DLMs.

Severity (Fig. 9) is a lattice, not a chain: ``NBW < BW < PW`` and
``PR < PW``, with PR incomparable to NBW/BW (a write-only lock can never
stand in for a read lock and vice versa).
"""

from __future__ import annotations

import enum
from typing import Optional

__all__ = ["LockMode", "LockState", "severity_lub", "can_satisfy",
           "is_write_mode", "allows_read", "allows_write"]


class LockMode(enum.Enum):
    """The four SeqDLM lock modes (Table II order)."""

    PR = "PR"    # protective read (traditional read lock)
    NBW = "NBW"  # non-blocking write
    BW = "BW"    # blocking write
    PW = "PW"    # protective write (traditional write lock)

    def __repr__(self) -> str:
        return self.value


class LockState(enum.Enum):
    """Server/client-visible state of a granted lock (§III-A2)."""

    #: Cacheable and reusable by the holder.
    GRANTED = "GRANTED"
    #: Must not be reused; cancel (flush + release) after current use.
    CANCELING = "CANCELING"

    def __repr__(self) -> str:
        return self.value


# Small-int codes (``LockMode.PR.code == 0`` ... in Table II order):
# lock tables group locks by (mode, state) with plain ints, because
# hashing an Enum member runs Python-level ``Enum.__hash__``.
for _code, _member in enumerate(LockMode):
    _member.code = _code
for _code, _member in enumerate(LockState):
    _member.code = _code
del _code, _member


def is_write_mode(mode: LockMode) -> bool:
    return mode is not LockMode.PR


def allows_read(mode: LockMode) -> bool:
    """May the holder *read* the resource under this mode?"""
    return mode in (LockMode.PR, LockMode.PW)


def allows_write(mode: LockMode) -> bool:
    """May the holder *write* the resource under this mode?"""
    return mode is not LockMode.PR


#: Fig. 9 severity ranks used for upgrade decisions.  PR and NBW/BW are
#: incomparable; ranks alone are not enough — see :func:`severity_lub`.
_RANK = {LockMode.NBW: 0, LockMode.BW: 1, LockMode.PR: 1, LockMode.PW: 2}

#: Upward closure in the lattice (which modes each mode can upgrade to).
_UPGRADES = {
    LockMode.NBW: (LockMode.NBW, LockMode.BW, LockMode.PW),
    LockMode.BW: (LockMode.BW, LockMode.PW),
    LockMode.PR: (LockMode.PR, LockMode.PW),
    LockMode.PW: (LockMode.PW,),
}


def severity_lub(a: LockMode, b: LockMode) -> LockMode:
    """Least restrictive mode that can stand in for both ``a`` and ``b``.

    This drives lock upgrading (§III-D1): when a request conflicts only
    with a lock from the same client, the server grants
    ``severity_lub(request.mode, granted.mode)`` instead.
    """
    if a is b:
        return a
    common = [m for m in _UPGRADES[a] if m in _UPGRADES[b]]
    # The lattice guarantees PW is always common; pick the lowest rank.
    return min(common, key=lambda m: _RANK[m])


def can_satisfy(cached: LockMode, needed: LockMode) -> bool:
    """May a cached lock of mode ``cached`` be reused for an operation
    that needs ``needed``?  True iff ``cached`` is at or above ``needed``
    in the severity lattice (Fig. 9)."""
    return cached in _UPGRADES[needed]


def parse_mode(name: str) -> Optional[LockMode]:
    """Lenient mode lookup used by configuration code."""
    try:
        return LockMode[name.upper()]
    except KeyError:
        return None

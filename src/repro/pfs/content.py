"""Payload content-tracking modes for the data path.

The data path can store every written byte for real (needed by the §V-B
data-safety experiments) or keep no content at all (pure-performance
runs).  Full tracking costs a numpy buffer copy per cached/stored slice
plus the buffers themselves, which dominates paper-scale sweeps that
never read the bytes back.

This module makes the choice tri-state:

``"full"``
    Real bytes in the client page cache and data-server block store;
    reads return actual content and verify oracles work.

``"checksum"``
    No byte buffers anywhere.  Instead every write folds its update set
    — ``(start, end, sn)`` per surviving slice, plus a CRC32 of the
    payload slice when the caller provided bytes — into a rolling CRC32
    per stripe.  Two runs that claim to be equivalent must produce
    identical digests, which turns the digest into a cheap cross-run /
    cross-implementation integrity oracle at near-``"off"`` speed.
    Reads return ``None`` exactly as in ``"off"`` mode.

``"off"``
    Extent/SN bookkeeping only (sizes are still tracked).

``resolve_content_mode`` maps an unset mode to ``"full"`` and rejects
anything else outside :data:`CONTENT_MODES`.
"""

from __future__ import annotations

import zlib
from typing import Optional

__all__ = [
    "CONTENT_FULL",
    "CONTENT_CHECKSUM",
    "CONTENT_OFF",
    "CONTENT_MODES",
    "resolve_content_mode",
    "fold_update",
    "payload_crc",
]

CONTENT_FULL = "full"
CONTENT_CHECKSUM = "checksum"
CONTENT_OFF = "off"
CONTENT_MODES = (CONTENT_FULL, CONTENT_CHECKSUM, CONTENT_OFF)


def resolve_content_mode(content_mode: Optional[str] = None) -> str:
    """Validate ``content_mode``; ``None`` means ``"full"``."""
    if content_mode is None:
        return CONTENT_FULL
    if content_mode not in CONTENT_MODES:
        raise ValueError(
            f"content_mode must be one of {CONTENT_MODES}, "
            f"got {content_mode!r}")
    return content_mode


def fold_update(crc: int, start: int, end: int, sn: int,
                data_crc: int = 0) -> int:
    """Fold one surviving update slice into a rolling stripe digest."""
    return zlib.crc32(b"%d:%d:%d:%d;" % (start, end, sn, data_crc), crc)


def payload_crc(data) -> int:
    """CRC32 of a payload slice (bytes/bytearray/memoryview)."""
    return zlib.crc32(data)

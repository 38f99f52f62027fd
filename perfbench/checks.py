"""Output checks run after every iteration, outside the timed region.

Each check returns a list of error strings; an empty list is a pass.
They read the run's ``MetricsSnapshot`` entries (``name -> entry``), the
traffic report, or the durable file image, and never touch the cluster's
live state.
"""

from __future__ import annotations

SERVICES = ("dlm", "io", "meta")


def value(metrics: dict, name: str, field: str = "value"):
    entry = metrics.get(name)
    return 0 if entry is None else entry.get(field, 0)


def conservation(metrics: dict, instances: dict) -> list:
    """The fabric and RPC identities of docs/metrics.md."""
    errors = []
    sent = value(metrics, "fabric.messages_sent")
    drops = (value(metrics, "faults.drops")
             + value(metrics, "faults.src_down_drops")
             + value(metrics, "faults.partition_drops"))
    dups = value(metrics, "faults.duplicates")
    scheduled = value(metrics, "fabric.deliveries_scheduled")
    delivered = value(metrics, "fabric.messages_delivered")
    if sent - drops + dups != scheduled:
        errors.append(f"fabric: sent {sent} - drops {drops} + duplicates "
                      f"{dups} != scheduled {scheduled}")
    in_flight = value(metrics, "fabric.in_flight")
    if delivered + in_flight != scheduled:
        errors.append(f"fabric: delivered {delivered} + in flight "
                      f"{in_flight} != scheduled {scheduled}")
    received = value(metrics, "fabric.messages_received")
    blackholed = value(metrics, "fabric.messages_blackholed")
    if delivered != received + blackholed:
        errors.append(f"fabric: delivered {delivered} != received "
                      f"{received} + blackholed {blackholed}")
    for svc in SERVICES:
        p = f"rpc.{svc}"
        enq = value(metrics, f"{p}.enqueued")
        deq = value(metrics, f"{p}.dequeued")
        depth = value(metrics, f"{p}.queue_depth")
        if enq != deq + depth:
            errors.append(f"{p}: enqueued {enq} != dequeued {deq} + "
                          f"queued {depth}")
        in_service = (deq - value(metrics, f"{p}.requests")
                      - value(metrics, f"{p}.duplicates_suppressed"))
        if not 0 <= in_service <= instances[svc]:
            errors.append(f"{p}: {in_service} dequeued messages "
                          f"unaccounted for ({instances[svc]} instances)")
        waits = value(metrics, f"{p}.wait_time", "count")
        if waits != deq:
            errors.append(f"{p}: {waits} wait samples for {deq} dequeues")
    return errors


def traffic_identity(counts: dict, metrics: dict) -> list:
    """Every offered request is dropped, completed, failed, rejected or
    shed, and the report agrees with the snapshot's counters."""
    errors = []
    accounted = (counts["dropped_client"] + counts["completed"]
                 + counts["failed"] + counts["rejected_server"]
                 + counts["shed_server"])
    if counts["offered"] != accounted:
        errors.append(f"traffic: offered {counts['offered']} != "
                      f"dropped + completed + failed + rejected + shed "
                      f"{accounted}")
    for key in ("offered", "completed", "failed", "dropped_client"):
        snap = value(metrics, f"traffic.{key}")
        if snap != counts[key]:
            errors.append(f"traffic: report {key} {counts[key]} != "
                          f"snapshot {snap}")
    return errors


def ior_counts(metrics: dict, writes: int, reads: int,
               bytes_written: int) -> list:
    errors = []
    for name, want in (("pfs.client.writes", writes),
                       ("pfs.client.reads", reads),
                       ("pfs.client.bytes_written", bytes_written)):
        got = value(metrics, name)
        if got != want:
            errors.append(f"ior: {name} {got} != {want}")
    return errors


def pattern(rank: int, seq: int, size: int) -> bytes:
    """The bytes IOR's verify mode writes for ``rank``'s ``seq``-th
    transfer: a two-byte rank/sequence tag repeated."""
    tag = bytes([(rank + 1) % 256, (seq + 1) % 256])
    return (tag * ((size + 1) // 2))[:size]


def segmented_image(image, clients: int, writes: int, xfer: int) -> list:
    """Byte-exact durable image of an N-1 segmented run: rank ``r``'s
    ``i``-th transfer sits at ``(r * writes + i) * xfer``."""
    want = clients * writes * xfer
    if len(image) != want:
        return [f"read-back: {len(image)} bytes, expected {want}"]
    view = memoryview(image)
    for rank in range(clients):
        for seq in range(writes):
            off = (rank * writes + seq) * xfer
            if view[off:off + xfer] != pattern(rank, seq, xfer):
                return [f"read-back: rank {rank} transfer {seq} at offset "
                        f"{off} does not hold its bytes"]
    return []


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def snapshot_value(metrics: dict, name: str) -> float:
    """One of ``spec.SIM_COUNTS`` read from a snapshot (0 when the run
    did not emit the underlying metric)."""
    if name == "rpc.admission_rejected":
        return sum(value(metrics, f"rpc.{s}.admission_rejected")
                   for s in SERVICES)
    if name == "dlm.client.cache_hit_ratio":
        hits = value(metrics, "dlm.client.cache_hits")
        return _ratio(hits, hits + value(metrics, "dlm.client.requests"))
    if name == "cache.client.read_hit_ratio":
        hits = value(metrics, "cache.client.read_hits")
        return _ratio(hits, hits + value(metrics, "cache.client.read_misses"))
    if name in ("sim.queue_max", "dlm.waiter_queue_max"):
        return value(metrics, name, "max")
    base, _, field = name.rpartition(".")
    if field in ("p99", "max") and base in metrics:
        return value(metrics, base, field)
    return value(metrics, name)

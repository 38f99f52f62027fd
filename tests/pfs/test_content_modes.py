"""Tri-state payload content tracking (full / checksum / off).

``full`` keeps the seed behavior — real bytes, working verify oracles.
``checksum`` keeps no byte buffers but folds every accepted update into
a rolling per-stripe CRC32 on both the client cache and the data server,
giving a cheap cross-run equivalence fingerprint.  ``off`` is pure
bookkeeping.  An unset mode means ``full``; anything else is rejected.
"""

import pytest

from repro.pfs import Cluster, ClusterConfig
from repro.pfs.content import (
    CONTENT_CHECKSUM,
    CONTENT_FULL,
    CONTENT_OFF,
    resolve_content_mode,
)
from repro.pfs.page_cache import ClientCache
from repro.sim.core import Simulator


# ------------------------------------------------------------- resolution
def test_unset_mode_means_full_and_named_modes_pass_through():
    assert resolve_content_mode() == CONTENT_FULL
    assert resolve_content_mode(None) == CONTENT_FULL
    for mode in (CONTENT_FULL, CONTENT_CHECKSUM, CONTENT_OFF):
        assert resolve_content_mode(mode) == mode


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        resolve_content_mode("sometimes")
    with pytest.raises(ValueError, match="content_mode"):
        Cluster(ClusterConfig(num_clients=1, content_mode="sometimes"))


# ------------------------------------------------------------ client cache
def test_checksum_cache_keeps_no_buffers_but_folds_digest():
    sim = Simulator()
    cache = ClientCache(sim, content_mode="checksum")
    assert not cache.track_content
    cache.write("k", 0, 4, sn=1, data=b"abcd")
    cache.write("k", 2, 4, sn=2, data=b"WXYZ")
    # No content: reads return None (exactly like "off")...
    data, missing = cache.read("k", 0, 6)
    assert data is None and missing == []
    # ...but the write stream left a fingerprint.
    assert cache.digest("k") != 0
    assert cache.digest("other") == 0


def test_checksum_cache_digest_is_deterministic_and_discriminating():
    def run(writes):
        cache = ClientCache(Simulator(), content_mode="checksum")
        for (off, sn, data) in writes:
            cache.write("k", off, len(data), sn=sn, data=data)
        return cache.digest("k")

    a = [(0, 1, b"aaaa"), (2, 2, b"bbbb")]
    assert run(a) == run(a)
    assert run(a) != run([(0, 1, b"aaaa"), (2, 2, b"cccc")])   # bytes differ
    assert run(a) != run([(0, 1, b"aaaa"), (4, 2, b"bbbb")])   # shape differs
    assert run(a) != run([(0, 2, b"aaaa"), (2, 1, b"bbbb")])   # SNs differ


def test_checksum_cache_folds_structure_without_payload():
    # Perf workloads pass data=None; the digest still captures the
    # accepted update structure (offset/length/SN stream).
    cache = ClientCache(Simulator(), content_mode="checksum")
    cache.write("k", 0, 8, sn=1, data=None)
    d1 = cache.digest("k")
    cache.write("k", 4, 8, sn=2, data=None)
    assert d1 != 0 and cache.digest("k") != d1


# -------------------------------------------------------------- end to end
def _write_workload(cluster):
    cluster.create_file("/f", stripe_count=2)

    def worker(rank):
        c = cluster.clients[rank]
        fh = yield from c.open("/f")
        for i in range(6):
            yield from c.write(fh, (i * 2 + rank) * 500,
                               bytes([rank + 1]) * 500)
        yield from c.fsync(fh)

    cluster.run_clients([worker(r) for r in range(2)])


def _cluster(mode):
    return Cluster(ClusterConfig(num_clients=2, num_data_servers=2,
                                 stripe_size=4096, page_size=16,
                                 content_mode=mode,
                                 min_dirty=1 << 20, max_dirty=1 << 21))


def test_cluster_checksum_mode_digests_reproducible():
    def digests():
        cluster = _cluster("checksum")
        _write_workload(cluster)
        out = {}
        for ds in cluster.data_servers:
            assert ds.content_mode == CONTENT_CHECKSUM
            assert not ds.store.stripe_ids() or all(
                ds.store.object(k).size >= 0 for k in ds.store.stripe_ids())
            out.update(ds.digests)
        assert out, "servers saw writes, digests must be non-empty"
        return out

    assert digests() == digests()


def test_cluster_checksum_mode_digest_detects_different_writes():
    def one(payload):
        cluster = _cluster("checksum")
        cluster.create_file("/f", stripe_count=1)

        def worker():
            c = cluster.clients[0]
            fh = yield from c.open("/f")
            yield from c.write(fh, 0, payload)
            yield from c.fsync(fh)

        cluster.run_clients([worker()])
        out = {}
        for ds in cluster.data_servers:
            out.update(ds.digests)
        return out

    # Same shape, different SN-visible layout (two writes vs one).
    assert one(b"x" * 1000) == one(b"y" * 1000)  # structure-only w/o bytes?
    # Note: wire blocks carry no payload in checksum mode, so the server
    # digest is structural; a different *extent* pattern must show up.
    cluster_a = _cluster("checksum")
    _write_workload(cluster_a)
    a = {}
    for ds in cluster_a.data_servers:
        a.update(ds.digests)
    b = one(b"x" * 1000)
    assert a != b


def test_cluster_off_mode_unchanged_and_full_mode_verifies():
    off = _cluster("off")
    _write_workload(off)
    for ds in off.data_servers:
        assert ds.digests == {} and not ds.track_content

    full = _cluster("full")
    _write_workload(full)
    img = full.read_back("/f")
    assert len(img) > 0 and set(img) <= {0, 1, 2}

"""Unit tests for the data server's SN-correct write routine (Fig. 15)."""

import pytest

from repro.net import Fabric, NetworkConfig, rpc_call
from repro.pfs.data_server import (
    BLOCK_HEADER_BYTES,
    DataServer,
    IoReadMsg,
    IoSizeMsg,
    IoTruncateMsg,
    IoWriteMsg,
    WireBlock,
)
from repro.pfs.extent_cache import ServerExtentCache
from repro.sim import Simulator
from repro.storage import StorageDevice

KEY = ("f", 0)


class Rig:
    def __init__(self, content_mode="full", extent_log=None, **devkw):
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, NetworkConfig())
        self.server_node = self.fabric.add_node("ds")
        self.client = self.fabric.add_node("client")
        devkw.setdefault("bandwidth", 1e9)
        devkw.setdefault("latency", 0.0)
        self.device = StorageDevice(self.sim, **devkw)
        self.ecache = ServerExtentCache(self.sim)
        self.ds = DataServer(self.server_node, self.device, self.ecache,
                             extent_log=extent_log,
                             content_mode=content_mode)

    def call(self, msg, nbytes=256):
        out = {}

        def proc():
            out["reply"] = yield rpc_call(self.client, self.server_node,
                                          "io", msg, nbytes=nbytes)

        self.sim.spawn(proc())
        self.sim.run()
        return out["reply"]


def test_write_then_read_roundtrip():
    rig = Rig()
    assert rig.call(IoWriteMsg(KEY, [WireBlock(0, 5, 1, b"hello")])) == "ack"
    assert rig.call(IoReadMsg(KEY, 0, 5)) == b"hello"


def test_stale_block_discarded():
    rig = Rig()
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 4, 9, b"NEW!")]))
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 4, 3, b"old.")]))
    assert rig.call(IoReadMsg(KEY, 0, 4)) == b"NEW!"
    assert rig.ds.stats.bytes_discarded == 4


def test_partial_overlap_mixed_sns():
    rig = Rig()
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 4, 5, b"AAAA")]))
    # SN 3 loses on [2,4) but wins on [4,6).
    rig.call(IoWriteMsg(KEY, [WireBlock(2, 4, 3, b"bbbb")]))
    assert rig.call(IoReadMsg(KEY, 0, 6)) == b"AAAAbb"


def test_device_charged_only_for_update_set():
    rig = Rig()
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 100, 9, b"x" * 100)]))
    written_before = rig.device.stats.bytes_written
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 100, 1, b"y" * 100)]))
    # The stale write moved zero bytes to the device.
    assert rig.device.stats.bytes_written == written_before


def test_multi_block_write_single_rpc():
    rig = Rig()
    msg = IoWriteMsg(KEY, [WireBlock(0, 2, 7, b"ab"),
                           WireBlock(10, 3, 9, b"cde")])
    assert msg.nbytes == 5 + 2 * BLOCK_HEADER_BYTES + 256
    rig.call(msg, nbytes=msg.nbytes)
    assert rig.call(IoReadMsg(KEY, 0, 2)) == b"ab"
    assert rig.call(IoReadMsg(KEY, 10, 3)) == b"cde"
    assert rig.ds.stats.blocks_received == 2
    assert rig.ds.stats.write_rpcs == 1


def test_size_query():
    rig = Rig()
    rig.call(IoWriteMsg(KEY, [WireBlock(100, 4, 1, b"zzzz")]))
    assert rig.call(IoSizeMsg(KEY)) == 104


def test_truncate_clears_extent_cache_tail():
    rig = Rig()
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 10, 1, b"0123456789")]))
    rig.call(IoTruncateMsg(KEY, 4))
    assert rig.call(IoSizeMsg(KEY)) == 4
    # Entries entirely past the new size are dropped.
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 10, 1, b"ABCDEFGHIJ")]))
    assert rig.call(IoReadMsg(KEY, 4, 6)) == b"EFGHIJ"


def test_extent_log_records_update_sets():
    from repro.pfs.extent_log import ExtentLog
    log = ExtentLog()
    rig = Rig(extent_log=log)
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 8, 2, b"ABCDEFGH")]))
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 4, 1, b"zzzz")]))  # stale
    assert log.entry_count(KEY) == 1  # only the winning update logged
    assert log.replay(KEY).entries() == [(0, 8, 2)]


def test_content_tracking_off_still_tracks_sizes():
    rig = Rig(content_mode="off")
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 50, 1, None)]))
    assert rig.call(IoSizeMsg(KEY)) == 50
    assert rig.call(IoReadMsg(KEY, 0, 4)) is None


def test_crash_clears_volatile_state_only():
    from repro.pfs.extent_log import ExtentLog
    log = ExtentLog()
    rig = Rig(extent_log=log)
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 4, 5, b"keep")]))
    rig.ds.crash()
    assert rig.ecache.total_entries == 0        # volatile: gone
    assert rig.ds.store.read(KEY, 0, 4) == b"keep"  # durable: kept
    rig.ds.recover()
    assert rig.ecache.map_for(KEY).entries() == [(0, 4, 5)]

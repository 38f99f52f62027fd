"""Unit tests for the client page cache (Fig. 14 semantics)."""

import pytest

from repro.pfs.page_cache import ClientCache
from repro.sim import Simulator


def make_cache(**kw):
    sim = Simulator()
    kw.setdefault("min_dirty", 1000)
    kw.setdefault("max_dirty", 2000)
    return sim, ClientCache(sim, **kw)


KEY = ("f", 0)


def test_write_then_read_hit():
    _sim, cache = make_cache()
    cache.write(KEY, 0, 5, sn=1, data=b"hello")
    data, missing = cache.read(KEY, 0, 5)
    assert missing == []
    assert data == b"hello"


def test_read_miss_reports_gaps():
    _sim, cache = make_cache()
    cache.write(KEY, 10, 10, sn=1, data=b"x" * 10)
    _data, missing = cache.read(KEY, 0, 30)
    assert missing == [(0, 10), (20, 30)]


def test_newer_sn_overwrites_older():
    _sim, cache = make_cache()
    cache.write(KEY, 0, 4, sn=5, data=b"AAAA")
    cache.write(KEY, 2, 4, sn=9, data=b"BBBB")
    data, missing = cache.read(KEY, 0, 6)
    assert missing == []
    assert data == b"AABBBB"


def test_older_sn_discarded_fig14():
    """Data under an older (smaller SN) lock must not clobber newer data."""
    _sim, cache = make_cache()
    cache.write(KEY, 0, 6, sn=9, data=b"NEWNEW")
    written = cache.write(KEY, 0, 4, sn=5, data=b"old!")
    assert written == 0
    data, _ = cache.read(KEY, 0, 6)
    assert data == b"NEWNEW"


def test_partial_stale_write_keeps_new_part():
    _sim, cache = make_cache()
    cache.write(KEY, 0, 4, sn=9, data=b"NNNN")
    written = cache.write(KEY, 2, 4, sn=5, data=b"oooo")
    assert written == 2  # only [4,6) accepted
    data, _ = cache.read(KEY, 0, 6)
    assert data == b"NNNNoo"


def test_extract_dirty_returns_sn_tagged_blocks():
    _sim, cache = make_cache()
    cache.write(KEY, 0, 4, sn=7, data=b"aaaa")
    cache.write(KEY, 2, 6, sn=9, data=b"bbbbbb")
    blocks = cache.extract_dirty(KEY, ((0, 100),))
    assert [(b.offset, b.length, b.sn) for b in blocks] == [
        (0, 2, 7), (2, 6, 9)]
    assert blocks[0].data == b"aa"
    assert blocks[1].data == b"bbbbbb"
    assert cache.dirty_bytes == 0


def test_extract_dirty_respects_lock_extents():
    _sim, cache = make_cache()
    cache.write(KEY, 0, 10, sn=1, data=b"0123456789")
    blocks = cache.extract_dirty(KEY, ((0, 4),))
    assert [(b.offset, b.length) for b in blocks] == [(0, 4)]
    # The rest is still dirty.
    assert cache.dirty_bytes == 6


def test_extracted_data_remains_readable_as_clean():
    _sim, cache = make_cache()
    cache.write(KEY, 0, 4, sn=1, data=b"abcd")
    cache.extract_dirty(KEY, ((0, 4),))
    data, missing = cache.read(KEY, 0, 4)
    assert missing == [] and data == b"abcd"


def test_invalidate_drops_cached_data():
    _sim, cache = make_cache()
    cache.write(KEY, 0, 4, sn=1, data=b"abcd")
    cache.extract_dirty(KEY, ((0, 4),))
    cache.invalidate(KEY, ((0, 4),))
    _data, missing = cache.read(KEY, 0, 4)
    assert missing == [(0, 4)]


def test_insert_clean_not_dirty():
    _sim, cache = make_cache()
    cache.insert_clean(KEY, 0, 4, sn=1, data=b"abcd")
    assert cache.dirty_bytes == 0
    assert cache.covers(KEY, 0, 4)


def test_insert_clean_does_not_clobber_newer_dirty():
    _sim, cache = make_cache()
    cache.write(KEY, 0, 4, sn=9, data=b"NEW!")
    cache.insert_clean(KEY, 0, 4, sn=3, data=b"old.")
    data, _ = cache.read(KEY, 0, 4)
    assert data == b"NEW!"
    assert cache.dirty_bytes == 4  # dirty data untouched


def test_dirty_byte_accounting_with_overlaps():
    _sim, cache = make_cache()
    cache.write(KEY, 0, 10, sn=1, data=b"a" * 10)
    cache.write(KEY, 5, 10, sn=2, data=b"b" * 10)
    assert cache.dirty_bytes == 15


def test_gate_closes_at_max_dirty_and_reopens():
    sim, cache = make_cache(min_dirty=100, max_dirty=200)
    cache.write(KEY, 0, 200, sn=1, data=b"x" * 200)
    assert not cache.gate.is_open
    cache.extract_dirty(KEY, ((0, 200),))
    assert cache.gate.is_open


def test_flush_signal_tracks_min_threshold():
    _sim, cache = make_cache(min_dirty=100, max_dirty=1000)
    cache.write(KEY, 0, 50, sn=1, data=b"x" * 50)
    assert not cache.flush_signal.is_open
    cache.write(KEY, 50, 60, sn=1, data=b"x" * 60)
    assert cache.flush_signal.is_open
    cache.extract_dirty(KEY, ((0, 200),))
    assert not cache.flush_signal.is_open


def test_restore_dirty_after_failed_flush():
    _sim, cache = make_cache()
    cache.write(KEY, 0, 4, sn=5, data=b"abcd")
    blocks = cache.extract_dirty(KEY, ((0, 4),))
    cache.invalidate(KEY, ((0, 4),))
    cache.restore_dirty(KEY, blocks)
    assert cache.dirty_bytes == 4
    data, missing = cache.read(KEY, 0, 4)
    assert missing == [] and data == b"abcd"


def test_content_tracking_off():
    _sim, cache = make_cache(content_mode="off")
    cache.write(KEY, 0, 4, sn=1, data=None)
    data, missing = cache.read(KEY, 0, 4)
    assert data is None and missing == []
    blocks = cache.extract_dirty(KEY, ((0, 4),))
    assert blocks[0].data is None


def test_has_dirty():
    _sim, cache = make_cache()
    cache.write(KEY, 10, 5, sn=1, data=b"xxxxx")
    assert cache.has_dirty(KEY, ((0, 100),))
    assert not cache.has_dirty(KEY, ((50, 100),))
    assert not cache.has_dirty(("other", 1), ((0, 100),))


def test_drop_all():
    _sim, cache = make_cache()
    cache.write(KEY, 0, 4, sn=1, data=b"abcd")
    cache.drop_all()
    assert cache.dirty_bytes == 0
    assert cache.keys() == []


def test_bad_thresholds():
    sim = Simulator()
    with pytest.raises(ValueError):
        ClientCache(sim, min_dirty=0)
    with pytest.raises(ValueError):
        ClientCache(sim, min_dirty=100, max_dirty=50)

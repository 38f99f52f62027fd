"""Entries scheduled at ``inf`` never fire, whichever lane holds them.

An infinite delay lands in the monotone future lane when it is appended
in key order, and in the heap when it arrives out of order (here: a
lower priority value behind an equal-time tail).  Both ``run()`` and
``run_until_event()`` must treat the two placements alike.
"""

import math

import pytest

from repro.sim.core import SimulationError, Simulator

INF = math.inf


def _future_lane(sim):
    """One inf entry; it sits alone in the future lane."""
    ev = sim.timeout(INF)
    assert len(sim._fut) == 1 and not sim._heap
    return ev


def _heap_lane(sim):
    """Two inf entries; the second is out of key order and goes to the heap."""
    first = sim.timeout(INF, priority=2)
    second = sim.timeout(INF, priority=1)
    assert len(sim._fut) == 1 and len(sim._heap) == 1
    return first, second


def test_run_leaves_inf_entry_in_future_lane_unfired():
    sim = Simulator()
    ev = _future_lane(sim)
    sim.run()
    assert not ev.processed
    assert sim.now == 0.0
    assert sim.queue_length == 1


def test_run_leaves_inf_entry_in_heap_unfired():
    sim = Simulator()
    first, second = _heap_lane(sim)
    sim.run()
    assert not first.processed and not second.processed
    assert sim.now == 0.0
    assert sim.queue_length == 2


def test_run_fires_finite_entries_before_stopping_at_inf():
    sim = Simulator()
    first, second = _heap_lane(sim)
    done = sim.timeout(3.0)
    sim.run()
    assert done.processed
    assert not first.processed and not second.processed
    assert sim.now == 3.0


@pytest.mark.parametrize("lane", ["future", "heap"])
def test_run_until_inf_does_not_fire_inf_entries(lane):
    sim = Simulator()
    events = [_future_lane(sim)] if lane == "future" else list(_heap_lane(sim))
    sim.run(until=INF)
    assert not any(ev.processed for ev in events)
    assert sim.now == INF


def test_run_until_event_on_inf_entry_in_future_lane_deadlocks():
    sim = Simulator()
    ev = _future_lane(sim)
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_event(ev)
    assert not ev.processed
    assert sim.now == 0.0


def test_run_until_event_on_inf_entry_in_heap_deadlocks():
    sim = Simulator()
    _first, second = _heap_lane(sim)
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_event(second)
    assert not second.processed
    assert sim.now == 0.0


def test_direct_inf_delay_never_resumes_the_process():
    sim = Simulator()
    resumed = []

    def sleeper():
        yield INF
        resumed.append(sim.now)

    proc = sim.spawn(sleeper())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_event(proc)
    sim.run()
    assert resumed == [] and proc.is_alive

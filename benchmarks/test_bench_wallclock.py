"""Wall-clock micro-suite: how fast does the simulator itself run?

Unlike the figure benches (which assert *simulated* results), this suite
measures host throughput — kernel events/sec in both scheduling idioms,
one end-to-end small Fig. 4, the persistent-pool sweep runner across
a jobs curve, and host cost per write as the lock tables grow — and
writes the numbers to ``BENCH_wallclock.json`` at the repo root.
Assertions are deliberately conservative (CI machines vary wildly); the
committed JSON records the dev-box numbers and ``scripts/perf_smoke.py``
gates regressions in CI.
"""

import json
import os
import platform
from pathlib import Path

import pytest

from repro.harness.wallclock import (
    MAX_SCALING_RATIO,
    fig4_seconds,
    kernel_events_per_sec,
    lock_table_scaling,
    partition_timing,
    sweep_timing,
)

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_wallclock.json"

RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json():
    yield
    if not RESULTS:
        return
    payload = {"meta": {"python": platform.python_version(),
                        "machine": platform.machine(),
                        "cpus": os.cpu_count() or 1}}
    payload.update(RESULTS)
    BENCH_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_kernel_events_per_sec(benchmark):
    direct = benchmark.pedantic(kernel_events_per_sec, args=("direct",),
                                rounds=1, iterations=1)
    timeout = kernel_events_per_sec("timeout")
    RESULTS["kernel"] = {"cpus": os.cpu_count() or 1,
                         "direct_events_per_sec": round(direct),
                         "timeout_events_per_sec": round(timeout)}
    print(f"\nkernel: direct {direct:,.0f} ev/s, "
          f"timeout {timeout:,.0f} ev/s")
    # The direct-delay fast path must clearly beat the event path, and
    # both must clear a floor low enough for any CI box.
    assert direct > timeout
    assert direct > 300_000
    assert timeout > 150_000


def test_fig4_small_end_to_end(benchmark):
    secs = benchmark.pedantic(fig4_seconds, rounds=1, iterations=1)
    RESULTS["fig4_small_seconds"] = round(secs, 3)
    print(f"\nfig4 small end-to-end: {secs:.2f}s")
    assert secs < 120, "small-scale fig4 should finish in well under 2min"


def test_sweep_jobs_curve(benchmark):
    # Measure the whole jobs curve the CI matrix also walks; the
    # persistent-pool + chunked-dispatch path is exercised at every
    # parallel point regardless of how many CPUs the box has.
    timing = benchmark.pedantic(sweep_timing, kwargs={"jobs": (1, 2, 4)},
                                rounds=1, iterations=1)
    RESULTS["sweep"] = timing
    cpus = timing["cpus"]
    print(f"\nsweep: {timing['cells']} cells, serial "
          f"{timing['serial_seconds']}s, cpus={cpus}")
    for j, entry in sorted(timing["per_jobs"].items(), key=lambda kv: int(kv[0])):
        speedup = entry.get("speedup")
        print(f"  jobs={j}: {entry['seconds']}s "
              f"({f'{speedup}x' if speedup is not None else 'speedup n/a'}, "
              f"chunksize={entry['chunksize']}, chunks={entry['chunks']})")
    # Byte-identity is unconditional — a speedup that changes results
    # is a determinism bug, not a win.
    assert timing["byte_identical"]
    # The serial entry reports its real dispatch shape: one cell per
    # chunk, in order (not the old 0/0 placeholder).
    serial_entry = timing["per_jobs"]["1"]
    assert serial_entry["chunksize"] == 1
    assert serial_entry["chunks"] == timing["cells"]
    if cpus >= 4:
        assert timing["best_speedup"] >= 2.0
    elif cpus >= 2:
        assert timing["best_speedup"] >= 1.3
    else:
        # Single CPU: no parallelism to be had, so speedup is not even
        # *recorded* (an honest bench does not publish ratios it cannot
        # measure) — but the pool path must still be cheap: fork + chunk
        # dispatch + JSON-bytes transfer, no pathological blowup.
        print("  NOTICE: <2 CPUs — speedup assertion skipped and speedup "
              "fields suppressed (parallelism unmeasurable on one core)")
        assert timing["best_speedup"] is None
        assert all("speedup" not in e for e in timing["per_jobs"].values())
        serial_s = timing["per_jobs"]["1"]["seconds"]
        for j, entry in timing["per_jobs"].items():
            if int(j) > 1 and serial_s:
                assert entry["seconds"] <= 3.0 * serial_s, (
                    f"jobs={j} took {entry['seconds']}s vs serial "
                    f"{serial_s}s — pool overhead blew up")


def test_partition_curve(benchmark):
    # The conservative windowed runner across the partition curve: wall
    # seconds plus protocol counters, gated on byte-identity (the whole
    # point of the conservative design).
    timing = benchmark.pedantic(partition_timing,
                                kwargs={"partitions": (1, 2, 4)},
                                rounds=1, iterations=1)
    RESULTS["partition"] = timing
    print(f"\npartition: golden {timing['dlm']} seed={timing['seed']}, "
          f"serial {timing['serial_seconds']}s, cpus={timing['cpus']}")
    for p, entry in sorted(timing["per_partitions"].items(),
                           key=lambda kv: int(kv[0])):
        print(f"  partitions={p}: {entry['seconds']}s "
              f"(windows={entry.get('windows', '-')}, "
              f"exchanged={entry.get('exchanged', '-')})")
    assert timing["byte_identical"]
    # The window protocol must genuinely engage: partitioned points run
    # windows and exchange cross-partition deliveries (a zero here means
    # the partition plan degenerated and the test is vacuous).
    for p, entry in timing["per_partitions"].items():
        if int(p) > 1:
            assert entry["windows"] > 0
            assert entry["exchanged"] > 0
    if timing["cpus"] < 2:
        assert all("speedup" not in e
                   for e in timing["per_partitions"].values())


def test_lock_table_scaling(benchmark):
    # Host cost per write must stay roughly flat as the lock tables grow
    # with the run (the same gate scripts/perf_smoke.py enforces).
    timing = benchmark.pedantic(lock_table_scaling, rounds=1, iterations=1)
    RESULTS["lock_table_scaling"] = timing
    print(f"\nlock-table scaling: {timing['us_per_write']} us/write, "
          f"ratio {timing['ratio']}x (limit {MAX_SCALING_RATIO}x)")
    assert timing["ratio"] <= MAX_SCALING_RATIO

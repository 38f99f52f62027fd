#!/usr/bin/env python
"""Profile the simulator's hot path (the optimisation workflow of the
scientific-Python guides: measure before touching anything).

Runs a representative high-contention IOR point (n1-strided, 16
clients, 64 KiB, seqdlm, no payload content) under cProfile and prints
the top functions by cumulative and internal time.  Until the lock
tables were interval-indexed (`repro.dlm.locktable`), the lock server's
table scans took about three quarters of host time here and grew with
the table.  Host time now splits roughly evenly between the event loop
(`repro.sim.core`), the SN-tagged extent maps of the data path
(`repro.dlm.extent`) and the lock path (`dlm/server.py` and
`dlm/locktable.py`), with RPC, fabric and the ccPFS client behind them.
Profile before optimizing any of them.

    python scripts/profile_hotpath.py [--writes N] [--sort tottime]
"""

import argparse
import cProfile
import pstats
import sys


def workload(writes: int):
    from repro.pfs import ClusterConfig
    from repro.workloads import IorConfig, run_ior

    return run_ior(IorConfig(
        pattern="n1-strided", clients=16, writes_per_client=writes,
        xfer=64 * 1024, stripes=1,
        cluster=ClusterConfig(dlm="seqdlm", content_mode="off")))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--writes", type=int, default=128,
                        help="writes per client (default 128)")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"),
                        help="pstats sort key")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()

    profiler = cProfile.Profile()
    profiler.enable()
    result = workload(args.writes)
    profiler.disable()

    print(f"simulated: {result.bytes_written / 2**20:.0f} MB strided, "
          f"bandwidth {result.bandwidth / 1e9:.2f} GB/s "
          f"(simulated time {result.total_time * 1e3:.1f} ms)\n")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())

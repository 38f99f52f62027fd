#!/usr/bin/env python
"""CI perf smoke: re-measure the wall-clock probes and gate the sweep.

Usage::

    python scripts/perf_smoke.py --check BENCH_wallclock.json --jobs 2
    python scripts/perf_smoke.py --jobs 1 2 4                 # full curve
    python scripts/perf_smoke.py --out BENCH_wallclock.json   # refresh

Absolute wall-clock numbers only warn (shared CI runners are noisy) —
including the serial direct-kernel throughput floor (``--kernel-floor``,
default 2.0M ev/s).  Three things hard-fail:

* host cost per simulated write on the contended IOR n1-strided point
  growing more than 1.6x from 32 to 256 writes per client — the lock
  server's and lock client's table queries must not scale with table
  size (a ratio within one run, so runner speed cancels out);
* a parallel sweep *or a partitioned run* that stops being
  byte-identical to the serial run — that is a determinism bug, not
  jitter;
* on a runner with >= 2 CPUs, a parallel sweep whose best speedup falls
  below ``--min-speedup`` (default 1.1x) — the persistent-pool sweep
  must actually beat serial.  On < 2 CPUs the gate is skipped with a
  visible ``::notice`` naming the CPU count, and speedup fields are
  suppressed outright (seconds only) instead of recording sub-1x
  fantasy ratios measured on one core.

When ``$GITHUB_STEP_SUMMARY`` is set, per-jobs and per-partition-count
tables are appended to the job summary.
"""

import sys

from repro.harness.wallclock import main

if __name__ == "__main__":
    sys.exit(main())

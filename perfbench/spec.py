"""What the benchmark runs and what it reports.

Three workloads drive the simulator through its public entry points
(``repro.run_ior``, ``repro.run_traffic``; both build a ``repro.Cluster``).
Each is one process with one thread.  The workload seed reaches the
program only through ``ClusterConfig.seed`` / ``TrafficConfig.seed``.

Every metric the benchmark prints is declared here, with its unit and,
for per-layer metrics, the end-to-end metric and workload it is expected
to move.  ``BENCHMARK.json`` at the repository root lists the same
names; ``selftest.py`` checks that the two agree.
"""

from __future__ import annotations

import re

DEFAULT_SEED = 101
#: Held-out seed: baselines are recorded for it too, so a later gain
#: claim can be re-checked on a seed it was not tuned on.
HELD_OUT_SEED = 202

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128

STRIDED = "ior-strided-contended"
SEGMENTED = "ior-segmented-readback"
TRAFFIC = "traffic-mixed-knee"

#: Workload parameters at full size and at the tiny size the self-tests
#: use.  ``subseeds`` is how many seeds a run derives from ``--seed``
#: and pools into its simulated figures (see ``subseed``).
WORKLOADS = {
    STRIDED: {
        "kind": "ior",
        "why": ("IOR N-1 strided write+read, 16 clients x 128 x 64 KiB: "
                "the paper's contended pattern, where lock-server table "
                "scans take ~3/4 of host time"),
        "subseeds": 1,
        "full": dict(pattern="n1-strided", clients=16,
                     writes_per_client=128, xfer=64 * 1024,
                     read_phase=True, verify=False),
        "tiny": dict(pattern="n1-strided", clients=4,
                     writes_per_client=8, xfer=64 * 1024,
                     read_phase=True, verify=False),
    },
    SEGMENTED: {
        "kind": "ior",
        "why": ("IOR N-1 segmented, 16 clients x 1024 x 4 KiB real bytes, "
                "fsync, cross-rank cache-cold read-back: lock server idle, "
                "kernel, RPC, caches and block store busy"),
        "subseeds": 1,
        "full": dict(pattern="n1-segmented", clients=16,
                     writes_per_client=1024, xfer=4096,
                     read_phase=True, verify=True),
        "tiny": dict(pattern="n1-segmented", clients=4,
                     writes_per_client=16, xfer=4096,
                     read_phase=True, verify=True),
    },
    TRAFFIC: {
        "kind": "traffic",
        "why": ("open-loop Poisson 16k req/s for 0.5 simulated s, 30% "
                "reads of 16 KiB, one shared file: just below the knee, "
                "so the tail reacts to DLM and RPC cost"),
        "subseeds": 5,
        "full": dict(rate=16_000.0, duration=0.5, read_fraction=0.3,
                     xfer=16 * 1024, users=10_000, num_clients=8,
                     workers_per_client=4),
        "tiny": dict(rate=16_000.0, duration=0.02, read_fraction=0.3,
                     xfer=16 * 1024, users=10_000, num_clients=8,
                     workers_per_client=4),
    },
}

DLM = "seqdlm"

#: Faults the self-tests plant for the output checks to catch: the
#: worker plants these in its own checks, and ``run.py`` plants
#: ``digest`` by altering one iteration's snapshot digest.
WORKER_PLANTS = ("flip-byte", "conservation", "traffic-identity")
PLANTS = WORKER_PLANTS + ("digest",)


def subseed(seed: int, k: int) -> int:
    """The ``k``-th workload seed derived from the run's ``--seed``.

    Sub-seed 0 is the seed itself; the others are far enough apart
    that neighbouring ``--seed`` values do not share arrival streams.
    """
    return seed + 104_729 * k


#: End-to-end metrics: name -> (unit, better, bound).  Host metrics are
#: measured with tracing off; ``ops_per_s`` and ``setup_s`` are host
#: seconds scaled to the reference speed of ``reference.py``
#: (``run.host_scale``).  ``sim_*`` metrics are simulated and repeat
#: exactly for a given seed.
END_TO_END = {
    "ops_per_s": ("ops/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.05),
    "ok_ratio": ("ratio", "higher", 0.01),
    "sim_write_GBps": ("GB/sim_s", "higher", 0.1),
    "sim_read_GBps": ("GB/sim_s", "higher", 0.1),
    "sim_p50_ms": ("sim_ms", "lower", 0.15),
    "sim_p99_ms": ("sim_ms", "lower", 0.24),
    "sim_goodput_rps": ("req/sim_s", "higher", 0.05),
}

#: The repository's modules, as the layers host time is charged to.
#: Each maps to the source files under ``src/repro`` it covers.
LAYERS = {
    "sim.core": ("sim/core.py",),
    "net.fabric": ("net/fabric.py",),
    "net.rpc": ("net/rpc.py",),
    "dlm.server": ("dlm/server.py",),
    "dlm.client": ("dlm/client.py",),
    "dlm.extent": ("dlm/extent.py",),
    "dlm.lcm": ("dlm/lcm.py",),
    "pfs.client": ("pfs/client.py",),
    "pfs.layout": ("pfs/layout.py",),
    "pfs.page_cache": ("pfs/page_cache.py",),
    "pfs.extent_cache": ("pfs/extent_cache.py",),
    "pfs.data_server": ("pfs/data_server.py",),
    "storage.blockstore": ("storage/blockstore.py",),
    "storage.device": ("storage/device.py",),
    "traffic.engine": ("traffic/engine.py",),
    "metrics": ("metrics/",),
}

E2E_OPS = "ops_per_s"
E2E_RSS = "peak_rss_mb"
E2E_READ = "sim_read_GBps"
E2E_WRITE = "sim_write_GBps"
E2E_P99 = "sim_p99_ms"
E2E_GOODPUT = "sim_goodput_rps"

#: Per-layer predictions: which end-to-end metric a change in the layer
#: metric should move, on which workload, and where it should not.
_LOCK_TABLE = {"moves": E2E_OPS, "on": [STRIDED],
               "small_on": [TRAFFIC], "unchanged_on": [SEGMENTED]}
_KERNEL_NET = {"moves": E2E_OPS, "on": [TRAFFIC, SEGMENTED],
               "unchanged_on": [STRIDED]}
_DATA_PATH = {"moves": f"{E2E_OPS},{E2E_RSS}", "on": [SEGMENTED],
              "unchanged_on": [STRIDED, TRAFFIC]}
_SIM_STRIDED = {"explains": f"{E2E_WRITE},{E2E_READ}", "on": [STRIDED],
                "host_only_change": "unchanged"}
_SIM_SEGMENTED = {"explains": E2E_READ, "on": [SEGMENTED],
                  "host_only_change": "unchanged"}
_SIM_TRAFFIC = {"explains": f"{E2E_P99},{E2E_GOODPUT}", "on": [TRAFFIC],
                "host_only_change": "unchanged"}
_SIM_ALL = {"explains": f"{E2E_WRITE},{E2E_READ},{E2E_P99},{E2E_GOODPUT}",
            "on": [STRIDED, SEGMENTED, TRAFFIC],
            "host_only_change": "unchanged"}
_SPAN = {"explains": "setup_s,ops_per_s", "on": [STRIDED, SEGMENTED,
                                                  TRAFFIC]}


def _layer_prediction(layer: str) -> dict:
    if layer in ("dlm.server", "dlm.client", "dlm.extent", "dlm.lcm"):
        return _LOCK_TABLE
    if layer in ("sim.core", "net.fabric", "net.rpc"):
        return _KERNEL_NET
    if layer in ("pfs.client", "pfs.layout", "pfs.page_cache",
                 "storage.blockstore"):
        return _DATA_PATH
    if layer == "traffic.engine":
        return {"moves": E2E_OPS, "on": [TRAFFIC],
                "unchanged_on": [STRIDED, SEGMENTED]}
    return {"moves": E2E_OPS, "on": [STRIDED, SEGMENTED, TRAFFIC]}


#: Per-layer metrics where a larger value is the better one; for all
#: others (host costs, counts of work, waits) smaller is better.
HIGHER_IS_BETTER = {"dlm.early_grants", "dlm.expansions",
                    "host.ops_per_wall_s", "host.reference_scale",
                    "dlm.client.cache_hit_ratio",
                    "cache.client.read_hit_ratio", "ds.disk.saturation"}


def _per_layer():
    """name -> (unit, better, prediction), in print order."""
    out = {}
    for layer in LAYERS:
        pred = _layer_prediction(layer)
        out[f"host.{layer}.self_s"] = ("s", pred)
        out[f"host.{layer}.share"] = ("ratio", pred)
    out["host.other.self_s"] = ("s", {"moves": E2E_OPS,
                                      "on": [STRIDED, SEGMENTED, TRAFFIC]})
    out.update({
        "dlm.server.host_us_per_request": ("us", _LOCK_TABLE),
        "dlm.client.host_us_per_lock": ("us", _LOCK_TABLE),
        "sim.core.host_ns_per_event": ("ns", _KERNEL_NET),
        "net.host_us_per_message": ("us", _KERNEL_NET),
        "sim.events_per_op": ("events", _KERNEL_NET),
        "fabric.messages_per_op": ("messages", _KERNEL_NET),
        "pfs.host_us_per_op": ("us", _DATA_PATH),
        "storage.blockstore.host_ns_per_byte": ("ns", _DATA_PATH),
    })
    for name, unit, pred in SIM_COUNTS:
        out[name] = (unit, pred)
    for name in ("span.setup_s", "span.run_s", "span.check_s",
                 "span.collect_s"):
        out[name] = ("s", _SPAN)
    out["trace.overhead_ratio"] = ("ratio", {"explains": "tracing cost",
                                             "on": [STRIDED, SEGMENTED,
                                                    TRAFFIC]})
    # The untraced run's throughput before scaling to the reference
    # speed, and the scale it got (reference.py).
    out["host.ops_per_wall_s"] = ("ops/s", {
        "explains": f"{E2E_OPS} before scaling to the reference speed",
        "on": [STRIDED, SEGMENTED, TRAFFIC]})
    out["host.reference_scale"] = ("ratio", {
        "explains": f"host.ops_per_wall_s / {E2E_OPS}: host speed against "
                    "the reference speed, not a property of the program",
        "on": [STRIDED, SEGMENTED, TRAFFIC]})
    return out


#: Simulated counts read from each run's MetricsSnapshot:
#: (per-layer name, unit, prediction).  ``checks.snapshot_value``
#: says how each is read.
SIM_COUNTS = [
    ("sim.events", "events", _SIM_ALL),
    ("sim.queue_max", "events", _SIM_ALL),
    ("fabric.messages_delivered", "messages", _SIM_ALL),
    ("fabric.bytes_delivered", "bytes", _SIM_ALL),
    ("rpc.dlm.requests", "requests", _SIM_STRIDED),
    ("rpc.io.requests", "requests", _SIM_SEGMENTED),
    ("rpc.dlm.wait_time.p99", "sim_s", _SIM_TRAFFIC),
    ("rpc.io.wait_time.p99", "sim_s", _SIM_TRAFFIC),
    ("rpc.dlm.saturation", "ratio", _SIM_TRAFFIC),
    ("rpc.admission_rejected", "requests", _SIM_TRAFFIC),
    ("dlm.requests", "events", _SIM_STRIDED),
    ("dlm.grants", "events", _SIM_STRIDED),
    ("dlm.revocations_sent", "events", _SIM_STRIDED),
    ("dlm.early_grants", "events", _SIM_STRIDED),
    ("dlm.expansions", "events", _SIM_STRIDED),
    ("dlm.revoke_wait_time", "sim_s", _SIM_STRIDED),
    ("dlm.lock_table_size.max", "locks", _LOCK_TABLE),
    ("dlm.waiter_queue_max", "requests", _LOCK_TABLE),
    ("dlm.client.cache_hit_ratio", "ratio", _SIM_SEGMENTED),
    ("dlm.client.lock_wait_time", "sim_s", _SIM_STRIDED),
    ("dlm.client.flush_time", "sim_s", _SIM_STRIDED),
    ("pfs.client.read_rpcs", "rpcs", _SIM_SEGMENTED),
    ("pfs.client.flush_rpcs", "rpcs", _SIM_STRIDED),
    ("cache.client.read_hit_ratio", "ratio", _SIM_SEGMENTED),
    ("cache.client.bytes_flushed", "bytes", _SIM_STRIDED),
    ("cache.extent.entries.max", "entries", _SIM_STRIDED),
    ("cache.extent.forced_syncs", "syncs", _SIM_STRIDED),
    ("ds.disk.bytes_written", "bytes", _SIM_SEGMENTED),
    ("ds.disk.bytes_read", "bytes", _SIM_SEGMENTED),
    ("ds.disk.saturation", "ratio", _SIM_SEGMENTED),
    ("traffic.client_queue_wait.p99", "sim_s", _SIM_TRAFFIC),
    ("traffic.service_time.p99", "sim_s", _SIM_TRAFFIC),
]

PER_LAYER = {name: (unit, "higher" if name in HIGHER_IS_BETTER else "lower",
                    pred)
             for name, (unit, pred) in _per_layer().items()}

#: ROADMAP items this benchmark is the yardstick for: the workload where
#: each should show, and the one where the prediction is no change.
ROADMAP_ITEMS = {
    "interval-indexed lock tables": {
        "shows_on": STRIDED, "no_change_on": SEGMENTED,
        "metric": E2E_OPS, "layer": "host.dlm.server.self_s"},
    "sim/core.py fast-path review": {
        "shows_on": TRAFFIC, "no_change_on": STRIDED,
        "metric": E2E_OPS, "layer": "sim.core.host_ns_per_event"},
    "partition-runner deletion": {
        "shows_on": TRAFFIC, "no_change_on": STRIDED,
        "metric": E2E_OPS, "layer": "net.host_us_per_message"},
}

"""One benchmark iteration, in a fresh process.

``run.py`` starts this script once per iteration, so every iteration
pays the imports, cluster construction and file creation again (that is
what ``setup_s`` measures) and has its own memory high-water mark.  It
prints one JSON object on its last line of standard output.

Usage (normally only ``run.py`` calls it)::

    python3 perfbench/worker.py --workload NAME --seed N --t0 MONOTONIC
        [--scale full|tiny] [--trace 0|1] [--plant FAULT]

Timing hooks wrap ``Cluster.run_clients``: the simulated run starts there
(after imports, cluster construction and file creation) and every host
second inside it is the timed region.  An untraced iteration also runs
short chunks of ``reference.py``'s fixed work just before and after that
region and about every ``REFERENCE_INTERVAL_S`` inside it, timed apart
and taken out of the run's time; ``run.py`` scales host times by them.
With ``--trace 1`` a profiler is switched on for exactly that region and
its self times are charged to the repository's modules
(``spec.LAYERS``).
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import pstats
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spec  # noqa: E402
from reference import Reference  # noqa: E402

#: Host seconds of simulation between two reference chunks, and the
#: chunks run just before and just after the simulated run.
REFERENCE_INTERVAL_S = 0.1
REFERENCE_BRACKET = 3


class RunProbe:
    """Hooks installed around the program's public entry points."""

    def __init__(self, trace: bool):
        self.setup_end = None
        self.after_run = None
        self.run_start = None
        self.run_end = None
        self.rss_mib = None
        self.samples = []          # simulated request latencies (s)
        self.profile = cProfile.Profile() if trace else None
        # Untraced runs interleave reference chunks with the simulation
        # (see reference.py); their time is left out of the run.
        self.reference = None
        self.reference_s = []      # host seconds of each chunk
        self.paused = 0.0
        self.next_reference = 0.0

    def bracket(self) -> None:
        for _ in range(REFERENCE_BRACKET):
            self.reference_s.append(self.reference.chunk())

    def tick(self) -> None:
        """Called once per completed simulated op: run a reference chunk
        when one is due."""
        if self.reference is None:
            return
        now = time.monotonic()
        if now >= self.next_reference:
            self.reference_s.append(self.reference.chunk())
            resumed = time.monotonic()
            self.paused += resumed - now
            self.next_reference = resumed + REFERENCE_INTERVAL_S

    def install(self, kind: str) -> None:
        from repro.metrics.core import Histogram, MetricsRegistry
        from repro.pfs import Cluster
        from repro.pfs.client import CcpfsClient

        probe = self
        run_clients = Cluster.run_clients

        def timed_run_clients(cluster, *args, **kwargs):
            if probe.run_start is None:
                probe.setup_end = time.monotonic()
                if probe.profile is None:
                    probe.reference = Reference()
                    probe.bracket()
                probe.run_start = time.monotonic()
                probe.next_reference = probe.run_start + REFERENCE_INTERVAL_S
            if probe.profile is not None:
                probe.profile.enable()
            try:
                return run_clients(cluster, *args, **kwargs)
            finally:
                if probe.profile is not None:
                    probe.profile.disable()
                probe.run_end = time.monotonic()
                # Read before any output check allocates its buffers.
                probe.rss_mib = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if probe.reference is not None:
                    probe.bracket()
                probe.after_run = time.monotonic()

        Cluster.run_clients = timed_run_clients

        if kind == "ior":
            # Closed loop: latency runs from the call to its return.
            def timed(op):
                def wrapper(client, *args, **kwargs):
                    t = client.sim.now
                    out = yield from op(client, *args, **kwargs)
                    probe.samples.append(client.sim.now - t)
                    probe.tick()
                    return out
                return wrapper

            CcpfsClient.write = timed(CcpfsClient.write)
            CcpfsClient.read = timed(CcpfsClient.read)
        else:
            # Open loop: keep the engine's exact sojourn observations
            # (arrival to completion) alongside its bucketed histogram.
            class SampledHistogram(Histogram):
                __slots__ = ()

                def observe(self, value):
                    Histogram.observe(self, value)
                    probe.samples.append(value)
                    probe.tick()

            histogram = MetricsRegistry.histogram

            # The registry has no public way to choose a metric's class;
            # the subclass keeps Histogram's kind and entry, so the
            # snapshot (and its digest) is unchanged.
            def sampled(registry, name, unit="seconds", owner=""):
                if name == "traffic.sojourn_time" and name not in registry:
                    return registry._get(SampledHistogram, name, unit, owner)
                return histogram(registry, name, unit, owner)

            MetricsRegistry.histogram = sampled


def layer_self_times(profile: cProfile.Profile) -> dict:
    """Self seconds per layer of ``spec.LAYERS`` plus ``other``.

    Functions outside ``repro`` (C builtins, generated ``__init__``
    methods, the standard library) are charged to the module that called
    them, in proportion to the self time each caller accounted for.
    """
    totals = dict.fromkeys(list(spec.LAYERS) + ["other"], 0.0)
    for func, (_cc, _nc, tt, _ct, callers) in pstats.Stats(
            profile).stats.items():
        if _repro_path(func[0]) is not None:
            totals[_layer_of(func[0])] += tt
            continue
        for caller, (_c, _n, caller_tt, _t) in callers.items():
            totals[_layer_of(caller[0])] += caller_tt
        if not callers:
            totals["other"] += tt
    return totals


def _repro_path(filename: str):
    marker = "/repro/"
    at = filename.rfind(marker)
    return None if at < 0 else filename[at + len(marker):]


def _layer_of(filename: str) -> str:
    rel = _repro_path(filename)
    if rel is not None:
        for layer, files in spec.LAYERS.items():
            if any(rel == f or (f.endswith("/") and rel.startswith(f))
                   for f in files):
                return layer
    return "other"


def run_iteration(workload: str, seed: int, scale: str, trace: bool,
                  plant: str, t0: float) -> dict:
    info = spec.WORKLOADS[workload]
    params = info[scale]
    probe = RunProbe(trace)

    import repro
    from repro.metrics import MetricsSnapshot

    probe.install(info["kind"])
    errors = []
    if info["kind"] == "ior":
        cfg = repro.IorConfig(
            stripes=1, fsync_at_end=True,
            cluster=repro.ClusterConfig(dlm=spec.DLM, seed=seed),
            **params)
        try:
            result = repro.run_ior(cfg)
        except AssertionError as exc:   # run_ior's own read-back oracle
            errors.append(f"run_ior verify: {exc}")
            result = None
    else:
        result = repro.run_traffic(repro.TrafficConfig(
            dlm=spec.DLM, seed=seed, **params))
    if probe.run_start is None or probe.run_end is None:
        raise RuntimeError("the workload never reached Cluster.run_clients")
    collected = time.monotonic()

    out = {"setup_s": probe.setup_end - t0,
           "run_s": probe.run_end - probe.run_start - probe.paused,
           "reference_s": probe.reference_s,
           "rss_mib": probe.rss_mib, "errors": errors}
    if result is None:
        ops = params["clients"] * params["writes_per_client"] * (
            2 if params["read_phase"] else 1)
        out.update(ops=ops, attempted=ops, failed=ops, digest=None,
                   sim=None, counts={}, lock_calls=0)
    else:
        snap = MetricsSnapshot.from_dict(result.metrics)
        metrics = dict(snap.metrics)
        if plant == "conservation":
            entry = dict(metrics["fabric.messages_delivered"])
            entry["value"] += 1
            metrics["fabric.messages_delivered"] = entry
        instances = {"dlm": len(result.cluster.lock_servers),
                     "io": len(result.cluster.data_servers), "meta": 1}
        errors += checks.conservation(metrics, instances)
        if info["kind"] == "ior":
            ops, attempted, failed, sim = _ior_outputs(
                result, params, metrics, plant, errors)
        else:
            ops, attempted, failed, sim = _traffic_outputs(
                result, metrics, plant, errors)
        sim["samples"] = probe.samples
        if errors:
            failed = attempted
        out.update(ops=ops, attempted=attempted, failed=failed, sim=sim,
                   digest=hashlib.sha256(
                       snap.to_json().encode()).hexdigest(),
                   counts={name: checks.snapshot_value(metrics, name)
                           for name, _unit, _p in spec.SIM_COUNTS},
                   lock_calls=(checks.value(metrics, "dlm.client.requests")
                               + checks.value(metrics,
                                              "dlm.client.cache_hits")))
    checked = time.monotonic()
    out["spans"] = [
        {"id": 0, "parent": None, "name": "iteration",
         "start": 0.0, "end": checked - t0},
        {"id": 1, "parent": 0, "name": "setup",
         "start": 0.0, "end": probe.setup_end - t0},
        {"id": 2, "parent": 0, "name": "run",
         "start": probe.run_start - t0, "end": probe.run_end - t0},
        {"id": 3, "parent": 0, "name": "collect",
         "start": probe.after_run - t0, "end": collected - t0},
        {"id": 4, "parent": 0, "name": "check",
         "start": collected - t0, "end": checked - t0},
    ]
    if probe.profile is not None:
        out["layers"] = layer_self_times(probe.profile)
    return out


def _ior_outputs(result, params, metrics, plant, errors):
    n, wpc = params["clients"], params["writes_per_client"]
    writes = n * wpc
    reads = writes if params["read_phase"] else 0
    errors += checks.ior_counts(metrics, writes, reads,
                                writes * params["xfer"])
    if params["verify"]:
        image = result.cluster.read_back("/ior")
        if plant == "flip-byte":
            image = bytearray(image)
            image[len(image) // 2] ^= 0xFF
        errors += checks.segmented_image(image, n, wpc, params["xfer"])
    ops = writes + reads
    sim = {"ops": ops,
           "write_bytes": result.bytes_written,
           "write_time": result.pio_time,
           "read_bytes": result.bytes_read,
           "read_time": result.read_time,
           "span_time": result.pio_time + result.f_time + result.read_time}
    return ops, ops, 0, sim


def _traffic_outputs(result, metrics, plant, errors):
    counts = {"offered": result.offered,
              "dropped_client": result.dropped_client,
              "completed": result.completed, "failed": result.failed,
              "rejected_server": result.rejected_server,
              "shed_server": result.shed_server}
    if plant == "traffic-identity":
        counts["offered"] += 1
    errors += checks.traffic_identity(counts, metrics)
    sim = {"ops": result.completed,
           "write_bytes": checks.value(metrics, "pfs.client.bytes_written"),
           "write_time": result.makespan,
           "read_bytes": checks.value(metrics, "pfs.client.bytes_read"),
           "read_time": result.makespan,
           "span_time": result.makespan}
    return (result.completed, result.offered,
            result.offered - result.completed, sim)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started us")
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant", choices=spec.WORKER_PLANTS, default=None)
    args = ap.parse_args(argv)
    out = run_iteration(args.workload, args.seed, args.scale,
                        bool(args.trace), args.plant, args.t0)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

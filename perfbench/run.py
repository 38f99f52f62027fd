"""The repository benchmark: host cost and simulated results per workload.

Run from the repository root::

    python3 perfbench/run.py --workload ior-strided-contended \
        --seed 101 --seconds 35 --trace 0

``--trace 0`` repeats the workload in fresh processes (``worker.py``) for
about ``--seconds`` host seconds and reports the end-to-end metrics:
medians of the per-iteration host figures and the simulated figures of
the run's seed(s).  Host times are scaled to a fixed reference speed of
the machine, measured in the same process during the same iteration
(``reference.py``), so that other tenants' load on a shared host does
not read as a change of the program.  ``--trace 1`` runs the workload
once untraced and once under a profiler and reports the per-layer
metrics.  Every iteration's outputs are checked; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.

Exit status: 0 when every check passed, 1 when a check failed (the
result line is still printed) or an iteration crashed (no result line),
2 when the repository sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from reference import REFERENCE_CHUNK_S  # noqa: E402

#: Every run must end within this many host seconds.
HARD_LIMIT_S = 170.0
OUT_DIR = ROOT / ".perfbench-out"


class IterationCrashed(RuntimeError):
    """A worker exited without a result: a benchmark error, not a
    measured failure."""


def run_worker(workload, seed, scale, trace, plant, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--scale", scale,
           "--trace", str(int(trace))]
    if plant in spec.WORKER_PLANTS:
        cmd += ["--plant", plant]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise IterationCrashed("no time left for another iteration")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise IterationCrashed(f"{workload} iteration timed out after "
                               f"{timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise IterationCrashed(f"{workload} iteration exited "
                               f"{proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def check_digests(iterations, subseeds: int, plant) -> list:
    """Every iteration of one (workload, seed) must produce the same
    MetricsSnapshot digest."""
    errors = []
    if plant == "digest" and len(iterations) > subseeds:
        iterations[subseeds]["digest"] = "planted-mismatch"
    first = {}
    for i, it in enumerate(iterations):
        if it["digest"] is None:
            continue
        k = i % subseeds
        ref = first.setdefault(k, (i, it["digest"]))
        if it["digest"] != ref[1]:
            errors.append(f"iteration {i}: snapshot digest {it['digest'][:12]}"
                          f" != iteration {ref[0]}'s {ref[1][:12]}")
            it["failed"] = it["attempted"]
    return errors


def host_scale(it: dict) -> float:
    """Reference seconds per host second during one iteration: below 1
    when the host ran slower than the reference speed."""
    return REFERENCE_CHUNK_S / statistics.median(it["reference_s"])


def end_to_end(iterations, subseeds: int) -> dict:
    sims = [it["sim"] for it in iterations[:subseeds] if it["sim"]]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    samples = sorted(x for s in sims for x in s["samples"])
    # The tail is taken per sub-seed, then the median across them: one
    # bursty arrival stream does not set the whole run's tail.
    tails = [quantile(sorted(s["samples"]), 0.99) for s in sims]

    def total(key):
        return sum(s[key] for s in sims)

    def per(num, den, scale=1.0):
        d = total(den)
        return total(num) / d * scale if d else 0.0

    values = {
        "ops_per_s": statistics.median(
            it["ops"] / (it["run_s"] * host_scale(it)) for it in iterations),
        "setup_s": statistics.median(it["setup_s"] * host_scale(it)
                                     for it in iterations),
        "peak_rss_mb": statistics.median(it["rss_mib"] for it in iterations),
        "ok_ratio": 1.0 - failed / attempted,
        "sim_write_GBps": per("write_bytes", "write_time", 1e-9),
        "sim_read_GBps": per("read_bytes", "read_time", 1e-9),
        "sim_p50_ms": quantile(samples, 0.50) * 1e3,
        "sim_p99_ms": statistics.median(tails) * 1e3 if tails else 0.0,
        "sim_goodput_rps": per("ops", "span_time"),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _better, _bound) in spec.END_TO_END.items()}


def per_layer(plain: dict, traced: dict) -> dict:
    layers = traced["layers"]
    counts = traced["counts"]
    ops = traced["ops"]
    busy = sum(layers.values())

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    values = {}
    for layer in spec.LAYERS:
        values[f"host.{layer}.self_s"] = layers[layer]
        values[f"host.{layer}.share"] = ratio(layers[layer], busy)
    values["host.other.self_s"] = layers["other"]
    disk_bytes = counts["ds.disk.bytes_written"] + counts["ds.disk.bytes_read"]
    values.update({
        "dlm.server.host_us_per_request": ratio(
            layers["dlm.server"], counts["dlm.requests"], 1e6),
        "dlm.client.host_us_per_lock": ratio(
            layers["dlm.client"], traced["lock_calls"], 1e6),
        "sim.core.host_ns_per_event": ratio(
            layers["sim.core"], counts["sim.events"], 1e9),
        "net.host_us_per_message": ratio(
            layers["net.fabric"] + layers["net.rpc"],
            counts["fabric.messages_delivered"], 1e6),
        "sim.events_per_op": ratio(counts["sim.events"], ops),
        "fabric.messages_per_op": ratio(
            counts["fabric.messages_delivered"], ops),
        "pfs.host_us_per_op": ratio(
            layers["pfs.client"] + layers["pfs.layout"]
            + layers["pfs.page_cache"], ops, 1e6),
        "storage.blockstore.host_ns_per_byte": ratio(
            layers["storage.blockstore"], disk_bytes, 1e9),
    })
    values.update(counts)
    spans = {s["name"]: s["end"] - s["start"] for s in plain["spans"]}
    for phase in ("setup", "run", "check", "collect"):
        values[f"span.{phase}_s"] = spans[phase]
    values["trace.overhead_ratio"] = ratio(traced["run_s"], plain["run_s"])
    values["host.ops_per_wall_s"] = ratio(plain["ops"], plain["run_s"])
    values["host.reference_scale"] = host_scale(plain)
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _better, _pred) in spec.PER_LAYER.items()}


def timed_runs(args, deadline):
    """Fresh-process iterations for about ``args.seconds``: at least
    three (for the medians) and at least one more than the workload has
    sub-seeds, so the digest check always compares two runs of one
    seed."""
    k = spec.WORKLOADS[args.workload]["subseeds"]
    need = max(3, k + 1)
    iterations = []
    start = time.monotonic()
    while True:
        done = len(iterations)
        if done >= need:
            now = time.monotonic()
            mean = (now - start) / done
            if now + mean > min(start + args.seconds, deadline):
                break
        it = run_worker(args.workload, spec.subseed(args.seed, done % k),
                        args.scale, False, args.plant, deadline)
        iterations.append(it)
        print(f"iteration {done}: {it['ops'] / it['run_s']:.1f} ops/s, "
              f"setup {it['setup_s']:.3f} s, {it['rss_mib']:.1f} MiB, "
              f"host scale {host_scale(it):.3f}", file=sys.stderr)
    errors = check_digests(iterations, k, args.plant)
    return iterations, errors, end_to_end(iterations, k)


def traced_runs(args, deadline):
    """One untraced and one traced iteration of the run's seed."""
    seed = spec.subseed(args.seed, 0)
    plain = run_worker(args.workload, seed, args.scale, False, None,
                       deadline)
    traced = run_worker(args.workload, seed, args.scale, True, args.plant,
                        deadline)
    iterations = [plain, traced]
    errors = check_digests(iterations, 1, args.plant)
    if errors:
        errors = ["traced run changed the simulation: " + e for e in errors]
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps(
        {"workload": args.workload, "seed": seed,
         "spans": {"untraced": plain["spans"], "traced": traced["spans"]},
         "layers_self_s": traced["layers"]}, indent=1) + "\n")
    return iterations, errors, per_layer(plain, traced)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: self-test size")
    ap.add_argument("--plant", default=None, choices=spec.PLANTS,
                    help="self-test: inject a fault the checks must catch")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + HARD_LIMIT_S
    try:
        if args.trace:
            iterations, errors, metrics = traced_runs(args, deadline)
        else:
            iterations, errors, metrics = timed_runs(args, deadline)
    except IterationCrashed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for it in iterations:
        errors += it["errors"]
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    result = {"correct": not errors,
              "attempted": sum(it["attempted"] for it in iterations),
              "failed": sum(it["failed"] for it in iterations),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

"""Repeat benchmark runs and summarise them.

Run from the repository root::

    # run-to-run spread of every end-to-end metric over ten seeds
    python3 perfbench/measure.py spread --workload traffic-mixed-knee \
        --seeds 1 2 3 4 5 6 7 8 9 10

    # record perfbench/baseline.json: every workload, the default and the
    # held-out seed, RUNS untraced runs each plus one traced run
    python3 perfbench/measure.py baseline --runs 5

The spread of a metric is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a
share of their median; the benchmark is steady when each spread, other
than ``setup_s``'s, is within a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["log"] = proc.stderr
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed\n"
                         f"{proc.stderr}")
    return result


def summarise(results) -> dict:
    out = {}
    for name, (_unit, _better, bound) in spec.END_TO_END.items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _q2, q3 = (statistics.quantiles(values, n=4)
                       if len(values) > 1 else (median, median, median))
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "bound": bound, "values": values}
    return out


def print_summary(title: str, summary: dict) -> None:
    print(title)
    for name, s in summary.items():
        steady = "setup" if name == "setup_s" else (
            "ok" if s["spread"] < s["bound"] / 3 else
            "WITHIN BOUND" if s["spread"] <= s["bound"] else "TOO WIDE")
        print(f"  {name:18s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g}"
              f" q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
              f"(bound {s['bound']}) {steady}")


def layer_checks(per_workload: dict) -> dict:
    """The layer separation the benchmark was built to show."""
    def share(workload, layer):
        return per_workload[workload][f"host.{layer}.share"]["value"]

    strided = {layer: share(spec.STRIDED, layer) for layer in spec.LAYERS}
    traffic = per_workload[spec.TRAFFIC]
    groups = {"sim.core+net": sum(share(spec.TRAFFIC, layer) for layer in
                                  ("sim.core", "net.fabric", "net.rpc")),
              "dlm": sum(share(spec.TRAFFIC, layer) for layer in
                         ("dlm.server", "dlm.client", "dlm.extent",
                          "dlm.lcm")),
              "pfs+storage": sum(share(spec.TRAFFIC, layer) for layer in
                                 spec.LAYERS if layer.startswith(
                                     ("pfs.", "storage."))),
              "traffic.engine": share(spec.TRAFFIC, "traffic.engine"),
              "metrics": share(spec.TRAFFIC, "metrics")}
    other = traffic["host.other.self_s"]["value"] / sum(
        traffic[f"host.{layer}.self_s"]["value"] for layer in spec.LAYERS)
    blockstore = {w: share(w, "storage.blockstore") for w in spec.WORKLOADS}
    return {
        "dlm.server largest share on strided":
            max(strided, key=strided.get) == "dlm.server",
        "dlm.server share below 5% on segmented":
            share(spec.SEGMENTED, "dlm.server") < 0.05,
        "sim.core+net largest group on traffic":
            max(groups, key=groups.get) == "sim.core+net",
        # Content-off runs still call the store's lookup bookkeeping, so
        # its self time elsewhere is small but not zero.
        "blockstore share >= 1% only on segmented":
            blockstore[spec.SEGMENTED] >= 0.01 and all(
                v < 0.01 for w, v in blockstore.items()
                if w != spec.SEGMENTED),
        "blockstore shares": {w: round(v, 5) for w, v in blockstore.items()},
        "traffic groups (share of repro layers)": {
            k: round(v, 4) for k, v in groups.items()},
        "traffic other/layers": round(other, 4),
    }


def cmd_spread(args) -> int:
    results = []
    for seed in args.seeds:
        t = time.monotonic()
        results.append(run_once(args.workload, seed, 0))
        print(f"  seed {seed}: {time.monotonic() - t:.1f} s", flush=True)
        print(results[-1]["log"], end="", flush=True)
    summary = summarise(results)
    print_summary(f"{args.workload}, seeds {args.seeds}", summary)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


def cmd_baseline(args) -> int:
    record = {
        "about": ("Baseline of every workload: median and quartiles of "
                  f"{args.runs} untraced runs per seed, and one traced run "
                  "per seed for the per-layer metrics.  Produced by "
                  "`python3 perfbench/measure.py baseline`."),
        "machine": {"cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "machine": platform.machine(),
                    "system": platform.system(),
                    "processor": platform.processor() or None},
        "run_seconds": RUN_SECONDS,
        "seeds": {"default": spec.DEFAULT_SEED,
                  "held_out": spec.HELD_OUT_SEED},
        "workloads": {},
        "predictions": {name: pred for name, (_u, _b, pred)
                        in spec.PER_LAYER.items()},
        "roadmap_items": spec.ROADMAP_ITEMS,
    }
    traced = {}
    for workload, info in spec.WORKLOADS.items():
        entry = record["workloads"][workload] = {"why": info["why"]}
        for seed in (spec.DEFAULT_SEED, spec.HELD_OUT_SEED):
            results = [run_once(workload, seed, 0) for _ in range(args.runs)]
            summary = summarise(results)
            print_summary(f"{workload} seed {seed}", summary)
            layers = run_once(workload, seed, 1)["metrics"]
            traced.setdefault(seed, {})[workload] = layers
            entry[f"seed{seed}"] = {
                "end_to_end": {n: {k: s[k] for k in ("median", "q1", "q3")}
                               for n, s in summary.items()},
                "per_layer": {n: m["value"] for n, m in layers.items()},
            }
    record["layer_checks"] = {f"seed{seed}": layer_checks(per_workload)
                              for seed, per_workload in traced.items()}
    print(json.dumps(record["layer_checks"], indent=1))
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread", help="spread over seeds, one workload")
    sp.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    sp.add_argument("--seeds", type=int, nargs="+", required=True)
    sp.add_argument("--out", help="also write the summary as JSON here")
    bp = sub.add_parser("baseline", help="write perfbench/baseline.json")
    bp.add_argument("--runs", type=int, default=5)
    args = ap.parse_args(argv)
    return cmd_spread(args) if args.cmd == "spread" else cmd_baseline(args)


if __name__ == "__main__":
    sys.exit(main())

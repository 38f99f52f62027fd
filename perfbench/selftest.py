"""Self-tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` agrees with ``spec.py`` and obeys the
naming limits, runs every workload at tiny size through ``run.py`` in
both modes, plants faults the output checks must report as failures,
and runs the benchmark where the program's sources are missing.  Exits
0 when all pass; prints each failure otherwise.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

BENCHMARK_KEYS = {"command", "paths", "run_seconds", "workloads",
                  "end_to_end", "per_layer"}


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "tiny",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def check_declaration() -> list:
    errors = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if set(bench) != BENCHMARK_KEYS:
        errors.append(f"BENCHMARK.json keys {sorted(bench)}")
    declared = {w["name"]: w["why"] for w in bench["workloads"]}
    if declared != {n: w["why"] for n, w in spec.WORKLOADS.items()}:
        errors.append("BENCHMARK.json workloads differ from spec.WORKLOADS")
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"])
           for m in bench["end_to_end"]}
    if e2e != spec.END_TO_END:
        errors.append("BENCHMARK.json end_to_end differs from spec")
    layer = {m["name"]: (m["unit"], m["better"])
             for m in bench["per_layer"]}
    if layer != {n: (u, b) for n, (u, b, _p) in spec.PER_LAYER.items()}:
        errors.append("BENCHMARK.json per_layer differs from spec")
    if len(e2e) > spec.MAX_END_TO_END or len(layer) > spec.MAX_PER_LAYER:
        errors.append(f"{len(e2e)} end-to-end / {len(layer)} per-layer "
                      f"metrics exceed {spec.MAX_END_TO_END}/"
                      f"{spec.MAX_PER_LAYER}")
    names = list(declared) + list(e2e) + list(layer)
    if len(set(names)) != len(names):
        errors.append("a metric or workload name is used twice")
    for name in names:
        if not spec.NAME_RE.fullmatch(name) or len(name) > 64:
            errors.append(f"bad name {name!r}")
    for why in declared.values():
        if len(why) > 200 or "\n" in why:
            errors.append(f"why is not one line of <= 200 chars: {why!r}")
    setup_bound = spec.END_TO_END["setup_s"][2]
    if any(b > setup_bound for _u, _b, b in spec.END_TO_END.values()):
        errors.append("setup_s must carry the largest bound")
    return errors


def check_smoke() -> list:
    errors = []
    for workload in spec.WORKLOADS:
        for trace, want in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
            code, result, err = run(["--workload", workload,
                                     "--trace", str(trace)])
            label = f"smoke {workload} --trace {trace}"
            if code != 0 or result is None:
                errors.append(f"{label}: exit {code}\n{err}")
                continue
            if not result["correct"] or result["failed"]:
                errors.append(f"{label}: reported failures\n{err}")
            if set(result["metrics"]) != set(want):
                errors.append(f"{label}: metric names differ from spec")
            if trace == 0:
                zero = [n for n, m in result["metrics"].items()
                        if not m["value"] > 0]
                if zero:
                    errors.append(f"{label}: non-positive {zero}")
    return errors


#: (workload, trace, plant): each must be reported as a failure.
PLANTED = [
    (spec.SEGMENTED, 0, "flip-byte"),
    (spec.STRIDED, 0, "conservation"),
    (spec.TRAFFIC, 1, "conservation"),
    (spec.TRAFFIC, 0, "traffic-identity"),
    (spec.STRIDED, 0, "digest"),
    (spec.TRAFFIC, 0, "digest"),
    (spec.SEGMENTED, 1, "digest"),
]


def check_planted() -> list:
    errors = []
    for workload, trace, plant in PLANTED:
        code, result, _err = run(["--workload", workload, "--trace",
                                  str(trace), "--plant", plant])
        caught = (code == 1 and result is not None
                  and result["correct"] is False and result["failed"] > 0)
        if not caught:
            errors.append(f"planted {plant} on {workload} --trace {trace} "
                          f"was not reported: exit {code}, {result}")
    return errors


def check_bare_directory() -> list:
    """Without the program's sources the benchmark must fail fast and
    print no result."""
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _err = run(["--workload", spec.STRIDED], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        return [f"bare directory: exit {code}, result {result}"]
    return []


def main() -> int:
    failures = []
    for check in (check_declaration, check_smoke, check_planted,
                  check_bare_directory):
        errors = check()
        print(f"{check.__name__:24s} {'ok' if not errors else 'FAILED'}")
        failures += errors
    for e in failures:
        print(f"  {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

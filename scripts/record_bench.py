#!/usr/bin/env python3
"""Record one point of the performance trajectory: every benchmark workload,
timed and traced, in one JSON file.

    python3 scripts/record_bench.py --out BENCH_<n>.json [--seconds S] \\
        [--size full|tiny]

For each workload that ``BENCHMARK.json`` declares it runs the timed benchmark
(``--trace 0``) and the traced one (``--trace 1``) on the checkout this
script lives in, always on seed ``SEED``, and writes:

- ``machine``: the host facts the benchmark recorded (CPUs, Python);
- per workload, ``correct``, the end-to-end metrics as medians over the
  timed repetitions, with every repetition's value, the per-layer metrics
  of the traced run, and its per-span table (calls, self and inclusive
  seconds) with the exact work counts.  A per-layer metric of a layer that
  no span of the traced run entered is ``null``: that layer was not
  reached, which a 0 would not say.

Exits nonzero, writing nothing, if a benchmark run fails or answers wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
SEED = 1  # every trajectory point runs the same inputs in the same order
UNLAYERED = ("trace", "unattributed")  # per-layer metrics of the whole run


def run_bench(workload: str, trace: int, args) -> tuple[dict, dict]:
    """The result line and the full results record of one benchmark run."""
    cmd = [
        sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", str(args.seconds),
        "--trace", str(trace), "--size", args.size,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    name = f"{workload}-{args.size}-seed{SEED}-trace{trace}.json"
    record = json.loads((ROOT / ".bench_results" / name).read_text())
    return result, record


def reached(metric: str, spans: dict) -> bool:
    """Whether the traced run entered the layer a per-layer metric is of:
    ``words_s`` and ``words.enumerated`` are of ``words``."""
    layer = metric.split(".")[0].removesuffix("_s")
    return layer in UNLAYERED or any(s.startswith(layer + ".") for s in spans)


def workload_entry(workload: str, args) -> tuple[dict, dict]:
    timed, timed_record = run_bench(workload, 0, args)
    traced, traced_record = run_bench(workload, 1, args)
    reps = timed_record["repetitions"]
    end_to_end = {}
    for key in END_TO_END:
        # setup time is sampled by every repetition, the rest by timed ones
        samples = [
            r[key] for r in reps
            if key in r and (key == "setup_s" or r["mode"] == "timed")
        ]
        end_to_end[key] = {
            "median": timed["metrics"][key]["value"],
            "unit": timed["metrics"][key]["unit"],
            "samples": samples,
        }
    trace = next(
        r["trace"] for r in traced_record["repetitions"] if r["mode"] == "traced"
    )
    entry = {
        "correct": timed["correct"] and traced["correct"],
        "end_to_end": end_to_end,
        "per_layer": {
            name: m["value"] if reached(name, trace["spans"]) else None
            for name, m in traced["metrics"].items()
        },
        "trace": {
            "wall_s": trace["wall_s"],
            "spans": {
                name: {key: span[key] for key in ("calls", "self_s", "total_s")}
                for name, span in trace["spans"].items()
            },
            "counts": trace["counts"],
        },
    }
    return entry, timed_record["machine"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    workloads = {}
    machine = None
    for workload in WORKLOADS:
        try:
            workloads[workload], machine = workload_entry(workload, args)
        except RuntimeError as err:
            print(err, file=sys.stderr)
            return 1
        if not workloads[workload]["correct"]:
            print(f"{workload}: wrong answer, nothing written", file=sys.stderr)
            return 1
    payload = {
        "machine": machine,
        "seed": SEED,
        "seconds": args.seconds,
        "size": args.size,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Outside-in benchmark of wordbialg.

    python3 bench/run.py --workload exotic-scan|kknuth-images|verify-table|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Every repetition runs in a fresh interpreter (see ``rep.py`` for why) and
every answer is checked against ``expected.json``.

``--trace 0`` repeats the timed call until ``--seconds`` are used (at least
``MIN_REPS`` times) and reports medians of the end-to-end metrics:

- ``wall_s``: time to the answer of the timed call;
- ``cpu_s``: user plus system CPU time of the timed call over the process
  tree, pool workers included;
- ``peak_rss_mb``: the largest resident set of any process in the tree;
- ``setup_s``: time from spawning the interpreter to the first library
  call (interpreter start and imports), sampled at least
  ``MIN_SETUP_SAMPLES`` times.

``--trace 1`` runs the workload once serially without tracing and twice
serially with a span around every call into each library layer, the
second time on the next seed.  It reports the first traced repetition's
per-layer self times and work counts (see ``tracing.py``) and the tracing
overhead, and checks that both traced repetitions made exactly the same
work counts and span calls.  For ``exotic-scan`` it also times one pooled
repetition to give the scan's parallel efficiency.

Known-answer checks that fail are counted in ``failed``; ``fail_frac`` is
``failed / attempted`` and must be 0.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--workload all`` runs the three workloads in turn and names
each metric ``<workload>.<metric>`` in that object.  The full record (machine facts, seed, every repetition, the
whole trace) is written to ``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own module, no library import)

MIN_REPS = 1
MIN_SETUP_SAMPLES = 11
RUN_LIMIT_S = 150.0  # a run must end well within the 180 s allowed

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Per-layer metrics reported in the result line: only those that every
# workload measures, since a layer a workload never reaches would read a
# constant 0 there.  Every other span's self time and call count, and every
# other work count, goes to the printed report and the results file.
PER_LAYER = {
    "words_s": "s",
    "relations_s": "s",
    "relations.neighbors_s": "s",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.serial_wall_s": "s",
    "trace.overhead": "ratio",
    "words.enumerated": "count",
    "relations.neighbor_calls": "count",
    "relations.candidates": "count",
    "relations.useful_ratio": "ratio",
}
LAYERS = ("words", "relations", "scans", "characters", "qsym", "bialgebra")


class RepFailed(RuntimeError):
    pass


def machine_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def spawn(args, workload: str, mode: str, deadline: float, extra=(),
          seed: int | None = None) -> dict:
    """Run one repetition in a fresh interpreter and return its record."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload,
        "--seed", str(args.seed if seed is None else seed),
        "--mode", mode, "--size", args.size, *extra,
        "--spawned-at",
    ]
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd + [repr(started)], cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{mode} repetition exceeded the run's time limit")
    finally:
        # the repetition's own process group: pool workers included
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RepFailed(f"{mode} repetition exited {proc.returncode}:\n{err.strip()}")
    record = json.loads(out.strip().splitlines()[-1])
    record["process_s"] = time.monotonic() - started
    return record


def layer_metrics(traced: dict, serial_wall: float) -> dict:
    """Every per-layer number the traced run gives, by name."""
    trace = traced["trace"]
    spans, counts = trace["spans"], trace["counts"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = sum(
            s["self_s"] for name, s in spans.items() if name.startswith(layer + ".")
        )
    for name, s in spans.items():
        out[f"{name}_s"] = s["self_s"]
        out[f"{name}.calls"] = s["calls"]
    out.update(counts)
    out["relations.neighbor_calls"] = spans.get("relations.neighbors", {}).get("calls", 0)
    out["relations.algebraic_calls"] = spans.get("relations.algebraic", {}).get("calls", 0)
    candidates = counts.get("relations.candidates", 0)
    out["relations.useful_ratio"] = (
        counts.get("relations.discovered", 0) / candidates if candidates else 0.0
    )
    out["trace.wall_s"] = trace["wall_s"]
    out["trace.serial_wall_s"] = serial_wall
    out["trace.overhead"] = trace["wall_s"] / serial_wall - 1.0
    out["trace.self_sum_s"] = sum(s["self_s"] for s in spans.values())
    return out


def unit_of(key: str) -> str:
    if key in END_TO_END or key in PER_LAYER:
        return {**END_TO_END, **PER_LAYER}[key]
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_ratio", "overhead", "efficiency")):
        return "ratio"
    return "count"


def run_workload(args, workload: str, expected: dict) -> dict:
    """Every repetition of one workload; prints the report and returns the
    result object (``correct``, ``attempted``, ``failed``, ``metrics``)."""
    facts = machine_facts()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    reps: list[dict] = []
    if args.trace == 0:
        while True:
            reps.append(spawn(args, workload, "timed", deadline))
            elapsed = time.monotonic() - start
            per_rep = statistics.median(r["process_s"] for r in reps)
            if elapsed + per_rep > RUN_LIMIT_S - 10:
                break
            if len(reps) >= MIN_REPS and elapsed + per_rep > args.seconds:
                break
        while len(reps) < MIN_SETUP_SAMPLES:
            reps.append(spawn(args, workload, "setup", deadline))
    else:
        if workload == "exotic-scan":
            reps.append(spawn(args, workload, "timed", deadline))
        reps.append(spawn(args, workload, "serial", deadline))
        for seed in (args.seed, args.seed + 1):
            reps.append(spawn(args, workload, "traced", deadline, seed=seed))
    cross = None
    if workload == "exotic-scan" and expected["non_positive"]:
        cross = spawn(args, workload, "cross-check", deadline,
                      ["--cross-check", *expected["non_positive"]])

    # known-answer gate, work counts that must repeat, independent cross-check
    checks: list[tuple[str, bool]] = []
    measured = [r for r in reps if "answer" in r]
    for i, rep in enumerate(measured):
        checks += [(f"rep {i} {key}", ok) for key, ok in workloads.gate(rep["answer"], expected)]
        if i:
            checks.append((f"rep {i} work counts repeat", rep["work"] == measured[0]["work"]))
    traced = [r["trace"] for r in reps if r["mode"] == "traced"]
    if traced:
        # exact counts of the whole traced run; a drift between the two
        # seeds is a defect (the seed only permutes input order)
        def exact(trace):
            return trace["counts"], {n: s["calls"] for n, s in trace["spans"].items()}

        checks.append(("traced work counts and span calls repeat across seeds",
                       exact(traced[1]) == exact(traced[0])))
    if cross is not None:
        for rep, facts_ in cross["answer"].items():
            checks.append((f"cross-check {rep} symmetric, not Q-positive",
                           facts_["symmetric"] and not facts_["q_positive"]))
    attempted = len(checks)
    failed = sum(1 for _, ok in checks if not ok)

    if args.trace == 0:
        timed = [r for r in reps if r["mode"] == "timed"]
        report = {key: statistics.median(r[key] for r in timed)
                  for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        report["setup_s"] = statistics.median(r["setup_s"] for r in reps)
        units = END_TO_END
    else:
        by_mode = {r["mode"]: r for r in reversed(reps)}  # first of each mode
        report = layer_metrics(by_mode["traced"], by_mode["serial"]["wall_s"])
        if "timed" in by_mode:
            jobs = workloads.PARAMS[workload][args.size]["jobs"]
            report["scans.parallel_efficiency"] = (
                by_mode["serial"]["wall_s"] / (jobs * by_mode["timed"]["wall_s"])
            )
        units = PER_LAYER
    metrics = {
        name: {"value": report.get(name, 0), "unit": unit} for name, unit in units.items()
    }
    facts["loadavg_end"] = list(os.getloadavg())

    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": facts,
        "repetitions": reps, "checks": checks, "report": report,
        "metrics": metrics,
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    name = f"{workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1))

    print(f"# {workload} seed={args.seed} trace={args.trace} size={args.size} "
          f"machine={json.dumps(facts)}")
    print(f"# {workload} repetitions: {len(measured)} measured, {len(reps)} interpreters")
    for key, ok in checks:
        if not ok:
            print(f"# {workload} FAILED check: {key}")
    print(f"# {workload} fail_frac = {failed / attempted if attempted else 0:.6g} "
          f"({failed} of {attempted} known-answer checks)")
    for key in sorted(report):
        print(f"# {workload} {key} = {report[key]:.6g} {unit_of(key)}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*sorted(workloads.WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small inputs")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json",
                        help="known answers to check against")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wordbialg" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads(args.expected.read_text())[args.size]
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(args, name, expected[name])
    except RepFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fast self-test of the benchmark, at tiny input sizes (well under a minute).

    python3 bench/selftest.py

For every workload it checks that:

- every end-to-end and per-layer metric of ``BENCHMARK.json`` is emitted
  with its unit, and the known-answer gate passes;
- a tampered expected answer makes the gate fail;
- the traced run's per-span self times, ``unattributed`` included, sum to
  its wall time;
- the run checked that its two traced repetitions, on different seeds,
  made identical work counts.

It also checks that the benchmark fails, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and ``bench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_results" / "selftest"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# One answer per workload to corrupt, and how.
TAMPER = {
    "exotic-scan": ("total_classes", lambda v: v + 1),
    "kknuth-images": ("classes", lambda v: v + 1),
    "verify-table": ("relation knuth", lambda v: {**v, "finite_type": not v["finite_type"]}),
}


def bench(workload: str, seed: int, trace: int, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(res: dict, declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want, f"metrics {got} differ from the declared {want}"
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, sorted(res)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == sorted(workloads.WORKLOADS)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    tiny = ["--size", "tiny"]

    for wl in sorted(workloads.WORKLOADS):
        res = result(bench(wl, 1, 0, *tiny))
        check_names(res, spec["end_to_end"])
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, res
        for name, m in res["metrics"].items():
            assert m["value"] > 0, (wl, name, m)

        res = result(bench(wl, 1, 1, *tiny))
        check_names(res, spec["per_layer"])
        assert res["correct"], res
        record = json.loads(
            (ROOT / ".bench_results" / f"{wl}-tiny-seed1-trace1.json").read_text()
        )
        for rep in record["repetitions"]:
            if rep["mode"] != "traced":
                continue
            trace = rep["trace"]
            self_sum = sum(s["self_s"] for s in trace["spans"].values())
            assert abs(self_sum - trace["wall_s"]) <= 1e-9 * max(trace["wall_s"], 1.0), (
                wl, self_sum, trace["wall_s"])
            assert "unattributed" in trace["spans"], wl
        drift = [ok for key, ok in record["checks"] if "repeat across seeds" in key]
        assert drift == [True], f"{wl}: traced work counts not compared or drift"

        expected = json.loads((HERE / "expected.json").read_text())
        key, corrupt = TAMPER[wl]
        expected["tiny"][wl][key] = corrupt(expected["tiny"][wl][key])
        tampered = WORKDIR / f"expected-{wl}.json"
        tampered.write_text(json.dumps(expected))
        res = result(bench(wl, 1, 0, *tiny, "--expected", str(tampered)))
        assert not res["correct"] and res["failed"] > 0, f"{wl}: tampered gate passed"
        print(f"selftest {wl}: ok", flush=True)

    bare = WORKDIR / "bare"
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("exotic-scan", 1, 0, *tiny, cwd=bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    shutil.rmtree(WORKDIR)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
